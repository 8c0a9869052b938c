"""Exact rational numbers.

The whole library computes over ``fractions.Fraction``: arbitrary-precision
integers, always stored in lowest terms with a positive denominator, and no
rounding anywhere.  This module fixes the wire format ("p/q", or "n" for
integers) and provides the few helpers the rest of the code shares.
"""

from __future__ import annotations

import re
from fractions import Fraction

RATIONAL_RE = re.compile(r"^[+-]?\d+(/0*[1-9]\d*)?$")  # no zero denominator


def rat(value: int | str | Fraction) -> Fraction:
    """Coerce an int, a "p/q"/"n" string, or a Fraction to an exact Fraction.

    Floats are rejected: silently admitting binary floats would smuggle
    rounding into a library whose contract is exactness.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise TypeError(f"not an exact rational: {value!r}")
    return Fraction(value)


def read_rational(value, path: str, out: list[str]) -> Fraction | None:
    """Read an exact rational from outside input: an int, or "1/102", "-3".

    The one reader for scenario files, inline games and command-line flags.
    Bools, floats, decimals and zero denominators are violations: the
    message, naming ``path``, goes to ``out`` and the result is None.
    """
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str) and RATIONAL_RE.match(value.strip()):
        return Fraction(value.strip())
    out.append(f"{path}: {value!r} is not an exact rational like 1/102")
    return None


def fixed(value: Fraction, places: int) -> str:
    """``value`` to ``places`` >= 1 decimals for display, by integer arithmetic:
    floor(|value| 10**places + 1/2), signed unless it rounds to zero."""
    mag = abs(value)
    scale = 10**places
    scaled = (mag.numerator * scale + mag.denominator // 2) // mag.denominator
    sign = "-" if value < 0 and scaled else ""
    whole, frac = divmod(scaled, scale)
    return f"{sign}{whole}.{frac:0{places}d}"


def approx_decimal(value: Fraction) -> str:
    """Six decimals less trailing zeros, marked approximate by callers."""
    text = fixed(value, 6).rstrip("0")
    return text + "0" if text.endswith(".") else text
