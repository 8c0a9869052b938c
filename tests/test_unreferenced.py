"""Every public name in ``src/`` is used by the program, or says why not;
every name a module imports is read there."""

import ast
from collections import defaultdict
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# public names that nothing else in src/ references -> why they stay
UNREFERENCED = {
    "maxmin_value_of": "bench oracle: a strategy's worst expected payoff",
    "player_problem_from_matrix": "bench oracle: a player problem from a strategic matrix",
    "contains": "bench oracle: CredalSet membership of a rectangularity witness",
    "outcome_distribution": "Kuhn layer, awaiting the sequence form and general induction",
    "mixed_to_behavioral": "Kuhn layer, awaiting the sequence form and general induction",
    "behavioral_to_mixed": "Kuhn layer, awaiting the sequence form and general induction",
    "outcome_equivalent": "Kuhn layer, awaiting the sequence form and general induction",
}


def _public_definitions(tree: ast.Module):
    """(node, is a method) for module-level functions and classes, and the
    methods of public classes, whose names do not start with an underscore."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node, False
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield item, True


def unreferenced_names() -> set[str]:
    """Public definitions that nothing outside their own body reads: by name
    or attribute for a function or class, by attribute for a method."""
    definitions, references = [], defaultdict(list)
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text())
        definitions += [(path, node, method) for node, method in _public_definitions(tree)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                references[node.id].append((path, node.lineno, False))
            elif isinstance(node, ast.Attribute):
                references[node.attr].append((path, node.lineno, True))
    return {
        node.name
        for path, node, method in definitions
        if not any(
            (attribute or not method)
            and not (where == path and node.lineno <= line <= node.end_lineno)
            for where, line, attribute in references[node.name]
        )
    }


def test_every_unreferenced_public_name_is_allowed_with_a_reason():
    assert unreferenced_names() == set(UNREFERENCED)
    assert all(reason.strip() for reason in UNREFERENCED.values())


def unread_imports() -> set[str]:
    """'module: name' for each name a ``src/`` module imports and never
    reads; a name listed in the module's ``__all__`` is read by importers."""
    unread = set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text())
        imported, read = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {a.asname or a.name.split(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {a.asname or a.name for a in node.names}
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                read |= set(ast.literal_eval(node.value))
        unread |= {f"{path.relative_to(SRC)}: {name}" for name in imported - read}
    return unread


def test_every_imported_name_is_read():
    assert unread_imports() == set()
