import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "plotarc"
DEMO = ROOT / "demos" / "planted_ending_walkthrough.py"

# The package's re-exports in __init__.py do not count as callers.
MODULES = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
           for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}


def _loaded_names(node) -> Counter:
    """Names ``node`` reads, as a bare name or as an attribute, with their counts."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def _uncalled(definitions) -> list[str]:
    """The qualified names of those ``(name, node)`` definitions read nowhere in
    src/plotarc outside their own definition, nor by the demo. Tests do not count."""
    used = _loaded_names(ast.parse(DEMO.read_text(encoding="utf-8")))
    for tree in MODULES.values():
        used += _loaded_names(tree)
    return [name for name, node in definitions if used[node.name] <= _loaded_names(node)[node.name]]


def _public(nodes):
    return [n for n in nodes if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and not n.name.startswith("_")]


def test_every_public_function_and_class_has_a_caller():
    definitions = [(f"{stem}.{node.name}", node) for stem, tree in MODULES.items() for node in _public(tree.body)]
    assert _uncalled(definitions) == []


def test_every_public_method_and_property_has_a_caller():
    # Members of every class, private classes included.
    definitions = [
        (f"{stem}.{cls.name}.{member.name}", member)
        for stem, tree in MODULES.items()
        for cls in tree.body if isinstance(cls, ast.ClassDef)
        for member in _public(cls.body)
    ]
    assert [name for name, _ in definitions]  # the walk finds members at all
    assert _uncalled(definitions) == []
