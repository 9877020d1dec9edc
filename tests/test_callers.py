import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "plotarc"
DEMO = ROOT / "demos" / "planted_ending_walkthrough.py"


def _loaded_names(node) -> set[str]:
    """Names ``node`` reads, as a bare name or as an attribute."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def test_every_public_function_and_class_has_a_caller():
    # A public top-level function or class of src/plotarc must be read
    # somewhere in src/plotarc outside its own definition, or by the demo.
    # Tests and the package's re-exports in __init__.py do not count.
    defined: list[str] = []
    used = _loaded_names(ast.parse(DEMO.read_text(encoding="utf-8")))
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            names = _loaded_names(node)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.discard(node.name)
                if not node.name.startswith("_"):
                    defined.append(f"{path.stem}.{node.name}")
            used |= names
    assert [name for name in defined if name.split(".")[1] not in used] == []
