import ast
import importlib
from pathlib import Path

DEMO = Path(__file__).resolve().parent.parent / "demos" / "planted_ending_walkthrough.py"


def test_demo_imports_exist():
    # The suite does not run the demo (CI does, from a copy), so a name deleted
    # from the package would break it unseen here; every name it imports from
    # plotarc must still exist.
    imports = [
        (node.module, alias.name)
        for node in ast.walk(ast.parse(DEMO.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "plotarc"
        for alias in node.names
    ]
    assert imports
    missing = [
        f"{module}.{name}"
        for module, name in imports
        if not hasattr(importlib.import_module(module), name)
    ]
    assert missing == []
