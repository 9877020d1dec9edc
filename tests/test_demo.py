import ast
import hashlib
import importlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

import plotarc

DEMO = Path(__file__).resolve().parent.parent / "demos" / "planted_ending_walkthrough.py"

# SHA-256 of each file the demo writes.
DEMO_DIGESTS = {
    "ladder.csv": "c5b7b158c5fc29d929b1d10f6e4d297b269aa9d22fae04b79a49e537e8d892d7",
    "sweep.csv": "c5cc33956bc0af2422eb674b3157c4f990adc608e27d85c5f351807a81999326",
    "sweep.svg": "55388dd924d3611a28617b53053bfba1a9bbc9924bace9892c26677931e61cdb",
}


def test_demo_imports_exist():
    # Every name the demo imports from plotarc must still exist; this names
    # the missing one where the run below would only fail.
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


def test_demo_runs_end_to_end(tmp_path):
    # The demo writes demo_out/ next to itself, so it runs from a copy.
    script = tmp_path / DEMO.name
    shutil.copyfile(DEMO, script)
    env = dict(os.environ)
    src = str(Path(plotarc.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(script)], env=env, capture_output=True, text=True, check=True)
    assert "  best F1 0.933 at final section length 4 (planted boundary was 4)\n" in done.stdout
    written = sorted((tmp_path / "demo_out").iterdir())
    assert {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in written} == DEMO_DIGESTS
