"""A fresh interpreter that imports every module and runs the commands
that need no Bessel function or k-d tree loads no scipy: scipy is imported
inside the functions that call it, so short processes do not pay for it."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import importlib, json, sys
from pathlib import Path
for path in sorted(Path(sys.argv[1], "nodalscope").glob("*.py")):
    importlib.import_module("nodalscope" if path.stem == "__init__"
                            else f"nodalscope.{path.stem}")
from nodalscope import cli
from nodalscope.geometry import TorusModel, generate_cover
from nodalscope.spectrum import random_eigenfunction
generate_cover(0.125, TorusModel(2))
random_eigenfunction(25, TorusModel(2), 0)
assert cli.main(["--out", sys.argv[2], "gen", "--m", "25"]) == 0
print(json.dumps(sorted(name for name in sys.modules
                        if name.split(".")[0] == "scipy")))
"""


def test_no_scipy_at_import(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(SRC), str(tmp_path)], env=env,
        capture_output=True, text=True, timeout=120, check=True)
    assert json.loads(done.stdout.splitlines()[-1]) == []
