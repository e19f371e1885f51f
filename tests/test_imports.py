"""A fresh interpreter that imports every module, certifies a T^2 spec
(its ball masses take J1 from fields._bessel_j1) and runs gen, certify and
doubling through cli.main loads no scipy: only the k-d tree and sparse-graph
users in geometry and nodal import it, inside the functions that call it,
so short processes do not pay for it."""

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
from nodalscope.certify import largest_admissible_r
from nodalscope.geometry import TorusModel, generate_cover
from nodalscope.spectrum import random_eigenfunction
generate_cover(0.125, TorusModel(2))
assert largest_admissible_r(random_eigenfunction(1105, TorusModel(2), 0))
out = sys.argv[2]
spec = str(Path(out, "spec_m25_dim2_seed0.json"))
assert cli.main(["--out", out, "gen", "--m", "25"]) == 0
for command in ("certify", "doubling"):
    # a failing certificate exits 1; an input error would exit 2
    assert cli.main(["--out", out, command, "--spec", spec,
                     "--r", "0.25"]) in (0, 1)
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
