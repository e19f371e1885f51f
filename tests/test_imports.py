"""A fresh interpreter that imports every module, certifies a T^2 spec
(its ball masses take J1 from fields._bessel_j1), measures nodal sets,
singular points, ball counts and a cover's overlap, and runs gen, certify,
doubling, nodal and report through cli.main loads no scipy: the package
is scipy-free, and scipy serves only the tests as an independent oracle."""

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
from nodalscope.nodal import (count_singular_in_balls, extract_nodal,
                              find_singular_points)
from nodalscope.spectrum import mode_spec, random_eigenfunction, translate
assert generate_cover(0.125, TorusModel(2)).overlap_bound == 32
assert largest_admissible_r(random_eigenfunction(1105, TorusModel(2), 0))
# 2 sin(2 pi 3 x) sin(2 pi 4 y), moved off the grid: 48 crossings, each
# reached from several cells, so the merge joins hits
product = translate(mode_spec([((3, -4), 1.0, 0.0), ((3, 4), -1.0, 0.0)],
                              TorusModel(2)), (0.0137, 0.0291))
assert extract_nodal(product, 128).polylines
points = find_singular_points(product, 128)
assert len(points) == 48
assert sum(count_singular_in_balls(points, 0.25, product.lam,
                                   [(0.5, 0.5), (0.0, 0.0)])) > 0
out = sys.argv[2]
spec = str(Path(out, "spec_m25_dim2_seed0.json"))
assert cli.main(["--out", out, "gen", "--m", "25"]) == 0
for command in ("certify", "doubling"):
    # a failing certificate exits 1; an input error would exit 2
    assert cli.main(["--out", out, command, "--spec", spec,
                     "--r", "0.25"]) in (0, 1)
# m = 1105, seed 0 certifies, so its report measures every quantity
assert cli.main(["--out", out, "gen", "--m", "1105"]) == 0
spec = str(Path(out, "spec_m1105_dim2_seed0.json"))
assert cli.main(["--out", out, "nodal", "--spec", spec]) == 0
manifest = Path(out, "manifest.json")
manifest.write_text(json.dumps({"specs": [spec]}))
assert cli.main(["--out", out, "report", "--manifest", str(manifest)]) == 0
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
