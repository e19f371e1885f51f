import json
import math
from pathlib import Path

import pytest

from nodalscope.certify import SCHEMA_VERSION
from nodalscope.cli import main
from nodalscope.nodal import extract_nodal
from nodalscope.spectrum import spec_to_json, translate


def run(args):
    return main(args)


def test_gen_and_determinism(tmp_path):
    out = str(tmp_path)
    assert run(["--out", out, "gen", "--m", "25", "--dim", "2",
                "--seed", "7"]) == 0
    path = tmp_path / "spec_m25_dim2_seed7.json"
    first = path.read_bytes()
    assert run(["--out", out, "gen", "--m", "25", "--dim", "2",
                "--seed", "7"]) == 0
    assert path.read_bytes() == first
    payload = json.loads(first)
    assert len(payload["modes"]) == 6
    assert "lambda" not in payload


def test_gen_no_modes_exit_code(tmp_path, capsys):
    # 3 is not a sum of two squares; m < 1 has no modes at all
    for m in ("3", "0", "-4"):
        assert run(["--out", str(tmp_path), "gen", "--m", m, "--dim",
                    "2"]) == 2
        assert "error:" in capsys.readouterr().err
    assert not list(tmp_path.glob("spec_*.json"))


def test_certify_exit_codes(tmp_path, t2, sin1):
    out = str(tmp_path)
    sin_path = tmp_path / "sin.json"
    sin_path.write_text(spec_to_json(sin1))
    assert run(["--out", out, "certify", "--spec", str(sin_path),
                "--r", "0.25"]) == 1
    assert run(["--out", out, "gen", "--m", "325", "--seed", "0"]) == 0
    assert run(["--out", out, "certify", "--spec",
                str(tmp_path / "spec_m325_dim2_seed0.json"),
                "--r", "0.25"]) == 0
    cert = json.loads(
        (tmp_path / "certificate_m325_dim2_seed0_r0.25.json").read_text())
    assert cert["schema_version"] == SCHEMA_VERSION
    assert cert["config_hash"]
    assert cert["pass"] is True


def test_certify_names_each_spec(tmp_path):
    # two specs of one m certified into one --out leave two certificates,
    # each named by m, dim and seed as gen names the spec
    out = str(tmp_path)
    for seed in ("0", "1"):
        assert run(["--out", out, "gen", "--m", "325", "--seed", seed]) == 0
        assert run(["--out", out, "certify", "--spec",
                    str(tmp_path / f"spec_m325_dim2_seed{seed}.json"),
                    "--r", "0.25"]) in (0, 1)
    names = sorted(p.name for p in tmp_path.glob("certificate_*.json"))
    assert names == ["certificate_m325_dim2_seed0_r0.25.json",
                     "certificate_m325_dim2_seed1_r0.25.json"]
    ids = [json.loads((tmp_path / n).read_text())["spec_id"] for n in names]
    assert ids == ["m=325,seed=0,dim=2", "m=325,seed=1,dim=2"]


def test_certify_bad_r_exit_code(tmp_path, sin1):
    sin_path = tmp_path / "sin.json"
    sin_path.write_text(spec_to_json(sin1))
    assert run(["--out", str(tmp_path), "certify", "--spec", str(sin_path),
                "--r", "0.01"]) == 2


_BAD_SPECS = {
    "nan": ([1, 0], float("nan"), [0, 1], 1.0),
    "duplicate": ([1, 0], 1.0, [1, 0], 1.0),
    "negated_duplicate": ([1, 0], 1.0, [-1, 0], 1.0),
    "bad_norm_of_k": ([1, 0], 1.0, [1, 1], 1.0),
}


@pytest.mark.parametrize("case", [*_BAD_SPECS, "not_json", "directory"])
def test_bad_spec_exit_code(tmp_path, case, capsys):
    path = tmp_path / "spec.json"
    if case == "not_json":
        path.write_text("m = 1\n")
    elif case == "directory":
        path.mkdir()
    else:
        k1, a1, k2, a2 = _BAD_SPECS[case]
        path.write_text(json.dumps({"dim": 2, "m": 1, "seed": None, "modes": [
            {"k": k1, "a": a1, "b": 0.0}, {"k": k2, "a": a2, "b": 0.0}]}))
    assert run(["--out", str(tmp_path), "certify", "--spec", str(path),
                "--r", "0.25"]) == 2
    assert "error:" in capsys.readouterr().err
    assert not list(tmp_path.glob("certificate_*.json"))


@pytest.mark.parametrize("seed", ["a/b", 2.5, True, [1, 2], -1],
                         ids=["slash", "float", "bool", "list", "negative"])
def test_bad_seed_exit_code(tmp_path, sin1, seed, capsys):
    # a spec's seed is None or an integer >= 0; any other is refused with
    # exit 2 before any computation, by certify and by report (whose file
    # names carry the seed), and no file is written
    spec = json.loads(spec_to_json(sin1))
    spec["seed"] = seed
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"specs": [str(path)]}))
    out = tmp_path / "out"
    assert run(["--out", str(out), "certify", "--spec", str(path),
                "--r", "0.25"]) == 2
    assert run(["--out", str(out), "report", "--manifest",
                str(manifest)]) == 2
    assert capsys.readouterr().err.count("error: seed must be") == 2
    assert not out.exists()


def test_gen_negative_seed_exit_code(tmp_path, capsys):
    assert run(["--out", str(tmp_path), "gen", "--m", "1", "--seed",
                "-1"]) == 2
    assert "error: seed must be" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


_BAD_MANIFESTS = {
    "not_json": "specs: [a.json]\n",
    "no_specs": json.dumps({"beta": 0.01}),
    "specs_not_a_list": json.dumps({"specs": "a.json"}),
    "int_past_digit_cap": '{"specs": [], "beta": 1' + "0" * 5000 + "}",
}


@pytest.mark.parametrize("case", sorted(_BAD_MANIFESTS))
def test_bad_manifest_exit_code(tmp_path, case, capsys):
    path = tmp_path / "manifest.json"
    path.write_text(_BAD_MANIFESTS[case])
    assert run(["--out", str(tmp_path), "report", "--manifest",
                str(path)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "family_report.csv").exists()


@pytest.mark.parametrize("value", ["0.01", None, True, float("nan"), 10**400],
                         ids=["string", "null", "bool", "nan", "huge_int"])
@pytest.mark.parametrize("key", ["beta", "kappa"])
def test_bad_manifest_number_exit_code(tmp_path, key, value, capsys,
                                       monkeypatch):
    # beta and kappa are checked before any member is certified (cli binds
    # certified_member by name, so both bindings fail)
    import nodalscope.cli as cli
    import nodalscope.harness as harness

    def no_certificate(spec):
        raise AssertionError("member certified for a refused report")

    monkeypatch.setattr(harness, "certified_member", no_certificate)
    monkeypatch.setattr(cli, "certified_member", no_certificate)
    out = str(tmp_path)
    assert run(["--out", out, "gen", "--m", "25", "--seed", "7"]) == 0
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({
        "specs": [str(tmp_path / "spec_m25_dim2_seed7.json")], key: value}))
    assert run(["--out", out, "report", "--manifest", str(path)]) == 2
    assert f"error: manifest {key}" in capsys.readouterr().err
    assert not list(tmp_path.glob("report*"))
    assert not (tmp_path / "family_report.csv").exists()


@pytest.mark.parametrize("command", ["nodal", "report"])
def test_3d_spec_exit_code(tmp_path, command, capsys, monkeypatch):
    # 3-D specs are refused with exit 2; report refuses them before it
    # computes any certificate, even after a 2-D spec in the manifest
    # (every member's certificates come from certify_equidistribution)
    import nodalscope.certify as certify

    def no_certificate(*args):
        raise AssertionError("certificate computed for a refused report")

    monkeypatch.setattr(certify, "certify_equidistribution", no_certificate)
    out = str(tmp_path)
    assert run(["--out", out, "gen", "--m", "25", "--seed", "7"]) == 0
    assert run(["--out", out, "gen", "--m", "50", "--dim", "3",
                "--seed", "0"]) == 0
    spec3 = str(tmp_path / "spec_m50_dim3_seed0.json")
    if command == "nodal":
        args = ["nodal", "--spec", spec3]
    else:
        man_path = tmp_path / "manifest.json"
        man_path.write_text(json.dumps({"specs": [
            str(tmp_path / "spec_m25_dim2_seed7.json"), spec3]}))
        args = ["report", "--manifest", str(man_path)]
    assert run(["--out", out, *args]) == 2
    assert "2-D" in capsys.readouterr().err
    assert not list(tmp_path.glob("nodal_*")) + list(tmp_path.glob("report*"))
    assert not (tmp_path / "family_report.csv").exists()


def test_nodal_artifacts(tmp_path, sin1):
    out = str(tmp_path)
    sin_path = tmp_path / "sin.json"
    sin_path.write_text(spec_to_json(sin1))
    assert run(["--out", out, "nodal", "--spec", str(sin_path),
                "--grid", "512"]) == 0
    summary = json.loads(
        (tmp_path / "nodal_summary_m=1,seed=None,dim=2_N512.json").read_text()
    )
    assert summary["length"] == pytest.approx(2.0, rel=1e-3)
    seg_text = (tmp_path
                / "nodal_segments_m=1,seed=None,dim=2_N512.csv").read_text()
    assert seg_text.startswith(f"# schema_version={SCHEMA_VERSION} config=")


@pytest.mark.parametrize("m,grid", [(3969, 512), (3970, 1024)])
def test_nodal_default_grid(tmp_path, m, grid):
    # without --grid, nodal measures on the grid report uses: the smallest
    # 512 * 2^j at or above 4 nyquist_resolution(m) (512 up to m = 3969,
    # 520 at m = 3970); the hash names the resolved N, so the default run
    # writes the same files as an explicit --grid N
    assert run(["--out", str(tmp_path), "gen", "--m", str(m)]) == 0
    spec = str(tmp_path / f"spec_m{m}_dim2_seed0.json")
    files = {}
    for sub, extra in (("default", []), ("explicit", ["--grid", str(grid)])):
        assert run(["--out", str(tmp_path / sub), "nodal", "--spec", spec,
                    *extra]) == 0
        files[sub] = {p.name: p.read_bytes()
                      for p in (tmp_path / sub).iterdir()}
    name = f"m{m}_dim2_seed0_N{grid}"
    assert sorted(files["default"]) == [f"nodal_segments_{name}.csv",
                                        f"nodal_summary_{name}.json"]
    assert files["default"] == files["explicit"]


def test_nodal_singular_points_artifact(tmp_path, product_spec):
    # the four order-2 crossings of 2 sin(2 pi x) sin(2 pi y), with the
    # segment count and the CSV header hash matching the summary's
    spec_path = tmp_path / "product.json"
    spec_path.write_text(spec_to_json(product_spec))
    assert run(["--out", str(tmp_path), "nodal", "--spec", str(spec_path),
                "--grid", "512"]) == 0
    summary = json.loads(
        (tmp_path / "nodal_summary_m=2,seed=None,dim=2_N512.json").read_text()
    )
    points = summary["singular_points"]
    assert len(points) == 4
    assert all(p["vanishing_order"] == 2 for p in points)
    assert all(p["residual"] < 1e-8 for p in points)
    seg_bytes = (tmp_path
                 / "nodal_segments_m=2,seed=None,dim=2_N512.csv").read_bytes()
    assert b"\r" not in seg_bytes  # every line ends in "\n"
    seg_lines = seg_bytes.decode().splitlines()
    assert seg_lines[0].endswith(f"config={summary['config_hash']}")
    assert seg_lines[1] == "x1,y1,x2,y2"
    assert len(seg_lines) == 2 + summary["n_segments"]
    # .17g rows read back as the extracted segments, bit for bit
    rows = [[float(v) for v in ln.split(",")] for ln in seg_lines[2:]]
    assert rows == extract_nodal(product_spec, 512).segments.tolist()


def test_verbose_logs_to_stderr(tmp_path, product_spec, capsys):
    # -v shows the library's INFO lines and changes no written byte
    spec_path = tmp_path / "product.json"
    spec_path.write_text(spec_to_json(product_spec))
    files, errs = {}, {}
    for flags in ([], ["-v"]):
        out = tmp_path / f"out{len(flags)}"
        assert run([*flags, "--out", str(out), "nodal", "--spec",
                    str(spec_path), "--grid", "64"]) == 0
        errs[len(flags)] = capsys.readouterr().err
        files[len(flags)] = {p.name: p.read_bytes() for p in out.iterdir()}
    assert errs[0] == ""
    assert "singular search from" in errs[1]
    assert files[0] == files[1]


def test_doubling_artifacts(tmp_path):
    out = str(tmp_path)
    assert run(["--out", out, "gen", "--m", "25", "--seed", "7"]) == 0
    spec_path = str(Path(out) / "spec_m25_dim2_seed7.json")
    assert run(["--out", out, "doubling", "--spec", spec_path,
                "--r", "0.25", "--tol", "1e-2"]) == 0
    summary = json.loads(
        (tmp_path / "doubling_summary_m25_dim2_seed7_r0.25.json").read_text()
    )
    for key in ("m", "lambda", "r", "c_star", "max_index", "n_records"):
        assert key in summary
    assert summary["lambda"] == pytest.approx(4 * math.pi**2 * 25)
    lines = (tmp_path / "doubling_records_m25_dim2_seed7_r0.25.csv") \
        .read_text().splitlines()
    assert lines[0].startswith(f"# schema_version={SCHEMA_VERSION} config=")
    header, rows = lines[1].split(","), [ln.split(",") for ln in lines[2:]]
    assert len(rows) == summary["n_records"]
    # every column carries a value in some row
    for i, name in enumerate(header):
        assert any(row[i] for row in rows), name
    assert lines[0].endswith(f"config={summary['config_hash']}")


def test_doubling_below_every_scale_exit_code(tmp_path, capsys, monkeypatch):
    # at m = 25, r = 0.001 every scale of the sweep is at least 10 r: the
    # scan refuses before it builds its ~2M-center cover
    import nodalscope.geometry as geometry

    def no_cover(r, model):
        raise AssertionError(f"cover of radius {r} built")

    out = str(tmp_path)
    assert run(["--out", out, "gen", "--m", "25", "--seed", "7"]) == 0
    monkeypatch.setattr(geometry, "generate_cover", no_cover)
    assert run(["--out", out, "doubling", "--spec",
                str(tmp_path / "spec_m25_dim2_seed7.json"),
                "--r", "0.001"]) == 2
    assert "error:" in capsys.readouterr().err
    assert not list(tmp_path.glob("doubling_*"))


@pytest.mark.parametrize("command, flag, value", [
    ("doubling", "--tol", "nan"), ("doubling", "--r", "inf"),
    ("certify", "--k1", "nan"), ("certify", "--k2", "inf"),
])
def test_non_finite_number_exit_code(tmp_path, command, flag, value, capsys):
    # argparse refuses NaN and infinities with exit 2 before any scan, so
    # no artifact carries an uncertified value or a non-JSON number
    assert run(["--out", str(tmp_path), "gen", "--m", "25", "--seed",
                "7"]) == 0
    out = tmp_path / "out"
    r = [] if flag == "--r" else ["--r", "0.25"]
    with pytest.raises(SystemExit) as exc:
        run(["--out", str(out), command, "--spec",
             str(tmp_path / "spec_m25_dim2_seed7.json"), *r, flag, value])
    assert exc.value.code == 2
    assert "not a finite number" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, flags", [
    ("doubling", ["--r", "0.3"]), ("doubling", ["--r", "1e300"]),
    ("certify", ["--r", "0.25", "--k1", "-5", "--k2", "1e300"]),
])
def test_out_of_range_number_exit_code(tmp_path, command, flags, capsys):
    # a doubling radius past 1/4 (the certified range) and thresholds out
    # of the order 0 < K1 < K2 (a certificate that passes vacuously) are
    # refused with exit 2 before any artifact is written
    assert run(["--out", str(tmp_path), "gen", "--m", "25", "--seed",
                "7"]) == 0
    out = tmp_path / "out"
    assert run(["--out", str(out), command, "--spec",
                str(tmp_path / "spec_m25_dim2_seed7.json"), *flags]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_report_family(tmp_path):
    out = str(tmp_path)
    for m, seed in ((100, 0), (100, 1), (325, 0)):
        assert run(["--out", out, "gen", "--m", str(m),
                    "--seed", str(seed)]) == 0
    manifest = {
        "specs": [
            str(tmp_path / "spec_m100_dim2_seed0.json"),
            str(tmp_path / "spec_m100_dim2_seed1.json"),
            str(tmp_path / "spec_m325_dim2_seed0.json"),
        ],
        "beta": 0.01,
    }
    man_path = tmp_path / "manifest.json"
    man_path.write_text(json.dumps(manifest))
    assert run(["--out", out, "report", "--manifest", str(man_path)]) == 0
    agg = (tmp_path / "family_report.csv").read_text()
    assert agg.startswith(f"# schema_version={SCHEMA_VERSION}")
    assert len(agg.strip().splitlines()) == 2 + 3  # header comment + csv head
    rep = json.loads((tmp_path / "report_m325_seed0.json").read_text())
    assert rep["schema_version"] == SCHEMA_VERSION
    assert rep["meta"]["m"] == 325
    assert rep["constants"]["c3"]["provenance"] == "calibrated at m=100"
    # one hash per command: every member report carries the CSV header's
    assert _report_hashes(tmp_path) == {_csv_hash(tmp_path)}


def _gen_manifest(tmp_path, specs):
    """Generate the (m, seed) specs and a manifest naming them."""
    for m, seed in specs:
        assert run(["--out", str(tmp_path), "gen", "--m", str(m),
                    "--seed", str(seed)]) == 0
    man_path = tmp_path / "manifest.json"
    man_path.write_text(json.dumps({"specs": [
        str(tmp_path / f"spec_m{m}_dim2_seed{seed}.json")
        for m, seed in specs]}))
    return str(man_path)


def test_report_refused_when_no_member_certifies(tmp_path, capsys):
    # m = 25 certifies at no radius: exit 1 and no report files
    man_path = _gen_manifest(tmp_path, [(25, 0), (25, 1)])
    capsys.readouterr()
    assert run(["--out", str(tmp_path), "report", "--manifest",
                man_path]) == 1
    assert "no family member certified; report refused" \
        in capsys.readouterr().err
    assert not list(tmp_path.glob("report*"))
    assert not (tmp_path / "family_report.csv").exists()


def test_report_skips_uncertified_member(tmp_path, capsys):
    man_path = _gen_manifest(tmp_path, [(25, 0), (100, 0)])
    capsys.readouterr()
    assert run(["--out", str(tmp_path), "report", "--manifest",
                man_path]) == 0
    assert "note: m=25 seed=0 never certified; skipped" \
        in capsys.readouterr().out
    rows = (tmp_path / "family_report.csv").read_text().strip().splitlines()
    assert len(rows) == 2 + 1 and rows[2].startswith("100,0,")
    assert [p.name for p in tmp_path.glob("report*")] == [
        "report_m100_seed0.json"]


def _csv_hash(out):
    return _hash_line(out / "family_report.csv").rsplit("config=", 1)[1]


def _report_hashes(out):
    return {json.loads(path.read_text())["config_hash"]
            for path in out.glob("report_m*.json")}


def test_report_hash_ignores_calibrated_constants(tmp_path, monkeypatch):
    # c3 moved by one ulp changes the reports' c3 and no hash
    import nodalscope.harness as harness

    out = str(tmp_path)
    assert run(["--out", out, "gen", "--m", "100", "--seed", "0"]) == 0
    man_path = tmp_path / "manifest.json"
    man_path.write_text(json.dumps(
        {"specs": [str(tmp_path / "spec_m100_dim2_seed0.json")]}))

    def report(name):
        report_out = tmp_path / name
        assert run(["--out", str(report_out), "report", "--manifest",
                    str(man_path)]) == 0
        rep = json.loads((report_out / "report_m100_seed0.json").read_text())
        return (rep["constants"]["c3"]["value"],
                _csv_hash(report_out), _report_hashes(report_out))

    c3, head, hashes = report("plain")
    calibrate = harness.calibrate_length_constant
    monkeypatch.setattr(harness, "calibrate_length_constant",
                        lambda *a: math.nextafter(calibrate(*a), math.inf))
    assert report("nudged") == (math.nextafter(c3, math.inf), head, hashes)
    assert hashes == {head}


def test_config_hash_independent_of_environment(tmp_path, monkeypatch, sin1):
    sin_path = tmp_path / "sin.json"
    sin_path.write_text(spec_to_json(sin1))
    hashes = []
    for threads in ("1", "8"):
        monkeypatch.setenv("NODALSCOPE_THREADS", threads)
        out = tmp_path / f"threads{threads}"
        assert run(["--out", str(out), "certify", "--spec", str(sin_path),
                    "--r", "0.25"]) == 1
        cert = json.loads(
            (out / "certificate_m=1,seed=None,dim=2_r0.25.json").read_text())
        hashes.append(cert["config_hash"])
    assert hashes[0] == hashes[1]


def _hash_line(path):
    return path.read_text().splitlines()[0]


def test_certify_hash_follows_spec_content(tmp_path, sin1):
    # the same spec from two paths hashes alike; another spec written to
    # the first path does not
    first, second = tmp_path / "a.json", tmp_path / "b" / "a.json"
    second.parent.mkdir()
    moved = translate(sin1, (0.1, 0.0))
    hashes = []
    for i, (path, spec) in enumerate([(first, sin1), (second, sin1),
                                      (first, moved)]):
        path.write_text(spec_to_json(spec))
        out = tmp_path / f"out{i}"
        assert run(["--out", str(out), "certify", "--spec", str(path),
                    "--r", "0.25"]) == 1
        cert = next(out.glob("certificate_*.json"))
        hashes.append(json.loads(cert.read_text())["config_hash"])
    assert hashes[0] == hashes[1]
    assert hashes[2] != hashes[0]


def test_report_hash_follows_spec_content(tmp_path):
    out = str(tmp_path)
    for seed in (0, 1):
        assert run(["--out", out, "gen", "--m", "100",
                    "--seed", str(seed)]) == 0
    seed0 = (tmp_path / "spec_m100_dim2_seed0.json").read_text()
    seed1 = (tmp_path / "spec_m100_dim2_seed1.json").read_text()
    first, second = tmp_path / "x.json", tmp_path / "y" / "x.json"
    second.parent.mkdir()
    lines = []
    for i, (path, text) in enumerate([(first, seed0), (second, seed0),
                                      (first, seed1)]):
        path.write_text(text)
        man_path = tmp_path / f"manifest{i}.json"
        man_path.write_text(json.dumps({"specs": [str(path)], "beta": 0.01}))
        report_out = tmp_path / f"report{i}"
        assert run(["--out", str(report_out), "report", "--manifest",
                    str(man_path)]) == 0
        lines.append(_hash_line(report_out / "family_report.csv"))
    assert lines[0] == lines[1]
    assert lines[2] != lines[0]
