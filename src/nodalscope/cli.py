"""Command-line front end: generate specs, certify, trace nodal sets,
run doubling scans, and assemble family reports.

Exit codes: 0 success (or certificate pass), 1 hypothesis failure
(certificate fail), 2 input error. Every file a command writes embeds the
schema version and the hash of that command's inputs. All paths are
relative to --out.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import logging
import math
import sys
from dataclasses import replace
from pathlib import Path

from .certify import (
    SCHEMA_VERSION,
    ReportConfig,
    _spec_id,
    certify_equidistribution,
    config_hash,
    report_to_json,
)
from .doubling import fit_growth_constant, scan_doubling
from .errors import DimensionError, ManifestError, NodalscopeError
from .fields import ENSEMBLE_SUP_TOL
from .geometry import TorusModel
from .harness import (
    EnsembleMember,
    certified_member,
    member_doubling,
    member_lift_index,
    member_nodal_stats,
    run_family_report,
)
from .nodal import extract_nodal, find_singular_points, member_resolution
from .spectrum import random_eigenfunction, spec_from_json, spec_to_json


def _config_payload(args, fields, **content) -> dict:
    """The schema version, the named options and the given input content.

    Inputs enter by content (a spec as its JSON), never by path, so the same
    computation hashes alike wherever its files live.
    """
    payload = {"schema_version": SCHEMA_VERSION, **content}
    for name in fields:
        payload[name] = getattr(args, name, None)
    return payload


@contextlib.contextmanager
def _open(args, name: str):
    """--out/name opened for writing, with --out made if needed and "\n"
    written as is; prints `wrote <path>` once the file is closed. Rows
    stream to the file, so a large CSV is never held whole in memory."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / name
    with open(path, "w", newline="") as fh:
        yield fh
    print(f"wrote {path}")


def _write_json(args, name: str, payload: dict, digest: str) -> None:
    payload = {"schema_version": SCHEMA_VERSION, "config_hash": digest,
               **payload}
    with _open(args, name) as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _write_csv(args, name: str, digest: str, header: list[str], rows) -> None:
    """The schema version and input hash as a `#` line, the header row, then
    rows of formatted strings; every line ends in "\n"."""
    with _open(args, name) as fh:
        fh.write(f"# schema_version={SCHEMA_VERSION} config={digest}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def cmd_gen(args) -> int:
    spec = random_eigenfunction(args.m, TorusModel(args.dim), args.seed)
    name = f"spec_m{args.m}_dim{args.dim}_seed{args.seed}.json"
    with _open(args, name) as fh:
        fh.write(spec_to_json(spec) + "\n")
    print(f"lambda = {spec.lam:.6f}, modes = {spec.n_modes}")
    return 0


def _load_spec(path: str):
    return spec_from_json(Path(path).read_text())


def _spec_name(spec) -> str:
    """The spec's part of an artifact's file name: m, dim and seed as gen
    names the spec file, or the certificate's spec id for a spec without a
    seed."""
    if spec.seed is None:
        return _spec_id(spec)
    return f"m{spec.m}_dim{spec.model.dim}_seed{spec.seed}"


def cmd_certify(args) -> int:
    spec = _load_spec(args.spec)
    cert = certify_equidistribution(spec, args.r, args.k1, args.k2)
    digest = config_hash(_config_payload(args, ["r", "k1", "k2"],
                                         spec=spec_to_json(spec)))
    _write_json(args, f"certificate_{_spec_name(spec)}_r{args.r}.json", {
        "spec_id": cert.spec_id,
        "r": cert.r, "K1": cert.k1, "K2": cert.k2,
        "min_ratio": cert.min_ratio, "max_ratio": cert.max_ratio,
        "pass": cert.passed, "centers_used": cert.centers_used,
    }, digest)
    print(f"pass={cert.passed} min_ratio={cert.min_ratio:.6f} "
          f"max_ratio={cert.max_ratio:.6f}")
    return 0 if cert.passed else 1


def cmd_nodal(args) -> int:
    spec = _load_spec(args.spec)
    if args.grid is None:  # resolved before hashing: the hash names N
        args.grid = member_resolution(spec.m)
    ns = extract_nodal(spec, args.grid)
    points = find_singular_points(spec, args.grid)
    digest = config_hash(_config_payload(args, ["grid"],
                                         spec=spec_to_json(spec)))
    name = f"{_spec_name(spec)}_N{args.grid}"
    _write_csv(args, f"nodal_segments_{name}.csv", digest,
               ["x1", "y1", "x2", "y2"],
               ([f"{c:.17g}" for c in seg] for seg in ns.segments))
    _write_json(args, f"nodal_summary_{name}.json", {
        "length": ns.length,
        "n_segments": len(ns.segments),
        "n_polylines": len(ns.polylines),
        "singular_points": [
            {"location": [float(c) for c in p.location],
             "vanishing_order": p.vanishing_order, "residual": p.residual}
            for p in points
        ],
        "length_over_sqrt_lambda": ns.length / math.sqrt(spec.lam),
    }, digest)
    print(f"length = {ns.length:.6f}")
    return 0


def cmd_doubling(args) -> int:
    spec = _load_spec(args.spec)
    records = scan_doubling(spec, args.r, tol=args.tol)
    c_star = fit_growth_constant(records, args.r, spec.lam)
    digest = config_hash(_config_payload(args, ["r", "tol"],
                                         spec=spec_to_json(spec)))
    name = f"{_spec_name(spec)}_r{args.r}"
    _write_csv(
        args, f"doubling_records_{name}.csv", digest,
        [f"center_{d}" for d in range(spec.model.dim)]
        + ["scale", "index_sup", "context_r", "lambda"],
        ([f"{v:.17g}" for v in (*rec.center, rec.scale, rec.index_sup,
                                rec.context_r, rec.lam)]
         for rec in records))
    _write_json(args, f"doubling_summary_{name}.json", {
        "m": spec.m, "lambda": spec.lam, "r": args.r, "c_star": c_star,
        "max_index": max(rec.index_sup for rec in records),
        "n_records": len(records),
    }, digest)
    print(f"c_star = {c_star:.6f} over {len(records)} records")
    return 0


def cmd_report(args) -> int:
    try:
        manifest = json.loads(Path(args.manifest).read_text())
    except ValueError as exc:  # JSONDecodeError, or an int past the digit cap
        raise ManifestError(f"manifest is not JSON: {exc}") from None
    paths = manifest.get("specs") if isinstance(manifest, dict) else None
    if not (isinstance(paths, list) and all(isinstance(p, str) for p in paths)):
        raise ManifestError("manifest has no list of spec paths under 'specs'")
    overrides = {key: manifest[key] for key in ("beta", "kappa")
                 if key in manifest}
    for key, value in overrides.items():
        try:
            finite = not isinstance(value, bool) and math.isfinite(value)
        except (TypeError, OverflowError):  # not a number, or no float
            finite = False
        if not finite:
            raise ManifestError(f"manifest {key} is not a finite number: "
                                f"{value!r:.40}")
    config = ReportConfig(**overrides)
    specs = [_load_spec(p) for p in paths]
    if any(spec.model.dim != 2 for spec in specs):
        raise DimensionError("report needs 2-D specs")
    members_by_m: dict[int, list[EnsembleMember]] = {}
    failed = []
    for spec in specs:
        member = certified_member(spec)
        if member is None:
            failed.append(spec)
            continue
        member_doubling(member)
        member_nodal_stats(member)
        member_lift_index(member)
        members_by_m.setdefault(spec.m, []).append(member)
    if not members_by_m:
        print("error: no family member certified; report refused",
              file=sys.stderr)
        return 1
    reports = run_family_report(members_by_m, config)
    digest = config_hash(_config_payload(
        args, [], beta=config.beta, kappa=config.kappa,
        specs=[spec_to_json(spec) for spec in specs]))
    for rep in reports:
        name = f"report_m{rep.meta['m']}_seed{rep.meta['seed']}.json"
        text = report_to_json(replace(rep, config_digest=digest))
        with _open(args, name) as fh:
            fh.write(text + "\n")
    _write_csv(
        args, "family_report.csv", digest,
        ["m", "seed", "lambda", "r", "nodal_length", "c_star", "N_lift",
         "eq4_pred", "eq4_verdict"],
        ([str(v) for v in (
            rep.meta["m"], rep.meta["seed"], rep.meta["lambda"],
            rep.meta["r"], rep.measured["nodal_length"],
            rep.measured["c_star"], rep.measured["N_lift"],
            rep.predicted["eq4"], rep.verdicts.get("eq4_length_bound"))]
         for rep in reports))
    for spec in failed:
        print(f"note: m={spec.m} seed={spec.seed} never certified; skipped")
    return 0


def _finite(text: str) -> float:
    """A float option's value; NaN and infinities are refused, so no
    computation or artifact ever sees them."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nodalscope",
        description="Nodal sets, doubling indices, and equidistribution "
                    "certificates for exact toral eigenfunctions",
    )
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("-v", dest="verbose", action="store_true",
                        help="log the library's INFO lines to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a random eigenfunction spec")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--dim", type=int, default=2, choices=(2, 3))
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("certify", help="equidistribution certificate")
    p.add_argument("--spec", required=True)
    p.add_argument("--r", type=_finite, required=True)
    p.add_argument("--k1", type=_finite, default=None)
    p.add_argument("--k2", type=_finite, default=None)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("nodal", help="extract the nodal set")
    p.add_argument("--spec", required=True)
    p.add_argument("--grid", type=int, default=None,
                   help="grid N (default: report's, member_resolution)")
    p.set_defaults(func=cmd_nodal)

    p = sub.add_parser("doubling", help="doubling-index scan")
    p.add_argument("--spec", required=True)
    p.add_argument("--r", type=_finite, required=True)
    p.add_argument("--tol", type=_finite, default=ENSEMBLE_SUP_TOL)
    p.set_defaults(func=cmd_doubling)

    p = sub.add_parser("report", help="family bounds report")
    p.add_argument("--manifest", required=True,
                   help='{"specs": [paths...]}, optional "beta" and "kappa"')
    p.set_defaults(func=cmd_report)
    return parser


@contextlib.contextmanager
def _logging(verbose: bool):
    """Under -v, the package's INFO and higher records go to stderr while
    the command runs; the handler and level are removed afterwards, so a
    caller that runs main twice in one process sees no leftover."""
    if not verbose:
        yield
        return
    logger = logging.getLogger("nodalscope")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter(logging.BASIC_FORMAT))
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.INFO)
    try:
        yield
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    with _logging(args.verbose):
        try:
            return args.func(args)
        except (NodalscopeError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2


if __name__ == "__main__":
    sys.exit(main())
