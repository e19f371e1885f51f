"""The benchmark's workloads: inputs made from a seed, rounds, and checks.

Each workload has
  prepare(seed, run_dir)   set-up: write the inputs (spec files, manifest);
  load(run_dir)            read them back, untimed;
  run_round(inputs)        the timed program calls, identical every round;
  snapshot(inputs, raw)    untimed: the round's outputs in comparable form;
  check(inputs, outputs)   Outcome of the independent checks on one round.

Program modules are always called through their module attribute, so that
the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from nodalscope import certify, cli, fields, geometry, harness, nodal, spectrum

import oracles as O

MODEL = geometry.TorusModel(2)
K1 = 0.5 * math.pi   # default certificate thresholds, 0.5 and 2 unit-disk areas
K2 = 2.0 * math.pi
R_GRID = [0.25 / 2**j for j in range(8)]  # radii tried by largest_admissible_r
SUP_TOL = 1e-2       # the library's ensemble scan tolerance


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def op(self, problems, kept_failure=False):
        """Record one operation; a kept failure counts as failed, not wrong."""
        self.attempted += 1
        if problems and kept_failure:
            self.failed += 1
        else:
            self.problems.extend(problems)


class Workload:
    name = ""

    def snapshot(self, inputs, raw):
        return raw

    def written(self, snap) -> dict:
        """Per-round file counts for the cli layer metrics."""
        return {}


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")


def _field(spec) -> O.Field:
    return O.Field(spec.k, spec.a, spec.b)


def _grid_radii(m: int) -> list[float]:
    lam = 4.0 * math.pi**2 * m
    return sorted((r for r in R_GRID if lam ** -0.5 <= r <= 0.25), reverse=True)


def _own_admissible_r(f: O.Field) -> float | None:
    """Largest grid radius whose certificate passes by the own quadrature."""
    for r in _grid_radii(f.m):
        centers = geometry.generate_cover(r / 2.0, MODEL).centers
        lo, hi = O.certificate_ratios(f, centers, r)
        if K1 <= lo and hi <= K2:
            return r
    return None


def _spec_problems(spec, m: int, label: str) -> list[str]:
    problems = []
    if abs(spec.lam - 4.0 * math.pi**2 * m) > 1e-12 * spec.lam:
        problems.append(f"{label} lambda {spec.lam!r} != 4 pi^2 m")
    if not np.all(np.sum(np.asarray(spec.k) ** 2, axis=1) == m):
        problems.append(f"{label} modes off the circle |k|^2 = {m}")
    norm = _field(spec).l2_norm_sq()
    if abs(norm - 1.0) > 1e-12:
        problems.append(f"{label} L2 norm^2 {norm!r} != 1")
    return problems


# ---------------------------------------------------------------------------
# ensemble: certified members and their doubling scans


class Ensemble(Workload):
    """m in the acceptance fixture, fewer members each than its 8."""

    name = "ensemble"
    MEMBERS = ((25, 1), (100, 1), (325, 1), (1105, 1))
    MAX_TRIES = 4000
    SAMPLED_RECORDS = 2  # per member, plus the record with the largest index

    def prepare(self, seed: int, run_dir: Path) -> None:
        members = []
        for m, count in self.MEMBERS:
            rng = np.random.default_rng([seed, m])
            members.append([m, count, int(rng.integers(0, 2**31 - 10**6))])
        _write_json(run_dir / "inputs.json", {"seed": seed, "members": members})

    def load(self, run_dir: Path) -> dict:
        return json.loads((run_dir / "inputs.json").read_text())

    def run_round(self, inputs: dict) -> list:
        found = []
        for m, count, start in inputs["members"]:
            s = start
            for _ in range(count):
                rejected = []
                while True:
                    if s - start >= self.MAX_TRIES:
                        raise RuntimeError(f"no certified seed for m={m} in "
                                           f"{self.MAX_TRIES} tries from {start}")
                    spec = spectrum.random_eigenfunction(m, MODEL, s)
                    r = certify.largest_admissible_r(spec)
                    if r is not None:
                        break
                    rejected.append(s)
                    s += 1
                cert = certify.certify_equidistribution(spec, r)
                member = harness.EnsembleMember(spec=spec, r=r, certificate=cert)
                harness.member_doubling(member)
                found.append((m, s, rejected, member))
                s += 1
        return found

    @staticmethod
    def same(a, b) -> bool:
        def key(out):
            return [(m, s, rej, mb.r, mb.certificate.min_ratio,
                     mb.certificate.max_ratio,
                     [rec.index_sup for rec in mb.records])
                    for m, s, rej, mb in out]
        return key(a) == key(b)

    def check(self, inputs: dict, outputs: list) -> Outcome:
        out = Outcome()
        for m, s, rejected, mb in outputs:
            label = f"ensemble m={m} seed={s}"
            out.op(self._check_certificate(m, s, rejected, mb, label))
            out.op(self._check_doubling(inputs["seed"], m, s, mb, label))
        return out

    def _check_certificate(self, m, s, rejected, mb, label) -> list[str]:
        spec, cert = mb.spec, mb.certificate
        f = _field(spec)
        problems = _spec_problems(spec, m, label)
        centers = geometry.generate_cover(mb.r / 2.0, MODEL).centers
        if cert.centers_used != len(centers):
            problems.append(f"{label} centers_used {cert.centers_used} != "
                            f"{len(centers)}")
        problems += [f"{label} {p}" for p in O.check_certificate(
            f, centers, mb.r, K1, K2, cert.min_ratio, cert.max_ratio,
            cert.passed)]
        if not cert.passed:
            problems.append(f"{label} member certificate did not pass")
        larger = {r: geometry.generate_cover(r / 2.0, MODEL).centers
                  for r in _grid_radii(m) if r > mb.r}
        problems += [f"{label} {p}" for p in O.fails_everywhere(f, larger,
                                                                K1, K2)]
        for bad in rejected:
            g = _field(spectrum.random_eigenfunction(m, MODEL, bad))
            covers = {r: geometry.generate_cover(r / 2.0, MODEL).centers
                      for r in _grid_radii(m)}
            problems += [f"rejected m={m} seed={bad} {p}"
                         for p in O.fails_everywhere(g, covers, K1, K2)]
        return problems

    def _check_doubling(self, seed, m, s, mb, label) -> list[str]:
        spec, records = mb.spec, mb.records
        lam = 4.0 * math.pi**2 * m
        r = mb.r
        deltas = []
        d = lam ** -0.5
        while d <= min(10.0 * r, 0.25) * (1.0 + 1e-12):
            if 2.0 * d <= 0.5 and d < 10.0 * r:
                deltas.append(d)
            d *= 2.0
        n_centers = len(geometry.generate_cover(min(r, 0.25), MODEL).centers)
        problems = []
        if len(records) != n_centers * len(deltas):
            problems.append(f"{label} {len(records)} records, expected "
                            f"{n_centers} x {len(deltas)}")
        floor = -math.log1p(SUP_TOL) - 1e-12
        low = [rec.index_sup for rec in records if rec.index_sup < floor]
        if low:
            problems.append(f"{label} {len(low)} indices below -log(1+tol)")
        if not records:
            return problems + [f"{label} no records"]
        rng = np.random.default_rng([seed, m, s])
        picks = set(rng.choice(len(records), self.SAMPLED_RECORDS,
                               replace=False).tolist())
        picks.add(int(np.argmax([rec.index_sup for rec in records])))
        f = _field(spec)
        for i in sorted(picks):
            rec = records[i]
            sups = []
            for radius in (2.0 * rec.scale, rec.scale):
                certified = fields.sup_on_ball(spec, rec.center, radius,
                                               SUP_TOL)
                estimate = O.ball_sup_estimate(f, rec.center, radius)
                problems += O.check_ball_sup(
                    certified, estimate, SUP_TOL,
                    f"{label} record {i} radius {radius:.4g}")
                sups.append(certified)
            if math.log(sups[0] / sups[1]) != rec.index_sup:
                problems.append(f"{label} record {i} index {rec.index_sup!r} "
                                f"!= log of its ball sups")
        return problems


# ---------------------------------------------------------------------------
# nodal: extraction, singular points and counts on three kinds of spec


class Nodal(Workload):
    """Random waves at high lambda, product modes, and an odd mode."""

    name = "nodal"
    WAVES = ((1105, 1024, 1), (5525, 1024, 1), (325, 256, 6))  # m, N, count
    # (k, l, tau, N, ops); tau off the grid nodes unless noted
    PRODUCTS = (
        (3, 4, (0.0137, 0.0291), 512, ("extract", "singular", "count")),
        (4, 2, (3 / 512, 5 / 512), 512, ("singular", "count")),  # on nodes
        (9, 8, (0.0213, 0.0071), 512, ("extract",)),
    )
    ODD_M, ODD_N = 25, 256
    KEPT_FAILURES = ("product_3_4", "odd_m25")  # singular sets; see README
    COUNT_R = 0.25
    COUNT_CENTERS = np.stack(np.meshgrid((np.arange(4) + 0.5) / 4,
                                         (np.arange(4) + 0.5) / 4,
                                         indexing="ij"), -1).reshape(-1, 2)

    def prepare(self, seed: int, run_dir: Path) -> None:
        cases = []
        rng = np.random.default_rng([seed, 17])
        for m, N, count in self.WAVES:
            for _ in range(count):
                s = int(rng.integers(0, 2**31 - 1))
                spec = spectrum.random_eigenfunction(m, MODEL, s)
                cases.append(self._case(run_dir, f"wave_m{m}_seed{s}", spec, N,
                                        "wave", ("extract", "singular",
                                                 "count")))
        for k, l, tau, N, ops in self.PRODUCTS:
            base = spectrum.mode_spec([((k, -l), 1.0, 0.0),
                                       ((k, l), -1.0, 0.0)], MODEL)
            spec = spectrum.translate(base, tau)
            case = self._case(run_dir, f"product_{k}_{l}", spec, N, "product",
                              ops)
            case.update(k=k, l=l, tau=list(tau))
            cases.append(case)
        cases.append(self._case(run_dir, "odd_m25", self._odd_spec(), self.ODD_N,
                                "odd", ("singular", "count")))
        _write_json(run_dir / "inputs.json", {"seed": seed, "cases": cases})

    def _odd_spec(self):
        """Sine-only mode at m = 25 with sum_j b_j k_j = 0.

        psi is odd, so psi and its Hessian vanish at the origin; the
        constraint kills the gradient there, leaving an order-3 zero. Every
        k at m = 25 has k1 + k2 odd, so psi(x + (1/2, 1/2)) = -psi(x) and
        (1/2, 1/2) is a second order-3 zero. Fixed coefficients: the
        operation does not depend on the workload seed.
        """
        k = np.array(spectrum.enumerate_lattice(self.ODD_M, 2), dtype=float)
        b = np.random.default_rng(0).standard_normal(len(k))
        b -= k @ np.linalg.solve(k.T @ k, k.T @ b)
        b /= math.sqrt(0.5 * float(b @ b))
        return spectrum.mode_spec(
            [(tuple(int(c) for c in kk), 0.0, float(bb))
             for kk, bb in zip(k, b)], MODEL)

    @staticmethod
    def _case(run_dir, name, spec, N, kind, ops) -> dict:
        path = run_dir / f"{name}.json"
        path.write_text(spectrum.spec_to_json(spec) + "\n")
        return {"name": name, "file": path.name, "N": N, "kind": kind,
                "ops": list(ops)}

    def load(self, run_dir: Path) -> dict:
        inputs = json.loads((run_dir / "inputs.json").read_text())
        for case in inputs["cases"]:
            text = (run_dir / case["file"]).read_text()
            case["payload"] = json.loads(text)
            case["spec"] = spectrum.spec_from_json(text)
        return inputs

    def run_round(self, inputs: dict) -> list:
        results = []
        for case in inputs["cases"]:
            spec, N, res = case["spec"], case["N"], {}
            if "extract" in case["ops"]:
                res["nodal"] = nodal.extract_nodal(spec, N)
            if "singular" in case["ops"]:
                res["points"] = nodal.find_singular_points(spec, N)
            if "count" in case["ops"]:
                res["counts"] = nodal.count_singular_in_balls(
                    res["points"], self.COUNT_R, spec.lam, self.COUNT_CENTERS)
            results.append(res)
        return results

    def snapshot(self, inputs, raw) -> list:
        out = []
        for res in raw:
            snap = {}
            if "nodal" in res:
                ns = res["nodal"]
                snap.update(length=ns.length, n_segments=len(ns.segments),
                            polylines=ns.polylines)
            if "points" in res:
                snap["points"] = [(np.asarray(p.location, float),
                                   p.vanishing_order) for p in res["points"]]
            if "counts" in res:
                snap["counts"] = list(res["counts"])
            out.append(snap)
        return out

    @staticmethod
    def same(a, b) -> bool:
        def key(out):
            return [(s.get("length"), s.get("n_segments"),
                     len(s.get("polylines", ())),
                     [(tuple(loc), o) for loc, o in s.get("points", ())],
                     s.get("counts")) for s in out]
        return key(a) == key(b)

    def check(self, inputs: dict, outputs: list) -> Outcome:
        out = Outcome()
        ratios, allowances = [], []
        for case, snap in zip(inputs["cases"], outputs):
            f = O.Field.from_payload(case["payload"])
            N, label = case["N"], f"nodal {case['name']} N={case['N']}"
            kind = case["kind"]
            if "extract" in case["ops"]:
                problems = O.check_polylines_closed(snap["polylines"], label)
                if kind == "wave":
                    ref = O.nodal_length(f, N)
                    problems += O.check_length(snap["length"], ref, f.m, N,
                                               label)
                    ratios.append(snap["length"] / math.sqrt(f.lam))
                    allowances.append(O.length_allowance(f.m, N))
                else:
                    problems += O.check_product_length(
                        snap["length"], case["k"], case["l"], N, label)
                out.op(problems)
            if "singular" in case["ops"]:
                points = snap["points"]
                if kind == "wave":
                    out.op([f"{label} random wave has {len(points)} singular "
                            f"points"] if points else [])
                else:
                    if kind == "product":
                        expected = O.product_crossings(case["k"], case["l"],
                                                       case["tau"])
                    else:
                        expected = [(np.zeros(2), 3), (np.full(2, 0.5), 3)]
                    missing, wrong = O.check_singular_set(points, expected,
                                                          1.0 / N, label)
                    worst = self._worst_residual(f, points)
                    if worst > 1e-8:
                        wrong.append(f"{label} singular point residual {worst:.2e}")
                    # the kept faults only drop points; anything else is wrong
                    out.op(missing + wrong, kept_failure=not wrong and
                           case["name"] in self.KEPT_FAILURES)
            if "count" in case["ops"]:
                radius = math.sqrt(self.COUNT_R) * f.lam ** -0.25
                want = O.singular_counts(snap["points"], self.COUNT_CENTERS,
                                         radius)
                out.op([] if want == snap["counts"] else
                       [f"{label} counts {snap['counts']} != {want}"])
        out.problems += O.check_kac_rice(ratios, allowances)
        return out

    @staticmethod
    def _worst_residual(f, points) -> float:
        """Largest max(|psi|, |grad psi|) over the points, own evaluation."""
        if not points:
            return 0.0
        v, g = f.values_and_gradients(np.array([loc for loc, _ in points]))
        return float(np.max(np.maximum(np.abs(v), np.linalg.norm(g, axis=-1))))


# ---------------------------------------------------------------------------
# report: `nodalscope report` through cli.main on a written manifest


class Report(Workload):
    """Certified specs at m = 100, 325, 1105 plus one that never certifies."""

    name = "report"
    CERTIFIED_MS = (100, 325, 1105)
    SKIPPED_M = 25

    def prepare(self, seed: int, run_dir: Path) -> None:
        rng = np.random.default_rng([seed, 29])
        files, specs = [], []
        for m, want in [(self.SKIPPED_M, False)] + [(m, True) for m in
                                                     self.CERTIFIED_MS]:
            s = int(rng.integers(0, 2**31 - 10**6))
            while True:
                spec = spectrum.random_eigenfunction(m, MODEL, s)
                if (certify.largest_admissible_r(spec) is not None) == want:
                    break
                s += 1
            path = run_dir / f"spec_m{m}_seed{s}.json"
            path.write_text(spectrum.spec_to_json(spec) + "\n")
            files.append(str(path.resolve()))
            specs.append({"m": m, "seed": s, "file": path.name})
        _write_json(run_dir / "manifest.json", {"specs": files})
        _write_json(run_dir / "inputs.json", {"seed": seed, "specs": specs})

    def load(self, run_dir: Path) -> dict:
        inputs = json.loads((run_dir / "inputs.json").read_text())
        inputs["manifest"] = str((run_dir / "manifest.json").resolve())
        inputs["out"] = run_dir / "report-out"
        for sp in inputs["specs"]:
            sp["payload"] = json.loads((run_dir / sp["file"]).read_text())
        return inputs

    def run_round(self, inputs: dict) -> int:
        if inputs["out"].exists():
            shutil.rmtree(inputs["out"])
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(["--out", str(inputs["out"]), "report",
                             "--manifest", inputs["manifest"]])

    def snapshot(self, inputs, raw) -> dict:
        files = {p.name: p.read_bytes() for p in sorted(inputs["out"].iterdir())}
        return {"code": raw, "files": files}

    @staticmethod
    def same(a, b) -> bool:
        return a == b

    def written(self, snap) -> dict:
        return {"cli.files_written": len(snap["files"]),
                "cli.bytes_written": sum(len(v) for v in snap["files"].values())}

    def check(self, inputs: dict, snap: dict) -> Outcome:
        out = Outcome()
        files = snap["files"]
        head = [] if snap["code"] == 0 else [f"report exit code {snap['code']}"]
        rows = {}
        if "family_report.csv" in files:
            text = files["family_report.csv"].decode()
            lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
            for row in csv.DictReader(lines):
                rows[(int(row["m"]), int(row["seed"]))] = row
        else:
            head.append("family_report.csv missing")
        expected_files = {"family_report.csv"}
        payloads = {}
        for sp in inputs["specs"]:
            m, s = sp["m"], sp["seed"]
            label = f"report m={m} seed={s}"
            f = O.Field.from_payload(sp["payload"])
            r_own = _own_admissible_r(f)
            name = f"report_m{m}_seed{s}.json"
            problems = list(head)
            head = []
            if r_own is None:
                covers = {r: geometry.generate_cover(r / 2.0, MODEL).centers
                          for r in _grid_radii(m)}
                problems += [f"{label} {p}" for p in
                             O.fails_everywhere(f, covers, K1, K2)]
                if name in files or (m, s) in rows:
                    problems.append(f"{label} skipped spec has a report")
                out.op(problems)
                continue
            expected_files.add(name)
            if name not in files:
                out.op(problems + [f"{label} report missing"])
                continue
            text = files[name].decode()
            payload = json.loads(text)
            payloads[(m, s)] = payload
            problems += self._reload_problems(text, payload, label)
            if payload["meta"]["r"] != r_own:
                problems.append(f"{label} r {payload['meta']['r']} != "
                                f"quadrature's {r_own}")
            problems += [f"{label} {p}" for p in O.check_report(payload, m)]
            problems += self._row_problems(rows.get((m, s)), payload, label)
            out.op(problems)
        extra = set(files) - expected_files
        if extra:
            out.problems.append(f"report wrote unexpected files {sorted(extra)}")
        if len(rows) != len(payloads):
            out.problems.append(f"{len(rows)} CSV rows for {len(payloads)} "
                                f"reports")
        out.problems += self._family_problems(payloads)
        return out

    @staticmethod
    def _reload_problems(text, payload, label) -> list[str]:
        rep = certify.report_from_json(text)
        got = {"meta": rep.meta, "measured": rep.measured,
               "predicted": rep.predicted, "constants": rep.constants,
               "verdicts": rep.verdicts, "schema_version": rep.schema_version,
               "config_hash": rep.config_digest}
        want = {key: payload[key] for key in got}
        return [] if got == want else [f"{label} report_from_json differs"]

    @staticmethod
    def _row_problems(row, payload, label) -> list[str]:
        if row is None:
            return [f"{label} CSV row missing"]
        meas, pred = payload["measured"], payload["predicted"]
        pairs = [("nodal_length", meas["nodal_length"]),
                 ("c_star", meas["c_star"]), ("N_lift", meas["N_lift"]),
                 ("eq4_pred", pred["eq4"]), ("r", payload["meta"]["r"])]
        bad = [k for k, v in pairs if float(row[k]) != v]
        if row["eq4_verdict"] != str(payload["verdicts"].get("eq4_length_bound")):
            bad.append("eq4_verdict")
        return [f"{label} CSV {bad} differ from the report"] if bad else []

    @staticmethod
    def _family_problems(payloads: dict) -> list[str]:
        """c3 calibrated at the smallest certified m, c4 the largest count."""
        if not payloads:
            return ["no reports"]
        problems = []
        first = next(iter(payloads.values()))
        beta = first["constants"]["beta"]["value"]
        m0 = min(m for m, _ in payloads)
        c3 = max(p["measured"]["nodal_length"] / (
            p["meta"]["r"] ** (0.5 - 2 * beta) * p["meta"]["lambda"] ** (0.75 - beta))
            for (m, _), p in payloads.items() if m == m0)
        c4 = max(p["measured"]["max_singular_count"] / (
            p["meta"]["r"] * math.sqrt(p["meta"]["lambda"]))
            for p in payloads.values())
        for (m, s), p in payloads.items():
            got3 = p["constants"]["c3"]["value"]
            got4 = p["constants"]["c4"]["value"]
            if abs(got3 - c3) > 1e-12 * c3:
                problems.append(f"report m={m} seed={s} c3 {got3!r} != "
                                f"calibrated {c3!r}")
            if abs(got4 - c4) > 1e-12 * max(c4, 1e-300):
                problems.append(f"report m={m} seed={s} c4 {got4!r} != {c4!r}")
        return problems


WORKLOADS = {w.name: w for w in (Ensemble(), Nodal(), Report())}
