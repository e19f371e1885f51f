"""Per-layer spans for nodalscope, recorded from outside the package.

Each traced function is replaced, in every nodalscope module that binds it,
by a wrapper that records one span: name, start, end, parent span, and the
counts read off its arguments or result. Spans stay in memory until the run
ends. Nothing under src/ is edited; uninstall() restores every binding.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# span name -> (module, attribute, count extractor or None)
# extractors take (args, result) and return a dict of counts


def _grid_counts(args, res):
    dim = args[0].model.dim
    points = 1
    for n in res.shape[:dim]:
        points *= n
    return {"points": points, "bytes": res.nbytes}


TRACED = {
    "scan.certified_max": ("scan", "certified_max",
                           lambda a, r: {"nodes": r.nodes}),
    "fields.sup_on_ball": ("fields", "sup_on_ball", None),
    "fields.sup_on_annulus": ("fields", "sup_on_annulus", None),
    "fields.q_on_ball": ("fields", "q_on_ball", None),
    "fields.sup_global": ("fields", "sup_global", None),
    "fields.gradient_sup_global": ("fields", "gradient_sup_global", None),
    "fields.lifted_sup_on_ball": ("fields", "lifted_sup_on_ball", None),
    "certify.certify_equidistribution": ("certify", "certify_equidistribution",
                                         None),
    "certify.largest_admissible_r": ("certify", "largest_admissible_r",
                                     lambda a, r: {"passed": int(r is not None)}),
    "certify.build_report": ("certify", "build_report", None),
    "geometry.generate_cover": ("geometry", "generate_cover", None),
    "doubling.scan_doubling": ("doubling", "scan_doubling",
                               lambda a, r: {"records": len(r)}),
    "lift.cube_doubling_index": ("lift", "cube_doubling_index",
                                 lambda a, r: {"pairs": r.pairs_scanned,
                                               "exhausted": int(r.budget_exhausted)}),
    "spectrum.evaluate_grid": ("spectrum", "evaluate_grid", _grid_counts),
    "spectrum.evaluate_gradient_grid": ("spectrum", "evaluate_gradient_grid",
                                        _grid_counts),
    "spectrum.evaluate": ("spectrum", "evaluate", None),
    "spectrum.evaluate_gradient": ("spectrum", "evaluate_gradient", None),
    "spectrum.evaluate_hessian": ("spectrum", "evaluate_hessian", None),
    "nodal.extract_nodal": ("nodal", "extract_nodal",
                            lambda a, r: {"segments": len(r.segments),
                                          "polylines": len(r.polylines)}),
    "nodal.find_singular_points": ("nodal", "find_singular_points",
                                   lambda a, r: {"points": len(r)}),
    "nodal.vanishing_order": ("nodal", "vanishing_order", None),
    "nodal.count_singular_in_balls": ("nodal", "count_singular_in_balls", None),
    "harness.member_doubling": ("harness", "member_doubling", None),
    "harness.member_nodal_stats": ("harness", "member_nodal_stats", None),
    "harness.member_lift_index": ("harness", "member_lift_index", None),
    "harness.run_family_report": ("harness", "run_family_report", None),
    "cli.main": ("cli", "main", None),
}

# methods patched on the class itself, so every holder of the class sees them
TRACED_METHODS = {
    "fields.mass_build": ("fields", "MassEvaluator", "__init__", None),
    "fields.mass_many": ("fields", "MassEvaluator", "mass_many",
                         lambda a, r: {"balls": len(r)}),
}


class Tracer:
    """Spans in memory: [name, start, end, parent index, counts, error]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, name, func, extract):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, time.perf_counter(), None,
                    stack[-1] if stack else -1, None, None]
            spans.append(span)
            stack.append(idx)
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                span[5] = type(exc).__name__
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if extract is not None:
                span[4] = extract(args, result)
            return result

        traced.__wrapped__ = func
        return traced

    def install(self) -> None:
        mods = {name: mod for name, mod in sys.modules.items()
                if mod is not None and (name == "nodalscope"
                                        or name.startswith("nodalscope."))}
        for span_name, (mod, attr, extract) in TRACED.items():
            orig = getattr(mods[f"nodalscope.{mod}"], attr)
            wrapper = self._wrap(span_name, orig, extract)
            for holder in mods.values():
                for key, value in list(vars(holder).items()):
                    if value is orig:
                        self._undo.append((holder, key, orig))
                        setattr(holder, key, wrapper)
        for span_name, (mod, cls, meth, extract) in TRACED_METHODS.items():
            klass = getattr(mods[f"nodalscope.{mod}"], cls)
            orig = klass.__dict__[meth]
            self._undo.append((klass, meth, orig))
            setattr(klass, meth, self._wrap(span_name, orig, extract))

    def uninstall(self) -> None:
        for holder, key, orig in reversed(self._undo):
            setattr(holder, key, orig)
        self._undo.clear()

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "counts",
                                  "error"], "spans": self.spans}, fh)

    def layer_metrics(self, rounds: int, node_budget: int,
                      extra: dict | None = None) -> dict:
        """Per-round per-layer metrics from the recorded spans."""
        child = defaultdict(float)
        for name, t0, t1, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls = defaultdict(int)
        dur = defaultdict(float)
        self_s = defaultdict(float)
        counts = defaultdict(lambda: defaultdict(int))
        errors = defaultdict(int)
        maxima = defaultdict(int)
        busy = defaultdict(float)  # outermost spans of a layer only
        layer_of = [s[0].split(".")[0] for s in self.spans]
        for i, (name, t0, t1, parent, cnt, err) in enumerate(self.spans):
            calls[name] += 1
            dur[name] += t1 - t0
            self_s[layer_of[i]] += (t1 - t0) - child[i]
            if err:
                errors[(name, err)] += 1
            for key, val in (cnt or {}).items():
                counts[name][key] += val
                maxima[(name, key)] = max(maxima[(name, key)], val)
            p = parent
            while p >= 0 and layer_of[p] != layer_of[i]:
                p = self.spans[p][3]
            if p < 0:
                busy[layer_of[i]] += t1 - t0

        def n(name):
            return calls[name]

        def s(*names):
            return sum(dur[x] for x in names)

        sup_names = [x for x in TRACED if x.startswith("fields.")]
        scan_calls = n("scan.certified_max")
        nodes = counts["scan.certified_max"]["nodes"]
        tried = n("certify.largest_admissible_r")
        out = {
            "scan.calls": scan_calls,
            "scan.nodes": nodes,
            "scan.busy_s": s("scan.certified_max"),
            "scan.nodes_per_call": nodes / scan_calls if scan_calls else 0.0,
            "scan.budget_frac_max":
                maxima[("scan.certified_max", "nodes")] / node_budget,
            "scan.budget_errors": errors[("scan.certified_max", "BudgetError")],
            "fields.sup_calls": sum(n(x) for x in sup_names),
            "fields.sup_s": s(*sup_names),
            "fields.mass_builds": n("fields.mass_build"),
            "fields.mass_build_s": s("fields.mass_build"),
            "fields.mass_balls": counts["fields.mass_many"]["balls"],
            "fields.mass_s": s("fields.mass_many"),
            "certify.certificates": n("certify.certify_equidistribution"),
            "certify.busy_s": busy["certify"],
            "certify.seeds_tried": tried,
            "certify.pass_ratio":
                counts["certify.largest_admissible_r"]["passed"] / tried
                if tried else 0.0,
            "certify.report_s": s("certify.build_report"),
            "geometry.cover_calls": n("geometry.generate_cover"),
            "geometry.cover_s": s("geometry.generate_cover"),
            "doubling.scan_calls": n("doubling.scan_doubling"),
            "doubling.records": counts["doubling.scan_doubling"]["records"],
            "doubling.scan_s": s("doubling.scan_doubling"),
            "doubling.self_s": self_s["doubling"],
            "lift.cube_calls": n("lift.cube_doubling_index"),
            "lift.pairs_scanned": counts["lift.cube_doubling_index"]["pairs"],
            "lift.budget_exhausted":
                counts["lift.cube_doubling_index"]["exhausted"],
            "lift.cube_s": s("lift.cube_doubling_index"),
            "lift.self_s": self_s["lift"],
            "spectrum.grid_calls": n("spectrum.evaluate_grid")
                + n("spectrum.evaluate_gradient_grid"),
            "spectrum.grid_points": counts["spectrum.evaluate_grid"]["points"]
                + counts["spectrum.evaluate_gradient_grid"]["points"],
            "spectrum.grid_bytes": counts["spectrum.evaluate_grid"]["bytes"]
                + counts["spectrum.evaluate_gradient_grid"]["bytes"],
            "spectrum.grid_s": s("spectrum.evaluate_grid",
                                 "spectrum.evaluate_gradient_grid"),
            "spectrum.point_calls": n("spectrum.evaluate")
                + n("spectrum.evaluate_gradient") + n("spectrum.evaluate_hessian"),
            "spectrum.point_s": s("spectrum.evaluate", "spectrum.evaluate_gradient",
                                  "spectrum.evaluate_hessian"),
            "nodal.extract_calls": n("nodal.extract_nodal"),
            "nodal.segments": counts["nodal.extract_nodal"]["segments"],
            "nodal.polylines": counts["nodal.extract_nodal"]["polylines"],
            "nodal.extract_s": s("nodal.extract_nodal"),
            "nodal.extract_self_s": sum(
                (sp[2] - sp[1]) - child[i] for i, sp in enumerate(self.spans)
                if sp[0] == "nodal.extract_nodal"),
            "nodal.singular_calls": n("nodal.find_singular_points"),
            "nodal.singular_points":
                counts["nodal.find_singular_points"]["points"],
            "nodal.singular_s": s("nodal.find_singular_points"),
            "nodal.order_calls": n("nodal.vanishing_order"),
            "nodal.order_s": s("nodal.vanishing_order"),
            "nodal.count_s": s("nodal.count_singular_in_balls"),
            "harness.member_doubling_s": s("harness.member_doubling"),
            "harness.member_nodal_s": s("harness.member_nodal_stats"),
            "harness.member_lift_s": s("harness.member_lift_index"),
            "harness.family_report_s": s("harness.run_family_report"),
            "cli.report_s": s("cli.main"),
            "cli.self_s": self_s["cli"],
            "cli.files_written": 0,
            "cli.bytes_written": 0,
        }
        out.update(extra or {})
        ratios = ("scan.nodes_per_call", "scan.budget_frac_max",
                  "certify.pass_ratio")
        for key, val in out.items():
            if key not in ratios:
                out[key] = val / rounds
        return out
