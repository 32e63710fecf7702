"""Per-layer tracing by wrapping `quatdyn`'s public names from outside.

Module boundaries (`cli.main`, parsing entry points, `Poly` product,
composition and evaluation, the dynamics and solver functions, Aberth) get a
span each: name, start, end, parent span and the id of the `cli.main` call it
belongs to.  Leaf arithmetic (`Scalar`, `Quaternion` and `Octonion`
operators) runs hundreds of thousands of times per call, so it only gets a
count and accumulated self time.  Self time is a frame's duration minus the
part its child frames (spans or leaf operators) cover, kept with one stack of
child-time accumulators.

Names are patched where callers look them up: operators and `Poly` methods on
their classes, `cli.parse_*` (imported by name into `cli`), the dynamics and
solver functions on their modules, `solver.aberth_roots` (imported by name
from `aberth`) and `dynamics.roots` (imported by name from `solver`).
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter

SCALAR_OPS = {
    "__mul__": "mul", "__rmul__": "mul",
    "__add__": "add", "__radd__": "add", "__sub__": "add", "__rsub__": "add",
    "__neg__": "other", "__truediv__": "other", "__rtruediv__": "other",
    "__pow__": "other", "inv": "other", "__eq__": "other",
}

VERDICTS = ("fixed_point", "certified_periodic", "refuted_at", "inconclusive")
CLASS_KINDS = ("point", "sphere", "none", "anomaly")

# per_layer metric -> unit, in BENCHMARK.json order
METRICS = {
    "cli.self_s": "s", "cli.json_bytes": "bytes", "cli.exit1": "count",
    "cli.exit2": "count", "cli.uncaught": "count",
    "parsing.calls": "count", "parsing.self_s": "s",
    "scalars.mul_calls": "count", "scalars.add_calls": "count", "scalars.self_s": "s",
    "quaternions.mul_calls": "count", "quaternions.mul_self_s": "s",
    "quaternions.inv_calls": "count",
    "octonions.mul_calls": "count", "octonions.mul_self_s": "s",
    "polynomials.mul_calls": "count", "polynomials.mul_self_s": "s",
    "polynomials.compose_calls": "count", "polynomials.compose_s": "s",
    "polynomials.eval_calls": "count", "polynomials.eval_self_s": "s",
    "polynomials.max_degree": "degree", "polynomials.max_coeff_bits": "bits",
    "dynamics.orbit_s": "s", "dynamics.certify_s": "s", "dynamics.oct_check_s": "s",
    "dynamics.fixed_points_s": "s", "dynamics.composite_degree_sum": "count",
    **{f"dynamics.verdict.{v}": "count" for v in VERDICTS},
    "dynamics.decided_share": "share",
    "solver.companion_s": "s", "solver.companion_bits": "bits",
    "solver.extract_exact_s": "s", "solver.extract_numeric_s": "s",
    "solver.solve_in_class_s": "s", "solver.classes": "count",
    **{f"solver.class.{k}": "count" for k in CLASS_KINDS},
    "solver.useful_class_share": "share", "solver.incomplete": "count",
    "aberth.calls": "count", "aberth.s": "s", "aberth.degree_sum": "count",
    "bench.budget_hits": "count", "bench.trace_overhead": "share",
}


def _scalar_bits(s) -> int:
    return max(abs(s.a.numerator).bit_length(), s.a.denominator.bit_length(),
               abs(s.b.numerator).bit_length(), s.b.denominator.bit_length())


class Tracer:
    def __init__(self):
        self.stack = [0.0]  # child time of each open frame
        self.open = [None]  # ids of open spans
        self.spans = []  # (call, id, parent, name, start, end)
        self.call = 0
        self.count = defaultdict(int)  # counts; must repeat exactly
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.in_dynamics = 0
        self._patches = []

    # -- frames ---------------------------------------------------------------

    def leaf(self, fn, key):
        stack, count, self_s, clock = self.stack, self.count, self.self_s, perf_counter

        def wrapper(*args):
            t0 = clock()
            stack.append(0.0)
            try:
                return fn(*args)
            finally:
                dt = clock() - t0
                self_s[key] += dt - stack.pop()
                stack[-1] += dt
                count[key] += 1

        return wrapper

    def span(self, fn, name, after=None):
        stack, count, clock = self.stack, self.count, perf_counter

        def wrapper(*args, **kwargs):
            sid = len(self.spans)
            parent = self.open[-1]
            self.spans.append(None)  # reserve the id
            self.open.append(sid)
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                dt = t1 - t0
                self.self_s[name] += dt - stack.pop()
                self.total_s[name] += dt
                stack[-1] += dt
                self.open.pop()
                count[name] += 1
                self.spans[sid] = (self.call, sid, parent, name, t0, t1)
            if after is not None:
                after(result, args, kwargs)
            return result

        return wrapper

    def reset_frames(self, depth):
        """Drop frames left open by an interrupt that landed in a wrapper."""
        del self.stack[depth:]
        del self.open[depth:]
        self.in_dynamics = 0

    # -- installation -------------------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, owner.__dict__[attr], wrapper))

    def install(self):
        if not self._patches:
            self._build()
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    def _build(self):
        from quatdyn import cli, dynamics, octonions, polynomials, quaternions, scalars, solver

        for attr, what in SCALAR_OPS.items():
            self._patch(scalars.Scalar, attr, self.leaf(scalars.Scalar.__dict__[attr], f"scalars.{what}"))
        for cls, module in ((quaternions.Quaternion, "quaternions"), (octonions.Octonion, "octonions")):
            for attr in ("__mul__", "__rmul__"):
                self._patch(cls, attr, self.leaf(cls.__dict__[attr], f"{module}.mul"))
        self._patch(quaternions.Quaternion, "inv",
                    self.leaf(quaternions.Quaternion.__dict__["inv"], "quaternions.inv"))

        Poly = polynomials.Poly
        for attr in ("__mul__", "__rmul__"):
            self._patch(Poly, attr, self.span(Poly.__dict__[attr], "polynomials.mul", self._after_mul))
        self._patch(Poly, "compose", self.span(Poly.__dict__["compose"], "polynomials.compose", self._after_compose))
        self._patch(Poly, "__call__", self.span(Poly.__dict__["__call__"], "polynomials.eval"))

        for attr in ("parse_poly", "parse_element", "parse_scalar"):
            self._patch(cli, attr, self.span(cli.__dict__[attr], "parsing"))

        for attr, name in (("orbit", "dynamics.orbit"), ("certify_periodic", "dynamics.certify"),
                           ("octonion_fixed_check", "dynamics.oct_check"),
                           ("fixed_points", "dynamics.fixed_points")):
            after = self._after_verdict if attr == "certify_periodic" else None
            self._patch(dynamics, attr, self._dynamics(self.span(dynamics.__dict__[attr], name, after)))

        roots = self.span(solver.__dict__["roots"], "solver.roots")
        self._patch(solver, "roots", roots)
        self._patch(dynamics, "roots", roots)
        self._patch(solver, "companion", self.span(solver.__dict__["companion"], "solver.companion", self._after_companion))
        self._patch(solver, "extract_classes", self._extract(solver))
        self._patch(solver, "solve_in_class",
                    self.span(solver.__dict__["solve_in_class"], "solver.solve_in_class", self._after_class))
        self._patch(solver, "aberth_roots", self.span(solver.__dict__["aberth_roots"], "aberth", self._after_aberth))
        self.main = self.span(cli.main, "cli")

    # -- wrappers with extra bookkeeping -------------------------------------------

    def _dynamics(self, wrapped):
        def wrapper(*args, **kwargs):
            self.in_dynamics += 1
            try:
                return wrapped(*args, **kwargs)
            finally:
                self.in_dynamics -= 1

        return wrapper

    def _extract(self, solver):
        exact = self.span(solver.__dict__["extract_classes"], "solver.extract_exact")
        numeric = self.span(solver.__dict__["extract_classes"], "solver.extract_numeric")

        def wrapper(C, mode="exact", precision=solver.DEFAULT_PRECISION):
            try:
                return (exact if mode == "exact" else numeric)(C, mode=mode, precision=precision)
            except solver.ClassSearchIncompleteError:
                self.count["solver.incomplete"] += 1
                raise

        return wrapper

    def _max(self, key, value):
        if value > self.count[key]:
            self.count[key] = value

    def _after_mul(self, result, args, kwargs):
        if result is not NotImplemented:
            self._max("polynomials.max_degree", result.degree)

    def _after_compose(self, result, args, kwargs):
        self._max("polynomials.max_degree", result.degree)
        bits = max((_scalar_bits(s) for c in result.coeffs for s in c.coords()), default=0)
        self._max("polynomials.max_coeff_bits", bits)
        if self.in_dynamics:
            self.count["dynamics.composite_degree_sum"] += result.degree

    def _after_verdict(self, result, args, kwargs):
        self.count[f"dynamics.verdict.{result.status}"] += 1

    def _after_companion(self, result, args, kwargs):
        self._max("solver.companion_bits", max((_scalar_bits(c) for c in result.coeffs), default=0))

    def _after_class(self, result, args, kwargs):
        self.count[f"solver.class.{result.kind}"] += 1

    def _after_aberth(self, result, args, kwargs):
        coeffs = list(args[0])
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.count["aberth.degree_sum"] += max(len(coeffs) - 1, 0)

    # -- results --------------------------------------------------------------------

    def snapshot(self):
        return dict(self.count)

    def restore(self, snapshot):
        self.count.clear()
        self.count.update(snapshot)

    def metrics(self, budget_hits, overhead, exits, json_bytes):
        c, s, t = self.count, self.self_s, self.total_s
        verdicts = sum(c[f"dynamics.verdict.{v}"] for v in VERDICTS)
        classes = sum(c[f"solver.class.{k}"] for k in CLASS_KINDS)
        values = {
            "cli.self_s": s["cli"], "cli.json_bytes": json_bytes,
            "cli.exit1": exits.get(1, 0), "cli.exit2": exits.get(2, 0),
            "cli.uncaught": exits.get("uncaught", 0),
            "parsing.calls": c["parsing"], "parsing.self_s": s["parsing"],
            "scalars.mul_calls": c["scalars.mul"], "scalars.add_calls": c["scalars.add"],
            "scalars.self_s": sum(v for k, v in s.items() if k.startswith("scalars.")),
            "quaternions.mul_calls": c["quaternions.mul"], "quaternions.mul_self_s": s["quaternions.mul"],
            "quaternions.inv_calls": c["quaternions.inv"],
            "octonions.mul_calls": c["octonions.mul"], "octonions.mul_self_s": s["octonions.mul"],
            "polynomials.mul_calls": c["polynomials.mul"], "polynomials.mul_self_s": s["polynomials.mul"],
            "polynomials.compose_calls": c["polynomials.compose"],
            "polynomials.compose_s": t["polynomials.compose"],
            "polynomials.eval_calls": c["polynomials.eval"], "polynomials.eval_self_s": s["polynomials.eval"],
            "polynomials.max_degree": c["polynomials.max_degree"],
            "polynomials.max_coeff_bits": c["polynomials.max_coeff_bits"],
            "dynamics.orbit_s": t["dynamics.orbit"], "dynamics.certify_s": t["dynamics.certify"],
            "dynamics.oct_check_s": t["dynamics.oct_check"],
            "dynamics.fixed_points_s": t["dynamics.fixed_points"],
            "dynamics.composite_degree_sum": c["dynamics.composite_degree_sum"],
            **{f"dynamics.verdict.{v}": c[f"dynamics.verdict.{v}"] for v in VERDICTS},
            "dynamics.decided_share": (verdicts - c["dynamics.verdict.inconclusive"]) / verdicts if verdicts else 0.0,
            "solver.companion_s": t["solver.companion"], "solver.companion_bits": c["solver.companion_bits"],
            "solver.extract_exact_s": t["solver.extract_exact"],
            "solver.extract_numeric_s": t["solver.extract_numeric"],
            "solver.solve_in_class_s": t["solver.solve_in_class"], "solver.classes": classes,
            **{f"solver.class.{k}": c[f"solver.class.{k}"] for k in CLASS_KINDS},
            "solver.useful_class_share": (c["solver.class.point"] + c["solver.class.sphere"]) / classes if classes else 0.0,
            "solver.incomplete": c["solver.incomplete"],
            "aberth.calls": c["aberth"], "aberth.s": t["aberth"], "aberth.degree_sum": c["aberth.degree_sum"],
            "bench.budget_hits": budget_hits, "bench.trace_overhead": overhead,
        }
        return {name: {"value": values[name], "unit": unit} for name, unit in METRICS.items()}

    def write_spans(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                if span is not None:
                    fh.write(json.dumps(dict(zip(("call", "id", "parent", "name", "start", "end"), span))) + "\n")
