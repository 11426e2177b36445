"""Spans and counters around cdconf's public functions, for traced runs.

``Tracer.install`` replaces each traced function by a timing wrapper at
every name through which cdconf's modules reach it, including names bound
by ``from .algebra import mul_coeffs``; ``restore`` puts the originals
back.  A span's self time is its duration minus the time of the spans it
encloses.  Map evaluations are counted by ``Tracer.wrap_map`` around the
maps the benchmark passes in, and credited to every traced function on
the stack at the time of the call.
"""

from __future__ import annotations

import math
import sys
import time
from collections import defaultdict

import numpy as np

from cdconf import algebra, calculus, contour, domains, moebius, normal
from cdconf import phrase as ph


def _batch(x) -> int:
    """Number of elements in a (..., dim) coefficient array or a CdNumber."""
    shape = np.shape(getattr(x, "coeffs", x))
    return math.prod(shape[:-1]) if shape else 1


def _mul_elements(args, kwargs):
    x, y = args[0], args[1]
    return {"elements": math.prod(np.broadcast_shapes(np.shape(x)[:-1], np.shape(y)[:-1]))}


def _eval_points(args, kwargs):
    zval = args[1] if len(args) > 1 else kwargs.get("zval")
    if isinstance(zval, dict):
        zval = next(iter(zval.values()))
    return {"points": _batch(zval)}


def _many_points(args, kwargs):
    return {"points": _batch(args[1])}


def _pairs(args, kwargs):
    n = len(args[0])
    return {"pairs": n * (n - 1) // 2}


# (span name, owner, attribute, extra counts of one call)
TARGETS = (
    ("algebra.mul_coeffs", algebra, "mul_coeffs", _mul_elements),
    ("phrase.parse", ph, "parse", None),
    ("phrase.antiderive", ph, "antiderive", None),
    ("phrase.derivative_at_one", ph, "derivative_at_one", None),
    ("phrase.hat_operator", ph, "hat_operator", None),
    ("phrase.eval_phrase", ph, "eval_phrase", _eval_points),
    ("contour.line_integral", contour, "line_integral", None),
    ("contour.count_zeros", contour, "count_zeros", None),
    ("contour.rouche_equal", contour, "rouche_equal", None),
    ("contour.max_principle_check", contour, "max_principle_check", None),
    ("calculus.jacobian", calculus, "jacobian", None),
    ("calculus.is_pseudoconformal_at", calculus, "is_pseudoconformal_at", None),
    ("calculus.factor", calculus, "factor_quaternion", None),
    ("calculus.factor", calculus, "factor_octonion_givens", None),
    ("moebius.apply_word", moebius, "apply_word", None),
    ("moebius.apply_many", moebius.MoebiusWord, "apply_many", _many_points),
    ("moebius.map_hypersphere", moebius, "map_hypersphere", None),
    ("domains.ball_apply", domains, "ball_apply", None),
    ("domains.schwarz_check", domains, "schwarz_check", None),
    ("normal.classify_sequence", normal, "classify_sequence", _pairs),
    ("normal.rho", normal, "rho", lambda args, kwargs: {"pairs": 1}),
)

NORMAL_SPANS = ("normal.classify_sequence", "normal.rho")


class _Stat:
    __slots__ = ("calls", "total_s", "self_s", "extra")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.extra = defaultdict(int)


class _Counted:
    """A map that reports each evaluation to its tracer."""

    def __init__(self, tracer, f):
        self.tracer, self.f = tracer, f

    def __call__(self, z):
        self.tracer._count_map_eval()
        return self.f(z)


class _CountedAnalytic(_Counted):
    """A counted map with an analytic Jacobian (cdconf.normal looks for
    ``jacobian_at``)."""

    def jacobian_at(self, z):
        self.tracer._count_jacobian()
        return self.f.jacobian_at(z)


class Tracer:
    def __init__(self):
        self.stack = []  # open spans: [name, time of enclosed spans]
        self.stats = defaultdict(_Stat)
        self.edges = defaultdict(_Stat)  # (parent, child) -> calls and time
        self.counts = defaultdict(int)
        self._patched = []

    # -- spans ---------------------------------------------------------------

    def _wrap(self, name, fn, extra):
        stack, stats, edges = self.stack, self.stats, self.edges

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                st = stats[name]
                st.calls += 1
                st.total_s += dt
                st.self_s += dt - frame[1]
                if extra is not None:
                    for key, value in extra(args, kwargs).items():
                        st.extra[key] += value
                edge = edges[(parent, name)]
                edge.calls += 1
                edge.total_s += dt
                if stack:
                    stack[-1][1] += dt

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def install(self):
        """Wrap every target at each cdconf name bound to it."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "cdconf" or key.startswith("cdconf.")]
        for name, owner, attr, extra in TARGETS:
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, extra)
            holders = [owner] + [m for m in modules
                                 if m is not owner and getattr(m, attr, None) is original]
            for holder in holders:
                self._patched.append((holder, attr, original))
                setattr(holder, attr, wrapper)

    def restore(self):
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        self._patched.clear()

    # -- maps ----------------------------------------------------------------

    def _count_map_eval(self):
        names = {frame[0] for frame in self.stack}
        for name in names:
            self.counts[name + ".map_evals"] += 1
        if names.intersection(NORMAL_SPANS):
            self.counts["normal.map_evals"] += 1

    def _count_jacobian(self):
        names = {frame[0] for frame in self.stack}
        if names.intersection(NORMAL_SPANS):
            self.counts["normal.jacobian_evals"] += 1

    def wrap_map(self, f):
        """Counting proxy for a map, with jacobian_at when f has one."""
        return (_CountedAnalytic if hasattr(f, "jacobian_at") else _Counted)(self, f)

    # -- results -------------------------------------------------------------

    def metrics(self, items: int) -> dict:
        """Per-item figures of the layers (see BENCHMARK.json per_layer)."""
        st = self.stats
        per = 1.0 / max(items, 1)
        jac_in_normal = self.counts["normal.jacobian_evals"]
        mul = st["algebra.mul_coeffs"]
        li = st["contour.line_integral"]
        levels = self.edges[("contour.line_integral", "phrase.eval_phrase")].calls
        out = {
            "algebra.mul_coeffs.calls": mul.calls * per,
            "algebra.mul_coeffs.elements": mul.extra["elements"] * per,
            "algebra.mul_coeffs.self_s": mul.self_s * per,
            "algebra.mul_coeffs.ns_per_element":
                mul.self_s * 1e9 / mul.extra["elements"] if mul.extra["elements"] else 0.0,
            "phrase.parse.self_s": st["phrase.parse"].self_s * per,
            "phrase.antiderive.self_s": st["phrase.antiderive"].self_s * per,
            "phrase.derivative_at_one.self_s": st["phrase.derivative_at_one"].self_s * per,
            "phrase.hat_operator.self_s": st["phrase.hat_operator"].self_s * per,
            "phrase.eval_phrase.calls": st["phrase.eval_phrase"].calls * per,
            "phrase.eval_phrase.points": st["phrase.eval_phrase"].extra["points"] * per,
            "phrase.eval_phrase.self_s": st["phrase.eval_phrase"].self_s * per,
            "contour.line_integral.calls": li.calls * per,
            "contour.line_integral.levels": levels / li.calls if li.calls else 0.0,
            "contour.line_integral.self_s": li.self_s * per,
            "contour.count_zeros.self_s": st["contour.count_zeros"].self_s * per,
            "contour.count_zeros.map_evals": self.counts["contour.count_zeros.map_evals"] * per,
            "contour.rouche_equal.self_s": st["contour.rouche_equal"].self_s * per,
            "contour.max_principle_check.self_s": st["contour.max_principle_check"].self_s * per,
            "contour.max_principle_check.map_evals":
                self.counts["contour.max_principle_check.map_evals"] * per,
            "calculus.jacobian.calls": st["calculus.jacobian"].calls * per,
            "calculus.jacobian.map_evals": self.counts["calculus.jacobian.map_evals"] * per,
            "calculus.jacobian.self_s": st["calculus.jacobian"].self_s * per,
            "calculus.is_pseudoconformal_at.self_s":
                st["calculus.is_pseudoconformal_at"].self_s * per,
            "calculus.factor.self_s": st["calculus.factor"].self_s * per,
            "moebius.apply_word.calls": st["moebius.apply_word"].calls * per,
            "moebius.apply_word.self_s": st["moebius.apply_word"].self_s * per,
            "moebius.apply_many.points": st["moebius.apply_many"].extra["points"] * per,
            "moebius.map_hypersphere.self_s": st["moebius.map_hypersphere"].self_s * per,
            "domains.ball_apply.calls": st["domains.ball_apply"].calls * per,
            "domains.schwarz_check.self_s": st["domains.schwarz_check"].self_s * per,
            "normal.classify_sequence.self_s": st["normal.classify_sequence"].self_s * per,
            "normal.rho.self_s": st["normal.rho"].self_s * per,
            "normal.pairs": (st["normal.classify_sequence"].extra["pairs"]
                             + st["normal.rho"].extra["pairs"]) * per,
            "normal.map_evals": self.counts["normal.map_evals"] * per,
            "normal.jacobian_evals": (jac_in_normal + self._fd_jacobians_in_normal()) * per,
        }
        return out

    def _fd_jacobians_in_normal(self):
        return sum(edge.calls for (parent, child), edge in self.edges.items()
                   if parent in NORMAL_SPANS and child == "calculus.jacobian")

    def dump(self) -> dict:
        """Aggregated span tree for the trace file."""
        return {
            "spans": {name: {"calls": s.calls, "total_s": s.total_s, "self_s": s.self_s,
                             **dict(s.extra)} for name, s in sorted(self.stats.items())},
            "edges": [{"parent": p, "child": c, "calls": e.calls, "total_s": e.total_s}
                      for (p, c), e in sorted(self.edges.items(), key=lambda kv: str(kv[0]))],
            "counts": dict(sorted(self.counts.items())),
        }
