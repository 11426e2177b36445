"""Workload phrase-quadrature: one item is one random z-only phrase.

The item builds the phrase from its spec, round-trips it through render
and parse, antidifferentiates it on both sides and differentiates back,
and integrates it along a closed circle and an open segment.  Nearly all
of the time goes to phrase evaluation at batches of hundreds of points
(the quadrature nodes) and to building phrases symbolically.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

import refarith as ref
from common import CheckFailure, Workload, rand_imag_unit, require

from cdconf import algebra, contour
from cdconf import phrase as ph

MAX_DEGREE = 6
CLOSED_TOL = 1e-8
OPEN_TOL = 1e-8
EVAL_PROBES = 6
SHAPES_PER_ROUND = 15  # odd: the median latency falls inside one shape's items
SHAPE_SEED = 20060301


def _random_tree(rng, factors):
    """Combine factors with a random binary bracket tree."""
    if len(factors) == 1:
        return factors[0]
    cut = int(rng.integers(1, len(factors)))
    return ("mul", _random_tree(rng, factors[:cut]), _random_tree(rng, factors[cut:]))


def _random_word_shape(rng):
    """Bracket tree of z powers (total degree <= MAX_DEGREE) and constant
    slots ("c",), as in the thm17 suite's random phrases."""
    n_groups = int(rng.integers(1, 4))
    factors = []
    if rng.random() < 0.7:
        factors.append(("c",))
    budget = MAX_DEGREE
    for g in range(n_groups):
        p = min(int(rng.integers(1, max(2, budget // (n_groups - g) + 1))), budget)
        if p < 1:
            break
        budget -= p
        factors.append(("z", p))
        if rng.random() < 0.8:
            factors.append(("c",))
    return _random_tree(rng, factors)


def shape_table(n_shapes=SHAPES_PER_ROUND, shape_seed=SHAPE_SEED):
    """The fixed structural mix of one round: per item the level, the side
    and the words' bracket trees.  Seeds vary every number in them, not
    the structure, so a round costs the same work under every seed."""
    rng = np.random.default_rng(shape_seed)
    shapes = []
    for k in range(n_shapes):
        words = tuple(_random_word_shape(rng) for _ in range(int(rng.integers(1, 5))))
        shapes.append({"level": 3 if k % 3 == 0 else 2,
                       "side": "left" if k % 2 == 0 else "right",
                       "words": words})
    return tuple(shapes)


def _fill(rng, tree, dim):
    """Put seeded constants into the slots of a tree shape.

    Constants have norm in [0.5, 1.5]: the magnitudes stay near one, so
    the refinement tolerance is met by the same rule under every seed.
    """
    if tree[0] == "mul":
        return ("mul", _fill(rng, tree[1], dim), _fill(rng, tree[2], dim))
    if tree[0] == "c":
        v = rng.normal(size=dim)
        return ("c", tuple(v * (rng.uniform(0.5, 1.5) / np.linalg.norm(v))))
    return tree


def random_phrase_spec(rng, shape, dim):
    """Phrase spec of a shape.  Word coefficients are multiples of 1/8,
    which the canonical text renders exactly, so parse(render(nu)) can be
    compared exactly."""
    words = []
    for tree in shape["words"]:
        coeff = Fraction(int(rng.integers(4, 17)), 8) * (1 if rng.random() < 0.7 else -1)
        words.append((coeff, _fill(rng, tree, dim)))
    return tuple(words)


def build_tree(tree):
    kind = tree[0]
    if kind == "mul":
        return build_tree(tree[1]) * build_tree(tree[2])
    if kind == "z":
        return ph.z(tree[1])
    return ph.const(algebra.CdNumber(tree[1]))


def build_phrase(spec):
    """The cdconf phrase of a spec, through the public builders."""
    out = None
    for coeff, tree in spec:
        word = build_tree(tree) * coeff
        out = word if out is None else out + word
    return out


def phrase_spec(phrase):
    """Spec of a cdconf phrase, for the reference evaluator."""
    def tree_spec(node):
        if isinstance(node, ph.Mul):
            return ("mul", tree_spec(node.left), tree_spec(node.right))
        if isinstance(node, ph.ZPow):
            return ("z", node.p)
        if isinstance(node, ph.E):
            return ("e",)
        if isinstance(node, ph.Const):
            return ("c", node.values)
        raise CheckFailure(f"unexpected node {node!r} in a z-only phrase")
    return tuple((w.coeff, tree_spec(w.tree)) for w in phrase.words)


class PhraseQuadrature(Workload):
    name = "phrase-quadrature"
    round_size = SHAPES_PER_ROUND
    warmup_ks = (3, 4)  # one cheap item per level
    shapes = shape_table()

    def make_item(self, rng, k):
        shape = self.shapes[k % len(self.shapes)]
        dim = 1 << shape["level"]
        spec = random_phrase_spec(rng, shape, dim)
        m = rand_imag_unit(rng, dim)
        center = (rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3))
        radius = rng.uniform(0.5, 1.2)
        start = (rng.uniform(-1, 0), rng.uniform(-1, 0))
        end = (rng.uniform(0, 1), rng.uniform(0, 1))
        probes = rng.normal(size=(EVAL_PROBES, dim)) * 0.7
        return {"dim": dim, "spec": spec, "m": m, "center": center, "radius": radius,
                "start": start, "end": end, "probes": probes, "side": shape["side"]}

    def run(self, item, wrap):
        dim = item["dim"]
        a0 = algebra.CdNumber(np.zeros(dim))
        m = algebra.CdNumber(item["m"])
        nu = build_phrase(item["spec"])
        reparsed = ph.parse(ph.render(nu))
        anti = {side: ph.antiderive(nu, side) for side in ("left", "right")}
        back = {side: ph.derivative_at_one(mu) for side, mu in anti.items()}
        loop = contour.PlanarLoop.circle(a0, m, center=item["center"],
                                         radius=item["radius"], n=16)
        seg = contour.PlanarPath.segment(a0, m, item["start"], item["end"], n=8)
        closed = contour.line_integral(nu, loop, refine=1e-11, side=item["side"])
        opened = contour.line_integral(nu, seg, refine=1e-11, side=item["side"])
        values = ph.eval_phrase(nu, item["probes"])
        return {"nu": nu, "reparsed": reparsed, "anti": anti, "back": back,
                "closed": closed.coeffs, "open": opened.coeffs, "values": values,
                "z0": seg.embedded()[0], "z1": seg.embedded()[-1]}

    def check(self, item, out):
        nu = out["nu"]
        require(out["reparsed"] == nu, "parse(render(nu)) != nu")
        for side in ("left", "right"):
            require(out["back"][side] == nu,
                    f"derivative_at_one(antiderive(nu, {side!r})) != nu")
        want = ref.eval_phrase(item["spec"], item["probes"])
        err = float(np.max(ref.norm(out["values"] - want) / (1.0 + ref.norm(want))))
        require(err <= 1e-9, f"eval_phrase differs from the reference by {err:.3e}")
        closed = float(ref.norm(out["closed"]))
        require(closed <= CLOSED_TOL, f"closed-loop integral {closed:.3e}")
        mu = phrase_spec(out["anti"][item["side"]])
        want = ref.eval_phrase(mu, out["z1"]) - ref.eval_phrase(mu, out["z0"])
        err = float(ref.norm(out["open"] - want))
        require(err <= OPEN_TOL, f"open-path integral off the endpoint difference by {err:.3e}")
