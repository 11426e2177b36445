import hashlib
import itertools
import json
import math
import re
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdconf import phrase as ph
from cdconf.algebra import CdNumber, cd, mul
from cdconf.calculus import RealJacobian, finite_value, jacobian, left_mul_matrix
from cdconf.errors import DimensionError, DomainError, EvaluationError
from cdconf.moebius import Inv, MoebiusWord, MulQ, RotO, Shift, compose
from cdconf.normal import (MAX_LATTICE_POINTS, AffineMap, CompactGrid, _distances, _features,
                           _rho_from_features, classify_sequence, rho)


@pytest.fixture
def rng():
    return np.random.default_rng(555)


@pytest.fixture
def grid():
    return CompactGrid(CdNumber.zero(2), 1.0, resolution=120)


def affine(a, b=None, c=None):
    b = b if b is not None else CdNumber.one(2)
    c = c if c is not None else CdNumber.zero(2)
    return AffineMap(a, b, c)


def test_grid_nodes_inside_and_enough(grid):
    nodes = grid.nodes()
    assert len(nodes) >= grid.resolution
    assert np.max(np.linalg.norm(nodes, axis=1)) <= grid.radius + 1e-12


def test_grid_refinement_nests(grid):
    coarse = {tuple(np.round(r, 12)) for r in grid.nodes()}
    fine = {tuple(np.round(r, 12)) for r in grid.refined().nodes()}
    assert coarse <= fine


def _reference_nodes(center, radius, per_axis):
    axis = np.linspace(-radius, radius, per_axis)
    pts = [p for p in itertools.product(axis, repeat=center.dim)
           if math.sqrt(sum(x * x for x in p)) <= radius + 1e-12]
    return center.coeffs + np.array(pts)


@pytest.mark.parametrize("level, radius, resolution, per_axis, count", [
    (2, 1.0, 120, 6, 176),
    (2, 1.0, 729, 9, 1281),
    (3, 1.0, 16, 3, 17),
    (3, 0.5, 64, 4, 256),
])
def test_grid_keeps_its_nodes(level, radius, resolution, per_axis, count):
    g = CompactGrid(CdNumber.real(0.25, level), radius, resolution)
    nodes = g.nodes()
    assert nodes.shape == (count, 1 << level)
    assert np.array_equal(nodes, _reference_nodes(g.center, radius, per_axis))


@pytest.mark.parametrize("radius", [-1.0, 0.0, math.nan, math.inf])
def test_grid_rejects_bad_radius_quickly(radius):
    start = time.perf_counter()
    with pytest.raises(DomainError):
        CompactGrid(CdNumber.zero(2), radius, 16)
    assert time.perf_counter() - start < 1.0


def test_grid_rejects_zero_resolution():
    with pytest.raises(DomainError):
        CompactGrid(CdNumber.zero(2), 1.0, 0)


@pytest.mark.parametrize("per_axis", [-1, -7])
def test_grid_rejects_a_negative_per_axis(per_axis):
    # refused on construction, before np.linspace can raise a bare ValueError
    with pytest.raises(DomainError, match="per_axis must not be negative"):
        CompactGrid(CdNumber.zero(2), 1.0, per_axis=per_axis)


def test_grid_refuses_a_large_lattice_before_building_it():
    # a 16-coefficient center needs 3^16 points (about 5.5 GB stacked)
    grid = CompactGrid(CdNumber.zero(4), 1.0, 16)
    tracemalloc.start()
    try:
        with pytest.raises(DomainError):
            grid.nodes()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 3 ** 16 > MAX_LATTICE_POINTS
    assert peak < 64 * 2 ** 20


@pytest.mark.parametrize("level, per_axis", [(2, 0), (2, 1), (2, 2), (3, 2)])
def test_an_empty_lattice_is_a_domain_error(level, per_axis):
    # an explicit per_axis of 1 or 2 puts every lattice point outside the ball
    grid = CompactGrid(CdNumber.zero(level), 1.0, per_axis=per_axis)
    f = AffineMap(CdNumber.one(level), CdNumber.one(level), CdNumber.zero(level))
    with pytest.raises(DomainError, match="no node in the ball"):
        rho(f, f, grid)
    with pytest.raises(DomainError, match="no node in the ball"):
        classify_sequence([f] * 8, grid, 0.1)


def test_rho_self_zero(grid):
    f = affine(cd([1, 0.3, 0, 0]), cd([0.5, 0, 0.2, 0]), cd([0, 0, 0, 1]))
    assert rho(f, f, grid).value == 0.0


def test_rho_constant_offset(grid):
    c = cd([0.3, 0.4, 0, 0])
    v = rho(affine(CdNumber.one(2)), affine(CdNumber.one(2), c=c), grid)
    assert v.value == pytest.approx(c.norm(), rel=1e-12)


def test_rho_left_multiplication_oracle(grid):
    # f = a z, g = a' z: rho = max_node |(a - a') z| + ||L_a - L_a'||
    a1, a2 = cd([1, 0.2, 0, 0]), cd([0.8, -0.1, 0.3, 0])
    v = rho(affine(a1), affine(a2), grid).value
    worst = max(
        np.linalg.norm((affine(a1)(cd(row)) - affine(a2)(cd(row))).coeffs)
        for row in grid.nodes()
    )
    op = np.linalg.norm(left_mul_matrix(a1) - left_mul_matrix(a2), 2)
    assert v == pytest.approx(worst + op, rel=1e-12)


def test_rho_monotone_under_refinement(grid, rng):
    f = affine(cd(rng.normal(size=4)), cd(rng.normal(size=4)), cd(rng.normal(size=4)))
    g = affine(cd(rng.normal(size=4)), cd(rng.normal(size=4)), cd(rng.normal(size=4)))
    coarse = rho(f, g, grid).value
    fine = rho(f, g, grid.refined()).value
    assert fine >= coarse - 1e-14


def test_rho_pseudometric(grid, rng):
    fs = [affine(cd(rng.normal(size=4)), cd(rng.normal(size=4)), cd(rng.normal(size=4)))
          for _ in range(4)]
    d = {}
    for i in range(4):
        for j in range(4):
            d[i, j] = rho(fs[i], fs[j], grid).value
    for i in range(4):
        assert d[i, i] == 0.0
        for j in range(4):
            assert d[i, j] == pytest.approx(d[j, i], rel=1e-12)
            for k in range(4):
                assert d[i, k] <= d[i, j] + d[j, k] + 1e-12


def test_rho_fd_jacobian_path(grid):
    # plain callables take the finite-difference route
    a = cd([0.9, 0.1, 0, 0])
    exact = rho(affine(a), affine(CdNumber.one(2)), grid).value
    fd = rho(lambda z: affine(a)(z), lambda z: z, grid).value
    assert fd == pytest.approx(exact, abs=1e-7)


def test_classify_converging_sequence():
    fs = [affine(CdNumber.one(2), c=CdNumber.real(1.0 / k, 2)) for k in range(1, 33)]
    grid = CompactGrid(CdNumber.zero(2), 1.0, resolution=80)
    res = classify_sequence(fs, grid, tol=0.07)
    assert res.kind == "ConvergesTo"
    assert res.limit_samples is not None


def test_classify_divergence():
    fs = [affine(CdNumber.real(float(k), 2)) for k in range(1, 33)]
    grid = CompactGrid(CdNumber.real(5.0, 2), 1.0, resolution=80)
    res = classify_sequence(fs, grid, tol=0.05, divergence_threshold=10.0)
    assert res.kind == "DivergesToInfinity"


def test_classify_extraction_bounded_family(rng):
    astar, bstar, cstar = (cd(rng.normal(size=4) * 0.5) for _ in range(3))
    fs = []
    for k in range(64):
        if k % 2 == 0:
            eps = 2.0 ** (-k / 2.0 - 2)
            fs.append(AffineMap(astar + CdNumber.real(eps, 2), bstar, cstar))
        else:
            fs.append(AffineMap(cd(rng.normal(size=4)), cd(rng.normal(size=4)),
                                cd(rng.normal(size=4))))
    grid = CompactGrid(CdNumber.zero(2), 1.0, resolution=80)
    res = classify_sequence(fs, grid, tol=1e-3)
    assert res.kind == "Extracted"
    assert len(res.indices) >= 8
    assert all(i % 2 == 0 for i in res.indices)


def test_classify_not_normal_evidence():
    fs = [affine(CdNumber.real(2.0 ** k, 2)) for k in range(16)]
    grid = CompactGrid(CdNumber.zero(2), 1.0, resolution=80)  # contains 0
    res = classify_sequence(fs, grid, tol=1e-6)
    assert res.kind == "NotNormalEvidence"
    assert res.witness is not None


def test_classify_needs_eight():
    with pytest.raises(ValueError):
        classify_sequence([affine(CdNumber.one(2))] * 4,
                          CompactGrid(CdNumber.zero(2), 1.0, 16), 0.1)


# ---------------------------------------------------------------------------
# batched features: the same bytes as the per-node path
# ---------------------------------------------------------------------------

def _reference_features(f, nodes, step):
    """One CdNumber evaluation per node and per stencil point, in the order
    and with the checks of the per-point path."""
    dim = nodes.shape[1]
    vals = np.empty_like(nodes)
    jacs = np.empty((len(nodes), dim, dim))
    for n, row in enumerate(nodes):
        z = CdNumber(row)
        vals[n] = finite_value(f, z, "map not evaluable on a grid node").coeffs
        if hasattr(f, "jacobian_at"):
            jacs[n] = f.jacobian_at(z).entries
            continue
        cols = np.empty((dim, dim))
        for k in range(dim):
            e = CdNumber.basis(k, z.level) * step
            plus = finite_value(f, z + e, "non-finite sample in jacobian")
            minus = finite_value(f, z - e, "non-finite sample in jacobian")
            cols[:, k] = (plus.coeffs - minus.coeffs) / (2.0 * step)
        jacs[n] = RealJacobian(z.level, cols).entries
    return vals, jacs


def _same_bytes(features, reference, nodes):
    (vals, jacs), (ref_vals, ref_jacs) = features, reference
    full = np.broadcast_to(jacs, (len(nodes),) + jacs.shape[1:])
    return vals.tobytes() == ref_vals.tobytes() and full.tobytes() == ref_jacs.tobytes()


def _random_word(rng, level, n, scale=1.0):
    gens = []
    for _ in range(n):
        k = int(rng.integers(0, 3))
        if k == 0:
            gens.append(Shift(cd(rng.normal(size=1 << level) * scale)))
        elif k == 1:
            gens.append(Inv())
        elif level == 2:
            gens.append(MulQ(cd(rng.normal(size=4)), cd(rng.normal(size=4))))
        else:
            gens.append(RotO(tuple((int(p), int(q), float(rng.uniform(-3, 3)))
                                   for p, q in (sorted(rng.choice(8, 2, replace=False))
                                                for _ in range(3)))))
    return MoebiusWord(gens, level)


class _Swirl:
    """A batched map whose Jacobian varies from node to node."""

    def __call__(self, z):
        return CdNumber(self.apply_many(z.coeffs))

    def apply_many(self, pts):
        return pts * np.sum(pts * pts, axis=-1, keepdims=True)

    def jacobian_at(self, z):
        x = z.coeffs
        return RealJacobian(z.level, np.dot(x, x) * np.eye(z.dim) + 2.0 * np.outer(x, x))


def _family(rng, kind, level):
    dim = 1 << level
    if kind == "affine":
        return AffineMap(*(cd(rng.normal(size=dim)) for _ in range(3)))
    if kind == "word":  # the pole -s of the leading inversion lies 1 or more off the grid
        v = rng.normal(size=dim)
        s = Shift(cd(v / np.linalg.norm(v) * rng.uniform(3.0, 4.0)))
        return compose(MoebiusWord([s, Inv()], level), _random_word(rng, level, 3, 0.2))
    if kind == "lambda":
        a = cd(rng.normal(size=dim))
        return lambda z: mul(mul(a, z), z)
    if kind == "phrase":
        a, b = (ph.const(cd(rng.normal(size=dim))) for _ in range(2))
        return (a * ph.z()) * (ph.z() * b) + ph.zc(2) * a
    return _Swirl()


@settings(max_examples=60)
@given(seed=st.integers(0, 2 ** 32 - 1), level=st.sampled_from([2, 3]),
       kind=st.sampled_from(["affine", "word", "lambda", "swirl", "phrase"]))
def test_batched_features_equal_the_per_node_path(seed, level, kind):
    rng = np.random.default_rng(seed)
    f = _family(rng, kind, level)
    grid = CompactGrid(cd(rng.normal(size=1 << level) * 0.2), float(rng.uniform(0.2, 1.0)),
                       16 if level == 3 else 40)
    nodes = grid.nodes()
    features = _features(f, nodes, grid.step)
    assert _same_bytes(features, _reference_features(f, nodes, grid.step), nodes)
    want = 1 if kind == "affine" else len(nodes)
    assert features[1].shape == (want, 1 << level, 1 << level)


@settings(max_examples=60)
@given(seed=st.integers(0, 2 ** 32 - 1), level=st.sampled_from([2, 3]))
def test_batched_features_of_any_word_equal_the_per_node_path(seed, level):
    # long words with shifts of all sizes, led by a pole planted on a node,
    # on a stencil point, or nowhere
    rng = np.random.default_rng(seed)
    f = _random_word(rng, level, int(rng.integers(1, 7)), float(rng.uniform(0.1, 3.0)))
    grid = CompactGrid(cd(rng.normal(size=1 << level) * 0.2), 1.0, per_axis=3)
    nodes = grid.nodes()
    pole = CdNumber(nodes[rng.integers(len(nodes))])
    plant = int(rng.integers(3))
    if plant:
        if plant == 2:
            pole = pole + CdNumber.basis(int(rng.integers(1 << level)), level) * grid.step
        f = compose(MoebiusWord([Shift(-pole), Inv()], level), f)
    try:
        with np.errstate(all="ignore"):
            reference = _reference_features(f, nodes, grid.step)
    except EvaluationError as exc:
        with pytest.raises(EvaluationError) as err:
            _features(f, nodes, grid.step)
        assert (str(err.value), err.value.point) == (str(exc), exc.point)
    else:
        assert _same_bytes(_features(f, nodes, grid.step), reference, nodes)


def test_jacobian_at_alone_is_not_read_as_constant():
    class Proxy:  # exposes jacobian_at but neither apply_many nor constant_jacobian
        def __init__(self, f):
            self.f = f

        def __call__(self, z):
            return self.f(z)

        def jacobian_at(self, z):
            return self.f.jacobian_at(z)

    grid = CompactGrid(CdNumber.zero(2), 1.0, 40)
    nodes = grid.nodes()
    for f in (Proxy(AffineMap(cd([1, 2, 0, 0]), cd([0, 1, 0, 1]), cd([1, 0, 0, 0]))),
              _Swirl(), Proxy(_Swirl())):
        features = _features(f, nodes, grid.step)
        assert features[1].shape == (len(nodes), 4, 4)
        assert _same_bytes(features, _reference_features(f, nodes, grid.step), nodes)


@pytest.mark.parametrize("kinds", [("affine",), ("word",), ("affine", "word", "lambda", "swirl")])
@pytest.mark.parametrize("level", [2, 3])
def test_distance_rows_equal_the_pairwise_metric(kinds, level):
    rng = np.random.default_rng(len(kinds) + level)
    fs = [_family(rng, kinds[k % len(kinds)], level) for k in range(12)]
    grid = CompactGrid(CdNumber.zero(level), 0.5, 16 if level == 3 else 40)
    feats = [_features(f, grid.nodes(), grid.step) for f in fs]
    pairwise = np.zeros((12, 12))
    for i, j in itertools.combinations(range(12), 2):
        pairwise[i, j] = pairwise[j, i] = _rho_from_features(feats[i], feats[j])
    assert _distances(feats).tobytes() == pairwise.tobytes()


def test_grid_builds_its_nodes_once_and_read_only(monkeypatch):
    grid = CompactGrid(CdNumber.zero(2), 1.0, resolution=120)
    calls = []
    lattice = CompactGrid._lattice
    monkeypatch.setattr(CompactGrid, "_lattice",
                        lambda self, p: calls.append(p) or lattice(self, p))
    nodes = grid.nodes()
    assert grid.nodes() is nodes and calls == [2, 3, 4, 5, 6]
    with pytest.raises(ValueError):
        nodes[0, 0] = 7.0
    assert np.array_equal(grid.refined().nodes(), _reference_nodes(grid.center, 1.0, 11))
    assert calls[5:] == [11]


def test_grid_refusal_is_raised_on_every_call():
    grid = CompactGrid(CdNumber.zero(4), 1.0, 16)
    for _ in range(2):
        with pytest.raises(DomainError, match="lattice exceeds"):
            grid.nodes()


# ---------------------------------------------------------------------------
# the point at infinity: the per-node errors, and no warning
# ---------------------------------------------------------------------------

ODD_GRID = CompactGrid(CdNumber.zero(2), 1.0, per_axis=3)  # nodes 0 and +-i_k


def test_pole_on_a_grid_node_names_the_node():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (lambda w: rho(w, w, ODD_GRID),
                     lambda w: classify_sequence([w] * 8, ODD_GRID, 0.1)):
            with pytest.raises(EvaluationError, match="map not evaluable on a grid node") as err:
                call(MoebiusWord([Inv()], 2))
            assert err.value.point == CdNumber.zero(2)


def test_pole_on_a_stencil_point_names_the_point():
    step = ODD_GRID.step
    pole = CdNumber.basis(0, 2) * step
    w = MoebiusWord([Shift(-pole), Inv()], 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EvaluationError, match="non-finite sample in jacobian") as err:
            rho(w, w, ODD_GRID)
    assert err.value.point == pole


def test_inversion_back_from_infinity_keeps_the_exact_value():
    # 0 -> INF -> 0: the batch sees 0/0, the per-point path the exact 0
    w = MoebiusWord([Inv(), Inv()], 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vals, _ = _features(w, ODD_GRID.nodes(), ODD_GRID.step)
    assert np.array_equal(vals, ODD_GRID.nodes())


HUGE = MulQ(cd([1e100, 0, 0, 0]), cd([1e100, 0, 0, 0]))


@pytest.mark.parametrize("f, grid", [
    (AffineMap(cd([1e300, 0, 0, 0]), cd([1e10, 0, 0, 0]), CdNumber.zero(2)),
     CompactGrid(CdNumber.zero(2), 1e-12, per_axis=3)),
    # finite values and samples, but a derivative of 1e400
    (MoebiusWord([HUGE, HUGE], 2), CompactGrid(CdNumber.zero(2), 1e-100, step=1e-110, per_axis=3)),
], ids=["analytic", "central"])
def test_overflowing_jacobian_is_refused(f, grid):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the per-point path overflows
        with pytest.raises(EvaluationError, match="non-finite Jacobian entries"):
            rho(f, f, grid)


class _OverflowThenPole:
    """+-1e308 around node 0, so its central differences overflow, and NaN
    at node 1; `batched` adds an apply_many whose batch is not finite."""

    def __init__(self, batched):
        if batched:
            self.apply_many = lambda pts: np.full(pts.shape, np.nan)

    def __call__(self, z):
        x = z.coeffs
        return CdNumber(np.full(4, np.nan if x[0] > 0.5 else 1e308 * np.sign(x.sum())))


@pytest.mark.parametrize("batched", [False, True])
def test_an_overflowing_jacobian_is_named_before_a_later_pole(batched):
    nodes = np.array([[0.0, 0, 0, 0], [1.0, 0, 0, 0]])
    f = _OverflowThenPole(batched)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the differences overflow
        for features in (_features, _reference_features):
            with pytest.raises(EvaluationError, match="non-finite Jacobian entries"):
                features(f, nodes, 1e-5)


@pytest.mark.parametrize("f, grid, message", [
    (AffineMap(CdNumber.one(2), CdNumber.one(2), CdNumber.zero(2)),
     CompactGrid(CdNumber.zero(3), 1.0, 16), "level mismatch: 2 vs 3"),
    (AffineMap(CdNumber.one(2), CdNumber.one(2), CdNumber.zero(3)),
     CompactGrid(CdNumber.zero(2), 1.0, 16), "level mismatch: 2 vs 3"),
    (MoebiusWord([Inv()], 2), CompactGrid(CdNumber.zero(3), 1.0, 16),
     "a level-2 word cannot act on 8 coefficients"),
], ids=["grid", "translation", "word"])
def test_mixed_levels_raise_the_per_point_error(f, grid, message):
    with pytest.raises(DimensionError, match=message):
        rho(f, f, grid)


class _RaisingBatch:
    """A word whose batch raises an error other than DimensionError."""

    def __init__(self, word):
        self.word, self.calls = word, 0

    def __call__(self, z):
        self.calls += 1
        return self.word(z)

    def apply_many(self, pts):
        raise RuntimeError("batch failed")


def test_a_raising_batch_falls_back_to_the_per_point_path():
    rng = np.random.default_rng(5)
    word = _family(rng, "word", 2)
    f = _RaisingBatch(word)
    nodes = CompactGrid(CdNumber.zero(2), 0.5, per_axis=3).nodes()
    assert _same_bytes(_features(f, nodes, 1e-5), _features(word, nodes, 1e-5), nodes)
    assert f.calls == len(nodes) * (1 + 2 * 4)  # each node and its stencil
    z = CdNumber(nodes[0])
    assert jacobian(f, z).entries.tobytes() == jacobian(word, z).entries.tobytes()
    assert f.calls == len(nodes) * (1 + 2 * 4) + 2 * 4


# ---------------------------------------------------------------------------
# the pruned lattice and the pruned SVDs: the bytes of the full computation
# ---------------------------------------------------------------------------

def _meshgrid_lattice(grid, per_axis, relative_below_one=True):
    """The full per_axis^dim meshgrid filtered to the ball, as the grid
    built it before the pruning: the reference for the pruned build.  Below
    a radius of 1 the ball is tested in units of the radius; without
    relative_below_one, with the absolute slack the grid once used there."""
    dim = grid.center.dim
    axes = [np.linspace(-grid.radius, grid.radius, per_axis)] * dim
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dim)
    unit = min(grid.radius, 1.0) if relative_below_one else 1.0
    return mesh[np.linalg.norm(mesh / unit, axis=1) <= grid.radius / unit + 1e-12]


def _assert_lattice_matches(grid, per_axis):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the meshgrid's norms overflow near 1e154
        reference = _meshgrid_lattice(grid, per_axis)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lattice = grid._lattice(per_axis)
    assert lattice.shape == reference.shape and lattice.tobytes() == reference.tobytes()
    pinned = CompactGrid(grid.center, grid.radius, per_axis=per_axis)
    if len(reference):
        assert pinned.nodes().tobytes() == (grid.center.coeffs + reference).tobytes()
    else:
        with pytest.raises(DomainError, match="no node in the ball"):
            pinned.nodes()


@pytest.mark.parametrize("radius", [1e-12, 0.5, 1.0, 3.7, 1e150])
@pytest.mark.parametrize("level", [2, 3, 4])
def test_pruned_lattice_has_the_meshgrid_bytes(level, radius):
    # every per_axis up to the cap; per_axis 3 and 5 put nodes on the sphere
    center = CdNumber(np.linspace(-0.7, 0.4, 1 << level))
    grid = CompactGrid(center, radius, 1)
    per_axis = 0
    while per_axis ** center.dim <= MAX_LATTICE_POINTS:
        _assert_lattice_matches(grid, per_axis)
        per_axis += 1


def test_pruned_lattice_keeps_the_nodes_on_the_sphere_at_any_scale():
    # per_axis 3 and 5 put nodes on the sphere, where a sum of squares
    # rounds past radius^2 while the meshgrid's norm test keeps the node
    rng = np.random.default_rng(3)
    for radius in 10.0 ** rng.uniform(-12, 150, size=300):
        for level, per_axis in ((2, 3), (2, 5), (2, 9), (3, 3)):
            grid = CompactGrid(CdNumber.zero(level), float(radius), 1)
            assert grid._lattice(per_axis).tobytes() == _meshgrid_lattice(grid, per_axis).tobytes()


@settings(max_examples=60)
@given(seed=st.integers(0, 2 ** 32 - 1), level=st.sampled_from([2, 3]),
       exponent=st.floats(-13.0, 154.0))
def test_pruned_lattice_has_the_meshgrid_bytes_at_any_radius(seed, level, exponent):
    rng = np.random.default_rng(seed)
    dim = 1 << level
    center = CdNumber(rng.normal(size=dim) * 10.0 ** rng.uniform(-3, 3))
    grid = CompactGrid(center, float(10.0 ** exponent * rng.uniform(1.0, 1.34)), 1)
    _assert_lattice_matches(grid, int(rng.integers(0, 10 if level == 2 else 5)))


@pytest.mark.parametrize("radius", [1e-9, 1e-12, 1e-13, 1e-100, 1e-300])
@pytest.mark.parametrize("level", [2, 3])
def test_a_tiny_grid_keeps_its_nodes_in_the_ball(level, radius):
    # an absolute slack of 1e-12 kept the cube's corners at 2 radius, and
    # at 1e-300 every square underflowed to 0 and the whole cube passed
    nodes = CompactGrid(CdNumber.zero(level), radius, 16).nodes()
    assert np.max(np.linalg.norm(nodes / radius, axis=1)) <= 1.0 + 1e-12
    assert len(nodes) == len(CompactGrid(CdNumber.zero(level), 1.0, 16).nodes())


@settings(max_examples=100)
@given(level=st.sampled_from([2, 3]), exponent=st.floats(-9.34, 3.0),
       per_axis=st.integers(2, 22))
def test_a_radius_above_4e_10_keeps_the_absolute_slack_bytes(level, exponent, per_axis):
    # off-sphere lattice norms sit at least 1/441 of the radius from the
    # sphere, so a slack of 1e-12 absolute or relative keeps the same nodes
    per_axis = per_axis if level == 2 else min(per_axis, 4)
    grid = CompactGrid(CdNumber.zero(level), float(10.0 ** exponent), 1)
    want = _meshgrid_lattice(grid, per_axis, relative_below_one=False)
    assert grid._lattice(per_axis).tobytes() == want.tobytes()


@pytest.mark.parametrize("radius", [1e300, 1e155, 1.35e154])
def test_a_radius_whose_square_overflows_is_refused_on_construction(radius):
    with pytest.raises(DomainError, match=re.escape(f"grid radius {radius} is too large")):
        CompactGrid(CdNumber.zero(2), radius, 16)


def test_a_huge_radius_builds_its_lattice_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        nodes = CompactGrid(CdNumber.zero(3), 1.34e154, 16).nodes()
    assert len(nodes) == 17


def _full_svd_rho(fa, fb):
    """One SVD per node, as rho took them before the pruning: the reference
    for the pruned maximum."""
    dv = np.linalg.norm(fa[0] - fb[0], axis=-1)
    dj = np.linalg.norm(fa[1] - fb[1], ord=2, axis=(-2, -1))
    return np.max(dv + dj, axis=-1)


def _assert_pruned_rho_matches(fa, fb):
    got, want = _rho_from_features(fa, fb), _full_svd_rho(fa, fb)
    assert type(got) is type(want) and np.shape(got) == np.shape(want)
    assert got.tobytes() == want.tobytes()


@settings(max_examples=150)
@given(seed=st.integers(0, 2 ** 32 - 1), dim=st.sampled_from([4, 8]),
       nodes=st.integers(1, 60), members=st.integers(0, 5),
       value_exp=st.floats(-300.0, 150.0), jac_exp=st.floats(-300.0, 150.0),
       shape=st.sampled_from(["per-node", "constant-a", "constant-b", "ties"]))
def test_pruned_rho_has_the_full_svd_bytes(seed, dim, nodes, members, value_exp, jac_exp,
                                           shape):
    rng = np.random.default_rng(seed)
    lead = (members,) if members else ()
    va = rng.normal(size=(nodes, dim)) * 10.0 ** value_exp
    vb = rng.normal(size=lead + (nodes, dim)) * 10.0 ** value_exp
    ja = rng.normal(size=(nodes, dim, dim)) * 10.0 ** jac_exp
    jb = rng.normal(size=lead + (nodes, dim, dim)) * 10.0 ** jac_exp
    if shape == "constant-a":
        ja = ja[:1]
    elif shape == "constant-b":
        jb = jb[..., :1, :, :]
    elif shape == "ties":  # equal and zero differences on half the nodes
        ja[: nodes // 2] = ja[0]
        jb[..., : nodes // 2, :, :] = ja[0] + 1.0
        jb[..., nodes // 2:, :, :] = ja[nodes // 2:]
        vb[..., : nodes // 2, :] = va[0]
        va[: nodes // 2] = va[0]
    _assert_pruned_rho_matches((va, ja), (vb, jb))


def _stack(rng, n, dim, scale):
    return rng.normal(size=(n, dim)) * scale, rng.normal(size=(n, dim, dim)) * scale


@pytest.mark.parametrize("scale", [0.0, 1e-310, 1e-300, 1e-150, 1.0, 1e150, 1e153])
def test_pruned_rho_at_extreme_scales(scale):
    rng = np.random.default_rng(7)
    fa, fb = _stack(rng, 40, 4, scale), _stack(rng, 40, 4, scale)
    _assert_pruned_rho_matches(fa, fb)
    _assert_pruned_rho_matches(fa, fa)  # zero differences
    small = (fb[0] * 1e-300, fb[1] * 1e-300)  # values and Jacobians far apart in scale
    _assert_pruned_rho_matches((fa[0], small[1]), (small[0], fa[1]))


def test_pruned_rho_with_tied_nodes():
    rng = np.random.default_rng(8)
    fa, fb = ((np.repeat(v, 30, axis=0), np.repeat(j, 30, axis=0))
              for v, j in (_stack(rng, 1, 8, 1.0), _stack(rng, 1, 8, 1.0)))
    _assert_pruned_rho_matches(fa, fb)
    # every node ties on |f-g| and on ||f'-g'||, with the two parts swapped
    _assert_pruned_rho_matches((np.zeros((2, 4)), np.array([np.eye(4), 2 * np.eye(4)])),
                               (np.array([[1.0, 0, 0, 0], [0, 0, 0, 0]]), np.zeros((2, 4, 4))))


@pytest.mark.parametrize("dim", [4, 8])
def test_pruned_rho_with_rank_one_differences(dim):
    # ||D||_2 equals ||D||_F for D = u v^T, and LAPACK's rounded value lands
    # above the rounded Frobenius norm on about a third of them: two equal
    # nodes per row make the upper bound of the exact value's own node decide
    rng = np.random.default_rng(dim)
    u, v = rng.normal(size=(2, 300, dim))
    rank_one = np.repeat((u[:, :, None] * v[:, None, :])[:, None], 2, axis=1)
    values = np.zeros((300, 2, dim))
    _assert_pruned_rho_matches((values[0], np.zeros((2, dim, dim))), (values, rank_one))
    _assert_pruned_rho_matches((values[0] + 1e-3, rank_one[0]), (values, -rank_one))


def test_pruned_rho_with_differences_that_overflow():
    values = np.array([[1e308, 0, 0, 0], [0.0, 0, 0, 0]])
    jacobians = np.stack([np.full((4, 4), 1e308), np.eye(4)])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        _assert_pruned_rho_matches((values, jacobians), (-values, -jacobians))
        per_node = np.stack([np.eye(4), 2 * np.eye(4)])  # only |f-g| overflows
        _assert_pruned_rho_matches((values, per_node), (-values, jacobians[1:]))
        _assert_pruned_rho_matches((values[::-1], jacobians), (-values, -jacobians))


@pytest.mark.parametrize("level", [2, 3])
def test_distances_of_mixed_constant_and_per_node_features(level):
    # constant Jacobians are broadcast to one per node next to per-node ones
    rng = np.random.default_rng(40 + level)
    kinds = ("affine", "swirl", "affine", "word", "lambda", "affine")
    fs = [_family(rng, kinds[k % len(kinds)], level) for k in range(12)]
    grid = CompactGrid(cd(rng.normal(size=1 << level) * 0.1), 0.7, 16 if level == 3 else 40)
    feats = [_features(f, grid.nodes(), grid.step) for f in fs]
    full = [(v, np.broadcast_to(j, (len(v),) + j.shape[1:])) for v, j in feats]
    pairwise = np.zeros((12, 12))
    for i, j in itertools.combinations(range(12), 2):
        pairwise[i, j] = pairwise[j, i] = _full_svd_rho(full[i], full[j])
        _assert_pruned_rho_matches(feats[i], feats[j])
    assert _distances(feats).tobytes() == pairwise.tobytes()


# sha256 of the outputs below, computed with the unpruned lattice and SVDs
GATE_SHA256 = "8a4eec542467363d30cea4f5b1325765d387ffc531666bc4449a55b33fcae8ea"


def _translated(f, t, level):
    if isinstance(f, AffineMap):
        return AffineMap(f.a, f.b, f.c + cd(t))
    if isinstance(f, MoebiusWord):
        return compose(f, MoebiusWord([Shift(cd(t))], level))
    return lambda z: f(z) + cd(t)


def _gate_outputs():
    """Seeded families whose members are one map plus converging, diverging,
    scattered (with a planted cluster) or doubling translations, at levels 2
    and 3: the grid nodes, distances, verdict and one rho of each."""
    out = []
    for level, kind, pattern in itertools.product(
            (2, 3), ("affine", "word", "lambda"), ("converge", "diverge", "scatter", "apart")):
        rng = np.random.default_rng([level, len(kind), len(pattern)])
        dim = 1 << level
        base = _family(rng, kind, level)
        u = rng.normal(size=dim)
        u /= np.linalg.norm(u)
        ts = {"converge": [0.3 * 2.0 ** -k * u for k in range(12)],
              "diverge": [10.0 ** ((k + 1) / 2.0) * u for k in range(12)],
              "scatter": list(rng.normal(size=(12, dim))),
              "apart": [0.01 * 2.0 ** k * u for k in range(12)]}[pattern]
        if pattern == "scatter":
            for k in (3, 5, 8):
                ts[k] = ts[0] + 1e-5 * rng.normal(size=dim)
        fs = [_translated(base, t, level) for t in ts]
        if kind == "lambda":  # per-point evaluation: small grids
            resolution = 16 if level == 2 else 17
        else:
            resolution = 200 if level == 2 else 256
        grid = CompactGrid(cd(rng.normal(size=dim) * 0.1), float(rng.uniform(0.3, 0.9)),
                           resolution)
        feats = [_features(f, grid.nodes(), grid.step) for f in fs]
        tol = 1e-2 if pattern == "converge" else 1e-3
        verdict = classify_sequence(fs, grid, tol, divergence_threshold=1e5).to_json()
        out += [grid.nodes().tobytes(), _distances(feats).tobytes(),
                json.dumps(verdict, sort_keys=True).encode(),
                np.float64(rho(fs[0], fs[-1], grid).value).tobytes()]
    return out


def test_seeded_families_keep_their_bytes():
    digest = hashlib.sha256(b"".join(_gate_outputs())).hexdigest()
    assert digest == GATE_SHA256
