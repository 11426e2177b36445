import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest

from cdconf.algebra import CdNumber, cd
from cdconf.calculus import left_mul_matrix
from cdconf.errors import DomainError
from cdconf.normal import MAX_LATTICE_POINTS, AffineMap, CompactGrid, classify_sequence, rho


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
