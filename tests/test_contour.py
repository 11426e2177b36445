import itertools
import json
import math
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdconf import cli, contour
from cdconf import phrase as ph
from cdconf.algebra import CdNumber, cd, inv, ln_principal, mul
from cdconf.calculus import finite_value
from cdconf.contour import (
    MAX_PARTITION_SEGMENTS,
    MaxPrincipleResult,
    PlanarLoop,
    PlanarPath,
    PlaneRect,
    count_zeros,
    disc_samples,
    line_integral,
    locate_zeros,
    max_principle_check,
    rouche_equal,
    winding,
)
from cdconf.errors import (
    BoundaryZeroError,
    CdconfError,
    DegenerateLoopError,
    DimensionError,
    DivisionByZeroError,
    DomainError,
    EvaluationError,
    PreconditionError,
    QuadratureError,
)
from cdconf.moebius import Inv, MoebiusWord, MulQ, Shift, apply_word
from cdconf.normal import AffineMap
from cdconf.suites import rand_cd, rand_imag_unit, random_phrase, random_word


I1 = CdNumber.basis(1, 2)
I2 = CdNumber.basis(2, 2)
ZERO = CdNumber.zero(2)


@pytest.fixture
def rng():
    return np.random.default_rng(99)


@pytest.fixture
def unit_loop():
    return PlanarLoop.circle(ZERO, I1, radius=1.0, n=64)


# ---------------------------------------------------------------------------
# loops
# ---------------------------------------------------------------------------

def test_loop_validation():
    with pytest.raises(DomainError):
        PlanarLoop(ZERO, I1, [[0, 0], [1, 0], [0, 1]])  # too few, not closed
    with pytest.raises(DomainError):
        PlanarLoop.circle(ZERO, CdNumber.one(2))  # directing not imaginary
    loop = PlanarLoop.circle(ZERO, I1, n=16)
    assert loop.closed and len(loop.pts) == 17


def test_loop_json_roundtrip(unit_loop):
    again = PlanarLoop.from_json(unit_loop.to_json())
    assert np.allclose(again.pts, unit_loop.pts)
    assert again.a0 == unit_loop.a0 and again.m == unit_loop.m


def test_refined_keeps_geometry(unit_loop):
    fine = unit_loop.refined()
    assert len(fine.pts) == 2 * len(unit_loop.pts) - 1
    assert np.allclose(fine.pts[0::2], unit_loop.pts)


# ---------------------------------------------------------------------------
# line integral
# ---------------------------------------------------------------------------

def test_integral_of_constant_is_endpoint_difference():
    seg = PlanarPath.segment(ZERO, I1, (0.2, -0.3), (1.0, 0.8), n=16)
    val = line_integral(ph.parse("e"), seg)
    want = seg.point(len(seg.pts) - 1) - seg.point(0)
    assert (val - want).norm() <= 1e-12


def test_integral_of_z_closed_loop(unit_loop):
    assert line_integral(ph.parse("z"), unit_loop).norm() <= 1e-8


def test_integral_endpoint_formula(rng):
    a, b = cd(rng.normal(size=4)), cd(rng.normal(size=4))
    nu = ph.const(a) * ph.z() * ph.const(b)
    mu = nu.antiderive()
    seg = PlanarPath.segment(ZERO, I1, (-0.5, 0.2), (0.7, 0.9), n=16)
    val = line_integral(nu, seg)
    z0, z1 = seg.point(0), seg.point(len(seg.pts) - 1)
    want = ph.eval_phrase(mu, z1) - ph.eval_phrase(mu, z0)
    assert (val - want).norm() <= 1e-8


def test_integral_closed_random_phrases(rng):
    for _ in range(5):
        a, b = cd(rng.normal(size=4)), cd(rng.normal(size=4))
        nu = ph.const(a) * ph.z(2) * ph.const(b) * ph.z(3)
        loop = PlanarLoop.circle(ZERO, I1, center=(0.2, -0.1), radius=0.8, n=32)
        assert line_integral(nu, loop).norm() <= 1e-8


def test_integral_respects_branch(rng):
    a, b, c = (cd(rng.normal(size=4)) for _ in range(3))
    nu = ph.const(a) * ph.z() * ph.const(b) * ph.z() * ph.const(c)
    seg = PlanarPath.segment(ZERO, I2, (0.0, 0.1), (0.5, 0.6), n=16)
    z0, z1 = seg.point(0), seg.point(len(seg.pts) - 1)
    for side in ("left", "right"):
        mu = nu.antiderive(side)
        val = line_integral(nu, seg, side=side)
        want = ph.eval_phrase(mu, z1) - ph.eval_phrase(mu, z0)
        assert (val - want).norm() <= 1e-8


def test_integral_nonconvergence_error():
    seg = PlanarPath.segment(ZERO, I1, (0.0, 0.0), (1.0, 0.0), n=2)
    with pytest.raises(QuadratureError) as err:
        line_integral(ph.parse("z^17"), seg, refine=0.0, max_levels=1)
    assert err.value.estimates is not None


def test_nonconvergence_reports_the_last_two_estimates():
    seg = PlanarPath.segment(ZERO, I1, (0.0, 0.0), (1.0, 0.0), n=2)
    nu = ph.parse("z^17")
    with pytest.raises(QuadratureError) as err:
        line_integral(nu, seg, refine=0.0, max_levels=2)
    sums = contour._partition_sums(ph.hat_operator(nu), [seg.refined(), seg.refined().refined()],
                                   contour._GAUSS_RULES[7])
    assert [e.coeffs.tobytes() for e in err.value.estimates] == [s.tobytes() for s in sums]
    assert err.value.estimates[0] != err.value.estimates[1]


def test_integral_partition_stays_bounded():
    # refine 0 never converges: on this off-axis segment successive estimates
    # differ by rounding, so the partition stops at MAX_PARTITION_SEGMENTS
    seg = PlanarPath.segment(ZERO, I1, (0.0, 0.0), (1.6, 0.8), n=16)
    tracemalloc.start()
    try:
        with pytest.raises(QuadratureError) as err:
            line_integral(ph.parse("z^2"), seg, refine=0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(isinstance(e, CdNumber) for e in err.value.estimates)
    assert peak < 64 * 2 ** 20


def test_integral_refuses_to_refine_past_the_segment_bound():
    seg = PlanarPath.segment(ZERO, I1, (0.0, 0.0), (1.0, 0.0), n=MAX_PARTITION_SEGMENTS)
    with pytest.raises(QuadratureError) as err:
        line_integral(ph.parse("z"), seg, refine=0.0)
    first, last = err.value.estimates
    assert first == last  # the one partition built, nothing finer


def _kernel_calls(monkeypatch):
    """Shapes of the points of every phrase evaluation from now on."""
    shapes, evaluate = [], ph.eval_phrase

    def spy(phrase, z, h=None):
        shapes.append(np.shape(z))
        return evaluate(phrase, z, h)

    monkeypatch.setattr(ph, "eval_phrase", spy)
    return shapes


@pytest.mark.parametrize("n", range(1, 9))
def test_n_gauss_nodes_integrate_degree_2n_minus_1_exactly(n, monkeypatch):
    rng = np.random.default_rng(n)
    a, b, c = (ph.const(cd(rng.normal(size=4))) for _ in range(3))
    nu = a * ph.z(2 * n - 1) * b + (ph.z(n) * c * ph.z(n - 1) if n > 1 else ph.z() * c)
    assert nu.max_degree() == 2 * n - 1
    seg = PlanarPath.segment(ZERO, I2, (-0.6, 0.3), (0.5, -0.4), n=1)
    mu = nu.antiderive()
    want = (ph.eval_phrase(mu, seg.point(1)) - ph.eval_phrase(mu, seg.point(0))).coeffs
    one, = contour._partition_sums(ph.hat_operator(nu), [seg], contour._GAUSS_RULES[n - 1])
    assert len(contour._GAUSS_RULES[n - 1][0]) == n
    assert np.linalg.norm(one - want) <= 1e-13
    shapes = _kernel_calls(monkeypatch)
    val = line_integral(nu, seg, refine=1.0)
    assert shapes == [(3, n, 4)]  # the segment and its two halves, n nodes each
    assert np.linalg.norm(val.coeffs - want) <= 1e-13


def test_a_degree_past_the_8_node_rule_still_refines(monkeypatch):
    nu = ph.parse("z^24")
    seg = PlanarPath.segment(ZERO, I1, (0.0, 0.0), (1.2, 0.4), n=1)
    mu = nu.antiderive()
    want = ph.eval_phrase(mu, seg.point(1)) - ph.eval_phrase(mu, seg.point(0))
    shapes = _kernel_calls(monkeypatch)
    val = line_integral(nu, seg, refine=1e-9)
    # the 8-node rule is off by 7e-4 on one segment and 8e-8 on two
    assert shapes == [(3, 8, 4), (4, 8, 4), (8, 8, 4)]
    assert (val - want).norm() <= 1e-9


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), level=st.sampled_from([2, 3]),
       degree=st.integers(1, 17), nseg=st.integers(1, 40))
def test_batched_levels_equal_the_per_level_sums(seed, level, degree, nseg):
    rng = np.random.default_rng(seed)
    kernel = ph.hat_operator(random_phrase(rng, level=level, max_words=2, max_degree=degree))
    rule = contour._GAUSS_RULES[min(kernel.max_degree() // 2, 7)]
    pts = rng.uniform(-1.0, 1.0, size=(nseg + 1, 2))
    path = PlanarPath(CdNumber.zero(level), rand_imag_unit(rng, level), pts)
    batched = contour._partition_sums(kernel, [path, path.refined()], rule)
    apart = [contour._partition_sums(kernel, [p], rule)[0] for p in (path, path.refined())]
    assert [s.tobytes() for s in batched] == [s.tobytes() for s in apart]


def test_two_exact_estimates_of_z3_agree_bit_for_bit():
    seg = PlanarPath.segment(ZERO, I1, (0.0, 0.0), (1.0, 0.0), n=2)
    val = line_integral(ph.parse("z^3"), seg, refine=0.0, max_levels=1)
    assert val.coeffs.tolist() == [0.25, 0.0, 0.0, 0.0]


# ---------------------------------------------------------------------------
# winding
# ---------------------------------------------------------------------------

def test_winding_center_and_outside(unit_loop):
    res = winding(unit_loop, ZERO)
    assert res.turns == 1
    assert abs(res.raw_phase - 2 * math.pi) <= 1e-9
    assert winding(unit_loop, CdNumber.real(3.0, 2)).turns == 0


def test_winding_reversed_loop(unit_loop):
    rev = PlanarLoop(ZERO, I1, unit_loop.pts[::-1])
    assert winding(rev, ZERO).turns == -1


def test_winding_figure_eight():
    th = np.linspace(0, 2 * math.pi, 129)
    pts = np.column_stack([np.cos(th), np.sin(th) * np.cos(th)])
    pts[-1] = pts[0]
    loop = PlanarLoop(ZERO, I1, pts)
    probe = I1 * 0.3  # inside one lobe... lobes wind oppositely around it
    assert winding(loop, probe).turns == 0


def test_winding_phase_lift_oracle():
    # dense sampling: accumulated phase equals the analytic total
    th = np.linspace(0, 2 * math.pi, 10_001)
    pts = np.column_stack([np.cos(3 * th), np.sin(3 * th)])
    pts[-1] = pts[0]
    loop = PlanarLoop(ZERO, I2, pts)
    res = winding(loop, ZERO)
    assert res.turns == 3
    assert abs(res.raw_phase - 6 * math.pi) <= 1e-6


def test_winding_point_on_curve(unit_loop):
    with pytest.raises(DegenerateLoopError):
        winding(unit_loop, CdNumber.real(1.0, 2))


def test_winding_off_plane(unit_loop):
    with pytest.raises(DomainError):
        winding(unit_loop, I2 * 0.5)


# ---------------------------------------------------------------------------
# count_zeros / argument principle
# ---------------------------------------------------------------------------

def test_count_simple_zero(rng, unit_loop):
    c_, d_ = cd(rng.normal(size=4)), cd(rng.normal(size=4))
    za = CdNumber.real(0.2, 2) + I1 * 0.3
    f = lambda z: mul(mul(c_, z - za), d_)
    assert count_zeros(f, unit_loop) == 1


def test_count_double_zero(unit_loop):
    za = CdNumber.real(-0.1, 2) + I1 * 0.2
    f = lambda z: mul(z - za, z - za)
    assert count_zeros(f, unit_loop) == 2


def test_count_no_zeros(rng, unit_loop):
    c_ = cd(rng.normal(size=4))
    f = lambda z: mul(c_, z - CdNumber.real(5.0, 2))
    assert count_zeros(f, unit_loop) == 0


def test_count_boundary_zero_raises(unit_loop):
    f = lambda z: z - CdNumber.real(1.0, 2)
    with pytest.raises(BoundaryZeroError):
        count_zeros(f, unit_loop)


def test_count_octonion_plane():
    m = CdNumber.basis(5, 3)
    loop = PlanarLoop.circle(CdNumber.zero(3), m, radius=1.0, n=64)
    za = CdNumber.real(0.3, 3) + m * (-0.2)
    f = lambda z: mul(z - za, z - za)
    assert count_zeros(f, loop) == 2


def test_count_lets_a_map_type_error_through(unit_loop):
    # the map is defined on the loop only, so it fails first at a frame
    # point of the orientation step; the failure is the map's, not a
    # degenerate frame
    def on_loop_only(z):
        if abs(z.norm() - 1.0) > 1e-9:
            raise TypeError("off the loop")
        return z

    with pytest.raises(TypeError, match="off the loop"):
        count_zeros(on_loop_only, unit_loop)


def test_moebius_word_winding_matches_prediction(rng):
    # in-plane words restricted to C_M act as complex Moebius maps whose
    # zero/pole positions are tracked by a complex oracle
    for _ in range(10):
        gens = []
        zc = complex(rng.normal(), rng.normal()) * 0.3

        def to_plane(w):
            return CdNumber.real(w.real, 2) + I1 * w.imag

        cur = zc
        # word: shift then invert then shift, all in the plane
        s1 = complex(rng.normal(), rng.normal())
        s2 = complex(rng.normal(), rng.normal())
        word = [Shift(to_plane(s1)), Inv(), Shift(to_plane(s2))]
        f = lambda z: apply_word(MoebiusWord(word, 2), z)
        # complex oracle for f(z) = 1/(z + s1) + s2: zeros of f
        # f(z) = (1 + s2 (z + s1)) / (z + s1): zero at z = -s1 - 1/s2
        zero_at = -s1 - 1 / s2
        pole_at = -s1
        loop = PlanarLoop.circle(ZERO, I1, radius=1.0, n=128)
        if abs(abs(zero_at) - 1) < 0.1 or abs(abs(pole_at) - 1) < 0.1:
            continue
        want = (1 if abs(zero_at) < 1 else 0) - (1 if abs(pole_at) < 1 else 0)
        got = count_zeros(f, loop)
        assert got == want


# ---------------------------------------------------------------------------
# Rouche
# ---------------------------------------------------------------------------

def test_rouche_pole_on_the_loop_is_an_evaluation_error():
    loop = PlanarLoop.circle(ZERO, I1, radius=1.0, n=16)
    f = MoebiusWord([Shift(CdNumber.real(-1.0, 2)), Inv()], 2)
    with pytest.raises(EvaluationError) as err:
        rouche_equal(f, lambda z: z, loop)
    assert err.value.point == CdNumber.one(2)


def test_rouche_examples(unit_loop):
    res = rouche_equal(lambda z: CdNumber.real(0.1, 2), lambda z: z, unit_loop)
    assert res.holds and res.n_g == 1 and res.n_h == 1
    loop2 = PlanarLoop.circle(ZERO, I2, radius=1.0, n=64)
    res = rouche_equal(lambda z: z * 0.1, lambda z: mul(z, z), loop2)
    assert res.holds and res.n_g == 2 and res.n_h == 2


def test_rouche_precondition(unit_loop):
    with pytest.raises(PreconditionError) as err:
        rouche_equal(lambda z: CdNumber.real(3.0, 2), lambda z: z, unit_loop)
    assert err.value.witness is not None


# ---------------------------------------------------------------------------
# maximum principle
# ---------------------------------------------------------------------------

def test_max_principle_constant(rng, unit_loop):
    f = lambda z: cd([2.0, 1.0, 0, 0])
    samples = disc_samples((0, 0), 0.9, 100, rng)
    res = max_principle_check(f, unit_loop, samples)
    assert res.holds
    assert res.sup_interior == pytest.approx(res.sup_boundary)


def test_max_principle_identity(rng, unit_loop):
    samples = disc_samples((0, 0), 0.95, 1000, rng)
    res = max_principle_check(lambda z: z, unit_loop, samples)
    assert res.holds


def test_max_principle_pole_reported(rng, unit_loop):
    pole = CdNumber.real(0.5, 2)

    def f(z):
        return inv(z - pole)

    samples = [pole] + disc_samples((0, 0), 0.9, 10, rng)
    with pytest.raises(PreconditionError):
        max_principle_check(f, unit_loop, samples)


def test_max_principle_violation_witness(rng, unit_loop):
    # a map peaking strictly inside must be flagged
    f = lambda z: CdNumber.real(1.0 / (0.01 + z.norm2()), 2)
    samples = disc_samples((0, 0), 0.9, 200, rng)
    res = max_principle_check(f, unit_loop, samples)
    assert not res.holds
    assert res.witness is not None


def _reference_max_principle(f, gamma, samples, tol=1e-9):
    """The check one map call at a time."""
    def modulus(z):
        try:
            w = f(z)
        except Exception as exc:
            raise PreconditionError(f"map not evaluable: {exc}", witness=z) from exc
        if not isinstance(w, CdNumber) or not np.all(np.isfinite(w.coeffs)):
            raise PreconditionError("non-finite value (pole?) at a sample", witness=z)
        return w.norm()

    sup_boundary = max(modulus(CdNumber(row)) for row in gamma.embedded()[:-1])
    sup_interior, worst = 0.0, None
    for z in samples:
        v = modulus(z)
        if v > sup_interior:
            sup_interior, worst = v, z
    holds = sup_interior <= sup_boundary + tol
    return MaxPrincipleResult(holds, sup_interior, sup_boundary, None if holds else worst)


def _point_key(z, samples):
    """A sample by its identity, any other point by its bytes."""
    if z is None:
        return None
    for k, s in enumerate(samples):
        if z is s:
            return ("sample", k)
    return ("point", z.coeffs.tobytes())


def _outcome(check, f, gamma, samples):
    """The result as bytes with its witness, or the PreconditionError's
    message and witness, with every warning an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            res = check(f, gamma, samples)
        except PreconditionError as err:
            return ("raised", str(err), _point_key(err.witness, samples))
    assert type(res.sup_interior) is float and type(res.sup_boundary) is float
    return (res.holds, struct.pack("<dd", res.sup_interior, res.sup_boundary),
            _point_key(res.witness, samples))


def _assert_matches_reference(f, gamma, samples):
    want = _outcome(_reference_max_principle, f, gamma, samples)
    assert _outcome(max_principle_check, f, gamma, samples) == want
    return want


def _random_disc(rng, level):
    m = rand_imag_unit(rng, level)
    a0 = rand_cd(rng, level, 0.3)
    radius = float(rng.uniform(0.3, 1.5))
    loop = PlanarLoop.circle(a0, m, radius=radius, n=int(rng.integers(16, 80)))
    # samples reach past the loop too, so some checks fail with a witness
    samples = disc_samples((0.0, 0.0), 1.3 * radius, int(rng.integers(0, 60)), rng,
                           a0=a0, m=m)
    return loop, samples


def _random_map(rng, kind, level):
    if kind == "word":
        return random_word(rng, level, n_gens=int(rng.integers(1, 6)))
    a, b, c = (rand_cd(rng, level) for _ in range(3))
    if kind == "affine":
        return AffineMap(a, b, c)
    if kind == "phrase":
        a, b, c = (ph.const(x) for x in (a, b, c))
        return (a * ph.z()) * (ph.z() * b) + ph.zc() * c
    return lambda z: mul(mul(a, z), mul(z, b)) + c


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(["word", "affine", "lambda", "phrase"]),
       level=st.sampled_from([2, 3]), seed=st.integers(0, 2 ** 32 - 1))
def test_max_principle_batched_equals_per_point(kind, level, seed):
    rng = np.random.default_rng(seed)
    loop, samples = _random_disc(rng, level)
    _assert_matches_reference(_random_map(rng, kind, level), loop, samples)


@pytest.mark.parametrize("level", [2, 3])
@pytest.mark.parametrize("where", ["vertex", "sample", "nowhere", "through-infinity"])
def test_max_principle_poles_keep_the_per_point_error(level, where):
    rng = np.random.default_rng(7 + level)
    loop, samples = _random_disc(rng, level)
    samples = samples or disc_samples((0.0, 0.0), 0.5, 5, rng, a0=loop.a0, m=loop.m)
    pole = {"vertex": loop.point(5), "sample": samples[len(samples) // 2],
            "nowhere": loop.a0 + rand_cd(rng, level, 10.0),
            "through-infinity": samples[-1]}[where]
    c = rand_cd(rng, level)
    # through-infinity: pole -> 0 -> INF -> 0 is finite point by point, NaN in a batch
    inversions = [Inv(), Inv()] if where == "through-infinity" else [Inv()]
    word = MoebiusWord([Shift(-pole), *inversions, Shift(c)], level)
    got = _assert_matches_reference(word, loop, samples)
    assert (got[0] == "raised") == (where in ("vertex", "sample"))
    if where == "sample":
        assert got[2] == ("sample", len(samples) // 2)
    plain = _assert_matches_reference(lambda z: inv(z - pole) + c, loop, samples)
    assert (plain[0] == "raised") == (where in ("vertex", "sample", "through-infinity"))


class _Counted:
    """A map with a batched form that counts its calls; the batch may raise."""

    def __init__(self, f, batch_error=None):
        self.f, self.batch_error = f, batch_error
        self.calls = self.batches = 0

    def __call__(self, z):
        self.calls += 1
        return self.f(z)

    def apply_many(self, pts):
        self.batches += 1
        if self.batch_error is not None:
            raise self.batch_error
        return self.f.apply_many(pts)


def test_max_principle_evaluates_a_word_in_one_batch():
    rng = np.random.default_rng(3)
    loop, samples = _random_disc(rng, 3)
    f = _Counted(random_word(rng, 3, n_gens=4))
    _assert_matches_reference(f, loop, samples)
    calls = f.calls  # the reference's
    assert f.batches == 1 and calls == len(loop.pts) - 1 + len(samples)
    max_principle_check(f, loop, samples)
    assert f.batches == 2 and f.calls == calls


@pytest.mark.parametrize("error", [RuntimeError("batch failed"), ValueError("bad shape"),
                                   PreconditionError("refused"), DomainError("refused")])
def test_max_principle_falls_back_when_the_batch_raises(error):
    rng = np.random.default_rng(4)
    loop, samples = _random_disc(rng, 2)
    f = _Counted(random_word(rng, 2, n_gens=3), batch_error=error)
    _assert_matches_reference(f, loop, samples)
    assert f.batches == 1 and f.calls == 2 * (len(loop.pts) - 1 + len(samples))


def _reference_disc_samples(loop_center, radius, n, rng, a0, m):
    r = radius * np.sqrt(rng.uniform(0.0, 1.0, size=n))
    th = rng.uniform(0.0, 2.0 * math.pi, size=n)
    xs = loop_center[0] + r * np.cos(th)
    ys = loop_center[1] + r * np.sin(th)
    return [a0 + CdNumber.real(float(x), a0.level) + m * float(y) for x, y in zip(xs, ys)]


@settings(max_examples=150, deadline=None)
@given(level=st.sampled_from([2, 3]), signed_zeros=st.booleans(), tiny=st.booleans(),
       n=st.integers(0, 200), seed=st.integers(0, 2 ** 32 - 1))
def test_disc_samples_equal_the_per_point_sum(level, signed_zeros, tiny, n, seed):
    rng = np.random.default_rng(seed)
    a0 = rand_cd(rng, level, 0.5).coeffs
    if signed_zeros:  # -0.0 + 0.0 is +0.0 in the per-point sum
        a0 = np.where(rng.random(a0.shape) < 0.5, -0.0, a0)
    if tiny:
        a0 = a0 * 1e-300
    a0, m = CdNumber(a0), rand_imag_unit(rng, level)
    center = (0.0, 0.0) if tiny else tuple(rng.normal(size=2))
    radius = float(rng.uniform(1e-3, 2.0))
    got = disc_samples(center, radius, n, np.random.default_rng(seed), a0=a0, m=m)
    want = _reference_disc_samples(center, radius, n, np.random.default_rng(seed), a0, m)
    assert [z.coeffs.tobytes() for z in got] == [z.coeffs.tobytes() for z in want]


def test_disc_samples_default_plane_and_level_mismatch(rng):
    got = disc_samples((0.1, -0.2), 0.5, 20, np.random.default_rng(5), level=3)
    want = _reference_disc_samples((0.1, -0.2), 0.5, 20, np.random.default_rng(5),
                                   CdNumber.zero(3), CdNumber.basis(1, 3))
    assert [z.coeffs.tobytes() for z in got] == [z.coeffs.tobytes() for z in want]
    with pytest.raises(DimensionError, match="level mismatch: 3 vs 2"):
        disc_samples((0, 0), 1.0, 3, rng, a0=CdNumber.zero(3), m=I1)


@pytest.mark.parametrize("level", [2, 3])
def test_disc_samples_default_plane_follows_a0(level):
    # without m, M is i_1 at the level of a0, not at the default level 2
    a0 = CdNumber.real(0.25, level)
    got = disc_samples((0.1, -0.2), 0.5, 20, np.random.default_rng(5), a0=a0)
    want = _reference_disc_samples((0.1, -0.2), 0.5, 20, np.random.default_rng(5),
                                   a0, CdNumber.basis(1, level))
    assert [z.coeffs.tobytes() for z in got] == [z.coeffs.tobytes() for z in want]


# ---------------------------------------------------------------------------
# zero localization
# ---------------------------------------------------------------------------

def test_locate_two_simple_zeros():
    f = lambda z: mul(z, z - CdNumber.real(1.0, 2))
    rect = PlaneRect(ZERO, I1, -0.5, 1.5, -0.8, 0.9)
    found = locate_zeros(f, rect, min_cell=0.02)
    assert sorted(order for _, order in found) == [1, 1]
    centers = sorted(pt.coeffs[0] for pt, _ in found)
    assert abs(centers[0] - 0.0) <= 0.02
    assert abs(centers[1] - 1.0) <= 0.02


def test_locate_double_zero():
    f = lambda z: mul(z, z)
    rect = PlaneRect(ZERO, I1, -0.6, 0.7, -0.55, 0.65)
    found = locate_zeros(f, rect, min_cell=0.02)
    assert len(found) == 1
    assert found[0][1] == 2


def test_locate_empty():
    f = lambda z: z - CdNumber.real(9.0, 2)
    rect = PlaneRect(ZERO, I1, -1, 1, -1, 1)
    assert locate_zeros(f, rect, min_cell=0.1) == []


def test_subdivision_conserves_order():
    # total order is conserved across every split by construction; verify
    # through the recursion on a two-zero configuration
    za = CdNumber.real(0.31, 2) + I1 * 0.17
    zb = CdNumber.real(-0.43, 2) + I1 * (-0.29)
    f = lambda z: mul(mul(z - za, z - za), z - zb)
    rect = PlaneRect(ZERO, I1, -1, 1.1, -1, 1.05)
    found = locate_zeros(f, rect, min_cell=0.05)
    assert sum(order for _, order in found) == 3


def test_locating_zeros_stops_at_the_cell_budget(monkeypatch):
    zeros = [CdNumber.real(x, 2) + I1 * y for x, y in ((0.5, 0.1), (-0.4, 0.3), (0.1, -0.6))]
    calls, count = [], contour.count_zeros

    def f(z):
        return mul(mul(z - zeros[0], z - zeros[1]), z - zeros[2])

    def counted(*args, **kwargs):
        calls.append(args)
        return count(*args, **kwargs)

    monkeypatch.setattr(contour, "count_zeros", counted)
    rect = PlaneRect(ZERO, I1, -1, 1.1, -1, 1.05)
    found = locate_zeros(f, rect, min_cell=1e-3)
    assert [order for _, order in found] == [1, 1, 1]
    assert len(calls) < contour.MAX_ZERO_CELLS // 16
    monkeypatch.setattr(contour, "MAX_ZERO_CELLS", len(calls) - 1)
    calls.clear()
    with pytest.raises(DomainError, match="more than"):
        locate_zeros(f, rect, min_cell=1e-3)
    assert len(calls) == contour.MAX_ZERO_CELLS


def test_homotopy_invariance(rng):
    # two loops around the same zero, deformable into one another inside
    # the annulus, count the same zeros
    za = CdNumber.real(0.1, 2) + I1 * 0.05
    f = lambda z: mul(z - za, z - za)
    small = PlanarLoop.circle(ZERO, I1, radius=0.6, n=48)
    th = np.linspace(0, 2 * math.pi, 65)
    wobble = 0.8 + 0.1 * np.sin(5 * th)
    pts = np.column_stack([wobble * np.cos(th), wobble * np.sin(th)])
    pts[-1] = pts[0]
    big = PlanarLoop(ZERO, I1, pts)
    assert count_zeros(f, small) == count_zeros(f, big) == 2


# ---------------------------------------------------------------------------
# the batched argument principle: the bits of the per-point path
# ---------------------------------------------------------------------------

def _reference_adaptive_image(f, loop, boundary_tol, max_rounds=14):
    """_adaptive_image one point at a time, as it was before the batching."""
    pts = [np.asarray(p, float) for p in loop.pts]

    def value(xy):
        z = loop.a0 + CdNumber.real(float(xy[0]), loop.level) + loop.m * float(xy[1])
        w = finite_value(f, z, contour._NOT_EVALUABLE)
        if w.norm() <= boundary_tol:
            raise BoundaryZeroError("|f| fell below tolerance on the contour")
        return w

    vals = [value(p) for p in pts]
    for _ in range(max_rounds):
        new_pts, new_vals = [pts[0]], [vals[0]]
        split = False
        for k in range(len(pts) - 1):
            va, vb = vals[k], vals[k + 1]
            cosang = np.dot(va.coeffs, vb.coeffs) / (va.norm() * vb.norm())
            if cosang < math.cos(contour.PHASE_STEP_LIMIT):
                mid = (pts[k] + pts[k + 1]) / 2.0
                new_pts.append(mid)
                new_vals.append(value(mid))
                split = True
            new_pts.append(pts[k + 1])
            new_vals.append(vals[k + 1])
        pts, vals = new_pts, new_vals
        if not split:
            return vals
    raise BoundaryZeroError(
        "image phase keeps aliasing after refinement; "
        "a zero lies on or next to the contour")


def _reference_phase_sum(vals, level):
    """The phase loop of count_zeros, one step at a time."""
    acc = np.zeros(1 << level)
    for va, vb in zip(vals[:-1], vals[1:]):
        acc += ln_principal(mul(inv(va), vb)).coeffs
    return acc


def _reference_image_direction(f, loop):
    """_image_direction one point at a time, each value under finite_value."""
    lvl = loop.level
    scale = max(loop.length() / max(len(loop.pts) - 1, 1), 1e-6)
    step = 1e-4 * scale

    def fv(z):
        return finite_value(f, z, contour._NOT_EVALUABLE)

    for k in range(0, len(loop.pts) - 1, max(1, (len(loop.pts) - 1) // 8)):
        z0 = _vertex(loop, k)
        try:
            e1 = (fv(z0 + CdNumber.real(step, lvl)) - fv(z0 - CdNumber.real(step, lvl))) * (0.5 / step)
            e2 = (fv(z0 + loop.m * step) - fv(z0 - loop.m * step)) * (0.5 / step)
        except (CdconfError, ArithmeticError):
            continue
        if e1.norm() < 1e-12 or e2.norm() < 1e-12:
            continue
        u = mul(inv(e1), e2).imag()
        if u.norm() > 1e-8:
            return u * (1.0 / u.norm())
    raise EvaluationError("could not orient the image curve (degenerate frame)")


def _reference_count_zeros(f, gamma, boundary_tol=1e-9):
    vals = _reference_adaptive_image(f, gamma, boundary_tol)
    total = CdNumber(_reference_phase_sum(vals, gamma.level))
    u = _reference_image_direction(f, gamma)
    signed = float(np.dot(total.coeffs, u.coeffs)) / (2.0 * math.pi)
    n = round(signed)
    if abs(signed - n) > 0.25:
        raise EvaluationError(
            f"accumulated phase {signed:.3f} turns is not close to an integer")
    return n


def _reference_rouche_check(f, g, gamma):
    """rouche_equal's boundary check one point at a time."""
    for k in range(len(gamma.pts) - 1):
        zl = _vertex(gamma, k)
        fv = finite_value(f, zl, contour._NOT_EVALUABLE)
        gv = finite_value(g, zl, contour._NOT_EVALUABLE)
        if not (fv.norm() < gv.norm()):
            raise PreconditionError(
                f"|f| >= |g| on the contour ({fv.norm():.3e} >= {gv.norm():.3e})",
                witness=zl,
            )


def _bits(x):
    if isinstance(x, CdNumber):
        return ("number", x.coeffs.tobytes())
    if isinstance(x, list):
        return ("numbers", [z.coeffs.tobytes() for z in x])
    if isinstance(x, np.ndarray):
        return ("numbers", [row.tobytes() for row in x])
    return ("value", x)


def _result(call, *args):
    """What a call returns, as bytes, or the class, message and point or
    witness of what it raises; every warning is an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return _bits(call(*args))
        except Exception as err:  # noqa: BLE001 - the exception is the outcome
            where = getattr(err, "point", getattr(err, "witness", None))
            return ("raised", type(err), str(err), where and _bits(where))


def _spin_map(kind, level, centers):
    """A map vanishing at each of the centers, as a lambda or a phrase."""
    if kind == "lambda":
        def f(z):
            out = z - centers[0]
            for c in centers[1:]:
                out = mul(out, z - c)
            return out
        return f
    out = ph.z() - ph.const(centers[0]) * ph.e()
    for c in centers[1:]:
        out = out * (ph.z() - ph.const(c) * ph.e())
    return out


def _zero_loop(rng, level, signed_zeros):
    """A loop of few segments in the plane a0 + R + R M, and points near its
    center.  On request a0 has -0.0 entries and M is a generator, so that
    M y adds exact zeros to them: -0.0 + 0.0 is +0.0 in the per-point sum."""
    a0 = rand_cd(rng, level, 0.3).coeffs
    if signed_zeros:
        a0 = np.where(rng.random(a0.shape) < 0.5, -0.0, a0)
        m = CdNumber.basis(int(rng.integers(1, 1 << level)), level)
    else:
        m = rand_imag_unit(rng, level)
    a0 = CdNumber(a0)
    center = tuple(rng.normal(size=2) * 0.3)
    loop = PlanarLoop.circle(a0, m, center=center, radius=float(rng.uniform(0.3, 1.5)),
                             n=int(rng.integers(16, 48)))
    near = [a0 + CdNumber.real(center[0] + x, level) + m * (center[1] + y)
            for x, y in rng.uniform(-0.25, 0.25, size=(int(rng.integers(1, 5)), 2))]
    return loop, near


def _argument_principle_map(rng, kind, level, near):
    if kind in ("spin-lambda", "spin-phrase"):
        return _spin_map(kind[5:], level, near)
    return _random_map(rng, kind, level)


def _assert_argument_principle_matches(f, loop, boundary_tol=1e-9):
    """_adaptive_image, the phase sum, _image_direction and count_zeros all
    have the per-point bits and errors; returns the reference count."""
    want = _result(_reference_adaptive_image, f, loop, boundary_tol)
    assert _result(contour._adaptive_image, f, loop, boundary_tol) == want
    if want[0] == "numbers":
        vals = contour._adaptive_image(f, loop, boundary_tol)
        ref_vals = [CdNumber(row) for row in vals]
        assert (contour._phase_sum(vals).tobytes()
                == _reference_phase_sum(ref_vals, loop.level).tobytes())
    assert (_result(contour._image_direction, f, loop)
            == _result(_reference_image_direction, f, loop))
    count = _result(_reference_count_zeros, f, loop, boundary_tol)
    assert _result(count_zeros, f, loop, boundary_tol) == count
    return want, count


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(["word", "affine", "lambda", "phrase", "spin-lambda",
                             "spin-phrase"]),
       level=st.sampled_from([2, 3]), signed_zeros=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_argument_principle_batched_equals_per_point(kind, level, signed_zeros, seed):
    rng = np.random.default_rng(seed)
    loop, near = _zero_loop(rng, level, signed_zeros)
    _assert_argument_principle_matches(_argument_principle_map(rng, kind, level, near), loop)


def test_argument_principle_on_seeded_loops_refines_and_counts():
    # four zeros inside a loop of 16 to 47 segments turn the image by up
    # to pi/2 a step, so most loops refine, some in several rounds
    counts = {}
    for seed in range(60):
        rng = np.random.default_rng(seed)
        level = 2 + seed % 2
        loop, near = _zero_loop(rng, level, signed_zeros=seed % 3 == 0)
        kind = ("spin-lambda", "spin-phrase", "word", "affine", "phrase")[seed % 5]
        f = _argument_principle_map(rng, kind, level, near)
        want, count = _assert_argument_principle_matches(f, loop)
        if want[0] == "numbers":
            refined = len(want[1]) > len(loop.pts)
            counts[refined, count] = counts.get((refined, count), 0) + 1
    assert sum(n for (refined, _), n in counts.items() if refined) >= 10
    assert sum(n for (_, c), n in counts.items() if c[0] == "value" and c[1] >= 2) >= 5


def _rounds(f, loop):
    """The refinement rounds that split a step, from the per-point path:
    it succeeds with max_rounds = rounds + 1 and no fewer."""
    for max_rounds in itertools.count(1):
        try:
            _reference_adaptive_image(f, loop, 1e-9, max_rounds)
        except BoundaryZeroError:
            continue
        return max_rounds - 1


class _CountingWord(MoebiusWord):
    """A Moebius word that logs its point and batch calls."""

    def __init__(self, generators, level):
        super().__init__(generators, level)
        object.__setattr__(self, "log", [])

    def __call__(self, z):
        self.log.append(("point", z.coeffs.tobytes()))
        return super().__call__(z)

    def apply_many(self, pts):
        self.log.append(("batch", len(pts)))
        return super().apply_many(pts)


@pytest.mark.parametrize("level", [2, 3])
def test_count_zeros_takes_one_batch_per_round(level):
    # a pole just inside the loop makes the image spin past a vertex
    rng = np.random.default_rng(40 + level)
    loop, _ = _zero_loop(rng, level, signed_zeros=True)
    (cx, cy), (x, y) = loop.pts[:-1].mean(axis=0), loop.pts[2]
    pole = loop.a0 + CdNumber.real(cx + 0.97 * (x - cx), level) + loop.m * (cy + 0.97 * (y - cy))
    word = [Shift(-pole), Inv(), Shift(rand_cd(rng, level, 0.1))]
    f = _CountingWord(word, level)
    rounds = _rounds(MoebiusWord(word, level), loop)
    assert rounds >= 2
    want = _reference_count_zeros(MoebiusWord(word, level), loop)
    assert count_zeros(f, loop) == want
    kinds = [k for k, _ in f.log]
    # the vertices, the midpoints of each round, and one frame of four points
    assert kinds == ["batch"] * (1 + rounds + 1)
    assert f.log[0][1] == len(loop.pts) and f.log[-1][1] == 4


@pytest.mark.parametrize("level", [2, 3])
def test_a_plain_map_is_called_at_the_per_point_points_in_order(level):
    # a triple zero inside 16 segments turns the image by 3 pi / 8 a step
    rng = np.random.default_rng(50 + level)
    loop, near = _zero_loop(rng, level, signed_zeros=True)
    loop = PlanarLoop.circle(loop.a0, loop.m, center=tuple(loop.pts[:-1].mean(axis=0)),
                             radius=1.0, n=16)
    spin = _spin_map("lambda", level, near[:1] * 3)
    calls = []

    def f(z):
        calls.append(z.coeffs.tobytes())
        return spin(z)

    want = _reference_count_zeros(f, loop)
    reference_calls, calls[:] = list(calls), []
    assert count_zeros(f, loop) == want
    assert calls == reference_calls and len(calls) > len(loop.pts) + 4


def _vertex(loop, k):
    x, y = loop.pts[k]
    return loop.a0 + CdNumber.real(float(x), loop.level) + loop.m * float(y)


@pytest.mark.parametrize("level", [2, 3])
def test_a_pole_on_the_loop_keeps_its_error(level):
    rng = np.random.default_rng(60 + level)
    loop, _ = _zero_loop(rng, level, signed_zeros=True)
    pole, c = _vertex(loop, 5), rand_cd(rng, level)
    word = MoebiusWord([Shift(-pole), Inv(), Shift(c)], level)
    at_pole = (EvaluationError, contour._NOT_EVALUABLE, ("number", pole.coeffs.tobytes()))
    for f, want in ((word, at_pole), (_Counted(word), at_pole),
                    (lambda z: inv(z - pole) + c, (DivisionByZeroError, "inverse of zero", None))):
        _, count = _assert_argument_principle_matches(f, loop)
        assert count[1:] == want


@pytest.mark.parametrize("level", [2, 3])
@pytest.mark.parametrize("zero_first", [True, False])
def test_a_boundary_zero_before_a_later_pole_raises_first(level, zero_first):
    # (z - b)^-1 - (a - b)^-1 vanishes at a and has its pole at b
    rng = np.random.default_rng(70 + level)
    loop, _ = _zero_loop(rng, level, signed_zeros=True)
    a, b = (_vertex(loop, 3), _vertex(loop, 9))[::1 if zero_first else -1]
    word = MoebiusWord([Shift(-b), Inv(), Shift(-inv(a - b))], level)
    want = ((BoundaryZeroError, contour._BOUNDARY_ZERO, None) if zero_first else
            (EvaluationError, contour._NOT_EVALUABLE, ("number", b.coeffs.tobytes())))
    for f in (word, _Counted(word), lambda z: word(z)):
        _, count = _assert_argument_principle_matches(f, loop)
        assert count[1:] == want


@pytest.mark.parametrize("level", [2, 3])
@pytest.mark.parametrize("error", [RuntimeError("batch failed"), ValueError("bad shape"),
                                   EvaluationError("refused"), DomainError("refused")])
def test_a_raising_batch_falls_back_to_the_per_point_path(level, error):
    rng = np.random.default_rng(80 + level)
    loop, near = _zero_loop(rng, level, signed_zeros=False)
    word = MoebiusWord([Shift(-near[0]), Inv(), Shift(rand_cd(rng, level))], level)
    f = _Counted(word, batch_error=error)
    _assert_argument_principle_matches(f, loop)
    assert f.batches > 0 and f.calls > 0


@pytest.mark.parametrize("level", [2, 3])
def test_rouche_violation_and_pole_keep_their_witness(level):
    rng = np.random.default_rng(90 + level)
    loop, _ = _zero_loop(rng, level, signed_zeros=True)
    rows = loop.embedded()
    big = AffineMap(CdNumber.one(level), CdNumber.one(level), rand_cd(rng, level, 3.0))
    g = AffineMap(rand_cd(rng, level), rand_cd(rng, level), rand_cd(rng, level))
    pole = MoebiusWord([Shift(-CdNumber(rows[4])), Inv()], level)
    for f, h in ((big, g), (big, _Counted(g)), (g, pole),
                 (_Counted(g), pole), (pole, g)):
        want = _result(_reference_rouche_check, f, h, loop)
        assert want[0] == "raised"
        assert _result(rouche_equal, f, h, loop) == want


def test_a_pole_at_a_frame_point_skips_the_frame(tmp_path, capsys):
    # the loop keeps clear of the pole, which sits at a point of the first
    # frame, z0 + M step or z0 - step: that frame is skipped like any frame
    # where the map is not evaluable, and the next one orients the image
    pts = ([(0.0, 0.0)] + [(0.001 * k, 0.0) for k in range(1, 15)]
           + [(10.0, 0.0), (10.0, -10.0), (0.0, -10.0)]
           + [(0.0, -0.001 * k) for k in range(14, 0, -1)] + [(0.0, 0.0)])
    loop = PlanarLoop(ZERO, I1, pts)
    step = 1e-4 * loop.length() / (len(pts) - 1)
    for shift in (I1 * step, CdNumber.real(-step, 2)):
        word = MoebiusWord([Shift(-(loop.point(0) + shift)), Inv()], 2)
        for f in (word, _Counted(word), lambda z: word(z)):
            direction = _result(_reference_image_direction, f, loop)
            assert direction[0] == "number"
            assert _result(contour._image_direction, f, loop) == direction
            assert _result(count_zeros, f, loop) == _result(_reference_count_zeros, f, loop)
            assert count_zeros(f, loop) == 0
        calls = []
        for count in (_reference_count_zeros, count_zeros):
            log = []
            count(lambda z: log.append(z.coeffs.tobytes()) or word(z), loop)
            calls.append(log)
        assert calls[0] == calls[1]
        # f + g meets the same pole in the same frame, and skips it too
        assert rouche_equal(ph.parse("0.001 e"), word, loop) == contour.RoucheResult(True, 0, 0)
        spec = {"kind": "moebius", "word": word.to_json(), "level": 2}
        for payload, want in (({"op": "zeros", "map": spec}, {"count": 0}),
                              ({"op": "rouche", "f": {"kind": "phrase", "text": "0.001 e"},
                                "g": spec}, {"holds": True, "n_g": 0, "n_h": 0})):
            request = tmp_path / "request.json"
            request.write_text(json.dumps({**payload, "loop": loop.to_json()}))
            assert cli.main(["contour", "--json", str(request)]) == 0
            assert json.loads(capsys.readouterr().out) == want


@settings(max_examples=100, deadline=None)
@given(level=st.sampled_from([2, 3]), seed=st.integers(0, 2 ** 32 - 1))
def test_embedded_rows_are_the_per_point_sums(level, seed):
    # a0 has -0.0 entries and M is a generator, so M y adds signed zeros
    loop, _ = _zero_loop(np.random.default_rng(seed), level, signed_zeros=True)
    rows = loop.embedded()
    assert [row.tobytes() for row in rows] == [
        _vertex(loop, k).coeffs.tobytes() for k in range(len(loop.pts))]
    path = PlanarPath.segment(loop.a0, loop.m, (0.5, -1.0), (-0.5, 1.0), 7)
    assert [row.tobytes() for row in path.embedded()] == [
        _vertex(path, k).coeffs.tobytes() for k in range(len(path.pts))]


def test_a_negative_zero_of_a0_meets_a_positive_zero():
    # -0.0 + 0.0 is +0.0, as in the per-point sum, whatever the sign of M y
    loop = PlanarLoop.circle(CdNumber([-0.0] * 4), I1, radius=1.0, n=16)
    rows = loop.embedded()
    assert not np.any(np.signbit(rows[:, 2:]))


@pytest.mark.parametrize("kind", ["word", "lambda"])
def test_a_sample_at_another_level_is_refused_before_any_evaluation(kind, unit_loop):
    if kind == "word":
        f = _CountingWord([Shift(I1), Inv()], 2)
        calls = f.log
    else:
        calls = []
        f = lambda z: calls.append(z) or z
    with pytest.raises(DimensionError, match="loop's level"):
        max_principle_check(f, unit_loop, [CdNumber.zero(2), CdNumber.basis(5, 3)])
    assert calls == []


@pytest.mark.parametrize("level", [2, 3])
@pytest.mark.parametrize("k, want", [(0, (DivisionByZeroError, "inverse of zero")),
                                     (6, (DomainError, "logarithm of zero"))])
def test_a_zero_on_the_loop_under_a_negative_tolerance_keeps_its_error(level, k, want):
    # no boundary test can fire, so the zero reaches the phase sum: the
    # step into vertex k takes the log of 0, the step out of it inverts 0
    rng = np.random.default_rng(100 + level)
    loop, _ = _zero_loop(rng, level, signed_zeros=True)
    f = MoebiusWord([Shift(-_vertex(loop, k))], level)
    errors = []
    for count in (_reference_count_zeros, count_zeros):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # 0 / 0 in the step test
            with pytest.raises(CdconfError) as err:
                count(f, loop, -1.0)
        errors.append((type(err.value), str(err.value)))
    assert errors[0] == errors[1] == want
