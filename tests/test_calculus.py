import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdconf import phrase as ph
from cdconf.algebra import CdNumber, cd, exp, inv, mul
from cdconf.calculus import (
    OctGivensFactorization,
    RealJacobian,
    dzbar_norm,
    factor_octonion_givens,
    factor_quaternion,
    givens_matrix,
    is_pseudoconformal_at,
    jacobian,
    left_mul_matrix,
    right_mul_matrix,
)
from cdconf.errors import (
    EvaluationError,
    NonproperRotationError,
    NotSimilarityError,
)
from cdconf.moebius import Inv, MoebiusWord, MulQ, RotO, Shift


@pytest.fixture
def rng():
    return np.random.default_rng(77)


def rand_unit(rng, level):
    v = rng.normal(size=1 << level)
    return cd(v / np.linalg.norm(v))


# ---------------------------------------------------------------------------
# jacobian
# ---------------------------------------------------------------------------

def test_jacobian_identity():
    j = jacobian(lambda z: z, cd([0.3, -0.2, 0.1, 0.9]))
    assert np.abs(j.entries - np.eye(4)).max() <= 1e-10


def test_jacobian_left_multiplication():
    i1 = CdNumber.basis(1, 2)
    j = jacobian(lambda z: mul(i1, z), CdNumber.zero(2))
    # the columns are the products of i1 with each generator
    oracle = np.column_stack([mul(i1, CdNumber.basis(k, 2)).coeffs for k in range(4)])
    assert np.abs(j.entries - oracle).max() <= 1e-12
    assert np.abs(j.entries - left_mul_matrix(i1)).max() <= 1e-12


def test_jacobian_conjugation():
    j = jacobian(lambda z: z.conj(), cd([1, 1, 1, 1]))
    assert np.abs(j.entries - np.diag([1.0, -1, -1, -1])).max() <= 1e-10


def test_jacobian_nonfinite_reports_point():
    def nan_map(z):
        return CdNumber([math.nan, 0, 0, 0])

    with pytest.raises(EvaluationError) as err:
        jacobian(nan_map, CdNumber.zero(2))
    assert err.value.point is not None


def _pointwise_jacobian(f, z, step):
    cols = np.empty((z.dim, z.dim))
    for k in range(z.dim):
        e = CdNumber.basis(k, z.level) * step
        cols[:, k] = (f(z + e).coeffs - f(z - e).coeffs) / (2.0 * step)
    return cols


@settings(max_examples=60)
@given(seed=st.integers(0, 2 ** 32 - 1), level=st.sampled_from([2, 3]),
       kind=st.sampled_from(["word", "phrase"]))
def test_batched_word_jacobian_equals_the_per_point_loop(seed, level, kind):
    rng = np.random.default_rng(seed)
    dim = 1 << level
    mid = (MulQ(cd(rng.normal(size=4)), cd(rng.normal(size=4))) if level == 2 else
           RotO(((0, 3, float(rng.uniform(-3, 3))), (2, 6, float(rng.uniform(-3, 3))))))
    w = MoebiusWord([Shift(cd(rng.normal(size=dim))), Inv(), mid,
                     Shift(cd(rng.normal(size=dim)))], level)
    if kind == "phrase":
        a, b = (ph.const(cd(rng.normal(size=dim))) for _ in range(2))
        w = (a * ph.z(2)) * (ph.zc() * b) + ph.z(3) * a
    z = cd(rng.normal(size=dim))
    step = float(10.0 ** rng.uniform(-6, -3))
    assert jacobian(w, z, step).entries.tobytes() == _pointwise_jacobian(w, z, step).tobytes()


def test_batched_jacobian_names_a_pole_on_the_stencil():
    pole = CdNumber.basis(2, 2) * 1e-5
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EvaluationError, match="non-finite sample in jacobian") as err:
            jacobian(MoebiusWord([Shift(-pole), Inv()], 2), CdNumber.zero(2), 1e-5)
    assert err.value.point == pole


def test_fd_matches_analytic_sandwich(rng):
    # |numeric - exact| <= 10 step^2 for f = a z b across steps
    a, b = rand_unit(rng, 2), rand_unit(rng, 2)
    exact = left_mul_matrix(a) @ right_mul_matrix(b)
    for step in (1e-3, 1e-4, 1e-5):
        j = jacobian(lambda z: mul(mul(a, z), b), cd([0.2, 0.1, 0, 0]), step)
        assert np.abs(j.entries - exact).max() <= 10.0 * step * step


def test_fd_second_order_on_cubic(rng):
    z0 = cd(rng.normal(size=4) * 0.5)

    def f(z):
        return mul(mul(z, z), z)

    def exact_op(h):
        return mul(mul(z0, z0), h) + mul(mul(z0, h), z0) + mul(mul(h, z0), z0)

    exact = np.column_stack([exact_op(CdNumber.basis(k, 2)).coeffs for k in range(4)])
    errs = []
    for step in (1e-3, 1e-4):
        j = jacobian(f, z0, step)
        err = np.abs(j.entries - exact).max()
        errs.append(err)
        assert err <= 10.0 * step * step
    assert errs[0] / errs[1] > 30.0  # second-order convergence


# ---------------------------------------------------------------------------
# conjugated (dz-bar) part
# ---------------------------------------------------------------------------

def test_dzbar_norm_identity():
    assert dzbar_norm(RealJacobian(2, np.eye(4))) == 0.0


def test_dzbar_norm_conjugation():
    c = RealJacobian(2, np.diag([1.0, -1, -1, -1]))
    assert dzbar_norm(c) == 1.0
    v = is_pseudoconformal_at(c, CdNumber.zero(2))
    assert v.status == "AntiholomorphicPart"
    assert v.residual == dzbar_norm(c)


def test_dzbar_norm_sandwich_vanishes(rng):
    a, b = rand_unit(rng, 2), rand_unit(rng, 2)
    j = jacobian(lambda z: mul(mul(a, z), b), cd([0.1, 0.2, -0.1, 0.3]), 1e-4)
    assert dzbar_norm(j) < 1e-7


# ---------------------------------------------------------------------------
# pseudoconformality verdicts
# ---------------------------------------------------------------------------

def test_shift_is_pseudoconformal():
    c = cd([1, 2, 3, 4])
    v = is_pseudoconformal_at(lambda z: z + c, cd([0.3, 0, 0, 0]))
    assert v.status == "Pseudoconformal"
    assert v.lam == pytest.approx(1.0, abs=1e-9)


def test_conjugation_is_antiholomorphic():
    v = is_pseudoconformal_at(lambda z: z.conj(), cd([0.5, 0, 0, 0]))
    assert v.status == "AntiholomorphicPart"


def test_inversion_dilation():
    z0 = CdNumber.real(1, 2) + CdNumber.basis(1, 2)
    v = is_pseudoconformal_at(lambda z: inv(z), z0)
    assert v.status == "Pseudoconformal"
    assert v.lam == pytest.approx(1.0 / z0.norm2(), rel=1e-8)


def test_constant_map_zero_derivative():
    v = is_pseudoconformal_at(lambda z: cd([1, 0, 0, 0]), cd([0.3, 0.1, 0, 0]))
    assert v.status == "ZeroDerivative"


def test_generic_linear_map_not_similarity():
    v = is_pseudoconformal_at(lambda z: cd(np.diag([1, 2, 3, 4.0]) @ z.coeffs),
                              CdNumber.zero(2))
    assert v.status == "NotSimilarity"


def test_exp_at_real_points_passes():
    for x in (-0.5, 0.0, 0.7):
        v = is_pseudoconformal_at(lambda z: exp(z), CdNumber.real(x, 2))
        assert v.status == "Pseudoconformal"
        assert v.lam == pytest.approx(math.exp(x), rel=1e-7)


def test_exp_off_axis_fails_literal_similarity():
    # At (pi/2) i1 the derivative operator stretches the 1 direction by 1
    # and the i2 direction by 2/pi: the literal similarity test must say no.
    z0 = CdNumber.basis(1, 2) * (math.pi / 2)
    v = is_pseudoconformal_at(lambda z: exp(z), z0, tol=1e-3)
    assert v.status == "NotSimilarity"
    assert v.residual > 0.1


def test_square_at_negative_real():
    v = is_pseudoconformal_at(lambda z: mul(z, z), CdNumber.real(-0.7, 2))
    assert v.status == "Pseudoconformal"
    assert v.lam == pytest.approx(1.4, rel=1e-7)


def test_verdict_json():
    v = is_pseudoconformal_at(lambda z: z, CdNumber.zero(2))
    obj = v.to_json()
    assert obj["status"] == "Pseudoconformal"
    assert obj["lambda"] == pytest.approx(1.0, abs=1e-9)
    assert "residual" in obj


# ---------------------------------------------------------------------------
# quaternion factorization
# ---------------------------------------------------------------------------

def test_factor_identity():
    f = factor_quaternion(RealJacobian(2, np.eye(4)))
    assert f.a == CdNumber.one(2)
    assert f.b == CdNumber.one(2)
    assert f.lam == pytest.approx(1.0)


def test_factor_generator_sandwich():
    i1, i2 = CdNumber.basis(1, 2), CdNumber.basis(2, 2)
    j = RealJacobian(2, left_mul_matrix(i1) @ right_mul_matrix(i2))
    f = factor_quaternion(j)
    # (a, b) = (i1, i2) up to a simultaneous sign flip
    assert min((f.a - i1).norm() + (f.b - i2).norm(),
               (f.a + i1).norm() + (f.b + i2).norm()) <= 1e-12
    assert f.lam == pytest.approx(1.0)


def test_factor_random_roundtrip(rng):
    for _ in range(100):
        a, b = rand_unit(rng, 2), rand_unit(rng, 2)
        lam = rng.uniform(0.1, 10.0)
        j = RealJacobian(2, lam * left_mul_matrix(a) @ right_mul_matrix(b))
        f = factor_quaternion(j)
        assert f.lam == pytest.approx(lam, rel=1e-10)
        assert np.linalg.norm(f.matrix() - j.entries, 2) <= 1e-7 * max(1.0, lam)
        assert f.a.re >= 0.0


def test_factor_kernel_is_sign_pair(rng):
    a, b = rand_unit(rng, 2), rand_unit(rng, 2)
    j1 = RealJacobian(2, left_mul_matrix(a) @ right_mul_matrix(b))
    j2 = RealJacobian(2, left_mul_matrix(-a) @ right_mul_matrix(-b))
    f1, f2 = factor_quaternion(j1), factor_quaternion(j2)
    assert (f1.a - f2.a).norm() <= 1e-12 and (f1.b - f2.b).norm() <= 1e-12
    # flipping only one side changes the map
    j3 = RealJacobian(2, left_mul_matrix(-a) @ right_mul_matrix(b))
    assert np.linalg.norm(j3.entries - j1.entries, 2) > 0.5


def test_factor_rejects_non_similarity():
    with pytest.raises(NotSimilarityError):
        factor_quaternion(RealJacobian(2, np.diag([1.0, 2, 3, 4])))


def test_factor_rejects_improper_rotation():
    with pytest.raises(NonproperRotationError):
        factor_quaternion(RealJacobian(2, np.diag([1.0, -1, 1, 1])))


def test_a_similarity_whose_square_underflows_is_refused_like_the_zero_operator():
    # ||J|| = 1e-170 is above tol, but tr(J^T J) = 4e-340 underflows to 0
    j = RealJacobian(2, 1e-170 * np.eye(4))
    for check in (lambda: is_pseudoconformal_at(j, CdNumber.zero(2), tol=1e-300),
                  lambda: factor_quaternion(j)):
        with pytest.raises(NotSimilarityError, match="zero operator is not a similarity"):
            check()


# ---------------------------------------------------------------------------
# octonion Givens factorization
# ---------------------------------------------------------------------------

def test_givens_closed_form_matches_matrix():
    # exp(t X_{k,m}) h = h + (cos t - 1)(h_k i_k + h_m i_m) + sin t (h_m i_k - h_k i_m)
    rng = np.random.default_rng(3)
    for _ in range(20):
        k, m = sorted(rng.choice(8, size=2, replace=False))
        t = rng.uniform(-3, 3)
        h = rng.normal(size=8)
        got = givens_matrix(int(k), int(m), t) @ h
        want = h.copy()
        want[k] += (math.cos(t) - 1.0) * h[k] + math.sin(t) * h[m]
        want[m] += (math.cos(t) - 1.0) * h[m] - math.sin(t) * h[k]
        assert np.allclose(got, want, atol=1e-13)


def test_givens_identity_empty():
    f = factor_octonion_givens(RealJacobian(3, np.eye(8)))
    assert f.lam == pytest.approx(1.0)
    assert f.angles == ()


def test_givens_single_plane():
    f = factor_octonion_givens(RealJacobian(3, givens_matrix(2, 5, 0.7)))
    assert len(f.angles) == 1
    k, m, t = f.angles[0]
    assert (k, m) == (2, 5)
    assert t == pytest.approx(0.7, abs=1e-10)


def test_givens_left_multiplication(rng):
    a = rand_unit(rng, 3)
    j = RealJacobian(3, left_mul_matrix(a))
    f = factor_octonion_givens(j)
    assert len(f.angles) <= 28
    assert np.linalg.norm(f.matrix() - j.entries, 2) <= 1e-8


def test_givens_random_similarity(rng):
    for _ in range(20):
        q, _ = np.linalg.qr(rng.normal(size=(8, 8)))
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        lam = rng.uniform(0.2, 4.0)
        j = RealJacobian(3, lam * q)
        f = factor_octonion_givens(j)
        assert len(f.angles) <= 28
        assert np.linalg.norm(f.matrix() - j.entries, 2) <= 1e-8 * max(1.0, lam)
        assert f.lam == pytest.approx(lam, rel=1e-10)


def test_givens_angle_order_is_lexicographic(rng):
    q, _ = np.linalg.qr(rng.normal(size=(8, 8)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    f = factor_octonion_givens(RealJacobian(3, q))
    pairs = [(k, m) for k, m, _ in f.angles]
    assert pairs == sorted(pairs)


def test_givens_rejects_improper():
    with pytest.raises(NonproperRotationError):
        factor_octonion_givens(RealJacobian(3, np.diag([-1.0, 1, 1, 1, 1, 1, 1, 1])))
