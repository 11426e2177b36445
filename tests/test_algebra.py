import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cdconf.algebra import (
    ALGEBRA_TOL,
    CdNumber,
    PolarForm,
    _xor_rule,
    basis_product,
    cd,
    conj,
    exp,
    inv,
    leads_negative,
    ln_branch,
    ln_principal,
    mul,
    mul_coeffs,
    norm,
    polar,
    pow_real,
    proj,
    re,
    real_array,
    real_number,
    row_dots,
    row_norms,
)
from cdconf.errors import DimensionError, DivisionByZeroError, DomainError, IndexRangeError
from cdconf.moebius import Hypersphere
from cdconf.phrase import eval_phrase, parse


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def pair_double_mul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Brute-force product via the halving rule, independent of the table."""
    n = len(x)
    if n == 1:
        return x * y
    h = n // 2
    a, b = x[:h], x[h:]
    c, d = y[:h], y[h:]

    def cj(v):
        out = v.copy()
        out[1:] = -out[1:]
        return out if len(v) > 1 else v

    lo = pair_double_mul(a, c) - pair_double_mul(cj(d), b)
    hi = pair_double_mul(d, a) + pair_double_mul(b, cj(c))
    return np.concatenate([lo, hi])


@lru_cache(maxsize=None)
def dense_table(dim: int) -> np.ndarray:
    """(dim, dim, dim) tensor T with (x*y)_k = sum_ij T[i,j,k] x_i y_j."""
    table = np.zeros((dim, dim, dim))
    for i in range(dim):
        for j in range(dim):
            k, s = basis_product(dim, i, j)
            table[i, j, k] = s
    return table


def dense_mul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The product as a dense einsum over dense_table."""
    return np.einsum("ijk,...i,...j->...k", dense_table(x.shape[-1]), x, y)


def three_operand_mul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The kernel's earlier form: the gathered y and the signs as two einsum operands."""
    signs, index = _xor_rule(x.shape[-1])
    return np.einsum("...i,...ik,ik->...k", x, y.take(index, axis=-1), signs)


def series_exp(x: CdNumber, terms: int = 200) -> CdNumber:
    total = CdNumber.one(x.level)
    term = CdNumber.one(x.level)
    for k in range(1, terms):
        term = mul(term, x) * (1.0 / k)
        total = total + term
    return total


def quat(rng):
    return cd(rng.normal(size=4))


def octo(rng):
    return cd(rng.normal(size=8))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


# ---------------------------------------------------------------------------
# generator table
# ---------------------------------------------------------------------------

def test_generator_products_quaternion():
    i1, i2, i3 = (CdNumber.basis(k, 2) for k in (1, 2, 3))
    assert mul(i1, i2) == i3
    assert mul(i2, i1) == -i3
    assert mul(i1, i1) == CdNumber.real(-1.0, 2)
    for p in range(1, 4):
        ip = CdNumber.basis(p, 2)
        assert mul(ip, ip) == CdNumber.real(-1.0, 2)


def test_anticommutation_all_dims():
    for level in (2, 3, 4):
        dim = 1 << level
        for p in range(1, dim):
            for s in range(p + 1, dim):
                ip, i_s = CdNumber.basis(p, level), CdNumber.basis(s, level)
                assert mul(ip, i_s) == -mul(i_s, ip)


def test_table_matches_bruteforce_doubling(rng):
    for level in (2, 3, 4):
        dim = 1 << level
        for _ in range(50):
            x = rng.normal(size=dim)
            y = rng.normal(size=dim)
            got = mul(cd(x), cd(y)).coeffs
            want = pair_double_mul(x, y)
            assert np.allclose(got, want, atol=1e-12)


def test_octonion_table_vs_pair_formulas(rng):
    """The four quaternion-pair product identities, l = i_4."""
    for _ in range(1000):
        a, b = quat(rng), quat(rng)
        z0, zl = quat(rng), quat(rng)
        zero = np.zeros(4)
        av = cd(np.concatenate([a.coeffs, zero]))
        al = cd(np.concatenate([zero, a.coeffs]))
        bv = cd(np.concatenate([b.coeffs, zero]))
        bl = cd(np.concatenate([zero, b.coeffs]))
        z = cd(np.concatenate([z0.coeffs, zl.coeffs]))

        def emb(lo, hi):
            return np.concatenate([lo.coeffs, hi.coeffs])

        got = mul(mul(av, z), bv).coeffs
        want = emb(mul(mul(a, z0), b), mul(mul(zl, a), conj(b)))
        assert np.allclose(got, want, atol=1e-11)

        got = mul(mul(al, z), bl).coeffs
        want = emb(-mul(mul(conj(b), a), conj(z0)), -mul(mul(b, conj(zl)), a))
        assert np.allclose(got, want, atol=1e-11)

        got = mul(mul(av, z), bl).coeffs
        want = emb(-mul(mul(conj(b), zl), a), mul(mul(b, a), z0))
        assert np.allclose(got, want, atol=1e-11)

        got = mul(mul(al, z), bv).coeffs
        want = emb(-mul(mul(conj(zl), a), b), mul(mul(a, conj(z0)), conj(b)))
        assert np.allclose(got, want, atol=1e-11)


def test_generator_products_follow_the_xor_rule():
    for level in range(1, 7):
        dim = 1 << level
        for i in range(dim):
            for j in range(dim):
                assert basis_product(dim, i, j)[0] == i ^ j


def _coefficients(rng, shape, exponent):
    """Normal draws scaled by 10^e, e drawn per entry from [-exponent, exponent]."""
    return rng.normal(size=shape) * 10.0 ** rng.integers(-exponent, exponent + 1, size=shape)


def _layout(arr, how):
    if how == "fortran":
        return np.asfortranarray(arr)
    if how == "strided":  # every other entry of a wider buffer
        wide = np.zeros(arr.shape[:-1] + (2 * arr.shape[-1],))
        wide[..., ::2] = arr
        return wide[..., ::2]
    if how == "sliced" and arr.ndim > 1:  # every other row of a taller buffer
        return np.repeat(arr, 2, axis=0)[::2]
    return arr


@settings(max_examples=300, deadline=None)
@given(level=st.integers(1, 6), n_a=st.integers(1, 3), n_b=st.integers(1, 4),
       lead_x=st.sampled_from(["()", "(n,)", "(a, b)"]), lead_y=st.sampled_from(["(b,)", "(1,)"]),
       swap=st.booleans(), layouts=st.tuples(*[st.sampled_from(["c", "fortran", "strided", "sliced"])] * 2),
       exponent=st.integers(0, 8), seed=st.integers(0, 2 ** 32 - 1))
def test_mul_coeffs_equals_the_dense_oracle_bit_for_bit(level, n_a, n_b, lead_x, lead_y, swap,
                                                        layouts, exponent, seed):
    dim = 1 << level
    shape_x = {"()": (), "(n,)": (n_b,), "(a, b)": (n_a, n_b)}[lead_x] + (dim,)
    shape_y = {"(b,)": (n_b,), "(1,)": (1,)}[lead_y] + (dim,)
    if swap:
        shape_x, shape_y = shape_y, shape_x
    rng = np.random.default_rng(seed)
    x = _layout(_coefficients(rng, shape_x, exponent), layouts[0])
    y = _layout(_coefficients(rng, shape_y, exponent), layouts[1])
    got, want = mul_coeffs(x, y), dense_mul(x, y)
    assert got.shape == want.shape == np.broadcast_shapes(shape_x, shape_y)
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


def _with_specials(rng, arr, share):
    """arr with about a share of its entries replaced by +-0.0, +-inf or NaN."""
    hit = rng.random(arr.shape) < share
    arr[hit] = rng.choice([0.0, -0.0, math.inf, -math.inf, math.nan], size=int(hit.sum()))
    return arr


@settings(max_examples=300, deadline=None)
@given(level=st.integers(1, 6), segs=st.integers(1, 3), rows=st.integers(1, 40),
       form=st.sampled_from(["var*var", "const*var", "var*const"]),
       layout=st.sampled_from(["c", "stride-0", "read-only"]), swap=st.booleans(),
       share=st.sampled_from([0.0, 0.05, 0.3]), exponent=st.integers(0, 8),
       seed=st.integers(0, 2 ** 32 - 1))
def test_mul_coeffs_equals_the_three_operand_form_bit_for_bit(level, segs, rows, form, layout,
                                                               swap, share, exponent, seed):
    dim = 1 << level
    rng = np.random.default_rng(seed)
    a, b = (_with_specials(rng, _coefficients(rng, (segs, rows, dim), exponent), share)
            for _ in range(2))
    if layout == "stride-0":  # one row per segment, as _partition_sums passes h
        b = np.broadcast_to(b[:, :1, :], b.shape)
    if form == "const*var":
        a = a[0, 0]
    elif form == "var*const":
        b = b[0, 0]
    if layout == "read-only":  # as CompactGrid.nodes() hands them out
        a.flags.writeable = b.flags.writeable = False
    x, y = (b, a) if swap else (a, b)
    before = [v.tobytes() for v in (x, y)]
    with np.errstate(all="ignore"):  # inf - inf and 0 * inf are NaN in both forms
        got, want = mul_coeffs(x, y), three_operand_mul(x, y)
    assert got.shape == want.shape == np.broadcast_shapes(x.shape, y.shape)
    nan = np.isnan(want)  # a NaN's sign and payload are not compared
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()
    assert [v.tobytes() for v in (x, y)] == before
    signs, index = _xor_rule(dim)
    assert not signs.flags.writeable and not index.flags.writeable


@pytest.mark.parametrize("dim", [0, 3, 6, 128])
def test_the_kernel_refuses_a_dimension_before_building_a_table(dim):
    cached = basis_product.cache_info().currsize, _xor_rule.cache_info().currsize
    with pytest.raises(DimensionError):
        mul_coeffs(np.ones(dim), np.ones(dim))
    with pytest.raises(DimensionError):
        eval_phrase(parse("z^2"), np.ones(dim))
    assert (basis_product.cache_info().currsize, _xor_rule.cache_info().currsize) == cached


def test_a_number_on_a_strided_view_has_one_norm_rule():
    rng = np.random.default_rng(7)
    big = _coefficients(rng, (400, 16), 8)
    for row in big[:, ::2]:  # every other coefficient of a wider buffer
        x = CdNumber(row)
        assert np.array_equal(x.coeffs, row)
        assert x.norm2() == row_dots(row, row)
        assert x.norm() == math.sqrt(x.norm2()) == row_norms(row)


@settings(max_examples=200, deadline=None)
@given(level=st.integers(2, 6), rows=st.integers(1, 40), lead=st.sampled_from(["(n,)", "(a, n)"]),
       layout=st.sampled_from(["c", "fortran", "strided", "sliced"]),
       scale=st.sampled_from([1e-150, 1e-75, 1e-8, 1.0, 1e8, 1e75, 1e150]),
       exponent=st.integers(0, 8), seed=st.integers(0, 2 ** 32 - 1))
def test_row_norms_equal_cdnumber_norm_bit_for_bit(level, rows, lead, layout, scale, exponent,
                                                   seed):
    dim = 1 << level
    shape = (rows, dim) if lead == "(n,)" else (2, rows, dim)
    rng = np.random.default_rng(seed)
    x = _layout(_coefficients(rng, shape, exponent) * scale, layout)
    with np.errstate(over="ignore"):  # 1e150 * 1e8 squares past the largest double
        got = row_norms(x)
        want = np.array([CdNumber(row).norm() for row in x.reshape(-1, dim)]).reshape(shape[:-1])
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@settings(max_examples=200, deadline=None)
@given(level=st.integers(2, 6), rows=st.integers(1, 300), lead=st.sampled_from(["(n,)", "(a, n)"]),
       layouts=st.tuples(*[st.sampled_from(["c", "fortran", "strided", "sliced"])] * 2),
       exponent=st.integers(0, 8), seed=st.integers(0, 2 ** 32 - 1))
def test_row_dots_equal_np_dot_bit_for_bit(level, rows, lead, layouts, exponent, seed):
    dim = 1 << level
    shape = (rows, dim) if lead == "(n,)" else (2, rows, dim)
    rng = np.random.default_rng(seed)
    x = _layout(_coefficients(rng, shape, exponent), layouts[0])
    y = _layout(_coefficients(rng, shape, exponent), layouts[1])
    got = row_dots(x, y)
    # each pair as CdNumbers hold it: two contiguous rows
    rows_x, rows_y = (np.ascontiguousarray(v).reshape(-1, dim) for v in (x, y))
    want = np.array([np.dot(CdNumber(a).coeffs, CdNumber(b).coeffs)
                     for a, b in zip(rows_x, rows_y)])
    assert got.shape == shape[:-1]
    assert got.tobytes() == want.reshape(shape[:-1]).tobytes()


def test_row_norms_warn_where_the_norm_overflows():
    x = np.array([[1e200, 0, 0, 0], [1.0, 0, 0, 0]])
    with pytest.warns(RuntimeWarning, match="overflow"):
        want = CdNumber(x[0]).norm()
    with pytest.warns(RuntimeWarning, match="overflow"):
        got = row_norms(x)
    assert got[0] == want == math.inf
    assert got[1] == 1.0


def test_non_finite_products_stay_non_finite():
    # an inf or NaN input, or an overflow, may leave some coefficients
    # finite; one that is not is what makes the CLI refuse the result
    cases = [([math.inf, 1, 0, 0], [1, 0, 1, 0]),
             ([1, 0, 0, 0], [0, -math.inf, 0, 0]),
             ([math.nan, 0, 0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 1, 0, 0]),
             ([1e200, 1, 0, 0], [1e200, 0, 1, 0])]
    for x, y in cases:
        assert not np.all(np.isfinite(mul_coeffs(np.array(x, float), np.array(y, float))))


def test_mul_level_mismatch():
    with pytest.raises(DimensionError):
        mul(CdNumber.one(2), CdNumber.one(3))


# ---------------------------------------------------------------------------
# ring / norm / conjugation laws
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-10, 10), min_size=16, max_size=16))
def test_octonion_alternativity(vals):
    x = cd(vals[:8])
    y = cd(vals[8:])
    lhs = mul(x, mul(x, y))
    rhs = mul(mul(x, x), y)
    scale = max(1.0, x.norm() ** 2 * y.norm())
    assert (lhs - rhs).norm() <= ALGEBRA_TOL * scale
    lhs = mul(mul(y, x), x)
    rhs = mul(y, mul(x, x))
    assert (lhs - rhs).norm() <= ALGEBRA_TOL * scale


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-10, 10), min_size=16, max_size=16))
def test_norm_multiplicative_h_and_o(vals):
    for level, lo, hi in ((2, 0, 8), (3, 0, 16)):
        dim = 1 << level
        x, y = cd(vals[:dim]), cd(vals[-dim:])
        err = abs(norm(mul(x, y)) - norm(x) * norm(y))
        assert err <= ALGEBRA_TOL * max(1.0, norm(x) * norm(y))


def test_conjugation_antihomomorphism(rng):
    for level in (2, 3, 4, 5, 6):
        dim = 1 << level
        for _ in range(20):
            x, y = cd(rng.normal(size=dim)), cd(rng.normal(size=dim))
            lhs = conj(mul(x, y))
            rhs = mul(conj(y), conj(x))
            assert (lhs - rhs).norm() <= 1e-11 * max(1.0, x.norm() * y.norm())


def test_high_level_ring_axioms_only(rng):
    # sedenions and up keep x conj(x) = |x|^2 but lose norm multiplicativity
    for level in (4, 5, 6):
        dim = 1 << level
        x = cd(rng.normal(size=dim))
        prod = mul(x, conj(x))
        assert abs(prod.re - x.norm2()) <= 1e-10 * x.norm2()
        assert prod.imag().norm() <= 1e-10 * x.norm2()
        y = cd(rng.normal(size=dim))
        z = cd(rng.normal(size=dim))
        lhs = mul(x, y + z)
        rhs = mul(x, y) + mul(x, z)
        assert (lhs - rhs).norm() <= 1e-11 * max(1.0, x.norm() * (y + z).norm())
    # zero divisors exist at level 4: norm multiplicativity genuinely fails
    s = CdNumber.basis(3, 4) + CdNumber.basis(10, 4)
    t = CdNumber.basis(6, 4) - CdNumber.basis(15, 4)
    assert norm(mul(s, t)) < 1e-12 < norm(s) * norm(t)


# ---------------------------------------------------------------------------
# conj / re / norm / inv
# ---------------------------------------------------------------------------

def test_conj_and_inv_examples():
    x = cd([1, 2, 0, 0])
    assert conj(x) == cd([1, -2, 0, 0])
    i1 = CdNumber.basis(1, 2)
    assert inv(i1) == -i1
    assert re(cd([3, 2, 1, 0])) == 3.0


def test_inv_random_octonion(rng):
    for _ in range(200):
        x = octo(rng)
        if x.norm() < 1e-3:
            continue
        err = (mul(x, inv(x)) - CdNumber.one(3)).norm()
        assert err <= 1e-12 * max(1.0, 1.0 / x.norm())


def test_inv_zero_raises():
    with pytest.raises(DivisionByZeroError):
        inv(CdNumber.zero(2))


# ---------------------------------------------------------------------------
# projections
# ---------------------------------------------------------------------------

def test_proj_examples():
    h = cd([3, 2, 0, 0])
    assert proj(0, h) == pytest.approx(3.0, abs=1e-13)
    assert proj(1, h) == pytest.approx(2.0, abs=1e-13)


def test_proj_vs_lookup(rng):
    for level in (2, 3):
        dim = 1 << level
        for _ in range(25):
            h = cd(rng.normal(size=dim))
            for j in range(dim):
                assert proj(j, h) == pytest.approx(h.coeffs[j], abs=1e-13)


def test_proj_out_of_range():
    with pytest.raises(IndexRangeError):
        proj(4, CdNumber.one(2))


# ---------------------------------------------------------------------------
# exp / ln / pow / polar
# ---------------------------------------------------------------------------

def test_exp_zero_and_pi():
    assert exp(CdNumber.zero(2)) == CdNumber.one(2)
    val = exp(CdNumber.basis(1, 2) * math.pi)
    assert (val - CdNumber.real(-1.0, 2)).norm() <= 1e-12


def test_exp_vs_series(rng):
    for level in (2, 3):
        for _ in range(20):
            x = cd(rng.normal(size=1 << level))
            assert (exp(x) - series_exp(x)).norm() <= 1e-11 * math.exp(x.norm())


def test_exp_addition_commuting_directions(rng):
    # exp(xi) exp(eta) = exp(xi + eta) whenever Im(xi) = beta Im(eta)
    for _ in range(50):
        eta = quat(rng)
        beta = rng.normal()
        xi = CdNumber.real(rng.normal(), 2) + eta.imag() * beta
        lhs = mul(exp(xi), exp(eta))
        rhs = exp(xi + eta)
        assert (lhs - rhs).norm() <= 1e-10 * math.exp(xi.norm() + eta.norm())


def test_ln_principal_negative_real():
    val = ln_principal(CdNumber.real(-1.0, 2))
    assert (val - CdNumber.basis(1, 2) * math.pi).norm() <= 1e-12
    assert (exp(val) - CdNumber.real(-1.0, 2)).norm() <= 1e-12


def test_ln_branches(rng):
    x = quat(rng)
    for k in (-2, -1, 0, 1, 3):
        val = ln_branch(x, k)
        assert (exp(val) - x).norm() <= 1e-10 * max(1.0, x.norm())


def test_ln_zero_raises():
    with pytest.raises(DomainError):
        ln_principal(CdNumber.zero(3))


def test_pow_real(rng):
    x = quat(rng)
    sq = pow_real(x, 2.0)
    assert (sq - mul(x, x)).norm() <= 1e-9 * max(1.0, x.norm() ** 2)
    root = pow_real(x, 0.5)
    assert (mul(root, root) - x).norm() <= 1e-9 * max(1.0, x.norm())


def test_polar_examples(rng):
    p = polar(CdNumber.real(2.0, 2))
    assert p.modulus == pytest.approx(2.0)
    assert p.arg.norm() <= 1e-14
    p = polar(CdNumber.basis(2, 2))
    assert p.modulus == pytest.approx(1.0)
    assert (p.arg - CdNumber.basis(2, 2) * (math.pi / 2)).norm() <= 1e-12
    for _ in range(100):
        x = octo(rng)
        if x.norm() < 1e-6:
            continue
        form = polar(x)
        assert 0.0 <= form.arg.norm() <= math.pi + 1e-15  # principal branch
        assert (form.reconstruct() - x).norm() <= 1e-11 * max(1.0, x.norm())
    with pytest.raises(DomainError):
        polar(CdNumber.zero(2))


# ---------------------------------------------------------------------------
# textual form
# ---------------------------------------------------------------------------

def test_json_roundtrip(rng):
    for level in (2, 3, 6):
        x = cd(rng.normal(size=1 << level))
        assert CdNumber.from_json(x.to_json()) == x


def test_bad_lengths_rejected():
    for n in (1, 2, 3, 5, 128):
        with pytest.raises(DimensionError):
            cd([0.0] * n)


def test_real_array_takes_numbers_only():
    # integers beyond int64 are numbers too (numpy stores them as objects)
    assert real_array([10 ** 20, 0]).tolist() == [1e20, 0.0]
    assert real_number(7) == 7.0
    for bad in (["1", "2", "3", "4"], [None, 0, 0, 0], "0.7"):
        with pytest.raises(TypeError):
            real_array(bad)
        with pytest.raises(TypeError):
            CdNumber(bad)
    with pytest.raises(TypeError):
        real_number([0.7])


# ---------------------------------------------------------------------------
# leads_negative: the one leading-sign rule of factor_quaternion and of
# Hypersphere.normalized, against the branches each kept before
# ---------------------------------------------------------------------------

def _reference_sign_normalize(a, b):
    """factor_quaternion's former sign rule, verbatim."""
    flip = False
    if a.re < 0:
        flip = True
    elif a.re == 0:
        nz = np.nonzero(a.coeffs)[0]
        if nz.size and a.coeffs[nz[0]] < 0:
            flip = True
    if flip:
        return -a, -b
    return a, b


def _reference_normalized(s):
    """Hypersphere.normalized's former sign rule, verbatim."""
    scale = max(abs(s.e), s.j.norm(), abs(s.d))
    if s.e < 0.0:
        scale = -scale
    elif s.e == 0.0:
        nz = np.nonzero(s.j.coeffs)[0]
        if nz.size and s.j.coeffs[nz[0]] < 0.0:
            scale = -scale
    return Hypersphere(s.e / scale, s.j * (1.0 / scale), s.d / scale)


# signed zeros, subnormals and plain values, so leads and tails are often zero
_LEAD = st.one_of(st.sampled_from([0.0, -0.0, 0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324]),
                  st.floats(-1e100, 1e100))


def _coeffs(dim):
    return st.lists(_LEAD, min_size=dim, max_size=dim)


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


@pytest.mark.parametrize("coeffs", [[0.0] * 4, [-0.0] * 4, [-0.0, 0.0, -0.0, 0.0],
                                    [-0.0, 0.0, 0.0, -1.0], [0.0, -0.0, 2.0, -1.0],
                                    [-0.0] * 7 + [-5e-324], [0.0, -1.0] + [0.0] * 6])
def test_leading_sign_rule_on_signed_zeros_and_zero_tails(coeffs):
    a = CdNumber(coeffs)
    b = CdNumber(np.arange(1.0, len(coeffs) + 1))
    ref = _reference_sign_normalize(a, b)
    got = (-a, -b) if leads_negative(a.coeffs) else (a, b)
    assert [_bits(x.coeffs) for x in got] == [_bits(x.coeffs) for x in ref]


@settings(max_examples=300, deadline=None)
@given(a=st.one_of(_coeffs(4), _coeffs(8)))
def test_leading_sign_rule_of_the_quaternion_factors(a):
    a = CdNumber(a)
    b = CdNumber(np.linspace(-1.0, 1.0, a.dim))
    ref = _reference_sign_normalize(a, b)
    got = (-a, -b) if leads_negative(a.coeffs) else (a, b)
    assert [_bits(x.coeffs) for x in got] == [_bits(x.coeffs) for x in ref]


@settings(max_examples=300, deadline=None)
@given(e=_LEAD, j=st.one_of(_coeffs(4), _coeffs(8)), d=_LEAD)
def test_normalized_sphere_keeps_the_former_sign_rule(e, j, d):
    assume(e == 0.0 or abs(e) > 1e-100)  # E^2 must not underflow
    if e != 0.0:
        d = -e * (1.0 + abs(d))  # |J|^2 - E D > 0: a proper sphere
    elif not np.any(j):
        j[-1] = -1.0  # a hyperplane needs J != 0
    s = Hypersphere(e, CdNumber(j), d)
    got, ref = s.normalized(), _reference_normalized(s)
    assert [_bits(got.e), _bits(got.j.coeffs), _bits(got.d)] == \
        [_bits(ref.e), _bits(ref.j.coeffs), _bits(ref.d)]
