import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdconf.algebra import CdNumber, cd, inv, mul
from cdconf.calculus import factor_quaternion, givens_product, is_pseudoconformal_at, jacobian
from cdconf.errors import DimensionError, DomainError, EvaluationError
from cdconf.moebius import (
    INF,
    Hypersphere,
    Inv,
    MoebiusWord,
    MulQ,
    RotO,
    Shift,
    apply_word,
    compose,
    inverse,
    map_hypersphere,
    reflect_conjugate,
    schwarz_extend,
    sphere_residual,
    symmetric_point,
)

I1 = CdNumber.basis(1, 2)
I3 = CdNumber.basis(3, 2)
ONE = CdNumber.one(2)


@pytest.fixture
def rng():
    return np.random.default_rng(2024)


def rand_cd(rng, level=2, scale=1.0):
    return cd(rng.normal(size=1 << level) * scale)


def random_word(rng, level=2, n=4):
    gens = []
    for _ in range(n):
        k = rng.integers(0, 3)
        if k == 0:
            gens.append(Shift(rand_cd(rng, level)))
        elif k == 1:
            gens.append(Inv())
        elif level == 2:
            gens.append(MulQ(rand_cd(rng, 2), rand_cd(rng, 2)))
        else:
            gens.append(RotO(((0, 3, float(rng.uniform(-2, 2))),
                              (2, 6, float(rng.uniform(-2, 2))))))
    return MoebiusWord(gens, level)


# ---------------------------------------------------------------------------
# application and infinity bookkeeping
# ---------------------------------------------------------------------------

def test_inv_examples():
    w = MoebiusWord([Inv()], 2)
    assert apply_word(w, I1) == -I1
    assert apply_word(w, CdNumber.zero(2)) is INF
    assert apply_word(w, INF) == CdNumber.zero(2)


def test_shift_and_mul_fix_infinity():
    w = MoebiusWord([Shift(cd([1, 2, 3, 4])), MulQ(I1, I3)], 2)
    assert apply_word(w, INF) is INF


def test_word_example():
    w = MoebiusWord([Shift(ONE), Inv()], 2)
    assert (apply_word(w, ONE) - CdNumber.real(0.5, 2)).norm() <= 1e-15


def test_levels_enforced():
    with pytest.raises(DimensionError):
        MoebiusWord([Shift(ONE), Shift(CdNumber.one(3))])
    with pytest.raises(DimensionError):
        compose(MoebiusWord([Inv()], 2), MoebiusWord([Inv()], 3))


@settings(max_examples=60)
@given(seed=st.integers(0, 2 ** 32 - 1), level=st.sampled_from([2, 3]))
def test_apply_many_rows_equal_apply_word_bitwise(seed, level):
    rng = np.random.default_rng(seed)
    w = random_word(rng, level, n=int(rng.integers(1, 7)))
    pts = rng.normal(size=(16, 1 << level)) * rng.uniform(0.1, 3.0)
    many = w.apply_many(pts)
    for p, row in zip(pts, many):
        out = apply_word(w, CdNumber(p))
        assert out is not INF
        assert np.array_equal(row, out.coeffs)


def test_point_level_must_match_the_word():
    eight = CdNumber.one(3)
    rot = MoebiusWord([RotO(((2, 5, 0.7),))])
    for w, z in ((MoebiusWord([Inv()], 2), eight), (MoebiusWord([Shift(ONE)]), eight),
                 (rot, ONE)):
        with pytest.raises(DimensionError):
            apply_word(w, z)
        with pytest.raises(DimensionError):
            w.apply_many(z.coeffs[None, :])


def test_roto_planes_are_integers():
    with pytest.raises(TypeError):
        RotO(((2.9, 5.2, 0.7),))
    with pytest.raises(TypeError):
        MoebiusWord.from_json([{"op": "roto", "angles": [[2.0, 5, 0.7]]}])
    with pytest.raises(DomainError):
        RotO(((5, 8, 0.7),))
    angles = ((0, 3, 0.4), (2, 6, -1.1))
    assert np.array_equal(RotO(angles).matrix, givens_product(angles))


# ---------------------------------------------------------------------------
# group structure
# ---------------------------------------------------------------------------

def test_shift_inverse_identity(rng):
    c = rand_cd(rng)
    w = MoebiusWord([Shift(c)], 2)
    wi = inverse(w)
    for _ in range(100):
        z = rand_cd(rng)
        assert (apply_word(compose(w, wi), z) - z).norm() <= 1e-12


def test_inv_is_self_inverse():
    w = MoebiusWord([Inv()], 2)
    assert inverse(w).generators == w.generators


def test_inverse_roundtrip_random(rng):
    for level in (2, 3):
        for _ in range(20):
            w = random_word(rng, level, n=5)
            wi = inverse(w)
            for _ in range(5):
                z = rand_cd(rng, level)
                out = apply_word(wi, apply_word(w, z))
                if out is INF:
                    continue
                assert (out - z).norm() <= 1e-11 * max(1.0, z.norm())


def test_compose_is_concatenation_and_associative(rng):
    a, b, c = (random_word(rng, 2, 2) for _ in range(3))
    w1 = compose(compose(a, b), c)
    w2 = compose(a, compose(b, c))
    assert w1.generators == w2.generators
    z = rand_cd(rng)
    o1, o2 = apply_word(w1, z), apply_word(w2, z)
    if o1 is not INF:
        assert (o1 - o2).norm() <= 1e-12


def test_words_are_pseudoconformal(rng):
    checked = 0
    while checked < 20:
        level = 2 if checked % 2 else 3
        w = random_word(rng, level, 3)
        z = rand_cd(rng, level)
        out = apply_word(w, z)
        if out is INF or out.norm() > 30:
            continue
        ok = True
        cur = z
        for gen in w.generators:
            if isinstance(gen, Inv) and not 0.2 < cur.norm() < 20:
                ok = False
                break
            cur = apply_word(MoebiusWord([gen], level), cur)
        if not ok:
            continue
        v = is_pseudoconformal_at(lambda q: apply_word(w, q), z, tol=1e-4)
        assert v.status == "Pseudoconformal"
        checked += 1


def test_open_mapping_spot_check(rng):
    # image of a small sphere stays at distance >= lambda r (1 - O(r))
    # from the image of the center: a ball around f(z) lies in the image
    w = MoebiusWord([Shift(cd([1.0, 0.5, 0, 0])), Inv(),
                     MulQ(cd([0, 1, 1, 0]), cd([2, 0, 0, 1]))], 2)
    z = cd([0.3, -0.2, 0.4, 0.1])
    v = is_pseudoconformal_at(lambda q: apply_word(w, q), z, tol=1e-4)
    assert v.ok
    r = 1e-3
    dists = []
    fz = apply_word(w, z)
    for _ in range(200):
        u = rng.normal(size=4)
        u /= np.linalg.norm(u)
        dists.append((apply_word(w, z + cd(u) * r) - fz).norm())
    assert min(dists) >= v.lam * r * 0.99


# ---------------------------------------------------------------------------
# hyperspheres
# ---------------------------------------------------------------------------

def test_sphere_validation():
    with pytest.raises(DomainError):
        Hypersphere(0.0, CdNumber.zero(2), 0.0)
    with pytest.raises(DomainError):
        Hypersphere(1.0, CdNumber.zero(2), 1.0)  # R^2 = -1


def test_a_sphere_whose_e_squared_underflows_is_an_evaluation_error():
    # E*E underflows to 0 below |E| of about 1e-162
    with pytest.raises(EvaluationError, match=r"E\*E underflows"):
        Hypersphere(1e-170, CdNumber.zero(2), -1e-170)
    s = Hypersphere(1e-150, CdNumber.zero(2), -1e-150)
    assert s.radius2() == 1.0
    # a multiplication that shrinks E to 1e-170 makes an invalid intermediate sphere
    word = MoebiusWord([MulQ(CdNumber.real(1e10, 2), CdNumber.one(2))], 2)
    with pytest.raises(EvaluationError, match=r"E\*E underflows"):
        map_hypersphere(word, s)


def test_unit_sphere_fixed_by_inversion():
    s = Hypersphere.from_center_radius(CdNumber.zero(2), 1.0)
    img = map_hypersphere(MoebiusWord([Inv()], 2), s)
    assert img.e == pytest.approx(1.0)
    assert img.j.norm() <= 1e-15
    assert img.d == pytest.approx(-1.0)


def test_shift_moves_center(rng):
    z0 = rand_cd(rng)
    c = rand_cd(rng)
    s = Hypersphere.from_center_radius(z0, 2.0)
    img = map_hypersphere(MoebiusWord([Shift(c)], 2), s)
    assert (img.center() - (z0 + c)).norm() <= 1e-12
    assert img.radius() == pytest.approx(2.0)


def test_sphere_sampling_oracle(rng):
    for level in (2, 3):
        for _ in range(25):
            w = random_word(rng, level, n=4)
            s = Hypersphere.from_center_radius(rand_cd(rng, level),
                                               rng.uniform(0.5, 2.0))
            img = map_hypersphere(w, s)
            pts = s.sample(40, rng)
            vals = w.apply_many(pts)
            if not np.all(np.isfinite(vals)) or np.max(np.abs(vals)) > 1e7:
                continue
            assert sphere_residual(img, vals) <= 1e-9


def test_hyperplane_maps_to_sphere_under_inv(rng):
    # plane not through 0 inverts to a sphere through 0
    plane = Hypersphere(0.0, ONE, 1.0)  # 2 x_0 + 1 = 0
    img = map_hypersphere(MoebiusWord([Inv()], 2), plane)
    assert not img.is_plane()
    pts = plane.sample(50, rng)
    vals = MoebiusWord([Inv()], 2).apply_many(pts)
    assert sphere_residual(img, vals) <= 1e-9


# ---------------------------------------------------------------------------
# symmetric points
# ---------------------------------------------------------------------------

def test_symmetric_examples():
    s = Hypersphere.from_center_radius(CdNumber.zero(2), 1.0)
    assert (symmetric_point(CdNumber.real(2.0, 2), s)
            - CdNumber.real(0.5, 2)).norm() <= 1e-15
    assert (symmetric_point(I3 * 2.0, s) - I3 * 0.5).norm() <= 1e-15
    on = cd([0.6, 0.8, 0, 0])
    assert (symmetric_point(on, s) - on).norm() <= 1e-12
    assert symmetric_point(CdNumber.zero(2), s) is INF


def test_symmetric_defining_conditions(rng):
    from cdconf.algebra import polar

    s = Hypersphere.from_center_radius(rand_cd(rng), 1.3)
    z0 = s.center()
    for _ in range(50):
        z1 = rand_cd(rng)
        if (z1 - z0).norm() < 0.05:
            continue
        z2 = symmetric_point(z1, s)
        prod = (z1 - z0).norm() * (z2 - z0).norm()
        assert prod == pytest.approx(s.radius2(), rel=1e-10)
        a1 = polar(z1 - z0).arg
        a2 = polar(z2 - z0).arg
        assert (a1 - a2).norm() <= 1e-9


def test_symmetry_preserved_by_words(rng):
    done = 0
    while done < 50:
        level = 2 if done % 2 else 3
        w = random_word(rng, level, n=3)
        s = Hypersphere.from_center_radius(rand_cd(rng, level), rng.uniform(0.5, 2))
        z1 = rand_cd(rng, level)
        if (z1 - s.center()).norm() < 0.1:
            continue
        z2 = symmetric_point(z1, s)
        img = map_hypersphere(w, s)
        if img.is_plane() or abs(img.e) < 1e-6:
            continue
        w1, w2 = apply_word(w, z1), apply_word(w, z2)
        if w1 is INF or w2 is INF or w1.norm() > 1e3 or w2.norm() > 1e3:
            continue
        lhs = symmetric_point(w1, img)
        if lhs is INF:
            continue
        assert (lhs - w2).norm() <= 1e-8 * (1.0 + lhs.norm() + w2.norm())
        done += 1


# ---------------------------------------------------------------------------
# reflection
# ---------------------------------------------------------------------------

def test_reflect_examples():
    assert reflect_conjugate(ONE + I3) == ONE - I3
    z = cd([0.3, 1.2, -0.7, 0.4])
    assert reflect_conjugate(reflect_conjugate(z)) == z
    z8 = cd(np.arange(8.0))
    out = reflect_conjugate(z8)
    assert out.coeffs[-1] == -7.0 and np.all(out.coeffs[:-1] == z8.coeffs[:-1])


def test_schwarz_extension_matches_word(rng):
    # a word with constants in the fixed hyperplane maps it to itself;
    # the reflected extension must then agree with the word everywhere
    c = cd([0.7, -0.4, 0.9, 0.0])  # last coefficient zero
    w = MoebiusWord([Shift(c), Inv()], 2)
    f = lambda z: apply_word(w, z)
    for _ in range(100):
        z = rand_cd(rng)
        zc = z.coeffs.copy()
        zc[-1] = -abs(zc[-1]) - 0.1  # lower half space
        z = cd(zc)
        got = schwarz_extend(f, z)
        want = apply_word(w, z)
        assert (got - want).norm() <= 1e-10 * max(1.0, want.norm())


def test_reflection_fixes_infinity():
    assert reflect_conjugate(INF) is INF
    assert schwarz_extend(MoebiusWord([Inv()], 2), CdNumber.zero(2)) is INF


def test_schwarz_domain_check():
    f = lambda z: z
    with pytest.raises(DomainError):
        schwarz_extend(f, ONE + I3, domain=lambda p: False)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_word_json_roundtrip(rng):
    for level in (2, 3):
        w = random_word(rng, level, 5)
        again = MoebiusWord.from_json(w.to_json(), level)
        z = rand_cd(rng, level)
        a, b = apply_word(w, z), apply_word(again, z)
        if a is INF:
            assert b is INF
        else:
            assert (a - b).norm() <= 1e-14


def test_sphere_json_roundtrip():
    s = Hypersphere.from_center_radius(cd([1, 2, 3, 4]), 1.5)
    t = Hypersphere.from_json(s.to_json())
    assert t.e == s.e and t.d == s.d and t.j == s.j
