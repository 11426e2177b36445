"""The benchmark's reference arithmetic against known identities."""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import refarith as ref  # noqa: E402


@pytest.fixture
def rng():
    return np.random.default_rng(2006)


def test_generator_products():
    i = [ref.basis(k, 4) for k in range(4)]
    assert np.array_equal(ref.mul(i[1], i[2]), i[3])
    assert np.array_equal(ref.mul(i[2], i[1]), -i[3])
    assert np.array_equal(ref.mul(i[1], i[1]), -i[0])
    o = [ref.basis(k, 8) for k in range(8)]
    assert np.array_equal(ref.mul(o[1], o[2]), o[3])
    # octonions are not associative: (i1 i2) i4 = -i1 (i2 i4)
    assert np.array_equal(ref.mul(ref.mul(o[1], o[2]), o[4]),
                          -ref.mul(o[1], ref.mul(o[2], o[4])))


@pytest.mark.parametrize("dim", [4, 8])
def test_norm_multiplicativity(rng, dim):
    x, y = rng.normal(size=(2, 50, dim))
    assert np.allclose(ref.norm(ref.mul(x, y)), ref.norm(x) * ref.norm(y), rtol=1e-13)


def test_alternativity_at_level_3(rng):
    x, y = rng.normal(size=(2, 50, 8))
    assert np.allclose(ref.mul(x, ref.mul(x, y)), ref.mul(ref.mul(x, x), y), atol=1e-12)
    assert np.allclose(ref.mul(ref.mul(y, x), x), ref.mul(y, ref.mul(x, x)), atol=1e-12)


def test_sedenions_are_not_alternative(rng):
    x, y = rng.normal(size=(2, 16))
    assert not np.allclose(ref.mul(x, ref.mul(x, y)), ref.mul(ref.mul(x, x), y))


def test_conjugation_inverse_and_exp(rng):
    x, y = rng.normal(size=(2, 8))
    assert np.allclose(ref.conj(ref.mul(x, y)), ref.mul(ref.conj(y), ref.conj(x)))
    assert np.allclose(ref.mul(x, ref.inv(x)), ref.real(1.0, 8), atol=1e-15)
    v = rng.normal(size=8)
    v[0] = 0.0
    assert ref.norm(ref.exp(v)) == pytest.approx(1.0, abs=1e-15)
    assert np.allclose(ref.exp(ref.real(np.log(3.0), 4)), ref.real(3.0, 4))
    # e^{pi u} = -1 for a unit imaginary u
    u = v / ref.norm(v)
    assert np.allclose(ref.exp(np.pi * u), ref.real(-1.0, 8), atol=1e-15)


def test_phrase_evaluator(rng):
    z = rng.normal(size=(3, 4))
    c = tuple(rng.normal(size=4))
    spec = ((0.5, ("mul", ("c", c), ("z", 2))), (-2, ("mul", ("z", 1), ("e",))))
    want = 0.5 * ref.mul(np.asarray(c), ref.mul(z, z)) - 2 * z
    assert np.allclose(ref.eval_phrase(spec, z), want)


def test_word_helpers(rng):
    s = rng.normal(size=4)
    z = rng.normal(size=4)
    word = (("shift", tuple(s)), ("inv",))
    assert np.allclose(ref.apply_word(word, z), ref.inv(z + s))
    assert ref.word_dilation(word, z) == pytest.approx(1.0 / float((z + s) @ (z + s)))
    back = ref.apply_word(ref.inverse_word(word), ref.apply_word(word, z))
    assert np.allclose(back, z)
    (pole,) = ref.word_poles(word, 4)
    assert np.allclose(pole, -s)
    rot = (("roto", ((1, 2, 0.3), (0, 5, -1.1))),)
    x = rng.normal(size=8)
    assert ref.norm(ref.apply_word(rot, x)) == pytest.approx(ref.norm(x))
    assert np.allclose(ref.apply_word(ref.inverse_word(rot), ref.apply_word(rot, x)), x)


def test_affine_rho_closed_form(rng):
    a, b, c, c2 = rng.normal(size=(4, 4))
    nodes = rng.normal(size=(20, 4))
    assert ref.affine_rho((a, b, c), (a, b, c), nodes) == 0.0
    assert ref.affine_rho((a, b, c), (a, b, c2), nodes) == pytest.approx(ref.norm(c - c2))
    jac = ref.affine_jacobian((a, b, c))
    h = rng.normal(size=4)
    assert np.allclose(jac @ h, ref.mul(ref.mul(a, h), b))
