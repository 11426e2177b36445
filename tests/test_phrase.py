import copy
import dataclasses
import gc
import hashlib
import math
import pickle
import warnings
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdconf import phrase as ph
from cdconf.algebra import CdNumber, cd, conj_coeffs, mul, mul_coeffs
from cdconf.contour import PlanarLoop, PlanarPath, line_integral
from cdconf.errors import (
    DimensionError,
    MissingOperatorArgumentError,
    MultiplicityError,
    PhraseSemanticError,
    PhraseSyntaxError,
    UnsupportedPhraseError,
)


@pytest.fixture
def rng():
    return np.random.default_rng(4321)


def rand_cd(rng, level=2, scale=1.0):
    return cd(rng.normal(size=1 << level) * scale)


def random_phrase(rng, level=2, max_words=4, max_degree=6):
    words = []
    for _ in range(int(rng.integers(1, max_words + 1))):
        factors = []
        if rng.random() < 0.7:
            factors.append(ph.const(rand_cd(rng, level)))
        budget = max_degree
        while budget > 0 and rng.random() < 0.75:
            p = int(rng.integers(1, budget + 1))
            budget -= p
            factors.append(ph.z(p))
            if rng.random() < 0.7:
                factors.append(ph.const(rand_cd(rng, level)))
        if not any("z" in f.render() for f in factors):
            factors.append(ph.z(1))
        word = factors[0]
        for f in factors[1:]:
            word = word * f
        words.append(word)
    out = words[0]
    for w in words[1:]:
        out = out + w
    return out


# ---------------------------------------------------------------------------
# parsing and normalization
# ---------------------------------------------------------------------------

def test_parse_sandwich_word():
    p = ph.parse("[0,1,0,0] z^2 [0,0,1,0]")
    assert len(p.words) == 1
    assert p.level == 2
    z0 = cd([0.3, 0.7, -0.2, 0.1])
    want = mul(mul(CdNumber.basis(1, 2), mul(z0, z0)), CdNumber.basis(2, 2))
    assert (p.eval(z0) - want).norm() <= 1e-12


def test_bracket_trees_are_distinct():
    assert ph.parse("(e z) e") != ph.parse("e (z e)")


def test_power_merge():
    assert ph.parse("z^2 z^3") == ph.parse("z^5")
    # merging is literal: only directly multiplied powers coalesce
    deep = ph.parse("([0,1,0,0] z^2) z^3")
    assert deep != ph.parse("[0,1,0,0] z^5")


def test_scalar_extraction_and_folding():
    p = ph.parse("2 z 3")
    assert len(p.words) == 1
    assert p.words[0].coeff == Fraction(6)
    # real constants written as brackets are extracted too
    q = ph.parse("[2,0,0,0] z")
    assert q.words[0].coeff == Fraction(2)
    assert q == ph.parse("2 z")


def test_adjacent_constants_fold():
    p = ph.parse("([0,1,0,0] [0,0,1,0]) z")
    q = ph.parse("[0,0,0,1] z")
    assert p == q


def test_zero_words_drop():
    p = ph.parse("z - z")
    assert p.is_zero()
    assert ph.parse("0 z + e").render() == "e"


def test_conjugate_power_reorder():
    # zc z -> z zc within one bracket (the conjugate powers commute)
    assert ph.parse("zc z") == ph.parse("z zc")


def test_constant_only_word_rejected():
    with pytest.raises(PhraseSemanticError):
        ph.parse("[0,1,0,0] [0,0,1,0]")


def test_syntax_error_position():
    with pytest.raises(PhraseSyntaxError) as err:
        ph.parse("z + ^2")
    assert err.value.position is not None


@pytest.mark.parametrize("text, message, position", [
    ("e^2", "'^' not allowed after 'e'", 3),
    ("[0,-,0,0]", "expected a number after '-'", 5),
])
def test_syntax_error_message_and_position(text, message, position):
    with pytest.raises(PhraseSyntaxError) as err:
        ph.parse(text)
    assert str(err.value) == f"{message} at position {position}"
    assert err.value.position == position


def test_markers_of_different_kinds_never_combine():
    assert len(ph.parse("e + ec").words) == 2
    assert ph.E(1) != ph.Ec(1)


def test_render_roundtrip(rng):
    texts = [
        "[0,1,0,0] z^2 [0,0,1,0]",
        "(e z) e",
        "z^2 z^3 + 2 z",
        "z - 3.5 zc^2",
        "-z + e",
        "I e + z (Ic zc)",  # multiplicity-violating on purpose: still round-trips
        "z_2^3 [0,0,1,0] z",
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for t in texts:
            p = ph.parse(t)
            assert ph.parse(p.render()) == p
    for _ in range(30):
        p = random_phrase(rng)
        assert ph.parse(p.render()) == p


def test_multiplicity_warning_and_strict():
    # one word with e and a z power violates the word rules
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ph.parse("e z + z^2")
    assert caught
    with pytest.raises(MultiplicityError):
        ph.parse("e z + z^2", strict=True)


def test_level_mismatch_rejected():
    with pytest.raises(Exception):
        ph.parse("[0,1,0,0] z [0,1,0,0,0,0,0,0]")


_LEAVES = st.one_of(
    st.lists(st.sampled_from([0.0, -0.0, 1.0, -2.0, 0.5]), min_size=4, max_size=4).map(
        lambda values: ph.Const(tuple(values))),
    st.builds(lambda cls, var: cls(var),
              st.sampled_from([ph.E, ph.Ec, ph.OneOp, ph.OneOpC]), st.sampled_from([1, 2])),
    st.builds(lambda cls, p, var: cls(p, var),
              st.sampled_from([ph.ZPow, ph.ZcPow]), st.integers(1, 3), st.sampled_from([1, 2])),
)


def _full_normalize(tree):
    """(coefficient, tree or None) by the rules of the module docstring,
    written out here on their own and walking every subtree: normalization
    without its stop at normal subtrees."""
    if isinstance(tree, ph.Const):
        arr = np.asarray(tree.values)
        if arr[1:].any():
            return Fraction(1), tree
        return Fraction(arr[0]), None
    if not isinstance(tree, ph.Mul):
        return Fraction(1), tree
    cl, left = _full_normalize(tree.left)
    cr, right = _full_normalize(tree.right)
    coeff = cl * cr
    if coeff == 0:
        return Fraction(0), None
    if left is None or right is None:
        return coeff, right if left is None else left
    if isinstance(left, ph.Const) and isinstance(right, ph.Const):
        c2, folded = _full_normalize(ph.Const(tuple(mul_coeffs(np.asarray(left.values),
                                                               np.asarray(right.values)))))
        return coeff * c2, folded
    if isinstance(left, ph._Power) and type(left) is type(right) and left.var == right.var:
        return coeff, type(left)(left.p + right.p, left.var)
    if isinstance(left, ph.ZcPow) and isinstance(right, ph.ZPow) and left.var == right.var:
        return coeff, ph.Mul(right, left)
    return coeff, ph.Mul(left, right)


@settings(max_examples=400)
@given(tree=st.recursive(_LEAVES, lambda sub: st.builds(ph.Mul, sub, sub), max_leaves=8))
def test_a_node_is_normal_exactly_when_normalization_keeps_it(tree):
    # the normal fact of a node and the rewrites of normalization read one
    # statement of the local rules; both must agree with the rules walked
    # over the whole tree
    coeff, out = _full_normalize(tree)
    assert ph._normalize_tree(tree) == (coeff, out)
    assert tree._normal == (out is tree and coeff == 1)


# ---------------------------------------------------------------------------
# lengths and the metric
# ---------------------------------------------------------------------------

def test_word_length_example():
    p = ph.parse("[0,1,0,0] z^3 [0,0,1,0]")
    assert ph.word_length(p.words[0]) == 6


def test_word_length_markers():
    assert ph.word_length(ph.parse("e").words[0]) == 1
    assert ph.word_length(ph.parse("I").words[0]) == 1
    assert ph.word_length(ph.parse("2 z").words[0]) == 3  # scalar + (z = 2)


def test_metric_identity_and_examples():
    nu = ph.parse("[0,1,0,0] z^2 + z^3")
    assert ph.phrase_distance(nu, nu) == 0.0
    # single degree-j difference of length L contributes L b^j
    a = ph.parse("z^2")
    b = ph.parse("2 z^2")
    # degree 2, lengths l(z^2)=3 vs l(2 z^2)=4 -> max 4, b^2 = 1/4
    assert ph.phrase_distance(a, b) == pytest.approx(4 * 0.25)
    assert ph.phrase_distance(a, ph.parse("z^3")) == pytest.approx(3 * 0.25 + 4 * 0.125)


def test_metric_axioms(rng):
    ps = [random_phrase(rng) for _ in range(12)]
    for p in ps:
        assert ph.phrase_distance(p, p, b=0.5) == 0.0
    for p in ps:
        for q in ps:
            dpq = ph.phrase_distance(p, q, b=0.5)
            assert dpq >= 0.0
            assert dpq == pytest.approx(ph.phrase_distance(q, p, b=0.5))
            if dpq == 0.0:
                assert p == q


def test_metric_triangle_empirical(rng):
    # the word-pair maximum makes the triangle inequality non-obvious;
    # check it on random triples and report violations as failures
    ps = [random_phrase(rng, max_words=3, max_degree=4) for _ in range(30)]
    bad = 0
    for i in range(len(ps)):
        for j in range(len(ps)):
            for k in range(len(ps)):
                dij = ph.phrase_distance(ps[i], ps[j], b=0.5)
                djk = ph.phrase_distance(ps[j], ps[k], b=0.5)
                dik = ph.phrase_distance(ps[i], ps[k], b=0.5)
                if dik > dij + djk + 1e-12:
                    bad += 1
    assert bad == 0


def test_metric_param_validation():
    with pytest.raises(ValueError, match=r"b must lie in \(0, 1\)"):
        ph.phrase_distance(ph.parse("z"), ph.parse("z^2"), b=1.5)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_eval_examples():
    z0 = CdNumber.real(1, 2) + CdNumber.basis(1, 2)
    assert (ph.parse("z^2").eval(z0) - CdNumber.basis(1, 2) * 2).norm() <= 1e-13
    assert ph.parse("e").eval(z0) == CdNumber.one(2)
    a, b = CdNumber.basis(1, 2), CdNumber.basis(2, 2)
    h = cd([0.3, -0.2, 0.5, 0.7])
    got = ph.parse("[0,1,0,0] (I [0,0,1,0])").eval(z0, h=h)
    assert (got - mul(a, mul(h, b))).norm() <= 1e-13


def test_eval_missing_operator_argument():
    with pytest.raises(MissingOperatorArgumentError):
        ph.parse("I z").eval(CdNumber.one(2))


@pytest.mark.parametrize("text", ["z", "3 e", "zc - 2 z"])
def test_eval_of_a_phrase_with_no_product_checks_the_dimension(text):
    # no product kernel runs, so eval_phrase itself refuses a dimension it cannot multiply in
    phrase = ph.parse(text)
    for dim in (0, 3, 6):
        with pytest.raises(DimensionError, match=f"dimension {dim}"):
            ph.eval_phrase(phrase, np.ones(dim))
    for dim in (1, 2, 4):
        z = np.arange(1.0, dim + 1.0)
        want = {"z": z, "3 e": 3.0 * np.eye(dim)[0], "zc - 2 z": conj_coeffs(z) - 2.0 * z}[text]
        assert ph.eval_phrase(phrase, z).tobytes() == want.tobytes()


def test_eval_batch(rng):
    p = random_phrase(rng)
    pts = rng.normal(size=(40, 4))
    vals = p.eval(pts)
    for k in range(40):
        single = p.eval(cd(pts[k]))
        assert np.allclose(vals[k], single.coeffs, atol=1e-12)


def test_eval_conjugate_powers(rng):
    p = ph.parse("zc^2")
    z0 = rand_cd(rng)
    want = mul(z0.conj(), z0.conj())
    assert (p.eval(z0) - want).norm() <= 1e-12


# ---------------------------------------------------------------------------
# differentiation
# ---------------------------------------------------------------------------

def test_derivative_power_rule():
    for k in (1, 2, 5):
        got = ph.parse(f"z^{k}").derivative_at_one()
        want = ph.parse("e") if k == 1 else ph.parse(f"{k} z^{k-1}")
        assert got == want


def test_derivative_sandwich():
    got = ph.parse("[0,1,0,0] z [0,0,1,0]").derivative_at_one()
    assert got == ph.parse("[0,1,0,0] e [0,0,1,0]")


def test_derivative_two_groups():
    nu = ph.parse("[0,1,0,0] z^2 [0,0,1,0] z^3 [0,0,0,1]")
    got = nu.derivative_at_one()
    want = ph.parse(
        "2 (((([0,1,0,0] z) [0,0,1,0]) z^3) [0,0,0,1])"
        " + 3 (((([0,1,0,0] z^2) [0,0,1,0]) z^2) [0,0,0,1])"
    )
    assert got == want


def test_derivative_matches_real_direction_fd(rng):
    # (d/dz).1 is the derivative along the real axis
    for _ in range(10):
        nu = random_phrase(rng)
        d = nu.derivative_at_one()
        z0 = rand_cd(rng, scale=0.6)
        step = 1e-6
        fd = (nu.eval(z0 + CdNumber.real(step, 2)) - nu.eval(z0 - CdNumber.real(step, 2))) * (0.5 / step)
        assert (d.eval(z0) - fd).norm() <= 1e-6 * max(1.0, fd.norm())


def test_derivative_rejects_conjugates():
    with pytest.raises(UnsupportedPhraseError):
        ph.parse("zc^2").derivative_at_one()
    with pytest.raises(UnsupportedPhraseError):
        ph.parse("z zc").derivative_at_one()


# ---------------------------------------------------------------------------
# antidifferentiation
# ---------------------------------------------------------------------------

def test_antiderive_power():
    for k in (1, 2, 6):
        mu = ph.parse(f"z^{k}").antiderive()
        assert mu == ph.parse(f"z^{k + 1}") / (k + 1)


def test_antiderive_e_substitution():
    mu = ph.parse("[0,1,0,0] e [0,0,1,0]").antiderive()
    assert mu == ph.parse("[0,1,0,0] z [0,0,1,0]")


def test_antiderive_roundtrip_random(rng):
    for k in range(200):
        level = 2 if k % 3 else 3
        nu = random_phrase(rng, level=level)
        for side in ("left", "right"):
            mu = nu.antiderive(side)
            assert mu.derivative_at_one() == nu


def test_antiderive_numeric_roundtrip(rng):
    a, b, c = (rand_cd(rng) for _ in range(3))
    nu = ph.const(a) * ph.z() * ph.const(b) * ph.z() * ph.const(c)
    mu = nu.antiderive()
    pts = rng.normal(size=(50, 4)) * 0.7
    assert np.allclose(mu.derivative_at_one().eval(pts), nu.eval(pts), atol=1e-10)


def test_left_right_difference_has_zero_derivative(rng):
    # both branches are exact antiderivatives, so the difference is a
    # constant of the differential calculus: its derivative vanishes
    for _ in range(20):
        nu = random_phrase(rng)
        diff = nu.antiderive("left") - nu.antiderive("right")
        assert diff.derivative_at_one().is_zero()


def test_left_right_agree_single_group(rng):
    # single power-group words: the two branches coincide exactly
    a, b = rand_cd(rng), rand_cd(rng)
    nu = ph.const(a) * ph.z(3) * ph.const(b)
    assert nu.antiderive("left") == nu.antiderive("right")


def test_antiderive_canonical_text_on_both_sides():
    nu = ph.parse("[0,1,0,0] z [0,0,1,0] z")
    assert ph.antiderive(nu, "left").render() == (
        "0.5 ((([0, 1, 0, 0] z^2) [0, 0, 1, 0]) z)"
        " - 0.16666666666666666 ((([0, 1, 0, 0] z^3) [0, 0, 1, 0]) e)")
    assert ph.antiderive(nu, "right").render() == (
        "-0.16666666666666666 ((([0, 1, 0, 0] e) [0, 0, 1, 0]) z^3)"
        " + 0.5 ((([0, 1, 0, 0] z) [0, 0, 1, 0]) z^2)")
    assert ph.hat_operator(nu, side="right").render() == (
        "0.5 ((([0, 1, 0, 0] I) [0, 0, 1, 0]) z^2)"
        " - 0.16666666666666666 ((([0, 1, 0, 0] e) [0, 0, 1, 0]) ((z I) z))"
        " - 0.16666666666666666 ((([0, 1, 0, 0] e) [0, 0, 1, 0]) (I z^2))"
        " - 0.16666666666666666 ((([0, 1, 0, 0] e) [0, 0, 1, 0]) (z^2 I))"
        " + 0.5 ((([0, 1, 0, 0] z) [0, 0, 1, 0]) (I z))"
        " + 0.5 ((([0, 1, 0, 0] z) [0, 0, 1, 0]) (z I))")


def test_antiderive_rejects_constant_words():
    with pytest.raises(UnsupportedPhraseError):
        ph.parse("z_2").antiderive(var=1)


def test_antiderive_second_variable(rng):
    nu = ph.parse("z_2^2 [0,1,0,0] z")
    mu = nu.antiderive(var=1)
    assert mu.derivative_at_one(var=1) == nu


# ---------------------------------------------------------------------------
# hat operator
# ---------------------------------------------------------------------------

def test_hat_of_e_is_operator_identity():
    assert ph.parse("e").hat() == ph.parse("I")


def test_hat_of_z(rng):
    hat = ph.parse("z").hat()
    z0, h = rand_cd(rng), rand_cd(rng)
    got = hat.eval(z0, h=h)
    want = (mul(z0, h) + mul(h, z0)) * 0.5
    assert (got - want).norm() <= 1e-12


def test_hat_of_sandwich_e(rng):
    hat = ph.parse("[0,1,0,0] e [0,0,1,0]").hat()
    assert hat == ph.parse("[0,1,0,0] I [0,0,1,0]")
    z0, h = rand_cd(rng), rand_cd(rng)
    got = hat.eval(z0, h=h)
    want = mul(CdNumber.basis(1, 2), mul(h, CdNumber.basis(2, 2)))
    assert (got - want).norm() <= 1e-12


def test_hat_at_one_reproduces_phrase(rng):
    one = CdNumber.one(2)
    for _ in range(20):
        nu = random_phrase(rng)
        hat = nu.hat()
        for _ in range(5):
            z0 = rand_cd(rng, scale=0.8)
            got = hat.eval(z0, h=one)
            want = nu.eval(z0)
            assert (got - want).norm() <= 1e-10 * max(1.0, want.norm())


# ---------------------------------------------------------------------------
# the subtree memo of eval_phrase
# ---------------------------------------------------------------------------

def _walk_words(phrase, zval, h=None):
    """eval_phrase without a memo: every word walks its own tree, and a
    power z^p is p - 1 products, the lower powers of one symbol shared."""
    zenv, henv = ph._as_env(zval), ph._as_env(h)
    envs = list(zenv.values()) + list(henv.values())
    dim = envs[0].shape[-1]
    powers = {}

    def power(base, p, key):
        if (key, p) not in powers:
            powers[key, p] = base if p == 1 else mul_coeffs(power(base, p - 1, key), base)
        return powers[key, p]

    def value(tree):
        if isinstance(tree, ph.Mul):
            return mul_coeffs(value(tree.left), value(tree.right))
        if isinstance(tree, ph.Const):
            return np.asarray(tree.values)
        if isinstance(tree, (ph.E, ph.Ec)):
            one = np.zeros(dim)
            one[0] = 1.0
            return one
        if isinstance(tree, (ph.OneOp, ph.OneOpC)):
            hval = henv[tree.var]
            return conj_coeffs(hval) if isinstance(tree, ph.OneOpC) else hval
        zv = zenv[tree.var]
        if isinstance(tree, ph.ZPow):
            return power(zv, tree.p, ("z", tree.var))
        return power(conj_coeffs(zv), tree.p, ("zc", tree.var))

    total = np.zeros(np.broadcast_shapes(*(v.shape[:-1] for v in envs)) + (dim,))
    for w in phrase.words:
        total = total + float(w.coeff) * value(w.tree)
    first = next(iter(zval.values())) if isinstance(zval, dict) else zval
    if isinstance(first, CdNumber) and total.ndim == 1:
        return CdNumber(total)
    return total


def _random_tree(rng, leaves, depth):
    if depth == 0 or rng.random() < 0.3:
        return leaves[int(rng.integers(len(leaves)))]
    return ph.Mul(_random_tree(rng, leaves, depth - 1), _random_tree(rng, leaves, depth - 1))


def _repeating_phrase(rng, level, two_vars, ops):
    """Words built from a pool of three subtrees, so subtrees repeat within
    and across words; conjugate powers and markers always, a second
    variable and operator slots on request."""
    leaves = [ph.Const(tuple(rng.normal(size=1 << level))), ph.ZPow(int(rng.integers(1, 4))),
              ph.ZcPow(int(rng.integers(1, 3))), ph.E(), ph.Ec()]
    if two_vars:
        leaves += [ph.ZPow(int(rng.integers(1, 3)), 2), ph.ZcPow(1, 2)]
    if ops:
        leaves += [ph.OneOp(), ph.OneOpC()]
    pool = [ph.Mul(_random_tree(rng, leaves, 2), ph.ZPow(1)) for _ in range(3)]
    words = []
    for _ in range(int(rng.integers(1, 6))):
        a, b = (pool[int(k)] for k in rng.integers(3, size=2))
        if rng.random() < 0.5:
            a = ph.Mul(a, _random_tree(rng, leaves + pool, 2))
        words.append((Fraction(int(rng.integers(1, 9)), 4), ph.Mul(a, b)))
    return ph.Phrase(words)


def _value(rng, shape, dim):
    if shape is None:
        return CdNumber(rng.normal(size=dim) * 0.7)
    return rng.normal(size=shape + (dim,)) * 0.7


def _bytes(x):
    return type(x), np.asarray(getattr(x, "coeffs", x)).tobytes()


@settings(max_examples=120)
@given(seed=st.integers(0, 2 ** 32 - 1), level=st.sampled_from([2, 3]),
       shape=st.sampled_from([None, (5,), (2, 3)]))
def test_memoized_eval_equals_the_word_walk(seed, level, shape):
    rng = np.random.default_rng(seed)
    dim = 1 << level
    nu = random_phrase(rng, level)
    cases = [(ph.hat_operator(nu, side=side), _value(rng, shape, dim), _value(rng, shape, dim))
             for side in ("left", "right")]
    cases.append((nu, _value(rng, shape, dim), None))
    two_vars, ops = bool(rng.integers(2)), bool(rng.integers(2))
    rep = _repeating_phrase(rng, level, two_vars, ops)
    z = {1: _value(rng, shape, dim), 2: _value(rng, shape, dim)} if two_vars else _value(rng, shape, dim)
    cases.append((rep, z, _value(rng, shape, dim) if ops else None))
    for phrase, zval, h in cases:
        want = _bytes(_walk_words(phrase, zval, h))
        assert _bytes(ph.eval_phrase(phrase, zval, h)) == want
        # the program is compiled once per phrase and kept
        program = phrase._derived["program"]
        assert _bytes(ph.eval_phrase(phrase, zval, h)) == want
        assert phrase._derived["program"] is program
        # it is not part of the value, and a copy starts without it
        twin = ph.Phrase(ph._terms(phrase))
        assert twin == phrase and hash(twin) == hash(phrase) and "program" not in twin._derived
        assert "program" not in pickle.loads(pickle.dumps(phrase))._derived


def _distinct_products(phrase):
    seen = set()

    def visit(tree):
        if isinstance(tree, ph.Mul):
            seen.add(tree)
            visit(tree.left)
            visit(tree.right)

    for w in phrase.words:
        visit(w.tree)
    return len(seen)


def _power_products(phrase):
    top = {}
    for w in phrase.words:
        for leaf in ph._leaves(w.tree):
            if isinstance(leaf, ph._Power):
                key = (type(leaf), leaf.var)
                top[key] = max(top.get(key, 1), leaf.p)
    return sum(p - 1 for p in top.values())


@pytest.mark.parametrize("seed", range(8))
def test_each_distinct_product_is_multiplied_once(monkeypatch, seed):
    rng = np.random.default_rng(seed)
    level = 2 + seed % 2
    dim = 1 << level
    nu = random_phrase(rng, level)
    cases = [(ph.hat_operator(nu, side="left" if seed % 2 else "right"),
              rng.normal(size=(7, dim)), rng.normal(size=(7, dim))),
             (_repeating_phrase(rng, level, True, True),
              {1: rng.normal(size=(7, dim)), 2: rng.normal(size=(7, dim))},
              rng.normal(size=(7, dim)))]
    calls = []

    def counted(x, y):
        calls.append(1)
        return mul_coeffs(x, y)

    monkeypatch.setattr(ph, "mul_coeffs", counted)
    for phrase, zval, h in cases:
        calls.clear()
        ph.eval_phrase(phrase, zval, h)
        assert len(calls) == _distinct_products(phrase) + _power_products(phrase)
    # the kernel repeats subtrees, so the memo is exercised
    kernel = cases[0][0]
    walked = sum(1 for w in kernel.words for _ in ph._leaves(w.tree)) - len(kernel.words)
    assert _distinct_products(kernel) < walked


@pytest.mark.parametrize("seed", [1, 2])
def test_a_product_value_is_released_after_its_last_read(monkeypatch, seed):
    rng = np.random.default_rng(seed)
    kernel = ph.hat_operator(random_phrase(rng, 2))
    pts = rng.normal(size=(3, 4))
    refs, held = [], []

    def counted(x, y):
        held.append(sum(r() is not None for r in refs))
        out = mul_coeffs(x, y)
        refs.append(weakref.ref(out))
        return out

    monkeypatch.setattr(ph, "mul_coeffs", counted)
    ph.eval_phrase(kernel, pts, h=pts)
    # hundreds of products, of which only the few still to be read are held
    assert len(refs) > 300 and max(held) <= len(refs) // 10


# ---------------------------------------------------------------------------
# forward-mode tangents
# ---------------------------------------------------------------------------

def _rel_err(got, want):
    got, want = np.asarray(getattr(got, "coeffs", got)), np.asarray(getattr(want, "coeffs", want))
    return np.max(np.linalg.norm(got - want, axis=-1) / (1.0 + np.linalg.norm(want, axis=-1)))


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), level=st.sampled_from([2, 3]),
       shape=st.sampled_from([None, (5,), (2, 3)]))
def test_the_tangent_equals_the_hat_kernel_in_alternative_algebras(seed, level, shape):
    rng = np.random.default_rng(seed)
    dim = 1 << level
    nu = random_phrase(rng, level)
    for side in ("left", "right"):
        zval, h = _value(rng, shape, dim), _value(rng, shape, dim)
        got = ph.eval_phrase(ph.antiderive(nu, side), zval, tangent=h)
        want = ph.eval_phrase(ph.hat_operator(nu, side=side), zval, h=h)
        assert type(got) is type(want)
        assert _rel_err(got, want) <= 1e-12


@pytest.mark.parametrize("level", [4, 5])
@pytest.mark.parametrize("seed", range(4))
def test_the_tangent_is_the_derivative_where_the_algebra_is_not_alternative(level, seed):
    rng = np.random.default_rng(seed)
    dim = 1 << level
    mu = ph.antiderive(random_phrase(rng, level), "left" if seed % 2 else "right")
    zval, h = rng.normal(size=(4, dim)) * 0.5, rng.normal(size=(4, dim))
    step = 1e-5
    central = (mu(zval + step * h) - mu(zval - step * h)) / (2 * step)
    assert _rel_err(ph.eval_phrase(mu, zval, tangent=h), central) <= 1e-7


def test_a_leaf_of_another_variable_carries_no_tangent(rng):
    z1, z2, h = rand_cd(rng), rand_cd(rng), rand_cd(rng)
    got = ph.eval_phrase(ph.parse("z_2 z + zc_2 e"), {1: z1, 2: z2}, tangent=h)
    assert got.coeffs.tobytes() == mul_coeffs(z2.coeffs, h.coeffs).tobytes()


@pytest.mark.parametrize("text, message", [
    ("zc z", "requires a z-only phrase in variable 1; found conjugate symbol"),
    ("ec z", "requires a z-only phrase in variable 1; found conjugate symbol"),
    ("z I", "does not accept operator-valued phrases"),
])
def test_the_tangent_refuses_conjugates_and_operators_of_variable_1(text, message):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        phrase = ph.parse(text)
    with pytest.raises(UnsupportedPhraseError, match=message):
        ph.eval_phrase(phrase, CdNumber.one(2), h=CdNumber.one(2), tangent=CdNumber.one(2))


# ---------------------------------------------------------------------------
# cached hashes and derived phrases
# ---------------------------------------------------------------------------

def test_equal_trees_built_apart_hash_equal():
    a = ph.parse("([0,1,0,0] z^2) (z [0,0,1,0])")
    b = ph.parse("([0,1,0,0] z^2) (z [0,0,1,0])")
    ta, tb = a.words[0].tree, b.words[0].tree
    # interned: equal trees are one node
    assert ta is tb and ta == tb and hash(ta) == hash(tb)
    assert a == b and hash(a) == hash(b)
    assert ph.Mul(ph.ZPow(1), ph.E()) != ph.Mul(ph.E(), ph.ZPow(1))


def test_mul_hash_survives_copies():
    tree = ph.parse("([0,1,0,0] z^2) (z [0,0,1,0])").words[0].tree
    copies = [copy.deepcopy(tree), pickle.loads(pickle.dumps(tree)),
              dataclasses.replace(tree), dataclasses.replace(tree, right=ph.E())]
    for t in copies:
        assert hash(t) == hash((t.left, t.right))
    # a copy comes back interned: it is the live node
    assert copies[0] is copies[1] is copies[2] is tree


@pytest.mark.parametrize("dup", [copy.copy, copy.deepcopy,
                                 lambda p: pickle.loads(pickle.dumps(p))],
                         ids=["copy", "deepcopy", "pickle"])
def test_a_phrase_copies_and_pickles(dup):
    nu = ph.parse("z^2 [0,1,0,0]")
    nu.antiderive()
    got = dup(nu)
    assert got == nu and hash(got) == hash(nu) and got._derived == {}
    assert all(a.tree is b.tree for a, b in zip(got.words, nu.words))
    z = cd([0.3, -0.2, 0.7, 0.1])
    assert got(z).coeffs.tobytes() == nu(z).coeffs.tobytes()


def test_mul_repr_is_unchanged():
    assert repr(ph.Mul(ph.ZPow(2), ph.E(3))) == "Mul(left=ZPow(p=2, var=1), right=E(var=3))"


@pytest.mark.parametrize("side", ["left", "right"])
def test_antiderive_and_hat_are_built_once(side):
    nu = ph.parse("[0,1,0,0] z [0,0,1,0] z + 2 z^2")
    mu = ph.antiderive(nu, side)
    assert ph.antiderive(nu, side) is mu and nu.antiderive(side) is mu
    hat = ph.hat_operator(nu, side=side)
    assert ph.hat_operator(nu, side=side) is hat
    other = "right" if side == "left" else "left"
    assert ph.antiderive(nu, other) is not mu
    # a fresh phrase builds the same results again
    assert ph.antiderive(ph.parse(nu.render()), side) == mu


@pytest.mark.parametrize("build", [lambda p: ph.antiderive(p, "middle"),
                                   lambda p: ph.hat_operator(p, side="middle"),
                                   lambda p: ph.hat_operator(p, side=["left"])])
def test_a_bad_side_raises_and_caches_nothing(build):
    nu = ph.parse("z^2")
    with pytest.raises(ValueError, match="side must be"):
        build(nu)
    assert nu._derived == {}


def test_a_rejected_phrase_caches_nothing():
    nu = ph.parse("zc z")
    with pytest.raises(UnsupportedPhraseError):
        ph.hat_operator(nu)
    assert nu._derived == {}


def test_phrase_value_ignores_its_derived_cache():
    a, b = ph.parse("z [0,1,0,0] z"), ph.parse("z [0,1,0,0] z")
    ph.hat_operator(a, side="right")
    assert a._derived and not b._derived
    assert a == b and hash(a) == hash(b)
    for name in ("words", "_derived", "anything"):
        with pytest.raises(AttributeError):
            setattr(a, name, None)


# ---------------------------------------------------------------------------
# interned nodes
# ---------------------------------------------------------------------------

def test_signed_zero_constants_compare_equal_and_render_as_built():
    # the intern key tells -0.0 from 0.0, so what was built earlier never
    # changes the bytes of a phrase; of equal words the first one renders
    for first, second in (("-0", "0"), ("0", "-0")):
        a = ph.parse(f"[{first},1,0,0] z")
        b = ph.parse(f"[{second},1,0,0] z")
        assert a.render() == f"([{first}, 1, 0, 0] z)"
        assert b.render() == f"([{second}, 1, 0, 0] z)"
        assert a == b and hash(a) == hash(b)
        assert a.words[0].tree is not b.words[0].tree
        assert (a + b).render() == f"2 ([{first}, 1, 0, 0] z)"
        assert (b + a).render() == f"2 ([{second}, 1, 0, 0] z)"
        del a, b
    # so does the key of a power: its numbers with their types
    a, b = ph.z(2, 3), ph.z(2.0, 3)
    assert a == b and a.render() == "z_3^2" and b.render() == "z_3^2.0"


def test_the_intern_table_shrinks_back():
    gc.collect()
    baseline = len(ph._TABLE)
    phrases = [ph.const(cd([k, 1.0, 0.5, k % 7])) * ph.z(1 + k % 5) * ph.const(cd([0, k, 1, 0]))
               for k in range(10 ** 4)]
    assert len(ph._TABLE) > baseline + 3 * 10 ** 4  # two constants and two products each
    del phrases
    gc.collect()
    assert len(ph._TABLE) == baseline


def _walked_degree(tree):
    if isinstance(tree, ph.Mul):
        return _walked_degree(tree.left) + _walked_degree(tree.right)
    return tree.p if isinstance(tree, ph._Power) else 0


def _walked_distance(nu, mu, b):
    """phrase_distance with every degree walked down the word's tree."""
    def groups(phrase):
        out = {}
        for w in phrase.words:
            out.setdefault(_walked_degree(w.tree), {})[(w.coeff, w.tree)] = w
        return out

    ga, gb = groups(nu), groups(mu)
    total = 0.0
    for j in sorted(set(ga) | set(gb)):
        wa, wb = ga.get(j, {}), gb.get(j, {})
        diff = [w for k, w in wa.items() if k not in wb] + [w for k, w in wb.items() if k not in wa]
        if diff:
            total += max(ph.word_length(w) for w in diff) * b ** j
    return total


def test_degrees_on_hat_kernels_match_a_tree_walk(rng):
    kernels = []
    for k in range(6):
        nu = random_phrase(rng, level=2 + k % 2)
        kernels += [nu, ph.hat_operator(nu, side="left"), ph.hat_operator(nu, side="right")]
    for kernel in kernels:
        groups = kernel.degree_groups()
        assert groups == {d: [w for w in kernel.words if _walked_degree(w.tree) == d]
                          for d in {_walked_degree(w.tree) for w in kernel.words}}
        assert kernel.max_degree() == max(_walked_degree(w.tree) for w in kernel.words)
    for a in kernels[:9]:
        for b in kernels[:9]:
            assert ph.phrase_distance(a, b, 0.3) == _walked_distance(a, b, 0.3)


# ---------------------------------------------------------------------------
# the byte gate: digests of render, parse, antiderive, hat_operator and
# eval_phrase outputs, computed before phrase nodes were interned and
# evaluation compiled, and of line_integral outputs, computed when the
# integral moved to the forward-mode kernel
# ---------------------------------------------------------------------------

def _gate_digests():
    rng = np.random.default_rng(20261019)
    text, numbers, integrals = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    for k in range(40):
        level = 2 + k % 2
        dim = 1 << level
        nu = random_phrase(rng, level=level)
        canonical = nu.render()
        back = ph.parse(canonical)
        assert back == nu
        text.update(f"{canonical}\n{back.render()}\n".encode())
        for side in ("left", "right"):
            hat = ph.hat_operator(nu, side=side)
            text.update(f"{ph.antiderive(nu, side).render()}\n{hat.render()}\n".encode())
        pts = rng.normal(size=(5, dim)) * 0.7
        numbers.update(ph.eval_phrase(nu, pts).tobytes())
        numbers.update(ph.eval_phrase(nu, CdNumber(pts[0])).coeffs.tobytes())
        numbers.update(ph.eval_phrase(hat, pts, h=pts[::-1]).tobytes())
        m = np.zeros(dim)
        m[1 + k % (dim - 1)] = 1.0
        a0, m = CdNumber(np.zeros(dim)), CdNumber(m)
        side = "left" if k % 2 else "right"
        loop = PlanarLoop.circle(a0, m, center=tuple(rng.uniform(-0.3, 0.3, 2)),
                                 radius=rng.uniform(0.5, 1.2), n=16)
        seg = PlanarPath.segment(a0, m, tuple(rng.uniform(-1, 0, 2)),
                                 tuple(rng.uniform(0, 1, 2)), n=8)
        for path in (loop, seg):
            integrals.update(line_integral(nu, path, refine=1e-11, side=side).coeffs.tobytes())
    return text.hexdigest(), numbers.hexdigest(), integrals.hexdigest()


def test_phrase_outputs_keep_their_bytes():
    # the numbers digests hold the bits of the two-operand einsum kernel, as
    # computed with numpy 2.4 on x86-64; a numpy whose SIMD baseline fuses
    # multiply-add (numpy.show_runtime() names it) may round differently
    text, numbers, integrals = _gate_digests()
    assert text == "7d49f1f8ce579084af06b75b86926904f57e74bb9bed49a37a8c3b868f7c7ec5"
    assert numbers == "2da9f2eab82e3968e34a548f70e83c56579884884a25b5ed99372a29ddbea052"
    assert integrals == "57668a745d1c54e2b9aabf4732d391b294e38086065f9259e81481b121d9dec4"
