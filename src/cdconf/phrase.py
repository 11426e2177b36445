"""Symbolic phrase calculus over Cayley-Dickson algebras.

A *word* is a product tree whose leaves are constants, the marker symbols
e / ec (the constant-one markers left behind by differentiation at 1), the
operator slots I / Ic, or powers z^p / zc^p of one of the variables.  The
bracket structure of the tree is meaningful (multiplication is not
associative from level 3 up) and is preserved by every operation here.  A
*phrase* is a finite sum of words.

Normalizations applied on construction:

* real scalar constants commute out of a word into a single rational
  coefficient (held exactly as a Fraction);
* directly multiplied constants fold into one constant, directly
  multiplied powers of the same variable merge (z^p z^q -> z^{p+q}),
  and a directly multiplied pair zc^q z^p reorders to z^p zc^q;
* words with zero coefficient or a zero constant are dropped, words with
  identical trees combine.

Words consisting of constants only are not admitted into a phrase.

Differentiation at 1 maps z^p to p z^{p-1} and z to the marker e;
antidifferentiation inverts it exactly (word for word) through the
telescoping series

    (psi sigma)^1 = psi^1 sigma - psi^2 sigma^{-1} + psi^3 sigma^{-2} - ...

applied recursively down the bracket tree, where ^k is the k-fold
antiderivative and ^{-k} the k-fold derivative of a subtree.  Since the
z-degree of a word is finite the series terminates.  Coefficients stay in
Fraction arithmetic, so derivative_at_one(antiderive(p)) reproduces p
exactly after normalization.
"""

from __future__ import annotations

import re as _re
import warnings
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .algebra import CdNumber, conj_coeffs, mul_coeffs
from .errors import (
    DimensionError,
    MissingOperatorArgumentError,
    MultiplicityError,
    PhraseSemanticError,
    PhraseSyntaxError,
    UnsupportedPhraseError,
)

__all__ = [
    "Const",
    "E",
    "Ec",
    "OneOp",
    "OneOpC",
    "ZPow",
    "ZcPow",
    "Mul",
    "Word",
    "Phrase",
    "PhraseMetricParams",
    "parse",
    "render",
    "word_length",
    "phrase_distance",
    "eval_phrase",
    "derivative_at_one",
    "antiderive",
    "hat_operator",
    "z",
    "zc",
    "e",
    "ec",
    "op_one",
    "op_one_c",
    "const",
]


# ---------------------------------------------------------------------------
# expression nodes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Const:
    values: tuple

    @classmethod
    def of(cls, x: CdNumber) -> "Const":
        return cls(tuple(float(v) for v in x.coeffs))

    @property
    def number(self) -> CdNumber:
        return CdNumber(self.values)


@dataclass(frozen=True)
class _Marker:
    """A leaf of one variable: a marker (e, ec) or an operator slot (I, Ic)."""

    var: int = 1


class E(_Marker):
    symbol = "e"


class Ec(_Marker):
    symbol = "ec"


class OneOp(_Marker):
    symbol = "I"


class OneOpC(_Marker):
    symbol = "Ic"


@dataclass(frozen=True)
class _Power:
    """A power z^p or zc^p of one variable."""

    p: int
    var: int = 1

    def __post_init__(self):
        if self.p < 1:
            raise PhraseSemanticError("powers must be >= 1")


class ZPow(_Power):
    symbol = "z"


class ZcPow(_Power):
    symbol = "zc"


@dataclass(frozen=True)
class Mul:
    """A product node.  Its hash is computed once, on construction, so a
    dict lookup does not walk the tree below it; equality stays
    structural."""

    left: object
    right: object
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.left, self.right)))

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # rebuilt through __init__, so a copy or an unpickled tree hashes anew
        return Mul, (self.left, self.right)


_SYMBOLS = {cls.symbol: cls for cls in (E, Ec, OneOp, OneOpC, ZPow, ZcPow)}


def _leaves(tree):
    if isinstance(tree, Mul):
        yield from _leaves(tree.left)
        yield from _leaves(tree.right)
    else:
        yield tree


def _tree_degree(tree) -> int:
    return sum(leaf.p for leaf in _leaves(tree) if isinstance(leaf, _Power))


def _tree_level(tree):
    level = None
    for leaf in _leaves(tree):
        if isinstance(leaf, Const):
            dim = len(leaf.values)
            lv = dim.bit_length() - 1
            if level is None:
                level = lv
            elif level != lv:
                raise DimensionError("constants of different levels in one word")
    return level


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

def _normalize_tree(tree):
    """Return (Fraction coefficient, normalized tree or None).

    None means the subtree reduced to a pure real scalar, now carried by
    the coefficient.
    """
    if isinstance(tree, Const):
        arr = np.asarray(tree.values)
        if not arr.any():
            return Fraction(0), None
        if not arr[1:].any():
            return Fraction(arr[0]), None
        return Fraction(1), tree
    if isinstance(tree, (_Marker, _Power)):
        return Fraction(1), tree
    if not isinstance(tree, Mul):
        raise PhraseSemanticError(f"unknown phrase node {tree!r}")
    cl, left = _normalize_tree(tree.left)
    cr, right = _normalize_tree(tree.right)
    coeff = cl * cr
    if coeff == 0:
        return Fraction(0), None
    if left is None:
        return coeff, right
    if right is None:
        return coeff, left
    if isinstance(left, Const) and isinstance(right, Const):
        prod = mul_coeffs(np.asarray(left.values), np.asarray(right.values))
        c2, folded = _normalize_tree(Const(tuple(prod)))
        return coeff * c2, folded
    if isinstance(left, _Power) and type(left) is type(right) and left.var == right.var:
        return coeff, type(left)(left.p + right.p, left.var)
    if isinstance(left, ZcPow) and isinstance(right, ZPow) and left.var == right.var:
        # conjugate powers of one variable commute; z powers display left
        return coeff, Mul(right, left)
    return coeff, Mul(left, right)


@dataclass(frozen=True)
class Word:
    """A normalized word: exact rational coefficient times a product tree."""

    coeff: Fraction
    tree: object

    @property
    def degree(self) -> int:
        return _tree_degree(self.tree)

    def render(self) -> str:
        return _render_word(self)


def _make_words(raw) -> tuple:
    """Normalize, combine and sort (coeff, tree) pairs into Word tuples."""
    combined = {}
    order = {}
    for coeff, tree in raw:
        if coeff == 0:
            continue
        c2, t2 = _normalize_tree(tree) if tree is not None else (Fraction(1), None)
        c = Fraction(coeff) * c2
        if c == 0:
            continue
        if t2 is None:
            raise PhraseSemanticError("a word cannot consist of constants only")
        key = t2
        combined[key] = combined.get(key, Fraction(0)) + c
        if key not in order:
            order[key] = _render_tree(key)
    words = [Word(c, t) for t, c in combined.items() if c != 0]
    words.sort(key=lambda w: (w.degree, order[w.tree]))
    return tuple(words)


class Phrase:
    """A finite sum of words, built from (coefficient, tree) pairs; immutable,
    with value and operator semantics."""

    __slots__ = ("words", "_level", "_derived")

    def __init__(self, words):
        object.__setattr__(self, "words", _make_words(words))
        # antiderive and hat_operator results, keyed (op, side, var); not
        # part of the value, so == and hash ignore it
        object.__setattr__(self, "_derived", {})
        level = None
        for w in self.words:
            lv = _tree_level(w.tree)
            if lv is not None:
                if level is None:
                    level = lv
                elif level != lv:
                    raise DimensionError("words of different constant levels")
        object.__setattr__(self, "_level", level)

    def __setattr__(self, *_):
        raise AttributeError("Phrase is immutable")

    def __reduce__(self):
        # rebuilt from its words, so a copy starts with no derived phrases
        return Phrase, (_terms(self),)

    # -- container basics ---------------------------------------------------

    @property
    def level(self):
        return self._level

    def is_zero(self) -> bool:
        return not self.words

    def __eq__(self, other):
        return isinstance(other, Phrase) and self.words == other.words

    def __hash__(self):
        return hash(self.words)

    def __repr__(self):
        return f"Phrase({self.render()!r})"

    def render(self) -> str:
        return render(self)

    # -- algebra -------------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Phrase):
            return NotImplemented
        return Phrase(_terms(self) + _terms(other))

    def __sub__(self, other):
        if not isinstance(other, Phrase):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return Phrase([(-w.coeff, w.tree) for w in self.words])

    def __mul__(self, other):
        if isinstance(other, Phrase):
            pairs = [
                (a.coeff * b.coeff, Mul(a.tree, b.tree))
                for a in self.words
                for b in other.words
            ]
            return Phrase(pairs)
        if isinstance(other, (int, float, Fraction)):
            return Phrase([(w.coeff * Fraction(other), w.tree) for w in self.words])
        if isinstance(other, CdNumber):
            return self * const(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float, Fraction)):
            return self * other
        if isinstance(other, CdNumber):
            return const(other) * self
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, (int, float, Fraction)):
            return Phrase([(w.coeff / Fraction(other), w.tree) for w in self.words])
        return NotImplemented

    # -- structure queries ----------------------------------------------------

    def degree_groups(self) -> dict:
        groups = {}
        for w in self.words:
            groups.setdefault(w.degree, []).append(w)
        return groups

    def max_degree(self) -> int:
        return max((w.degree for w in self.words), default=0)

    def has_operator(self) -> bool:
        return any(
            isinstance(leaf, (OneOp, OneOpC))
            for w in self.words
            for leaf in _leaves(w.tree)
        )

    def variables(self) -> set:
        out = set()
        for w in self.words:
            for leaf in _leaves(w.tree):
                if not isinstance(leaf, Const):
                    out.add(leaf.var)
        return out

    # -- calculus (delegating to module functions) ----------------------------

    def eval(self, z, h=None):
        return eval_phrase(self, z, h)

    # a phrase is a map of z: on a CdNumber, or batched on an (..., 2^r) array
    __call__ = apply_many = eval

    def derivative_at_one(self, var: int = 1) -> "Phrase":
        return derivative_at_one(self, var)

    def antiderive(self, side: str = "left", var: int = 1) -> "Phrase":
        return antiderive(self, side, var)

    def hat(self, var: int = 1) -> "Phrase":
        return hat_operator(self, var)


# ---------------------------------------------------------------------------
# factory helpers (products follow Python parenthesization)
# ---------------------------------------------------------------------------

def _single(tree) -> Phrase:
    return Phrase([(Fraction(1), tree)])


def z(p: int = 1, var: int = 1) -> Phrase:
    return _single(ZPow(p, var))


def zc(p: int = 1, var: int = 1) -> Phrase:
    return _single(ZcPow(p, var))


def e(var: int = 1) -> Phrase:
    return _single(E(var))


def ec(var: int = 1) -> Phrase:
    return _single(Ec(var))


def op_one(var: int = 1) -> Phrase:
    return _single(OneOp(var))


def op_one_c(var: int = 1) -> Phrase:
    return _single(OneOpC(var))


def const(x) -> Phrase:
    if not isinstance(x, CdNumber):
        raise TypeError("const expects a CdNumber; use int/float directly in products")
    return _single(Const.of(x))


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def _fmt_num(x: float) -> str:
    return format(float(x), ".17g")


def _render_leaf(leaf) -> str:
    if isinstance(leaf, Const):
        return "[" + ", ".join(_fmt_num(v) for v in leaf.values) + "]"
    if not isinstance(leaf, (_Marker, _Power)):
        raise PhraseSemanticError(f"cannot render {leaf!r}")
    sub = "" if leaf.var == 1 else f"_{leaf.var}"
    power = f"^{leaf.p}" if isinstance(leaf, _Power) and leaf.p != 1 else ""
    return f"{leaf.symbol}{sub}{power}"


def _render_tree(tree) -> str:
    if isinstance(tree, Mul):
        return f"({_render_tree(tree.left)} {_render_tree(tree.right)})"
    return _render_leaf(tree)


def _render_coeff(c: Fraction) -> str:
    if c.denominator == 1:
        return str(c.numerator)
    return _fmt_num(float(c))


def _render_word(w: Word) -> str:
    """Unsigned rendering of a word (the caller emits the sign)."""
    body = _render_tree(w.tree)
    mag = abs(w.coeff)
    if mag == 1:
        return body
    return f"{_render_coeff(mag)} {body}"


def render(phrase: Phrase) -> str:
    """Canonical text: fully parenthesized products, sign-joined words."""
    if not phrase.words:
        return "0"
    parts = []
    for k, w in enumerate(phrase.words):
        body = _render_word(w)
        if k == 0:
            parts.append(f"-{body}" if w.coeff < 0 else body)
        else:
            parts.append(("- " if w.coeff < 0 else "+ ") + body)
    return " ".join(parts)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

_TOKEN = _re.compile(
    r"\s*(?:"
    r"(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>zc|z|ec|e|Ic|I)(?:_(?P<var>\d+))?(?:\^(?P<pow>\d+))?"
    r"|(?P<punct>[\[\](),+-])"
    r")"
)


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, msg: str):
        raise PhraseSyntaxError(f"{msg} at position {self.pos}", position=self.pos)

    def peek(self):
        if self.pos >= len(self.text):
            return None
        m = _TOKEN.match(self.text, self.pos)
        if m is None:
            stripped = self.text[self.pos:].strip()
            if not stripped:
                return None
            self.error(f"unexpected character {stripped[0]!r}")
        return m

    def take(self):
        m = self.peek()
        if m is not None:
            self.pos = m.end()
        return m

    def parse_phrase(self) -> list:
        lead = 1
        m = self.peek()
        if m is not None and m.group("punct") in ("+", "-"):
            self.take()
            lead = 1 if m.group("punct") == "+" else -1
        words = [(lead * c, t) for c, t in self.parse_term()]
        while True:
            m = self.peek()
            if m is None or m.group("punct") not in ("+", "-"):
                break
            self.take()
            sign = 1 if m.group("punct") == "+" else -1
            words += [(sign * c, t) for c, t in self.parse_term()]
        return words

    def parse_term(self) -> list:
        acc = self.parse_factor()
        if acc is None:
            self.error("expected a factor")
        while True:
            save = self.pos
            m = self.peek()
            if m is None or (m.group("punct") in (")", "]", ",", "+", "-")):
                break
            nxt = self.parse_factor()
            if nxt is None:
                self.pos = save
                break
            acc = _word_product(acc, nxt)
        return acc

    def parse_factor(self):
        m = self.peek()
        if m is None:
            return None
        if m.group("num") is not None:
            self.take()
            return [(Fraction(m.group("num")), None)]
        if m.group("name") is not None:
            self.take()
            var = int(m.group("var")) if m.group("var") else 1
            p = int(m.group("pow")) if m.group("pow") else None
            name = m.group("name")
            cls = _SYMBOLS[name]
            if not issubclass(cls, _Power):
                if p is not None:
                    self.error(f"'^' not allowed after {name!r}")
                return [(Fraction(1), cls(var))]
            return [(Fraction(1), cls(p or 1, var))]
        punct = m.group("punct")
        if punct == "[":
            self.take()
            values = []
            while True:
                m2 = self.take()
                minus = m2 is not None and m2.group("punct") == "-"
                if minus:
                    m2 = self.take()
                if m2 is None or m2.group("num") is None:
                    self.error("expected a number after '-'" if minus
                               else "expected a number in constant")
                value = float(m2.group("num"))
                values.append(-value if minus else value)
                m2 = self.take()
                if m2 is None:
                    self.error("unterminated constant")
                if m2.group("punct") == "]":
                    break
                if m2.group("punct") != ",":
                    self.error("expected ',' or ']' in constant")
            if len(values) not in (4, 8, 16, 32, 64):
                self.error("constant length must be a power of two in 4..64")
            return [(Fraction(1), Const(tuple(values)))]
        if punct == "(":
            self.take()
            inner = self.parse_phrase()
            m2 = self.take()
            if m2 is None or m2.group("punct") != ")":
                self.error("expected ')'")
            return inner
        return None


def _word_product(a: list, b: list) -> list:
    out = []
    for ca, ta in a:
        for cb, tb in b:
            c = ca * cb
            if ta is None:
                out.append((c, tb))
            elif tb is None:
                out.append((c, ta))
            else:
                out.append((c, Mul(ta, tb)))
    return out


def validate_function_phrase(phrase: Phrase):
    """Reject words made of constants only (builder atoms are exempt,
    parsed phrases are not)."""
    for w in phrase.words:
        if all(isinstance(leaf, Const) for leaf in _leaves(w.tree)):
            raise PhraseSemanticError(
                "a word must contain at least one non-constant symbol")


def parse(text: str, strict: bool = False) -> Phrase:
    """Parse phrase text; see the module docstring for the grammar.

    Syntax errors carry the offending position.  Multiplicity-rule
    violations raise MultiplicityError under strict=True and warn
    otherwise.
    """
    p = _Parser(text)
    words = p.parse_phrase()
    if p.peek() is not None:
        p.error("trailing input")
    phrase = Phrase(words)
    validate_function_phrase(phrase)
    check_multiplicity(phrase, strict=strict)
    return phrase


# ---------------------------------------------------------------------------
# multiplicity rules
# ---------------------------------------------------------------------------

def _word_counts(word: Word, var: int):
    n = Counter(type(leaf) for leaf in _leaves(word.tree)
                if not isinstance(leaf, Const) and leaf.var == var)
    return n[E], n[Ec], n[OneOp], n[OneOpC], n[ZPow] > 0, n[ZcPow] > 0


def check_multiplicity(phrase: Phrase, strict: bool = False) -> list:
    """Check the per-variable symbol multiplicity rules.

    Each variable must satisfy one of:
      A. every word carries e, ec, I, Ic with one fixed multiplicity each;
      B. operator multiplicities as in A, while no word carries e or ec --
         except words with exactly one e and no z power (or one ec and no
         zc power) of that variable.

    Violations raise MultiplicityError when strict, else are returned (and
    warned) as messages.
    """
    problems = []
    for var in sorted(phrase.variables()):
        counts = [_word_counts(w, var) for w in phrase.words]
        if not counts:
            continue
        ops = {(c[2], c[3]) for c in counts}
        if len(ops) > 1:
            problems.append(f"variable {var}: operator symbols with mixed multiplicities")
        rule_a = len({(c[0], c[1]) for c in counts}) == 1
        rule_b = all(
            (c[0] == 0 and c[1] == 0)
            or (c[0] == 1 and c[1] == 0 and not c[4])
            or (c[1] == 1 and c[0] == 0 and not c[5])
            for c in counts
        )
        if not (rule_a or rule_b):
            problems.append(f"variable {var}: e/ec multiplicities violate the word rules")
    if problems and strict:
        raise MultiplicityError("; ".join(problems))
    for msg in problems:
        warnings.warn(msg, stacklevel=2)
    return problems


# ---------------------------------------------------------------------------
# lengths and the phrase metric
# ---------------------------------------------------------------------------

def word_length(w: Word) -> int:
    """Sum of symbol lengths: constants and markers count 1, z^p counts p+1.

    The extracted real coefficient counts as one constant factor unless it
    is exactly 1 (implicit).
    """
    total = 0 if w.coeff == 1 else 1
    for leaf in _leaves(w.tree):
        if isinstance(leaf, _Power):
            total += leaf.p + 1
        else:
            total += 1
    return total


@dataclass(frozen=True)
class PhraseMetricParams:
    b: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.b < 1.0:
            raise ValueError("b must lie in (0, 1)")


def phrase_distance(nu: Phrase, mu: Phrase, params: PhraseMetricParams | None = None) -> float:
    """d(nu, mu) = sum_j l_j b^j over homogeneity degrees j.

    l_j is 0 when the degree-j word multisets coincide and otherwise the
    maximum length over the words in their symmetric difference (equal
    words never contribute, so d(nu, nu) = 0).
    """
    params = params or PhraseMetricParams()
    ga, gb = nu.degree_groups(), mu.degree_groups()
    total = 0.0
    for j in sorted(set(ga) | set(gb)):
        wa = {(w.coeff, w.tree): w for w in ga.get(j, [])}
        wb = {(w.coeff, w.tree): w for w in gb.get(j, [])}
        if wa.keys() == wb.keys():
            continue
        diff = [w for k, w in wa.items() if k not in wb]
        diff += [w for k, w in wb.items() if k not in wa]
        total += max(word_length(w) for w in diff) * params.b ** j
    return total


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def _as_env(x) -> dict:
    if x is None:
        return {}
    if isinstance(x, dict):
        return {k: (v.coeffs if isinstance(v, CdNumber) else np.asarray(v, float))
                for k, v in x.items()}
    if isinstance(x, CdNumber):
        return {1: x.coeffs}
    arr = np.asarray(x, dtype=float)
    return {1: arr}


def _power(cache: dict, z: np.ndarray, p: int, key) -> np.ndarray:
    got = cache.get((key, p))
    if got is not None:
        return got
    out = z if p == 1 else mul_coeffs(_power(cache, z, p - 1, key), z)
    cache[(key, p)] = out
    return out


def eval_phrase(phrase: Phrase, zval, h=None):
    """Evaluate a phrase at z (CdNumber or (..., 2^r) array).

    Leaves map as: constants to themselves, e and ec to 1, z^p and zc^p to
    the powers of z and conj(z), I and Ic to h and conj(h).  h is required
    whenever the phrase contains operator slots; for several variables pass
    dicts {var: value}.  Each distinct product subtree is multiplied once.
    """
    zenv = _as_env(zval)
    henv = _as_env(h)
    if phrase.has_operator() and not henv:
        raise MissingOperatorArgumentError("phrase contains operator slots; supply h")
    dims = {v.shape[-1] for v in zenv.values()} | {v.shape[-1] for v in henv.values()}
    if phrase.level is not None:
        dims.add(1 << phrase.level)
    if len(dims) > 1:
        raise DimensionError(f"mixed dimensions in evaluation: {sorted(dims)}")
    if not dims:
        raise DimensionError("cannot infer the algebra dimension")
    dim = dims.pop()
    batch = np.broadcast_shapes(*(v.shape[:-1] for v in list(zenv.values()) + list(henv.values())))
    cache = {}

    def leaf_value(leaf):
        if isinstance(leaf, Const):
            return np.asarray(leaf.values)
        if isinstance(leaf, (E, Ec)):
            one = np.zeros(dim)
            one[0] = 1.0
            return one
        if isinstance(leaf, (OneOp, OneOpC)):
            if leaf.var not in henv:
                raise MissingOperatorArgumentError(f"no operator argument for variable {leaf.var}")
            hval = henv[leaf.var]
            return conj_coeffs(hval) if isinstance(leaf, OneOpC) else hval
        if leaf.var not in zenv:
            raise MissingOperatorArgumentError(f"no value supplied for variable {leaf.var}")
        zv = zenv[leaf.var]
        if isinstance(leaf, ZPow):
            return _power(cache, zv, leaf.p, ("z", leaf.var))
        return _power(cache, conj_coeffs(zv), leaf.p, ("zc", leaf.var))

    # uses of each product node: one per word it roots and one per distinct
    # parent, since a repeated node's children are evaluated only once
    uses = Counter()

    def count_uses(tree):
        if isinstance(tree, Mul):
            uses[tree] += 1
            if uses[tree] == 1:
                count_uses(tree.left)
                count_uses(tree.right)

    for w in phrase.words:
        count_uses(w.tree)
    memo = {}  # values of the product nodes that have uses left

    def tree_value(tree):
        if not isinstance(tree, Mul):
            return leaf_value(tree)
        value = memo.pop(tree, None)
        if value is None:
            value = mul_coeffs(tree_value(tree.left), tree_value(tree.right))
        uses[tree] -= 1
        if uses[tree]:
            memo[tree] = value
        return value

    total = np.zeros(batch + (dim,))
    for w in phrase.words:
        total = total + float(w.coeff) * tree_value(w.tree)
    if isinstance(zval, CdNumber) or (isinstance(zval, dict) and zval and
                                      isinstance(next(iter(zval.values())), CdNumber)):
        if total.ndim == 1:
            return CdNumber(total)
    return total


# ---------------------------------------------------------------------------
# differentiation and antidifferentiation
# ---------------------------------------------------------------------------

def _check_z_only(phrase: Phrase, var: int, op: str):
    for w in phrase.words:
        for leaf in _leaves(w.tree):
            if isinstance(leaf, Const) or leaf.var != var:
                continue
            if isinstance(leaf, (ZcPow, Ec, OneOpC)):
                raise UnsupportedPhraseError(
                    f"{op} requires a z-only phrase in variable {var}; found conjugate symbol")
            if isinstance(leaf, OneOp):
                raise UnsupportedPhraseError(
                    f"{op} does not accept operator-valued phrases")


def _check_side(side: str):
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")


def _has_active(tree, var: int) -> bool:
    return any(
        isinstance(leaf, (ZPow, E)) and leaf.var == var for leaf in _leaves(tree)
    )


def _leibniz(tree, leaf_rule) -> list:
    """Product rule down the bracket tree: the (c, tree') terms in which one
    leaf is replaced by each (c, leaf') term of leaf_rule(leaf)."""
    if isinstance(tree, Mul):
        return ([(c, Mul(t, tree.right)) for c, t in _leibniz(tree.left, leaf_rule)]
                + [(c, Mul(tree.left, t)) for c, t in _leibniz(tree.right, leaf_rule)])
    return leaf_rule(tree)


def _expand(terms, rule) -> list:
    """The (c c2, t2) terms over every (c2, t2) in rule(t), for each (c, t)."""
    return [(c * c2, t2) for c, t in terms for c2, t2 in rule(t)]


def _terms(phrase: Phrase) -> list:
    return [(w.coeff, w.tree) for w in phrase.words]


def _d_leaf(leaf, var: int) -> list:
    """Derivative at h=1 of one leaf: z -> e, z^p -> p z^{p-1}."""
    if not (isinstance(leaf, ZPow) and leaf.var == var):
        return []
    if leaf.p == 1:
        return [(Fraction(1), E(var))]
    return [(Fraction(leaf.p), ZPow(leaf.p - 1, var))]


def _d_tree(tree, var: int) -> list:
    return _leibniz(tree, lambda leaf: _d_leaf(leaf, var))


def _a_tree(tree, var: int, side: str) -> list:
    """Antiderivative terms of one tree; inverse of _d_tree."""
    if isinstance(tree, ZPow) and tree.var == var:
        return [(Fraction(1, tree.p + 1), ZPow(tree.p + 1, var))]
    if isinstance(tree, E) and tree.var == var:
        return [(Fraction(1), ZPow(1, var))]
    if not isinstance(tree, Mul):
        raise UnsupportedPhraseError(
            f"cannot antidifferentiate a word constant in variable {var}")
    lact, ract = _has_active(tree.left, var), _has_active(tree.right, var)
    if not lact and not ract:
        raise UnsupportedPhraseError(
            f"cannot antidifferentiate a word constant in variable {var}")
    if not ract:
        return [(c, Mul(t, tree.right)) for c, t in _a_tree(tree.left, var, side)]
    if not lact:
        return [(c, Mul(tree.left, t)) for c, t in _a_tree(tree.right, var, side)]
    # both sides active: telescoping series along the top product; the right
    # side antidifferentiates the right factor and swaps the factors back
    left = side == "left"
    anti = [(Fraction(1), tree.left if left else tree.right)]
    deriv = [(Fraction(1), tree.right if left else tree.left)]
    out = []
    sign = 1
    while deriv:
        anti = _expand(anti, lambda t: _a_tree(t, var, side))
        out += [(sign * ca * cd, Mul(ta, td) if left else Mul(td, ta))
                for ca, ta in anti for cd, td in deriv]
        deriv = _expand(deriv, lambda t: _d_tree(t, var))
        sign = -sign
    return out


def derivative_at_one(phrase: Phrase, var: int = 1) -> Phrase:
    """(d/dz).1 by the Leibniz rule: z^p -> p z^{p-1}, z -> e, e -> 0.

    Requires a z-only phrase in the active variable (conjugate symbols are
    rejected); symbols of other variables ride along as constants.
    """
    _check_z_only(phrase, var, "derivative_at_one")
    return Phrase(_expand(_terms(phrase), lambda t: _d_tree(t, var)))


def antiderive(phrase: Phrase, side: str = "left", var: int = 1) -> Phrase:
    """Exact phrase antiderivative: derivative_at_one(result) == phrase.

    side selects the left or right telescoping order; the two agree up to
    a function constant on the algebra but generally differ as phrases.
    The result is built once per (side, var) and kept on the phrase.
    """
    _check_side(side)
    key = ("antiderive", side, var)
    if key not in phrase._derived:
        _check_z_only(phrase, var, "antiderive")
        phrase._derived[key] = Phrase(
            _expand(_terms(phrase), lambda t: _a_tree(t, var, side)))
    return phrase._derived[key]


def _full_d_leaf(leaf, var: int) -> list:
    """Full derivative of one leaf: z^p -> sum_i z^i I z^{p-1-i}."""
    if not (isinstance(leaf, ZPow) and leaf.var == var):
        return []
    terms = []
    for i in range(leaf.p):
        node = OneOp(var)
        if i > 0:
            node = Mul(ZPow(i, var), node)
        if i < leaf.p - 1:
            node = Mul(node, ZPow(leaf.p - 1 - i, var))
        terms.append((Fraction(1), node))
    return terms


def hat_operator(phrase: Phrase, var: int = 1, side: str = "left") -> Phrase:
    """Operator phrase of the full derivative of the antiderivative.

    Evaluating the result with h equal to a displacement realizes the
    integral-sum kernel; with h = 1 it reproduces the input phrase values.
    The result is built once per (var, side) and kept on the phrase.
    """
    _check_side(side)
    key = ("hat_operator", side, var)
    if key not in phrase._derived:
        mu = antiderive(phrase, side, var)
        phrase._derived[key] = Phrase(_expand(
            _terms(mu), lambda t: _leibniz(t, lambda leaf: _full_d_leaf(leaf, var))))
    return phrase._derived[key]
