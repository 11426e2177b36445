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
  and a directly multiplied pair zc^q z^p reorders to z^p zc^q (the
  three local rules, stated once in `_local_rule`);
* words with zero coefficient or a zero constant are dropped, words with
  identical trees combine.

Words consisting of constants only are not admitted into a phrase.

Nodes are hash-consed: every leaf and product is built through one weak
intern table, so equal subtrees are one object, and each node computes its
facts (hash, z-degree, constant level, whether it is normal, its rendered
text and the kinds of its leaves) once, when it is made.  A product is
normal when its children are and no local rule applies; normalization
stops at a normal subtree, words sort on the cached text, and degree and
kind queries read the facts instead of walking the tree.  A phrase keeps,
next to its antiderivatives and hat operators, the straight-line program
that evaluates it: compiled on the first call, it lists the distinct
products in evaluation order with their slots and last uses.

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
import weakref
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebra import _KERNEL_DIMS, _VALID_DIMS, CdNumber, conj_coeffs, mul_coeffs
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
    "const",
]


# ---------------------------------------------------------------------------
# expression nodes
# ---------------------------------------------------------------------------

# The intern table: the live node of each key, held weakly, so an entry
# leaves with its node.  A Mul is keyed by the ids of its children, which
# are alive while it is; a constant by the bytes of its values, so
# [-0, 1, 0, 0] and [0, 1, 0, 0] stay two nodes that compare equal, and
# each renders as it was written; a marker or a power by its numbers and
# their types, so z^2.0 does not become z^2.
_TABLE: dict = {}
_MIXED = -1  # the level fact of a subtree holding constants of two levels
_FACTS = ("_hash", "_degree", "_level", "_normal", "_text", "_kinds")


def _forget(ref):
    if _TABLE.get(ref.key) is ref:
        del _TABLE[ref.key]


class _Node:
    """Base of the interned nodes.  The facts of a node: its hash, its
    z-degree, its constant level (None without constants), whether it is
    normal (normalization returns it unchanged), its rendered text (the
    sort key of words) and the (leaf class, var) kinds of the non-constant
    leaves below it.  Equality stays structural, so nodes built apart
    still compare equal: constants that differ only in the signs of
    zeros, equal numbers of different types, and a node that two threads
    build at once."""

    __slots__ = ("__weakref__",) + _FACTS

    @classmethod
    def _interned(cls, key, args):
        """The live node of this key, or a new one with these field values."""
        ref = _TABLE.get(key)
        node = None if ref is None else ref()
        if node is None:
            node = object.__new__(cls)
            for name, value in zip(cls.__dataclass_fields__, args):
                object.__setattr__(node, name, value)
            for name, value in zip(_FACTS, node._facts()):
                object.__setattr__(node, name, value)
            _TABLE[key] = weakref.KeyedRef(node, _forget, key)
        return node

    def _args(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__dataclass_fields__)

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._hash == other._hash and self._args() == other._args()

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # rebuilt through the table, so a copy or an unpickled node is the
        # live node
        return self.__class__, self._args()


@dataclass(frozen=True, init=False, eq=False)
class Const(_Node):
    __slots__ = ("values",)
    values: tuple

    def __new__(cls, values):
        arr = np.array(values, dtype=float)
        return cls._interned((cls, arr.tobytes()), (tuple(arr.tolist()),))

    def _facts(self) -> tuple:
        return (hash(self.values), 0, len(self.values).bit_length() - 1,
                bool(np.asarray(self.values[1:]).any()), _render_leaf(self), frozenset())

    @classmethod
    def of(cls, x: CdNumber) -> "Const":
        return cls(x.coeffs)

    @property
    def number(self) -> CdNumber:
        return CdNumber(self.values)


@dataclass(frozen=True, init=False, eq=False)
class _Marker(_Node):
    """A leaf of one variable: a marker (e, ec) or an operator slot (I, Ic)."""

    __slots__ = ("var",)
    var: int

    def __new__(cls, var=1):
        return cls._interned((cls, var, type(var)), (var,))

    def _facts(self) -> tuple:
        return (hash((self.symbol, self.var)), 0, None, True, _render_leaf(self),
                frozenset({(self.__class__, self.var)}))


class E(_Marker):
    symbol = "e"


class Ec(_Marker):
    symbol = "ec"


class OneOp(_Marker):
    symbol = "I"


class OneOpC(_Marker):
    symbol = "Ic"


@dataclass(frozen=True, init=False, eq=False)
class _Power(_Node):
    """A power z^p or zc^p of one variable."""

    __slots__ = ("p", "var")
    p: int
    var: int

    def __new__(cls, p, var=1):
        if p < 1:
            raise PhraseSemanticError("powers must be >= 1")
        return cls._interned((cls, p, var, type(p), type(var)), (p, var))

    def _facts(self) -> tuple:
        return (hash((self.symbol, self.p, self.var)), self.p, None, True,
                _render_leaf(self), frozenset({(self.__class__, self.var)}))


class ZPow(_Power):
    symbol = "z"


class ZcPow(_Power):
    symbol = "zc"


@dataclass(frozen=True, init=False, eq=False)
class Mul(_Node):
    """A product node; its facts combine those of its two children."""

    __slots__ = ("left", "right")
    left: object
    right: object

    def __new__(cls, left, right):
        return cls._interned((id(left), id(right)), (left, right))

    def _facts(self) -> tuple:
        left, right = self.left, self.right
        for child in (left, right):
            if not isinstance(child, _Node):
                raise PhraseSemanticError(f"unknown phrase node {child!r}")
        ll, rl = left._level, right._level
        level = rl if ll is None else ll if rl is None or rl == ll else _MIXED
        normal = left._normal and right._normal and _local_rule(left, right) is None
        # most products add no new kind: share a child's set
        kinds = (left._kinds if right._kinds <= left._kinds
                 else right._kinds if left._kinds <= right._kinds
                 else left._kinds | right._kinds)
        return (hash((left, right)), left._degree + right._degree, level, normal,
                f"({left._text} {right._text})", kinds)


_SYMBOLS = {cls.symbol: cls for cls in (E, Ec, OneOp, OneOpC, ZPow, ZcPow)}


def _leaves(tree):
    if isinstance(tree, Mul):
        yield from _leaves(tree.left)
        yield from _leaves(tree.right)
    else:
        yield tree


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

_ONE = Fraction(1)


def _fold(left, right):
    """[a] [b] -> [a b], its real scalar carried out."""
    prod = mul_coeffs(np.asarray(left.values), np.asarray(right.values))
    return _normalize_tree(Const(tuple(prod)))


def _merge(left, right):
    """z^p z^q -> z^{p+q}, and zc^p zc^q -> zc^{p+q}."""
    return _ONE, type(left)(left.p + right.p, left.var)


def _swap(left, right):
    """zc^q z^p -> z^p zc^q: conjugate powers of one variable commute, and
    z powers display left."""
    return _ONE, Mul(right, left)


def _local_rule(left, right):
    """The rewrite of the product of two normal trees, or None when the
    product is normal.  A rewrite maps (left, right) to (Fraction
    coefficient, tree or None)."""
    if isinstance(left, Const):
        return _fold if isinstance(right, Const) else None
    if isinstance(left, _Power) and isinstance(right, _Power) and left.var == right.var:
        if type(left) is type(right):
            return _merge
        if isinstance(left, ZcPow):
            return _swap
    return None


def _normalize_tree(tree):
    """Return (Fraction coefficient, normalized tree or None).

    None means the subtree reduced to a pure real scalar, now carried by
    the coefficient.  A normal subtree returns at once, so only the local
    rules run above it.
    """
    if not isinstance(tree, _Node):
        raise PhraseSemanticError(f"unknown phrase node {tree!r}")
    if tree._normal:
        return _ONE, tree
    if isinstance(tree, Const):
        arr = np.asarray(tree.values)
        if not arr.any():
            return Fraction(0), None
        return Fraction(arr[0]), None
    cl, left = _normalize_tree(tree.left)
    cr, right = _normalize_tree(tree.right)
    coeff = cl * cr
    if coeff == 0:
        return Fraction(0), None
    if left is None:
        return coeff, right
    if right is None:
        return coeff, left
    rule = _local_rule(left, right)
    if rule is None:
        return coeff, Mul(left, right)
    c2, tree = rule(left, right)
    return coeff * c2, tree


@dataclass(frozen=True)
class Word:
    """A normalized word: exact rational coefficient times a product tree."""

    coeff: Fraction
    tree: object

    @property
    def degree(self) -> int:
        return self.tree._degree

    def render(self) -> str:
        return _render_word(self)


def _make_words(raw) -> tuple:
    """Normalize, combine and sort (coeff, tree) pairs into Word tuples;
    words sort by degree, then by text.  Of equal trees the first one
    seen is kept."""
    combined = {}
    for coeff, tree in raw:
        if coeff == 0:
            continue
        c2, t2 = _normalize_tree(tree) if tree is not None else (_ONE, None)
        c = Fraction(coeff) if c2 is _ONE else Fraction(coeff) * c2
        if c == 0:
            continue
        if t2 is None:
            raise PhraseSemanticError("a word cannot consist of constants only")
        prev = combined.get(t2)
        combined[t2] = c if prev is None else prev + c
    trees = sorted((t for t, c in combined.items() if c != 0),
                   key=lambda t: (t._degree, t._text))
    return tuple(Word(combined[t], t) for t in trees)


class Phrase:
    """A finite sum of words, built from (coefficient, tree) pairs; immutable,
    with value and operator semantics."""

    __slots__ = ("words", "_level", "_derived")

    def __init__(self, words):
        object.__setattr__(self, "words", _make_words(words))
        # antiderive and hat_operator results, keyed (op, side, var), and
        # the evaluation program; not part of the value, so == and hash
        # ignore it
        object.__setattr__(self, "_derived", {})
        level = None
        for w in self.words:
            lv = w.tree._level
            if lv == _MIXED:
                raise DimensionError("constants of different levels in one word")
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
        return any(cls in (OneOp, OneOpC) for w in self.words for cls, _ in w.tree._kinds)

    def variables(self) -> set:
        return {var for w in self.words for _, var in w.tree._kinds}

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
    sub = "" if leaf.var == 1 else f"_{leaf.var}"
    power = f"^{leaf.p}" if isinstance(leaf, _Power) and leaf.p != 1 else ""
    return f"{leaf.symbol}{sub}{power}"


def _render_coeff(c: Fraction) -> str:
    if c.denominator == 1:
        return str(c.numerator)
    return _fmt_num(float(c))


def _render_word(w: Word) -> str:
    """Unsigned rendering of a word (the caller emits the sign)."""
    body = w.tree._text
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
        """Terms joined by + and -; the sign of the first term is optional."""
        words, first = [], True
        while True:
            m = self.peek()
            signed = m is not None and m.group("punct") in ("+", "-")
            if not (first or signed):
                return words
            if signed:
                self.take()
            sign = -1 if signed and m.group("punct") == "-" else 1
            words += [(sign * c, t) for c, t in self.parse_term()]
            first = False

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
            if len(values) not in _VALID_DIMS:
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
        if not w.tree._kinds:
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


def phrase_distance(nu: Phrase, mu: Phrase, b: float = 0.5) -> float:
    """d(nu, mu) = sum_j l_j b^j over homogeneity degrees j, for b in (0, 1).

    l_j is 0 when the degree-j word multisets coincide and otherwise the
    maximum length over the words in their symmetric difference (equal
    words never contribute, so d(nu, nu) = 0).
    """
    if not 0.0 < b < 1.0:
        raise ValueError("b must lie in (0, 1)")
    ga, gb = nu.degree_groups(), mu.degree_groups()
    total = 0.0
    for j in sorted(set(ga) | set(gb)):
        wa = {(w.coeff, w.tree): w for w in ga.get(j, [])}
        wb = {(w.coeff, w.tree): w for w in gb.get(j, [])}
        if wa.keys() == wb.keys():
            continue
        diff = [w for k, w in wa.items() if k not in wb]
        diff += [w for k, w in wb.items() if k not in wa]
        total += max(word_length(w) for w in diff) * b ** j
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


def _compile(phrase: Phrase) -> tuple:
    """The straight-line evaluation program of a phrase: (has_operator,
    number of slots, words).

    Each word is (coefficient, loads, products, root slot, drop), in the
    order of evaluation.  The loads fill the slots of the leaves first met
    in the word: (slot, "c", the constant's array), (slot, "e" or "ec",
    var) for the one, and (slot, symbol, var) for I, Ic and the bases of
    the power chains of z and zc.  The products are (dst, left, right,
    dead); dead and drop list the product slots read for the last time by
    that product and by the word's sum.  Equal product nodes share a slot;
    z^p is the chain z^2 = z z, ..., z^p = z^{p-1} z.
    """
    products = {}  # product node -> slot; equal nodes share one
    leaves = {}  # id of a leaf node -> slot
    chains = {}  # (symbol, var) -> the slots of the powers 1, 2, ...
    words = []
    size = 0

    def new_slot():
        nonlocal size
        size += 1
        return size - 1

    def power(leaf, loads, steps):
        chain = chains.get((leaf.symbol, leaf.var))
        if chain is None:
            chain = chains[leaf.symbol, leaf.var] = [new_slot()]
            loads.append((chain[0], leaf.symbol, leaf.var))
        while len(chain) < leaf.p:
            chain.append(new_slot())
            steps.append((chain[-1], chain[-2], chain[0]))
        return chain[leaf.p - 1]

    def visit(node, loads, steps):
        if isinstance(node, Mul):
            slot = products.get(node)
            if slot is None:
                left = visit(node.left, loads, steps)
                right = visit(node.right, loads, steps)
                slot = products[node] = new_slot()
                steps.append((slot, left, right))
            return slot
        slot = leaves.get(id(node))
        if slot is None:
            if isinstance(node, _Power):
                slot = power(node, loads, steps)
            elif isinstance(node, Const):
                slot = new_slot()
                loads.append((slot, "c", np.asarray(node.values)))
            else:
                slot = new_slot()
                loads.append((slot, node.symbol, node.var))
            leaves[id(node)] = slot
        return slot

    for w in phrase.words:
        loads, steps = [], []
        root = visit(w.tree, loads, steps)
        words.append((w.coeff, loads, steps, root))

    # walking the program backwards, a product slot is dead after the first
    # read met, which is its last
    product_slots, live = set(products.values()), set()

    def last_reads(*slots):
        dead = tuple(s for s in dict.fromkeys(slots) if s in product_slots and s not in live)
        live.update(dead)
        return dead

    program = []
    for coeff, loads, steps, root in reversed(words):
        drop = last_reads(root)
        compiled = []
        for dst, left, right in reversed(steps):
            compiled.append((dst, left, right, last_reads(left, right)))
        program.append((coeff, tuple(loads), tuple(reversed(compiled)), root, drop))
    return phrase.has_operator(), size, tuple(reversed(program))


def _leaf_value(kind, arg, zenv: dict, henv: dict, dim: int):
    if kind == "c":
        return arg
    if kind in ("e", "ec"):
        one = np.zeros(dim)
        one[0] = 1.0
        return one
    if kind in ("I", "Ic"):
        if arg not in henv:
            raise MissingOperatorArgumentError(f"no operator argument for variable {arg}")
        return conj_coeffs(henv[arg]) if kind == "Ic" else henv[arg]
    if arg not in zenv:
        raise MissingOperatorArgumentError(f"no value supplied for variable {arg}")
    return conj_coeffs(zenv[arg]) if kind == "zc" else zenv[arg]


def eval_phrase(phrase: Phrase, zval, h=None):
    """Evaluate a phrase at z (CdNumber or (..., 2^r) array).

    Leaves map as: constants to themselves, e and ec to 1, z^p and zc^p to
    the powers of z and conj(z), I and Ic to h and conj(h).  h is required
    whenever the phrase contains operator slots; for several variables pass
    dicts {var: value}.  The phrase's program, compiled on the first call
    and kept, multiplies each distinct product subtree once.
    """
    zenv = _as_env(zval)
    henv = _as_env(h)
    program = phrase._derived.get("program")
    if program is None:
        program = phrase._derived["program"] = _compile(phrase)
    has_operator, size, words = program
    if has_operator and not henv:
        raise MissingOperatorArgumentError("phrase contains operator slots; supply h")
    dims = {v.shape[-1] for v in zenv.values()} | {v.shape[-1] for v in henv.values()}
    if phrase.level is not None:
        dims.add(1 << phrase.level)
    if len(dims) > 1:
        raise DimensionError(f"mixed dimensions in evaluation: {sorted(dims)}")
    if not dims:
        raise DimensionError("cannot infer the algebra dimension")
    dim = dims.pop()
    if dim not in _KERNEL_DIMS:  # a phrase with no product meets no kernel check
        raise DimensionError(f"cannot evaluate in dimension {dim}: it must be in {_KERNEL_DIMS}")
    batch = np.broadcast_shapes(*(v.shape[:-1] for v in list(zenv.values()) + list(henv.values())))
    values = [None] * size
    total = np.zeros(batch + (dim,))
    for coeff, loads, steps, root, drop in words:
        coeff = float(coeff)
        for slot, kind, arg in loads:
            values[slot] = _leaf_value(kind, arg, zenv, henv, dim)
        for dst, left, right, dead in steps:
            values[dst] = mul_coeffs(values[left], values[right])
            for slot in dead:
                values[slot] = None
        total = total + coeff * values[root]
        for slot in drop:
            values[slot] = None
    if isinstance(zval, CdNumber) or (isinstance(zval, dict) and zval and
                                      isinstance(next(iter(zval.values())), CdNumber)):
        if total.ndim == 1:
            return CdNumber(total)
    return total


# ---------------------------------------------------------------------------
# differentiation and antidifferentiation
# ---------------------------------------------------------------------------

def _check_z_only(phrase: Phrase, var: int, op: str):
    rejected = {(cls, var) for cls in (ZcPow, Ec, OneOpC, OneOp)}
    for w in phrase.words:
        if rejected.isdisjoint(w.tree._kinds):
            continue
        # the first rejected leaf of the word names the error
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
    return (ZPow, var) in tree._kinds or (E, var) in tree._kinds


def _leibniz(tree, leaf_rule, var: int) -> list:
    """Product rule down the bracket tree: the (c, tree') terms in which one
    z^p leaf of var is replaced by each (c, leaf') term of leaf_rule(leaf);
    a subtree without such a leaf has none."""
    if (ZPow, var) not in tree._kinds:
        return []
    if isinstance(tree, Mul):
        return ([(c, Mul(t, tree.right)) for c, t in _leibniz(tree.left, leaf_rule, var)]
                + [(c, Mul(tree.left, t)) for c, t in _leibniz(tree.right, leaf_rule, var)])
    return leaf_rule(tree)


def _expand(terms, rule) -> list:
    """The (c c2, t2) terms over every (c2, t2) in rule(t), for each (c, t)."""
    return [(c * c2, t2) for c, t in terms for c2, t2 in rule(t)]


def _terms(phrase: Phrase) -> list:
    return [(w.coeff, w.tree) for w in phrase.words]


def _d_leaf(leaf, var: int) -> list:
    """Derivative at h=1 of a leaf z^p of var: z -> e, z^p -> p z^{p-1}."""
    if leaf.p == 1:
        return [(Fraction(1), E(var))]
    return [(Fraction(leaf.p), ZPow(leaf.p - 1, var))]


def _d_tree(tree, var: int) -> list:
    return _leibniz(tree, lambda leaf: _d_leaf(leaf, var), var)


def _a_tree(tree, var: int, side: str) -> list:
    """Antiderivative terms of one tree; inverse of _d_tree."""
    if isinstance(tree, ZPow) and tree.var == var:
        return [(Fraction(1, tree.p + 1), ZPow(tree.p + 1, var))]
    if isinstance(tree, E) and tree.var == var:
        return [(Fraction(1), ZPow(1, var))]
    lact = isinstance(tree, Mul) and _has_active(tree.left, var)
    ract = isinstance(tree, Mul) and _has_active(tree.right, var)
    if not (lact or ract):
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
    """Full derivative of a leaf z^p of var: z^p -> sum_i z^i I z^{p-1-i}."""
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
            _terms(mu), lambda t: _leibniz(t, lambda leaf: _full_d_leaf(leaf, var), var)))
    return phrase._derived[key]
