"""Reference arithmetic for checking cdconf's outputs, written apart from it.

Nothing here imports cdconf.  Products follow the doubling rule

    (a, b) (c, d) = (a c - conj(d) b,  d a + b conj(c))

recursively down to the reals, on (..., 2^r) coefficient arrays.  The
evaluators work on the benchmark's own specs:

* phrase spec: a tuple of words ``(coeff, tree)``; a tree is
  ``("z", p)``, ``("e",)``, ``("c", (c0, c1, ...))`` or
  ``("mul", left, right)``;
* word spec (fractional-linear): a tuple of generators ``("shift", c)``,
  ``("inv",)``, ``("mulq", a, b)``, ``("roto", ((k, m, t), ...))``;
* affine spec: ``(a, b, c)`` for z -> (a z) b + c.
"""

from __future__ import annotations

import math

import numpy as np


def conj(x):
    out = np.array(x, dtype=float, copy=True)
    out[..., 1:] *= -1.0
    return out


def mul(x, y):
    """Doubling-rule product of coefficient arrays; leading axes broadcast."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x.shape[-1]
    if n != y.shape[-1]:
        raise ValueError(f"dimension mismatch {n} vs {y.shape[-1]}")
    if n == 1:
        return x * y
    h = n // 2
    a, b = x[..., :h], x[..., h:]
    c, d = y[..., :h], y[..., h:]
    lo = mul(a, c) - mul(conj(d), b)
    hi = mul(d, a) + mul(b, conj(c))
    return np.concatenate(np.broadcast_arrays(lo, hi), axis=-1)


def norm(x):
    return np.linalg.norm(np.asarray(x, dtype=float), axis=-1)


def inv(x):
    x = np.asarray(x, dtype=float)
    return conj(x) / np.sum(x * x, axis=-1, keepdims=True)


def basis(k, dim):
    out = np.zeros(dim)
    out[k] = 1.0
    return out


def real(value, dim):
    return value * basis(0, dim)


def exp(x):
    """e^{Re x} (cos|v| + v/|v| sin|v|), v = Im x."""
    x = np.asarray(x, dtype=float)
    v = x.copy()
    v[0] = 0.0
    t = float(np.linalg.norm(v))
    out = v * (math.sin(t) / t) if t > 0.0 else np.zeros_like(x)
    out[0] = math.cos(t)
    return math.exp(x[0]) * out


def operator_matrix(fn, dim):
    """Real matrix of the linear map fn on coefficient vectors."""
    return np.stack([fn(basis(k, dim)) for k in range(dim)], axis=-1)


def givens(k, m, t, dim=8):
    g = np.eye(dim)
    c, s = math.cos(t), math.sin(t)
    g[k, k] = c
    g[k, m] = s
    g[m, k] = -s
    g[m, m] = c
    return g


def rotation_matrix(angles, dim=8):
    out = np.eye(dim)
    for k, m, t in angles:
        out = out @ givens(k, m, t, dim)
    return out


# ---------------------------------------------------------------------------
# phrase specs
# ---------------------------------------------------------------------------

def eval_tree(tree, z):
    """Value of a product tree at the (..., dim) points z."""
    kind = tree[0]
    if kind == "mul":
        return mul(eval_tree(tree[1], z), eval_tree(tree[2], z))
    if kind == "z":
        out = z
        for _ in range(tree[1] - 1):
            out = mul(out, z)
        return out
    if kind == "e":
        return np.broadcast_to(real(1.0, z.shape[-1]), z.shape)
    if kind == "c":
        return np.broadcast_to(np.asarray(tree[1], dtype=float), z.shape)
    raise ValueError(f"unknown tree node {kind!r}")


def eval_phrase(spec, z):
    """Sum of coeff * tree over the words of a phrase spec."""
    z = np.asarray(z, dtype=float)
    total = np.zeros(z.shape)
    for coeff, tree in spec:
        total = total + float(coeff) * eval_tree(tree, z)
    return total


# ---------------------------------------------------------------------------
# fractional-linear word specs
# ---------------------------------------------------------------------------

def apply_word(word, z):
    """Apply generators left to right to finite (..., dim) points."""
    out = np.array(z, dtype=float, copy=True)
    for gen in word:
        kind = gen[0]
        if kind == "shift":
            out = out + np.asarray(gen[1])
        elif kind == "inv":
            out = inv(out)
        elif kind == "mulq":
            out = mul(mul(np.asarray(gen[1]), out), np.asarray(gen[2]))
        elif kind == "roto":
            out = out @ rotation_matrix(gen[1], out.shape[-1]).T
        else:
            raise ValueError(f"unknown generator {kind!r}")
    return out


def inverse_word(word):
    out = []
    for gen in reversed(word):
        kind = gen[0]
        if kind == "shift":
            out.append(("shift", tuple(-np.asarray(gen[1]))))
        elif kind == "inv":
            out.append(gen)
        elif kind == "mulq":
            out.append(("mulq", tuple(inv(gen[1])), tuple(inv(gen[2]))))
        else:
            out.append(("roto", tuple((k, m, -t) for k, m, t in reversed(gen[1]))))
    return tuple(out)


def orbit_norms(word, z):
    """|z| before every generator and after the last one."""
    cur = np.asarray(z, dtype=float)
    norms = []
    for gen in word:
        norms.append(float(norm(cur)))
        cur = apply_word((gen,), cur)
    norms.append(float(norm(cur)))
    return norms


def word_poles(word, dim):
    """Finite points sent to infinity: one candidate per inversion."""
    poles = []
    for idx, gen in enumerate(word):
        if gen[0] == "inv":
            pre = inverse_word(word[:idx])
            p = apply_word(pre, np.zeros(dim)) if pre else np.zeros(dim)
            if np.all(np.isfinite(p)):
                poles.append(p)
    return poles


def word_dilation(word, z):
    """Closed-form dilation of a word at z: the product of the generators'."""
    lam = 1.0
    cur = np.asarray(z, dtype=float)
    for gen in word:
        kind = gen[0]
        if kind == "inv":
            lam /= float(np.dot(cur, cur))
        elif kind == "mulq":
            lam *= float(norm(gen[1]) * norm(gen[2]))
        cur = apply_word((gen,), cur)
    return lam


def sphere_residual(e, j, d, w):
    """Worst scale-free residual of E|w|^2 + 2<J, w> + D over the points w."""
    w = np.asarray(w, dtype=float)
    n2 = np.sum(w * w, axis=-1)
    val = e * n2 + 2.0 * (w @ np.asarray(j)) + d
    scale = max(abs(e), float(norm(j)), abs(d)) * (1.0 + n2)
    return float(np.max(np.abs(val / scale)))


# ---------------------------------------------------------------------------
# affine specs
# ---------------------------------------------------------------------------

def apply_affine(spec, z):
    a, b, c = (np.asarray(v, dtype=float) for v in spec)
    return mul(mul(a, z), b) + c


def affine_jacobian(spec):
    a, b, _ = (np.asarray(v, dtype=float) for v in spec)
    return operator_matrix(lambda h: mul(mul(a, h), b), a.shape[-1])


def affine_rho(f, g, nodes):
    """Closed form of rho for two affine maps: the Jacobians are constant,
    so rho = max_node |f - g| + ||J_f - J_g||_2."""
    gap = float(np.max(norm(apply_affine(f, nodes) - apply_affine(g, nodes))))
    return gap + float(np.linalg.norm(affine_jacobian(f) - affine_jacobian(g), 2))
