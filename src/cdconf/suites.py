"""Named verification suites behind the `suite` command and the acceptance tests.

Each suite draws every random quantity from a single seeded generator, so
identical (name, seed) invocations produce identical reports.  A report
carries one named case per checked property with its worst residual; the
suite passes when all cases pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import phrase as ph
from .algebra import CdNumber, cd, conj_coeffs, inv, mul, mul_coeffs
from .calculus import (
    RealJacobian,
    factor_octonion_givens,
    factor_quaternion,
    is_pseudoconformal_at,
    jacobian,
    left_mul_matrix,
    right_mul_matrix,
)
from .contour import (PlanarLoop, PlanarPath, _plane_projection, count_zeros, disc_samples,
                      line_integral, max_principle_check, rouche_equal)
from .domains import (
    BallAutomorphism,
    HomogeneousNorm,
    ball_apply,
    ball_to_halfspace,
    cartan_check,
    cayley_to_ball,
    halfspace_coordinate,
    schwarz_check,
)
from .errors import CdconfError
from .moebius import (
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
    sphere_residual,
    symmetric_point,
)
from .normal import AffineMap, CompactGrid, classify_sequence

__all__ = ["SUITES", "SuiteCase", "SuiteReport", "run_suite", "list_suites", "resolve_suite",
           "sample", "ball_points"]

# Attempts allowed per requested sample before `sample` gives up.
ATTEMPTS_PER_SAMPLE = 50


@dataclass(frozen=True)
class SuiteCase:
    name: str
    passed: bool
    worst: float
    tolerance: float

    def to_json(self):
        return {
            "case": self.name,
            "passed": bool(self.passed),
            "worst": float(self.worst),
            "tolerance": float(self.tolerance),
        }


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    seed: int
    cases: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.cases)

    def to_json(self):
        return {
            "suite": self.suite,
            "seed": self.seed,
            "passed": self.passed,
            "cases": [c.to_json() for c in self.cases],
        }


def _case(name, worst, tol):
    return SuiteCase(name, worst <= tol, float(worst), float(tol))


def _verdict(name, ok):
    """A case that records a yes/no property: worst 0 when it holds, else 1."""
    return _case(name, 0.0 if ok else 1.0, 0.5)


# ---------------------------------------------------------------------------
# random generators shared by suites
# ---------------------------------------------------------------------------

def rand_cd(rng, level, scale=1.0):
    return cd(rng.normal(size=1 << level) * scale)


def rand_unit(rng, level):
    v = rng.normal(size=1 << level)
    return cd(v / np.linalg.norm(v))


def rand_imag_unit(rng, level):
    v = rng.normal(size=1 << level)
    v[0] = 0.0
    return cd(v / np.linalg.norm(v))


def sample(n, attempt):
    """The first n results of attempt(k) that are not None, in draw order.

    k is the number accepted so far.  Exceptions from `attempt` propagate;
    after ATTEMPTS_PER_SAMPLE * n attempts without n acceptances the draw
    fails with CdconfError naming the accepted and attempted counts.
    """
    accepted = []
    for _ in range(ATTEMPTS_PER_SAMPLE * n):
        if len(accepted) == n:
            break
        value = attempt(len(accepted))
        if value is not None:
            accepted.append(value)
    if len(accepted) < n:
        raise CdconfError(f"accepted {len(accepted)} of {n} samples "
                          f"in {ATTEMPTS_PER_SAMPLE * n} attempts")
    return accepted


def ball_points(rng, level, n, scale, bound):
    """n draws of rand_cd(rng, level, scale) with norm below `bound`."""
    def attempt(_):
        v = rand_cd(rng, level, scale)
        return v if v.norm() < bound else None
    return sample(n, attempt)


def _random_mulq(rng):
    """A two-sided quaternion multiplication by scaled random units."""
    return MulQ(rand_unit(rng, 2) * rng.uniform(0.5, 2.0),
                rand_unit(rng, 2) * rng.uniform(0.5, 2.0))


def _random_angle(rng):
    """One Givens angle (k, m, theta) of an octonion rotation."""
    k, m = sorted(rng.choice(8, size=2, replace=False))
    return int(k), int(m), float(rng.uniform(-math.pi, math.pi))


def random_word(rng, level, n_gens=4):
    """Random generator word; inversions are mixed with shifts and rotations."""
    gens = []
    for _ in range(n_gens):
        kind = rng.integers(0, 3)
        if kind == 0:
            gens.append(Shift(rand_cd(rng, level)))
        elif kind == 1:
            gens.append(Inv())
        elif level == 2:
            gens.append(_random_mulq(rng))
        else:
            n_angles = int(rng.integers(1, 4))
            gens.append(RotO(tuple(_random_angle(rng) for _ in range(n_angles))))
    return MoebiusWord(gens, level)


def word_safe_at(word, z):
    """True when the orbit of z stays well clear of poles and blow-up: its
    norm lies in (0.15, 20) before each inversion and below 20 after each
    generator."""
    x = z.coeffs
    for gen in word.generators:
        if isinstance(gen, Inv) and not 0.15 < np.linalg.norm(x) < 20.0:
            return False
        x = gen.apply_coeffs(x)
        if np.linalg.norm(x) > 20.0:
            return False
    return True


def _random_tree(rng, factors):
    """Combine single-factor phrases with a random binary bracket tree."""
    if len(factors) == 1:
        return factors[0]
    cut = int(rng.integers(1, len(factors)))
    return _random_tree(rng, factors[:cut]) * _random_tree(rng, factors[cut:])


def random_phrase(rng, level, max_words=4, max_degree=6):
    """Random z-only phrase with explicit random bracket trees."""
    words = []
    for _ in range(int(rng.integers(1, max_words + 1))):
        n_groups = int(rng.integers(1, 4))
        factors = []
        if rng.random() < 0.7:
            factors.append(ph.const(rand_cd(rng, level)))
        budget = max_degree
        for g in range(n_groups):
            p = int(rng.integers(1, max(2, budget // max(1, n_groups - g) + 1)))
            p = min(p, budget)
            if p < 1:
                break
            budget -= p
            factors.append(ph.z(p))
            if rng.random() < 0.8:
                factors.append(ph.const(rand_cd(rng, level)))
        words.append(_random_tree(rng, factors) * float(rng.uniform(0.5, 2.0)))
    out = words[0]
    for w in words[1:]:
        out = out + w
    return out


# ---------------------------------------------------------------------------
# suite implementations
# ---------------------------------------------------------------------------

def _suite_algebra_laws(rng):
    cases = []
    for level in (2, 3):
        x = rng.normal(size=(10_000, 1 << level))
        y = rng.normal(size=(10_000, 1 << level))
        nx, ny = np.linalg.norm(x, axis=1), np.linalg.norm(y, axis=1)
        xy = mul_coeffs(x, y)
        alt1 = mul_coeffs(x, xy) - mul_coeffs(mul_coeffs(x, x), y)
        alt2 = mul_coeffs(mul_coeffs(y, x), x) - mul_coeffs(y, mul_coeffs(x, x))
        scale = nx ** 2 * ny
        worst_alt = max(
            float(np.max(np.linalg.norm(alt1, axis=1) / scale)),
            float(np.max(np.linalg.norm(alt2, axis=1) / scale)),
        )
        cases.append(_case(f"alternativity-r{level}", worst_alt, 1e-11))
        rel = np.abs(np.linalg.norm(xy, axis=1) - nx * ny) / (nx * ny)
        cases.append(_case(f"norm-multiplicativity-r{level}", float(np.max(rel)), 1e-11))
        anti = conj_coeffs(xy) - mul_coeffs(conj_coeffs(y), conj_coeffs(x))
        cases.append(_case(
            f"conjugation-antihomomorphism-r{level}",
            float(np.max(np.linalg.norm(anti, axis=1) / scale * nx)), 1e-11))
    # doubling rule against the quaternion-pair product formulas, l = i_4
    a, b, z0, zl = (rng.normal(size=(1000, 4)) for _ in range(4))
    zero = np.zeros((1000, 4))
    o = lambda lo, hi: np.concatenate([lo, hi], axis=1)
    qc = conj_coeffs
    za = o(z0, zl)
    sides = (
        # (a (z0 + zl l)) b = a z0 b + (zl a conj(b)) l
        (mul_coeffs(mul_coeffs(o(a, zero), za), o(b, zero)),
         o(mul_coeffs(mul_coeffs(a, z0), b), mul_coeffs(mul_coeffs(zl, a), qc(b)))),
        # ((a l)(z0 + zl l))(b l) = -(conj(b) a conj(z0)) - (b conj(zl) a) l
        (mul_coeffs(mul_coeffs(o(zero, a), za), o(zero, b)),
         o(-mul_coeffs(mul_coeffs(qc(b), a), qc(z0)), -mul_coeffs(mul_coeffs(b, qc(zl)), a))),
        # (a (z0 + zl l))(b l) = -(conj(b) zl a) + (b a z0) l
        (mul_coeffs(mul_coeffs(o(a, zero), za), o(zero, b)),
         o(-mul_coeffs(mul_coeffs(qc(b), zl), a), mul_coeffs(mul_coeffs(b, a), z0))),
        # ((a l)(z0 + zl l)) b = -(conj(zl) a b) + (a conj(z0) conj(b)) l
        (mul_coeffs(mul_coeffs(o(zero, a), za), o(b, zero)),
         o(-mul_coeffs(mul_coeffs(qc(zl), a), b), mul_coeffs(mul_coeffs(a, qc(z0)), qc(b)))),
    )
    worst = max(float(np.max(np.linalg.norm(lhs - rhs, axis=1))) for lhs, rhs in sides)
    scale3 = float(np.median(np.linalg.norm(a, axis=1)))
    cases.append(_case("doubling-vs-pair-formulas", worst / max(scale3, 1.0) ** 3, 1e-11))
    return cases


def _suite_factorization(rng):
    worst_rec = 0.0
    worst_kernel = 0.0
    for _ in range(1000):
        a, b = rand_unit(rng, 2), rand_unit(rng, 2)
        lam = rng.uniform(0.2, 5.0)
        jm = RealJacobian(2, lam * left_mul_matrix(a) @ right_mul_matrix(b))
        fac = factor_quaternion(jm)
        worst_rec = max(worst_rec, float(np.linalg.norm(fac.matrix() - jm.entries, 2)))
        fac2 = factor_quaternion(
            RealJacobian(2, lam * left_mul_matrix(-a) @ right_mul_matrix(-b)))
        kerr = min((fac.a - fac2.a).norm() + (fac.b - fac2.b).norm(),
                   (fac.a + fac2.a).norm() + (fac.b + fac2.b).norm())
        worst_kernel = max(worst_kernel, kerr, abs(fac.lam - lam) / lam)
    cases = [
        _case("thm4-roundtrip", worst_rec, 1e-7),
        _case("thm4-sign-kernel", worst_kernel, 1e-9),
    ]
    worst_oct = 0.0
    max_angles = 0
    for _ in range(100):
        q, _ = np.linalg.qr(rng.normal(size=(8, 8)))
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        lam = rng.uniform(0.2, 5.0)
        jm = RealJacobian(3, lam * q)
        fac = factor_octonion_givens(jm)
        max_angles = max(max_angles, len(fac.angles))
        worst_oct = max(worst_oct, float(np.linalg.norm(fac.matrix() - jm.entries, 2)))
    cases.append(_case("thm5-givens-roundtrip", worst_oct, 1e-8))
    cases.append(_case("thm5-angle-budget", float(max_angles), 28.0))
    return cases


def _sample_word_point(rng, level):
    def attempt(_):
        w = random_word(rng, level, 3)
        z = rand_cd(rng, level)
        return (w, z) if word_safe_at(w, z) else None
    return sample(1, attempt)[0]


def _suite_closure(rng):
    level_cycle = [2, 2, 3]

    def attempt(k):
        level = level_cycle[k % len(level_cycle)]
        try:
            f, z = _sample_word_point(rng, level)
            g, _ = _sample_word_point(rng, level)
        except CdconfError:
            return None
        fz = apply_word(f, z)
        if fz is INF or not word_safe_at(g, fz):
            return None
        vf = is_pseudoconformal_at(f, z, tol=1e-3)
        vg = is_pseudoconformal_at(g, fz, tol=1e-3)
        vc = is_pseudoconformal_at(compose(f, g), z, tol=1e-3)
        if not (vf.ok and vg.ok and vc.ok):
            return math.inf, 0.0
        vi = is_pseudoconformal_at(inverse(f), fz, tol=1e-3)
        return (abs(vc.lam - vf.lam * vg.lam) / (vf.lam * vg.lam),
                abs(vi.lam - 1.0 / vf.lam) * vf.lam if vi.ok else math.inf)

    comps, invs = zip(*sample(200, attempt))
    return [
        _case("thm6-composition-dilation", max(0.0, *comps), 1e-6),
        _case("thm6-inverse-dilation", max(0.0, *invs), 1e-6),
    ]


def _suite_antiderive(rng):
    worst_loop = 0.0
    worst_open = 0.0
    exact = True
    for k in range(200):
        level = 2 if k % 3 else 3
        nu = random_phrase(rng, level=level)
        side = "left" if k % 2 == 0 else "right"
        mu = ph.antiderive(nu, side=side)
        if ph.derivative_at_one(mu) != nu:
            exact = False
        m = rand_imag_unit(rng, level)
        a0 = CdNumber.zero(level)
        loop = PlanarLoop.circle(a0, m, center=(rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3)),
                                 radius=rng.uniform(0.5, 1.2), n=32)
        val = line_integral(nu, loop, refine=1e-11, side=side)
        worst_loop = max(worst_loop, val.norm())
        seg = PlanarPath.segment(a0, m, (rng.uniform(-1, 0), rng.uniform(-1, 0)),
                                 (rng.uniform(0, 1), rng.uniform(0, 1)), n=16)
        val = line_integral(nu, seg, refine=1e-11, side=side)
        z0, z1 = seg.point(0), seg.point(len(seg.pts) - 1)
        oracle = ph.eval_phrase(mu, z1) - ph.eval_phrase(mu, z0)
        worst_open = max(worst_open, (val - oracle).norm())
    return [
        _verdict("thm17-symbolic-roundtrip", exact),
        _case("thm18-closed-loop", worst_loop, 1e-8),
        _case("thm18-open-endpoints", worst_open, 1e-8),
    ]


def _suite_argument_principle(rng):
    def attempt(k):
        level = 2 if k % 2 else 3
        m = rand_imag_unit(rng, level)
        a0 = CdNumber.zero(level)
        loop = PlanarLoop.circle(a0, m, radius=1.0, n=64)
        x, y = rng.uniform(-0.55, 0.55), rng.uniform(-0.55, 0.55)
        za = a0 + CdNumber.real(x, level) + m * y
        outside = a0 + CdNumber.real(3.0 + rng.uniform(0, 2), level)
        c_ = rand_cd(rng, level)
        d_ = rand_cd(rng, level)
        if c_.norm() < 0.1 or d_.norm() < 0.1:
            return None
        order = 1 + (k % 2)
        if order == 1:
            f = lambda z: mul(mul(c_, z - za), d_)
        else:
            f = lambda z: mul(z - za, z - za)
        fout = lambda z: mul(mul(c_, z - outside), d_)
        counts = count_zeros(f, loop), count_zeros(fout, loop)
        # Rouche: a uniformly small perturbation cannot change the count
        if k % 2:
            g = lambda z: mul(z - za, z - za)
            expected = 2
        else:
            g = lambda z: z - za
            expected = 1
        small = lambda z: CdNumber.real(0.05, level)
        res = rouche_equal(small, g, loop)
        return counts == (order, 0), res.holds and res.n_g == expected

    counts_ok, rouches_ok = zip(*sample(50, attempt))
    return [_verdict("thm23-zero-counts", all(counts_ok)),
            _verdict("thm24-rouche", all(rouches_ok))]


def _disc_pole_distance(word, a0, m, radius):
    """Distance from the word's poles to the closed planar disc."""
    best = math.inf
    for p in word.poles():
        px, py, off = _plane_projection(a0, m, p)
        inplane = max(0.0, math.hypot(px, py) - radius)
        best = min(best, math.hypot(off, inplane))
    return best


def _random_plane_word(rng, level, m):
    """Word whose constants lie in the plane R + R*m, optionally finished
    with one general similarity.

    A pole sitting off the loop's plane with an in-disc projection peaks
    the modulus at the interior projection point, so the boundary-supremum
    statement needs the orbit confined to the plane; a trailing two-sided
    multiplication or rotation only scales the modulus and keeps it.
    """
    gens = []
    for _ in range(4):
        kind = rng.integers(0, 3)
        if kind == 0:
            gens.append(Shift(CdNumber.real(rng.normal(), level) + m * rng.normal()))
        elif kind == 1:
            gens.append(Inv())
        else:
            u = CdNumber.real(rng.normal(), level) + m * rng.normal()
            if u.norm() < 0.2:
                continue
            if level == 2:
                gens.append(MulQ(u, CdNumber.one(level)))
            else:
                gens.append(Shift(u))
    if level == 2 and rng.random() < 0.5:
        gens.append(_random_mulq(rng))
    elif level == 3 and rng.random() < 0.5:
        gens.append(RotO((_random_angle(rng),)))
    return MoebiusWord(gens, level)


def _suite_max_principle(rng):
    def attempt(k):
        level = 2 if k % 2 else 3
        m = rand_imag_unit(rng, level)
        w = _random_plane_word(rng, level, m)
        a0 = CdNumber.real(rng.normal() * 0.3, level) + m * (rng.normal() * 0.3)
        radius = rng.uniform(0.4, 1.0)
        if _disc_pole_distance(w, a0, m, radius) < 0.2:
            return None
        # boundary sampled densely; interior samples stay strictly inside so
        # the discrete boundary supremum dominates the continuum gap
        loop = PlanarLoop.circle(a0, m, radius=radius, n=256)
        try:
            samples = disc_samples((0.0, 0.0), 0.97 * radius, 1000, rng, a0=a0, m=m)
            res = max_principle_check(w, loop, samples, tol=1e-9)
        except CdconfError:
            return None
        return res.sup_interior - res.sup_boundary

    return [_case("thm28-interior-vs-boundary", max(-math.inf, *sample(50, attempt)), 1e-9)]


def _suite_hypersphere(rng):
    def attempt(k):
        level = 2 if k % 2 else 3
        w = random_word(rng, level, n_gens=int(rng.integers(2, 6)))
        if rng.random() < 0.7:
            s = Hypersphere.from_center_radius(rand_cd(rng, level), rng.uniform(0.3, 2.0))
        else:
            j = rand_cd(rng, level)
            s = Hypersphere(0.0, j, rng.normal())
        try:
            img = map_hypersphere(w, s)
        except CdconfError:
            return None
        pts = s.sample(16, rng)
        vals = w.apply_many(pts)
        if not np.all(np.isfinite(vals)) or np.max(np.abs(vals)) > 1e8:
            return None
        return sphere_residual(img, vals)

    return [_case("thm33-image-sphere-residual", max(0.0, *sample(1000, attempt)), 1e-9)]


def _suite_symmetry(rng):
    def attempt(k):
        level = 2 if k % 2 else 3
        w = random_word(rng, level, n_gens=int(rng.integers(2, 5)))
        s = Hypersphere.from_center_radius(rand_cd(rng, level), rng.uniform(0.4, 2.0))
        z1 = rand_cd(rng, level)
        if (z1 - s.center()).norm() < 0.05:
            return None
        z2 = symmetric_point(z1, s)
        if z2 is INF:
            return None
        try:
            img = map_hypersphere(w, s)
        except CdconfError:
            return None
        if img.is_plane() or abs(img.e) < 1e-6:
            return None  # symmetric points need a proper image sphere
        w1, w2 = apply_word(w, z1), apply_word(w, z2)
        if w1 is INF or w2 is INF or w1.norm() > 1e4 or w2.norm() > 1e4:
            return None
        lhs = symmetric_point(w1, img)
        if lhs is INF:
            return None
        return (lhs - w2).norm() / (1.0 + lhs.norm() + w2.norm())

    return [_case("thm35-symmetry-square", max(0.0, *sample(1000, attempt)), 1e-8)]


def _suite_ball(rng):
    worst_zero = 0.0
    worst_inv = 0.0
    worst_mod = 0.0
    for k in range(1000):
        level = 2 if k % 2 else 3
        a = ball_points(rng, level, 1, 0.4, 0.95)[0]
        s = BallAutomorphism((a,))
        worst_zero = max(worst_zero, ball_apply(s, a).norm())
        v = ball_points(rng, level, 1, 0.4, 0.98)[0]
        w = ball_apply(s, v)
        worst_mod = max(worst_mod, w.norm() - 1.0)
        worst_inv = max(worst_inv, (ball_apply(s, w) - v).norm())
    return [
        _case("thm37-sa-at-a", worst_zero, 1e-9),
        _case("thm37-involution", worst_inv, 1e-9),
        _case("thm37-into-ball", worst_mod, 0.0),
    ]


def _suite_cayley(rng):
    def attempt(k):
        level = 2 if k % 2 else 3
        m = rand_imag_unit(rng, level)
        z = rand_cd(rng, level)
        t = halfspace_coordinate(z, m)
        if t <= 0:
            z = z - m * (2.0 * t)
        if halfspace_coordinate(z, m) < 1e-3:
            return None
        w = cayley_to_ball(z, m)
        if w is INF:
            return None
        back = ball_to_halfspace(w, m)
        if back is INF:
            return None
        lhs = 1.0 - w.norm2()
        zm = mul(z, m)
        rhs = mul(mul(inv(z + m) * (-4.0), CdNumber.real(zm.re, level)),
                  inv(z.conj() - m))
        return (back - z).norm() / (1.0 + z.norm()), abs(lhs - rhs.re) + rhs.imag().norm()

    roundtrips, identities = zip(*sample(1000, attempt))
    return [
        _case("sec32-roundtrip", max(0.0, *roundtrips), 1e-10),
        _case("sec32-positivity-identity", max(0.0, *identities), 1e-10),
    ]


def _suite_cartan(rng):
    worst = 0.0
    for level in (2, 3):
        a = ball_points(rng, level, 1, 0.3, 0.9)[0]
        s = BallAutomorphism((a,))
        f = lambda z, s=s: ball_apply(s, ball_apply(s, z))
        samples = ball_points(rng, level, 250, 0.4, 0.95)
        res = cartan_check(f, CdNumber.zero(level), samples, tol=1e-8)
        if not res.is_identity:
            return [_case("thm30-identity-certified", math.inf, 1e-8)]
        worst = max(worst, res.max_deviation)
    return [_case("thm30-identity-certified", worst, 1e-8)]


def _suite_schwarz(rng):
    euclid = HomogeneousNorm("euclidean")
    maxn = HomogeneousNorm("max")
    worst = 0.0
    for k in range(500):
        level = 2 if k % 2 else 3
        if k % 4 < 2:
            # origin-fixing unit frame z -> (u z) v, checked in both norms
            u, v = rand_unit(rng, level), rand_unit(rng, level)
            f = lambda z, u=u, v=v: mul(mul(u, z), v)
            norm_in, norm_out = (euclid, euclid) if k % 2 else (maxn, maxn)
        else:
            # S_w o g with g = S_a o frame and w = g(0): fixes the origin
            a = ball_points(rng, level, 1, 0.3, 0.9)[0]
            u, v = rand_unit(rng, level), rand_unit(rng, level)
            sa = BallAutomorphism((a,))
            g = lambda z, u=u, v=v, sa=sa: ball_apply(sa, mul(mul(u, z), v))
            w0 = g(CdNumber.zero(level))
            sw = BallAutomorphism((w0,))
            f = lambda z, g=g, sw=sw: ball_apply(sw, g(z))
            norm_in = norm_out = euclid
        samples = ball_points(rng, level, 40, 0.4, 0.97)
        res = schwarz_check(f, norm_in, norm_out, samples, tol=1e-9)
        if not res.holds:
            return [_case("thm36-norm-shrinking", math.inf, 1e-9)]
        worst = max(worst, res.worst_ratio - 1.0)
    return [_case("thm36-norm-shrinking", worst, 1e-9)]


def _suite_montel(rng):
    base_a = rand_cd(rng, 2, 0.8)
    base_b = rand_cd(rng, 2, 0.8)
    base_c = rand_cd(rng, 2, 0.4)
    fs = []
    for k in range(64):
        if k % 2 == 0:
            # convergent branch of the bounded family
            eps = 2.0 ** (-(k // 2)) * 0.3
            fs.append(AffineMap(base_a + CdNumber.real(eps, 2), base_b, base_c))
        else:
            fs.append(AffineMap(rand_cd(rng, 2, 0.8), rand_cd(rng, 2, 0.8),
                                rand_cd(rng, 2, 0.4)))
    grid = CompactGrid(CdNumber.zero(2), 1.0, resolution=729)
    res = classify_sequence(fs, grid, tol=1e-3)
    # an extracted subsequence of at least an eighth of the family
    return [_verdict("thm13-extraction", res.kind == "Extracted" and len(res.indices) >= 8)]


def _suite_fd_validity(rng):
    steps = (1e-3, 1e-4, 1e-5)
    a, b = rand_unit(rng, 2), rand_unit(rng, 2)
    z0 = rand_cd(rng, 2, 0.5)
    one = np.eye(4)

    def op_matrix(fn):
        cols = [fn(CdNumber(one[k])).coeffs for k in range(4)]
        return np.array(cols).T

    maps = {
        "azb": (lambda z: mul(mul(a, z), b),
                lambda z: left_mul_matrix(a) @ right_mul_matrix(b)),
        "z-squared": (lambda z: mul(z, z),
                      lambda z: op_matrix(lambda h: mul(z, h) + mul(h, z))),
        "z-cubed": (lambda z: mul(mul(z, z), z),
                    lambda z: op_matrix(lambda h: mul(mul(z, z), h)
                                        + mul(mul(z, h), z) + mul(mul(h, z), z))),
    }
    worst_ratio = 0.0
    errs = {}
    for name, (f, dop) in maps.items():
        exact = dop(z0)
        errs[name] = [float(np.max(np.abs(jacobian(f, z0, s).entries - exact))) for s in steps]
        worst_ratio = max(worst_ratio, *(err / (10.0 * s * s) for err, s in zip(errs[name], steps)))
    # second order: each tenfold step reduction cuts the error ~100x
    cubed = errs["z-cubed"]
    return [_case("fd-error-within-10-step-sq", worst_ratio, 1.0),
            _verdict("fd-second-order-observed", cubed[0] > 30.0 * cubed[1] or cubed[0] < 1e-12)]


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SuiteSpec:
    name: str
    anchor: str
    description: str
    runner: object


SUITES = (
    SuiteSpec("algebra-laws", "laws",
              "ring, norm and conjugation laws plus the doubling-rule cross-check",
              _suite_algebra_laws),
    SuiteSpec("thm4-thm5-factorization", "thm4,thm5",
              "quaternion isoclinic and octonion Givens factorization round-trips",
              _suite_factorization),
    SuiteSpec("thm6-closure", "thm6",
              "composition and inverse closure with multiplicative dilations",
              _suite_closure),
    SuiteSpec("thm17-antiderive-roundtrip", "thm17,thm18",
              "symbolic antidifferentiation round-trip and line-integral endpoints",
              _suite_antiderive),
    SuiteSpec("thm23-argument-principle", "thm23,thm24",
              "zero counts against constructed zero sets and the Rouche comparison",
              _suite_argument_principle),
    SuiteSpec("thm28-max-principle", "thm28",
              "interior modulus never beats the boundary supremum",
              _suite_max_principle),
    SuiteSpec("thm33-hypersphere", "thm33",
              "hypersphere images verified by on-sphere sampling",
              _suite_hypersphere),
    SuiteSpec("thm35-symmetry", "thm35",
              "symmetric points commute with fractional-linear words",
              _suite_symmetry),
    SuiteSpec("thm37-ball-automorphism", "thm37",
              "ball involution properties at the origin parameter and beyond",
              _suite_ball),
    SuiteSpec("sec32-cayley", "sec32",
              "half-space/ball transform round-trip and positivity identity",
              _suite_cayley),
    SuiteSpec("thm30-cartan", "thm30",
              "identity certification of the squared involution",
              _suite_cartan),
    SuiteSpec("thm36-schwarz", "thm36",
              "norm shrinking for origin-fixing self-maps in both norms",
              _suite_schwarz),
    SuiteSpec("thm13-montel", "thm13",
              "bounded affine family yields an extracted proximity-Cauchy subsequence",
              _suite_montel),
    SuiteSpec("fd-validity", "numerics",
              "finite-difference Jacobians match analytic operators at second order",
              _suite_fd_validity),
)


def list_suites():
    return [
        {"name": s.name, "anchor": s.anchor, "description": s.description}
        for s in SUITES
    ]


def resolve_suite(name: str) -> SuiteSpec:
    for s in SUITES:
        if s.name == name:
            return s
    raise KeyError(f"unknown suite {name!r}")


def run_suite(name: str, seed: int) -> SuiteReport:
    spec = resolve_suite(name)
    rng = np.random.default_rng(seed)
    cases = tuple(spec.runner(rng))
    return SuiteReport(spec.name, seed, cases)
