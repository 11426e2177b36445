"""Workload map-analysis: one item studies one map, one point at a time.

A round holds eleven items of fixed kinds; the seed draws every number in
them.  The odd count keeps the median latency inside one cluster of items.

* word (3 at level 2, 2 at level 3): a fractional-linear word is tested for
  pseudoconformality at pole-free points, against a second word by the
  chain rule, against its inverse, by the factorization of its Jacobian,
  and on a hypersphere through map_hypersphere and apply_many;
* zeros (1 per level): count_zeros on maps with zeros of known order
  inside and outside the loop, and rouche_equal against a small constant;
* maxmod (1 per level): max_principle_check on a word whose constants lie
  in the loop's plane, so its orbit stays in that plane;
* schwarz (1 per level): schwarz_check on an origin-fixing unit frame and
  on an origin-fixing ball map built from two involutions.

The time goes to batch-1 products and per-point Python in moebius,
calculus, contour and domains; there is no phrase work.
"""

from __future__ import annotations

import math

import numpy as np

import refarith as ref
from common import Workload, draw, in_plane, rand_imag_unit, rand_unit, require

from cdconf import algebra, calculus, contour, domains, moebius

PC_TOL = 1e-3
DILATION_RTOL = 1e-6
ROUNDTRIP_TOL = 1e-9
FACTOR_TOL = 1e-6
SPHERE_TOL = 1e-9
SPHERE_SAMPLES = 16
PC_POINTS = 2
ZERO_LOOP_SEGMENTS = 64
MAXMOD_SEGMENTS = 128
MAXMOD_SAMPLES = 400
SCHWARZ_SAMPLES = 40
DILATION_RANGE = (0.05, 20.0)

# (kind, level, generator kinds of the studied word, of the second word)
ROUND = (
    ("word", 2, ("shift", "inv", "mulq", "shift"), ("mulq", "shift", "inv")),
    ("word", 2, ("mulq", "inv", "shift", "inv", "shift"), ("shift", "inv", "mulq")),
    ("word", 2, ("shift", "mulq", "inv", "shift"), ("inv", "shift", "mulq")),
    ("word", 3, ("shift", "inv", "roto", "shift"), ("roto", "shift", "inv")),
    ("word", 3, ("roto", "shift", "inv", "shift", "inv"), ("shift", "inv", "roto")),
    ("zeros", 2, None, None),
    ("zeros", 3, None, None),
    ("maxmod", 2, ("shift", "inv", "mul", "shift", "inv"), None),
    ("maxmod", 3, ("shift", "inv", "mul", "inv", "roto"), None),
    ("schwarz", 2, None, None),
    ("schwarz", 3, None, None),
)


def random_generator(rng, kind, dim, plane=None):
    """Generator spec; with plane=M the constants lie in R + R*M."""
    if kind == "shift":
        if plane is not None:
            return ("shift", tuple(in_plane(np.zeros(dim), plane, rng.normal(), rng.normal())))
        return ("shift", tuple(rng.normal(size=dim)))
    if kind == "inv":
        return ("inv",)
    if kind == "mulq":
        return ("mulq", tuple(rand_unit(rng, 4) * rng.uniform(0.5, 2.0)),
                tuple(rand_unit(rng, 4) * rng.uniform(0.5, 2.0)))
    if kind == "mul":  # in-plane multiplier: a left product over H, a shift over O
        u = in_plane(np.zeros(dim), plane, rng.normal(), rng.normal())
        u *= rng.uniform(0.5, 2.0) / np.linalg.norm(u)
        return ("mulq", tuple(u), tuple(ref.real(1.0, 4))) if dim == 4 else ("shift", tuple(u))
    if kind == "roto":
        angles = []
        for _ in range(int(rng.integers(1, 4))):
            k, m = sorted(int(i) for i in rng.choice(8, size=2, replace=False))
            angles.append((k, m, float(rng.uniform(-math.pi, math.pi))))
        return ("roto", tuple(angles))
    raise ValueError(kind)


def build_word(spec, level):
    gens = []
    for gen in spec:
        if gen[0] == "shift":
            gens.append(moebius.Shift(algebra.CdNumber(gen[1])))
        elif gen[0] == "inv":
            gens.append(moebius.Inv())
        elif gen[0] == "mulq":
            gens.append(moebius.MulQ(algebra.CdNumber(gen[1]), algebra.CdNumber(gen[2])))
        else:
            gens.append(moebius.RotO(gen[1]))
    return moebius.MoebiusWord(gens, level)


def orbit_safe(word, z, low=0.15, high=20.0):
    """The orbit of z keeps clear of the poles and of blow-up."""
    norms = ref.orbit_norms(word, z)
    for gen, n in zip(word, norms):
        if gen[0] == "inv" and not low < n < high:
            return False
    return max(norms) < high


def ball_involution(a, z):
    """S_a(z) = (1 - z conj(a))^{-1} (a - z), the one-coordinate ball involution."""
    one = ref.real(1.0, a.shape[-1])
    return ref.mul(ref.inv(one - ref.mul(z, ref.conj(a))), a - z)


def _ball_points(rng, dim, n, scale=0.4, bound=0.97):
    return np.array([draw(lambda: rng.normal(size=dim) * scale,
                          lambda v: np.linalg.norm(v) < bound) for _ in range(n)])


class MapAnalysis(Workload):
    name = "map-analysis"
    round_size = len(ROUND)
    warmup_ks = tuple(range(len(ROUND)))

    # -- inputs --------------------------------------------------------------

    def make_item(self, rng, k):
        kind, level, shape, shape2 = ROUND[k % len(ROUND)]
        dim = 1 << level
        item = {"kind": kind, "level": level, "dim": dim}
        item.update(getattr(self, "_make_" + kind)(rng, dim, shape, shape2))
        return item

    def _make_word(self, rng, dim, shape, shape2):
        def word_and_points():
            f = tuple(random_generator(rng, kind, dim) for kind in shape)
            g = tuple(random_generator(rng, kind, dim) for kind in shape2)
            pts = rng.normal(size=(PC_POINTS, dim))
            return f, g, pts

        def ok(x):
            f, g, pts = x
            if not all(orbit_safe(f, z) and orbit_safe(g, ref.apply_word(f, z)) for z in pts):
                return False
            # every verdict needs a dilation well above the zero-derivative tolerance
            lams = [ref.word_dilation(f, z) for z in pts]
            lams.append(ref.word_dilation(g, ref.apply_word(f, pts[0])))
            return all(DILATION_RANGE[0] < lam < DILATION_RANGE[1] for lam in lams)

        f, g, pts = draw(word_and_points, ok)

        def sphere():
            center = rng.normal(size=dim)
            radius = rng.uniform(0.3, 2.0)
            units = rng.normal(size=(SPHERE_SAMPLES, dim))
            units /= np.linalg.norm(units, axis=1, keepdims=True)
            return center, radius, center + radius * units

        def sphere_ok(x):
            center, radius, samples = x
            poles = ref.word_poles(f, dim)
            if any(abs(np.linalg.norm(p - center) - radius) < 0.2 for p in poles):
                return False
            return all(orbit_safe(f, z, low=0.05, high=50.0) for z in samples)

        center, radius, samples = draw(sphere, sphere_ok)
        return {"f": f, "g": g, "points": pts, "center": center, "radius": radius,
                "sphere_points": samples}

    def _make_zeros(self, rng, dim, shape, shape2):
        m = rand_imag_unit(rng, dim)
        # |za| <= 0.55 keeps |(z - za)^2| >= 0.2 > 0.05 on the unit loop (Rouche)
        r, th = 0.55 * math.sqrt(rng.uniform()), rng.uniform(0.0, 2.0 * math.pi)
        za = in_plane(np.zeros(dim), m, r * math.cos(th), r * math.sin(th))
        zo = ref.real(3.0 + rng.uniform(0, 2), dim)
        c = draw(lambda: rng.normal(size=dim), lambda v: np.linalg.norm(v) > 0.3)
        d = draw(lambda: rng.normal(size=dim), lambda v: np.linalg.norm(v) > 0.3)
        return {"m": m, "za": za, "zo": zo, "c": c, "d": d}

    def _make_maxmod(self, rng, dim, shape, shape2):
        def make():
            m = rand_imag_unit(rng, dim)
            w = tuple(random_generator(rng, kind, dim, plane=m) for kind in shape)
            a0 = in_plane(np.zeros(dim), m, rng.normal() * 0.3, rng.normal() * 0.3)
            return m, w, a0, rng.uniform(0.4, 1.0)

        def ok(x):
            m, w, a0, radius = x
            for p in ref.word_poles(w, dim):
                d = p - a0
                px, py = d[0], float(np.dot(d, m))
                off = np.linalg.norm(d - ref.real(px, dim) - py * m)
                if math.hypot(off, max(0.0, math.hypot(px, py) - radius)) < 0.2:
                    return False
            return True

        m, w, a0, radius = draw(make, ok)
        r = 0.97 * radius * np.sqrt(rng.uniform(0.0, 1.0, size=MAXMOD_SAMPLES))
        th = rng.uniform(0.0, 2.0 * math.pi, size=MAXMOD_SAMPLES)
        samples = (a0 + np.outer(r * np.cos(th), ref.real(1.0, dim))
                   + np.outer(r * np.sin(th), m))
        return {"m": m, "w": w, "a0": a0, "radius": radius, "samples": samples,
                "sample_numbers": [algebra.CdNumber(row) for row in samples]}

    def _make_schwarz(self, rng, dim, shape, shape2):
        a = draw(lambda: rng.normal(size=dim) * 0.3, lambda v: np.linalg.norm(v) < 0.9)
        samples = _ball_points(rng, dim, SCHWARZ_SAMPLES)
        return {"u": rand_unit(rng, dim), "v": rand_unit(rng, dim), "a": a,
                "samples": samples,
                "sample_numbers": [algebra.CdNumber(row) for row in samples]}

    # -- timed work ------------------------------------------------------------

    def run(self, item, wrap):
        return getattr(self, "_run_" + item["kind"])(item, wrap)

    def _run_word(self, item, wrap):
        level = item["level"]
        f = build_word(item["f"], level)
        g = build_word(item["g"], level)
        zs = [algebra.CdNumber(p) for p in item["points"]]
        pc_f = [calculus.is_pseudoconformal_at(wrap(f), z, tol=PC_TOL) for z in zs]
        z0 = zs[0]
        fz = moebius.apply_word(f, z0)
        pc_g = calculus.is_pseudoconformal_at(wrap(g), fz, tol=PC_TOL)
        pc_c = calculus.is_pseudoconformal_at(wrap(moebius.compose(f, g)), z0, tol=PC_TOL)
        finv = moebius.inverse(f)
        back = moebius.apply_word(finv, fz)
        pc_i = calculus.is_pseudoconformal_at(wrap(finv), fz, tol=PC_TOL)
        jac = calculus.jacobian(wrap(f), z0)
        if level == 2:
            fac = calculus.factor_quaternion(jac, tol=FACTOR_TOL)
        else:
            fac = calculus.factor_octonion_givens(jac, tol=FACTOR_TOL)
        sphere = moebius.Hypersphere.from_center_radius(
            algebra.CdNumber(item["center"]), item["radius"])
        image = moebius.map_hypersphere(f, sphere)
        values = f.apply_many(item["sphere_points"])
        return {"pc_f": pc_f, "pc_g": pc_g, "pc_c": pc_c, "pc_i": pc_i,
                "fz": fz.coeffs, "back": back.coeffs, "jac": jac.entries, "fac": fac,
                "image": (image.e, image.j.coeffs, image.d), "values": values}

    def _run_zeros(self, item, wrap):
        mul, cd = algebra.mul, algebra.CdNumber
        dim = item["dim"]
        loop = contour.PlanarLoop.circle(cd(np.zeros(dim)), cd(item["m"]), radius=1.0,
                                         n=ZERO_LOOP_SEGMENTS)
        za, zo, c, d = (cd(item[key]) for key in ("za", "zo", "c", "d"))
        simple = lambda z: mul(mul(c, z - za), d)  # noqa: E731
        double = lambda z: mul(z - za, z - za)  # noqa: E731
        outside = lambda z: mul(mul(c, z - zo), d)  # noqa: E731
        small = lambda z: cd(ref.real(0.05, dim))  # noqa: E731
        return {
            "simple": contour.count_zeros(wrap(simple), loop),
            "double": contour.count_zeros(wrap(double), loop),
            "outside": contour.count_zeros(wrap(outside), loop),
            "rouche": contour.rouche_equal(wrap(small), wrap(double), loop),
        }

    def _run_maxmod(self, item, wrap):
        cd = algebra.CdNumber
        w = build_word(item["w"], item["level"])
        loop = contour.PlanarLoop.circle(cd(item["a0"]), cd(item["m"]),
                                         radius=item["radius"], n=MAXMOD_SEGMENTS)
        res = contour.max_principle_check(wrap(w), loop, item["sample_numbers"], tol=1e-9)
        return {"res": res, "boundary": loop.embedded()[:-1]}

    def _run_schwarz(self, item, wrap):
        mul, cd = algebra.mul, algebra.CdNumber
        u, v, a = cd(item["u"]), cd(item["v"]), cd(item["a"])
        frame = lambda z: mul(mul(u, z), v)  # noqa: E731
        sa = domains.BallAutomorphism((a,))
        g = lambda z: domains.ball_apply(sa, frame(z))  # noqa: E731
        sw = domains.BallAutomorphism((g(cd(np.zeros(item["dim"]))),))
        ball = lambda z: domains.ball_apply(sw, g(z))  # noqa: E731
        maxn, euclid = domains.HomogeneousNorm("max"), domains.HomogeneousNorm("euclidean")
        samples = item["sample_numbers"]
        return {
            "frame": domains.schwarz_check(wrap(frame), maxn, maxn, samples, tol=1e-9),
            "ball": domains.schwarz_check(wrap(ball), euclid, euclid, samples, tol=1e-9),
        }

    # -- checks ------------------------------------------------------------------

    def check(self, item, out):
        getattr(self, "_check_" + item["kind"])(item, out)

    def _check_word(self, item, out):
        f, g = item["f"], item["g"]
        z0 = item["points"][0]
        verdicts = out["pc_f"] + [out["pc_g"], out["pc_c"], out["pc_i"]]
        require(all(v.status == "Pseudoconformal" for v in verdicts),
                f"verdicts {[v.status for v in verdicts]}")
        for z, v in zip(item["points"], out["pc_f"]):
            want = ref.word_dilation(f, z)
            require(abs(v.lam - want) <= DILATION_RTOL * want,
                    f"dilation {v.lam} against the closed form {want}")
        lf, lg, lc = out["pc_f"][0].lam, out["pc_g"].lam, out["pc_c"].lam
        require(abs(lc - lf * lg) <= DILATION_RTOL * lf * lg,
                f"chain rule: {lc} != {lf} * {lg}")
        require(abs(out["pc_i"].lam * lf - 1.0) <= DILATION_RTOL,
                "inverse dilation is not the reciprocal")
        want_fz = ref.apply_word(f, z0)
        require(ref.norm(out["fz"] - want_fz) <= ROUNDTRIP_TOL * (1 + ref.norm(want_fz)),
                "apply_word differs from the reference")
        require(ref.norm(out["back"] - z0) <= ROUNDTRIP_TOL * (1 + ref.norm(z0)),
                "inverse round trip missed the start point")
        fac, jac = out["fac"], out["jac"]
        if item["level"] == 2:
            a, b = fac.a.coeffs, fac.b.coeffs
            rebuilt = fac.lam * ref.operator_matrix(lambda h: ref.mul(ref.mul(a, h), b), 4)
        else:
            rebuilt = fac.lam * ref.rotation_matrix(fac.angles)
        err = np.linalg.norm(rebuilt - jac, 2) / max(fac.lam, 1.0)
        require(err <= FACTOR_TOL, f"factorization rebuilds the Jacobian to {err:.3e}")
        want = ref.apply_word(f, item["sphere_points"])
        err = float(np.max(ref.norm(out["values"] - want) / (1 + ref.norm(want))))
        require(err <= ROUNDTRIP_TOL, f"apply_many differs from the reference by {err:.3e}")
        e, j, d = out["image"]
        res = ref.sphere_residual(e, j, d, out["values"])
        require(res <= SPHERE_TOL, f"image points off the image hypersphere by {res:.3e}")

    def _check_zeros(self, item, out):
        require(out["simple"] == 1, f"simple zero counted {out['simple']}")
        require(out["double"] == 2, f"double zero counted {out['double']}")
        require(out["outside"] == 0, f"outside zero counted {out['outside']}")
        r = out["rouche"]
        require(r.holds and r.n_g == 2 and r.n_h == 2, f"rouche {r}")

    def _check_maxmod(self, item, out):
        res = out["res"]
        require(res.holds, "maximum principle violated")
        sup_b = float(np.max(ref.norm(ref.apply_word(item["w"], out["boundary"]))))
        sup_i = float(np.max(ref.norm(ref.apply_word(item["w"], item["samples"]))))
        for got, want, what in ((res.sup_boundary, sup_b, "boundary"),
                                (res.sup_interior, sup_i, "interior")):
            require(abs(got - want) <= 1e-9 * max(want, 1.0),
                    f"{what} supremum {got} against the reference {want}")

    def _check_schwarz(self, item, out):
        frame, ball = out["frame"], out["ball"]
        require(frame.holds and ball.holds, "Schwarz bound violated")
        require(abs(frame.worst_ratio - 1.0) <= 1e-12,
                f"unit frame ratio {frame.worst_ratio} is not 1")
        u, v, a = item["u"], item["v"], item["a"]
        z = item["samples"]
        g = ball_involution(a, ref.mul(ref.mul(u, z), v))
        w0 = ball_involution(a, np.zeros(item["dim"]))
        ratio = float(np.max(ref.norm(ball_involution(w0, g)) / ref.norm(z)))
        require(ratio <= 1.0 + 1e-9, f"reference ratio {ratio} exceeds 1")
        require(abs(ball.worst_ratio - ratio) <= 1e-9,
                f"worst ratio {ball.worst_ratio} against the reference {ratio}")
