"""Planar contours, line integrals, winding numbers and zero counting.

Loops live in affine planes a0 + R + R*M with a directing unit imaginary
element M; they are closed polylines given by in-plane coordinates (x, y).
The line-integral operator realizes the partition sums of the operator
kernel (the hat of the phrase's antiderivative) on degree-exact Gauss nodes
(at most 8), refined dyadically; for a one-sided tagged sum the limit is
the same but first-order slow, so the segment rule is used instead.

Winding numbers of the polylines themselves are exact (per-segment phase
increments never reach pi for an off-curve reference point).  Image curves
under a map f are tracked adaptively on (n, 2^r) arrays: the loop vertices,
and then each round's midpoints, are evaluated by one values_at call, and
every step is tested at once.  The principal-logarithm increments of
consecutive image samples, summed in one pass, add to 2 pi N u, with u the
image orientation direction obtained by pushing the plane frame (1, M)
through a directional derivative of f.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .algebra import (CdNumber, conj_coeffs, inv, mul, mul_coeffs, real_array, row_dots,
                      row_norms)
from .calculus import finite_value, values_at
from .errors import (
    BoundaryZeroError,
    CdconfError,
    DegenerateLoopError,
    DimensionError,
    DivisionByZeroError,
    DomainError,
    EvaluationError,
    PreconditionError,
    QuadratureError,
)
from .phrase import Phrase, hat_operator

__all__ = [
    "PlanarPath",
    "PlanarLoop",
    "PlaneRect",
    "WindingResult",
    "line_integral",
    "winding",
    "count_zeros",
    "rouche_equal",
    "RoucheResult",
    "max_principle_check",
    "MaxPrincipleResult",
    "locate_zeros",
    "disc_samples",
]

PHASE_STEP_LIMIT = math.pi / 4  # re-sample an image curve above this per-step phase
_NOT_EVALUABLE = "map not evaluable on the contour"
_BOUNDARY_ZERO = "|f| fell below tolerance on the contour"


def _check_directing(m: CdNumber, tol: float = 1e-12):
    if abs(m.re) > tol or abs(m.norm() - 1.0) > tol:
        raise DomainError("directing element must be unit imaginary")


class PlanarPath:
    """Open or closed polyline in the plane a0 + R + R*M."""

    min_segments = 1

    def __init__(self, a0: CdNumber, m: CdNumber, pts):
        _check_directing(m)
        if m.dim != a0.dim:
            raise DomainError("a0 and M must share one algebra level")
        pts = real_array(pts)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < self.min_segments + 1:
            raise DomainError(
                f"need at least {self.min_segments} segments of (x, y) samples")
        if not np.all(np.isfinite(pts)):
            raise DomainError("non-finite path samples")
        self.a0 = a0
        self.m = m
        self.pts = pts

    @property
    def level(self) -> int:
        return self.a0.level

    @property
    def closed(self) -> bool:
        return bool(np.array_equal(self.pts[0], self.pts[-1]))

    def embedded(self) -> np.ndarray:
        """(n, 2^r) coefficient array of the vertices inside the algebra."""
        base = np.tile(self.a0.coeffs, (len(self.pts), 1))
        base[:, 0] += self.pts[:, 0]
        return base + np.outer(self.pts[:, 1], self.m.coeffs)

    def point(self, k: int) -> CdNumber:
        return CdNumber(self.embedded()[k])

    def refined(self) -> "PlanarPath":
        """Split every segment at its parameter midpoint."""
        mids = (self.pts[:-1] + self.pts[1:]) / 2.0
        out = np.empty((2 * len(self.pts) - 1, 2))
        out[0::2] = self.pts
        out[1::2] = mids
        return type(self)(self.a0, self.m, out)

    def length(self) -> float:
        return float(np.sum(np.hypot(*np.diff(self.pts, axis=0).T)))

    def to_json(self):
        return {
            "a0": self.a0.to_json(),
            "M": self.m.to_json(),
            "pts": [[float(x), float(y)] for x, y in self.pts],
        }

    @classmethod
    def from_json(cls, payload):
        return cls(CdNumber(payload["a0"]), CdNumber(payload["M"]), payload["pts"])

    @classmethod
    def segment(cls, a0, m, start, end, n: int = 16):
        t = np.linspace(0.0, 1.0, n + 1)[:, None]
        pts = np.asarray(start, float) * (1 - t) + np.asarray(end, float) * t
        return cls(a0, m, pts)


class PlanarLoop(PlanarPath):
    """Closed polyline with at least 16 segments."""

    min_segments = 16

    def __init__(self, a0, m, pts):
        super().__init__(a0, m, pts)
        if not self.closed:
            raise DomainError("loop samples must close (first point = last point)")

    @classmethod
    def circle(cls, a0, m, center=(0.0, 0.0), radius: float = 1.0, n: int = 64):
        th = np.linspace(0.0, 2.0 * math.pi, n + 1)
        pts = np.column_stack([
            center[0] + radius * np.cos(th),
            center[1] + radius * np.sin(th),
        ])
        pts[-1] = pts[0]
        return cls(a0, m, pts)

    @classmethod
    def rectangle(cls, a0, m, x0, x1, y0, y1, per_edge: int = 8):
        corners = [(x0, y0), (x1, y0), (x1, y1), (x0, y1), (x0, y0)]
        pts = []
        for (ax, ay), (bx, by) in zip(corners[:-1], corners[1:]):
            t = np.linspace(0.0, 1.0, per_edge + 1)[:-1]
            pts.extend(zip(ax + (bx - ax) * t, ay + (by - ay) * t))
        pts.append((x0, y0))
        return cls(a0, m, np.asarray(pts))


# ---------------------------------------------------------------------------
# line integral
# ---------------------------------------------------------------------------

# n-node Gauss-Legendre rules on [0, 1], n = 1 .. 8; the n-node rule is
# exact for polynomials of degree 2n - 1 (Golub & Welsch 1969)
_GAUSS_RULES = [((x + 1.0) / 2.0, w / 2.0)
                for x, w in map(np.polynomial.legendre.leggauss, range(1, 9))]
MAX_PARTITION_SEGMENTS = 2 ** 12  # line_integral refines no further
MAX_ZERO_CELLS = 2 ** 12  # locate_zeros counts zeros in no more cells


def _partition_sums(kernel: Phrase, paths: list, rule) -> list:
    """The rule's partition sum of the kernel over each path, all from one
    kernel call on the concatenated (segments, nodes, dim) points."""
    nodes, weights = rule
    verts = [path.embedded() for path in paths]
    starts = np.concatenate([v[:-1] for v in verts])
    deltas = np.concatenate([np.diff(v, axis=0) for v in verts])  # (nseg, dim)
    # evaluation points: nseg x nodes, each segment traversed by Gauss nodes
    pts = starts[:, None, :] + nodes[None, :, None] * deltas[:, None, :]
    hs = np.broadcast_to(deltas[:, None, :], pts.shape)
    vals = kernel.eval(pts, h=hs)  # (nseg, nodes, dim)
    ends = np.cumsum([len(v) - 1 for v in verts])[:-1]
    return [np.einsum("j,ijk->k", weights, part) for part in np.split(vals, ends)]


def line_integral(nu: Phrase, gamma: PlanarPath, refine: float = 1e-10,
                  side: str = "left", max_levels: int = 20) -> CdNumber:
    """Integral of the phrase nu along the polyline.

    The integrand, the operator kernel hat(nu) on the segment displacements,
    is on each segment a polynomial of nu's z-degree d, summed on
    d // 2 + 1 degree-exact Gauss nodes (at most 8), refined dyadically
    until two successive estimates agree within `refine`; QuadratureError,
    with the last two estimates, stops it before the partition exceeds
    MAX_PARTITION_SEGMENTS segments.  Closed paths of z-only phrases
    integrate to zero; open paths reproduce the endpoint difference of the
    antiderivative (branch chosen by `side`).
    """
    kernel = hat_operator(nu, side=side)
    # hat(nu) has nu's z-degree, and nu has far fewer words
    rule = _GAUSS_RULES[min(nu.max_degree() // 2, len(_GAUSS_RULES) - 1)]
    # gamma, then the refinements that keep within MAX_PARTITION_SEGMENTS segments
    fits = (MAX_PARTITION_SEGMENTS // (len(gamma.pts) - 1)).bit_length() - 1
    paths = itertools.accumulate(range(max(min(max_levels, fits), 0)),
                                 lambda path, _: path.refined(), initial=gamma)
    sums, batch = [], list(itertools.islice(paths, 2))
    while batch:
        for cur in _partition_sums(kernel, batch, rule):
            if sums and np.linalg.norm(cur - sums[-1]) <= refine:
                return CdNumber(cur)
            sums.append(cur)
        batch = list(itertools.islice(paths, 1))
    raise QuadratureError(
        "partition refinement did not converge",
        estimates=(CdNumber(sums[max(len(sums) - 2, 0)]), CdNumber(sums[-1])),
    )


# ---------------------------------------------------------------------------
# winding numbers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WindingResult:
    turns: int
    m: CdNumber
    raw_phase: float


def _plane_coords(loop: PlanarPath, a: CdNumber, tol: float = 1e-9):
    """Coordinates of a in the loop's plane; DomainError when off-plane."""
    d = a - loop.a0
    x = d.re
    y = float(np.dot(d.coeffs, loop.m.coeffs))
    resid = (d - CdNumber.real(x, a.level) - loop.m * y).norm()
    if resid > tol * (1.0 + d.norm()):
        raise DomainError("reference point lies outside the loop's plane")
    return x, y


def winding(gamma: PlanarLoop, a: CdNumber, on_curve_tol: float = 1e-12) -> WindingResult:
    """Exact turn count of the polyline about an in-plane point a.

    Phase increments are the signed angles between consecutive difference
    vectors, each strictly inside (-pi, pi) for a point off the polyline,
    so no lifting ambiguity arises.
    """
    ax, ay = _plane_coords(gamma, a)
    vx = gamma.pts[:, 0] - ax
    vy = gamma.pts[:, 1] - ay
    r2 = vx * vx + vy * vy
    # distance from a to each segment, not only to vertices
    ex, ey = np.diff(gamma.pts[:, 0]), np.diff(gamma.pts[:, 1])
    seglen2 = ex * ex + ey * ey
    t = np.clip(np.divide(vx[:-1] * ex + vy[:-1] * ey, seglen2,
                          out=np.zeros_like(ex), where=seglen2 > 0), 0.0, 1.0)
    dist2 = (vx[:-1] - t * ex) ** 2 + (vy[:-1] - t * ey) ** 2
    if np.min(dist2) <= on_curve_tol ** 2 or np.min(r2) <= on_curve_tol ** 2:
        raise DegenerateLoopError("reference point touches the curve")
    cross = vx[:-1] * vy[1:] - vy[:-1] * vx[1:]
    dot = vx[:-1] * vx[1:] + vy[:-1] * vy[1:]
    phase = float(np.sum(np.arctan2(cross, dot)))
    turns = round(phase / (2.0 * math.pi))
    return WindingResult(turns, gamma.m, phase)


# ---------------------------------------------------------------------------
# argument principle
# ---------------------------------------------------------------------------

def _plane_points(a0: CdNumber, m: CdNumber, xs, ys) -> np.ndarray:
    """(n, 2^r) points a0 + x + M y, summed in the order of CdNumbers point by
    point, so a -0.0 of a0 still meets +0.0."""
    reals = np.zeros((len(xs), a0.dim))
    reals[:, 0] = xs
    return (a0.coeffs + reals) + m.coeffs * np.asarray(ys)[:, None]


def _adaptive_image(f, loop: PlanarLoop, boundary_tol: float, max_rounds: int = 14):
    """Sample f along the loop, refining parameters until consecutive image
    samples subtend at most PHASE_STEP_LIMIT.

    The vertices, and then each round's midpoints, are evaluated by one
    values_at call; a point where f is not evaluable, or where |f| is at
    most boundary_tol, raises at the first such point in sampling order.
    """
    def image(xy):
        pts = _plane_points(loop.a0, loop.m, xy[:, 0], xy[:, 1])

        def value(idx):
            w = finite_value(f, CdNumber(pts[idx]), _NOT_EVALUABLE)
            if w.norm() <= boundary_tol:
                raise BoundaryZeroError(_BOUNDARY_ZERO)
            return w.coeffs

        vals = values_at(f, pts, value)
        norms = row_norms(vals)
        if np.any(norms <= boundary_tol):
            raise BoundaryZeroError(_BOUNDARY_ZERO)
        return vals, norms

    pts = loop.pts
    vals, norms = image(pts)
    for _ in range(max_rounds):
        cosang = row_dots(vals[:-1], vals[1:]) / (norms[:-1] * norms[1:])
        split = np.flatnonzero(cosang < math.cos(PHASE_STEP_LIMIT)) + 1
        if not len(split):
            return vals
        mids = (pts[split - 1] + pts[split]) / 2.0
        mid_vals, mid_norms = image(mids)
        pts = np.insert(pts, split, mids, axis=0)
        vals = np.insert(vals, split, mid_vals, axis=0)
        norms = np.insert(norms, split, mid_norms)
    # persistent aliasing means the image spins without bound between
    # samples, i.e. the contour passes next to (or through) a zero
    raise BoundaryZeroError(
        "image phase keeps aliasing after refinement; "
        "a zero lies on or next to the contour")


def _phase_sum(vals: np.ndarray) -> np.ndarray:
    """The principal logarithms of the step quotients va^{-1} vb along the
    (n, 2^r) image samples, added in order: the bits of summing
    ln_principal(mul(inv(va), vb)) step by step, and its errors at the
    first step that has one."""
    va, vb = vals[:-1], vals[1:]
    n2 = row_dots(va, va)
    with np.errstate(divide="ignore", invalid="ignore"):  # a zero n2 raises below
        q = mul_coeffs(conj_coeffs(va) / n2[:, None], vb)
    imag = q.copy()
    imag[:, 0] = 0.0
    norms, t = row_norms(q), row_norms(imag)
    bad = (n2 == 0.0) | (norms == 0.0)
    if np.any(bad):
        k = int(np.argmax(bad))
        if n2[k] == 0.0:
            raise DivisionByZeroError("inverse of zero")
        raise DomainError("logarithm of zero")
    # Arg q is theta along Im q / |Im q|, or along i_1 when q is real
    theta = np.array(list(map(math.atan2, t.tolist(), q[:, 0].tolist())))
    direction = np.divide(imag, t[:, None], out=np.zeros_like(imag),
                          where=t[:, None] != 0.0)
    direction[t == 0.0, 1] = 1.0
    logs = np.zeros_like(q)
    logs[:, 0] = list(map(math.log, norms.tolist()))
    steps = logs + direction * theta[:, None]
    return np.add.accumulate(np.vstack([np.zeros(vals.shape[1]), steps]))[-1]


def _image_direction(f, loop: PlanarLoop) -> CdNumber:
    """Push the oriented frame (1, M) of the loop's plane through f.

    Returns the unit imaginary part of E1^{-1} E2, the directing element
    of the image orientation; used to sign the accumulated phase.  Each
    frame's four stencil points are evaluated by one values_at call; a frame
    where f raises CdconfError or ArithmeticError, or is degenerate, is
    skipped, and a point at infinity raises the TypeError of the per-point
    differences f(z0 + s) - f(z0 - s).
    """
    scale = max(loop.length() / max(len(loop.pts) - 1, 1), 1e-6)
    step = 1e-4 * scale
    real_step = CdNumber.real(step, loop.level).coeffs
    m_step = (loop.m * step).coeffs
    verts = loop.embedded()
    for k in range(0, len(loop.pts) - 1, max(1, (len(loop.pts) - 1) // 8)):
        z0 = verts[k]
        pts = np.stack([z0 + real_step, z0 - real_step, z0 + m_step, z0 - m_step])

        def value(idx):
            w = f(CdNumber(pts[idx]))
            if not isinstance(w, CdNumber):  # INF: the differences raise
                j = idx[0]                   # their per-point TypeError
                if j % 2:
                    CdNumber(pts[j - 1]) - w
                else:
                    w - f(CdNumber(pts[j + 1]))
            return w.coeffs

        try:
            w = values_at(f, pts, value)
        except (CdconfError, ArithmeticError):
            continue
        e1 = CdNumber((w[0] - w[1]) * (0.5 / step))
        e2 = CdNumber((w[2] - w[3]) * (0.5 / step))
        if e1.norm() < 1e-12 or e2.norm() < 1e-12:
            continue
        u = mul(inv(e1), e2).imag()
        if u.norm() > 1e-8:
            return u * (1.0 / u.norm())
    raise EvaluationError("could not orient the image curve (degenerate frame)")


def count_zeros(f, gamma: PlanarLoop, boundary_tol: float = 1e-9) -> int:
    """Zeros of f enclosed by the loop, counted with orders.

    Realizes the argument principle: the winding of the image curve about
    zero equals the sum of enclosed zero orders times the loop's own
    winding.  The image phase is accumulated through principal logarithms
    of consecutive sample quotients and projected on the pushed-forward
    orientation direction.
    """
    acc = _phase_sum(_adaptive_image(f, gamma, boundary_tol))
    u = _image_direction(f, gamma)
    signed = float(np.dot(acc, u.coeffs)) / (2.0 * math.pi)
    n = round(signed)
    if abs(signed - n) > 0.25:
        raise EvaluationError(
            f"accumulated phase {signed:.3f} turns is not close to an integer")
    return n


@dataclass(frozen=True)
class RoucheResult:
    holds: bool
    n_g: int
    n_h: int


def rouche_equal(f, g, gamma: PlanarLoop, boundary_tol: float = 1e-9) -> RoucheResult:
    """Zero-count comparison of g and f + g under |f| < |g| on the contour.

    The strict boundary inequality is verified on the loop samples; a
    violation raises PreconditionError carrying a witness point.
    """
    for row in gamma.embedded()[:-1]:
        zl = CdNumber(row)
        fv, gv = finite_value(f, zl, _NOT_EVALUABLE), finite_value(g, zl, _NOT_EVALUABLE)
        if not (fv.norm() < gv.norm()):
            raise PreconditionError(
                f"|f| >= |g| on the contour ({fv.norm():.3e} >= {gv.norm():.3e})",
                witness=zl,
            )
    n_g = count_zeros(g, gamma, boundary_tol)
    n_h = count_zeros(lambda z: f(z) + g(z), gamma, boundary_tol)
    return RoucheResult(n_g == n_h, n_g, n_h)


# ---------------------------------------------------------------------------
# maximum principle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MaxPrincipleResult:
    holds: bool
    sup_interior: float
    sup_boundary: float
    witness: CdNumber | None = None


def disc_samples(loop_center, radius, n, rng, a0=None, m=None, level=2):
    """n in-plane sample points of the open disc, as CdNumbers.  a0
    defaults to 0 at `level`, and M to i_1 at the level of a0."""
    r = radius * np.sqrt(rng.uniform(0.0, 1.0, size=n))
    th = rng.uniform(0.0, 2.0 * math.pi, size=n)
    xs = loop_center[0] + r * np.cos(th)
    ys = loop_center[1] + r * np.sin(th)
    a0 = a0 if a0 is not None else CdNumber.zero(level)
    m = m if m is not None else CdNumber.basis(1, a0.level)
    if m.dim != a0.dim:
        raise DimensionError(f"level mismatch: {a0.level} vs {m.level}")
    return [CdNumber(row) for row in _plane_points(a0, m, xs, ys)]


def _moduli(f, boundary: np.ndarray, samples: list):
    """|f| on the boundary rows and on the samples, all evaluated by one
    values_at call; a failure names its point as PreconditionError."""
    n = len(boundary)

    def value(idx):
        z = CdNumber(boundary[idx[0]]) if idx[0] < n else samples[idx[0] - n]
        try:
            w = f(z)
        except Exception as exc:
            raise PreconditionError(f"map not evaluable: {exc}", witness=z) from exc
        if not isinstance(w, CdNumber) or not np.all(np.isfinite(w.coeffs)):
            raise PreconditionError("non-finite value (pole?) at a sample", witness=z)
        return w.coeffs

    if all(isinstance(z, CdNumber) and z.dim == boundary.shape[1] for z in samples):
        norms = row_norms(values_at(f, np.vstack([boundary, *(z.coeffs for z in samples)]),
                                    value))
    else:  # no one array holds these samples
        norms = np.array([CdNumber(value((k,))).norm() for k in range(n + len(samples))])
    return norms[:n], norms[n:]


def max_principle_check(f, gamma: PlanarLoop, interior_samples,
                        tol: float = 1e-9) -> MaxPrincipleResult:
    """Check sup |f| over interior samples against sup |f| over the loop.

    Evaluation failures and poles on the samples surface as
    PreconditionError with the witness point; the witness of a violation is
    the first sample attaining the interior supremum.
    """
    samples = list(interior_samples)
    bounds, inner = _moduli(f, gamma.embedded()[:-1], samples)
    sup_boundary = float(np.max(bounds))
    sup_interior, worst = 0.0, None
    if len(inner):
        k = int(np.argmax(inner))
        if inner[k] > 0.0:
            sup_interior, worst = float(inner[k]), samples[k]
    holds = sup_interior <= sup_boundary + tol
    return MaxPrincipleResult(holds, sup_interior, sup_boundary,
                              None if holds else worst)


# ---------------------------------------------------------------------------
# zero localization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PlaneRect:
    """Axis-aligned rectangle in the plane a0 + R + R*M."""

    a0: CdNumber
    m: CdNumber
    x0: float
    x1: float
    y0: float
    y1: float

    def __post_init__(self):
        _check_directing(self.m)
        if not (self.x0 < self.x1 and self.y0 < self.y1):
            raise DomainError("rectangle bounds must be increasing")

    def boundary(self, per_edge: int = 12) -> PlanarLoop:
        return PlanarLoop.rectangle(self.a0, self.m, self.x0, self.x1,
                                    self.y0, self.y1, per_edge)

    def center_point(self) -> CdNumber:
        cx, cy = (self.x0 + self.x1) / 2.0, (self.y0 + self.y1) / 2.0
        return self.a0 + CdNumber.real(cx, self.a0.level) + self.m * cy

    def size(self) -> float:
        return max(self.x1 - self.x0, self.y1 - self.y0)


def locate_zeros(f, rect: PlaneRect, min_cell: float,
                 boundary_tol: float = 1e-9) -> list:
    """Quadtree localization of zeros inside the rectangle.

    Returns (center, order) pairs for cells of size at most min_cell, in
    depth-first order.  A zero sitting on a subdivision line triggers one
    jitter of the cut by min_cell / 7; a second failure propagates
    BoundaryZeroError.  The total order is conserved across every split.
    Counting zeros in more than MAX_ZERO_CELLS cells raises DomainError.
    """
    cells_left = MAX_ZERO_CELLS

    def count(cell: PlaneRect) -> int:
        nonlocal cells_left
        if cells_left == 0:
            raise DomainError(f"zero localization needs more than {MAX_ZERO_CELLS} cells")
        cells_left -= 1
        return count_zeros(f, cell.boundary(), boundary_tol)

    def children(rect, mx, my):
        return [PlaneRect(rect.a0, rect.m, *xs, *ys) for ys in ((rect.y0, my), (my, rect.y1))
                for xs in ((rect.x0, mx), (mx, rect.x1))]

    out, todo = [], [(rect, count(rect))]
    while todo:
        rect, total = todo.pop()
        if total == 0:
            continue
        if rect.size() <= min_cell:
            out.append((rect.center_point(), total))
            continue
        mx, my = (rect.x0 + rect.x1) / 2.0, (rect.y0 + rect.y1) / 2.0
        try:
            cells = children(rect, mx, my)
            counts = [count(c) for c in cells]
        except BoundaryZeroError:
            jitter = min_cell / 7.0
            cells = children(rect, mx + jitter, my + jitter)
            counts = [count(c) for c in cells]
        if sum(counts) != total:
            raise BoundaryZeroError(
                f"subdivision lost zeros ({total} -> {sum(counts)}); "
                "a zero may sit on a cell boundary")
        todo.extend(reversed(list(zip(cells, counts))))
    return out
