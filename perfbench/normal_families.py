"""Workload normal-families: one item is one classify_sequence call.

Every family is a base map h followed by per-member translations t_k,
f_k(z) = h(z) + t_k, except the affine Cauchy tails, which perturb the
linear part.  The verdict is fixed by construction:

* ConvergesTo: a Cauchy tail, members 2^-k apart;
* Extracted: four planted members within 1e-4 of each other, the rest
  more than 10 tol apart from everything;
* DivergesToInfinity: translations growing past the divergence threshold;
* NotNormalEvidence: bounded translations 2^k apart.

Half of the families are AffineMaps (an analytic Jacobian per node), half
fractional-linear words (central differences per node).  Each item also
runs one rho spot check on two of its members.  The time goes to the
per-node features and to the pairwise SVD stacks in cdconf.normal.
"""

from __future__ import annotations

import math

import numpy as np

import refarith as ref
from common import Workload, draw, rand_unit, require
from map_analysis import build_word

from cdconf import algebra, normal

MEMBERS = 16
CLUSTER = 4
TOL = {"ConvergesTo": 1e-2, "Extracted": 1e-3, "DivergesToInfinity": 1e-3,
       "NotNormalEvidence": 1e-3}
THRESHOLD = 1e6
# Grid resolutions; the lattices have 425, 256, 89 and 17 nodes.  They put
# seven of the nine items of a round within about 1.5x of each other.
RESOLUTION = {("affine", 2): 200, ("affine", 3): 256, ("word", 2): 64, ("word", 3): 17}
# rho tolerance: relative, plus an absolute floor for the rounding noise of
# central differences (eps |f| / step, about 1e-11 here) on word families
RHO_TOL = {"affine": (1e-9, 0.0), "word": (1e-6, 1e-9)}

# (verdict, jacobian kind, level).  An odd count, with the costs of the
# middle items close, keeps the median latency inside one cluster of items.
ROUND = (
    ("ConvergesTo", "affine", 2),
    ("Extracted", "affine", 3),
    ("DivergesToInfinity", "affine", 2),
    ("NotNormalEvidence", "affine", 3),
    ("ConvergesTo", "word", 3),
    ("Extracted", "word", 2),
    ("DivergesToInfinity", "word", 3),
    ("NotNormalEvidence", "word", 2),
    ("ConvergesTo", "affine", 3),
)


def _scaled(rng, dim, low=0.5, high=1.5):
    return rand_unit(rng, dim) * rng.uniform(low, high)


def translations(rng, verdict, dim, tol):
    """Per-member translations t_k realizing the verdict (and the planted
    indices for Extracted)."""
    u = rand_unit(rng, dim)
    n = MEMBERS
    if verdict == "ConvergesTo":
        return np.array([0.3 * 2.0 ** -k * u for k in range(n)]), ()
    if verdict == "DivergesToInfinity":
        return np.array([10.0 ** ((k + 1) / 2.5) * u for k in range(n)]), ()
    if verdict == "NotNormalEvidence":
        return np.array([0.01 * 2.0 ** k * u for k in range(n)]), ()
    planted = tuple(sorted(int(i) for i in rng.choice(n, size=CLUSTER, replace=False)))
    apart = [(i, j) for i in range(n) for j in range(i + 1, n)
             if not (i in planted and j in planted)]

    def make():
        ts = rng.normal(size=(n, dim))
        for i in planted:
            ts[i] = ts[planted[0]] + 1e-4 * rand_unit(rng, dim) * rng.uniform(0.0, 0.5)
        return ts

    def separated(ts):
        gaps = np.linalg.norm(ts[:, None, :] - ts[None, :, :], axis=-1)
        return all(gaps[i, j] > 10 * tol for i, j in apart)

    return draw(make, separated), planted


class NormalFamilies(Workload):
    name = "normal-families"
    round_size = len(ROUND)
    warmup_ks = (2, 6)  # one affine family at level 2, one word family at level 3

    def make_item(self, rng, k):
        verdict, jac, level = ROUND[k % len(ROUND)]
        dim = 1 << level
        tol = TOL[verdict]
        item = {"verdict": verdict, "jac": jac, "level": level, "dim": dim, "tol": tol,
                "rho_pair": tuple(sorted(int(i) for i in
                                         rng.choice(MEMBERS, size=2, replace=False)))}
        if jac == "affine" and verdict == "ConvergesTo":
            a, b, c = _scaled(rng, dim), _scaled(rng, dim), rng.normal(size=dim)
            eps = [0.3 * 2.0 ** -k for k in range(MEMBERS)]
            item["members"] = [(a + ref.real(e, dim), b, c) for e in eps]
            item["planted"] = ()
            return item
        ts, planted = translations(rng, verdict, dim, tol)
        item["planted"] = planted
        if jac == "affine":
            a, b, c = _scaled(rng, dim), _scaled(rng, dim), rng.normal(size=dim)
            item["members"] = [(a, b, c + t) for t in ts]
        else:
            s = rand_unit(rng, dim) * rng.uniform(2.5, 3.0)  # pole -s is 1.5 off the grid
            if level == 2:
                mid = ("mulq", tuple(_scaled(rng, 4)), tuple(_scaled(rng, 4)))
            else:
                mid = ("roto", tuple((int(p), int(q), float(rng.uniform(-math.pi, math.pi)))
                                     for p, q in (sorted(rng.choice(8, 2, replace=False))
                                                  for _ in range(3))))
            base = (("shift", tuple(s)), ("inv",), mid)
            item["members"] = [base + (("shift", tuple(t)),) for t in ts]
            item["translations"] = ts
        return item

    def _maps(self, item):
        cd = algebra.CdNumber
        if item["jac"] == "affine":
            return [normal.AffineMap(cd(a), cd(b), cd(c)) for a, b, c in item["members"]]
        return [build_word(w, item["level"]) for w in item["members"]]

    def run(self, item, wrap):
        maps = self._maps(item)
        dim = item["dim"]
        grid = normal.CompactGrid(algebra.CdNumber(np.zeros(dim)), 1.0,
                                  resolution=RESOLUTION[(item["jac"], item["level"])])
        res = normal.classify_sequence([wrap(f) for f in maps], grid, tol=item["tol"],
                                       divergence_threshold=THRESHOLD)
        i, j = item["rho_pair"]
        spot = normal.rho(wrap(maps[i]), wrap(maps[j]), grid)
        return {"res": res, "rho": spot.value, "nodes": grid.nodes()}

    def check(self, item, out):
        res = out["res"]
        require(res.kind == item["verdict"],
                f"verdict {res.kind}, planted {item['verdict']}")
        n = MEMBERS
        if res.kind == "ConvergesTo":
            require(tuple(res.indices) == tuple(range(n // 2, n)), f"tail {res.indices}")
        elif res.kind == "Extracted":
            require(tuple(res.indices) == item["planted"],
                    f"extracted {res.indices}, planted {item['planted']}")
        elif res.kind == "NotNormalEvidence":
            require(tuple(res.witness) == (0, n - 1), f"witness {res.witness}")
        i, j = item["rho_pair"]
        if item["jac"] == "affine":
            want = ref.affine_rho(item["members"][i], item["members"][j], out["nodes"])
        else:
            ts = item["translations"]
            want = float(ref.norm(ts[i] - ts[j]))
        rtol, atol = RHO_TOL[item["jac"]]
        require(abs(out["rho"] - want) <= rtol * want + atol,
                f"rho {out['rho']} against the closed form {want}")
