"""Workload cli-cold: one item is one cdconf request in a fresh process.

Requests run one at a time through ``python3 -m cdconf.cli`` with the
checkout's ``src`` on PYTHONPATH, the payload on stdin.  A round covers
every command with valid, seeded payloads, and three malformed requests
that do not depend on the seed.  The CLI documents exit code 2 with one
JSON error document for a malformed request; a malformed request that
ends otherwise is counted failed.  Every valid answer must be exactly one
strict JSON document, checked with the reference arithmetic.

Interpreter start, importing cdconf and the CLI boundary dominate here.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import refarith as ref
from common import Workload, draw, rand_imag_unit, rand_unit, require
from map_analysis import ball_involution, orbit_safe, random_generator
from phrase_quadrature import random_phrase_spec, shape_table

REQUEST_TIMEOUT_S = 30.0

# Malformed requests: (name, command, payload text).  Their inputs are fixed.
MALFORMED = (
    ("side-middle", "phrase",
     '{"op": "antiderive", "text": "[0, 1, 0, 0] z^2", "side": "middle"}'),
    ("proj-bool-index", "eval", '{"op": "proj", "j": true, "x": [1, 2, 3, 4]}'),
    ("nan-coefficient", "eval", '{"op": "conj", "x": [NaN, 1, 2, 3]}'),
)

VALID = ("eval-mul", "eval-exp", "eval-inv", "check-pc", "factor-quaternion",
         "factor-octonion", "phrase-eval", "moebius-apply", "moebius-map-sphere",
         "domain-ball", "domain-cayley", "contour-integral", "contour-winding",
         "contour-zeros", "normal-rho", "normal-classify", "suite", "list-suites")

ROUND = VALID + tuple(name for name, _, _ in MALFORMED)


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def strict_document(text: str):
    """The one strict JSON document in text, or None."""
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except ValueError:
        return None


def _vec(v):
    return [float(x) for x in v]


def _unit_circle(n):
    th = np.linspace(0.0, 2.0 * math.pi, n + 1)
    pts = [[math.cos(t), math.sin(t)] for t in th]
    pts[-1] = pts[0]
    return pts


def _phrase_text(spec):
    """Canonical-style text of a phrase spec, written by the benchmark."""
    def tree(t):
        if t[0] == "mul":
            return f"({tree(t[1])} {tree(t[2])})"
        if t[0] == "z":
            return f"z^{t[1]}"
        return "[" + ", ".join(repr(float(v)) for v in t[1]) + "]"
    parts = []
    for coeff, t in spec:
        sign = "-" if coeff < 0 else "+"
        parts.append(f"{sign} {float(abs(coeff))!r} {tree(t)}")
    return " ".join(parts)


class CliCold(Workload):
    name = "cli-cold"
    round_size = len(ROUND)
    work_in_children = True
    warmup_ks = (0, 1)
    shapes = shape_table()

    def __init__(self, seed, root):
        super().__init__(seed, root)
        self.env = child_env(self.root)

    # -- inputs --------------------------------------------------------------

    def make_item(self, rng, k):
        kind = ROUND[k % len(ROUND)]
        for name, command, text in MALFORMED:
            if name == kind:
                return {"kind": kind, "command": command, "text": text, "malformed": True}
        command, payload, expect = getattr(self, "_req_" + kind.replace("-", "_"))(rng, k)
        return {"kind": kind, "command": command, "text": json.dumps(payload),
                "expect": expect, "malformed": False}

    def _req_eval_mul(self, rng, k):
        x, y = rng.normal(size=8), rng.normal(size=8)
        return "eval", {"op": "mul", "x": _vec(x), "y": _vec(y)}, ref.mul(x, y)

    def _req_eval_exp(self, rng, k):
        x = rng.normal(size=4)
        return "eval", {"op": "exp", "x": _vec(x)}, ref.exp(x)

    def _req_eval_inv(self, rng, k):
        x = rand_unit(rng, 8) * rng.uniform(0.5, 2.0)
        return "eval", {"op": "inv", "x": _vec(x)}, x

    def _req_check_pc(self, rng, k):
        s = rng.normal(size=4)
        z = draw(lambda: rng.normal(size=4), lambda v: 0.5 < np.linalg.norm(v + s) < 2.0)
        word = [{"op": "shift", "c": _vec(s)}, {"op": "inv"}]
        lam = 1.0 / float(np.dot(z + s, z + s))
        return "check-pc", {"map": {"kind": "moebius", "word": word}, "z": _vec(z)}, lam

    def _req_factor_quaternion(self, rng, k):
        a = rand_unit(rng, 4) * rng.uniform(0.5, 2.0)
        b = rand_unit(rng, 4) * rng.uniform(0.5, 2.0)
        word = [{"op": "mulq", "a": _vec(a), "b": _vec(b)}]
        jac = ref.operator_matrix(lambda h: ref.mul(ref.mul(a, h), b), 4)
        return "factor", {"map": {"kind": "moebius", "word": word},
                          "z": _vec(rng.normal(size=4))}, jac

    def _req_factor_octonion(self, rng, k):
        gen = random_generator(rng, "roto", 8)
        word = [{"op": "roto", "angles": [list(a) for a in gen[1]]}]
        return "factor", {"map": {"kind": "moebius", "word": word},
                          "z": _vec(rng.normal(size=8))}, ref.rotation_matrix(gen[1])

    def _req_phrase_eval(self, rng, k):
        spec = random_phrase_spec(rng, {"words": self.shapes[k % len(self.shapes)]["words"]}, 4)
        z = rng.normal(size=4) * 0.7
        return "phrase", {"op": "eval", "text": _phrase_text(spec), "z": _vec(z)}, \
            ref.eval_phrase(spec, z)

    def _req_moebius_apply(self, rng, k):
        def make():
            w = tuple(random_generator(rng, kind, 4) for kind in ("shift", "inv", "mulq"))
            return w, rng.normal(size=4)
        w, z = draw(make, lambda x: orbit_safe(x[0], x[1]))
        return "moebius", {"op": "apply", "word": _word_json(w), "z": _vec(z)}, \
            ref.apply_word(w, z)

    def _req_moebius_map_sphere(self, rng, k):
        def make():
            w = tuple(random_generator(rng, kind, 8) for kind in ("shift", "inv", "roto"))
            center, radius = rng.normal(size=8), rng.uniform(0.3, 2.0)
            units = rng.normal(size=(8, 8))
            pts = center + radius * units / np.linalg.norm(units, axis=1, keepdims=True)
            return w, center, radius, pts
        w, center, radius, pts = draw(
            make, lambda x: all(orbit_safe(x[0], p, low=0.05, high=50.0) for p in x[3]))
        sphere = {"E": 1.0, "J": _vec(-center), "D": float(center @ center - radius ** 2)}
        return "moebius", {"op": "map-sphere", "word": _word_json(w), "sphere": sphere}, \
            ref.apply_word(w, pts)

    def _req_domain_ball(self, rng, k):
        a = rand_unit(rng, 4) * rng.uniform(0.1, 0.9)
        z = rand_unit(rng, 4) * rng.uniform(0.1, 0.9)
        return "domain", {"op": "ball", "a": _vec(a), "z": _vec(z)}, ball_involution(a, z)

    def _req_domain_cayley(self, rng, k):
        m = rand_imag_unit(rng, 8)
        z = rng.normal(size=8)
        t = float(m[1:] @ z[1:])
        if t <= 0.1:
            z = z + (0.5 - t) * m
        want = ref.mul(ref.inv(z + m), z - m)
        return "domain", {"op": "cayley", "z": _vec(z), "M": _vec(m)}, want

    def _req_contour_integral(self, rng, k):
        c = rng.normal(size=4)
        m = rand_imag_unit(rng, 4)
        p0, p1 = rng.uniform(-1, 0, size=2), rng.uniform(0, 1, size=2)
        pts = [list(p0 + (p1 - p0) * t) for t in np.linspace(0, 1, 9)]
        z0, z1 = (ref.real(p[0], 4) + p[1] * m for p in (pts[0], pts[-1]))
        # the antiderivative of c z is c z^2 / 2 on either side
        want = 0.5 * (ref.mul(c, ref.mul(z1, z1)) - ref.mul(c, ref.mul(z0, z0)))
        text = "[" + ", ".join(repr(float(v)) for v in c) + "] z"
        return "contour", {"op": "integral", "phrase": text,
                           "path": {"a0": [0.0] * 4, "M": _vec(m), "pts": pts}}, want

    def _req_contour_winding(self, rng, k):
        m = rand_imag_unit(rng, 8)
        r, th = rng.uniform(0, 0.8), rng.uniform(0, 2 * math.pi)
        a = ref.real(r * math.cos(th), 8) + r * math.sin(th) * m
        loop = {"a0": [0.0] * 8, "M": _vec(m), "pts": _unit_circle(32)}
        return "contour", {"op": "winding", "loop": loop, "a": _vec(a)}, 1

    def _req_contour_zeros(self, rng, k):
        m = rand_imag_unit(rng, 4)
        r, th = 0.55 * math.sqrt(rng.uniform()), rng.uniform(0, 2 * math.pi)
        za = ref.real(r * math.cos(th), 4) + r * math.sin(th) * m
        gen = random_generator(rng, "mulq", 4)
        word = [{"op": "shift", "c": _vec(-za)},
                {"op": "mulq", "a": list(gen[1]), "b": list(gen[2])}]
        loop = {"a0": [0.0] * 4, "M": _vec(m), "pts": _unit_circle(64)}
        return "contour", {"op": "zeros", "map": {"kind": "moebius", "word": word},
                           "loop": loop}, 1

    def _req_normal_rho(self, rng, k):
        a, b, c, c2 = (rng.normal(size=4) for _ in range(4))
        grid = {"center": [0.0] * 4, "radius": 1.0, "resolution": 32}
        return "normal", {"op": "rho", "grid": grid,
                          "maps": [[_vec(a), _vec(b), _vec(c)], [_vec(a), _vec(b), _vec(c2)]]}, \
            float(np.linalg.norm(c - c2))

    def _req_normal_classify(self, rng, k):
        a, b, c = (rng.normal(size=4) for _ in range(3))
        u = rand_unit(rng, 4)
        maps = [[_vec(a), _vec(b), _vec(c + 0.3 * 10.0 ** -j * u)] for j in range(8)]
        grid = {"center": [0.0] * 4, "radius": 1.0, "resolution": 16}
        return "normal", {"op": "classify", "grid": grid, "maps": maps}, "ConvergesTo"

    def _req_suite(self, rng, k):
        return "suite", {"name": "fd-validity"}, True

    def _req_list_suites(self, rng, k):
        return "list-suites", {}, None

    # -- timed work ------------------------------------------------------------

    def argv(self, item):
        return [item["command"], "--json", "-", "--seed", str(self.seed)]

    def run(self, item, wrap):
        proc = subprocess.run([sys.executable, "-m", "cdconf.cli", *self.argv(item)],
                              input=item["text"], capture_output=True, text=True,
                              env=self.env, timeout=REQUEST_TIMEOUT_S)
        return {"code": proc.returncode, "stdout": proc.stdout}

    def failed(self, item, out):
        if not item["malformed"]:
            return False
        if isinstance(out, Exception):
            return True
        doc = strict_document(out["stdout"])
        return not (out["code"] == 2 and isinstance(doc, dict) and "error" in doc)

    # -- checks ------------------------------------------------------------------

    def check(self, item, out):
        require(out["code"] == 0, f"{item['kind']}: exit {out['code']}")
        doc = strict_document(out["stdout"])
        require(isinstance(doc, dict), f"{item['kind']}: not one strict JSON document")
        getattr(self, "_check_" + item["kind"].replace("-", "_"))(item, doc, item["expect"])

    @staticmethod
    def _close(got, want, tol, what):
        got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
        err = float(np.max(np.abs(got - want))) / (1.0 + float(np.max(np.abs(want))))
        require(err <= tol, f"{what}: off the reference by {err:.3e}")

    def _check_eval_mul(self, item, doc, want):
        self._close(doc["result"], want, 1e-12, "eval mul")

    def _check_eval_exp(self, item, doc, want):
        self._close(doc["result"], want, 1e-12, "eval exp")

    def _check_eval_inv(self, item, doc, x):
        self._close(ref.mul(x, np.asarray(doc["result"])), ref.real(1.0, 8), 1e-12, "x inv(x)")

    def _check_check_pc(self, item, doc, lam):
        require(doc["status"] == "Pseudoconformal", f"check-pc status {doc['status']}")
        require(abs(doc["lambda"] - lam) <= 1e-6 * lam, f"check-pc lambda {doc['lambda']} != {lam}")

    def _check_factor_quaternion(self, item, doc, jac):
        a, b = np.asarray(doc["a"]), np.asarray(doc["b"])
        rebuilt = doc["lambda"] * ref.operator_matrix(lambda h: ref.mul(ref.mul(a, h), b), 4)
        self._close(rebuilt, jac, 1e-6, "factor (quaternion)")

    def _check_factor_octonion(self, item, doc, rot):
        rebuilt = doc["lambda"] * ref.rotation_matrix([tuple(a) for a in doc["angles"]])
        self._close(rebuilt, rot, 1e-6, "factor (octonion)")

    def _check_phrase_eval(self, item, doc, want):
        self._close(doc["result"], want, 1e-10, "phrase eval")

    def _check_moebius_apply(self, item, doc, want):
        self._close(doc["result"], want, 1e-10, "moebius apply")

    def _check_moebius_map_sphere(self, item, doc, images):
        s = doc["sphere"]
        res = ref.sphere_residual(s["E"], s["J"], s["D"], images)
        require(res <= 1e-9, f"map-sphere: image points off the sphere by {res:.3e}")

    def _check_domain_ball(self, item, doc, want):
        self._close(doc["result"][0], want, 1e-12, "domain ball")

    def _check_domain_cayley(self, item, doc, want):
        self._close(doc["result"], want, 1e-12, "domain cayley")

    def _check_contour_integral(self, item, doc, want):
        self._close(doc["result"], want, 1e-9, "contour integral")

    def _check_contour_winding(self, item, doc, turns):
        require(doc["turns"] == turns, f"winding {doc['turns']} != {turns}")

    def _check_contour_zeros(self, item, doc, count):
        require(doc["count"] == count, f"zero count {doc['count']} != {count}")

    def _check_normal_rho(self, item, doc, want):
        require(abs(doc["rho"] - want) <= 1e-12 * max(want, 1.0), f"rho {doc['rho']} != {want}")

    def _check_normal_classify(self, item, doc, kind):
        require(doc["kind"] == kind, f"classify {doc['kind']} != {kind}")

    def _check_suite(self, item, doc, passed):
        require(doc["passed"] is passed and doc["cases"], "suite fd-validity did not pass")

    def _check_list_suites(self, item, doc, _):
        require(doc["count"] == len(doc["suites"]) > 0, "list-suites count mismatch")


def child_env(root: Path) -> dict:
    """Environment for a fresh interpreter that imports the checkout's cdconf."""
    env = dict(os.environ)
    src = str((Path(root) / "src").resolve())
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


STARTUP_PROBES = 5
IMPORT_PROBE = ("import time; t = time.perf_counter(); import cdconf.cli; "
                "print(time.perf_counter() - t)")


def cli_layer_metrics(seed: int, root: Path) -> dict:
    """The cli layer's figures, measured the same way on every workload:
    medians of a bare interpreter's start and of importing cdconf.cli in a
    fresh one (each over STARTUP_PROBES child processes), and of an
    in-process cli.main call on each request of one cli-cold round."""
    from cdconf import cli

    env = child_env(root)
    starts, imports = [], []
    for _ in range(STARTUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
        starts.append(time.perf_counter() - t0)
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, check=True,
                             capture_output=True, text=True)
        imports.append(float(out.stdout))
    wl = CliCold(seed, root)
    mains = []
    for k in range(len(ROUND)):
        item = wl.item(k)
        saved = sys.stdin
        sys.stdin = io.StringIO(item["text"])
        sink = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                cli.main(wl.argv(item))
        except Exception:  # the malformed requests that escape main today
            pass
        finally:
            mains.append(time.perf_counter() - t0)
            sys.stdin = saved
    return {"cli.interpreter_start_s": statistics.median(starts),
            "cli.import_s": statistics.median(imports),
            "cli.main_s": statistics.median(mains)}


def _word_json(word):
    out = []
    for gen in word:
        if gen[0] == "shift":
            out.append({"op": "shift", "c": _vec(gen[1])})
        elif gen[0] == "inv":
            out.append({"op": "inv"})
        elif gen[0] == "mulq":
            out.append({"op": "mulq", "a": _vec(gen[1]), "b": _vec(gen[2])})
        else:
            out.append({"op": "roto", "angles": [list(a) for a in gen[1]]})
    return out
