import hashlib
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from cdconf import contour
from cdconf import phrase as ph
from cdconf.algebra import CdNumber
from cdconf.cli import main, run
from cdconf.contour import PlanarLoop
from cdconf.errors import SchemaError
from cdconf.suites import SUITES, rand_cd, rand_imag_unit, random_phrase, random_word


UNIT_LOOP = {
    "a0": [0, 0, 0, 0],
    "M": [0, 1, 0, 0],
    "pts": [
        [math.cos(2 * math.pi * k / 32), math.sin(2 * math.pi * k / 32)]
        for k in range(32)
    ] + [[1.0, 0.0]],
}
UNIT_LOOP["pts"][0] = [1.0, 0.0]

SEGMENT = {
    "a0": [0, 0, 0, 0],
    "M": [0, 1, 0, 0],
    "pts": [[0.1 * k, 0.05 * k] for k in range(17)],
}


def req(command, payload=None, **kw):
    return run({"command": command, "payload": payload or {}, **kw})


# ---------------------------------------------------------------------------
# examples
# ---------------------------------------------------------------------------

def test_eval_generator_product():
    out = req("eval", {"op": "mul", "x": [0, 1, 0, 0], "y": [0, 0, 1, 0]})
    assert out["result"] == [0.0, 0.0, 0.0, 1.0]


def test_check_pc_identity():
    out = req("check-pc", {
        "map": {"kind": "moebius", "word": [{"op": "shift", "c": [0, 0, 0, 0]}]},
        "z": [0.4, 0.1, 0, 0],
    })
    assert out["status"] == "Pseudoconformal"
    assert out["lambda"] == pytest.approx(1.0, abs=1e-8)


def test_suite_runs_with_pass_table():
    out = req("suite", {"name": "thm35-symmetry"}, seed=7)
    assert out["passed"] is True
    assert out["cases"] and all("worst" in c for c in out["cases"])


def test_list_suites_contract():
    out = req("list-suites")
    names = {s["name"] for s in out["suites"]}
    assert "thm33-hypersphere" in names
    assert "thm17-antiderive-roundtrip" in names
    assert "thm35-symmetry" in names
    assert out["count"] == len(SUITES) == 14
    assert all(s.get("anchor") for s in out["suites"])


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def test_byte_determinism_python_level():
    a = json.dumps(req("suite", {"name": "thm37-ball-automorphism"}, seed=3),
                   sort_keys=True)
    b = json.dumps(req("suite", {"name": "thm37-ball-automorphism"}, seed=3),
                   sort_keys=True)
    assert a == b
    c = json.dumps(req("suite", {"name": "thm37-ball-automorphism"}, seed=4),
                   sort_keys=True)
    assert a != c


def test_byte_determinism_process_level(tmp_path):
    payload = tmp_path / "p.json"
    payload.write_text(json.dumps({"name": "sec32-cayley"}))
    cmd = [sys.executable, "-m", "cdconf.cli"]
    outs = []
    for _ in range(2):
        proc = subprocess.run(cmd + ["suite", "--json", str(payload), "--seed", "5"],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_schema_error_exit_2(capsys):
    with pytest.raises(SchemaError):
        req("eval", {"op": "nope"})
    assert main(["definitely-not-a-command"]) == 2
    captured = capsys.readouterr()
    assert json.loads(captured.out.strip().splitlines()[-1])["error"]["type"] == "schema"


def test_domain_error_exit_1(tmp_path, capsys):
    payload = tmp_path / "p.json"
    payload.write_text(json.dumps({"op": "inv", "x": [0, 0, 0, 0]}))
    assert main(["eval", "--json", str(payload)]) == 1
    captured = capsys.readouterr()
    err = json.loads(captured.out.strip().splitlines()[-1])["error"]
    assert err["type"] == "DivisionByZeroError"


def test_cli_happy_path_exit_0(tmp_path, capsys):
    payload = tmp_path / "p.json"
    payload.write_text(json.dumps({"op": "norm", "x": [3, 4, 0, 0]}))
    assert main(["eval", "--json", str(payload)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["result"] == pytest.approx(5.0)


# ---------------------------------------------------------------------------
# registry completeness: every operation of every module has a command
# ---------------------------------------------------------------------------

WORD_SHIFT_INV = [{"op": "shift", "c": [1, 0, 0, 0]}, {"op": "inv"}]

OP_REQUESTS = {
    # algebra
    "algebra.mul": ("eval", {"op": "mul", "x": [0, 1, 0, 0], "y": [0, 1, 0, 0]}),
    "algebra.conj": ("eval", {"op": "conj", "x": [1, 2, 3, 4]}),
    "algebra.re": ("eval", {"op": "re", "x": [1, 2, 3, 4]}),
    "algebra.norm": ("eval", {"op": "norm", "x": [1, 2, 3, 4]}),
    "algebra.inv": ("eval", {"op": "inv", "x": [1, 2, 3, 4]}),
    "algebra.proj": ("eval", {"op": "proj", "x": [1, 2, 3, 4], "j": 2}),
    "algebra.exp": ("eval", {"op": "exp", "x": [0, 1, 0, 0]}),
    "algebra.ln_principal": ("eval", {"op": "ln", "x": [0, 1, 0, 0]}),
    "algebra.pow_real": ("eval", {"op": "pow", "x": [0, 1, 0, 0], "alpha": 0.5}),
    "algebra.polar": ("eval", {"op": "polar", "x": [1, 1, 0, 0]}),
    # calculus
    "calculus.jacobian+is_pseudoconformal_at+dzbar_norm": (
        "check-pc",
        {"map": {"kind": "phrase", "text": "z^2"}, "z": [1, 0.2, 0, 0]},
    ),
    "calculus.factor_quaternion": (
        "factor",
        {"map": {"kind": "moebius",
                 "word": [{"op": "mulq", "a": [0, 1, 0, 0], "b": [0, 0, 1, 0]}]},
         "z": [0.2, 0, 0, 0]},
    ),
    "calculus.factor_octonion_givens": (
        "factor",
        {"map": {"kind": "moebius",
                 "word": [{"op": "roto", "angles": [[2, 5, 0.7]]}],
                 "level": 3},
         "z": [0.2, 0, 0, 0, 0, 0, 0, 0]},
    ),
    # phrase
    "phrase.parse": ("phrase", {"op": "parse", "text": "z^2 z^3"}),
    "phrase.word_length": ("phrase", {"op": "length", "text": "[0,1,0,0] z^3"}),
    "phrase.phrase_distance": (
        "phrase", {"op": "distance", "text": "z^2", "other": "z^3"}),
    "phrase.eval": ("phrase", {"op": "eval", "text": "z^2", "z": [1, 1, 0, 0]}),
    "phrase.derivative_at_one": ("phrase", {"op": "derive", "text": "z^3"}),
    "phrase.antiderive": ("phrase", {"op": "antiderive", "text": "z^3",
                                     "side": "right"}),
    "phrase.hat_operator": ("phrase", {"op": "hat", "text": "z"}),
    # contour
    "contour.line_integral": (
        "contour", {"op": "integral", "phrase": "z", "path": SEGMENT}),
    "contour.winding": ("contour", {"op": "winding", "loop": UNIT_LOOP,
                                    "a": [0, 0, 0, 0]}),
    "contour.count_zeros": (
        "contour", {"op": "zeros", "map": {"kind": "phrase", "text": "z^2"},
                    "loop": UNIT_LOOP}),
    "contour.rouche_equal": (
        "contour", {"op": "rouche",
                    "f": {"kind": "phrase", "text": "0.25 e"},
                    "g": {"kind": "phrase", "text": "z"},
                    "loop": UNIT_LOOP}),
    "contour.max_principle_check": (
        "contour", {"op": "maxmod", "map": {"kind": "phrase", "text": "z^2"},
                    "loop": UNIT_LOOP, "disc": {"center": [0, 0], "radius": 0.9},
                    "samples": 64}),
    "contour.locate_zeros": (
        "contour", {"op": "locate", "map": {"kind": "phrase", "text": "z"},
                    "rect": {"a0": [0, 0, 0, 0], "M": [0, 1, 0, 0],
                             "x0": -0.7, "x1": 0.8, "y0": -0.6, "y1": 0.9},
                    "min_cell": 0.2}),
    # moebius
    "moebius.apply": ("moebius", {"op": "apply", "word": WORD_SHIFT_INV,
                                  "z": [1, 0, 0, 0]}),
    "moebius.compose": ("moebius", {"op": "compose", "word": WORD_SHIFT_INV,
                                    "word2": [{"op": "inv"}], "level": 2}),
    "moebius.inverse": ("moebius", {"op": "inverse", "word": WORD_SHIFT_INV}),
    "moebius.map_hypersphere": (
        "moebius", {"op": "map-sphere", "word": WORD_SHIFT_INV,
                    "sphere": {"E": 1.0, "J": [0, 0, 0, 0], "D": -1.0}}),
    "moebius.symmetric_point": (
        "moebius", {"op": "symmetric", "z": [2, 0, 0, 0],
                    "sphere": {"E": 1.0, "J": [0, 0, 0, 0], "D": -1.0}}),
    "moebius.reflect_conjugate": ("moebius", {"op": "reflect", "z": [1, 2, 3, 4]}),
    "moebius.schwarz_extend": (
        "moebius", {"op": "schwarz-extend",
                    "word": [{"op": "shift", "c": [0.5, 0.2, 0.1, 0]}],
                    "z": [0, 0, 0, -0.5]}),
    # domains
    "domains.ball_apply": ("domain", {"op": "ball", "a": [0.3, 0, 0, 0],
                                      "z": [0.1, 0.2, 0, 0]}),
    "domains.polydisc_apply": (
        "domain", {"op": "polydisc", "b": [0.2, 0, 0, 0],
                   "multipliers": [[[1, 0, 0, 0], [1, 0, 0, 0],
                                    [1, 0, 0, 0], [1, 0, 0, 0]]],
                   "z": [0.1, 0.3, 0, 0]}),
    "domains.cayley_to_ball": ("domain", {"op": "cayley", "z": [0, 1, 0, 0],
                                          "M": [0, 1, 0, 0]}),
    "domains.ball_to_halfspace": ("domain", {"op": "uncayley", "w": [0, 0, 0, 0],
                                             "M": [0, 1, 0, 0]}),
    "domains.schwarz_check": (
        "domain", {"op": "schwarz",
                   "map": {"kind": "frame", "u": [0, 1, 0, 0], "v": [0, 0, 1, 0]},
                   "samples": 32}),
    "domains.cartan_check": (
        "domain", {"op": "cartan",
                   "map": {"kind": "ball-squared", "a": [0.2, 0.1, 0, 0]},
                   "samples": 32}),
    # normal
    "normal.rho": (
        "normal", {"op": "rho",
                   "maps": [[[1, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0]],
                            [[1, 0, 0, 0], [1, 0, 0, 0], [0.1, 0, 0, 0]]],
                   "grid": {"center": [0, 0, 0, 0], "radius": 1.0,
                            "resolution": 40}}),
    "normal.classify_sequence": (
        "normal", {"op": "classify",
                   "maps": [[[1, 0, 0, 0], [1, 0, 0, 0],
                             [1.0 / (k + 1), 0, 0, 0]] for k in range(8)],
                   "grid": {"center": [0, 0, 0, 0], "radius": 1.0,
                            "resolution": 40}},),
    # cli
    "cli.run+list_suites": ("list-suites", {}),
    "cli.run+suite": ("suite", {"name": "fd-validity"}),
}


@pytest.mark.parametrize("opname", sorted(OP_REQUESTS))
def test_every_operation_reachable(opname):
    command, payload = OP_REQUESTS[opname]
    out = run({"command": command, "payload": payload, "seed": 11})
    assert isinstance(out, dict) and "error" not in out


def test_moebius_apply_infinity():
    out = req("moebius", {"op": "apply", "word": [{"op": "inv"}],
                          "z": [0, 0, 0, 0], "level": 2})
    assert out["result"] == "inf"


@pytest.mark.parametrize("side", ["left", "right"])
def test_hat_takes_its_side(side):
    text = "[0,1,0,0] z [0,0,1,0] z"
    out = req("phrase", {"op": "hat", "text": text, "side": side})
    assert out["result"] == ph.hat_operator(ph.parse(text), 1, side).render()
    other = "left" if side == "right" else "right"
    assert out["result"] != ph.hat_operator(ph.parse(text), 1, other).render()


def _normal_rho(radius):
    payload = {"op": "rho", "maps": [[[1, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0]],
                                     [[1, 0.5, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0]]],
               "grid": {"center": [0, 0, 0, 0], "radius": radius, "resolution": 16}}
    return subprocess.run([sys.executable, "-m", "cdconf.cli", "normal", "--json", "-"],
                          input=json.dumps(payload), capture_output=True, text=True)


def test_a_radius_whose_square_overflows_is_refused_without_a_warning():
    proc = _normal_rho(1e300)
    message = "grid radius 1e+300 is too large: its square overflows"
    assert proc.returncode == 1
    assert json.loads(proc.stdout) == {"error": {"message": message, "type": "DomainError"}}
    assert proc.stderr == f"error: {message}\n"  # the error line, and no numpy warning
    proc = _normal_rho(1e-300)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, '{"resolution": 16, "rho": 1.5}\n', "")


# ---------------------------------------------------------------------------
# seeded contour requests: stdout and exit code pinned as one sha256
# ---------------------------------------------------------------------------

def _vec(x):
    return [float(v) for v in (x.coeffs if hasattr(x, "coeffs") else x)]


def _pin_loop(rng, level, signed_zeros=False):
    a0 = rand_cd(rng, level, 0.3).coeffs
    if signed_zeros:  # -0.0 + 0.0 is +0.0 in the per-point sum
        a0 = np.where(rng.random(a0.shape) < 0.5, -0.0, a0)
    center = tuple(rng.normal(size=2) * 0.3)
    return PlanarLoop.circle(CdNumber(a0), rand_imag_unit(rng, level), center=center,
                             radius=float(rng.uniform(0.3, 1.5)),
                             n=int(rng.integers(16, 65)))


def _pin_vertex(loop, k):
    """Loop vertex k in the order of the argument principle's samples."""
    x, y = loop.pts[k]
    return loop.a0 + CdNumber.real(float(x), loop.level) + loop.m * float(y)


def _pin_map(rng, level, kind, zeros=()):
    """A map spec: a random word or phrase, or a phrase vanishing at `zeros`."""
    if kind == "moebius":
        word = random_word(rng, level, n_gens=int(rng.integers(1, 5)))
        return {"kind": "moebius", "word": word.to_json(), "level": level}
    if zeros:
        factors = [ph.z() - ph.const(z) * ph.e() for z in zeros]
        out = ph.const(rand_cd(rng, level))
        for factor in factors:
            out = out * factor
        return {"kind": "phrase", "text": out.render()}
    if rng.random() < 0.4:  # a power of z spins fast: refinement rounds
        text = (ph.z(int(rng.integers(2, 6))) * ph.const(rand_cd(rng, level))).render()
        return {"kind": "phrase", "text": text}
    return {"kind": "phrase", "text": random_phrase(rng, level, max_words=3,
                                                    max_degree=4).render()}


def _pinned_contour_requests():
    """200 seeded `contour` requests: zeros, rouche and locate on moebius
    and phrase maps at levels 2 and 3, among them requests that end with
    exit 1 on a pole or a zero at a loop vertex."""
    rng = np.random.default_rng(20261019)
    out = []
    for level in (2, 3):
        for k in range(45):
            loop = _pin_loop(rng, level, signed_zeros=k % 3 == 0)
            kind = "moebius" if k % 2 else "phrase"
            if kind == "phrase" and k % 4 == 0:  # one or two zeros near the center
                cx, cy = loop.pts[:-1].mean(axis=0)
                inner = [loop.a0 + CdNumber.real(float(cx + dx), level) + loop.m * float(cy + dy)
                         for dx, dy in rng.uniform(-0.2, 0.2, size=(1 + k % 8 // 4, 2))]
                spec = _pin_map(rng, level, kind, zeros=inner)
            else:
                spec = _pin_map(rng, level, kind)
            out.append({"op": "zeros", "map": spec, "loop": loop.to_json()})
        for k in range(27):
            loop = _pin_loop(rng, level)
            g = _pin_map(rng, level, "moebius" if k % 3 == 0 else "phrase")
            if k % 2:
                f = _pin_map(rng, level, "moebius" if k % 4 == 1 else "phrase")
            else:
                small = rand_cd(rng, level, float(rng.choice([1e-3, 0.05, 5.0])))
                f = {"kind": "phrase", "text": (ph.const(small) * ph.e()).render()}
            out.append({"op": "rouche", "f": f, "g": g, "loop": loop.to_json()})
        for k in range(18):
            m = _pin_loop(rng, level).m
            a0 = rand_cd(rng, level, 0.2)
            x0, y0 = (float(v) for v in rng.uniform(-1.0, -0.3, size=2))
            x1, y1 = (float(v) for v in rng.uniform(0.3, 1.0, size=2))
            if k % 3 == 2:
                spec = _pin_map(rng, level, "moebius")
            else:
                zeros = [a0 + CdNumber.real(float(x), level) + m * float(y)
                         for x, y in rng.uniform(-0.25, 0.25, size=(1 + k % 2, 2))]
                if k % 4 == 0:  # a zero on the first cut: the jitter
                    zeros[0] = (a0 + CdNumber.real((x0 + x1) / 2.0, level)
                                + m * ((y0 + y1) / 2.0))
                spec = _pin_map(rng, level, "phrase", zeros=zeros)
            out.append({"op": "locate", "map": spec,
                        "rect": {"a0": _vec(a0), "M": _vec(m), "x0": x0, "x1": x1,
                                 "y0": y0, "y1": y1},
                        "min_cell": float(rng.uniform(0.1, 0.4))})
        for k in range(10):  # exit 1: a pole, or a zero, on a loop vertex
            loop = _pin_loop(rng, level, signed_zeros=k % 2 == 0)
            v = _pin_vertex(loop, int(rng.integers(0, len(loop.pts) - 1)))
            word = [{"op": "shift", "c": _vec(-v)}]
            if k < 5:
                word += [{"op": "inv"}, {"op": "shift", "c": _vec(rand_cd(rng, level))}]
            spec = {"kind": "moebius", "word": word, "level": level}
            if k % 3 == 2:
                out.append({"op": "rouche", "f": {"kind": "phrase", "text": "0.01 e"},
                            "g": spec, "loop": loop.to_json()})
            else:
                out.append({"op": "zeros", "map": spec, "loop": loop.to_json()})
    return out


def _cli_bytes(tmp_path, capsys, command, payload):
    path = tmp_path / "request.json"
    path.write_text(json.dumps(payload))
    code = main([command, "--json", str(path)])
    return f"{code}\n{capsys.readouterr().out}".encode()


# sha256 of the stdout and exit codes below, computed before the argument
# principle was batched
CONTOUR_PIN_SHA256 = "4f6e405bf2e635309cd74533d2bded51a51bb0e9cdf9f404c6bcc56d88a37662"


@pytest.mark.filterwarnings("ignore:variable 1. e/ec multiplicities:UserWarning")
def test_seeded_contour_requests_keep_their_bytes(tmp_path, capsys, monkeypatch):
    outputs = [_cli_bytes(tmp_path, capsys, "contour", p) for p in _pinned_contour_requests()]
    codes = [o.split(b"\n", 1)[0] for o in outputs]
    assert len(outputs) == 200 and codes.count(b"1") >= 60 and codes.count(b"0") >= 100
    # the cell cap, lowered so that reaching it is cheap
    monkeypatch.setattr(contour, "MAX_ZERO_CELLS", 24)
    rect = {"a0": [0.0, 0.0, 0.0, 0.0], "M": [0.0, 0.0, 1.0, 0.0],
            "x0": -1.0, "x1": 1.1, "y0": -0.9, "y1": 1.05}
    for text in ("z", "(z + [-0.3, 0, 0.2, 0] e) z", "z^3"):
        for min_cell in (0.5, 1e-3):
            outputs.append(_cli_bytes(tmp_path, capsys, "contour", {
                "op": "locate", "map": {"kind": "phrase", "text": text},
                "rect": rect, "min_cell": min_cell}))
    digest = hashlib.sha256(b"".join(outputs)).hexdigest()
    assert digest == CONTOUR_PIN_SHA256
