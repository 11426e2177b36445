import json
import math
import subprocess
import sys

import numpy as np
import pytest

from cdconf import phrase as ph
from cdconf.cli import main, run
from cdconf.errors import SchemaError
from cdconf.suites import SUITES


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
