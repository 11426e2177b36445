"""The CLI request boundary: every payload ends with exit 0, 1 or 2 and
exactly one strict JSON document on stdout, in bounded time."""

import contextlib
import io
import json
import math
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdconf.cli import main

TIME_LIMIT_S = 5.0
NAN, INF = math.nan, math.inf


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def invoke(argv, text):
    """Run main() on a payload fed through stdin: (exit code, the one strict
    JSON document on stdout, seconds taken)."""
    saved = sys.stdin
    sys.stdin = io.StringIO(text)
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main([argv[0], "--json", "-", *argv[1:]])
    finally:
        sys.stdin = saved
    elapsed = time.perf_counter() - start
    doc = json.loads(out.getvalue(), parse_constant=_reject_constant)
    assert isinstance(doc, dict)
    return code, doc, elapsed


ZERO4 = [0, 0, 0, 0]
TWO_MAPS = [[[1, 0, 0, 0], [1, 0, 0, 0], ZERO4], [[1, 0, 0, 0], [1, 0, 0, 0], [0.1, 0, 0, 0]]]
UNIT16 = [1] + [0] * 15
CONJ_MAP = {"map": {"kind": "phrase", "text": "zc"}, "z": [0.5, 0, 0, 0]}
FRAME_MAP = {"kind": "frame", "u": [0, 1, 0, 0], "v": [0, 0, 1, 0]}
POINT8 = [0.1 * k for k in range(8)]
SEGMENT16 = {"a0": ZERO4, "M": [0, 1, 0, 0], "pts": [[0.1 * k, 0.05 * k] for k in range(17)]}
UNIT_LOOP = {"a0": ZERO4, "M": [0, 1, 0, 0],
             "pts": [[math.cos(2 * math.pi * k / 16), math.sin(2 * math.pi * k / 16)]
                     for k in range(16)] + [[1.0, 0.0]]}
UNIT_LOOP["pts"][0] = [1.0, 0.0]
SCHWARZ_POLE = {"op": "schwarz-extend", "word": [{"op": "inv"}], "level": 2, "z": ZERO4}
STRING_LOOP = {**UNIT_LOOP, "pts": UNIT_LOOP["pts"][:3] + [["0.5", 0.5]] + UNIT_LOOP["pts"][4:]}
MAXMOD = {"op": "maxmod", "map": {"kind": "phrase", "text": "z^2"}, "loop": UNIT_LOOP,
          "disc": {"center": [0, 0], "radius": 0.9}}


def polydisc_sigma(sigma):
    return {"op": "polydisc", "b": [0.2, 0, 0, 0], "multipliers": [[[1, 0, 0, 0]] * 4],
            "z": [0.1, 0.3, 0, 0], "sigma": sigma}


def roto_at(angle):
    return {"op": "apply", "word": [{"op": "roto", "angles": [[2, 5, angle]]}], "z": POINT8}


def sphere_image(**sphere):
    return {"op": "map-sphere", "word": [{"op": "inv"}], "level": 2,
            "sphere": {"E": 1.0, "J": ZERO4, "D": -1.0, **sphere}}


def grid(**kw):
    return {"center": ZERO4, "radius": 1.0, "resolution": 40, **kw}


# (name, argv, payload text or object, exit code)
TABLE = [
    ("antiderive-side-middle", ["phrase"],
     {"op": "antiderive", "text": "z^2", "side": "middle"}, 2),
    ("hat-side-middle", ["phrase"], {"op": "hat", "text": "z^2", "side": "middle"}, 2),
    ("proj-bool-index", ["eval"], {"op": "proj", "j": True, "x": [1, 2, 3, 4]}, 2),
    ("conj-nan", ["eval"], '{"op": "conj", "x": [NaN, 1, 2, 3]}', 2),
    ("conj-1e400", ["eval"], '{"op": "conj", "x": [1e400, 1, 2, 3]}', 2),
    ("mul-bool-coefficient", ["eval"], {"op": "mul", "x": [1, 0, 0, 0], "y": [True, 0, 0, 0]}, 2),
    ("ln-string-branch", ["eval"], {"op": "ln", "x": [1, 2, 0, 0], "branch": "a"}, 2),
    ("derive-float-var", ["phrase"], {"op": "derive", "text": "z^3", "var": 1.7}, 2),
    ("distance-b-3", ["phrase"], {"op": "distance", "text": "z^2", "other": "z^3", "b": 3}, 2),
    ("winding-loop-without-pts", ["contour"],
     {"op": "winding", "loop": {"a0": ZERO4, "M": [0, 1, 0, 0]}, "a": ZERO4}, 2),
    ("map-sphere-without-J", ["moebius"],
     {"op": "map-sphere", "word": [{"op": "inv"}], "level": 2, "sphere": {"E": 1.0, "D": -1.0}}, 2),
    ("schwarz-norm-l1", ["domain"], {"op": "schwarz", "map": FRAME_MAP, "norm_in": "l1"}, 2),
    ("schwarz-negative-samples", ["domain"], {"op": "schwarz", "map": FRAME_MAP, "samples": -3}, 2),
    ("check-pc-step-0", ["check-pc"], {**CONJ_MAP, "step": 0}, 2),
    ("rho-resolution-0", ["normal"], {"op": "rho", "maps": TWO_MAPS, "grid": grid(resolution=0)}, 2),
    ("tol-nan", ["check-pc", "--tol", "nan"], CONJ_MAP, 2),
    ("tol-0", ["check-pc", "--tol", "0"], CONJ_MAP, 2),
    ("seed-negative", ["check-pc", "--seed=-1"], CONJ_MAP, 2),
    ("nested-100000", ["eval"], "[" * 100_000, 2),
    ("integer-5000-digits", ["eval"], '{"op": "norm", "x": [' + "7" * 5000 + ", 0, 0, 0]}", 2),
    ("coefficient-400-digits", ["eval"], '{"op": "norm", "x": [' + "7" * 400 + ", 0, 0, 0]}", 2),
    ("word-generator-not-an-object", ["moebius"],
     {"op": "apply", "word": [{"op": "shift", "c": [1, 0, 0, 0]}, 5], "z": [1, 0, 0, 0]}, 2),
    ("word-level-40", ["moebius"], {"op": "apply", "word": [{"op": "inv"}], "level": 40, "z": "inf"}, 1),
    ("roto-float-planes", ["moebius"],
     {"op": "apply", "word": [{"op": "roto", "angles": [[2.9, 5.2, 0.7]]}], "z": POINT8}, 2),
    ("integral-refine-0", ["contour"],
     {"op": "integral", "phrase": "z^2", "path": SEGMENT16, "refine": 0}, 1),
    ("rouche-pole-on-loop", ["contour"],
     {"op": "rouche", "f": {"kind": "moebius", "word": [{"op": "shift", "c": [-1, 0, 0, 0]},
                                                        {"op": "inv"}]},
      "g": {"kind": "phrase", "text": "z"}, "loop": UNIT_LOOP}, 1),
    ("inv-word-level-2-at-8-coefficients", ["moebius"],
     {"op": "apply", "word": [{"op": "inv"}], "level": 2, "z": POINT8}, 1),
    ("roto-word-at-4-coefficients", ["moebius"],
     {"op": "apply", "word": [{"op": "roto", "angles": [[2, 5, 0.7]]}], "z": [1, 2, 3, 4]}, 1),
    ("schwarz-extend-pole", ["moebius"], SCHWARZ_POLE, 0),
    ("mul-overflows-to-infinity", ["eval"],
     {"op": "mul", "x": [1e200, 0, 0, 0], "y": [1e200, 0, 0, 0]}, 1),
    ("mul-overflows-in-one-coefficient", ["eval"],
     {"op": "mul", "x": [1e200, 1, 0, 0], "y": [1e200, 0, 1, 0]}, 1),
    ("exp-overflow", ["eval"], {"op": "exp", "x": [1000, 0, 0, 0]}, 1),
    ("rho-negative-radius", ["normal"], {"op": "rho", "maps": TWO_MAPS, "grid": grid(radius=-1)}, 1),
    ("rho-16-coefficient-center", ["normal"],
     {"op": "rho", "maps": [[UNIT16, UNIT16, [0] * 16]] * 2,
      "grid": {"center": [0] * 16, "radius": 1.0, "resolution": 16}}, 1),
    # a numeric string is not a number
    ("norm-of-numeric-strings", ["eval"], {"op": "norm", "x": ["1", "2", "3", "4"]}, 2),
    ("shift-by-numeric-strings", ["moebius"],
     {"op": "apply", "word": [{"op": "shift", "c": ["1", "0", "0", "0"]}], "z": [1, 0, 0, 0]}, 2),
    ("roto-string-angle", ["moebius"], roto_at("0.7"), 2),
    ("roto-string-nan-angle", ["moebius"], roto_at("nan"), 2),
    ("map-sphere-string-E", ["moebius"], sphere_image(E="1"), 2),
    ("map-sphere-string-D", ["moebius"], sphere_image(D="-1"), 2),
    ("winding-loop-string-point", ["contour"], {"op": "winding", "loop": STRING_LOOP, "a": ZERO4}, 2),
    ("factor-string-matrix-entry", ["factor"],
     {"level": 2, "matrix": [["1", 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]}, 2),
    # an element with the wrong coefficient count is malformed in every field
    ("ball-a-3-coefficients", ["domain"], {"op": "ball", "a": [0.1, 0, 0], "z": [0.1, 0, 0, 0]}, 2),
    ("ball-z-3-coefficients", ["domain"], {"op": "ball", "a": [0.1, 0, 0, 0], "z": [0.1, 0, 0]}, 2),
    ("ball-frame-3-coefficients", ["domain"],
     {"op": "ball", "a": [0.1, 0, 0, 0], "z": [0.1, 0, 0, 0],
      "frame": [[[1, 0, 0], [1, 0, 0, 0]]]}, 2),
    ("ball-frame-number", ["domain"],
     {"op": "ball", "a": [0.1, 0, 0, 0], "z": [0.1, 0, 0, 0], "frame": [[1, [1, 0, 0, 0]]]}, 2),
    ("polydisc-b-3-coefficients", ["domain"],
     {"op": "polydisc", "b": [0.2, 0, 0], "multipliers": [[[1, 0, 0, 0]] * 4],
      "z": [0.1, 0.3, 0, 0]}, 2),
    ("polydisc-z-3-coefficients", ["domain"],
     {"op": "polydisc", "b": [0.2, 0, 0, 0], "multipliers": [[[1, 0, 0, 0]] * 4],
      "z": [0.1, 0.3, 0]}, 2),
    ("polydisc-multipliers-3-coefficients", ["domain"],
     {"op": "polydisc", "b": [0.2, 0, 0, 0], "multipliers": [[[1, 0, 0, 0]] * 3 + [[1, 0, 0]]],
      "z": [0.1, 0.3, 0, 0]}, 2),
    ("rho-maps-3-coefficients", ["normal"],
     {"op": "rho", "maps": [TWO_MAPS[0], [[1, 0, 0], [1, 0, 0, 0], ZERO4]], "grid": grid()}, 2),
    ("classify-maps-3-coefficients", ["normal"],
     {"op": "classify", "maps": [TWO_MAPS[0]] * 7 + [[[1, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0]]],
      "grid": grid()}, 2),
    # the sample budget
    ("schwarz-10001-samples", ["domain"],
     {"op": "schwarz", "map": FRAME_MAP, "samples": 10_001}, 2),
    ("cartan-10001-samples", ["domain"],
     {"op": "cartan", "map": {"kind": "ball-squared", "a": [0.2, 0.1, 0, 0]}, "samples": 10_001}, 2),
    ("maxmod-10001-samples", ["contour"], {**MAXMOD, "samples": 10_001}, 2),
    # polydisc permutations hold integers
    ("polydisc-sigma-string", ["domain"], polydisc_sigma("0"), 2),
    ("polydisc-sigma-string-entry", ["domain"], polydisc_sigma(["0"]), 2),
    ("polydisc-sigma-float-entry", ["domain"], polydisc_sigma([0.0]), 2),
    # almost no draw lands in the ball at 32 or 64 coefficients: the sampler gives up
    ("schwarz-frame-32-coefficients", ["domain"],
     {"op": "schwarz", "map": {"kind": "frame", "u": [1] + [0] * 31, "v": [1] + [0] * 31}}, 1),
    ("cartan-ball-squared-64-coefficients", ["domain"],
     {"op": "cartan", "map": {"kind": "ball-squared", "a": [0.2, 0.1] + [0] * 62}}, 1),
]


@pytest.mark.parametrize("argv, payload, code", [row[1:] for row in TABLE],
                         ids=[row[0] for row in TABLE])
def test_boundary_table(argv, payload, code):
    text = payload if isinstance(payload, str) else json.dumps(payload)
    got, doc, elapsed = invoke(argv, text)
    assert got == code, doc
    assert ("error" in doc) == (code != 0)
    if code == 2:
        assert doc["error"]["type"] == "schema"
    assert elapsed < TIME_LIMIT_S


def test_schwarz_extension_through_a_pole_is_infinity():
    # the reflection fixes INF, so the extension of z^{-1} at 0 is INF
    code, doc, _ = invoke(["moebius"], json.dumps(SCHWARZ_POLE))
    assert (code, doc) == (0, {"result": "inf"})


def test_conjugation_stays_antiholomorphic_with_a_valid_tol():
    code, doc, _ = invoke(["check-pc", "--tol", "1e-6"], json.dumps(CONJ_MAP))
    assert code == 0
    assert doc["status"] == "AntiholomorphicPart"
    assert doc["dzbar_norm"] == pytest.approx(1.0)


def test_library_index_error_keeps_exit_1():
    # IndexRangeError is also an IndexError; it stays a domain failure
    code, doc, _ = invoke(["eval"], json.dumps({"op": "proj", "x": [1, 2, 3, 4], "j": 7}))
    assert code == 1
    assert doc["error"]["type"] == "IndexRangeError"


def test_a_product_that_overflows_is_not_finite():
    # only the real coefficient overflows; the others stay finite
    payload = {"op": "mul", "x": [1e200, 1, 0, 0], "y": [1e200, 0, 1, 0]}
    code, doc, _ = invoke(["eval"], json.dumps(payload))
    assert (code, doc) == (1, {"error": {"message": "the result is not finite",
                                         "type": "EvaluationError"}})


UNDERFLOWING_SPHERES = [
    sphere_image(E=1e-210, D=-1e-210),
    {"op": "symmetric", "z": [1, 0, 0, 0], "sphere": {"E": 1e-200, "J": ZERO4, "D": -1e-200}},
    {"op": "map-sphere", "word": [{"op": "shift", "c": [1, 0, 0, 0]}], "level": 2,
     "sphere": {"E": 1e-170, "J": ZERO4, "D": -1e-170}},
    # a valid sphere whose E the multiplication shrinks to 1e-170
    {"op": "map-sphere", "word": [{"op": "mulq", "a": [1e10, 0, 0, 0], "b": [1, 0, 0, 0]}],
     "level": 2, "sphere": {"E": 1e-150, "J": ZERO4, "D": -1e-150}},
]


@pytest.mark.parametrize("payload", UNDERFLOWING_SPHERES,
                         ids=["map-sphere-E-1e-210", "symmetric-E-1e-200", "shift-on-E-1e-170",
                              "mulq-shrinks-E-1e-150"])
def test_a_sphere_whose_e_squared_underflows_is_an_evaluation_error(payload):
    code, doc, _ = invoke(["moebius"], json.dumps(payload))
    assert (code, doc) == (1, {"error": {
        "message": "E*E underflows to 0: the hypersphere radius is not computable",
        "type": "EvaluationError"}})


def test_argument_errors_are_schema_errors():
    code, doc, _ = invoke(["eval", "--seed", "x"], "{}")
    assert code == 2 and doc["error"]["type"] == "schema"


# ---------------------------------------------------------------------------
# fuzzing main(): valid values mixed with malformed ones, field by field
# ---------------------------------------------------------------------------

SEGMENT = {"a0": ZERO4, "M": [0, 1, 0, 0], "pts": [[0.1 * k, 0.05 * k] for k in range(5)]}

VECTORS = [[0.3, 0.1, 0, 0], [1, 2, 3, 4], ZERO4, [0.2] * 8, [1, 2, 3], [[0.1, 0, 0, 0]]]
PHRASES = ["z^2", "zc", "[0,1,0,0] z^2 [0,0,1,0] z^3", "z + e", "I", "(z", "z_2 z", "0.25 e"]
WORDS = [[{"op": "shift", "c": [1, 0, 0, 0]}, {"op": "inv"}],
         [{"op": "mulq", "a": [0, 1, 0, 0], "b": [0, 0, 1, 0]}],
         [{"op": "roto", "angles": [[2, 5, 0.7]]}],
         [{"op": "inv"}], [{"op": "spin"}], [1, 2], [{"op": "shift"}]]
MAPS = [{"kind": "moebius", "word": w} for w in WORDS[:4]] + \
       [{"kind": "phrase", "text": t} for t in PHRASES[:4]] + \
       [{"kind": "moebius"}, {"kind": "other"}, {"kind": "phrase", "text": 3}]
SPHERES = [{"E": 1.0, "J": ZERO4, "D": -1.0}, {"E": 0.0, "J": [0, 1, 0, 0], "D": 0.5},
           {"E": 1.0, "J": ZERO4, "D": 1.0}, {"E": 1.0, "D": -1.0}]
LOOPS = [UNIT_LOOP, SEGMENT, {"a0": ZERO4, "M": [0, 1, 0, 0]},
         {"a0": ZERO4, "M": [1, 0, 0, 0], "pts": UNIT_LOOP["pts"]}]
GRIDS = [grid(), grid(resolution=8), grid(radius=0.5), grid(center=[0] * 8),
         grid(center=[0] * 16, resolution=16), grid(radius=-1), grid(resolution=-2), {"radius": 1}]
AFFINE = [[[1, 0, 0, 0], [1, 0, 0, 0], [0.1 * k, 0, 0, 0]] for k in range(8)]

# malformed values: wrong types, booleans, non-finite numbers, zero and negative counts
BAD = [True, False, None, "x", "", 0, -3, 2.5, NAN, INF, -INF, 10 ** 400, [], {},
       [NAN, 0, 0, 0], [True, 0, 0, 0], ["a", 0, 0, 0], [[[]]]]

FIELDS = {
    "eval": {"op": ["mul", "conj", "re", "norm", "inv", "proj", "exp", "ln", "pow", "polar", "nop"],
             "x": VECTORS, "y": VECTORS, "j": [0, 2, 7], "branch": [0, 1, -2],
             "alpha": [0.5, 2, -1.5]},
    "check-pc": {"map": MAPS, "z": VECTORS, "step": [1e-5, 1e-3]},
    "factor": {"map": MAPS, "z": VECTORS, "step": [1e-5],
               "matrix": [[[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
                          [[1, 2], [3, 4]], [[1, 0], [0]]],
               "level": [2, 3, 5]},
    "phrase": {"op": ["parse", "length", "distance", "eval", "derive", "antiderive", "hat", "nop"],
               "text": PHRASES, "other": PHRASES, "b": [0.5, 0.25], "z": VECTORS, "h": VECTORS,
               "var": [1, 2], "side": ["left", "right", "middle"], "strict": [True, False]},
    "moebius": {"op": ["apply", "inverse-apply", "compose", "inverse", "map-sphere",
                       "symmetric", "reflect", "schwarz-extend", "nop"],
                "word": WORDS, "word2": WORDS, "level": [2, 3, 6, 40, -1],
                "z": VECTORS + ["inf"], "sphere": SPHERES},
    "domain": {"op": ["ball", "polydisc", "cayley", "uncayley", "schwarz", "cartan", "nop"],
               "a": VECTORS + [[[0.1, 0, 0, 0], [0, 0.2, 0, 0]]],
               "z": VECTORS + [[[0.1, 0, 0, 0], [0, 0.2, 0, 0]]],
               "b": VECTORS, "w": VECTORS, "M": [[0, 1, 0, 0], [1, 0, 0, 0]],
               "multipliers": [[[[1, 0, 0, 0]] * 4], [[[1, 0, 0, 0]]]],
               "sigma": [[0], [1], [0.0]],
               "frame": [[[[1, 0, 0, 0], [1, 0, 0, 0]]], [[[1, 0, 0, 0]]]],
               "map": [FRAME_MAP, {"kind": "ball-squared", "a": [0.2, 0.1, 0, 0]},
                       {"kind": "ball-squared", "a": [2, 0, 0, 0]}, {"kind": "frame"}],
               "samples": [1, 5, 20], "norm_in": ["euclidean", "max", "l1"],
               "norm_out": ["euclidean", "max"]},
    "contour": {"op": ["integral", "winding", "zeros", "rouche", "maxmod", "locate", "nop"],
                "phrase": PHRASES, "path": LOOPS, "loop": LOOPS, "a": VECTORS,
                "map": MAPS, "f": MAPS, "g": MAPS, "side": ["left", "right", "middle"],
                "refine": [1e-10, 1e-6], "boundary_tol": [1e-9, 1e-3],
                "disc": [{"center": [0, 0], "radius": 0.9}, {"center": [0], "radius": 0.5},
                         {"radius": 0.5}],
                "samples": [1, 10], "min_cell": [0.2, 0.5],
                "rect": [{"a0": ZERO4, "M": [0, 1, 0, 0], "x0": -0.7, "x1": 0.8,
                          "y0": -0.6, "y1": 0.9},
                         {"a0": ZERO4, "M": [0, 1, 0, 0], "x0": 1, "x1": 0, "y0": 0, "y1": 1}]},
    "normal": {"op": ["rho", "classify", "nop"], "grid": GRIDS,
               "maps": [AFFINE[:2], AFFINE, AFFINE[:5], [[1, 2]], [AFFINE[0][:2]] * 8]},
    "suite": {"name": ["fd-validity", "no-such-suite"]},
    "list-suites": {},
}

FLAGS = st.lists(st.sampled_from(["--tol=1e-6", "--tol=nan", "--tol=0", "--tol=-1", "--tol=inf",
                                  "--seed=3", "--seed=-1", "--seed=x", "--tol=x"]),
                 max_size=2)


def _value(choices):
    return st.one_of(st.sampled_from(choices), st.sampled_from(BAD), st.integers(-4, 4))


def _payload(command):
    fields = FIELDS[command]
    return st.fixed_dictionaries({}, optional={k: _value(v) for k, v in fields.items()})


@pytest.mark.parametrize("command", sorted(FIELDS))
@settings(max_examples=40)
@given(data=st.data())
def test_fuzz_main_ends_with_one_strict_document(command, data):
    payload = data.draw(_payload(command), label="payload")
    flags = data.draw(FLAGS, label="flags")
    code, _, elapsed = invoke([command, *flags], json.dumps(payload))
    assert code in (0, 1, 2)
    assert elapsed < TIME_LIMIT_S
