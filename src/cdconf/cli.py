"""JSON command surface: `cdconf <command> [--json FILE|-] [--seed N] [--tol X]`.

Commands map onto the library modules one to one; stdout carries exactly
one strict JSON document, human-readable logging goes to stderr.  Exit
codes: 0 success; 1 domain/precondition failure or a non-finite result
(structured error object on stdout); 2 malformed request (schema error
object on stdout): a payload that is not JSON, a number anywhere in the
request that is not finite as a double, a boolean in any field but
`strict`, a missing or mistyped field (a numeric string is not a number),
or an out-of-range argument (`--tol` must be finite and positive, `--seed`
nonnegative, counts >= 1, `samples` at most MAX_SAMPLES).
`run` alone decides whether a request is malformed.

All randomized behavior (sampled verifier inputs, suites) derives from
the --seed argument through numpy's PCG64 generator, so identical
(command, payload, seed) invocations print identical bytes.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import algebra, phrase as ph
from .algebra import CdNumber, cd
from .calculus import (
    RealJacobian,
    dzbar_norm,
    factor_octonion_givens,
    factor_quaternion,
    is_pseudoconformal_at,
    jacobian,
)
from .contour import (
    PlanarLoop,
    PlanarPath,
    PlaneRect,
    count_zeros,
    disc_samples,
    line_integral,
    locate_zeros,
    max_principle_check,
    rouche_equal,
    winding,
)
from .domains import (
    BallAutomorphism,
    HomogeneousNorm,
    PolydiscAutomorphism,
    ball_apply,
    ball_to_halfspace,
    cartan_check,
    cayley_to_ball,
    polydisc_apply,
    schwarz_check,
)
from .errors import CdconfError, SchemaError
from .moebius import (
    INF,
    Hypersphere,
    MoebiusWord,
    apply_word,
    compose,
    inverse,
    map_hypersphere,
    reflect_conjugate,
    schwarz_extend,
    symmetric_point,
)
from .normal import AffineMap, CompactGrid, classify_sequence, rho
from .suites import ball_points, list_suites, run_suite

__all__ = ["run", "main"]

_REQUIRED = object()
_FLOAT_MAX = sys.float_info.max

# Largest sample count a request may ask of `domain schwarz`, `domain cartan`
# and `contour maxmod`; their work grows linearly with it.
MAX_SAMPLES = 10_000


def _need(payload, key, kind=None, default=_REQUIRED):
    """payload[key] of the given type; default when absent, if one is given."""
    if key not in payload:
        if default is _REQUIRED:
            raise SchemaError(f"missing field {key!r}")
        return default
    val = payload[key]
    if kind is not None and not isinstance(val, kind):
        raise SchemaError(f"field {key!r} has wrong type {type(val).__name__}")
    return val


def _num(payload, key, default=_REQUIRED) -> float:
    return float(_need(payload, key, (int, float), default))


def _int(payload, key, default=_REQUIRED, low=None) -> int:
    """An integer field (never a bool), at least `low` when that is given."""
    val = _need(payload, key, default=default)
    if key in payload and (type(val) is not int or low is not None and val < low):
        raise SchemaError(f"field {key!r} must be an integer"
                          + ("" if low is None else f" >= {low}"))
    return val


def _samples(payload, default) -> int:
    n = _int(payload, "samples", default, low=1)
    if n > MAX_SAMPLES:
        raise SchemaError(f"field 'samples' must be at most {MAX_SAMPLES}")
    return n


def _element(val, key) -> CdNumber:
    """cd(val); a value of field key that is no element is a schema error."""
    try:
        return cd(val)
    except CdconfError as exc:
        raise SchemaError(f"field {key!r}: {exc}") from exc


def _cd(payload, key) -> CdNumber:
    return _element(_need(payload, key, list), key)


def _coords(payload, key) -> tuple:
    """One point, or a list of points, as a tuple of coordinates."""
    raw = _need(payload, key, list)
    rows = raw if raw and isinstance(raw[0], list) else [raw]
    return tuple(_element(row, key) for row in rows)


def _word(payload, key="word") -> MoebiusWord:
    return MoebiusWord.from_json(_need(payload, key, list), _int(payload, "level", None))


def _point_or_inf(value):
    return "inf" if value is INF else value.to_json()


def _map_spec(payload, key="map"):
    """Callable from a map description: a generator word or a phrase."""
    spec = _need(payload, key, dict)
    kind = _need(spec, "kind", str)
    if kind == "moebius":
        return _word(spec)
    if kind == "phrase":
        return ph.parse(_need(spec, "text", str))
    raise SchemaError(f"unknown map kind {kind!r}")


# ---------------------------------------------------------------------------
# command handlers
# ---------------------------------------------------------------------------

def _cmd_eval(payload, rng, tol):
    op = _need(payload, "op", str)
    if op == "mul":
        return {"result": algebra.mul(_cd(payload, "x"), _cd(payload, "y")).to_json()}
    if op == "conj":
        return {"result": algebra.conj(_cd(payload, "x")).to_json()}
    if op == "re":
        return {"result": algebra.re(_cd(payload, "x"))}
    if op == "norm":
        return {"result": algebra.norm(_cd(payload, "x"))}
    if op == "inv":
        return {"result": algebra.inv(_cd(payload, "x")).to_json()}
    if op == "proj":
        return {"result": algebra.proj(_int(payload, "j"), _cd(payload, "x"))}
    if op == "exp":
        return {"result": algebra.exp(_cd(payload, "x")).to_json()}
    if op == "ln":
        branch = _int(payload, "branch", 0)
        return {"result": algebra.ln_branch(_cd(payload, "x"), branch).to_json()}
    if op == "pow":
        alpha, branch = _num(payload, "alpha"), _int(payload, "branch", 0)
        return {"result": algebra.pow_real(_cd(payload, "x"), alpha, branch).to_json()}
    if op == "polar":
        p = algebra.polar(_cd(payload, "x"))
        return {"modulus": p.modulus, "arg": p.arg.to_json()}
    raise SchemaError(f"unknown eval op {op!r}")


def _cmd_check_pc(payload, rng, tol):
    f = _map_spec(payload)
    z = _cd(payload, "z")
    jac = jacobian(f, z, _num(payload, "step", 1e-5))
    out = is_pseudoconformal_at(jac, z, tol or 1e-6).to_json()
    out["dzbar_norm"] = dzbar_norm(jac)
    return out


def _cmd_factor(payload, rng, tol):
    if "matrix" in payload:
        matrix = algebra.real_array(_need(payload, "matrix", list))
        jac = RealJacobian(_int(payload, "level"), matrix)
    else:
        jac = jacobian(_map_spec(payload), _cd(payload, "z"), _num(payload, "step", 1e-5))
    if jac.level == 2:
        fac = factor_quaternion(jac, tol or 1e-6)
        return {"lambda": fac.lam, "a": fac.a.to_json(), "b": fac.b.to_json()}
    fac = factor_octonion_givens(jac, tol or 1e-6)
    return {"lambda": fac.lam, "angles": [[k, m, t] for k, m, t in fac.angles]}


def _cmd_phrase(payload, rng, tol):
    op = _need(payload, "op", str)
    expr = ph.parse(_need(payload, "text", str), strict=_need(payload, "strict", bool, False))
    if op == "parse":
        return {"canonical": expr.render(), "words": len(expr.words),
                "max_degree": expr.max_degree()}
    if op == "length":
        return {"lengths": [ph.word_length(w) for w in expr.words]}
    if op == "distance":
        other = ph.parse(_need(payload, "other", str))
        return {"distance": ph.phrase_distance(expr, other, _num(payload, "b", 0.5))}
    if op == "eval":
        h = _cd(payload, "h") if "h" in payload else None
        return {"result": ph.eval_phrase(expr, _cd(payload, "z"), h).to_json()}
    var = _int(payload, "var", 1)
    if op == "derive":
        return {"result": ph.derivative_at_one(expr, var).render()}
    if op == "antiderive":
        return {"result": ph.antiderive(expr, _need(payload, "side", str, "left"), var).render()}
    if op == "hat":
        return {"result": ph.hat_operator(expr, var, _need(payload, "side", str, "left")).render()}
    raise SchemaError(f"unknown phrase op {op!r}")


def _sphere(payload, key="sphere") -> Hypersphere:
    return Hypersphere.from_json(_need(payload, key, dict))


def _cmd_moebius(payload, rng, tol):
    op = _need(payload, "op", str)
    if op in ("apply", "inverse-apply"):
        word = _word(payload)
        if op == "inverse-apply":
            word = inverse(word)
        z = INF if _need(payload, "z") == "inf" else _cd(payload, "z")
        return {"result": _point_or_inf(apply_word(word, z))}
    if op == "compose":
        return {"word": compose(_word(payload), _word(payload, "word2")).to_json()}
    if op == "inverse":
        return {"word": inverse(_word(payload)).to_json()}
    if op == "map-sphere":
        return {"sphere": map_hypersphere(_word(payload), _sphere(payload)).to_json()}
    if op == "symmetric":
        return {"result": _point_or_inf(symmetric_point(_cd(payload, "z"), _sphere(payload)))}
    if op == "reflect":
        return {"result": reflect_conjugate(_cd(payload, "z")).to_json()}
    if op == "schwarz-extend":
        return {"result": _point_or_inf(schwarz_extend(_word(payload), _cd(payload, "z")))}
    raise SchemaError(f"unknown moebius op {op!r}")


def _ball_squared(spec):
    """z -> S_a(S_a(z)) for the ball involution S_a, and the level of a."""
    phi = BallAutomorphism(_cd(spec, "a"))
    return (lambda z: phi(phi(z))), phi.a[0].level


def _cmd_domain(payload, rng, tol):
    op = _need(payload, "op", str)
    if op == "ball":
        frame = [(_element(l, "frame"), _element(r, "frame"))
                 for l, r in _need(payload, "frame", list, [])] or None
        phi = BallAutomorphism(_coords(payload, "a"), frame)
        return {"result": [w.to_json() for w in ball_apply(phi, _coords(payload, "z"))]}
    if op == "polydisc":
        mult = [tuple(_element(c, "multipliers") for c in row)
                for row in _need(payload, "multipliers", list)]
        psi = PolydiscAutomorphism(_coords(payload, "b"), tuple(mult), payload.get("sigma"))
        return {"result": [w.to_json() for w in polydisc_apply(psi, _coords(payload, "z"))]}
    if op == "cayley":
        return {"result": _point_or_inf(cayley_to_ball(_cd(payload, "z"), _cd(payload, "M")))}
    if op == "uncayley":
        return {"result": _point_or_inf(ball_to_halfspace(_cd(payload, "w"), _cd(payload, "M")))}
    if op == "schwarz":
        spec = _need(payload, "map", dict)
        kind = _need(spec, "kind", str)
        if kind == "frame":
            u, v = _cd(spec, "u"), _cd(spec, "v")
            f = AffineMap(u, v, CdNumber.zero(u.level))
            level = u.level
        elif kind == "ball-squared":
            f, level = _ball_squared(spec)
        else:
            raise SchemaError(f"unknown schwarz map kind {kind!r}")
        samples = ball_points(rng, level, _samples(payload, 100), 0.4, 0.95)
        res = schwarz_check(f, HomogeneousNorm(_need(payload, "norm_in", str, "euclidean")),
                            HomogeneousNorm(_need(payload, "norm_out", str, "euclidean")),
                            samples, tol or 1e-9)
        return {"holds": res.holds, "worst_ratio": res.worst_ratio}
    if op == "cartan":
        spec = _need(payload, "map", dict)
        if _need(spec, "kind", str) != "ball-squared":
            raise SchemaError("cartan map kind must be 'ball-squared'")
        f, level = _ball_squared(spec)
        samples = ball_points(rng, level, _samples(payload, 100), 0.4, 0.95)
        res = cartan_check(f, CdNumber.zero(level), samples, tol or 1e-8)
        return {"is_identity": res.is_identity, "max_deviation": res.max_deviation}
    raise SchemaError(f"unknown domain op {op!r}")


def _loop(payload, key="loop") -> PlanarLoop:
    return PlanarLoop.from_json(_need(payload, key, dict))


def _cmd_contour(payload, rng, tol):
    op = _need(payload, "op", str)
    if op == "integral":
        expr = ph.parse(_need(payload, "phrase", str))
        path = PlanarPath.from_json(_need(payload, "path", dict))
        val = line_integral(expr, path, _num(payload, "refine", 1e-10),
                            _need(payload, "side", str, "left"))
        return {"result": val.to_json()}
    if op == "winding":
        res = winding(_loop(payload), _cd(payload, "a"))
        return {"turns": res.turns, "raw_phase": res.raw_phase, "M": res.m.to_json()}
    if op == "zeros":
        return {"count": count_zeros(_map_spec(payload), _loop(payload),
                                     _num(payload, "boundary_tol", 1e-9))}
    if op == "rouche":
        res = rouche_equal(_map_spec(payload, "f"), _map_spec(payload, "g"),
                           _loop(payload))
        return {"holds": res.holds, "n_g": res.n_g, "n_h": res.n_h}
    if op == "maxmod":
        loop = _loop(payload)
        disc = _need(payload, "disc", dict)
        samples = disc_samples(tuple(_need(disc, "center", list)), _num(disc, "radius"),
                               _samples(payload, 500), rng,
                               a0=loop.a0, m=loop.m)
        res = max_principle_check(_map_spec(payload), loop, samples, tol or 1e-9)
        return {"holds": res.holds, "sup_interior": res.sup_interior,
                "sup_boundary": res.sup_boundary}
    if op == "locate":
        spec = _need(payload, "rect", dict)
        rect = PlaneRect(_cd(spec, "a0"), _cd(spec, "M"),
                         _num(spec, "x0"), _num(spec, "x1"),
                         _num(spec, "y0"), _num(spec, "y1"))
        found = locate_zeros(_map_spec(payload), rect, _num(payload, "min_cell"),
                             _num(payload, "boundary_tol", 1e-9))
        return {"zeros": [{"center": z.to_json(), "order": k} for z, k in found]}
    raise SchemaError(f"unknown contour op {op!r}")


def _affine_maps(payload):
    maps = []
    for row in _need(payload, "maps", list):
        if not isinstance(row, list) or len(row) != 3:
            raise SchemaError("each map is an [a, b, c] coefficient triple")
        maps.append(AffineMap(*(_element(v, "maps") for v in row)))
    return maps


def _cmd_normal(payload, rng, tol):
    op = _need(payload, "op", str)
    spec = _need(payload, "grid", dict)
    grid = CompactGrid(_cd(spec, "center"), _num(spec, "radius"),
                       _int(spec, "resolution", 256, low=1))
    if op == "rho":
        maps = _affine_maps(payload)
        if len(maps) != 2:
            raise SchemaError("rho compares exactly two maps")
        val = rho(maps[0], maps[1], grid)
        return {"rho": val.value, "resolution": val.resolution}
    if op == "classify":
        return classify_sequence(_affine_maps(payload), grid, tol or 1e-3).to_json()
    raise SchemaError(f"unknown normal op {op!r}")


def _cmd_list_suites(payload, rng, tol):
    suites = list_suites()
    return {"suites": suites, "count": len(suites)}


_COMMANDS = {
    "eval": _cmd_eval,
    "check-pc": _cmd_check_pc,
    "factor": _cmd_factor,
    "phrase": _cmd_phrase,
    "moebius": _cmd_moebius,
    "domain": _cmd_domain,
    "contour": _cmd_contour,
    "normal": _cmd_normal,
    "list-suites": _cmd_list_suites,
}


def _check_values(value, key=None):
    """Reject, anywhere in the request, a number that is not finite as a
    double and a boolean outside the field 'strict'."""
    if isinstance(value, dict):
        for k, v in value.items():
            _check_values(v, k)
    elif isinstance(value, list):
        for v in value:
            _check_values(v, key)
    elif isinstance(value, bool) and key != "strict":
        raise SchemaError(f"field {key!r}: a boolean is accepted only in 'strict'")
    elif isinstance(value, (int, float)) and not -_FLOAT_MAX <= value <= _FLOAT_MAX:
        raise SchemaError(f"field {key!r}: {value!r:.40} is not a finite double")


def run(request: dict) -> dict:
    """Execute one command request {command, payload, seed?, tol?}.

    Every malformed request raises SchemaError here: the values are checked
    once up front, and the argument errors that the library's constructors
    and parsers raise on request data become SchemaError.  Library errors
    (CdconfError) pass through unchanged.
    """
    try:
        if not isinstance(request, dict):
            raise SchemaError("request must be a JSON object")
        _check_values(request)
        command = _need(request, "command", str)
        payload = _need(request, "payload", dict, {})
        seed = _int(request, "seed", 0, low=0)
        tol = _need(request, "tol", (int, float), None)
        if tol is not None and tol <= 0:
            raise SchemaError("tol must be positive")
        if command == "suite":
            return run_suite(_need(payload, "name", str), seed).to_json()
        if command not in _COMMANDS:
            raise SchemaError(f"unknown command {command!r}")
        return _COMMANDS[command](payload, np.random.default_rng(seed), tol)
    except CdconfError:
        raise
    except (KeyError, TypeError, ValueError, IndexError, RecursionError) as exc:
        raise SchemaError(f"malformed request ({type(exc).__name__}): {exc}") from exc


def _emit(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(", ", ": "), allow_nan=False)


def _fail(code: int, kind: str, message) -> int:
    print(_emit({"error": {"type": kind, "message": str(message)}}))
    print(f"error: {message}", file=sys.stderr)
    return code


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise SchemaError(message)


def main(argv=None) -> int:
    parser = _ArgumentParser(
        prog="cdconf",
        description="hypercomplex pseudoconformal analysis over JSON",
    )
    parser.add_argument("command", help="one of: " + ", ".join([*_COMMANDS, "suite"]))
    parser.add_argument("--json", default=None,
                        help="payload file, or '-' for stdin (default: empty payload)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--tol", type=float, default=None)
    try:
        args = parser.parse_args(argv)
        payload = {}
        if args.json == "-":
            text = sys.stdin.read()
            payload = json.loads(text) if text.strip() else {}
        elif args.json:
            with open(args.json, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
    except SchemaError as exc:
        return _fail(2, "schema", exc)
    except (OSError, ValueError, RecursionError) as exc:
        return _fail(2, "schema", f"bad payload: {exc}")

    request = {"command": args.command, "payload": payload, "seed": args.seed}
    if args.tol is not None:
        request["tol"] = args.tol
    try:
        result = run(request)
    except SchemaError as exc:
        return _fail(2, "schema", exc)
    except (CdconfError, ArithmeticError) as exc:
        return _fail(1, type(exc).__name__, exc)
    try:
        text = _emit(result)
    except ValueError:
        return _fail(1, "EvaluationError", "the result is not finite")
    print(text)
    if args.command == "suite":
        for case in result.get("cases", []):
            status = "pass" if case["passed"] else "FAIL"
            print(f"{status}  {case['case']}: worst {case['worst']:.3e} "
                  f"(tol {case['tolerance']:.1e})", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
