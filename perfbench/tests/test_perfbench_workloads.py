"""Each workload runs a few items and passes its checks; corrupted results
are caught, so no check passes vacuously."""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))

from cdconf import normal  # noqa: E402
from cli_cold import MALFORMED, CliCold  # noqa: E402
from common import CheckFailure  # noqa: E402
from map_analysis import MapAnalysis  # noqa: E402
from normal_families import NormalFamilies  # noqa: E402
from phrase_quadrature import PhraseQuadrature  # noqa: E402
from tracing import Tracer  # noqa: E402

SEED = 7


def identity(f):
    return f


def run_checked(wl, k):
    item = wl.item(k)
    out = wl.run(item, identity)
    wl.check(item, out)
    return item, out


def test_items_are_fixed_by_the_seed():
    a, b = PhraseQuadrature(SEED, ROOT), PhraseQuadrature(SEED, ROOT)
    assert a.item(5)["spec"] == b.item(5)["spec"]
    assert a.item(5)["spec"] != PhraseQuadrature(SEED + 1, ROOT).item(5)["spec"]


def test_phrase_quadrature_checks_and_catches():
    wl = PhraseQuadrature(SEED, ROOT)
    item, out = run_checked(wl, 4)
    run_checked(wl, 3)
    for key in ("open", "closed"):
        bad = dict(out, **{key: out[key] + 1e-6})
        with pytest.raises(CheckFailure):
            wl.check(item, bad)
    bad = dict(out, back={"left": out["back"]["left"], "right": out["reparsed"] * 2})
    with pytest.raises(CheckFailure):
        wl.check(item, bad)


def test_map_analysis_round_checks_and_catches():
    wl = MapAnalysis(SEED, ROOT)
    outs = [run_checked(wl, k) for k in range(wl.round_size)]
    kinds = {item["kind"]: (item, out) for item, out in outs}
    item, out = kinds["zeros"]
    with pytest.raises(CheckFailure):
        wl.check(item, dict(out, double=out["double"] + 1))
    item, out = kinds["word"]
    verdict = out["pc_f"][0]
    with pytest.raises(CheckFailure):
        wl.check(item, dict(out, pc_f=[dataclasses.replace(verdict, lam=verdict.lam * 1.001)]
                            + out["pc_f"][1:]))
    item, out = kinds["maxmod"]
    res = out["res"]
    with pytest.raises(CheckFailure):
        wl.check(item, dict(out, res=dataclasses.replace(
            res, sup_boundary=res.sup_boundary * (1 + 1e-6))))
    item, out = kinds["schwarz"]
    with pytest.raises(CheckFailure):
        wl.check(item, dict(out, ball=dataclasses.replace(
            out["ball"], worst_ratio=out["ball"].worst_ratio + 1e-6)))


def test_normal_families_checks_and_catches():
    wl = NormalFamilies(SEED, ROOT)
    run_checked(wl, 2)
    item, out = run_checked(wl, 6)
    with pytest.raises(CheckFailure):
        wl.check(item, dict(out, res=normal.Classification("ConvergesTo", (8, 9))))
    with pytest.raises(CheckFailure):
        wl.check(item, dict(out, rho=out["rho"] * (1 + 1e-5)))
    item = wl.item(5)  # a planted cluster of words
    out = wl.run(item, identity)
    wl.check(item, out)
    wrong = tuple(sorted(set(item["planted"][1:]) | {(item["planted"][0] + 1) % 16}))
    with pytest.raises(CheckFailure):
        wl.check(item, dict(out, res=normal.Classification("Extracted", wrong)))


def test_cli_cold_checks_and_catches():
    wl = CliCold(SEED, ROOT)
    item, out = run_checked(wl, 0)  # eval mul
    doc = json.loads(out["stdout"])
    doc["result"][0] += 1e-6
    with pytest.raises(CheckFailure):
        wl.check(item, {"code": 0, "stdout": json.dumps(doc)})
    with pytest.raises(CheckFailure):  # two documents
        wl.check(item, {"code": 0, "stdout": out["stdout"] + out["stdout"]})


def test_cli_cold_failure_rule():
    wl = CliCold(SEED, ROOT)
    names = [name for name, _, _ in MALFORMED]
    malformed = [wl.item(k) for k in range(wl.round_size) if wl.item(k)["kind"] in names]
    assert len(malformed) == 3
    good = {"code": 2, "stdout": '{"error": {"type": "schema", "message": "x"}}\n'}
    for item in malformed:
        assert not wl.failed(item, good)
        assert wl.failed(item, {"code": 1, "stdout": ""})
        assert wl.failed(item, {"code": 0, "stdout": '{"result": 9.0}'})
        assert wl.failed(item, {"code": 2, "stdout": '{"error": NaN}'})
    assert not wl.failed(wl.item(0), {"code": 1, "stdout": ""})


def test_tracer_restores_and_counts():
    from cdconf import algebra, phrase

    original = algebra.mul_coeffs
    wl = PhraseQuadrature(SEED, ROOT)
    tracer = Tracer()
    tracer.install()
    try:
        assert phrase.mul_coeffs is not original
        item = wl.item(4)
        wl.check(item, wl.run(item, tracer.wrap_map))
    finally:
        tracer.restore()
    assert algebra.mul_coeffs is original and phrase.mul_coeffs is original
    m = tracer.metrics(1)
    assert m["contour.line_integral.calls"] == 2
    assert m["contour.line_integral.levels"] >= 1
    assert m["algebra.mul_coeffs.calls"] > 0 and m["phrase.eval_phrase.points"] > 0
    assert m["algebra.mul_coeffs.self_s"] > 0


def test_map_evals_are_counted():
    wl = NormalFamilies(SEED, ROOT)
    tracer = Tracer()
    tracer.install()
    try:
        item = wl.item(2)  # affine family: analytic Jacobians
        wl.check(item, wl.run(item, tracer.wrap_map))
    finally:
        tracer.restore()
    m = tracer.metrics(1)
    assert m["normal.pairs"] == 16 * 15 // 2 + 1
    assert m["normal.map_evals"] > 0
    assert m["normal.jacobian_evals"] == m["normal.map_evals"]


def test_run_refuses_a_directory_without_sources(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "cli-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
