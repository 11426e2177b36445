"""The capped rejection sampler behind the suites and the CLI's ball samples,
and the report of a suite whose check fails."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cdconf import cli, suites
from cdconf.domains import CartanResult, SchwarzResult
from cdconf.errors import CdconfError
from cdconf.suites import ATTEMPTS_PER_SAMPLE, ball_points, rand_cd, sample

SRC = Path(__file__).resolve().parents[1] / "src"


def test_sample_keeps_draw_order_and_passes_the_accepted_count():
    seen = []

    def attempt(k):
        seen.append(k)
        return None if len(seen) % 3 == 0 else len(seen)

    assert sample(4, attempt) == [1, 2, 4, 5]
    assert seen == [0, 1, 2, 2, 3]
    assert sample(0, attempt) == []


def test_sample_gives_up_at_exactly_its_attempt_cap():
    cap = ATTEMPTS_PER_SAMPLE * 3
    calls = []

    def first_only(k):
        calls.append(k)
        return "x" if len(calls) == 1 else None

    with pytest.raises(CdconfError, match=f"accepted 1 of 3 samples in {cap} attempts"):
        sample(3, first_only)
    assert len(calls) == cap

    tries = []

    def last_only(k):
        tries.append(k)
        return "x" if len(tries) == ATTEMPTS_PER_SAMPLE else None

    assert sample(1, last_only) == ["x"]


def test_sample_lets_exceptions_through():
    def attempt(k):
        raise ZeroDivisionError("from the attempt")

    with pytest.raises(ZeroDivisionError):
        sample(2, attempt)


def test_ball_points_are_the_accepted_draws_of_the_stream():
    pts = ball_points(np.random.default_rng(4), 3, 50, 0.4, 0.95)
    rng = np.random.default_rng(4)
    expected = []
    while len(expected) < 50:
        v = rand_cd(rng, 3, 0.4)
        if v.norm() < 0.95:
            expected.append(v)
    assert [p.coeffs.tolist() for p in pts] == [v.coeffs.tolist() for v in expected]


def test_a_suite_that_accepts_nothing_ends_with_an_error():
    code = (
        "import cdconf.suites as s\n"
        "from cdconf.errors import CdconfError\n"
        "s._disc_pole_distance = lambda *args: 0.0\n"
        "try:\n"
        "    s.run_suite('thm28-max-principle', 0)\n"
        "except CdconfError as exc:\n"
        "    print(exc)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=10)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == f"accepted 0 of 50 samples in {50 * ATTEMPTS_PER_SAMPLE} attempts"


@pytest.mark.parametrize("name, check, result, case, tol", [
    ("thm30-cartan", "cartan_check", CartanResult(False, 0.5), "thm30-identity-certified", 1e-8),
    ("thm36-schwarz", "schwarz_check", SchwarzResult(False, 2.0, None), "thm36-norm-shrinking",
     1e-9),
])
def test_a_failing_check_prints_its_fail_report(tmp_path, capsys, monkeypatch,
                                                name, check, result, case, tol):
    # a failed check records a finite worst, so the report can be printed
    monkeypatch.setattr(suites, check, lambda *args, **kwargs: result)
    path = tmp_path / "request.json"
    path.write_text(f'{{"name": "{name}"}}')
    code = cli.main(["suite", "--json", str(path)])
    captured = capsys.readouterr()
    assert code == 0, captured.out
    assert json.loads(captured.out) == {
        "suite": name, "seed": 0, "passed": False,
        "cases": [{"case": case, "passed": False, "worst": 1.0, "tolerance": tol}]}
    assert f"FAIL  {case}: worst 1.000e+00" in captured.err
