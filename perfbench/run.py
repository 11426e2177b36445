"""cdconf benchmark: one workload, one seed, one JSON line of results.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a cdconf checkout; it benchmarks the sources under
``src/`` there.  The run starts SETUPS fresh worker processes one after
another; each imports cdconf, builds the workload's inputs from the seed
and warms up.  ``setup_s`` is the median of their times from spawn to
ready.  The last one then runs the timed part for about S seconds.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics when untraced, the
per-layer metrics when traced (``--trace 1``).  The full result and, when
traced, the aggregated span tree are also written under ``.perfbench/``.
See perfbench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import WORKLOADS

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
OUT_DIR = ".perfbench"

SETUPS = 3
READY_TIMEOUT_S = 30.0
RESULT_GRACE_S = 60.0

END_TO_END_UNITS = {"setup_s": "s", "items_per_s": "1/s", "item_p50_ms": "ms",
                    "peak_rss_mb": "MB"}

PER_LAYER_UNITS = {
    "algebra.mul_coeffs.calls": "count/item",
    "algebra.mul_coeffs.elements": "count/item",
    "algebra.mul_coeffs.self_s": "s/item",
    "algebra.mul_coeffs.ns_per_element": "ns",
    "phrase.parse.self_s": "s/item",
    "phrase.antiderive.self_s": "s/item",
    "phrase.derivative_at_one.self_s": "s/item",
    "phrase.hat_operator.self_s": "s/item",
    "phrase.eval_phrase.calls": "count/item",
    "phrase.eval_phrase.points": "count/item",
    "phrase.eval_phrase.self_s": "s/item",
    "contour.line_integral.calls": "count/item",
    "contour.line_integral.levels": "count/integral",
    "contour.line_integral.self_s": "s/item",
    "contour.count_zeros.self_s": "s/item",
    "contour.count_zeros.map_evals": "count/item",
    "contour.rouche_equal.self_s": "s/item",
    "contour.max_principle_check.self_s": "s/item",
    "contour.max_principle_check.map_evals": "count/item",
    "calculus.jacobian.calls": "count/item",
    "calculus.jacobian.map_evals": "count/item",
    "calculus.jacobian.self_s": "s/item",
    "calculus.is_pseudoconformal_at.self_s": "s/item",
    "calculus.factor.self_s": "s/item",
    "moebius.apply_word.calls": "count/item",
    "moebius.apply_word.self_s": "s/item",
    "moebius.apply_many.points": "count/item",
    "moebius.map_hypersphere.self_s": "s/item",
    "domains.ball_apply.calls": "count/item",
    "domains.schwarz_check.self_s": "s/item",
    "normal.classify_sequence.self_s": "s/item",
    "normal.rho.self_s": "s/item",
    "normal.pairs": "count/item",
    "normal.map_evals": "count/item",
    "normal.jacobian_evals": "count/item",
    "cli.interpreter_start_s": "s",
    "cli.import_s": "s",
    "cli.main_s": "s",
    "trace.item_p50_ms": "ms",
}


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


def read_line(proc, timeout: float) -> str:
    """One stdout line of a worker, or '' when it ends or times out."""
    ready, _, _ = select.select([proc.stdout], [], [], timeout)
    return proc.stdout.readline() if ready else ""


def stop(proc) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def run_workers(args, root: Path):
    """Spawn the set-up workers; return their set-up times and the result
    of the last one's timed part, or an error message."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--root", str(root)]
    setups = []
    for k in range(SETUPS):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                text=True, cwd=root)
        try:
            line = read_line(proc, READY_TIMEOUT_S)
            setups.append(time.perf_counter() - t0)
            if line.strip() != "READY":
                return setups, None, f"worker did not get ready (got {line!r})"
            last = k == SETUPS - 1
            proc.stdin.write("go\n" if last else "stop\n")
            proc.stdin.flush()
            if not last:
                proc.wait(READY_TIMEOUT_S)
                continue
            line = read_line(proc, args.seconds + RESULT_GRACE_S)
            if not line:
                return setups, None, "worker ended without a result"
            proc.wait(READY_TIMEOUT_S)
            return setups, json.loads(line), None
        finally:
            stop(proc)
    return setups, None, "no timed worker"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # on SIGTERM, unwind so that the worker is stopped before we exit
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if args.seconds <= 0:
        return fail("--seconds must be positive")

    root = Path.cwd().resolve()
    if not (root / "src" / "cdconf" / "__init__.py").is_file():
        return fail(f"no cdconf sources under {root / 'src'}; run from a checkout's root")

    setups, res, err = run_workers(args, root)
    if err:
        return fail(err)
    for line in res["errors"]:
        print(f"perfbench: {line}", file=sys.stderr)
    times = res["times"]
    if not times:
        return fail("no item completed")
    if args.trace:
        values = dict(res["layers"])
        values["trace.item_p50_ms"] = statistics.median(times) * 1e3
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in PER_LAYER_UNITS.items()}
    else:
        values = {
            "setup_s": statistics.median(setups),
            "items_per_s": len(times) / res["timed_s"],
            "item_p50_ms": statistics.median(times) * 1e3,
            "peak_rss_mb": res["rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    summary = {"correct": res["correct"], "attempted": res["attempted"],
               "failed": res["failed"], "metrics": metrics}

    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = dict(summary, seconds=args.seconds, rounds=res["rounds"], setups_s=setups,
                  item_times_s=times, errors=res["errors"])
    (out_dir / f"result-{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        (out_dir / f"trace-{stem}.json").write_text(json.dumps(res["trace"], indent=1) + "\n")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
