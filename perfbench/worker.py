"""One benchmark process: set up a workload, then run it when told to.

Started by run.py.  The worker imports cdconf from ``<root>/src``, builds
its workload from the seed, runs the warm-up items and prints ``READY``.
It then reads one line from stdin: ``go`` starts the timed part, anything
else ends the process.  After the timed part it prints one JSON line with
the item latencies, the counts, the peak memory and, when traced, the
per-layer figures.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

WORKLOADS = {
    "phrase-quadrature": ("phrase_quadrature", "PhraseQuadrature"),
    "map-analysis": ("map_analysis", "MapAnalysis"),
    "normal-families": ("normal_families", "NormalFamilies"),
    "cli-cold": ("cli_cold", "CliCold"),
}

MAX_ERRORS = 5


def load_workload(name: str, seed: int, root: Path):
    """Import cdconf from the checkout's own sources, then the workload."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import cdconf

    if Path(cdconf.__file__).resolve().parent != src / "cdconf":
        raise SystemExit(f"cdconf was imported from {cdconf.__file__}, not from {src}")
    module_name, cls_name = WORKLOADS[name]
    cls = getattr(importlib.import_module(module_name), cls_name)
    return cls(seed, root)


def timed_rounds(wl, seconds: float, wrap):
    """Attempt whole rounds until the next one would end past the deadline
    by more than half a round.  Only the cdconf work of an item is timed;
    building its input and checking its output are not."""
    from common import CheckFailure

    times, errors = [], []
    attempted = failed = 0
    timed_s = 0.0
    correct = True
    k = rounds = 0
    start = time.perf_counter()
    while True:
        for _ in range(wl.round_size):
            item = wl.item(k)
            k += 1
            t0 = time.perf_counter()
            try:
                out = wl.run(item, wrap)
            except Exception as exc:  # an operation that failed: counted, reported
                out = exc
            dt = time.perf_counter() - t0
            timed_s += dt
            attempted += 1
            if wl.failed(item, out):
                failed += 1
                continue
            if isinstance(out, Exception):
                failed += 1
                correct = False
                errors.append(f"item {k - 1}: {type(out).__name__}: {out}")
                continue
            times.append(dt)
            try:
                wl.check(item, out)
            except CheckFailure as exc:
                correct = False
                errors.append(f"item {k - 1}: {exc}")
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / rounds > seconds:
            break
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "times": times, "timed_s": timed_s, "errors": errors[:MAX_ERRORS],
            "rounds": rounds}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--root", type=Path, required=True)
    args = ap.parse_args(argv)

    wl = load_workload(args.workload, args.seed, args.root)
    warmup_errors = []
    for item in wl.warmup_items():
        try:
            out = wl.run(item, lambda f: f)
            if not wl.failed(item, out):
                wl.check(item, out)
        except Exception as exc:  # a wrong answer or a crash: reported with the result
            warmup_errors.append(f"warm-up: {type(exc).__name__}: {exc}")
    print("READY", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0

    tracer = None
    wrap = lambda f: f  # noqa: E731
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        wrap = tracer.wrap_map
        tracer.install()
    try:
        result = timed_rounds(wl, args.seconds, wrap)
    finally:
        if tracer is not None:
            tracer.restore()
    if warmup_errors:
        result["correct"] = False
        result["errors"] = (warmup_errors + result["errors"])[:MAX_ERRORS]
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    # for cli-cold the work is done by the child processes
    result["rss_mb"] = (children if wl.work_in_children else own) / 1024.0
    if tracer is not None:
        from cli_cold import cli_layer_metrics

        layers = tracer.metrics(len(result["times"]))
        layers.update(cli_layer_metrics(args.seed, args.root))
        result["layers"] = layers
        result["trace"] = tracer.dump()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
