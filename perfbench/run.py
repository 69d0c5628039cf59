"""System benchmark of MMA map matching + TRMMA recovery.

Run from the repository root::

    python3 perfbench/run.py --workload bulk-pt --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the traced
composition and prints the per-layer metrics.  The last line of standard
output is one JSON object ``{"correct", "attempted", "failed", "metrics"}``;
the lines before it describe the run (seed, host, engine, every timing's
slice count and quartiles).  A failed output check exits with code 1.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def stop_children() -> None:
    """End every process the run started and wait for each: engine workers
    still alive, and the shared-memory resource tracker, which the parallel
    engine starts and which would otherwise outlive the run."""
    import multiprocessing

    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        tracker._resource_tracker._stop()


def on_sigterm(signum, frame) -> None:
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, on_sigterm)
    try:
        return bench(parse_args(argv))
    finally:
        stop_children()


def bench(args: argparse.Namespace) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"pick from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    if args.trace:
        from traced import run_traced as run
    else:
        from measure import run_untraced as run
    OUT.mkdir(exist_ok=True)
    record, result = run(workload, args.seed, args.seconds, OUT)
    name = f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")
    print("perfbench record: " + json.dumps(record))
    if not result["correct"]:
        print("perfbench: output checks failed: "
              + "; ".join(record["check_failures"]), file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
