"""Run one workload of the round benchmark and print its metrics.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload churn_clean --seed 1 --seconds 8 --trace 0

``--trace 0`` prints every end-to-end metric, measuring steady rounds
for ``--seconds``; ``--trace 1`` prints every per-layer metric from a
traced run over a fixed number of steady rounds (so its counts repeat
exactly for one seed; ``--seconds`` does not apply).  Each metric is printed on
its own line with its unit, then the machine fingerprint and the
correctness notes; the last line is one JSON object with ``correct``,
``attempted`` (rounds run), ``failed`` (rounds that raised, broke load
conservation, or whose digest differs from the serial reference) and
``metrics``.  The exit code is 0 only when every round passed.

The program is imported from ``src/`` of the checkout; nothing is
built.  Scratch state (the durable workload's state directory and the
traced run's span dump) lives under ``.bench_build/perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# Pin native thread pools before NumPy loads: one process, one thread.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    for path in (ROOT / "src", ROOT):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))

    from perfbench import harness
    from perfbench.workloads import DEFAULT_SEED, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--nodes", type=int, default=None,
        help="override the ring size (tests run tiny rings)",
    )
    parser.add_argument(
        "--work-dir", type=Path, default=Path(".bench_build") / "perfbench",
        help="scratch directory for durable state and span dumps",
    )
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    work_dir = args.work_dir.resolve()
    work_dir.mkdir(parents=True, exist_ok=True)

    if args.trace:
        outcome = harness.trace(
            workload, args.seed, nodes=args.nodes, work_dir=work_dir
        )
        recorder = outcome.info.pop("recorder")
        spans = work_dir / f"spans-{workload.name}-{args.seed}.jsonl"
        recorder.write_jsonl(spans)
        outcome.notes.append(f"{outcome.info['spans']} spans written to {spans}")
    else:
        outcome = harness.measure(
            workload, args.seed, args.seconds, nodes=args.nodes, work_dir=work_dir
        )

    for name, (value, unit) in outcome.metrics.items():
        print(f"{workload.name} {name} = {value:.6g} {unit}")
    for key, value in outcome.info.items():
        print(f"{key}: {json.dumps(value)}")
    for note in outcome.notes:
        print(f"note: {note}")
    print(
        f"rounds: {outcome.attempted} attempted, {outcome.failed} failed "
        f"(round_fail_frac {outcome.failed / max(outcome.attempted, 1):.4g})"
    )
    print(outcome.result_line())
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
