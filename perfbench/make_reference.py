"""Regenerate ``perfbench/reference.json``: serial digest chains.

For the default seed, each workload's rounds are checked against the
serial :class:`~repro.core.LoadBalancer` chain stored here, round for
round, as far as the stored chain reaches; other seeds recompute a
short prefix instead.  Regenerate only when the program's digests are
meant to change::

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Rounds stored per chain: more than a default-seed run drives.
ROUNDS = {"churn_clean": 160, "churn_defended": 40, "aware_faulted": 60}


def main() -> int:
    for path in (ROOT / "src", ROOT):
        sys.path.insert(0, str(path))
    from perfbench import harness
    from perfbench.workloads import DEFAULT_SEED, WORKLOADS, Seeds

    chains = {}
    for name, rounds in ROUNDS.items():
        workload = WORKLOADS[name]
        key = harness.reference_key(workload, DEFAULT_SEED, workload.nodes)
        chains[key] = harness.reference_chain(
            workload, Seeds.from_seed(DEFAULT_SEED), workload.nodes, rounds
        )
        print(f"{key}: {rounds} rounds", flush=True)
    payload = {"seed": DEFAULT_SEED, "chains": chains}
    harness.REFERENCE_PATH.write_text(
        json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
