"""The benchmark's own tests, on tiny rings.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import harness
from perfbench.spans import SpanRecorder, Target, TARGETS
from perfbench.workloads import WORKLOADS, Seeds, build_stack

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = "160"


def run_bench(
    workload: str, trace: int, tmp_path: Path, cwd: Path = ROOT, seed: int = 5
) -> subprocess.CompletedProcess[str]:
    command = [sys.executable, *SPEC["command"][1:]]
    return subprocess.run(
        command
        + [
            "--workload", workload, "--seed", str(seed), "--seconds", "0.2",
            "--trace", str(trace), "--nodes", TINY,
            "--work-dir", str(tmp_path / "work"),
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
        check=False,
    )


def result(proc: subprocess.CompletedProcess[str]) -> dict:
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_names_every_workload_with_its_reason():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for entry in SPEC["workloads"]:
        assert entry["why"] == WORKLOADS[entry["name"]].why
        assert len(entry["why"]) <= 200


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace, tmp_path):
    res = result(run_bench(workload, trace, tmp_path))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0
    assert res["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(res["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        assert res["metrics"][metric["name"]]["unit"] == metric["unit"]
    if not trace:
        for name in ("setup_s", "cold_round_s", "round_p50_s", "peak_rss_mib"):
            assert res["metrics"][name]["value"] > 0


def test_count_metrics_repeat_exactly(tmp_path):
    first = result(run_bench("aware_faulted", 1, tmp_path))["metrics"]
    second = result(run_bench("aware_faulted", 1, tmp_path))["metrics"]
    counts = [
        m["name"] for m in SPEC["per_layer"]
        if m["unit"] == "count" and not m["name"].startswith("py.")
    ]
    assert counts
    for name in counts:
        assert first[name] == second[name], name


def test_every_span_self_time_is_reported(tmp_path):
    # Self times under a round add up to its wall time by construction;
    # what can break is a recorded span whose time no metric reports.
    metrics = result(run_bench("churn_durable", 1, tmp_path))["metrics"]
    inclusive = {"core.lbi_s", "core.classification_s", "core.vsa_s",
                 "core.vst_s", "core.miss_descent_s", "dht.churn_step_s",
                 "proximity.setup_s", "py.gc_s", "round.wall_s"}
    parts = sum(
        v["value"] for k, v in metrics.items()
        if v["unit"] == "s" and k not in inclusive
    )
    wall = metrics["round.wall_s"]["value"]
    assert parts == pytest.approx(wall, rel=1e-6)


def test_span_coverage_check_fires_when_a_layer_records_nothing():
    workload = WORKLOADS["churn_clean"]
    seeds = Seeds.from_seed(5)
    no_ktree = tuple(t for t in TARGETS if t.layer != "ktree")
    recorder = SpanRecorder(no_ktree)
    recorder.install()
    try:
        with recorder.span("setup") as setup_root:
            stack = build_stack(workload, seeds, nodes=int(TINY))
        log = harness.drive(
            workload, stack, seeds, steady_rounds=2, recorder=recorder
        )
    finally:
        recorder.uninstall()
    _, problems = harness.layer_metrics(
        workload, recorder, log, setup_root,
        {"snapshot_bytes": 0.0, "resident": 0.0, "dijkstra_sources": 0.0},
    )
    assert problems == ["span coverage: no span recorded for layer(s) ['ktree']"]


def test_a_renamed_entry_point_fails_the_traced_run():
    recorder = SpanRecorder(
        (Target("core", "transfer", "repro.core.vst", "execute_transfers_v2"),)
    )
    with pytest.raises(LookupError, match="execute_transfers_v2"):
        recorder.install()
    recorder.uninstall()


def test_sized_spans_record_how_many_keys_they_were_given():
    class Tree:
        def descend(self, keys):
            return len(keys)

    recorder = SpanRecorder()
    descend = recorder.wrap(Tree.descend, "ktree.descend", sized=True)
    with recorder.span("round") as root:
        descend(Tree(), [1, 2, 3])
        descend(Tree(), [4])
    assert recorder.self_times(root)["ktree.descend"][1:] == (2, 4)


def test_wrappers_are_bound_where_callers_look_them_up():
    import repro.core.balancer
    import repro.core.vst

    original = repro.core.vst.execute_transfers
    recorder = SpanRecorder()
    recorder.install()
    try:
        assert repro.core.balancer.execute_transfers is not original
        assert repro.core.vst.execute_transfers is not original
    finally:
        recorder.uninstall()
    assert repro.core.balancer.execute_transfers is original
    assert repro.core.vst.execute_transfers is original


def test_a_digest_divergence_fails_the_gate():
    workload = WORKLOADS["churn_clean"]
    log = harness.RoundLog(digests=["0" * 64, "1" * 64])
    notes: list[str] = []
    assert harness.gate(workload, 5, int(TINY), log, notes) == 2
    assert "2 differ" in notes[0]


# churn_clean runs six cold rounds on throwaway builds before the timed
# pass: round 3 fails among them, round 10 inside the timed pass.
@pytest.mark.parametrize("failing_round", [3, 10])
def test_a_failing_round_is_counted_and_fails_the_run(
    monkeypatch, tmp_path, failing_round
):
    from repro.core.report import check_conservation
    from repro.exceptions import ConservationError

    calls = []

    def breaks_on_one_round(report):
        calls.append(report)
        if len(calls) == failing_round:
            raise ConservationError("injected")
        check_conservation(report)

    monkeypatch.setattr(harness, "check_conservation", breaks_on_one_round)
    outcome = harness.measure(
        WORKLOADS["churn_clean"], 5, 0.1, nodes=int(TINY), work_dir=tmp_path
    )
    assert not outcome.correct
    assert outcome.failed == 1
    assert outcome.attempted == len(calls)
    assert any("ConservationError: injected" in note for note in outcome.notes)
    assert json.loads(outcome.result_line())["failed"] == 1


@pytest.mark.parametrize(
    "workload", ["churn_clean", "churn_defended", "aware_faulted"]
)
def test_stored_reference_matches_a_recomputed_prefix(workload):
    spec = WORKLOADS[workload]
    rounds = spec.reference_rounds
    stored = harness.stored_chain(harness.reference_key(spec, 1, spec.nodes))
    assert stored is not None and len(stored) >= rounds
    fresh = harness.reference_chain(spec, Seeds.from_seed(1), spec.nodes, rounds)
    assert fresh == stored[:rounds]


def test_exits_nonzero_without_the_program(tmp_path):
    bare = tmp_path / "bare"
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    for path in SPEC["paths"]:
        shutil.copytree(
            ROOT / path, bare / path,
            ignore=shutil.ignore_patterns("__pycache__"),
        )
    proc = run_bench("churn_clean", 0, tmp_path, cwd=bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
