"""The closed-loop round loop, the correctness gate and the metrics.

One process runs one workload.  A run builds the stack several times
(``setup_s`` is the median), then drives rounds one after another: the
cold round, the warm-up rounds, and steady rounds until ``--seconds``
have passed (at least ``MIN_STEADY_ROUNDS`` of them).  Between rounds
the seeded churn step mutates the ring.  Nothing else runs meanwhile:
no threads, no extra processes.

After the timed loop the stack is released and collected, and only
then does the serial reference run — never interleaved with the timed
engine, whose persistent tree would otherwise be traversed by the
reference's garbage collections (``docs/performance.md`` §5).

The traced run (``--trace 1``) drives a fixed number of steady rounds
twice over the same inputs: first untraced, then with the span
recorder installed.  The untraced pass gives the quality figures and
the overhead base; the traced pass gives every per-layer figure and
must reproduce the untraced pass's digests.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from repro.core.report import BalanceReport, check_conservation
from repro.exceptions import ReproError
from repro.topology.routing import DistanceOracle

from perfbench.spans import SpanRecorder
from perfbench.workloads import (
    EPSILON,
    MIN_STEADY_ROUNDS,
    ChurnSchedule,
    Seeds,
    Stack,
    Workload,
    build_stack,
)

#: Stack builds per run: at least ``SETUP_REPEATS``, and more (up to
#: ``SETUP_MAX_REPEATS``) until they took ``SETUP_SECONDS`` together;
#: ``setup_s`` is their median.  A churn ring builds in well under a
#: tenth of a second, so five of its builds sample the host's speed over
#: too short a stretch to give a steady median.
SETUP_REPEATS = 5
SETUP_MAX_REPEATS = 15
SETUP_SECONDS = 2.0

#: Stored serial digest chains (``perfbench/make_reference.py`` writes it).
REFERENCE_PATH = Path(__file__).with_name("reference.json")

#: What a failing round raises: the program's own errors, and the ones
#: broken arithmetic or a broken lookup raises inside it.
ROUND_ERRORS = (ReproError, ArithmeticError, LookupError, ValueError)

#: Share of the traced round wall time above which the traced run
#: prints a notice that no span accounts for much of the round.
UNATTRIBUTED_NOTICE = 0.25


def reference_key(workload: Workload, seed: int, nodes: int) -> str:
    """Key of a stored chain; ``churn_durable`` shares ``churn_clean``'s."""
    mode = "clean" if workload.mode == "durable" else workload.mode
    return f"{mode}/{nodes}/{seed}"


def summarize(report: BalanceReport) -> dict[str, float]:
    """The figures a run keeps from one report (the report is dropped)."""
    faults = report.fault_stats
    adversary = report.adversary_stats
    loads = report.transfer_loads_with_distance
    return {
        "heavy_after_frac": report.heavy_after / report.num_nodes,
        "moved_load_frac": report.moved_load / float(np.sum(report.loads_before)),
        "assignments": float(len(report.vsa.assignments)),
        "bad_assignments": float(
            len(report.failed_assignments) + len(report.skipped_assignments)
        ),
        "moved_with_distance": float(loads.sum()),
        "load_hops": float(np.dot(loads, report.transfer_distances)),
        "transfers": float(len(report.transfers)),
        "nodes_materialized": float(report.tree_nodes_materialized),
        "messages": float(
            report.profile.total_messages if report.profile is not None else 0
        ),
        "injected_total": float(faults.injected_total),
        "retries": float(faults.total_retries),
        "lost": float(faults.total_lost),
        "degraded": float(faults.partition_components > 1),
        "audits_run": float(adversary.audits_run),
        "quarantined": float(len(adversary.quarantined)),
        **{f"phase.{k}": v for k, v in report.phase_seconds.items()},
    }


@dataclass
class RoundLog:
    """What one pass over the schedule observed, round by round."""

    walls: list[float] = field(default_factory=list)
    digests: list[str] = field(default_factory=list)
    rounds: list[dict[str, float]] = field(default_factory=list)
    root_ids: list[int] = field(default_factory=list)
    churn_ids: list[int] = field(default_factory=list)
    error: str | None = None

    @property
    def attempted(self) -> int:
        """Rounds started, including one that failed."""
        return len(self.walls) + (self.error is not None)


def honest_excess_load(stack: Stack) -> float:
    """Excess true load honest nodes carry over their fair targets.

    The ``byzantine`` experiment's damage measure, as a share of the
    total load: fair targets come from the true totals, and attackers
    are left out.
    """
    balancer = stack.balancer
    attackers = (
        frozenset(balancer.adversary.attacker_indices)
        if balancer.adversary is not None
        else frozenset()
    )
    alive = stack.ring.alive_nodes
    loads = np.asarray([n.load for n in alive], dtype=np.float64)
    caps = np.asarray([n.capacity for n in alive], dtype=np.float64)
    honest = np.asarray([n.index not in attackers for n in alive])
    total = float(loads.sum())
    bound = (1.0 + EPSILON) * caps * total / float(caps.sum())
    excess = np.where(honest & (loads > bound), loads - bound, 0.0)
    return float(excess.sum()) / total


def drive(
    workload: Workload,
    stack: Stack,
    seeds: Seeds,
    *,
    seconds: float | None = None,
    steady_rounds: int | None = None,
    recorder: SpanRecorder | None = None,
) -> RoundLog:
    """Run the cold, warm-up and steady rounds of one pass.

    Steady rounds continue until ``seconds`` have passed and at least
    ``MIN_STEADY_ROUNDS`` ran, or, with ``steady_rounds``, exactly that
    many.  A round that raises or fails conservation ends the pass.
    With a ``recorder`` each round and churn step is a root span.
    """
    log = RoundLog()
    churn = ChurnSchedule(workload, seeds)
    head = 1 + workload.warmup_rounds
    clock = time.perf_counter
    steady_start = 0.0

    def finished() -> bool:
        done = len(log.walls) - head
        if done < 0:
            return False
        if steady_rounds is not None:
            return done >= steady_rounds
        if done < MIN_STEADY_ROUNDS:
            return False
        return seconds is None or clock() - steady_start >= seconds

    while True:
        if len(log.walls) == head:
            steady_start = clock()
        try:
            if recorder is not None:
                with recorder.span("round") as root:
                    t0 = clock()
                    report = stack.run_round()
                    wall = clock() - t0
                log.root_ids.append(root)
            else:
                t0 = clock()
                report = stack.run_round()
                wall = clock() - t0
            check_conservation(report)
        except ROUND_ERRORS as exc:
            log.error = f"round {len(log.walls)}: {type(exc).__name__}: {exc}"
            return log
        log.walls.append(wall)
        log.digests.append(report.canonical_digest())
        summary = summarize(report)
        del report
        summary.update(
            {
                f"descent.{k}": float(v)
                for k, v in getattr(stack.balancer, "descent_stats", {}).items()
            }
        )
        if workload.mode == "defended":
            summary["honest_excess"] = honest_excess_load(stack)
        if stack.state_dir is not None:
            journal = stack.state_dir / "journal.jsonl"
            summary["journal_size"] = float(journal.stat().st_size)
        log.rounds.append(summary)
        if finished():
            return log
        if recorder is not None:
            with recorder.span("dht.churn_step") as churn_root:
                churn.step(stack.ring)
            log.churn_ids.append(churn_root)
        else:
            churn.step(stack.ring)
        summary["churn_events"] = float(churn.events)
        summary["churn_drifted"] = float(churn.drifted)


def reference_chain(
    workload: Workload,
    seeds: Seeds,
    nodes: int,
    rounds: int,
    oracle: DistanceOracle | None = None,
) -> list[str]:
    """Digests of the serial ``LoadBalancer`` over the same inputs."""
    stack = build_stack(
        workload, seeds, nodes=nodes, reference=True, oracle=oracle
    )
    churn = ChurnSchedule(workload, seeds)
    digests = []
    for index in range(rounds):
        digests.append(stack.run_round().canonical_digest())
        if index + 1 < rounds:
            churn.step(stack.ring)
    stack.close()
    return digests


def stored_chain(key: str) -> list[str] | None:
    """The stored reference chain for ``key``, if there is one."""
    if not REFERENCE_PATH.exists():
        return None
    chains = json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))["chains"]
    chain = chains.get(key)
    return list(chain) if chain is not None else None


def gate(
    workload: Workload,
    seed: int,
    nodes: int,
    log: RoundLog,
    notes: list[str],
    oracle: DistanceOracle | None = None,
) -> int:
    """Compare a pass's digest chain with the serial reference chain.

    Uses the stored chain for ``(workload, nodes, seed)`` when there is
    one, else recomputes the first ``workload.reference_rounds`` rounds
    (with ``oracle``'s distance rows, if given).  Returns the number of
    rounds whose digest differs.
    """
    key = reference_key(workload, seed, nodes)
    reference = stored_chain(key)
    source = "stored"
    if reference is None:
        rounds = min(workload.reference_rounds, len(log.digests))
        reference = reference_chain(
            workload, Seeds.from_seed(seed), nodes, rounds, oracle
        )
        source = "recomputed"
    pairs = list(zip(log.digests, reference))
    bad = sum(1 for a, b in pairs if a != b)
    notes.append(
        f"digest chain: {len(pairs)} rounds compared with the {source} "
        f"serial reference {key}, {bad} differ"
    )
    return bad


def _median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def _mean(values: list[float]) -> float:
    return float(np.mean(values)) if values else 0.0


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def quality(rounds: list[dict[str, float]]) -> dict[str, float]:
    """Balance quality over the given (steady) rounds."""

    def total(key: str) -> float:
        return sum(r.get(key, 0.0) for r in rounds)

    attempted = total("assignments")
    moved = total("moved_with_distance")
    return {
        "heavy_after_frac": _mean([r["heavy_after_frac"] for r in rounds]),
        "moved_load_frac": _mean([r["moved_load_frac"] for r in rounds]),
        "transfer_fail_frac": (
            total("bad_assignments") / attempted if attempted else 0.0
        ),
        "transfer_hops_per_load": total("load_hops") / moved if moved else 0.0,
        "honest_excess_load_frac": _mean(
            [r["honest_excess"] for r in rounds if "honest_excess" in r]
        ),
    }


def fingerprint(state_root: Path) -> dict[str, Any]:
    """The machine a result was measured on."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    fs_type = "unknown"
    try:
        target = str(state_root.resolve())
        best = ""
        with open("/proc/self/mounts", encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) < 3:
                    continue
                mount = parts[1]
                inside = target == mount or target.startswith(
                    mount.rstrip("/") + "/"
                )
                if inside and len(mount) >= len(best):
                    best, fs_type = mount, parts[2]
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "state_fs": fs_type,
    }


@dataclass
class Outcome:
    """A run's result: the correctness verdict and the metrics."""

    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    notes: list[str]
    info: dict[str, Any]

    def result_line(self) -> str:
        return json.dumps(
            {
                "correct": self.correct,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in self.metrics.items()
                },
            }
        )


def _pass_failures(log: RoundLog, notes: list[str]) -> int:
    if log.error is None:
        return 0
    notes.append(log.error)
    return 1


def measure(
    workload: Workload,
    seed: int,
    seconds: float,
    *,
    nodes: int | None,
    work_dir: Path,
) -> Outcome:
    """The untraced run: every end-to-end metric."""
    size = workload.nodes if nodes is None else nodes
    seeds = Seeds.from_seed(seed)
    state_root = work_dir / "state"
    notes: list[str] = []
    setups: list[float] = []
    # Every build but the last is thrown away; the first
    # ``cold_repeats - 1`` of them run a cold round first, which must
    # reproduce the timed pass's round 0 exactly.
    colds: list[tuple[float, str]] = []
    cold_errors: list[str] = []
    repeats = max(SETUP_REPEATS, workload.cold_repeats)
    while True:
        gc.collect()
        t0 = time.perf_counter()
        stack = build_stack(workload, seeds, nodes=size, state_root=state_root)
        setups.append(time.perf_counter() - t0)
        last = len(setups) >= repeats and (
            sum(setups) >= SETUP_SECONDS or len(setups) >= SETUP_MAX_REPEATS
        )
        cold = len(setups) < workload.cold_repeats
        if last or cold:
            # Every cold round starts with the collector's counts at zero,
            # so its gen-2 passes fall at the same allocations every time.
            gc.collect()
        if last:
            break
        try:
            if cold:
                t0 = time.perf_counter()
                try:
                    report = stack.run_round()
                    wall = time.perf_counter() - t0
                    check_conservation(report)
                except ROUND_ERRORS as exc:
                    cold_errors.append(
                        f"cold round on build {len(setups)}: "
                        f"{type(exc).__name__}: {exc}"
                    )
                else:
                    colds.append((wall, report.canonical_digest()))
                    del report
        finally:
            stack.close()
        del stack
    info: dict[str, Any] = {"fingerprint": fingerprint(state_root)}
    try:
        log = drive(workload, stack, seeds, seconds=seconds)
    finally:
        stack.close()
    peak = _peak_rss_mib()
    oracle = stack.balancer.oracle
    del stack
    gc.collect()

    notes.extend(cold_errors)
    failed = len(cold_errors) + _pass_failures(log, notes)
    if log.error is None:
        failed += gate(workload, seed, size, log, notes, oracle)
        failed += sum(1 for _, digest in colds if digest != log.digests[0])
    head = 1 + workload.warmup_rounds
    steady = log.walls[head:]
    info["steady_rounds"] = len(steady)
    info["round_walls_s"] = [round(w, 4) for w in log.walls]
    metrics = {
        "setup_s": (_median(setups), "s"),
        "cold_round_s": (_median([w for w, _ in colds] + log.walls[:1]), "s"),
        "round_p50_s": (_median(steady), "s"),
        "rounds_per_s": (len(steady) / sum(steady) if steady else 0.0, "1/s"),
        "peak_rss_mib": (peak, "MiB"),
    }
    return Outcome(
        correct=failed == 0,
        attempted=len(colds) + len(cold_errors) + log.attempted,
        failed=failed,
        metrics=metrics,
        notes=notes,
        info=info,
    )


def trace(
    workload: Workload,
    seed: int,
    *,
    nodes: int | None,
    work_dir: Path,
) -> Outcome:
    """The traced run: every per-layer metric.

    Both passes run ``workload.trace_rounds`` steady rounds over the
    same inputs.  Per-layer times are self times, averaged per steady
    round; together with ``round.unattributed_s`` they add up to the
    traced round wall time ``round.wall_s``.
    """
    size = workload.nodes if nodes is None else nodes
    seeds = Seeds.from_seed(seed)
    state_root = work_dir / "state"
    notes: list[str] = []
    info: dict[str, Any] = {"fingerprint": fingerprint(state_root)}

    stack = build_stack(workload, seeds, nodes=size, state_root=state_root)
    try:
        plain = drive(workload, stack, seeds, steady_rounds=workload.trace_rounds)
    finally:
        stack.close()
    oracle = stack.balancer.oracle
    del stack
    gc.collect()

    recorder = SpanRecorder()
    recorder.install()
    gauges = {"snapshot_bytes": 0.0, "resident": 0.0, "dijkstra_sources": 0.0}
    try:
        with recorder.span("setup") as setup_root:
            stack = build_stack(workload, seeds, nodes=size, state_root=state_root)
        try:
            traced = drive(
                workload, stack, seeds,
                steady_rounds=workload.trace_rounds, recorder=recorder,
            )
            balancer = stack.balancer
            if balancer.oracle is not None:
                gauges["dijkstra_sources"] = float(balancer.oracle.cached_sources)
            if stack.state_dir is not None:
                snapshot = stack.state_dir / "snapshot-latest.json"
                gauges["snapshot_bytes"] = float(snapshot.stat().st_size)
                gauges["resident"] = float(len(balancer.journal or ()))
            del balancer
        finally:
            stack.close()
    finally:
        recorder.uninstall()
    del stack
    gc.collect()

    failed = _pass_failures(plain, notes) + _pass_failures(traced, notes)
    if plain.error is None and traced.error is None:
        failed += gate(workload, seed, size, plain, notes, oracle)
        differ = sum(a != b for a, b in zip(plain.digests, traced.digests))
        notes.append(f"traced pass: {differ} digests differ from the untraced pass")
        failed += differ

    head = 1 + workload.warmup_rounds
    metrics, problems = layer_metrics(
        workload, recorder, traced, setup_root, gauges
    )
    notes.extend(problems)
    wall = metrics["round.wall_s"][0]
    share = metrics["round.unattributed_s"][0] / wall if wall else 0.0
    notes.append(f"round.unattributed_s is {share:.1%} of round.wall_s")
    if share > UNATTRIBUTED_NOTICE:
        notes.append(
            f"notice: over {UNATTRIBUTED_NOTICE:.0%} of the round is in no "
            "span; an entry point may have moved out of the wrapped set"
        )
    plain_p50 = _median(plain.walls[head:])
    overhead = _median(traced.walls[head:]) / plain_p50 - 1.0 if plain_p50 else 0.0
    metrics["obs.trace_overhead_frac"] = (overhead, "fraction")
    units = {"transfer_hops_per_load": "hops"}
    for name, value in quality(plain.rounds[head:]).items():
        metrics[f"quality.{name}"] = (value, units.get(name, "fraction"))
    info["spans"] = len(recorder.name_of)
    info["recorder"] = recorder
    return Outcome(
        correct=failed == 0 and not problems,
        attempted=plain.attempted + traced.attempted,
        failed=failed,
        metrics=metrics,
        notes=notes,
        info=info,
    )


def layer_metrics(
    workload: Workload,
    recorder: SpanRecorder,
    log: RoundLog,
    setup_root: int,
    gauges: dict[str, float],
) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """Per-layer figures of the traced pass, and any coverage problems.

    Times are self times per steady round; counts are per steady round
    unless the name says otherwise.
    """
    head = 1 + workload.warmup_rounds
    roots = log.root_ids[head:]
    rounds = log.rounds[head:]
    # Deltas of cumulative counters need the round before the window.
    window = log.rounds[head - 1:]
    count = max(len(roots), 1)
    selfs: dict[str, float] = {}
    calls: dict[str, int] = {}
    items: dict[str, int] = {}
    unattributed = 0.0
    wall = 0.0
    for root in roots:
        for name, (seconds, n_calls, n_items) in recorder.self_times(root).items():
            if name == "round":
                unattributed += seconds
                continue
            selfs[name] = selfs.get(name, 0.0) + seconds
            calls[name] = calls.get(name, 0) + n_calls
            items[name] = items.get(name, 0) + n_items
        wall += recorder.duration(root)
    # Churn steps between steady rounds: the ones after rounds head-1 ...
    churns = log.churn_ids[head - 1:]
    churn_s = sum(recorder.duration(c) for c in churns)
    setup_selfs = recorder.self_times(setup_root)

    def s(name: str) -> float:
        return selfs.get(name, 0.0) / count

    def n(name: str) -> float:
        return calls.get(name, 0) / count

    def keys(name: str) -> float:
        return items.get(name, 0) / count

    def per_round(key: str) -> float:
        return _mean([r.get(key, 0.0) for r in rounds])

    def delta(key: str) -> float:
        values = [r.get(key, 0.0) for r in window]
        return _mean([b - a for a, b in zip(values, values[1:])])

    if roots:
        begin, end = recorder.start[roots[0]], recorder.end[roots[-1]]
    else:
        begin = end = 0.0
    gc_pauses = [
        (gen, pause) for gen, at, pause in recorder.gc_pauses if begin <= at <= end
    ]
    problems = []
    seen = {name.split(".", 1)[0] for name in selfs}
    seen |= {name.split(".", 1)[0] for name in setup_selfs}
    if churns:
        seen.add("dht")
    missing = [layer for layer in workload.layers if layer not in seen]
    if missing:
        problems.append(f"span coverage: no span recorded for layer(s) {missing}")

    metrics: dict[str, tuple[float, str]] = {
        "dht.churn_step_s": (churn_s / max(len(churns), 1), "s"),
        "dht.ring_events": (
            _mean([r.get("churn_events", 0.0) for r in window[:-1]]), "count"
        ),
        "ktree.builds": (n("ktree.build"), "count"),
        "ktree.build_s": (s("ktree.build"), "s"),
        "ktree.refresh_s": (s("ktree.refresh"), "s"),
        "ktree.refresh_calls": (n("ktree.refresh"), "count"),
        "ktree.descend_s": (s("ktree.descend") + s("ktree.descend_one"), "s"),
        "ktree.descend_keys": (keys("ktree.descend"), "count"),
        "ktree.descend_one_calls": (n("ktree.descend_one"), "count"),
        "ktree.resolve_s": (s("ktree.resolve"), "s"),
        "ktree.resolve_keys": (keys("ktree.resolve"), "count"),
        "ktree.nodes_materialized": (per_round("nodes_materialized"), "count"),
        "ktree.miss_descents": (delta("descent.miss_descents"), "count"),
        "ktree.cache_repairs": (delta("descent.cache_repairs"), "count"),
        "core.lbi_s": (per_round("phase.lbi"), "s"),
        "core.classification_s": (per_round("phase.classification"), "s"),
        "core.vsa_s": (per_round("phase.vsa"), "s"),
        "core.vst_s": (per_round("phase.vst"), "s"),
        "core.miss_descent_s": (per_round("phase.miss_descent"), "s"),
        "core.collect_s": (s("core.collect"), "s"),
        "core.aggregate_s": (s("core.aggregate"), "s"),
        "core.fold_s": (s("core.fold"), "s"),
        "core.classify_s": (s("core.classify"), "s"),
        "core.publish_s": (s("core.publish"), "s"),
        "core.select_s": (s("core.select"), "s"),
        "core.select_calls": (n("core.select"), "count"),
        "core.pair_s": (s("core.pair"), "s"),
        "core.pair_calls": (n("core.pair"), "count"),
        "core.sweep_s": (s("core.sweep") + s("core.sparse_sweep"), "s"),
        "core.transfer_s": (s("core.transfer"), "s"),
        "core.transfers": (per_round("transfers"), "count"),
        "core.messages": (per_round("messages"), "count"),
        "adversary.begin_round_s": (s("adversary.begin_round"), "s"),
        "adversary.admit_s": (s("adversary.admit"), "s"),
        "adversary.admit_calls": (n("adversary.admit"), "count"),
        "adversary.witness_s": (s("adversary.witness"), "s"),
        "adversary.audits_run": (per_round("audits_run"), "count"),
        "adversary.quarantined": (per_round("quarantined"), "count"),
        "faults.deliver_s": (s("faults.deliver"), "s"),
        "faults.injected": (delta("injected_total"), "count"),
        "faults.retries": (per_round("retries"), "count"),
        "faults.lost": (per_round("lost"), "count"),
        "membership.begin_round_s": (s("membership.begin_round"), "s"),
        "membership.heal_s": (s("membership.heal"), "s"),
        "membership.degraded_rounds": (
            sum(r.get("degraded", 0.0) for r in rounds), "count"
        ),
        "recovery.fsyncs": (n("recovery.fsync"), "count"),
        "recovery.fsync_s": (s("recovery.fsync"), "s"),
        "recovery.journal_s": (s("recovery.journal"), "s"),
        "recovery.journal_records": (n("recovery.journal"), "count"),
        "recovery.journal_bytes": (delta("journal_size"), "B"),
        "recovery.journal_resident": (gauges["resident"], "count"),
        "recovery.capture_s": (s("recovery.capture"), "s"),
        "recovery.save_s": (s("recovery.save"), "s"),
        "recovery.snapshot_bytes": (gauges["snapshot_bytes"], "B"),
        "topology.distance_calls": (n("topology.distance"), "count"),
        "topology.distance_s": (s("topology.distance"), "s"),
        "topology.dijkstra_sources": (gauges["dijkstra_sources"], "count"),
        "proximity.setup_s": (
            setup_selfs.get("proximity.setup", (0.0, 0, 0))[0], "s"
        ),
        "py.gc_s": (sum(p for _, p in gc_pauses) / count, "s"),
        "py.gc_gen2": (sum(1 for g, _ in gc_pauses if g == 2) / count, "count"),
        "round.wall_s": (wall / count, "s"),
        "round.unattributed_s": (unattributed / count, "s"),
    }
    return metrics, problems
