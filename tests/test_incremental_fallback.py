"""Why a round left the incremental fast path is a counter.

Every round :class:`IncrementalLoadBalancer` hands to the inherited
serial implementation counts ``incremental.fallback.<reason>`` once, for
the first applicable reason; a round on the fast path counts nothing.
"""

import pytest

from repro.adversary import AdversaryPlan
from repro.core import BalancerConfig, IncrementalLoadBalancer
from repro.dht import ChordRing
from repro.exceptions import EmptyRingError
from repro.faults import FaultPlan, PartitionSpec
from repro.idspace import IdentifierSpace
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.recovery.journal import TransferJournal
from repro.workloads import GaussianLoadModel, build_scenario

CONFIG = BalancerConfig(proximity_mode="ignorant", epsilon=0.05)

ROUNDS = 3


def _ring():
    return build_scenario(
        GaussianLoadModel(mu=1e6, sigma=2e5), num_nodes=64, vs_per_node=4, rng=3
    ).ring


def _fallbacks(metrics):
    return {
        name: value
        for name, value in metrics.snapshot()["counters"].items()
        if name.startswith("incremental.fallback.")
    }


def _balancer(reason, metrics, tmp_path):
    if reason == "faults":
        return IncrementalLoadBalancer(
            _ring(), CONFIG, rng=7, metrics=metrics,
            faults=FaultPlan(seed=1, drop=0.05),
        )
    if reason == "adversary":
        return IncrementalLoadBalancer(
            _ring(), CONFIG, rng=7, metrics=metrics,
            adversary=AdversaryPlan(seed=13, fraction=0.1, defense=True),
        )
    if reason == "journal":
        balancer = IncrementalLoadBalancer(_ring(), CONFIG, rng=7, metrics=metrics)
        balancer.attach_journal(TransferJournal(tmp_path / "journal.log"))
        return balancer
    assert reason == "tracing"
    return IncrementalLoadBalancer(
        _ring(), CONFIG, rng=7, metrics=metrics, tracer=Tracer.in_memory()
    )


@pytest.mark.parametrize("reason", ["faults", "adversary", "journal", "tracing"])
def test_each_fallback_round_counts_its_reason(reason, tmp_path):
    metrics = MetricsRegistry()
    balancer = _balancer(reason, metrics, tmp_path)
    try:
        for _ in range(ROUNDS):
            balancer.run_round()
    finally:
        if balancer.journal is not None:
            balancer.journal.close()
    assert _fallbacks(metrics) == {f"incremental.fallback.{reason}": ROUNDS}


def test_clean_fast_rounds_count_nothing():
    metrics = MetricsRegistry()
    balancer = IncrementalLoadBalancer(_ring(), CONFIG, rng=7, metrics=metrics)
    for _ in range(ROUNDS):
        balancer.run_round()
    assert metrics.snapshot()["counters"]["balancer.rounds"] == ROUNDS
    assert _fallbacks(metrics) == {}


def test_partitions_count_as_faults():
    metrics = MetricsRegistry()
    plan = FaultPlan(
        seed=5,
        partitions=(PartitionSpec(at_round=1, duration=1, num_components=2),),
    )
    balancer = IncrementalLoadBalancer(
        _ring(), CONFIG, rng=7, metrics=metrics, faults=plan
    )
    assert balancer.membership is not None
    for _ in range(ROUNDS):
        balancer.run_round()
    assert _fallbacks(metrics) == {"incremental.fallback.faults": ROUNDS}


def test_first_applicable_reason_wins():
    metrics = MetricsRegistry()
    balancer = IncrementalLoadBalancer(
        _ring(), CONFIG, rng=7, metrics=metrics,
        faults=FaultPlan(seed=1, drop=0.05),
        adversary=AdversaryPlan(seed=13, fraction=0.1, defense=True),
        tracer=Tracer.in_memory(),
    )
    balancer.run_round()
    assert _fallbacks(metrics) == {"incremental.fallback.faults": 1}


def test_empty_ring_counts_before_the_serial_round_refuses_it():
    metrics = MetricsRegistry()
    balancer = IncrementalLoadBalancer(
        ChordRing(IdentifierSpace(bits=16)), CONFIG, rng=7, metrics=metrics
    )
    with pytest.raises(EmptyRingError):
        balancer.run_round()
    assert _fallbacks(metrics) == {"incremental.fallback.empty_ring": 1}
