"""Absolute digest pins for the serial round body, one regime per branch.

The engine-identity suites compare engines with one another.  Whenever
every engine under comparison falls back to the serial round body, such
a test compares that body with itself, so a change to the body goes
unseen.  These tests pin the per-round
:meth:`~repro.core.report.BalanceReport.canonical_digest` chains of the
body to recorded values instead: one regime per policy branch of the
round (clean, stale-LBI reuse, trust quarantine re-tiling, a mid-round
partition cut, boundary partitions with neutralized components, and an
attacker composed with a partition and a crash-and-recover cycle).
Each regime asserts that it actually took its branch, so no pin is
vacuous, and runs on both :class:`LoadBalancer` and
:class:`IncrementalLoadBalancer`.

The pinned values were recorded once and must not be edited: a change
that moves one of them changes the protocol's output.
"""

import numpy as np
import pytest

from repro.adversary import AdversaryPlan
from repro.core import BalancerConfig, IncrementalLoadBalancer, LoadBalancer
from repro.core.records import NodeClass
from repro.core.report import check_conservation
from repro.faults import CrashPoint, FaultInjector, FaultPlan, PartitionSpec
from repro.recovery import RecoveryManager
from repro.workloads import GaussianLoadModel, build_scenario

NUM_NODES = 256

CONFIG = BalancerConfig(proximity_mode="ignorant", epsilon=0.05)

DEFENDED = AdversaryPlan(seed=13, fraction=0.15, defense=True)

ENGINES = [LoadBalancer, IncrementalLoadBalancer]

#: The node whose virtual servers :func:`_ring_with_empty_node` removes.
EMPTY_NODE = 5

PINS = {
    "blackout_components": [
        "a116005fc1a980a97566e6212feba662010086522ed88ddf744f6288f31e2a15",
        "7cad1df31dd4f1f82eec56cc70ef67c11330252c74417c3a81afa1f9cccacb67",
    ],
    "clean": [
        "e10675977f91c36b564f4230ca4062ba9b7e47e6d1747683174fc8c6c1966430",
        "89fd324e0af959a3574570532cf1a3f8fa5c5e4ab3f6a465be3c42259494d18c",
        "c156d593fc9ad49f477007c0638659174d8b243301515f7bcbbd956d35a1a0ba",
    ],
    "composed_crash": [
        "766c5a0edec3d50f2e2742146f6eaad2f4b8ab5f01d21dacc51848e9fb563bfe",
        "81742849c26f1add79aa6555228fec9c7383caf9130dd33fd0d4e736daa87906",
        "0db80517d03cd1d2638b498d7f6f9abe1c7b9a9c13f626a3750c0a589bca6408",
        "0a07dc77d9de8f6e57669b0e8221929eee7f86961d9755456549f456df3d3c2f",
    ],
    "mid_round_cut": [
        "110787c66177855f1b6df9ac63511228c53338c5c5c82bf6502047b17567fe32",
        "e8eb2b3a0747af9bedc13d5e12dee9bbefc9adf608cd301d25d0cc17112ef6eb",
        "cd6900ccc237351ea0fd9862a7f9a24a0bd8cc11ecc15dd9d54516228a5e6648",
        "841decb6c275ebdb51c66600483fc1536ed0b2b107de086f7fff7b57b5a0d8ed",
    ],
    "neutral_component": [
        "611ef533c17dd755b8c0a59eceef392c353ffcb381e35ff3d9adcf7a53ff06a4",
        "f88cda08786eeed38eee89a014403340eba52fb9a49d127711e16ff079c26022",
        "b2193f91624f6d29d1051b8ec92ca0b20ca60cca6a983e72063f59acf18ef4bb",
    ],
    "quarantine": [
        "fc1c682cd9dbd827614c49f0e5175892eec574790bcfcbcb4c510198d86ce6aa",
        "c448205d20d3899ca90555de58ff6d17eed8cca3d96a1c74d01d10c4b5a3369b",
        "d274ad7400d74911e12961d214ad69fc3aaabaf08b6142e3f27e90bfb17ef64f",
    ],
    "stale_lbi": [
        "4e006c26d6f4544376f9fbe386f1977ebcc62d2b07ec1db89120096ac7d2e740",
        "a7359458ea129efabadaa7c29818f8d9c44a92f7d7085d0d2b787739a2020e92",
        "62d2e953dbee8c5f702872b6d20c88254caf968bbcbfc5e8de78c0e65631c9ed",
    ],
}


def _ring():
    return build_scenario(
        GaussianLoadModel(mu=1e6, sigma=2e5),
        num_nodes=NUM_NODES,
        vs_per_node=4,
        rng=21,
    ).ring


def _ring_with_empty_node():
    """The pin ring with :data:`EMPTY_NODE` left hosting no virtual server.

    Its load moves to the ring successors first, as a departure would,
    but the node stays alive and reports from its hash position.
    """
    ring = _ring()
    node = ring.nodes[EMPTY_NODE]
    for vs in list(node.virtual_servers):
        load = vs.load
        ring.remove_virtual_server(vs)
        ring.successor(vs.vs_id).load += load
    assert node.alive and not node.virtual_servers
    return ring


def _run(balancer, rounds):
    reports = []
    for _ in range(rounds):
        report = balancer.run_round()
        check_conservation(report)
        reports.append(report)
    return reports


def _digests(reports):
    return [r.canonical_digest() for r in reports]


def run_clean(engine, tmp_path):
    reports = _run(engine(_ring(), CONFIG, rng=7), 3)
    assert reports[0].transfers
    assert all(r.fault_stats.epoch == 0 for r in reports)
    return reports


def run_stale_lbi(engine, tmp_path):
    balancer = engine(_ring(), CONFIG, rng=7, faults=FaultPlan(seed=1, drop=0.01))
    reports = _run(balancer, 1)
    # From here on every LBI report is lost: a total blackout.
    balancer.faults = FaultInjector(FaultPlan(seed=9, drop=1.0))
    reports += _run(balancer, 2)
    assert [r.fault_stats.stale_lbi_reused for r in reports] == [
        False, True, True,
    ]
    assert reports[1].system_lbi == reports[0].system_lbi
    return reports


def run_quarantine(engine, tmp_path):
    reports = _run(engine(_ring(), CONFIG, rng=7, adversary=DEFENDED), 3)
    retiled = reports[-1]
    quarantined = retiled.adversary_stats.quarantined
    assert len(quarantined) > 0
    # Re-tiled out of the round: quarantined nodes do not report and
    # classify neutral at their own load.
    assert retiled.aggregation.reports == retiled.num_nodes - len(quarantined)
    for index in quarantined:
        assert retiled.classification_before.classes[index] is NodeClass.NEUTRAL
    return reports


def run_mid_round_cut(engine, tmp_path):
    plan = FaultPlan(
        seed=5,
        drop=0.05,
        partitions=(
            PartitionSpec(
                at_round=1, duration=2, num_components=2, mid_round=True
            ),
        ),
    )
    reports = _run(engine(_ring(), CONFIG, rng=7, faults=plan), 4)
    assert reports[1].fault_stats.suspended_transfers > 0
    assert reports[2].fault_stats.partition_components == 2
    assert reports[2].in_flight_before > 0
    healed = reports[3].fault_stats
    assert healed.healed_commits + healed.healed_rollbacks > 0
    return reports


def run_neutral_component(engine, tmp_path):
    # The node without virtual servers is cut off on its own: its
    # component sits the degraded round out, classified neutral.
    plan = FaultPlan(
        seed=5,
        partitions=(
            PartitionSpec(at_round=0, duration=1, components=((0,), (EMPTY_NODE,))),
        ),
    )
    reports = _run(engine(_ring_with_empty_node(), CONFIG, rng=7, faults=plan), 3)
    degraded = reports[0]
    assert degraded.fault_stats.partition_components == 2
    assert degraded.aggregation.reports == degraded.num_nodes - 1
    assert degraded.classification_before.classes[EMPTY_NODE] is NodeClass.NEUTRAL
    assert degraded.classification_after.classes[EMPTY_NODE] is NodeClass.NEUTRAL
    # Healed: the empty node reports from its hash position again.
    assert reports[1].fault_stats.partition_components == 0
    assert reports[1].aggregation.reports == reports[1].num_nodes
    return reports


def run_blackout_components(engine, tmp_path):
    # Every component loses every report: each is neutralized, and the
    # aggregate falls back to the advertised capacities.
    plan = FaultPlan(
        seed=5,
        drop=1.0,
        partitions=(PartitionSpec(at_round=0, duration=2, num_components=3),),
    )
    reports = _run(engine(_ring(), CONFIG, rng=7, faults=plan), 2)
    for report in reports:
        assert report.fault_stats.partition_components == 3
        assert report.aggregation.reports == 0
        assert not report.transfers
        assert report.system_lbi.total_capacity == pytest.approx(
            float(np.sum(report.capacities))
        )
    return reports


def run_composed_crash(engine, tmp_path):
    plan = FaultPlan(
        seed=5,
        drop=0.05,
        transfer_abort=0.1,
        partitions=(PartitionSpec(at_round=1, duration=2, num_components=2),),
        crash_points=(CrashPoint(at_round=1, site="post-lbi-fold"),),
    )

    def build():
        return engine(_ring(), CONFIG, rng=7, faults=plan, adversary=DEFENDED)

    manager = RecoveryManager(build, state_dir=tmp_path)
    try:
        reports = manager.run_rounds(4)
    finally:
        manager.close()
    for report in reports:
        check_conservation(report)
    assert manager.restores == 1
    assert reports[1].fault_stats.partition_components == 2
    assert reports[3].adversary_stats.quarantined
    return reports


REGIMES = {
    "clean": run_clean,
    "stale_lbi": run_stale_lbi,
    "quarantine": run_quarantine,
    "mid_round_cut": run_mid_round_cut,
    "neutral_component": run_neutral_component,
    "blackout_components": run_blackout_components,
    "composed_crash": run_composed_crash,
}


@pytest.mark.parametrize("engine", ENGINES, ids=["serial", "incremental"])
@pytest.mark.parametrize("regime", sorted(REGIMES))
def test_digest_chain_is_pinned(regime, engine, tmp_path):
    reports = REGIMES[regime](engine, tmp_path)
    assert _digests(reports) == PINS[regime]
