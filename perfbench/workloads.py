"""The benchmark's four workloads: definitions, seeded inputs, stacks.

Every input a run feeds the program — the scenario, the churn and drift
schedule, the adversary and fault plan seeds, the topology — is drawn
here from the single workload seed the command line passes in.  The
program only ever receives the resulting values (integers for its own
generators, nodes to join or leave, drift centres), so a run is a pure
function of ``(workload, seed)``.

The three ``churn_*`` workloads derive their seeds from the workload
seed alone, not from the workload name: for one seed they run the same
ring through the same schedule, which keeps their timings comparable
and lets ``churn_durable`` share ``churn_clean``'s reference chain.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from repro.adversary.plan import AdversaryPlan
from repro.core import BalancerConfig, IncrementalLoadBalancer, LoadBalancer
from repro.core.report import BalanceReport
from repro.dht import join_node, leave_node
from repro.dht.chord import ChordRing
from repro.faults.plan import FaultPlan, PartitionSpec
from repro.recovery.manager import RecoveryManager
from repro.topology.graph import Topology
from repro.topology.routing import DistanceOracle
from repro.topology.transit_stub import TS5K_LARGE, generate_transit_stub
from repro.workloads import (
    GaussianLoadModel,
    ParetoLoadModel,
    apply_load_drift,
    build_scenario,
)
from repro.workloads.loads import LoadModel

#: Seed used when ``--seed`` is not given; ``reference.json`` stores the
#: serial digest chains for it.
DEFAULT_SEED = 1

#: Virtual servers per node in every workload.
VS_PER_NODE = 5

#: Mean system load (the experiments' ``mu``).
MU = 1e6

#: Target slack of every balancer: a node is heavy above
#: ``(1 + EPSILON)`` times its fair share.
EPSILON = 0.05

#: Fewest steady rounds a timed run drives, however long they take.
MIN_STEADY_ROUNDS = 8

#: Steady rounds of the serial reference chain a run recomputes when no
#: stored chain covers its seed (see :attr:`Workload.reference_rounds`).
#: A serial round costs about a second at these ring sizes, so the
#: whole chain of an eight-second run (about 35 rounds on ``churn_clean``)
#: would more than double the run.
REF_STEADY_ROUNDS = 4

#: Ring size of the three ``churn_*`` workloads.
CHURN_NODES = 5000

#: Share of alive nodes churned between rounds (half join, half leave),
#: as in ``benchmarks/bench_incremental_scaling.apply_churn``.
CHURN_FRACTION = 0.01


@dataclass(frozen=True)
class Workload:
    """One named configuration of the benchmark.

    ``cold_repeats`` is how many fresh stacks run a cold round per run
    (``cold_round_s`` is their median): more where the round is short, so
    the samples span more of the host's slow and fast stretches.  ``warmup_rounds`` follow the
    cold round and are left out of the steady-state figures.
    ``trace_rounds`` is the fixed number of steady rounds the traced
    run records, so its counts repeat exactly for one seed.  ``layers``
    are the layers whose spans the traced run must record; a layer that
    records none fails the run.
    """

    name: str
    why: str
    mode: str
    nodes: int
    cold_repeats: int
    warmup_rounds: int
    trace_rounds: int
    layers: tuple[str, ...]

    @property
    def reference_rounds(self) -> int:
        """Leading rounds whose digests a recomputed reference checks.

        The cold round, the warm-up rounds and ``REF_STEADY_ROUNDS``
        steady rounds: on ``aware_faulted`` that spans the whole
        partition/heal cycle (rounds 2-4) and the round after it, on
        the churn workloads four rounds of repair after churn.
        """
        return 1 + self.warmup_rounds + REF_STEADY_ROUNDS


#: Layers every workload exercises.
_BASE_LAYERS = ("dht", "ktree", "core")

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="churn_clean",
            why=(
                "the only configuration on the fast path (tree repair, batched "
                "descents, LBI fold, sparse sweep); recovery, adversary, faults "
                "and topology stay idle, so it is their control"
            ),
            mode="clean",
            nodes=CHURN_NODES,
            cold_repeats=7,
            warmup_rounds=4,
            trace_rounds=6,
            layers=_BASE_LAYERS,
        ),
        Workload(
            name="churn_durable",
            why=(
                "RecoveryManager on disk: the journal forces the serial "
                "fallback and per-record fsync plus the per-round "
                "checkpoint dominate; journal and checkpoint work shows here"
            ),
            mode="durable",
            nodes=CHURN_NODES,
            cold_repeats=1,
            warmup_rounds=1,
            trace_rounds=4,
            layers=_BASE_LAYERS + ("recovery",),
        ),
        Workload(
            name="churn_defended",
            why=(
                "5% Byzantine attackers with the trusted-aggregation "
                "defense: exercises the adversary engine, trust admission "
                "and the serial fallback they force"
            ),
            mode="defended",
            nodes=CHURN_NODES,
            cold_repeats=3,
            warmup_rounds=1,
            trace_rounds=4,
            layers=_BASE_LAYERS + ("adversary",),
        ),
        Workload(
            name="aware_faulted",
            why=(
                "the paper's setting: ts5k-large, Hilbert-key publication, "
                "message drop, transfer aborts and one partition/heal; the "
                "only user of topology, proximity, faults and membership"
            ),
            mode="aware_faulted",
            nodes=4096,
            cold_repeats=1,
            warmup_rounds=1,
            trace_rounds=6,
            layers=_BASE_LAYERS
            + ("faults", "membership", "topology", "proximity"),
        ),
    )
}

#: The partition/heal cycle of ``aware_faulted``: it strikes at the
#: first steady round and heals two rounds later, inside the traced
#: window and inside every timed run.
PARTITION = PartitionSpec(at_round=2, duration=2, num_components=2)


@dataclass(frozen=True)
class Seeds:
    """Integer seeds for every generator a run feeds the program."""

    scenario: int
    balancer: int
    churn: int
    plan: int
    topology: int

    @classmethod
    def from_seed(cls, seed: int) -> "Seeds":
        """Split the workload seed into independent streams."""
        values = np.random.SeedSequence(seed).generate_state(5, np.uint32)
        return cls(*(int(v) for v in values))


class Stack:
    """A balancer stack ready to run rounds, and what owns its state."""

    def __init__(
        self,
        run_round: Callable[[], BalanceReport],
        balancer: Callable[[], LoadBalancer],
        state_dir: Path | None = None,
        close: Callable[[], None] | None = None,
    ) -> None:
        self.run_round = run_round
        self._balancer = balancer
        self.state_dir = state_dir
        self._close = close

    @property
    def balancer(self) -> LoadBalancer:
        """The balancer currently driving rounds."""
        return self._balancer()

    @property
    def ring(self) -> ChordRing:
        """The ring the churn schedule mutates."""
        return self.balancer.ring

    def close(self) -> None:
        """Close journal handles and remove the state directory."""
        if self._close is not None:
            self._close()
        if self.state_dir is not None:
            shutil.rmtree(self.state_dir, ignore_errors=True)


def load_model(workload: Workload) -> LoadModel:
    """Pareto loads on the churn workloads, the paper's Gaussian on aware."""
    if workload.mode == "aware_faulted":
        return GaussianLoadModel(mu=MU, sigma=2e3)
    return ParetoLoadModel(mu=MU)


def _topology(seeds: Seeds, nodes: int) -> Topology:
    """A ts5k-large instance with a stub vertex for every node.

    Stub domain sizes are random, so an instance can come out too small
    to host every node on its own vertex; the next seed of the stream
    is taken until one fits.
    """
    gen = np.random.default_rng(seeds.topology)
    while True:
        topology = generate_transit_stub(TS5K_LARGE, int(gen.integers(1 << 31)))
        if len(topology.stub_vertices) >= nodes:
            return topology


def build_stack(
    workload: Workload,
    seeds: Seeds,
    *,
    nodes: int | None = None,
    reference: bool = False,
    state_root: Path | None = None,
    oracle: DistanceOracle | None = None,
) -> Stack:
    """Build the scenario, topology and balancer for one run.

    ``reference`` builds the serial :class:`LoadBalancer` the run's
    digest chain is compared with: same inputs, no recovery manager
    (durability must not change a digest).  ``state_root`` is where the
    durable workload creates its fresh state directory.  ``oracle`` lends
    the reference a distance oracle whose Dijkstra rows an earlier run
    over the same topology already paid for; distances are facts of the
    topology, so sharing them changes no digest.
    """
    size = workload.nodes if nodes is None else nodes
    engine = LoadBalancer if reference else IncrementalLoadBalancer
    model = load_model(workload)
    if workload.mode == "aware_faulted":
        scenario = build_scenario(
            model,
            num_nodes=size,
            vs_per_node=VS_PER_NODE,
            topology=_topology(seeds, size),
            rng=seeds.scenario,
        )
        plan = FaultPlan(
            seed=seeds.plan,
            drop=0.01,
            transfer_abort=0.02,
            partitions=(PARTITION,),
        )
        balancer = engine(
            scenario.ring,
            BalancerConfig(proximity_mode="aware", epsilon=EPSILON),
            topology=scenario.topology,
            oracle=oracle if oracle is not None else scenario.oracle,
            rng=seeds.balancer,
            faults=plan,
        )
        return Stack(balancer.run_round, lambda: balancer)

    ring = build_scenario(
        model, num_nodes=size, vs_per_node=VS_PER_NODE, rng=seeds.scenario
    ).ring
    config = BalancerConfig(proximity_mode="ignorant", epsilon=EPSILON)
    adversary = None
    if workload.mode == "defended":
        adversary = AdversaryPlan(seed=seeds.plan, fraction=0.05, defense=True)
    if workload.mode != "durable" or reference:
        balancer = engine(ring, config, rng=seeds.balancer, adversary=adversary)
        return Stack(balancer.run_round, lambda: balancer)

    if state_root is None:
        raise ValueError("the durable workload needs a state directory root")
    state_root.mkdir(parents=True, exist_ok=True)
    state_dir = state_root / f"state-{seeds.scenario}"
    shutil.rmtree(state_dir, ignore_errors=True)
    manager = RecoveryManager(
        lambda: IncrementalLoadBalancer(ring, config, rng=seeds.balancer),
        state_dir=state_dir,
    )
    return Stack(
        manager.run_round,
        lambda: manager.balancer,
        state_dir=state_dir,
        close=manager.close,
    )


class ChurnSchedule:
    """The seeded inter-round step: membership churn and load drift.

    On the churn workloads one step turns over ``CHURN_FRACTION`` of the
    alive nodes (half join, half leave) and redraws loads around the
    join sites.  ``aware_faulted`` keeps membership static — aware
    placement has no landmark vector for a node that joins later — and
    redraws loads around as many randomly drawn virtual servers.
    """

    def __init__(self, workload: Workload, seeds: Seeds) -> None:
        self._membership = workload.mode != "aware_faulted"
        self._model = load_model(workload)
        self._gen = np.random.default_rng(seeds.churn)
        #: Membership events and redrawn virtual servers of the last step.
        self.events = 0
        self.drifted = 0

    def step(self, ring: ChordRing) -> None:
        """Apply one step to ``ring``."""
        gen = self._gen
        alive = [n for n in ring.alive_nodes if n.virtual_servers]
        events = max(2, int(CHURN_FRACTION * len(alive)))
        joins = events // 2
        sites: list[int] = []
        if self._membership:
            for _ in range(joins):
                node = join_node(
                    ring, capacity=10.0, vs_count=3, rng=int(gen.integers(1 << 30))
                )
                sites.extend(vs.vs_id for vs in node.virtual_servers)
            alive = [n for n in ring.alive_nodes if n.virtual_servers]
            picks = gen.choice(len(alive), size=events - joins, replace=False)
            for i in picks:
                leave_node(ring, alive[int(i)])
            self.events = events
        else:
            ids = sorted(vs.vs_id for n in alive for vs in n.virtual_servers)
            picks = gen.choice(len(ids), size=3 * joins, replace=False)
            sites = [ids[int(i)] for i in picks]
            self.events = 0
        self.drifted = apply_load_drift(
            ring,
            self._model,
            int(gen.integers(1 << 30)),
            sites[: max(3, len(sites) // 10)],
            fraction=0.01,
        )
