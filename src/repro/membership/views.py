"""Per-component Chord views: the ring each side of a partition sees.

A :class:`ComponentRingView` exposes the subset of the
:class:`~repro.dht.chord.ChordRing` interface the balancing protocol
consumes (``successor``/``region_of``/``alive_nodes``/``vs``/churn
removal), restricted to the physical nodes of one partition component.
Regions *re-tile* over the component's virtual servers — the arc owned
by a virtual server extends back to its predecessor **within the
component** — so a K-nary tree built over the view is internally
consistent: leaf regions tile the full identifier space, every KT node
is planted on a component virtual server, and the LBI/VSA/VST phases
run unchanged.  Cross-component state is simply invisible, which is
exactly the semantics of a network partition.

Virtual servers that are detached in flight (a mid-round partition
caught their transfer between ``prepare`` and ``commit``) are hosted by
no node and therefore absent from every component view until the heal
re-homes them.

The same re-tiling serves the Byzantine defense: when
:class:`~repro.adversary.TrustedAggregation` quarantines nodes, the
balancer runs the whole round over a view of the trusted survivors, so
the regions owned by excluded nodes re-tile onto their trusted
component predecessors and no protocol phase routes through an
untrusted node.
"""

from __future__ import annotations

import numpy as np

from repro.dht.chord import ChordRing
from repro.dht.node import PhysicalNode
from repro.dht.virtual_server import VirtualServer
from repro.exceptions import DHTError, EmptyRingError
from repro.idspace import Region


class ComponentRingView:
    """A :class:`~repro.dht.chord.ChordRing` facade over one component.

    Parameters
    ----------
    ring:
        The underlying (whole) ring; mutations delegate to it so churn
        inside a component stays visible after the heal.
    member_indices:
        Node indices of this component, in deterministic order.
    """

    def __init__(self, ring: ChordRing, member_indices: tuple[int, ...]) -> None:
        """Snapshot the component's node list; see the class docstring."""
        self.ring = ring
        self.space = ring.space
        #: The member node indices as given (their first names the
        #: component in traces).
        self.members = member_indices
        members = frozenset(member_indices)
        self.nodes: list[PhysicalNode] = [
            n for n in ring.nodes if n.index in members
        ]
        self._sorted_ids: np.ndarray | None = None
        self._sorted_vs: list[VirtualServer] | None = None

    # ------------------------------------------------------------------
    # Index maintenance (mirrors ChordRing's lazy sorted index)
    # ------------------------------------------------------------------
    def _invalidate(self) -> None:
        self._sorted_ids = None
        self._sorted_vs = None

    def _ensure_index(self) -> None:
        if self._sorted_ids is not None:
            return
        hosted: list[VirtualServer] = [
            vs for node in self.nodes for vs in node.virtual_servers
        ]
        if not hosted:
            raise EmptyRingError("the partition component has no virtual servers")
        ids = np.asarray([vs.vs_id for vs in hosted], dtype=np.int64)
        order = np.argsort(ids)
        self._sorted_ids = ids[order]
        self._sorted_vs = [hosted[int(i)] for i in order]

    # ------------------------------------------------------------------
    # Queries (the protocol-facing subset of ChordRing)
    # ------------------------------------------------------------------
    @property
    def virtual_servers(self) -> list[VirtualServer]:
        """The component's hosted virtual servers in ring order."""
        self._ensure_index()
        assert self._sorted_vs is not None
        return list(self._sorted_vs)

    @property
    def num_virtual_servers(self) -> int:
        """Count of virtual servers hosted inside the component."""
        self._ensure_index()
        assert self._sorted_vs is not None
        return len(self._sorted_vs)

    @property
    def alive_nodes(self) -> list[PhysicalNode]:
        """Component nodes still participating."""
        return [n for n in self.nodes if n.alive]

    def vs(self, vs_id: int) -> VirtualServer:
        """The component's virtual server with exactly ``vs_id``.

        A virtual server outside the component (or detached in flight)
        is unreachable across the partition and raises
        :class:`~repro.exceptions.DHTError`, exactly like an id that
        never existed.
        """
        self._ensure_index()
        assert self._sorted_ids is not None and self._sorted_vs is not None
        idx = int(np.searchsorted(self._sorted_ids, vs_id, side="left"))
        if idx < len(self._sorted_ids) and int(self._sorted_ids[idx]) == vs_id:
            return self._sorted_vs[idx]
        raise DHTError(f"no virtual server with id {vs_id} in this component")

    def successor(self, key: int) -> VirtualServer:
        """The component virtual server owning ``key`` (wrapping)."""
        self.space.validate(key)
        self._ensure_index()
        assert self._sorted_ids is not None and self._sorted_vs is not None
        idx = int(np.searchsorted(self._sorted_ids, key, side="left"))
        if idx == len(self._sorted_ids):
            idx = 0
        return self._sorted_vs[idx]

    def host_with_region(self, key: int) -> tuple[VirtualServer, int, int]:
        """:meth:`successor` plus its owned arc as raw ``(start, length)``.

        Component analogue of :meth:`ChordRing.host_with_region`: one
        ``searchsorted`` over the component index yields the owner and
        its predecessor, with the single-VS full-ring convention of
        :meth:`region_of`.
        """
        self.space.validate(key)
        self._ensure_index()
        assert self._sorted_ids is not None and self._sorted_vs is not None
        ids = self._sorted_ids
        idx = int(np.searchsorted(ids, key, side="left"))
        if idx == len(ids):
            idx = 0
        vs = self._sorted_vs[idx]
        if len(ids) == 1:
            return vs, 0, self.space.size
        pred = int(ids[idx - 1])  # idx-1 == -1 wraps correctly
        size = self.space.size
        return vs, (pred + 1) % size, (vs.vs_id - pred) % size

    def predecessor_id(self, vs_id: int) -> int:
        """Identifier of the component VS preceding ``vs_id`` on the ring."""
        self._ensure_index()
        assert self._sorted_ids is not None
        idx = int(np.searchsorted(self._sorted_ids, vs_id, side="left"))
        if idx >= len(self._sorted_ids) or int(self._sorted_ids[idx]) != vs_id:
            raise DHTError(f"no virtual server with id {vs_id} in this component")
        return int(self._sorted_ids[idx - 1])  # idx-1 == -1 wraps correctly

    def region_of(self, vs: VirtualServer | int) -> Region:
        """The arc ``(component predecessor, vs_id]`` owned by ``vs``.

        With a single virtual server in the component the region is the
        full ring — the component's internally consistent view.
        """
        vs_id = vs.vs_id if isinstance(vs, VirtualServer) else int(vs)
        self._ensure_index()
        assert self._sorted_ids is not None
        if len(self._sorted_ids) == 1:
            if int(self._sorted_ids[0]) != vs_id:
                raise DHTError(
                    f"no virtual server with id {vs_id} in this component"
                )
            return Region.full(self.space)
        pred = self.predecessor_id(vs_id)
        start = self.space.wrap(pred + 1)
        length = self.space.distance_cw(pred, vs_id)
        return Region(self.space, start, length)

    # ------------------------------------------------------------------
    # Mutation (delegated; keeps the base ring authoritative)
    # ------------------------------------------------------------------
    def remove_virtual_server(self, vs: VirtualServer | int) -> VirtualServer:
        """Remove a component virtual server (crash/leave inside the split)."""
        removed = self.ring.remove_virtual_server(vs)
        self._invalidate()
        return removed

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ComponentRingView(nodes={len(self.nodes)}, "
            f"vs={sum(len(n.virtual_servers) for n in self.nodes)})"
        )
