"""Span recorder for the traced run, wrapped around each layer's entry points.

The program is not modified and ``repro.obs`` tracing stays off (turning
it on moves the incremental engine to its serial path).  Instead the
recorder replaces each public entry point listed in :data:`TARGETS`
with a timing wrapper *where callers look it up*: a module-level
function is rebound in every loaded ``repro`` module that imported it
by name (``repro.core.balancer.execute_transfers`` as well as
``repro.core.vst.execute_transfers``), and a method is rebound on its
class.  :meth:`SpanRecorder.uninstall` restores every binding.

Each span records its name, parent, root, start and end.  A parent
stack gives every span its *self* time — its duration minus the time
its child spans cover — so the self times of all spans under one root
add up to the root's duration exactly, the root's own self time being
what no wrapped entry point accounts for.  Spans are held in flat
arrays (no per-span objects for the collector to scan) and written out
when the run ends.
"""

from __future__ import annotations

import array
import functools
import gc
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator


@dataclass(frozen=True)
class Target:
    """One wrapped entry point and the metric stem it reports under.

    ``qualname`` is ``"function"`` or ``"Class.method"`` inside
    ``module``; a target that no longer exists fails
    :meth:`SpanRecorder.install`.  ``sized`` marks a plain method whose
    spans also record ``len()`` of its first argument after ``self``
    (the keys a tree lookup was asked for).
    """

    layer: str
    stem: str
    module: str
    qualname: str
    sized: bool = False

    @property
    def span_name(self) -> str:
        return f"{self.layer}.{self.stem}"


TARGETS: tuple[Target, ...] = (
    Target("ktree", "build", "repro.ktree.tree", "KnaryTree.__init__"),
    Target("ktree", "refresh", "repro.ktree.tree", "KnaryTree.refresh_dirty"),
    Target(
        "ktree", "descend", "repro.ktree.tree", "KnaryTree.descend_batch",
        sized=True,
    ),
    Target(
        "ktree", "descend_one", "repro.ktree.tree", "KnaryTree.ensure_leaf_for_key"
    ),
    Target(
        "ktree", "resolve", "repro.ktree.index", "TreeIndex.resolve_leaves",
        sized=True,
    ),
    Target("core", "collect", "repro.core.lbi", "collect_lbi_reports"),
    Target("core", "aggregate", "repro.core.lbi", "aggregate_lbi"),
    Target("core", "classify", "repro.core.classification", "classify_all"),
    Target("core", "classify", "repro.core.classification", "classify_arrays"),
    Target("core", "select", "repro.core.selection", "select_shed_subset"),
    Target("core", "pair", "repro.core.rendezvous", "pair_rendezvous"),
    Target("core", "sweep", "repro.core.vsa", "VSASweep.run"),
    Target("core", "transfer", "repro.core.vst", "execute_transfers"),
    # The incremental engine's own stages are private methods; wrapping
    # them keeps their time out of the unattributed remainder.
    Target(
        "core", "fold", "repro.core.incremental",
        "IncrementalLoadBalancer._fold_lbi",
    ),
    Target(
        "core", "sparse_sweep", "repro.core.incremental",
        "IncrementalLoadBalancer._sweep_sparse",
    ),
    Target(
        "core", "publish", "repro.core.incremental",
        "IncrementalLoadBalancer._publish_vsa_entries",
    ),
    Target(
        "core", "publish", "repro.core.balancer",
        "LoadBalancer._publish_vsa_entries",
    ),
    Target(
        "adversary", "begin_round", "repro.adversary.engine",
        "AdversaryEngine.begin_round",
    ),
    Target(
        "adversary", "begin_round", "repro.adversary.trust",
        "TrustedAggregation.begin_round",
    ),
    Target("adversary", "admit", "repro.adversary.trust", "TrustedAggregation.admit"),
    Target(
        "adversary", "witness", "repro.adversary.trust",
        "TrustedAggregation.witness_check",
    ),
    Target("faults", "deliver", "repro.faults.retry", "deliver_with_retry"),
    Target(
        "membership", "begin_round", "repro.membership.manager",
        "MembershipManager.begin_round",
    ),
    Target("membership", "heal", "repro.membership.manager", "MembershipManager.heal"),
    Target("recovery", "journal", "repro.recovery.journal", "TransferJournal.record"),
    Target("recovery", "capture", "repro.recovery.snapshot", "SystemSnapshot.capture"),
    Target("recovery", "save", "repro.recovery.snapshot", "SystemSnapshot.save"),
    Target("recovery", "fsync", "os", "fsync"),
    Target("topology", "distance", "repro.topology.routing", "DistanceOracle.distance"),
    Target(
        "topology", "distance", "repro.topology.routing",
        "DistanceOracle.distances_between",
    ),
    Target(
        "topology", "distance", "repro.topology.routing",
        "DistanceOracle.distances_from",
    ),
    Target(
        "topology", "distance", "repro.topology.routing",
        "DistanceOracle.distances_from_many",
    ),
    Target("proximity", "setup", "repro.topology.landmarks", "select_landmarks"),
    Target("proximity", "setup", "repro.topology.landmarks", "landmark_vectors"),
    Target("proximity", "setup", "repro.proximity.mapping", "ProximityMapper.fit"),
)


class SpanRecorder:
    """In-memory span store with a parent stack.

    Spans are numbered in the order they open.  For span ``i`` the
    arrays hold its name index, parent (``-1`` for a root), root, start
    and end (``time.perf_counter`` seconds), self time, and the number
    of items a sized target was called with (``0`` otherwise).
    """

    def __init__(self, targets: tuple[Target, ...] = TARGETS) -> None:
        self.targets = targets
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.name_of = array.array("i")
        self.parent = array.array("q")
        self.root = array.array("q")
        self.start = array.array("d")
        self.end = array.array("d")
        self.self_s = array.array("d")
        self.items = array.array("q")
        #: Open spans, innermost last, and the time their children cover.
        #: Plain ints and floats: opening a span allocates no container
        #: the garbage collector would count.
        self._open_ids: list[int] = []
        self._covered: list[float] = []
        self._undo: list[tuple[Any, str, Any]] = []
        #: Garbage-collector pauses: ``(generation, start, seconds)``.
        self.gc_pauses: list[tuple[int, float, float]] = []
        self._gc_start = 0.0
        self._gc_installed = False

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def _intern(self, name: str) -> int:
        index = self._name_index.get(name)
        if index is None:
            index = len(self.names)
            self.names.append(name)
            self._name_index[name] = index
        return index

    def _open(self, name_index: int) -> int:
        span_id = len(self.name_of)
        open_ids = self._open_ids
        self.name_of.append(name_index)
        self.parent.append(open_ids[-1] if open_ids else -1)
        self.root.append(open_ids[0] if open_ids else span_id)
        self.end.append(0.0)
        self.self_s.append(0.0)
        self.items.append(0)
        open_ids.append(span_id)
        self._covered.append(0.0)
        self.start.append(time.perf_counter())
        return span_id

    def _close(self, span_id: int) -> None:
        end = time.perf_counter()
        self._open_ids.pop()
        covered = self._covered
        duration = end - self.start[span_id]
        self.end[span_id] = end
        self.self_s[span_id] = duration - covered.pop()
        if covered:
            covered[-1] += duration

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        """Record a span around the ``with`` body; yields its id."""
        span_id = self._open(self._intern(name))
        try:
            yield span_id
        finally:
            self._close(span_id)

    def wrap(
        self, fn: Callable[..., Any], name: str, sized: bool = False
    ) -> Callable[..., Any]:
        """``fn`` with a span named ``name`` around every call.

        With ``sized`` the span records ``len(args[1])``: ``fn`` is a
        method and its first argument after ``self`` is a sequence.
        """
        name_index = self._intern(name)
        opener = self._open
        closer = self._close
        items = self.items

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            span_id = opener(name_index)
            try:
                return fn(*args, **kwargs)
            finally:
                closer(span_id)

        @functools.wraps(fn)
        def sized_wrapper(*args: Any, **kwargs: Any) -> Any:
            span_id = opener(name_index)
            try:
                items[span_id] = len(args[1])
                return fn(*args, **kwargs)
            finally:
                closer(span_id)

        return sized_wrapper if sized else wrapper

    # ------------------------------------------------------------------
    # Installing the wrappers
    # ------------------------------------------------------------------
    def _rebind(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every target where it is looked up, and hook the GC.

        Raises :class:`LookupError` if a target is missing, so a renamed
        entry point fails the traced run instead of silently reading
        zero.
        """
        for target in self.targets:
            module = sys.modules.get(target.module)
            if module is None:
                __import__(target.module)
                module = sys.modules[target.module]
            owner_name, _, attr = target.qualname.rpartition(".")
            owner: Any = getattr(module, owner_name) if owner_name else module
            raw = getattr(owner, "__dict__", {}).get(attr)
            if raw is None:
                raise LookupError(
                    f"span target {target.module}.{target.qualname} not found"
                )
            if isinstance(raw, classmethod):
                self._rebind(
                    owner, attr,
                    classmethod(self.wrap(raw.__func__, target.span_name)),
                )
            elif isinstance(raw, staticmethod):
                self._rebind(
                    owner, attr,
                    staticmethod(self.wrap(raw.__func__, target.span_name)),
                )
            elif owner_name:
                self._rebind(
                    owner, attr, self.wrap(raw, target.span_name, target.sized)
                )
            else:
                wrapped = self.wrap(raw, target.span_name)
                for name, mod in list(sys.modules.items()):
                    if mod is None or not (
                        name == target.module or name.startswith("repro.")
                    ):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is raw:
                            self._rebind(mod, key, wrapped)
        gc.callbacks.append(self._on_gc)
        self._gc_installed = True

    def uninstall(self) -> None:
        """Restore every binding :meth:`install` replaced."""
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
        if self._gc_installed:
            gc.callbacks.remove(self._on_gc)
            self._gc_installed = False

    def _on_gc(self, phase: str, info: dict[str, Any]) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            start = self._gc_start
            self.gc_pauses.append(
                (int(info["generation"]), start, time.perf_counter() - start)
            )

    # ------------------------------------------------------------------
    # Reading the spans back
    # ------------------------------------------------------------------
    def self_times(self, root_id: int) -> dict[str, tuple[float, int, int]]:
        """``name -> (summed self seconds, calls, items)`` under a root."""
        out: dict[str, list[float]] = {}
        names = self.names
        name_of = self.name_of
        self_s = self.self_s
        items = self.items
        parent = self.parent
        # A root's spans are contiguous: they all open before it closes.
        for span_id in range(root_id, len(parent)):
            if span_id > root_id and parent[span_id] == -1:
                break
            entry = out.setdefault(names[name_of[span_id]], [0.0, 0, 0])
            entry[0] += self_s[span_id]
            entry[1] += 1
            entry[2] += items[span_id]
        return {name: (v[0], int(v[1]), int(v[2])) for name, v in out.items()}

    def duration(self, span_id: int) -> float:
        return self.end[span_id] - self.start[span_id]

    def write_jsonl(self, path: Path) -> None:
        """Write every span as one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(len(self.name_of)):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "parent": self.parent[i],
                            "root": self.root[i],
                            "name": self.names[self.name_of[i]],
                            "start": self.start[i],
                            "end": self.end[i],
                            "self": self.self_s[i],
                            "items": self.items[i],
                        },
                        separators=(",", ":"),
                    )
                    + "\n"
                )
