"""Memoization of schedule conversion (the PR-2 profiler's control-
plane hot spot).

The converter's output is a pure function of

* the **control plane**: measured RSS matrix, link universe and
  converter config.  A cache belongs to exactly one control plane, so
  none of these is part of the key; after an RSS or membership change
  — a service delta or a measurement campaign alike — entries that
  provably still replay identically stay and the rest are evicted;
* the **backlog-derived inputs** of one call: the padded strict
  schedule, the ROP AP list and the per-AP association links;
* the **connector** retained from the previous batch — only its entry
  structure matters (``polls_after`` and duty bookkeeping are local to
  each call), so it is keyed by ``(src, dst, fake)`` triples.

Everything else the converter touches (``_next_slot_index``,
``_batch_id``) only *renumbers* the output: slot indices shift by a
constant and the batch id is whatever comes next.  A cache hit
therefore replays a stored template by cloning it with shifted
indices, which is exactly equal to running the conversion again
(enforced by ``tests/core/test_conversion_cache.py``).

Steady traffic makes this pay off quickly: under both saturation and
light load the scheduler settles into repeating strict batches (light
load is the extreme case — every padded batch is the same fake/poll
skeleton), so repeated controller epochs skip fake-link insertion and
trigger assignment entirely.

Hit/miss counts are exposed both as plain attributes and, when a
telemetry session is active, as ``converter.cache.hits`` /
``converter.cache.misses`` counters.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from .. import telemetry
from ..topology.links import Link
from .relative_schedule import RelativeBatch, RelativeSlot

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from typing import Callable, FrozenSet

    from ..sched.strict_schedule import StrictSchedule

#: Opaque-but-hashable composite cache key (see :meth:`ConversionCache.key`).
CacheKey = Tuple[object, ...]


def key_semantic_links(key: CacheKey) -> "FrozenSet[Link]":
    """The links whose *RSS* the memoized conversion read directly.

    Connector and strict-schedule links feed trigger assignment and
    fake-insertion SINR tests; the per-AP association table
    (``links_key``) by contrast is consulted only through conflict-
    graph edges and ``shares_node`` during ROP sharing, so an RSS
    change on one of *those* links invalidates an entry only if it
    flipped such an edge (see
    :meth:`repro.core.converter.ScheduleConverter.revalidate_cache`).
    """
    connector_key, strict_key, _rop_aps, _links_key = key
    links = set()
    if connector_key is not None:
        links.update(Link(src, dst) for src, dst, _fake in connector_key)
    for slot in strict_key:
        links.update(Link(src, dst) for src, dst in slot)
    return frozenset(links)


def key_ap_owner(key: CacheKey) -> Dict[Link, int]:
    """Association link -> owning AP, from the key's per-AP table."""
    owner: Dict[Link, int] = {}
    for ap, ap_link_pairs in key[3]:
        for src, dst in ap_link_pairs:
            owner[Link(src, dst)] = ap
    return owner


def key_rop_aps(key: CacheKey) -> "FrozenSet[int]":
    """The ROP AP ids a cache key references."""
    return frozenset(key[2])


def cached_links(entry: CachedConversion) -> "FrozenSet[Link]":
    """Every link appearing in a stored template's slots.

    A superset of the key's strict links: fake links the conversion
    *accepted* live only in the output batch, and a replay re-emits
    them — so revalidation must look here too, not just at the key.
    """
    return frozenset(e.link for slot in entry.batch.slots
                     for e in slot.entries)


def clone_batch(batch: RelativeBatch, delta: int = 0,
                batch_id: Optional[int] = None) -> RelativeBatch:
    """Deep-enough copy of a batch with every slot index shifted.

    Frozen leaves (:class:`SlotEntry`, link objects, frozensets) are
    shared; every mutable container is fresh, so neither the caller
    nor later converter calls can corrupt a stored template.
    """
    if delta == 0:
        duties = dict(batch.duties)
    else:
        duties = {(node, slot + delta): duty.shifted(delta)
                  for (node, slot), duty in batch.duties.items()}
    return RelativeBatch(
        batch_id=batch.batch_id if batch_id is None else batch_id,
        slots=[RelativeSlot(index=slot.index + delta,
                            entries=list(slot.entries),
                            rop_after=list(slot.rop_after))
               for slot in batch.slots],
        duties=duties,
        inbound={(slot + delta, link): list(nodes)
                 for (slot, link), nodes in batch.inbound.items()},
        rop_polls={slot + delta: list(aps)
                   for slot, aps in batch.rop_polls.items()},
        initial=batch.initial,
        untriggerable=[(slot + delta, link)
                       for slot, link in batch.untriggerable],
    )


@dataclass
class CachedConversion:
    """One stored conversion, in the slot numbering of its first run."""

    #: ``_next_slot_index`` when the template was converted; a replay
    #: shifts every index by ``current_next_slot_index - base``.
    base: int
    #: How many new slot indices the conversion consumed.
    n_new_slots: int
    batch: RelativeBatch
    #: AP ids the conversion appended to the *incoming* connector
    #: slot's ``rop_after`` (an ROP slot interposed right after the
    #: connector mutates the previous batch's last slot); a replay
    #: must reproduce that side effect on the live connector.
    connector_rop_append: List[int]


class ConversionCache:
    """Bounded FIFO memo of strict-to-relative conversions.

    One instance lives as long as its control plane; after every
    control-plane change :meth:`refine_topology` drops the entries
    that could diverge.
    """

    def __init__(self, max_entries: int = 256):
        self.max_entries = max_entries
        self._entries: "OrderedDict[CacheKey, CachedConversion]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        #: Revalidation rejections attributed to the soundness rule
        #: that fired (``rule1`` dirty semantic link, ``rule2`` dirty
        #: polled ROP AP, ``rule3`` fake-insertion instability,
        #: ``rule4`` flipped ROP-sharing edge) — the "why is the hit
        #: rate what it is" answer the bare hit/miss counts lack.
        self.reject_counts: Dict[str, int] = {
            "rule1": 0, "rule2": 0, "rule3": 0, "rule4": 0}
        self._trace = telemetry.current()

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def count_reject(self, rule: str) -> None:
        """Attribute one revalidation rejection to a soundness rule."""
        self.reject_counts[rule] = self.reject_counts.get(rule, 0) + 1
        if self._trace.enabled:
            self._trace.metrics.counter(
                "converter.cache.reject." + rule).inc()

    def refine_topology(
            self, keep: "Callable[[CacheKey, CachedConversion], bool]",
    ) -> Tuple[int, int]:
        """Keep the still-valid entries, evict the rest.

        After a localized control-plane change (one node's RSS row,
        one client joining, a measurement campaign) most conversions
        are unaffected.  Each entry is offered to ``keep`` — the
        converter's dirty-region judgement — and survivors stay in
        FIFO order, so untouched chains keep replaying from cache.

        Returns ``(kept, evicted)``.
        """
        stale = [key for key, entry in self._entries.items()
                 if not keep(key, entry)]
        for key in stale:
            del self._entries[key]
        if self._trace.enabled:
            self._trace.metrics.gauge("converter.cache.entries").set(
                len(self._entries))
        return len(self._entries), len(stale)

    def key(self, connector: Optional[RelativeSlot], strict: "StrictSchedule",
            rop_aps: Sequence[int],
            ap_links: Optional[Dict[int, List[Link]]]) -> CacheKey:
        connector_key = None if connector is None else tuple(
            (entry.link.src, entry.link.dst, entry.fake)
            for entry in connector.entries)
        strict_key = tuple(
            tuple((link.src, link.dst) for link in slot) for slot in strict)
        links_key = () if not ap_links else tuple(sorted(
            (ap, tuple((link.src, link.dst) for link in links))
            for ap, links in ap_links.items()))
        return (connector_key, strict_key, tuple(rop_aps), links_key)

    def get(self, key: CacheKey) -> Optional[CachedConversion]:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            if self._trace.enabled:
                self._trace.metrics.counter("converter.cache.misses").inc()
            return None
        self.hits += 1
        if self._trace.enabled:
            self._trace.metrics.counter("converter.cache.hits").inc()
        return entry

    def put(self, key: CacheKey, base: int, n_new_slots: int,
            batch: RelativeBatch, connector_rop_append: List[int]) -> None:
        while len(self._entries) >= self.max_entries:
            self._entries.popitem(last=False)
        self._entries[key] = CachedConversion(
            base=base, n_new_slots=n_new_slots,
            batch=clone_batch(batch),
            connector_rop_append=list(connector_rop_append))
        if self._trace.enabled:
            self._trace.metrics.gauge("converter.cache.entries").set(
                len(self._entries))
