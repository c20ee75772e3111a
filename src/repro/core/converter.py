"""Schedule converter (Sec. 3.3): strict schedule -> relative schedule.

The converter is "a series of procedures that convert a strict
schedule made by an arbitrary scheduler to a relative schedule":

1. **Fake link insertion** — every slot is extended to a *maximal*
   independent set of the link conflict graph; added links are marked
   fake.  This keeps every node triggered frequently so the whole
   network stays slot-synchronized.
2. **Trigger assignment** — for each link ``l`` in slot ``i+1``, pick
   the slot-``i`` node with the highest RSS at ``l.sender`` as its
   trigger, then a secondary trigger in a second pass.  Constraints:
   a link's *inbound* (how many nodes carry its trigger) is capped at
   2 — more would not add robustness but would burn outbound budget —
   and a node's *outbound* (signatures combined in its burst) is
   capped at 4, the Fig. 9 detection limit.
3. **Batch connection** — the last slot of the previous batch is
   retained as the connector: triggers for this batch's first slot are
   assigned from it, so execution flows seamlessly across batches.
   The very first batch has no connector; its APs self-start.
4. **ROP slot insertion** — greedy: for each AP that needs to poll,
   find the earliest slot that can trigger it and interpose an ROP
   slot after it (at most one between any two slots); APs whose links
   do not conflict may share one ROP slot.

Links in slot ``i+1`` that end up with no trigger are dropped from the
batch and reported back for rescheduling (rare once fakes are in).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Dict, FrozenSet, Iterable, List, Optional,
                    Sequence, Set, Tuple)

from ..topology.conflict_graph import Adjacency, greedy_maximal_extension
from ..topology.interference_map import InterferenceMap
from ..sched.strict_schedule import StrictSchedule
from ..topology.links import Link
from .conversion_cache import (CachedConversion, ConversionCache, CacheKey,
                               cached_links, clone_batch, key_ap_owner,
                               key_rop_aps, key_semantic_links)
from .relative_schedule import (RelativeBatch, RelativeSlot, SlotEntry,
                                TriggerDuty)


@dataclass
class ConverterConfig:
    max_inbound: int = 2     # triggers carried per next-slot link
    max_outbound: int = 4    # signatures combined per node burst
    insert_fakes: bool = True
    insert_rop: bool = True
    #: Nodes whose links must not be used as fake filler — an
    #: energy-constrained client (Sec. 5) sleeps through uninvolved
    #: slots, which fake insertion would otherwise eliminate.
    fake_exclude_nodes: frozenset = frozenset()


@dataclass
class _DutyBuilder:
    """Mutable duty under construction (frozen TriggerDuty at the end)."""

    node: int
    slot: int
    targets: Set[int] = field(default_factory=set)
    rop_polls: Set[int] = field(default_factory=set)
    rop_flag: bool = False

    @property
    def outbound(self) -> int:
        return len(self.targets) + len(self.rop_polls)

    def freeze(self) -> TriggerDuty:
        return TriggerDuty(node=self.node, slot=self.slot,
                           targets=frozenset(self.targets),
                           rop_polls=frozenset(self.rop_polls),
                           rop_flag=self.rop_flag)


class ScheduleConverter:
    """Stateful converter; retains the connector slot across batches.

    Parameters
    ----------
    imap:
        The central interference map (for trigger reachability and
        RSS-ordered trigger choice).
    conflict_graph:
        Conflict graph (adjacency dict) over the *full* link universe
        (flows plus all association links available as fakes).
    fake_candidates:
        Links eligible for fake insertion, in deterministic priority
        order.
    """

    def __init__(self, imap: InterferenceMap, conflict_graph: Adjacency[Link],
                 fake_candidates: Sequence[Link],
                 config: Optional[ConverterConfig] = None,
                 cache: Optional["ConversionCache"] = None):
        self.imap = imap
        self.graph = conflict_graph
        self.fake_candidates = list(fake_candidates)
        self.config = config if config is not None else ConverterConfig()
        #: Optional conversion memo (see repro.core.conversion_cache),
        #: owned by the control plane and filtered across each change
        #: by :meth:`revalidate_cache`.
        self.cache = cache
        self._connector: Optional[RelativeSlot] = None
        self._next_slot_index = 0
        self._batch_id = 0

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def reset_connector(self) -> None:
        """Forget the retained connector slot.

        Used when a contention period (Sec. 5 coexistence) separates
        two batches: triggers cannot cross a CoP full of foreign
        traffic, so the next batch self-starts like the very first.
        """
        self._connector = None

    def fork_preview(self, imap: InterferenceMap, conflict_graph: Adjacency[Link],
                     fake_candidates: Sequence[Link]) -> "ScheduleConverter":
        """Uncached converter at the same stream position.

        The fork starts from a deep-enough clone of the retained
        connector and copies the slot/batch counters, so converting
        the next strict batch through it yields exactly what *this*
        converter would emit — without touching this converter's
        state or the shared cache.  The online controller's equality
        oracle runs its from-scratch recompute through such a fork.
        """
        forked = ScheduleConverter(imap, conflict_graph, fake_candidates,
                                   config=self.config, cache=None)
        if self._connector is not None:
            forked._connector = RelativeSlot(
                index=self._connector.index,
                entries=list(self._connector.entries),
                rop_after=list(self._connector.rop_after))
        forked._next_slot_index = self._next_slot_index
        forked._batch_id = self._batch_id
        return forked

    def purge_links(self, links: Iterable[Link]) -> None:
        """Drop departed links from the retained connector slot.

        When a client disassociates mid-run its links vanish from the
        universe, but the connector — the previous batch's last slot —
        may still carry them; the next conversion would then assign
        trigger duties to a node that left.  The connector is replaced
        (not mutated: the emitted batch still owns the original slot)
        with the surviving entries; if none survive it is reset and the
        next batch self-starts.
        """
        connector = self._connector
        if connector is None:
            return
        gone = frozenset(links)
        kept = [e for e in connector.entries if e.link not in gone]
        if len(kept) == len(connector.entries):
            return
        self._connector = RelativeSlot(
            index=connector.index, entries=kept,
            rop_after=list(connector.rop_after)) if kept else None

    def revalidate_cache(self, dirty_links: Iterable[Link],
                         dirty_nodes: Iterable[int],
                         changed_pairs: Iterable[Tuple[Link, Link]] = (),
                         ) -> Tuple[int, int]:
        """Filter the conversion cache across a *localized* change.

        Must be called after the interference map / conflict graph /
        ``fake_candidates`` already reflect the new control plane.  An
        entry survives iff a fresh conversion of its inputs would still
        reproduce its template byte for byte:

        * **rule 1** — no dirty link appears among its connector
          entries, strict links or template slots (incl. accepted
          fakes).  These are the links whose RSS feeds trigger
          assignment and fake-insertion SINR tests directly; it also
          pins every template *participant* clean, because any
          universe link touching a dirty node is itself dirty;
        * **rule 2** — no dirty node is among its polled ROP APs
          (poll triggering reads RSS toward the AP, and AP/AP
          audibility gates poll sharing, even when no AP link is
          scheduled);
        * **rule 3** — no dirty fake *candidate* would newly be
          accepted into one of its slots (rule 1 guarantees dirty
          candidates were rejected everywhere in the template, so
          divergence can only be a rejection flipping to acceptance);
        * **rule 4** — no *flipped* conflict edge (``changed_pairs``,
          from :func:`repro.topology.conflict_graph.update_conflict_graph`)
          changes a ROP sharing verdict between two distinct polled
          APs.  The per-AP association table is consulted only as the
          OR over ``lb in graph[la]`` / ``shares_node`` of the two
          APs' link pairs, so a flip is invisible while any *other*
          pair of the same two cells still conflicts — only a flip
          that toggles that OR (re-evaluated exactly, with the
          pre-flip edge values restored) evicts.

        Everything else the conversion reads — pairwise conflicts,
        additive SINR sums, trigger RSS orderings — involves only
        template links/nodes, which rules 1–2 keep clean, so those
        reads are untouched by construction.  Returns
        ``(kept, evicted)``; ``(0, 0)`` when the converter runs
        uncached.
        """
        cache = self.cache
        if cache is None:
            return (0, 0)
        count_reject = cache.count_reject
        dirty_link_set = frozenset(dirty_links)
        dirty_node_set = frozenset(dirty_nodes)
        dirty_candidates = [cand for cand in self.fake_candidates
                            if cand in dirty_link_set]
        flipped = [(u, v) for u, v in changed_pairs
                   if not u.shares_node(v)]
        flipped_pairs = {frozenset((u, v)) for u, v in flipped}
        # Sharing-verdict changes are a function of the key's per-AP
        # link table only, so memoize per links_key component.
        sharing_changed_memo: Dict[object, bool] = {}

        def sharing_changed(key: CacheKey) -> bool:
            links_component = key[3]
            cached = sharing_changed_memo.get(links_component)
            if cached is not None:
                return cached
            owner = key_ap_owner(key)
            table: Dict[int, List[Link]] = {}
            for link, ap in owner.items():
                table.setdefault(ap, []).append(link)
            changed = any(
                self._sharing_verdict_flipped(owner.get(u), owner.get(v),
                                              table, flipped_pairs)
                for u, v in flipped)
            sharing_changed_memo[links_component] = changed
            return changed

        def keep(key: CacheKey, entry: CachedConversion) -> bool:
            if not dirty_link_set.isdisjoint(key_semantic_links(key)):
                count_reject("rule1")
                return False
            if not dirty_link_set.isdisjoint(cached_links(entry)):
                count_reject("rule1")
                return False
            rop_aps = key_rop_aps(key)
            if not dirty_node_set.isdisjoint(rop_aps):
                count_reject("rule2")
                return False
            if flipped and len(rop_aps) > 1 and self.config.insert_rop:
                if sharing_changed(key):
                    count_reject("rule4")
                    return False
            if self.config.insert_fakes and dirty_candidates:
                if not self._fake_insertion_stable(entry.batch,
                                                   dirty_candidates):
                    count_reject("rule3")
                    return False
            return True

        return cache.refine_topology(keep)

    def _sharing_verdict_flipped(
            self, ap_u: Optional[int], ap_v: Optional[int],
            table: Dict[int, List[Link]],
            flipped_pairs: Set[FrozenSet[Link]],
    ) -> bool:
        """Did ``links_conflict(ap_u, ap_v)`` change across the flips?

        Re-evaluates the ROP sharing test's OR twice — once against
        the live graph and once with every flipped edge restored to
        its pre-flip value (an edge in ``flipped_pairs`` toggled, by
        definition of a flip) — and reports whether the outcomes
        differ.
        """
        if ap_u is None or ap_v is None or ap_u == ap_v:
            return False
        or_now = or_before = False
        for la in table.get(ap_u, ()):
            for lb in table.get(ap_v, ()):
                if la.shares_node(lb):
                    return False  # conflicts regardless of any edge
                # A departed link in the key's table has no edges.
                edge_now = lb in self.graph.get(la, ())
                if frozenset((la, lb)) in flipped_pairs:
                    edge_before = not edge_now
                else:
                    edge_before = edge_now
                or_now = or_now or edge_now
                or_before = or_before or edge_before
                if or_now and or_before:
                    return False
        return or_now != or_before

    def _fake_insertion_stable(self, batch: RelativeBatch,
                               dirty_candidates: Sequence[Link]) -> bool:
        """Would fake insertion still skip every dirty candidate?

        The caller has established that no dirty link appears in the
        template, so each dirty candidate was (implicitly) rejected in
        every slot.  Replay diverges from a fresh conversion only if
        one of them would *now* be accepted — checked against the same
        chosen-prefix the fresh run would test it with: the real
        entries plus the fakes accepted before it in candidate order.
        """
        order = {link: i for i, link in enumerate(self.fake_candidates)}
        excluded = self.config.fake_exclude_nodes
        for slot in batch.slots:
            real = [e.link for e in slot.entries if not e.fake]
            fakes = [(order.get(e.link, -1), e.link)
                     for e in slot.entries if e.fake]
            fakes.sort()
            for cand in dirty_candidates:
                prefix = real + [link for pos, link in fakes
                                 if pos < order[cand]]
                if self._fake_would_accept(cand, prefix, excluded):
                    return False
        return True

    def _fake_would_accept(self, cand: Link, chosen: Sequence[Link],
                           excluded: frozenset) -> bool:
        """One candidate's accept test, mirroring :meth:`_insert_fakes`."""
        extended = greedy_maximal_extension(self.graph, chosen, (cand,),
                                            self.imap, excluded)
        return len(extended) > len(chosen)

    def convert(self, strict: StrictSchedule,
                rop_aps: Sequence[int] = (),
                ap_links: Optional[Dict[int, List[Link]]] = None) -> RelativeBatch:
        """Convert one strict batch; returns the distributable batch.

        ``rop_aps`` lists APs that must poll during this batch;
        ``ap_links`` maps each such AP to its association links (for
        the ROP-slot sharing test).
        """
        cache = self.cache
        key = None
        if cache is not None:
            key = cache.key(self._connector, strict, rop_aps, ap_links)
            template = cache.get(key)
            if template is not None:
                return self._replay(template)
        base = self._next_slot_index
        incoming_connector = self._connector
        connector_rop_len = (len(incoming_connector.rop_after)
                             if incoming_connector is not None else 0)
        batch = RelativeBatch(batch_id=self._batch_id,
                              initial=self._connector is None)
        self._batch_id += 1

        slots: List[RelativeSlot] = []
        if self._connector is not None:
            slots.append(self._connector)
        for strict_slot in strict:
            entries = [SlotEntry(link=link, fake=False) for link in strict_slot]
            if self.config.insert_fakes:
                entries = self._insert_fakes(entries)
            slots.append(RelativeSlot(index=self._next_slot_index,
                                      entries=entries))
            self._next_slot_index += 1

        duties: Dict[Tuple[int, int], _DutyBuilder] = {}
        for prev, nxt in zip(slots, slots[1:]):
            self._assign_triggers(prev, nxt, duties, batch)

        if self.config.insert_rop and rop_aps:
            self._insert_rop_slots(slots, rop_aps, ap_links or {}, duties,
                                   batch)

        # The connector belongs to the previous batch's execution; only
        # its *duties* ship with this batch.
        own_slots = slots[1:] if self._connector is not None else slots
        batch.slots = own_slots
        batch.duties = {key: builder.freeze()
                        for key, builder in duties.items()}
        if own_slots:
            self._connector = own_slots[-1]
        batch.validate()
        if cache is not None:
            appended = ([] if incoming_connector is None else
                        list(incoming_connector.rop_after[connector_rop_len:]))
            cache.put(key, base, self._next_slot_index - base, batch,
                      appended)
        return batch

    def _replay(self, template: "CachedConversion") -> RelativeBatch:
        """Reissue a cached conversion under the current numbering.

        Equivalent to running :meth:`convert` again on the same
        inputs: slot indices shift by however far the global counter
        has advanced since the template was built, the batch takes the
        next batch id, and the ROP polls the original run appended to
        its incoming connector are appended to the live one.
        """
        delta = self._next_slot_index - template.base
        batch = clone_batch(template.batch, delta=delta,
                            batch_id=self._batch_id)
        self._batch_id += 1
        self._next_slot_index += template.n_new_slots
        if self._connector is not None and template.connector_rop_append:
            self._connector.rop_after.extend(template.connector_rop_append)
        if batch.slots:
            self._connector = batch.slots[-1]
        return batch

    # ------------------------------------------------------------------
    # 1. Fake link insertion
    # ------------------------------------------------------------------
    def _insert_fakes(self, entries: List[SlotEntry]) -> List[SlotEntry]:
        """Extend a slot to a maximal independent set with fake links.

        Beyond pairwise graph independence, the whole slot must pass
        the additive-interference test: several individually tolerable
        interferers can still sum up to break a marginal link.
        """
        chosen = greedy_maximal_extension(
            self.graph, [e.link for e in entries], self.fake_candidates,
            self.imap, self.config.fake_exclude_nodes)
        return entries + [SlotEntry(link=link, fake=True)
                          for link in chosen[len(entries):]]

    # ------------------------------------------------------------------
    # 2. Trigger assignment
    # ------------------------------------------------------------------
    def _assign_triggers(self, prev: RelativeSlot, nxt: RelativeSlot,
                         duties: Dict[Tuple[int, int], _DutyBuilder],
                         batch: RelativeBatch) -> None:
        """Wire triggers from ``prev``'s participants to ``nxt``'s senders."""
        candidates = sorted(prev.participants())
        inbound: Dict[Link, List[int]] = {e.link: [] for e in nxt.entries}

        def try_assign(entry: SlotEntry, foreign_only: bool = False) -> bool:
            """Pick one more trigger node for ``entry``.

            ``foreign_only`` restricts the choice to nodes outside the
            link's own endpoints: a backup trigger drawn from a
            *different* chain is what couples chains together so that
            "last trigger wins" can pull them into global alignment
            (Sec. 3.4's healing needs cross-chain listening).
            """
            link = entry.link
            target = link.src
            best: Optional[int] = None
            best_rss = float("-inf")
            for node in candidates:
                if node in inbound[link]:
                    continue
                if foreign_only and node in (link.src, link.dst):
                    continue
                duty = duties.get((node, prev.index))
                if duty is not None and duty.outbound >= self.config.max_outbound:
                    continue
                if node == target:
                    # Self-trigger: the target was active in the previous
                    # slot and needs no over-the-air wake-up.  Prefer it
                    # unconditionally; costs no outbound budget.
                    best = node
                    best_rss = float("inf")
                    break
                if not self.imap.node_can_trigger(node, target):
                    continue
                rss = self.imap.rss_dbm(node, target)
                if rss > best_rss:
                    best = node
                    best_rss = rss
            if best is None:
                return False
            inbound[link].append(best)
            if best != target:
                duty = duties.setdefault(
                    (best, prev.index), _DutyBuilder(node=best, slot=prev.index)
                )
                duty.targets.add(target)
            return True

        # First pass: one trigger per next-slot link; second pass: a
        # backup trigger where budget allows, preferably from a foreign
        # chain (falling back to any node when no foreign one reaches).
        survivors: List[SlotEntry] = []
        for entry in nxt.entries:
            if try_assign(entry):
                survivors.append(entry)
            elif entry.fake:
                continue  # silently drop untriggerable fakes
            else:
                batch.untriggerable.append((nxt.index, entry.link))
        for entry in survivors:
            if len(inbound[entry.link]) < self.config.max_inbound:
                if not try_assign(entry, foreign_only=True):
                    try_assign(entry)

        nxt.entries = [e for e in nxt.entries
                       if e in survivors]
        for entry in survivors:
            batch.inbound[(nxt.index, entry.link)] = inbound[entry.link]

    # ------------------------------------------------------------------
    # 4. ROP slot insertion
    # ------------------------------------------------------------------
    def _insert_rop_slots(self, slots: List[RelativeSlot],
                          rop_aps: Sequence[int],
                          ap_links: Dict[int, List[Link]],
                          duties: Dict[Tuple[int, int], _DutyBuilder],
                          batch: RelativeBatch) -> None:
        """Greedy insertion per Sec. 3.3."""
        polls_after: Dict[int, List[int]] = {}  # slot list position -> AP ids

        def links_conflict(ap_a: int, ap_b: int) -> bool:
            for la in ap_links.get(ap_a, []):
                for lb in ap_links.get(ap_b, []):
                    if lb in self.graph[la] or la.shares_node(lb):
                        return True
            return False

        def can_share(ap_a: int, ap_b: int) -> bool:
            """Sec. 3.3 requires the APs' links not to conflict; we
            additionally keep mutually audible APs in separate polling
            slots so each can hear the other's poll — the reference
            broadcast that re-anchors chains (simultaneous polls would
            leave audible AP clusters permanently deaf to each other's
            timing)."""
            if links_conflict(ap_a, ap_b):
                return False
            return not self.imap.in_cs_range(ap_a, ap_b)

        for ap in rop_aps:
            placed = False
            for pos in range(len(slots) - 1):
                slot = slots[pos]
                trigger_node = self._rop_trigger_node(slot, ap, duties)
                if pos in polls_after:
                    # An ROP slot already sits here: share if compatible.
                    if all(can_share(ap, other)
                           for other in polls_after[pos]):
                        if trigger_node is None:
                            continue
                        self._add_rop_duty(trigger_node, slot, ap, duties)
                        polls_after[pos].append(ap)
                        slot.rop_after.append(ap)
                        batch.rop_polls.setdefault(slot.index, []).append(ap)
                        placed = True
                        break
                    continue
                if trigger_node is None:
                    continue
                self._add_rop_duty(trigger_node, slot, ap, duties)
                polls_after[pos] = [ap]
                slot.rop_after.append(ap)
                batch.rop_polls.setdefault(slot.index, []).append(ap)
                self._flag_rop(slot, duties)
                placed = True
                break
            if not placed:
                # No slot can trigger this AP this batch; it polls in a
                # later batch (its stale queue picture self-corrects).
                continue

    def _rop_trigger_node(self, slot: RelativeSlot, ap: int,
                          duties: Dict[Tuple[int, int], _DutyBuilder]
                          ) -> Optional[int]:
        """Best slot participant that can wake ``ap`` for polling."""
        best: Optional[int] = None
        best_rss = float("-inf")
        for node in sorted(slot.participants()):
            if node == ap:
                return ap  # the AP is active in the slot: self-timed poll
            duty = duties.get((node, slot.index))
            if duty is not None and duty.outbound >= self.config.max_outbound:
                continue
            if not self.imap.node_can_trigger(node, ap):
                continue
            rss = self.imap.rss_dbm(node, ap)
            if rss > best_rss:
                best = node
                best_rss = rss
        return best

    def _add_rop_duty(self, trigger_node: int, slot: RelativeSlot, ap: int,
                      duties: Dict[Tuple[int, int], _DutyBuilder]) -> None:
        if trigger_node == ap:
            return  # self-timed; no over-the-air signature needed
        duty = duties.setdefault(
            (trigger_node, slot.index),
            _DutyBuilder(node=trigger_node, slot=slot.index),
        )
        duty.rop_polls.add(ap)

    def _flag_rop(self, slot: RelativeSlot,
                  duties: Dict[Tuple[int, int], _DutyBuilder]) -> None:
        """Mark every duty of ``slot`` with the ROP flag: next-slot
        senders must wait one polling slot before transmitting."""
        for (node, slot_idx), duty in duties.items():
            if slot_idx == slot.index:
                duty.rop_flag = True
