"""Candidate reference sets and greedy cycle-free graph decoding.

Every mention contributes slots: each mention a reference-timex slot, each
event additionally a reference-event slot. A scorer assigns one score per
candidate per slot; decoding fills slots one at a time, always taking the
highest-ranked candidate that keeps the growing graph acyclic. Meta parents
(DCT, ROOT, NO_EVENT) can never close a cycle, so decoding is total.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from sys import intern
from typing import NamedTuple

import numpy as np

from .corpus import (
    EVENT_REF,
    KIND_SLOTS,
    META_NODES,
    PARENT_RULES,
    TIMEX,
    TIMEX_REF,
    Document,
    Slot,
    edge_violations,
    json_field,
)


class GraphError(Exception):
    """A decoded or supplied graph violates a structural invariant."""


DECODE_ORDERS = ("score", "document")


class ScoredCandidates(NamedTuple):
    """The scores of one slot's candidates, as a SlotScores reads them out.

    ranked() lists candidates by descending score; equal scores keep their
    candidate order, so ranking is deterministic given the score vector.
    """

    slot: Slot
    candidates: list[str]
    scores: list[float]

    def ranked(self) -> list[tuple[str, float]]:
        return sorted(zip(self.candidates, self.scores), key=lambda cs: -cs[1])


@dataclass
class TemporalDependencyGraph:
    """A full assignment of parents to slots for one document."""

    doc_id: str
    edges: dict[Slot, str]


# each kind's slots as (slot, meta parents as rows of META_NODES, parent kind)
_KIND_RULES = {kind: [(slot, [META_NODES.index(m) for m in PARENT_RULES[kind, slot][0]],
                       PARENT_RULES[kind, slot][1]) for slot in slots]
               for kind, slots in KIND_SLOTS.items()}

# tuple.__new__(Slot, (child, slot)) builds a Slot without the Python-level
# __new__ that NamedTuple generates, on paths that make one per slot
_new_tuple = tuple.__new__


def slot_instances(doc: Document) -> list[Slot]:
    """All slots of a document in canonical order.

    Children follow document order; for an event the reference-timex slot
    precedes the reference-event slot.
    """
    return [_new_tuple(Slot, (m.id, slot))
            for m in doc.ordered_mentions() for slot in KIND_SLOTS[m.kind]]


class CandidateLayout(NamedTuple):
    """The legal parents of every slot of one document, as flat arrays.

    ``slots`` are in slot_instances order. ``names`` holds the META_NODES,
    then the mention ids in document order. Slot i's candidates are
    positions ``starts[i]`` up to the next slot's start (or the end) of
    ``cand``, and candidate k is ``names[cand[k]]``. A scorer's score vector
    follows the same positions.
    """

    doc: Document
    slots: list[Slot]
    names: tuple[str, ...]
    starts: np.ndarray
    cand: np.ndarray

    def span(self, i: int) -> slice:
        """The positions of slot i's candidates."""
        end = self.starts[i + 1] if i + 1 < len(self.starts) else len(self.cand)
        return slice(self.starts[i], end)


def candidate_layout(doc: Document) -> CandidateLayout:
    """The candidates of every slot under PARENT_RULES.

    A slot's meta parents come first, in PARENT_RULES order, then its mention
    parents in document order.
    """
    mentions = doc.ordered_mentions()
    n_meta = len(META_NODES)
    rows = {kind: [n_meta + i for i, m in enumerate(mentions) if m.kind == kind]
            for kind in KIND_SLOTS}
    seen = dict.fromkeys(KIND_SLOTS, 0)  # mentions of each kind before this one
    slots: list[Slot] = []
    starts: list[int] = []
    cand: list[int] = []
    for m in mentions:
        i = seen[m.kind]
        seen[m.kind] = i + 1
        for slot, metas, kind in _KIND_RULES[m.kind]:
            slots.append(_new_tuple(Slot, (m.id, slot)))
            starts.append(len(cand))
            cand += metas
            cand += rows[kind][:i] + rows[kind][i + 1:] if kind == m.kind else rows[kind]
    return CandidateLayout(doc, slots, META_NODES + tuple(m.id for m in mentions),
                           np.array(starts, dtype=np.int32), np.array(cand, dtype=np.int32))


def candidate_set(doc: Document, slot: Slot) -> list[str]:
    """Legal parents of one slot, in candidate_layout order."""
    layout = candidate_layout(doc)
    if slot not in layout.slots:
        kind = doc.mention(slot.child).kind  # KeyError for an unknown mention
        raise GraphError(f"{kind} {slot.child} has no {slot.slot} slot")
    span = layout.span(layout.slots.index(slot))
    return [layout.names[c] for c in layout.cand[span].tolist()]


def require_finite(layout: CandidateLayout, score: np.ndarray) -> None:
    """Raise GraphError naming the slot and candidate of the first non-finite score."""
    finite = np.isfinite(score)
    if not finite.all():
        k = int(np.argmin(finite))
        slot = layout.slots[np.searchsorted(layout.starts, k, side="right") - 1]
        raise GraphError(f"document {layout.doc.id}, slot {slot}: candidate "
                         f"{layout.names[layout.cand[k]]} has a non-finite score")


class SlotScores(Mapping):
    """One score per candidate of a CandidateLayout, read as a slot mapping.

    ``score[k]`` scores the layout's candidate k. Every score must be finite.
    Reading a slot builds its ScoredCandidates; greedy_decode reads the
    arrays.
    """

    __slots__ = ("layout", "score", "_position")

    def __init__(self, layout: CandidateLayout, score: np.ndarray):
        if not isinstance(layout, CandidateLayout):
            raise GraphError(f"scores need a CandidateLayout, not {type(layout).__name__}")
        if len(score) != len(layout.cand):
            raise GraphError(f"document {layout.doc.id}: {len(score)} scores for "
                             f"{len(layout.cand)} candidates")
        require_finite(layout, score)
        self.layout = layout
        self.score = score
        self._position: dict[Slot, int] | None = None

    def __getitem__(self, slot: Slot) -> ScoredCandidates:
        if self._position is None:
            self._position = {s: i for i, s in enumerate(self.layout.slots)}
        i = self._position[slot]
        span = self.layout.span(i)
        return ScoredCandidates(self.layout.slots[i],
                                [self.layout.names[c] for c in self.layout.cand[span].tolist()],
                                self.score[span].tolist())

    def __iter__(self):
        return iter(self.layout.slots)

    def __len__(self) -> int:
        return len(self.layout.slots)


def would_create_cycle(child: str, parent: str, edges: dict[Slot, str],
                       doc: Document) -> bool:
    """True iff adding child -> parent closes a directed cycle.

    Legal edges form two functional graphs, timex -> timex through timex_ref
    slots and event -> event through event_ref slots, each ending in meta
    nodes; an event -> timex edge never lies on a cycle. So the new edge
    cycles exactly when walking up the parent's own chain reaches the child.
    The walk is a complete check as long as every edge is legal, and
    greedy_decode only proposes legal edges: it takes only a SlotScores over
    candidate_layout of the very document it decodes. A walk longer than the
    edges allow means they already hold a cycle, which greedy_decode never
    builds, and raises GraphError.
    """
    if parent in META_NODES:
        return False
    chain = TIMEX_REF if doc.mention(parent).kind == TIMEX else EVENT_REF
    node = parent
    for _ in range(len(edges) + 2):
        if node == child:
            return True
        node = edges.get((node, chain))  # a Slot hashes and compares as its tuple
        if node is None or node in META_NODES:
            return False
    raise GraphError(f"document {doc.id}: the {chain} edges above {parent} "
                     f"already form a cycle")


def greedy_decode(doc: Document, scores: SlotScores,
                  order: str = "score") -> TemporalDependencyGraph:
    """Fill every slot with its best cycle-free candidate, one slot at a time.

    ``scores`` must have been built over candidate_layout of this very
    document object. order="score" visits slots by descending top-candidate
    score (stable, so ties keep canonical order); order="document" visits
    them in canonical order. Each slot takes the first candidate in rank
    order (descending score, ties in candidate order) that does not close a
    cycle with the edges chosen so far; a meta candidate is always
    available, so decoding cannot fail. Every slot's top candidate, its
    first maximum, comes from the flat score arrays at once; only a slot
    whose top candidate closes a cycle has its candidates ranked.
    """
    if order not in DECODE_ORDERS:
        raise GraphError(f"unknown decode order {order!r}")
    layout = scores.layout
    if layout.doc is not doc:
        raise GraphError(f"document {doc.id}: the scores were built for another "
                         f"document object ({layout.doc.id})")
    edges: dict[Slot, str] = {}
    if not layout.slots:
        return TemporalDependencyGraph(doc_id=doc.id, edges=edges)
    score, cand, names = scores.score, layout.cand, layout.names
    top = np.maximum.reduceat(score, layout.starts)
    values, starts = score.tolist(), layout.starts.tolist()
    ends = starts[1:] + [len(values)]
    # each slot's first maximum: the first score from its start that equals it
    # (first_maxima's arrays took 10-25% longer per document here)
    first = [values.index(t, start) for t, start in zip(top.tolist(), starts)]
    top_parent = [names[c] for c in cand[first].tolist()]
    visit = (np.argsort(-top, kind="stable").tolist() if order == "score"
             else range(len(starts)))
    for i in visit:
        slot = layout.slots[i]
        parent = top_parent[i]
        if would_create_cycle(slot.child, parent, edges, doc):
            start, end = starts[i], ends[i]
            ranking = start + np.argsort(-score[start:end], kind="stable")
            for c in cand[ranking[1:]].tolist():
                if not would_create_cycle(slot.child, names[c], edges, doc):
                    parent = names[c]
                    break
            else:  # pragma: no cover - meta candidate is always cycle-free
                raise GraphError(f"document {doc.id}: no feasible candidate for {slot}")
        edges[slot] = parent
    return TemporalDependencyGraph(doc_id=doc.id, edges=edges)


def slot_of(starts: np.ndarray, n_cand: int) -> np.ndarray:
    """The slot of each of n_cand candidates, given each slot's first one."""
    # each slot's candidate count; np.diff with append= costs several times this
    counts = np.concatenate((starts[1:], [n_cand])) - starts
    return np.repeat(np.arange(len(starts)), counts)


def first_maxima(score: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """The position of each slot's first maximum, for slots laid end to end.

    Slot i's candidates are positions ``starts[i]`` up to the next start (or
    the end) of ``score``; its first maximum is the first of them that
    scores the slot's top score, the candidate greedy_decode tries first.
    Every slot needs at least one candidate, and every score must be finite.
    """
    top = np.maximum.reduceat(score, starts)
    hits = np.flatnonzero(score == top[slot_of(starts, len(score))])
    return hits[np.searchsorted(hits, starts)]


def chain_cycles(parent: np.ndarray) -> np.ndarray:
    """Which mentions' chains, under the first-maximum graph, hold a cycle.

    A mention's chain slot is the one whose parents are mentions of its own
    kind (a timex's timex_ref, an event's event_ref), its last slot in
    KIND_SLOTS order; only edges through chain slots lie on cycles.
    ``parent[i]`` is the mention that mention i's chain slot takes at its
    first maximum, as a row of ``parent``, or ``len(parent)`` for a meta
    parent; rows may span many documents. The result is true for each
    mention whose chain never reaches a meta parent: it lies on a cycle or
    leads into one. Pointer doubling finds them: after k rounds, ``hop[i]``
    is the mention 2**k parents above i, with the meta parents as one
    absorbing sink; an acyclic chain reaches the sink in at most
    ``len(parent)`` steps, so enough rounds for 2**k >= len(parent) leave
    only the cyclic mentions off it.

    This is the rule that lets training.decode_run skip greedy_decode for
    every document without a cycle. Suppose a
    document's first-maximum graph, each slot taking its first maximum, has
    no cycle. Then greedy_decode returns exactly that graph, in either
    order: each slot tries its first maximum first, and the edges chosen
    before it are first maxima too, a subset of an acyclic edge set, which
    no further edge of the same set can close into a cycle. An edge from an
    event's timex_ref slot ends in a timex, whose chain never leads back to
    an event, so only the timex and event chains need testing. Conversely,
    greedy_decode never builds a cycle, so a document with one decodes to
    another graph and must be decoded slot by slot.
    """
    n = len(parent)
    hop = np.append(parent, n)
    for _ in range(max(n - 1, 0).bit_length()):
        hop = hop[hop]
    return hop[:n] != n


def validate_graph(graph: TemporalDependencyGraph, doc: Document) -> list[str]:
    """The violations corpus.edge_violations finds in the graph's edges."""
    return edge_violations(doc, graph.edges)


def graph_to_json(graph: TemporalDependencyGraph, doc: Document) -> dict:
    """Serialize a decoded graph with edges in canonical (slot_instances)
    order: each slot of doc the graph holds, whatever its parent."""
    edges = graph.edges
    return {"id": graph.doc_id,
            "edges": [{"child": m.id, "slot": slot, "parent": edges[m.id, slot]}
                      for m in doc.ordered_mentions() for slot in KIND_SLOTS[m.kind]
                      if (m.id, slot) in edges]}


def graph_from_json(obj: dict, doc: Document) -> TemporalDependencyGraph:
    """Read a graph_to_json object back and validate it against doc.

    A field of the wrong JSON type raises FieldError, and an ``id`` other
    than doc's raises GraphError naming both. Edge names are left to
    validate_graph, which admits only doc's string ids and the meta nodes;
    its violations raise one GraphError naming them all, as does a missing
    or unhashable name. String names are interned, as a parsed corpus's are.
    """
    edges: dict[Slot, str] = {}
    try:
        for e in json_field(obj, "edges", list, "", dict):
            child, name = e["child"], e["slot"]
            slot = _new_tuple(Slot, (intern(child) if type(child) is str else child,
                                     intern(name) if type(name) is str else name))
            if slot in edges:
                raise GraphError(f"document {doc.id}: duplicate edge for {slot}")
            parent = e["parent"]
            edges[slot] = intern(parent) if type(parent) is str else parent
        doc_id = json_field(obj, "id", str)
        if doc_id != doc.id:
            raise GraphError(f"document {doc.id}: the prediction is for document {doc_id}")
        graph = TemporalDependencyGraph(doc_id=doc.id, edges=edges)
        violations = validate_graph(graph, doc)
    except (KeyError, TypeError) as exc:
        raise GraphError(f"document {doc.id}: malformed prediction "
                         f"({type(exc).__name__}: {exc})") from None
    if violations:
        raise GraphError(f"document {doc.id}: " + "; ".join(violations))
    return graph
