"""Candidate reference sets and greedy cycle-free graph decoding.

Every mention contributes slots: each mention a reference-timex slot, each
event additionally a reference-event slot. A scorer assigns one score per
candidate per slot; decoding fills slots one at a time, always taking the
highest-ranked candidate that keeps the growing graph acyclic. Meta parents
(DCT, ROOT, NO_EVENT) can never close a cycle, so decoding is total.

Layouts and decoded graphs use the document's own ``Document.slots``, as
does graph_from_json's typed pass on a prediction whose edges name them in
order; any prediction the typed pass refuses is read again edge by edge, the
path that words every error. Either way the map goes through validate_graph.
"""

from __future__ import annotations

from array import array
from collections.abc import Mapping
from dataclasses import dataclass
from operator import eq, itemgetter
from sys import intern
from typing import NamedTuple

import numpy as np

from .corpus import (
    CHAIN_SLOTS,
    MENTION_KINDS,
    META_NODES,
    PARENT_RULES,
    Document,
    Slot,
    chain_reaches,
    edge_violations,
    intern_str,
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


# kind -> slot -> (meta parents as META_NODES rows in a C int array, parent kind)
_LAYOUT_RULES = {kind: {slot: (array("i", map(META_NODES.index, metas)), parent_kind)
                        for (k, slot), (metas, parent_kind) in PARENT_RULES.items() if k == kind}
                 for kind in MENTION_KINDS}


def slot_instances(doc: Document) -> list[Slot]:
    """All slots of a document in canonical order, ``doc.slots`` as a list:
    children in document order, an event's reference-timex slot first."""
    return list(doc.slots)


class CandidateLayout(NamedTuple):
    """The legal parents of every slot of one document, as flat arrays.

    ``slots`` are ``doc.slots``. ``names`` holds the META_NODES, then the
    mention ids in document order. Slot i's candidates are
    positions ``starts[i]`` up to the next slot's start (or the end) of
    ``cand``, and candidate k is ``names[cand[k]]``, of slot ``cand_slot[k]``.
    ``slot_child[i]`` is slot i's child as a mention row, its position in
    document order. A scorer's score vector follows the same positions.
    """

    doc: Document
    slots: tuple[Slot, ...]
    names: tuple[str, ...]
    starts: np.ndarray
    cand: np.ndarray
    cand_slot: np.ndarray
    slot_child: np.ndarray

    def span(self, i: int) -> slice:
        """The positions of slot i's candidates."""
        end = self.starts[i + 1] if i + 1 < len(self.starts) else len(self.cand)
        return slice(self.starts[i], end)


def candidate_layout(doc: Document) -> CandidateLayout:
    """The candidates of every slot of ``doc.slots`` under PARENT_RULES.

    A slot's meta parents come first, in PARENT_RULES order, then its mention
    parents in document order. The candidate rows grow in one C int buffer
    that ``cand`` views, so no Python int is made per candidate.
    """
    mentions = doc.ordered_mentions()
    n_meta = len(META_NODES)
    rows = {kind: array("i", [n_meta + i for i, m in enumerate(mentions) if m.kind == kind])
            for kind in MENTION_KINDS}
    seen = dict.fromkeys(MENTION_KINDS, 0)  # mentions of each kind before this one
    starts: list[int] = []
    slot_child: list[int] = []
    cand = array("i")
    for row, (m, own) in enumerate(zip(mentions, doc.mention_slots)):
        i = seen[m.kind]
        seen[m.kind] = i + 1
        rules = _LAYOUT_RULES[m.kind]
        for slot in own:
            metas, kind = rules[slot[1]]
            starts.append(len(cand))
            slot_child.append(row)
            cand += metas
            parents = rows[kind]
            if kind == m.kind:
                cand += parents[:i]
                cand += parents[i + 1:]
            else:
                cand += parents
    starts_array = np.array(starts, dtype=np.int32)
    return CandidateLayout(doc, doc.slots, META_NODES + tuple(m.id for m in mentions),
                           starts_array, np.frombuffer(cand, dtype=np.intc),
                           slot_of(starts_array, len(cand)), np.array(slot_child, dtype=np.int32))


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
        slot = layout.slots[layout.cand_slot[k]]
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
    """True iff adding child -> parent closes a directed cycle, for legal edges:
    the test greedy_positions makes on mention rows, stated on names.

    The new edge cycles exactly when walking up the parent's own chain (the
    edges of its kind's CHAIN_SLOTS slot) reaches the child:
    corpus.chain_reaches, run by edge_violations on each legal chain edge.
    A walk longer than the edges allow means a cycle, and raises GraphError.
    """
    if parent in META_NODES:
        return False
    chain = CHAIN_SLOTS[doc.mention(parent).kind]

    def chain_parent(node: str) -> str | None:
        above = edges.get((node, chain))  # a Slot hashes and compares as its tuple
        return None if above in META_NODES else above

    reaches = chain_reaches(chain_parent, parent, child, len(edges) + 2)
    if reaches is None:
        raise GraphError(f"document {doc.id}: the {chain} edges above {parent} "
                         f"already form a cycle")
    return reaches


def slot_of(starts: np.ndarray, n_cand: int) -> np.ndarray:
    """The slot of each of n_cand candidates, given each slot's first one:
    candidate_layout's ``cand_slot``, which every index and run carries on."""
    # each slot's candidate count; np.diff with append= costs several times this
    counts = np.concatenate((starts[1:], [n_cand])) - starts
    return np.repeat(np.arange(len(starts), dtype=np.int32), counts)


def first_maxima(score: np.ndarray, starts: np.ndarray,
                 cand_slot: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each slot's top score and the position of its first maximum, for
    slots laid end to end: the first of its candidates (``starts[i]`` up to
    the next start) to score the slot's top score. ``cand_slot`` is each
    candidate's slot, a CandidateLayout's column. Every slot needs a
    candidate, and every score must be finite."""
    top = np.maximum.reduceat(score, starts)
    hits = np.flatnonzero(score == top[cand_slot])
    return top, hits[np.searchsorted(hits, starts)]


def _ranked(score: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Positions lo:hi by descending score, ties in position order."""
    return lo + np.argsort(-score[lo:hi], kind="stable")


def greedy_positions(score: np.ndarray, starts: np.ndarray, cand_slot: np.ndarray,
                     slot_child: np.ndarray, cand: np.ndarray,
                     order: str = "score") -> np.ndarray:
    """The position of the candidate greedy decoding gives each slot.

    The arrays are a CandidateLayout's, of one document or several laid end
    to end; every score must be finite. Slots are visited by descending top
    score (order="score", ties in slot order) or in slot order, and each
    takes the first candidate in _ranked order that closes no cycle. Only a
    mention's last slot, its chain slot (a timex's timex_ref, an event's
    event_ref), can close one, so the others take their first maximum, and
    a chain slot ranks its candidates only when its first maximum closes a
    cycle on the mention rows' parent map, which a meta parent always ends.
    Documents share no mention row, so a run decodes as its documents alone.
    """
    if order not in DECODE_ORDERS:
        raise GraphError(f"unknown decode order {order!r}")
    top, chosen = first_maxima(score, starts, cand_slot)
    n_meta = len(META_NODES)
    child, parent = slot_child.tolist(), cand[chosen].tolist()
    visit = (np.argsort(-top, kind="stable").tolist() if order == "score"
             else range(len(child)))
    up = [-1] * len(child)  # each mention row's chain parent so far, -1 for none

    def closes(row: int, node: int) -> bool:
        while node >= 0:
            if node == row:
                return True
            node = up[node]
        return False

    last = len(child) - 1
    for i in visit:
        row = child[i]
        if i < last and child[i + 1] == row:
            continue  # not its mention's chain slot
        p = parent[i] - n_meta  # a mention row, negative for a meta node
        if p >= 0 and closes(row, p):
            end = starts[i + 1] if i < last else len(score)
            ranked = _ranked(score, starts[i], end)[1:]
            for k, p in zip(ranked.tolist(), (cand[ranked] - n_meta).tolist()):
                if not closes(row, p):
                    chosen[i] = k
                    break
        up[row] = p
    return chosen


def greedy_decode(doc: Document, scores: SlotScores,
                  order: str = "score") -> TemporalDependencyGraph:
    """Fill every slot with its best cycle-free candidate, by greedy_positions.

    ``scores`` must have been built over candidate_layout of this very
    document object.
    """
    layout = scores.layout
    if layout.doc is not doc:
        raise GraphError(f"document {doc.id}: the scores were built for another "
                         f"document object ({layout.doc.id})")
    chosen = greedy_positions(scores.score, layout.starts, layout.cand_slot,
                              layout.slot_child, layout.cand, order)
    return TemporalDependencyGraph(doc.id, dict(zip(
        layout.slots, map(layout.names.__getitem__, layout.cand[chosen].tolist()))))


def validate_graph(graph: TemporalDependencyGraph, doc: Document) -> list[str]:
    """The violations corpus.edge_violations finds in the graph's edges."""
    return edge_violations(doc, graph.edges)


def graph_to_json(graph: TemporalDependencyGraph, doc: Document) -> dict:
    """Serialize a decoded graph with edges in canonical (``doc.slots``)
    order: each slot of doc the graph holds, whatever its parent."""
    edges = graph.edges
    return {"id": graph.doc_id,
            "edges": [{"child": slot[0], "slot": slot[1], "parent": edges[slot]}
                      for slot in doc.slots if slot in edges]}


_CHILD_SLOT, _PARENT = itemgetter("child", "slot"), itemgetter("parent")


def _typed_edges(obj: dict, doc: Document) -> dict[Slot, str] | None:
    """A prediction's edge map built by direct subscripts, or None unless ``id`` is
    doc's own string, every edge an object of three strings and no slot repeats.
    Edges naming ``doc.slots`` in order are keyed by them, others by new Slots
    (tuple.__new__ skips NamedTuple's __new__); ``intern`` takes an exact str only.
    A missing field, or an edge that is no object, raises KeyError or TypeError."""
    links, doc_id, slots = obj["edges"], obj["id"], doc.slots
    if type(links) is not list or type(doc_id) is not str or doc_id != doc.id:
        return None
    if len(links) == len(slots) and all(map(eq, map(_CHILD_SLOT, links), slots)):
        edges = dict(zip(slots, map(intern, map(_PARENT, links))))
    else:
        edges = {tuple.__new__(Slot, (intern(e["child"]), intern(e["slot"]))):
                 intern(e["parent"]) for e in links}
    return edges if len(edges) == len(links) else None


def _edges_by_field(obj: dict, doc: Document) -> dict[Slot, str]:
    """A prediction's edge map read one edge at a time, then its ``id``, so
    that a field of the wrong JSON type raises FieldError naming it, a
    repeated slot or another document's id raises GraphError, and an
    unhashable name or a missing one raises TypeError or KeyError."""
    edges: dict[Slot, str] = {}
    for e in json_field(obj, "edges", list, "", dict):
        slot = Slot(intern_str(e["child"]), intern_str(e["slot"]))
        if slot in edges:
            raise GraphError(f"document {doc.id}: duplicate edge for {slot}")
        edges[slot] = intern_str(e["parent"])
    doc_id = json_field(obj, "id", str)
    if doc_id != doc.id:
        raise GraphError(f"document {doc.id}: the prediction is for document {doc_id}")
    return edges


def graph_from_json(obj: dict, doc: Document) -> TemporalDependencyGraph:
    """Read a graph_to_json object back and validate it against doc.

    The edge map is built by one typed pass (_typed_edges) when every edge
    is an object of three strings, no slot repeats and ``id`` is doc's own
    string; any other object is read again one edge at a time
    (_edges_by_field), the path that words every error. A field of the
    wrong JSON type raises FieldError, and an ``id`` other than doc's raises
    GraphError naming both. Edge names are left to validate_graph, which
    admits only doc's string ids and the meta nodes; its violations raise
    one GraphError naming them all, as does a missing or unhashable name.
    String names are interned, as a parsed corpus's are.
    """
    try:
        edges = _typed_edges(obj, doc)
    except (KeyError, TypeError):
        edges = None
    try:
        if edges is None:
            edges = _edges_by_field(obj, doc)
        graph = TemporalDependencyGraph(doc_id=doc.id, edges=edges)
        violations = validate_graph(graph, doc)
    except (KeyError, TypeError) as exc:
        raise GraphError(f"document {doc.id}: malformed prediction "
                         f"({type(exc).__name__}: {exc})") from None
    if violations:
        raise GraphError(f"document {doc.id}: " + "; ".join(violations))
    return graph
