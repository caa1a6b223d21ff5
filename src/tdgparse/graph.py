"""Candidate reference sets and greedy cycle-free graph decoding.

Every mention contributes slots: each mention a reference-timex slot, each
event additionally a reference-event slot. A scorer assigns one score per
candidate per slot; decoding fills slots one at a time, always taking the
highest-ranked candidate that keeps the growing graph acyclic. Meta parents
(DCT, ROOT, NO_EVENT) can never close a cycle, so decoding is total.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .corpus import (
    DCT,
    EVENT,
    EVENT_REF,
    META_NODES,
    NO_EVENT,
    ROOT,
    TIMEX,
    TIMEX_REF,
    Document,
    find_cycle,
)


class GraphError(Exception):
    """A decoded or supplied graph violates a structural invariant."""


class Slot(NamedTuple):
    """One reference decision: the child mention and which slot is being filled."""

    child: str
    slot: str


@dataclass
class ScoredCandidates:
    """Scores for every candidate of one slot.

    ranked() lists candidates by descending score; equal scores keep their
    candidate_set order, so ranking is deterministic given the score vector.
    Scores must be finite.
    """

    slot: Slot
    candidates: list[str]
    scores: list[float]

    def __post_init__(self) -> None:
        if len(self.candidates) != len(self.scores):
            raise GraphError(
                f"slot {self.slot}: {len(self.candidates)} candidates but "
                f"{len(self.scores)} scores"
            )
        if len(set(self.candidates)) != len(self.candidates):
            raise GraphError(f"slot {self.slot}: duplicate candidates")
        if not all(map(math.isfinite, self.scores)):
            bad = next(c for c, v in zip(self.candidates, self.scores)
                       if not math.isfinite(v))
            raise GraphError(f"slot {self.slot}: candidate {bad} has a non-finite score")

    def ranked(self) -> list[tuple[str, float]]:
        return sorted(zip(self.candidates, self.scores), key=lambda cs: -cs[1])


@dataclass
class TemporalDependencyGraph:
    """A full assignment of parents to slots for one document."""

    doc_id: str
    edges: dict[Slot, str]

    def parent(self, child: str, slot: str) -> str:
        return self.edges[Slot(child, slot)]


# (child kind, slot) -> (meta parents, parent kind): a legal parent of the slot
# is one of those metas, or a mention of that kind other than the child.
PARENT_RULES: dict[tuple[str, str], tuple[tuple[str, ...], str]] = {
    (TIMEX, TIMEX_REF): ((DCT, ROOT), TIMEX),
    (EVENT, TIMEX_REF): ((DCT,), TIMEX),
    (EVENT, EVENT_REF): ((NO_EVENT,), EVENT),
}
# the slots of each mention kind, in canonical order
KIND_SLOTS: dict[str, tuple[str, ...]] = {
    kind: tuple(slot for (k, slot) in PARENT_RULES if k == kind) for kind in (TIMEX, EVENT)
}
# each kind's slots as (slot, meta parents as a list, parent kind)
_KIND_RULES = {kind: [(slot, list(PARENT_RULES[kind, slot][0]), PARENT_RULES[kind, slot][1])
                      for slot in slots] for kind, slots in KIND_SLOTS.items()}

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


def candidate_sets(doc: Document) -> dict[Slot, list[str]]:
    """Legal parents of every slot under PARENT_RULES, keyed in slot_instances order.

    The slot's meta parents come first, in PARENT_RULES order, then its
    mention parents in document order. Every slot gets a list of its own.
    """
    mentions = doc.ordered_mentions()
    of_kind = {kind: [m.id for m in mentions if m.kind == kind] for kind in KIND_SLOTS}
    seen = dict.fromkeys(KIND_SLOTS, 0)  # mentions of each kind before this one
    sets: dict[Slot, list[str]] = {}
    for m in mentions:
        i = seen[m.kind]
        seen[m.kind] = i + 1
        for slot, metas, kind in _KIND_RULES[m.kind]:
            ids = of_kind[kind]
            sets[_new_tuple(Slot, (m.id, slot))] = (
                metas + ids[:i] + ids[i + 1:] if kind == m.kind else metas + ids)
    return sets


def _name_table(doc: Document) -> tuple[str, ...]:
    """The META_NODES, then the mention ids in document order."""
    return META_NODES + tuple(m.id for m in doc.ordered_mentions())


class SlotScores(Mapping):
    """The scores of every slot of one document, held as flat arrays.

    Slot i is ``slots[i]``, in slot_instances order. Its candidates are
    positions ``starts[i]`` up to the next slot's start (or the end), in
    candidate_sets order; candidate k is ``names[cand[k]]`` and scores
    ``score[k]``, where ``names`` holds the META_NODES and then the mention
    ids in document order. The scorer builds one from its cached index, whose
    candidates come from candidate_sets(doc). Reading a slot builds its
    ScoredCandidates; greedy_decode reads the arrays.
    """

    __slots__ = ("doc", "slots", "names", "starts", "cand", "score", "_position")

    def __init__(self, doc: Document, starts: np.ndarray, cand: np.ndarray,
                 score: np.ndarray):
        self.doc = doc
        self.slots = slot_instances(doc)
        self.names = _name_table(doc)
        if len(starts) != len(self.slots) or len(cand) != len(score):
            raise GraphError(f"document {doc.id}: {len(starts)} slot starts for "
                             f"{len(self.slots)} slots, {len(score)} scores for "
                             f"{len(cand)} candidates")
        self.starts = starts
        self.cand = cand
        self.score = score
        self._position: dict[Slot, int] | None = None

    def __getitem__(self, slot: Slot) -> ScoredCandidates:
        if self._position is None:
            self._position = {s: i for i, s in enumerate(self.slots)}
        i = self._position[slot]
        start = self.starts[i]
        end = self.starts[i + 1] if i + 1 < len(self.starts) else len(self.score)
        return ScoredCandidates(self.slots[i],
                                [self.names[c] for c in self.cand[start:end].tolist()],
                                self.score[start:end].tolist())

    def __iter__(self):
        return iter(self.slots)

    def __len__(self) -> int:
        return len(self.slots)


def candidate_set(doc: Document, slot: Slot) -> list[str]:
    """Legal parents of one slot, as candidate_sets lists them."""
    sets = candidate_sets(doc)
    if slot not in sets:
        kind = doc.mention(slot.child).kind  # KeyError for an unknown mention
        raise GraphError(f"{kind} {slot.child} has no {slot.slot} slot")
    return sets[slot]


def would_create_cycle(child: str, parent: str, edges: dict[Slot, str],
                       doc: Document) -> bool:
    """True iff adding child -> parent closes a directed cycle.

    Legal edges form two functional graphs, timex -> timex through timex_ref
    slots and event -> event through event_ref slots, each ending in meta
    nodes; an event -> timex edge never lies on a cycle. So the new edge
    cycles exactly when walking up the parent's own chain reaches the child.
    The walk is a complete check as long as every edge is legal, and
    greedy_decode only proposes legal edges: a SlotScores is built from
    candidate_sets, and _check_scores compares any other mapping with it. A
    walk longer than the edges allow means they already hold a cycle, which
    greedy_decode never builds, and raises GraphError.
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


def _check_scores(doc: Document, scores: Mapping[Slot, ScoredCandidates]) -> list[Slot]:
    sets = candidate_sets(doc)
    missing = [s for s in sets if s not in scores]
    if missing:
        raise GraphError(
            f"document {doc.id}: no scores for slots {missing[:3]}"
            + ("..." if len(missing) > 3 else "")
        )
    extra = scores.keys() - sets.keys()
    if extra:
        raise GraphError(f"document {doc.id}: scores for unknown slots {sorted(extra, key=str)[:3]}")
    for slot, expected in sets.items():
        got = scores[slot].candidates
        if got != expected:
            raise GraphError(
                f"document {doc.id}, slot {slot}: candidates {got} "
                f"do not match the candidate set {expected}"
            )
    return list(sets)


def _flat_scores(doc: Document, scores: Mapping[Slot, ScoredCandidates]) -> SlotScores:
    """The scores of doc's slots as a checked SlotScores.

    A SlotScores must have been built for this very document object; any
    other mapping is checked slot by slot against candidate_sets(doc) and
    laid out the same way. Every score must be finite.
    """
    if isinstance(scores, SlotScores):
        if scores.doc is not doc:
            raise GraphError(f"document {doc.id}: the scores were built for another "
                             f"document object ({scores.doc.id})")
        flat = scores
    else:
        scored = [scores[slot] for slot in _check_scores(doc, scores)]
        row = {name: i for i, name in enumerate(_name_table(doc))}
        flat = SlotScores(doc, np.cumsum([0] + [len(sc.candidates) for sc in scored])[:-1],
                          np.array([row[c] for sc in scored for c in sc.candidates],
                                   dtype=np.int64),
                          np.array([v for sc in scored for v in sc.scores], dtype=np.float64))
    finite = np.isfinite(flat.score)
    if not finite.all():
        k = int(np.argmin(finite))
        slot = flat.slots[np.searchsorted(flat.starts, k, side="right") - 1]
        raise GraphError(f"document {doc.id}, slot {slot}: candidate "
                         f"{flat.names[flat.cand[k]]} has a non-finite score")
    return flat


def greedy_decode(doc: Document, scores: Mapping[Slot, ScoredCandidates],
                  order: str = "score") -> TemporalDependencyGraph:
    """Fill every slot with its best cycle-free candidate, one slot at a time.

    order="score" visits slots by descending top-candidate score (stable, so
    ties keep canonical order); order="document" visits them in canonical
    order. Each slot takes the first candidate in rank order (descending
    score, ties in candidate order) that does not close a cycle with the
    edges chosen so far; a meta candidate is always available, so decoding
    cannot fail. Every slot's top candidate, its first maximum, comes from
    the flat score arrays at once; only a slot whose top candidate closes a
    cycle has its candidates ranked.
    """
    if order not in ("score", "document"):
        raise GraphError(f"unknown decode order {order!r}")
    flat = _flat_scores(doc, scores)
    edges: dict[Slot, str] = {}
    if not flat.slots:
        return TemporalDependencyGraph(doc_id=doc.id, edges=edges)
    score, cand, names = flat.score, flat.cand, flat.names
    top = np.maximum.reduceat(score, flat.starts)
    values, starts = score.tolist(), flat.starts.tolist()
    ends = starts[1:] + [len(values)]
    # each slot's first maximum: the first score from its start that equals it
    first = [values.index(t, start) for t, start in zip(top.tolist(), starts)]
    top_parent = [names[c] for c in cand[first].tolist()]
    visit = (np.argsort(-top, kind="stable").tolist() if order == "score"
             else range(len(starts)))
    for i in visit:
        slot = flat.slots[i]
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


def gold_graph(doc: Document) -> TemporalDependencyGraph:
    """The gold assignment as a graph (requires a validated document)."""
    edges: dict[Slot, str] = {}
    for e in doc.gold_edges:
        edges[Slot(e.child, e.slot)] = e.parent
    graph = TemporalDependencyGraph(doc_id=doc.id, edges=edges)
    violations = validate_graph(graph, doc)
    if violations:
        raise GraphError(f"document {doc.id}: gold edges invalid: {violations[0]}")
    return graph


def validate_graph(graph: TemporalDependencyGraph, doc: Document) -> list[str]:
    """Check totality, legality under PARENT_RULES, and acyclicity of a full graph.

    Violations list the unfilled slots in slot_instances order, then the
    illegal edges in edge order, then one cycle.
    """
    edges = graph.edges
    kind_of = {m.id: m.kind for m in doc.mentions}
    violations = [f"slot {Slot(m.id, slot)} is unfilled" for m in doc.ordered_mentions()
                  for slot in KIND_SLOTS[m.kind] if (m.id, slot) not in edges]
    for slot, parent in edges.items():
        child, name = slot
        rule = PARENT_RULES.get((kind_of.get(child), name))
        if rule is None:
            violations.append(f"slot {slot} does not belong to document {doc.id}")
        elif parent not in rule[0] and (parent == child or kind_of.get(parent) != rule[1]):
            violations.append(f"slot {slot}: parent {parent} is not a legal candidate")
    cycle = find_cycle([m.id for m in doc.mentions],
                       [(child, parent) for (child, _), parent in edges.items()])
    if cycle is not None:
        violations.append("edges form a cycle: " + " -> ".join(cycle))
    return violations


def graph_to_json(graph: TemporalDependencyGraph, doc: Document) -> dict:
    """Serialize a decoded graph with edges in canonical slot order."""
    edges = [{"child": s.child, "slot": s.slot, "parent": graph.edges[s]}
             for s in slot_instances(doc) if s in graph.edges]
    return {"id": graph.doc_id, "edges": edges}


def graph_from_json(obj: dict, doc: Document) -> TemporalDependencyGraph:
    """Read a graph_to_json object back and validate it against doc.

    A missing field or a wrongly typed value raises GraphError, as does any
    violation validate_graph finds.
    """
    edges: dict[Slot, str] = {}
    try:
        for e in obj["edges"]:
            slot = _new_tuple(Slot, (str(e["child"]), str(e["slot"])))
            if slot in edges:
                raise GraphError(f"document {doc.id}: duplicate edge for {slot}")
            edges[slot] = str(e["parent"])
        graph = TemporalDependencyGraph(doc_id=str(obj["id"]), edges=edges)
    except (KeyError, TypeError) as exc:
        raise GraphError(f"document {doc.id}: malformed prediction "
                         f"({type(exc).__name__}: {exc})") from None
    violations = validate_graph(graph, doc)
    if violations:
        raise GraphError(f"document {doc.id}: {violations[0]}")
    return graph
