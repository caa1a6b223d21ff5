"""Seeded property tests: graph validation and the analysis tables against
the references in tests/oracles.py, over random documents and corpora."""

import math
import random

from tdgparse.analysis import all_tables
from tdgparse.corpus import CONTENT_TYPES, Document, GoldEdge, find_cycle, validate_document
from tdgparse.graph import Slot, TemporalDependencyGraph, gold_graph, validate_graph
from tdgparse.synth import SynthConfig, generate_synthetic_corpus

from .oracles import (
    random_document,
    random_pred_graph,
    reference_find_cycle,
    reference_tables,
    reference_validate_graph,
)

N_DOCS = 400


def _ids(doc: Document, kind: str) -> list[str]:
    return [m.id for m in doc.mentions if m.kind == kind]


def _cycle(rng: random.Random, edges: dict, ids: list[str], slot: str) -> bool:
    """Point the slot of a few shuffled mentions of ids at the next, closing a loop."""
    if len(ids) < 2:
        return False
    ring = rng.sample(ids, rng.randint(2, len(ids)))
    for child, parent in zip(ring, ring[1:] + ring[:1]):
        edges[Slot(child, slot)] = parent
    return True


def _mutate(rng: random.Random, doc: Document, edges: dict) -> str | None:
    """Apply one random fault to edges in place; return its name, or None if it
    does not apply to this document."""
    timexes, events = _ids(doc, "timex"), _ids(doc, "event")
    slots = list(edges)
    kind = rng.choice(["unfilled", "foreign", "self", "wrong_kind", "wrong_meta",
                       "unknown_parent", "timex_cycle", "event_cycle"])
    if kind == "unfilled" and slots:
        del edges[rng.choice(slots)]
    elif kind == "foreign":
        child = rng.choice(timexes + ["ghost"])
        edges[Slot(child, rng.choice(["event_ref", "timex_ref", "bogus"]))] = rng.choice(
            ["DCT", "NO_EVENT"] + timexes + events)
    elif kind == "self" and slots:
        slot = rng.choice(slots)
        edges[slot] = slot.child
    elif kind == "wrong_kind":
        options = ([(Slot(t, "timex_ref"), e) for t in timexes for e in events]
                   + [(Slot(e, "timex_ref"), o) for e in events for o in events]
                   + [(Slot(e, "event_ref"), t) for e in events for t in timexes])
        if not options:
            return None
        slot, parent = rng.choice(options)
        edges[slot] = parent
    elif kind == "wrong_meta":
        options = ([(Slot(t, "timex_ref"), "NO_EVENT") for t in timexes]
                   + [(Slot(e, "timex_ref"), m) for e in events for m in ("ROOT", "NO_EVENT")]
                   + [(Slot(e, "event_ref"), m) for e in events for m in ("DCT", "ROOT")])
        slot, parent = rng.choice(options)
        edges[slot] = parent
    elif kind == "unknown_parent" and slots:
        edges[rng.choice(slots)] = "nobody"
    elif kind == "timex_cycle":
        return kind if _cycle(rng, edges, timexes, "timex_ref") else None
    elif kind == "event_cycle":
        return kind if _cycle(rng, edges, events, "event_ref") else None
    else:
        return None
    return kind


def test_validate_graph_matches_reference_on_mutated_graphs():
    rng = random.Random(2024)
    applied: dict[str, int] = {}
    flagged = 0
    for trial in range(N_DOCS):
        doc = random_document(rng, max_mentions=9, doc_id=f"p{trial}")
        base = gold_graph(doc) if trial % 2 else random_pred_graph(rng, doc)
        assert validate_graph(base, doc) == reference_validate_graph(base, doc) == []
        edges = dict(base.edges)
        for _ in range(rng.randint(1, 3)):
            kind = _mutate(rng, doc, edges)
            if kind is not None:
                applied[kind] = applied.get(kind, 0) + 1
        graph = TemporalDependencyGraph(doc.id, edges)
        expected = reference_validate_graph(graph, doc)
        assert validate_graph(graph, doc) == expected, (trial, edges)
        flagged += bool(expected)
        pairs = [(slot.child, parent) for slot, parent in edges.items()]
        ids = [m.id for m in doc.mentions]
        assert find_cycle(ids, pairs) == reference_find_cycle(ids, pairs)

        # validate_document runs the same cycle finder over gold edges
        mutated = Document(doc.id, doc.dct, doc.sentences, doc.mentions,
                           [GoldEdge(s.child, s.slot, p) for s, p in edges.items()])
        cycle = reference_find_cycle(ids, pairs)
        found = [v for v in validate_document(mutated) if "form a cycle" in v]
        assert found == ([] if cycle is None else
                         ["gold edges form a cycle: " + " -> ".join(cycle)])
    assert all(applied.get(kind, 0) >= 20 for kind in (
        "unfilled", "foreign", "self", "wrong_kind", "wrong_meta", "unknown_parent",
        "timex_cycle", "event_cycle")), applied
    assert flagged > N_DOCS * 0.9


def test_find_cycle_matches_reference_on_random_digraphs():
    rng = random.Random(7)
    cyclic = 0
    for _ in range(N_DOCS):
        nodes = [f"n{i}" for i in range(rng.randint(1, 12))]
        names = nodes + ["DCT", "ROOT", "stranger"]
        edges = [(rng.choice(names), rng.choice(names))
                 for _ in range(rng.randint(0, 2 * len(nodes)))]
        order = rng.sample(nodes, len(nodes))
        expected = reference_find_cycle(order, edges)
        assert find_cycle(order, edges) == expected, (order, edges)
        cyclic += expected is not None
    assert 0.2 * N_DOCS < cyclic < 0.9 * N_DOCS


def _random_labels(rng: random.Random, corpus: list[Document]) -> dict:
    return {(doc.id, s.index): rng.choice(CONTENT_TYPES)
            for doc in corpus for s in doc.sentences}


def _same(a: list[float], b: list[float]) -> bool:
    return all(x == y or (math.isnan(x) and math.isnan(y)) for x, y in zip(a, b))


def test_all_tables_match_the_per_table_loops():
    rng = random.Random(11)
    corpora = [generate_synthetic_corpus(SynthConfig(n_docs=15), seed) for seed in range(4)]
    for trial in range(30):
        docs = [random_document(rng, max_mentions=8, doc_id=f"r{trial}-{i}")
                for i in range(rng.randint(1, 12))]
        corpora.append((docs, _random_labels(rng, docs)))
    for corpus, labels in corpora:
        tables = all_tables(corpus, labels)
        expected = reference_tables(corpus, labels)
        assert [t.name for t in tables] == list(expected)
        for table in tables:
            denominators, cells = expected[table.name]
            assert table.denominators == denominators
            assert all(_same(row, want) for row, want in zip(table.cells, cells))
