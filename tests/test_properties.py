"""Seeded property tests: graph and document validation, reading a prediction
back, the metrics, the analysis tables and the JSON type rule against the
references in tests/oracles.py, over random documents, corpora and JSON
values; and a mutation fuzzer over every input kind of the CLI: corpus and
prediction lines, checkpoints, train and synth configs and dp-label rows,
with the commands that read a mutated corpus agreeing with validate."""

import copy
import json
import math
import random
from dataclasses import replace
from pathlib import Path
from sys import intern

import numpy as np
import pytest

from tdgparse import corpus as corpus_module
from tdgparse import graph as graph_module
from tdgparse.analysis import all_tables
from tdgparse.cli import main
from tdgparse.corpus import (
    CONTENT_TYPES,
    Document,
    FieldError,
    GoldEdge,
    Sentence,
    document_from_json,
    document_to_json,
    find_cycle,
    is_json,
    json_field,
    parse_corpus,
    validate_document,
    write_corpus,
    write_dp_labels,
)
from tdgparse.evaluation import partitioned_prf
from tdgparse.graph import (
    GraphError,
    Slot,
    TemporalDependencyGraph,
    graph_from_json,
    graph_to_json,
    greedy_decode,
    slot_instances,
    validate_graph,
)
from tdgparse.scorer import ModelConfig, build_vocabulary, save_checkpoint
from tdgparse.synth import SynthConfig, generate_synthetic_corpus

from .conftest import initialized_model, mixed_document
from .oracles import (
    JSON_KINDS,
    brute_force_metrics,
    gold_graph,
    random_document,
    random_json_value,
    random_pred_graph,
    random_scores,
    reference_checkpoint_ok,
    reference_corpus_line_ok,
    reference_dp_rows_ok,
    reference_find_cycle,
    reference_is_json,
    reference_load_error,
    reference_prediction_ok,
    reference_slots,
    reference_synth_config_ok,
    reference_tables,
    reference_train_config_ok,
    reference_validate_document,
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


def _mutate_gold(rng: random.Random, doc: Document, gold: list[GoldEdge]) -> str | None:
    """Apply one random fault that only a list of gold edges can hold; return
    its name, or None if it does not apply."""
    if not gold:
        return None
    kind = rng.choice(["duplicate", "unknown_slot", "bad_label"])
    edge = rng.choice(gold)
    names = ["DCT", "ROOT", "NO_EVENT"] + [m.id for m in doc.mentions]
    if kind == "duplicate":
        gold.append(GoldEdge(edge.child, edge.slot, rng.choice(names)))
    elif kind == "unknown_slot":
        gold.append(GoldEdge(edge.child, "anchor", rng.choice(names)))
    else:
        gold[gold.index(edge)] = GoldEdge(edge.child, edge.slot, edge.parent, "simultaneous")
    return kind


def _adjacency(node_ids: list[str], pairs: list[tuple[str, str]]) -> dict[str, list[str]]:
    """find_cycle's adjacency for (child, parent) pairs: each child's
    parents in pair order, over the pairs whose ends are both node_ids."""
    succs: dict[str, list[str]] = {}
    for child, parent in pairs:
        if child in node_ids and parent in node_ids:
            succs.setdefault(child, []).append(parent)
    return succs


def test_validate_graph_matches_reference_on_mutated_graphs():
    rng = random.Random(2024)
    applied: dict[str, int] = {}
    flagged = 0
    for trial in range(N_DOCS):
        doc = random_document(rng, max_mentions=9, doc_id=f"p{trial}")
        base = gold_graph(doc) if trial % 2 else random_pred_graph(rng, doc)
        assert validate_graph(base, doc) == reference_validate_graph(base, doc) == []
        base_doc = Document(doc.id, doc.dct, doc.sentences, doc.mentions,
                            [GoldEdge(s.child, s.slot, p) for s, p in base.edges.items()])
        assert validate_document(base_doc) == reference_validate_document(base_doc) == []
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
        assert find_cycle(ids, _adjacency(ids, pairs)) == reference_find_cycle(ids, pairs)

        # validate_document runs the same check over the gold edges, the first
        # edge of each slot, after its own label and duplicate checks; a
        # gold cycle reads "gold edges form a cycle: ..."
        gold = [GoldEdge(s.child, s.slot, p) for s, p in edges.items()]
        if trial % 3 and (kind := _mutate_gold(rng, doc, gold)) is not None:
            applied[kind] = applied.get(kind, 0) + 1
        mutated = Document(doc.id, doc.dct, doc.sentences, doc.mentions, gold)
        first: dict[Slot, str] = {}
        for e in gold:
            first.setdefault(Slot(e.child, e.slot), e.parent)
        shared = ["gold " + v for v in
                  reference_validate_graph(TemporalDependencyGraph(doc.id, first), doc)]
        found = validate_document(mutated)
        own = [v for v in found if "unknown label" in v or "more than one edge" in v]
        assert found == own + shared, (trial, gold)
        assert len(own) == len(gold) - len(first) + sum(e.label is not None for e in gold)

        # on a normalized document the merged validator and the earlier
        # per-kind one agree on validity
        normalized = document_from_json(document_to_json(mutated))
        assert (validate_document(normalized) == []) \
            == (reference_validate_document(normalized) == []), (trial, gold)
    assert all(applied.get(kind, 0) >= 20 for kind in (
        "unfilled", "foreign", "self", "wrong_kind", "wrong_meta", "unknown_parent",
        "timex_cycle", "event_cycle", "duplicate", "unknown_slot", "bad_label")), applied
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
        assert find_cycle(order, _adjacency(order, edges)) == expected, (order, edges)
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


def test_json_type_rule_matches_reference_on_random_values():
    """is_json, and json_field built on it, agree with reference_is_json on
    every kind, and every element kind of a list, for random decoded values."""
    rng = random.Random(13)
    admitted: dict[tuple, int] = {}
    for _ in range(1500):
        value = json.loads(json.dumps(random_json_value(rng)))
        for kind, item in [(k, None) for k in JSON_KINDS] + [(list, k) for k in JSON_KINDS]:
            expected = reference_is_json(value, kind, item)
            assert is_json(value, kind, item) == expected, (value, kind, item)
            if expected:
                assert json_field({"v": value}, "v", kind, "at", item) is value
                admitted[kind, item] = admitted.get((kind, item), 0) + 1
            else:
                with pytest.raises(FieldError, match="^at: field 'v' must be "):
                    json_field({"v": value}, "v", kind, "at", item)
    # every combination admits some values and refuses others
    assert all(20 <= admitted.get(combo, 0) <= 1400 for combo in
               [(k, None) for k in JSON_KINDS] + [(list, k) for k in JSON_KINDS]), admitted


def _json_edge(obj: dict, child: str, slot: str) -> dict | None:
    """The first edge object of a prediction for the slot (child, slot), if any."""
    return next((e for e in obj["edges"] if e["child"] == child and e["slot"] == slot), None)


def _ring(obj: dict, links: list[tuple[str, str, str]]) -> bool:
    """Set each (child, slot, parent) of links in obj's edges; False if a slot has no edge."""
    for child, slot, parent in links:
        edge = _json_edge(obj, child, slot)
        if edge is None:
            return False
        edge["parent"] = parent
    return True


def _mutate_prediction(rng: random.Random, doc: Document, obj: dict,
                       kinds: list[str]) -> str | None:
    """Apply one of kinds to a graph_to_json object in place; return its name,
    or None if it does not apply to this document."""
    timexes, events = _ids(doc, "timex"), _ids(doc, "event")
    names = ["DCT", "ROOT", "NO_EVENT", "nobody"] + timexes + events
    edges = obj["edges"]
    kind = rng.choice(kinds)
    if not edges and kind in ("illegal", "unknown", "self", "drop", "duplicate", "non_str",
                              "unhashable"):
        return None
    if kind == "illegal":
        options = ([(t, "timex_ref", p) for t in timexes for p in events + ["NO_EVENT"]]
                   + [(e, "timex_ref", p) for e in events for p in events + ["ROOT"]]
                   + [(e, "event_ref", p) for e in events for p in timexes + ["DCT"]])
        return kind if _ring(obj, [rng.choice(options)]) else None
    if kind == "unknown":
        rng.choice(edges)["parent"] = "nobody"
    elif kind == "self":
        edge = rng.choice(edges)
        edge["parent"] = edge["child"]
    elif kind == "drop":
        edges.pop(rng.randrange(len(edges)))
    elif kind == "duplicate":
        edges.insert(rng.randint(0, len(edges)), dict(rng.choice(edges), parent=rng.choice(names)))
    elif kind == "foreign":
        child, slot = rng.choice([(t, "event_ref") for t in timexes]
                                 + [("ghost", "timex_ref"), ("ghost", "event_ref")]
                                 + [(m, "bogus") for m in timexes + events])
        edges.insert(rng.randint(0, len(edges)),
                     {"child": child, "slot": slot, "parent": rng.choice(names)})
    elif kind in ("non_str", "unhashable"):
        values = [5, 2**70, 1.5, True, None] if kind == "non_str" else [["t1"], {"t1": 1}]
        rng.choice(edges)[rng.choice(["child", "slot", "parent"])] = rng.choice(values)
    elif kind in ("event_2cycle", "event_3cycle"):
        n = 2 if kind == "event_2cycle" else 3
        if len(events) < n:
            return None
        ring = rng.sample(events, n)
        return kind if _ring(obj, [(c, "event_ref", p) for c, p in
                                   zip(ring, ring[1:] + ring[:1])]) else None
    elif kind == "illegal_cycle":  # an illegal timex_ref edge closed by a legal one
        if timexes and events and rng.random() < 0.5:
            t, e = rng.choice(timexes), rng.choice(events)
            links = [(t, "timex_ref", e), (e, "timex_ref", t)]
        elif len(events) >= 2:
            e1, e2 = rng.sample(events, 2)
            links = [(e1, "timex_ref", e2), (e2, "event_ref", e1)]
        else:
            return None
        return kind if _ring(obj, links) else None
    return kind


PREDICTION_FAULTS = ["illegal", "unknown", "self", "drop", "duplicate", "foreign", "non_str",
                     "unhashable", "event_2cycle", "event_3cycle", "illegal_cycle"]

# faults of the document a prediction is read against: a mention repeated
# as itself, as the other kind or as an unknown kind, or given an unknown kind
DOCUMENT_FAULTS = ["twin", "twin_of_other_kind", "twin_of_unknown_kind", "unknown_kind"]


def _mutate_document(rng: random.Random, doc: Document) -> tuple[Document, str]:
    """A copy of doc with one of DOCUMENT_FAULTS, a repeat inserted at a
    random place, and the fault's name."""
    mentions = list(doc.mentions)
    m = rng.choice(mentions)
    kind = rng.choice(DOCUMENT_FAULTS)
    if kind == "unknown_kind":
        mentions[mentions.index(m)] = replace(m, kind="bogus")
    else:
        other = {"twin": m.kind, "twin_of_unknown_kind": "bogus"}.get(
            kind, "timex" if m.kind == "event" else "event")
        mentions.insert(rng.randint(0, len(mentions)), replace(m, kind=other))
    return Document(doc.id, doc.dct, doc.sentences, mentions, doc.gold_edges), kind


def _read_back(obj: dict, doc: Document) -> TemporalDependencyGraph | None:
    """graph_from_json(obj, doc), asserted to load as the reference reader
    says, with obj's edges, or to raise its GraphError text (then None)."""
    expected = reference_load_error(obj, doc)
    if expected is not None:
        with pytest.raises(GraphError) as err:
            graph_from_json(obj, doc)
        assert str(err.value) == expected, (doc, obj)
        return None
    graph = graph_from_json(obj, doc)
    assert graph.edges == {Slot(e["child"], e["slot"]): e["parent"] for e in obj["edges"]}
    return graph


def test_reading_back_predictions_matches_the_references():
    """graph_from_json's GraphError text for a mutated prediction is the
    reference reader's, also read against a document with a repeated
    mention id or an unknown kind, where as many edges belonging as the
    document has slots must still mean that none is unfilled; the
    predictions that load against unmutated documents score and tabulate as
    the brute-force counts and the per-table loops do."""
    rng, doc_rng = random.Random(2028), random.Random(2029)
    applied: dict[str, int] = {}
    loaded: list[tuple[Document, TemporalDependencyGraph]] = []
    for trial in range(N_DOCS):
        doc = random_document(rng, max_mentions=9, doc_id=f"g{trial}")
        base = gold_graph(doc) if trial % 2 else random_pred_graph(rng, doc)
        obj = json.loads(json.dumps(graph_to_json(base, doc)))
        kinds = list(PREDICTION_FAULTS)
        for _ in range(rng.choice([0, 1, 1, 2, 3])):
            kind = _mutate_prediction(rng, doc, obj, kinds)
            if kind is not None:
                applied[kind] = applied.get(kind, 0) + 1
            if kind == "unhashable":  # with two, the type named would depend on check order
                kinds.remove(kind)
        graph = _read_back(obj, doc)
        if graph is not None:
            loaded.append((doc, graph))
        if trial % 3 == 2:  # the same prediction read against a faulty copy of doc
            faulty, kind = _mutate_document(doc_rng, doc)
            applied[kind] = applied.get(kind, 0) + 1
            if _read_back(obj, faulty) is not None:
                applied[f"loaded_{kind}"] = applied.get(f"loaded_{kind}", 0) + 1
    assert all(applied.get(kind, 0) >= 15 for kind in PREDICTION_FAULTS + DOCUMENT_FAULTS), \
        applied
    # a repeat that owns no slot of its own, or none the graph lacks, loads
    assert all(applied.get(f"loaded_{kind}", 0) >= 3 for kind in DOCUMENT_FAULTS[:3]), applied
    assert len(loaded) > N_DOCS // 5

    for lo in range(0, len(loaded), 10):
        docs = [doc for doc, _ in loaded[lo:lo + 10]]
        preds = {doc.id: graph for doc, graph in loaded[lo:lo + 10]}
        report, want = partitioned_prf(preds, docs), brute_force_metrics(preds, docs)
        assert (report.accuracy, report.total_slots) == (want["accuracy"], want["total_slots"])
        for name, c in report.per_category.items():
            w = want["per_category"][name]
            assert (c.gold, c.predicted, c.correct, c.precision, c.recall, c.f1) == \
                (w["gold"], w["predicted"], w["correct"], w["p"], w["r"], w["f1"])
        # the same graphs as gold edges, tabulated
        as_gold = [Document(doc.id, doc.dct, doc.sentences, doc.mentions,
                            [GoldEdge(s.child, s.slot, p) for s, p in preds[doc.id].edges.items()])
                   for doc in docs]
        labels = _random_labels(rng, as_gold)
        expected_tables = reference_tables(as_gold, labels)
        for table in all_tables(as_gold, labels):
            denominators, cells = expected_tables[table.name]
            assert table.denominators == denominators
            assert all(_same(row, want) for row, want in zip(table.cells, cells))


# type swaps, and a stand-in the JSON line writes as the bare number 1e400
_SWAPS = [None, True, 0, 1.5, "x", [], {}, ["x"], {"x": 1}]
_RAW_1E400 = "\x00e400"


def _positions(value, path: tuple = ()):
    """The path of every value inside a decoded JSON value, the root excluded."""
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, inner in items:
        yield path + (key,)
        yield from _positions(inner, path + (key,))


def _mutate_line(rng: random.Random, obj: dict) -> str:
    """One or two of a type swap, a deletion, a list item's duplication, NaN,
    2**70 or 1e400 (a string or a number), at random positions of obj, in
    place; the mutated object as a JSON line."""
    for _ in range(rng.randint(1, 2)):
        op = rng.choice(["swap", "delete", "duplicate", "nan", "huge", "1e400"])
        paths = list(_positions(obj))
        if op == "duplicate":
            paths = [p for p in paths if isinstance(p[-1], int)]
        if not paths:
            continue
        *outer, key = rng.choice(paths)
        holder = obj
        for step in outer:
            holder = holder[step]
        if op == "delete":
            del holder[key]
        elif op == "duplicate":
            holder.insert(key, copy.deepcopy(holder[key]))
        elif op == "nan":
            holder[key] = math.nan
        elif op == "huge":
            holder[key] = 2**70
        elif op == "1e400":
            holder[key] = rng.choice(["1e400", _RAW_1E400])
        else:
            swaps = [v for v in _SWAPS if type(v) is not type(holder[key])]
            holder[key] = copy.deepcopy(rng.choice(swaps))
    return json.dumps(obj).replace(json.dumps(_RAW_1E400), "1e400")


def _interned(doc: Document) -> list:
    """Every name document_from_json interns, in one order: a label only
    when it is a string."""
    names = [*(t for s in doc.sentences for t in s.tokens),
             *(v for m in doc.mentions for v in (m.id, m.kind)),
             *(v for e in doc.gold_edges for v in (e.child, e.slot, e.parent, e.label))]
    return [name for name in names if type(name) is str]


def _set(obj, path: tuple, value) -> None:
    for step in path[:-1]:
        obj = obj[step]
    obj[path[-1]] = value


def test_typed_pass_matches_the_per_field_path(monkeypatch):
    """document_from_json's typed pass and its field-by-field path, the one
    that words every error, agree on every corpus line mutation the fuzzers
    make and on a value of each other JSON type at every position of a valid
    line: equal Documents holding the same interned name objects, or
    FieldError with the same text."""
    def outcome(obj, typed: bool):
        with monkeypatch.context() as patch:
            if not typed:
                patch.setattr(corpus_module, "_typed_parts", lambda obj: None)
            try:
                return document_from_json(json.loads(json.dumps(obj)))
            except FieldError as exc:
                return str(exc)

    built = refused = 0

    def agree(obj) -> None:
        nonlocal built, refused
        got, want = outcome(obj, True), outcome(obj, False)
        assert got == want, obj
        if isinstance(got, Document):
            pairs = zip(_interned(got), _interned(want), strict=True)
            assert all(a is b is intern(a) for a, b in pairs), obj
            built += 1
        else:
            refused += 1

    rng = random.Random(43)
    docs = generate_synthetic_corpus(SynthConfig(n_docs=3, sentences_per_doc=(2, 3),
                                                 noise_tokens_per_sentence=(0, 1)), seed=5)[0]
    docs += [random_document(rng, max_mentions=4, doc_id=f"d{i}") for i in range(3)]
    lines = [document_to_json(doc) for doc in docs]
    for obj in lines[::3]:  # a label, and an event left for the NO_EVENT edge
        obj["edges"][0]["label"] = "before"
        obj["edges"] = [e for e in obj["edges"][:-1] if e["slot"] != "event_ref"] \
            + obj["edges"][-1:]
    for obj in lines:
        agree(obj)
    for obj in lines[::2]:
        for path in _positions(obj):
            for value in _SWAPS:
                mutated = json.loads(json.dumps(obj))
                _set(mutated, path, value)
                agree(mutated)
    for _ in range(600):
        agree(json.loads(_mutate_line(rng, json.loads(json.dumps(rng.choice(lines))))))
    assert built >= 250 and refused >= 1800, (built, refused)


def _graph_names(graph: TemporalDependencyGraph) -> list:
    """Every name of a graph's edge map, in dict order: child, slot, parent."""
    return [name for slot, parent in graph.edges.items() for name in (*slot, parent)]


def test_typed_edge_maps_match_the_per_edge_paths(monkeypatch):
    """graph_from_json's typed pass and its per-edge path, the one that
    words every error, agree on every prediction mutation of the read-back
    and CLI fuzzers and on a value of each other JSON type at every position
    of a valid prediction: equal graphs whose edge maps hold the same Slots
    in the same order and the same interned name objects, or the same error
    and text."""
    def read(obj, doc: Document, typed: bool):
        with monkeypatch.context() as patch:
            if not typed:
                patch.setattr(graph_module, "_typed_edges", lambda obj, doc: None)
            try:
                return graph_from_json(json.loads(json.dumps(obj)), doc)
            except (FieldError, GraphError) as exc:
                return f"{type(exc).__name__}: {exc}"

    counts = dict(loaded=0, refused=0)

    def agree(obj, doc: Document) -> None:
        got, want = read(obj, doc, True), read(obj, doc, False)
        assert got == want, (doc, obj)
        if isinstance(got, TemporalDependencyGraph):
            assert all(type(slot) is Slot for slot in got.edges), obj
            pairs = zip(_graph_names(got), _graph_names(want), strict=True)
            assert all(a is b is intern(a) for a, b in pairs), obj
            counts["loaded"] += 1
        else:
            counts["refused"] += 1

    rng, doc_rng, order_rng = random.Random(47), random.Random(53), random.Random(59)
    for trial in range(200):
        doc = random_document(rng, max_mentions=7, doc_id=f"t{trial}")
        base = gold_graph(doc) if trial % 2 else random_pred_graph(rng, doc)
        clean = json.loads(json.dumps(graph_to_json(base, doc)))
        agree(clean, doc)
        # the typed pass keys doc.slots themselves only in their order: a
        # valid prediction in another order, or one with an edge dropped or
        # repeated, gives the same graph or error either way
        links = clean["edges"]
        agree(dict(clean, edges=order_rng.sample(links, len(links))), doc)
        i = order_rng.randrange(len(links))
        agree(dict(clean, edges=links[:i] + links[i + 1:]), doc)
        agree(dict(clean, edges=links[:i] + [dict(links[i])] + links[i:]), doc)
        obj = copy.deepcopy(clean)
        for _ in range(rng.choice([1, 1, 2])):
            _mutate_prediction(rng, doc, obj, PREDICTION_FAULTS)
        agree(obj, doc)
        if trial % 3 == 2:
            agree(obj, _mutate_document(doc_rng, doc)[0])
        agree(json.loads(_mutate_line(rng, copy.deepcopy(clean))), doc)
        if trial % 20 == 0:
            for path in _positions(clean):
                for value in _SWAPS:
                    mutated = copy.deepcopy(clean)
                    _set(mutated, path, value)
                    agree(mutated, doc)
    assert counts["loaded"] >= 200 and counts["refused"] >= 2000, counts


def test_a_canonical_prediction_is_keyed_by_the_documents_slots(monkeypatch):
    """A decoded graph, and a prediction read back in doc.slots order, key
    their edges by the very Slot objects of doc.slots; read back in another
    order, the keys are equal Slots in that order. Either order takes the
    typed pass, never the per-edge path."""
    def per_edge(obj, doc):
        raise AssertionError("a valid prediction was read edge by edge")

    monkeypatch.setattr(graph_module, "_edges_by_field", per_edge)
    rng = random.Random(61)
    for trial in range(50):
        doc = random_document(rng, max_mentions=7, doc_id=f"k{trial}")
        scores = random_scores(rng, doc)
        decoded = greedy_decode(doc, scores)
        assert all(a is b for a, b in zip(decoded.edges, doc.slots, strict=True))
        obj = json.loads(json.dumps(graph_to_json(decoded, doc)))
        graph = graph_from_json(obj, doc)
        assert all(a is b for a, b in zip(graph.edges, doc.slots, strict=True))
        obj["edges"].reverse()
        graph = graph_from_json(obj, doc)
        assert list(graph.edges) == list(reversed(doc.slots))
        assert all(type(slot) is Slot for slot in graph.edges)


def test_document_slots_match_the_reference_walk():
    """Document.slots, and the mention owning each, are reference_slots' on
    seeded random documents, mixed_document, copies with each of
    DOCUMENT_FAULTS (a repeated id, an unknown kind) and a document without
    mentions; every slot is a Slot with an interned child."""
    rng, doc_rng = random.Random(67), random.Random(71)
    docs = [random_document(rng, max_mentions=9, doc_id=f"s{i}") for i in range(200)]
    faulty = [_mutate_document(doc_rng, doc) for doc in docs[:100]]
    assert {kind for _, kind in faulty} == set(DOCUMENT_FAULTS)
    docs += [doc for doc, _ in faulty]
    docs.append(mixed_document()[0])
    docs.append(Document("empty", "DCT", [Sentence(0, ("calm",))], [], []))
    for doc in docs:
        want = reference_slots(doc)
        assert doc.slots == tuple(slot for slot, _ in want), doc
        assert all(a is b for a, b in zip(doc.slot_mentions, [m for _, m in want], strict=True))
        assert all(type(slot) is Slot and slot.child is intern(slot.child) for slot in doc.slots)
        assert slot_instances(doc) == list(doc.slots)
    assert docs[-1].slots == ()


def _sentence_indexes(line: str) -> list | None:
    """The index field of each sentence a corpus line holds, where it has a list of objects."""
    sentences = json.loads(line).get("sentences")
    if not isinstance(sentences, list) or not all(isinstance(s, dict) for s in sentences):
        return None
    return [s.get("index") for s in sentences]


def _main(argv: list[str], what) -> int:
    """main's exit code; an exception escaping it fails the test."""
    try:
        return main(argv)
    except BaseException as exc:  # the property under test: nothing escapes
        pytest.fail(f"{argv[0]}: {type(exc).__name__} escaped main on {what}")


def _outputs(out: Path) -> set[str]:
    return {p.name for p in out.iterdir()} if out.exists() else set()


def test_cli_exit_codes_hold_on_mutated_corpus_and_prediction_lines(tmp_path, capsys):
    """A seeded mutation fuzzer over the first two input kinds: one line of a
    corpus (validate) or of a prediction file (evaluate) gets one or two
    mutated values. No exception escapes main; the exit code is 0 when the
    references accept the input and otherwise the one the README gives (1
    for a corpus, 3 for a prediction); a failed evaluate leaves only its
    manifest, and validate always writes its report beside it."""
    rng = random.Random(29)
    docs = [random_document(rng, max_mentions=5, doc_id=f"f{i}") for i in range(3)]
    gold = tmp_path / "gold.jsonl"
    write_corpus(docs, gold)
    clean = {"validate": gold.read_text(encoding="utf-8").splitlines(),
             "evaluate": [json.dumps(graph_to_json(random_pred_graph(rng, doc), doc))
                          for doc in docs]}
    outcomes: dict[tuple[str, int], int] = {}
    reindexed = 0
    for run in range(240):
        command = ("validate", "evaluate")[run % 2]
        i = rng.randrange(len(docs))
        lines = list(clean[command])
        if run >= 2:  # the first run of each command reads its clean input
            lines[i] = _mutate_line(rng, json.loads(lines[i]))
            reindexed += command == "validate" and _sentence_indexes(lines[i]) != [
                s.index for s in docs[i].sentences]
        path, out = tmp_path / f"in{run}.jsonl", tmp_path / f"out{run}"
        path.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
        if command == "validate":
            argv = ["validate", "--corpus", str(path), "--out", str(out)]
            ids = [reference_corpus_line_ok(json.loads(line)) for line in lines]
            ok, fail_code = None not in ids and len(set(ids)) == len(ids), 1
        else:
            argv = ["evaluate", "--gold", str(gold), "--pred", str(path), "--out", str(out)]
            ok, fail_code = reference_prediction_ok(json.loads(lines[i]), docs[i]), 3
        code = _main(argv, lines[i])
        err = capsys.readouterr().err
        assert code == (0 if ok else fail_code), (command, lines[i], err)
        outputs = _outputs(out)
        if command == "validate":
            assert outputs == {"manifest.json", "report.json"}
        else:
            assert outputs == {"manifest.json"} | ({"metrics-seed0.json"} if ok else set())
        if code == 3:
            assert err.startswith("error: ") and err.count("\n") == 1, err
        outcomes[command, code] = outcomes.get((command, code), 0) + 1
    assert outcomes[("validate", 0)] >= 5 and outcomes[("validate", 1)] >= 60, outcomes
    assert outcomes[("evaluate", 0)] >= 1 and outcomes[("evaluate", 3)] >= 100, outcomes
    assert reindexed >= 5, reindexed


@pytest.fixture
def fuzz_inputs(tmp_path):
    """Three random documents, their labels, a dp_distill checkpoint over
    them and a train config small enough to run in milliseconds."""
    rng = random.Random(31)
    docs = [random_document(rng, max_mentions=5, doc_id=f"f{i}") for i in range(3)]
    gold, labels = tmp_path / "gold.jsonl", tmp_path / "labels.tsv"
    write_corpus(docs, gold)
    write_dp_labels(_random_labels(rng, docs), docs, labels)
    checkpoint = tmp_path / "checkpoint.json"
    save_checkpoint(initialized_model(ModelConfig(dim=2, hidden=3, variant="dp_distill"),
                                      build_vocabulary(docs), seed=0), checkpoint)
    train = {"variant": "dp_distill", "max_epochs": 2, "warmup_epochs": 1,
             "batch_size_docs": 2, "peak_lr": 0.01, "weight_decay": 0.01, "seeds": [0],
             "update_order": "joint", "decode_order": "score", "dim": 2, "hidden": 3}
    return docs, gold, labels, checkpoint, train


# a clean synth config that generates in about a millisecond
_SYNTH = {"n_docs": 2, "sentences_per_doc": [1, 3], "mentions_per_sentence": [0, 2],
          "timex_share": 0.4, "refevent_prob": 0.5, "refevent_intra_prob": 0.3,
          "refevent_content_affinity": 0.7, "noise_vocab_size": 5,
          "noise_tokens_per_sentence": [0, 2], "event_vocab_size": 4, "timex_vocab_size": 3,
          "content_weights": {ct.value: 1.0 for ct in CONTENT_TYPES},
          "timex_parent_probs": {ct.value: [0.5, 0.25] for ct in CONTENT_TYPES},
          "event_timex_probs": {ct.value: [0.5, 0.25] for ct in CONTENT_TYPES}}


@pytest.mark.parametrize("kind", ["checkpoint", "train", "synth"])
def test_cli_exit_codes_hold_on_mutated_checkpoints_and_configs(kind, fuzz_inputs, tmp_path,
                                                                 capsys):
    """The fuzzer over three more input kinds: a checkpoint (predict, 3 on
    failure), a train config (train, 2) and a synth config (synth, 2), each
    with one or two mutated values. The exit code is 0 when the reference
    accepts the input and otherwise the kind's; a failed run leaves at most
    its manifest. A train config the reference accepts whose peak_lr is
    2**70, which its weight_decay must then be 0 for, diverges, which is
    exit 3 with the TrainingDiverged line."""
    docs, gold, labels, checkpoint, train = fuzz_inputs
    clean = {"checkpoint": json.loads(checkpoint.read_text(encoding="utf-8")),
             "train": train, "synth": _SYNTH}[kind]
    rng = random.Random(f"{kind}-fuzz")
    outcomes: dict[int, int] = {}
    for run in range(150):
        obj = copy.deepcopy(clean)
        line = json.dumps(obj) if run == 0 else _mutate_line(rng, obj)
        obj = json.loads(line)
        path, out = tmp_path / f"{kind}{run}.json", tmp_path / f"out{run}"
        path.write_text(line, encoding="utf-8")
        if kind == "checkpoint":
            argv = ["predict", "--checkpoint", str(path), "--corpus", str(gold),
                    "--dp-labels", str(labels)]
            expected = 0 if reference_checkpoint_ok(obj) else 3
            done = {"manifest.json", "predictions.jsonl"}
        elif kind == "train":
            argv = ["train", "--config", str(path), "--train", str(gold), "--valid", str(gold),
                    "--dp-labels", str(labels)]
            expected, done = 2, set()
            if reference_train_config_ok(obj):
                diverges = obj.get("peak_lr", 0) >= 2**70
                expected = 3 if diverges else 0
                done = {"manifest.json"} | {f"{what}-seed{s}.json" for s in obj.get("seeds", [0, 1, 2])
                                            for what in ("checkpoint", "history")}
        else:
            argv = ["synth", "--config", str(path), "--seed", str(run)]
            expected = 0 if reference_synth_config_ok(obj) else 2
            done = {"manifest.json", "corpus.jsonl", "dp_labels.tsv"}
        with np.errstate(all="ignore"):  # a diverging run overflows on its way to exit 3
            code = _main([*argv, "--out", str(out)], line)
        err = capsys.readouterr().err
        assert code == expected, (line, err)
        if code == 0:
            assert _outputs(out) == done
        else:
            assert _outputs(out) <= {"manifest.json"}, line
            assert err.startswith("error: ") and err.count("\n") == 1, err
            if kind == "train" and code == 3:
                assert "error: non-finite" in err, err
        outcomes[code] = outcomes.get(code, 0) + 1
    fail = {"checkpoint": 3, "train": 2, "synth": 2}[kind]
    assert outcomes.get(0, 0) >= 3 and outcomes.get(fail, 0) >= 100, outcomes


def _mutate_rows(rng: random.Random, rows: list[list[str]]) -> None:
    """The line mutations on label rows, in place, once or twice: a row or
    a field deleted or duplicated, or a field made another JSON value's text,
    NaN, 2**70 or 1e400. A row keeps one field at least, so no line is blank."""
    for _ in range(rng.randint(1, 2)):
        op = rng.choice(["swap", "delete", "duplicate", "nan", "huge", "1e400"])
        r = rng.randrange(len(rows))
        if op in ("delete", "duplicate") and (rng.random() < 0.5 or len(rows[r]) == 1):
            holder, key = rows, r
        else:
            holder, key = rows[r], rng.randrange(len(rows[r]))
        if op == "delete":
            del holder[key]
        elif op == "duplicate":
            holder.insert(key, copy.deepcopy(holder[key]))
        else:
            holder[key] = {"nan": "NaN", "huge": str(2**70), "1e400": "1e400",
                           "swap": json.dumps(rng.choice(_SWAPS))}[op]


def test_cli_exit_codes_hold_on_mutated_dp_label_rows(fuzz_inputs, tmp_path, capsys):
    """The fuzzer over dp-label rows: analyze exits 3 and validate
    --dp-labels 1 unless the reference finds the rows a valid, total
    labelling of the corpus; a failed analyze leaves nothing, and validate
    always writes its report."""
    docs, gold, labels, _, _ = fuzz_inputs
    clean = [line.split("\t") for line in labels.read_text(encoding="utf-8").splitlines()]
    rng = random.Random(37)
    outcomes: dict[tuple[str, int], int] = {}
    for run in range(160):
        command = ("analyze", "validate")[run % 2]
        rows = copy.deepcopy(clean)
        if run >= 2:
            _mutate_rows(rng, rows)
        text = "".join("\t".join(row) + "\n" for row in rows)
        path, out = tmp_path / f"labels{run}.tsv", tmp_path / f"out{run}"
        path.write_text(text, encoding="utf-8")
        code = _main([command, "--corpus", str(gold), "--dp-labels", str(path),
                      "--out", str(out)], text)
        err = capsys.readouterr().err
        ok = reference_dp_rows_ok(rows, docs)
        if command == "analyze":
            assert code == (0 if ok else 3), (text, err)
            assert (_outputs(out) == set()) != ok
        else:
            assert code == (0 if ok else 1), (text, err)
            assert _outputs(out) == {"manifest.json", "report.json"}
        outcomes[command, code] = outcomes.get((command, code), 0) + 1
    assert outcomes[("analyze", 0)] >= 1 and outcomes[("analyze", 3)] >= 50, outcomes
    assert outcomes[("validate", 0)] >= 1 and outcomes[("validate", 1)] >= 50, outcomes


def test_commands_agree_with_validate_on_mutated_corpora(fuzz_inputs, tmp_path, capsys):
    """On a corpus with one mutated line, train, predict and analyze exit 1
    where validate exits 1; where validate accepts it, none exits 3, and
    predict and analyze (given labels written for the mutated corpus)
    succeed."""
    docs, gold, labels, _, train = fuzz_inputs
    checkpoint = tmp_path / "baseline.json"
    save_checkpoint(initialized_model(ModelConfig(dim=2, hidden=3), build_vocabulary(docs),
                                      seed=0), checkpoint)
    config = tmp_path / "train.json"
    config.write_text(json.dumps({**train, "variant": "baseline", "max_epochs": 1}),
                      encoding="utf-8")
    clean = gold.read_text(encoding="utf-8").splitlines()
    rng = random.Random(41)
    accepted = 0
    for run in range(90):
        lines = list(clean)
        i = rng.randrange(len(lines))
        lines[i] = _mutate_line(rng, json.loads(lines[i]))
        path, out = tmp_path / f"corpus{run}.jsonl", tmp_path / f"out{run}"
        path.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
        ids = [reference_corpus_line_ok(json.loads(line)) for line in lines]
        valid = _main(["validate", "--corpus", str(path), "--out", str(out / "validate")],
                      lines[i])
        assert valid == (0 if None not in ids and len(set(ids)) == len(ids) else 1)
        run_labels = labels
        if valid == 0:
            accepted += 1
            run_labels = tmp_path / f"labels{run}.tsv"
            corpus = parse_corpus(path)
            write_dp_labels(_random_labels(rng, corpus), corpus, run_labels)
        codes = {command: _main([command, *argv, "--out", str(out / command)], lines[i])
                 for command, argv in (
                     ("train", ["--train", str(path), "--valid", str(path),
                                "--config", str(config)]),
                     ("predict", ["--checkpoint", str(checkpoint), "--corpus", str(path)]),
                     ("analyze", ["--corpus", str(path), "--dp-labels", str(run_labels)]))}
        err = capsys.readouterr().err
        if valid == 1:
            assert codes == dict.fromkeys(codes, 1), (lines[i], err)
            assert all(_outputs(out / command) <= {"manifest.json"} for command in codes)
        else:
            assert codes["train"] in (0, 2) and codes["predict"] == codes["analyze"] == 0, \
                (lines[i], err)
    assert accepted >= 5, accepted
