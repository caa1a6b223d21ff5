import dataclasses
import json
import random
import re

import numpy as np
import pytest

from tdgparse import graph as graph_module
from tdgparse.graph import (
    DECODE_ORDERS,
    GraphError,
    ScoredCandidates,
    Slot,
    SlotScores,
    TemporalDependencyGraph,
    candidate_layout,
    candidate_set,
    first_maxima,
    graph_from_json,
    graph_to_json,
    greedy_decode,
    greedy_positions,
    slot_instances,
    slot_of,
    validate_graph,
    would_create_cycle,
)
from tdgparse.scorer import ModelConfig, _index_document, build_vocabulary, lay_out

from .conftest import initialized_model, make_doc
from .oracles import (
    META,
    _closure_has_cycle,
    gold_graph,
    random_document,
    random_pred_graph,
    random_scores,
    reference_decode,
    reference_first_maxima,
    reference_slot_of,
    scores_over,
)


def two_timex_doc():
    return make_doc({
        "id": "g1", "dct": "2021-01-01",
        "sentences": [{"index": 0, "tokens": ["a", "b", "c"]}],
        "mentions": [
            {"id": "t1", "kind": "timex", "sentence": 0, "start": 0, "end": 1},
            {"id": "t2", "kind": "timex", "sentence": 0, "start": 1, "end": 2},
            {"id": "e1", "kind": "event", "sentence": 0, "start": 2, "end": 3},
        ],
        "edges": [
            {"child": "t1", "slot": "timex_ref", "parent": "DCT"},
            {"child": "t2", "slot": "timex_ref", "parent": "t1"},
            {"child": "e1", "slot": "timex_ref", "parent": "t1"},
        ],
    })


def test_candidate_sets():
    doc = two_timex_doc()
    assert candidate_set(doc, Slot("t1", "timex_ref")) == ["DCT", "ROOT", "t2"]
    assert candidate_set(doc, Slot("e1", "timex_ref")) == ["DCT", "t1", "t2"]
    assert candidate_set(doc, Slot("e1", "event_ref")) == ["NO_EVENT"]
    with pytest.raises(GraphError):
        candidate_set(doc, Slot("t1", "event_ref"))
    layout = candidate_layout(doc)
    assert layout.doc is doc and layout.slots is doc.slots
    assert list(layout.slots) == slot_instances(doc)
    assert layout.names == ("DCT", "ROOT", "NO_EVENT", "t1", "t2", "e1")
    assert layout.starts.tolist() == [0, 3, 6, 9]
    assert layout.cand.tolist() == [0, 1, 4, 0, 1, 3, 0, 3, 4, 2]


def test_slot_instances_order():
    doc = two_timex_doc()
    assert slot_instances(doc) == [
        Slot("t1", "timex_ref"),
        Slot("t2", "timex_ref"),
        Slot("e1", "timex_ref"),
        Slot("e1", "event_ref"),
    ]


def chains_doc():
    mentions = [{"id": m, "kind": "timex" if m[0] == "t" else "event",
                 "sentence": 0, "start": i, "end": i + 1}
                for i, m in enumerate(("t1", "t2", "t3", "e1", "e2", "e3"))]
    return make_doc({
        "id": "g6", "dct": "2021-01-01",
        "sentences": [{"index": 0, "tokens": ["a", "b", "c", "d", "e", "f"]}],
        "mentions": mentions,
        "edges": [{"child": m["id"], "slot": "timex_ref", "parent": "DCT"}
                  for m in mentions],
    })


def test_would_create_cycle():
    doc = two_timex_doc()
    assert not would_create_cycle("t1", "t2", {}, doc)
    edges = {Slot("t2", "timex_ref"): "t1"}
    assert would_create_cycle("t1", "t2", edges, doc)
    assert not would_create_cycle("t1", "DCT", edges, doc)
    assert not would_create_cycle("t1", "ROOT", edges, doc)

    # an event's chain runs through event_ref slots; its timex_ref edge
    # points at a timex and can never lead back to an event
    doc = chains_doc()
    edges = {Slot("e3", "event_ref"): "e2", Slot("e2", "event_ref"): "e1",
             Slot("e3", "timex_ref"): "t1", Slot("t1", "timex_ref"): "t2"}
    assert would_create_cycle("e1", "e3", edges, doc)
    assert would_create_cycle("e2", "e3", edges, doc)
    assert not would_create_cycle("e3", "e1", edges, doc)
    assert not would_create_cycle("e1", "t1", edges, doc)
    assert not would_create_cycle("e1", "NO_EVENT", edges, doc)


def test_would_create_cycle_rejects_cyclic_edges():
    doc = chains_doc()
    for chain, (a, b, c) in (("timex_ref", ("t1", "t2", "t3")),
                             ("event_ref", ("e1", "e2", "e3"))):
        cyclic = {Slot(a, chain): b, Slot(b, chain): a}
        with pytest.raises(GraphError, match="already form a cycle"):
            would_create_cycle(c, a, cyclic, doc)


def test_would_create_cycle_matches_closure_oracle():
    rng = random.Random(23)
    checks = 0
    for trial in range(300):
        doc = random_document(rng, max_mentions=8, doc_id=f"w{trial}")
        ids = [m.id for m in doc.mentions]
        # a legal acyclic partial assignment: a random prediction, thinned
        keep = rng.random()
        edges = {s: p for s, p in random_pred_graph(rng, doc).edges.items()
                 if rng.random() < keep}
        chosen = [(s.child, p) for s, p in edges.items() if p not in META]
        for slot in slot_instances(doc):
            for cand in candidate_set(doc, slot):
                want = cand not in META and _closure_has_cycle(
                    ids, chosen + [(slot.child, cand)])
                assert would_create_cycle(slot.child, cand, edges, doc) == want
                checks += want
    assert checks > 100  # the loop reaches cyclic candidates, not only safe ones


def random_slots(rng: random.Random) -> tuple[list[int], int]:
    """The first candidate of each of 1 to 30 slots laid end to end, and the
    candidate count; a slot holds 1 to 6 candidates, one in about a third
    of the slots."""
    starts, n = [], 0
    for _ in range(rng.randint(1, 30)):
        starts.append(n)
        n += 1 if rng.random() < 1 / 3 else rng.randint(2, 6)
    return starts, n


def test_slot_of_and_first_maxima_match_a_scan():
    """Seeded random slots, scored with few distinct values so that most
    slots tie at their maximum, some several times."""
    rng = random.Random(61)
    ties = 0
    for _ in range(300):
        starts, n = random_slots(rng)
        score = [float(rng.randint(-2, 2)) for _ in range(n)]
        starts_array = np.array(starts, dtype=np.int32)
        assert slot_of(starts_array, n).tolist() == reference_slot_of(starts, n)
        want = reference_first_maxima(score, starts)
        top, first = first_maxima(np.array(score), starts_array, slot_of(starts_array, n))
        assert first.tolist() == want and top.tolist() == [score[k] for k in want]
        ties += sum(score.count(score[k]) > 1 for k in want)
    assert ties > 1000


def _scores(doc, table):
    return scores_over(doc, lambda slot, cands: [table[(slot.child, slot.slot)].get(c, -10.0)
                                                 for c in cands])


def test_decode_single_timex():
    doc = make_doc({
        "id": "g2", "dct": "2021-01-01",
        "sentences": [{"index": 0, "tokens": ["x"]}],
        "mentions": [{"id": "t1", "kind": "timex", "sentence": 0,
                      "start": 0, "end": 1}],
        "edges": [{"child": "t1", "slot": "timex_ref", "parent": "DCT"}],
    })
    scores = _scores(doc, {("t1", "timex_ref"): {"DCT": 0.9, "ROOT": 0.1}})
    graph = greedy_decode(doc, scores)
    assert graph.edges[Slot("t1", "timex_ref")] == "DCT"


def test_decode_document_without_mentions():
    doc = make_doc({"id": "g0", "dct": "2021-01-01",
                    "sentences": [{"index": 0, "tokens": ["x"]}], "mentions": [], "edges": []})
    assert greedy_decode(doc, _scores(doc, {})) == TemporalDependencyGraph("g0", {})


def test_decode_mutual_events_break_cycle():
    # e1's best pick lands first; e2's best pick would close the cycle
    doc = make_doc({
        "id": "g3", "dct": "2021-01-01",
        "sentences": [{"index": 0, "tokens": ["a", "b"]}],
        "mentions": [
            {"id": "e1", "kind": "event", "sentence": 0, "start": 0, "end": 1},
            {"id": "e2", "kind": "event", "sentence": 0, "start": 1, "end": 2},
        ],
        "edges": [
            {"child": "e1", "slot": "timex_ref", "parent": "DCT"},
            {"child": "e2", "slot": "timex_ref", "parent": "DCT"},
            {"child": "e1", "slot": "event_ref", "parent": "e2"},
        ],
    })
    scores = _scores(doc, {
        ("e1", "timex_ref"): {"DCT": 0.0},
        ("e2", "timex_ref"): {"DCT": 0.0},
        ("e1", "event_ref"): {"e2": 0.9, "NO_EVENT": 0.2},
        ("e2", "event_ref"): {"e1": 0.8, "NO_EVENT": 0.1},
    })
    graph = greedy_decode(doc, scores)
    assert graph.edges[Slot("e1", "event_ref")] == "e2"
    assert graph.edges[Slot("e2", "event_ref")] == "NO_EVENT"


def test_decode_three_timex_chain():
    # top picks form t1->t2->t3->t1; the lowest-scored slot falls back
    doc = make_doc({
        "id": "g4", "dct": "2021-01-01",
        "sentences": [{"index": 0, "tokens": ["a", "b", "c"]}],
        "mentions": [
            {"id": "t1", "kind": "timex", "sentence": 0, "start": 0, "end": 1},
            {"id": "t2", "kind": "timex", "sentence": 0, "start": 1, "end": 2},
            {"id": "t3", "kind": "timex", "sentence": 0, "start": 2, "end": 3},
        ],
        "edges": [
            {"child": "t1", "slot": "timex_ref", "parent": "DCT"},
            {"child": "t2", "slot": "timex_ref", "parent": "t1"},
            {"child": "t3", "slot": "timex_ref", "parent": "t1"},
        ],
    })
    scores = _scores(doc, {
        ("t1", "timex_ref"): {"t2": 0.9, "DCT": 0.5},
        ("t2", "timex_ref"): {"t3": 0.8, "ROOT": 0.4},
        ("t3", "timex_ref"): {"t1": 0.7, "DCT": 0.6},
    })
    graph = greedy_decode(doc, scores)
    assert graph.edges[Slot("t1", "timex_ref")] == "t2"
    assert graph.edges[Slot("t2", "timex_ref")] == "t3"
    assert graph.edges[Slot("t3", "timex_ref")] == "DCT"


def test_decode_order_flag_changes_result():
    # in document order e1 grabs e2 first; by score e2 moves first
    doc = make_doc({
        "id": "g5", "dct": "2021-01-01",
        "sentences": [{"index": 0, "tokens": ["a", "b"]}],
        "mentions": [
            {"id": "e1", "kind": "event", "sentence": 0, "start": 0, "end": 1},
            {"id": "e2", "kind": "event", "sentence": 0, "start": 1, "end": 2},
        ],
        "edges": [
            {"child": "e1", "slot": "timex_ref", "parent": "DCT"},
            {"child": "e2", "slot": "timex_ref", "parent": "DCT"},
        ],
    })
    scores = _scores(doc, {
        ("e1", "timex_ref"): {"DCT": -1.0},
        ("e2", "timex_ref"): {"DCT": -1.0},
        ("e1", "event_ref"): {"e2": 0.5, "NO_EVENT": 0.0},
        ("e2", "event_ref"): {"e1": 0.9, "NO_EVENT": 0.0},
    })
    by_score = greedy_decode(doc, scores, order="score")
    by_doc = greedy_decode(doc, scores, order="document")
    assert by_score.edges[Slot("e2", "event_ref")] == "e1"
    assert by_score.edges[Slot("e1", "event_ref")] == "NO_EVENT"
    assert by_doc.edges[Slot("e1", "event_ref")] == "e2"
    assert by_doc.edges[Slot("e2", "event_ref")] == "NO_EVENT"
    with pytest.raises(GraphError, match="unknown decode order"):
        greedy_decode(doc, scores, order="best")


def test_decode_matches_reference_oracle():
    rng = random.Random(11)
    for trial in range(50):
        doc = random_document(rng, max_mentions=4, doc_id=f"o{trial}")
        scores = random_scores(rng, doc)
        for order in ("score", "document"):
            got = greedy_decode(doc, scores, order=order)
            want = reference_decode(doc, scores, order=order)
            assert {(s.child, s.slot): p for s, p in got.edges.items()} == want


def _scored(doc):
    """A scorer's SlotScores for doc, from a small untrained model."""
    model = initialized_model(ModelConfig(dim=2, hidden=2),
                              build_vocabulary([doc]), seed=0)
    return model.score_document(doc)


def test_slot_scores_decode_like_the_reference():
    rng = random.Random(31)
    overridden = 0
    for trial in range(300):
        doc = random_document(rng, max_mentions=6, doc_id=f"s{trial}")
        layout = _scored(doc).layout
        # integer scores tie often; lifting every mention candidate above the
        # meta nodes makes top picks close cycles
        digits = rng.choice([0, 0, 2])
        score = np.array([round(rng.uniform(-3, 3), digits) for _ in layout.cand])
        if rng.random() < 0.5:
            score[layout.cand >= len(META)] += 10.0
        flat = SlotScores(layout, score)
        as_dict = dict(flat.items())
        assert list(as_dict) == slot_instances(doc)
        for slot, scored in as_dict.items():
            assert scored.candidates == candidate_set(doc, slot)
        for order in ("score", "document"):
            want = reference_decode(doc, as_dict, order=order)
            got = greedy_decode(doc, flat, order=order)
            assert {(s.child, s.slot): p for s, p in got.edges.items()} == want
            overridden += sum(as_dict[s].ranked()[0][0] != p for s, p in got.edges.items())
    assert overridden > 100


def test_a_run_decodes_as_its_documents_do_alone():
    """greedy_positions over a lay_out run of documents, in one call, gives
    each document the positions it gets decoded alone, whose parents are
    the reference's. Half the documents have their mention candidates
    lifted above the meta nodes, so that first maxima close cycles.
    Validation decodes its runs this way."""
    rng = random.Random(37)
    docs = [random_document(rng, max_mentions=6, doc_id=f"r{i}") for i in range(300)]
    scores = [random_scores(rng, doc) for doc in docs]
    for flat in scores:
        if rng.random() < 0.5:
            flat.score[flat.layout.cand >= len(META)] += 10.0
    vocab = build_vocabulary(docs)
    runs = list(lay_out(_index_document(doc, vocab) for doc in docs))
    assert len(runs) > 1 and len(runs[0][0]) > 10  # runs of many documents
    overridden = 0
    for order in DECODE_ORDERS:
        k = 0  # the run's first document
        for run, batch in runs:
            values = np.concatenate([flat.score for flat in scores[k:k + len(run)]])
            got = greedy_positions(values, batch.starts, batch.cand_slot, batch.slot_child,
                                   batch.cand, order)
            lo = s_lo = 0
            for doc, flat in zip(docs[k:k + len(run)], scores[k:k + len(run)]):
                layout = flat.layout
                alone = greedy_positions(flat.score, layout.starts, layout.cand_slot,
                                         layout.slot_child, layout.cand, order)
                assert (got[s_lo:s_lo + len(alone)] - lo).tolist() == alone.tolist()
                parents = [layout.names[c] for c in layout.cand[alone].tolist()]
                want = reference_decode(doc, dict(flat.items()), order=order)
                assert dict(zip(layout.slots, parents)) == want
                overridden += int(np.count_nonzero(
                    alone != first_maxima(flat.score, layout.starts, layout.cand_slot)[1]))
                lo += len(flat.score)
                s_lo += len(alone)
            k += len(run)
    assert k == len(docs) and overridden > 100


def test_slot_scores_checks():
    doc = two_timex_doc()
    scores = _scored(doc)
    t1 = Slot("t1", "timex_ref")
    assert len(scores) == 4 and list(scores) == slot_instances(doc)
    assert t1 in scores and ("t1", "timex_ref") in scores
    assert Slot("t1", "event_ref") not in scores
    assert scores[t1].candidates == ["DCT", "ROOT", "t2"]
    assert scores[t1].scores == scores.score[:3].tolist()
    with pytest.raises(KeyError):
        scores[Slot("t1", "event_ref")]
    greedy_decode(doc, scores)
    with pytest.raises(GraphError, match="built for another document object"):
        greedy_decode(two_timex_doc(), scores)
    layout = scores.layout
    for bad in (float("nan"), float("inf"), -float("inf")):
        score = scores.score.copy()
        score[2] = bad
        with pytest.raises(GraphError, match=r"slot Slot\(child='t1', slot='timex_ref'\): "
                                             r"candidate t2 has a non-finite score"):
            SlotScores(layout, score)
    with pytest.raises(GraphError, match="9 scores for 10 candidates"):
        SlotScores(layout, scores.score[:9])
    # bare arrays are not a layout: these would offer t1 the illegal parent e1
    with pytest.raises(GraphError, match="need a CandidateLayout"):
        SlotScores((doc, layout.slots, layout.names, layout.starts,
                    np.array([0, 1, 5, 0, 1, 3, 0, 3, 4, 2], dtype=np.int32)), scores.score)


def test_validate_graph_and_gold_graph(hand_corpus):
    for doc in hand_corpus:
        graph = gold_graph(doc)
        assert validate_graph(graph, doc) == []


def test_validate_graph_violations():
    doc = two_timex_doc()
    missing = TemporalDependencyGraph("g1", {Slot("t1", "timex_ref"): "DCT"})
    assert any("unfilled" in v for v in validate_graph(missing, doc))
    bad_parent = gold_graph(doc)
    bad_parent.edges[Slot("e1", "timex_ref")] = "ROOT"
    assert any("not a legal candidate" in v
               for v in validate_graph(bad_parent, doc))
    cyclic = gold_graph(doc)
    cyclic.edges[Slot("t1", "timex_ref")] = "t2"
    cyclic.edges[Slot("t2", "timex_ref")] = "t1"
    assert "edges form a cycle: t1 -> t2 -> t1" in validate_graph(cyclic, doc)


def test_scored_candidates_checks():
    slot = Slot("t1", "timex_ref")
    sc = ScoredCandidates(slot, ["DCT", "ROOT", "t2"], [0.1, 0.7, 0.7])
    assert sc.ranked() == [("ROOT", 0.7), ("t2", 0.7), ("DCT", 0.1)]


def test_slot_is_an_immutable_named_pair():
    slot = Slot("t1", "timex_ref")
    assert repr(slot) == "Slot(child='t1', slot='timex_ref')"
    assert f"slot {slot}" == "slot Slot(child='t1', slot='timex_ref')"
    assert (slot.child, slot.slot) == ("t1", "timex_ref")
    assert slot == Slot(child="t1", slot="timex_ref") == ("t1", "timex_ref")
    assert slot != Slot("t1", "event_ref")
    assert hash(slot) == hash(Slot("t1", "timex_ref")) == hash(("t1", "timex_ref"))
    table = {slot: "DCT", Slot("e1", "timex_ref"): "t1"}
    assert table[Slot("t1", "timex_ref")] == "DCT"
    assert table[("e1", "timex_ref")] == "t1"
    assert Slot("e1", "event_ref") not in table
    with pytest.raises(AttributeError):
        slot.child = "t2"


def test_decode_ranks_only_the_slots_it_overrides(monkeypatch):
    """A slot's candidates are ranked only when its first maximum closes a
    cycle, so exactly for the slots whose final choice differs from their
    first maximum: none on a document whose first-maximum graph is acyclic,
    and never every chain slot."""
    ranked = []

    def counting(score, lo, hi):
        ranked.append(int(lo))
        return rank(score, lo, hi)

    rank = graph_module._ranked
    monkeypatch.setattr(graph_module, "_ranked", counting)
    rng = random.Random(23)
    overridden = acyclic = 0
    for trial in range(200):
        doc = random_document(rng, max_mentions=8, doc_id=f"c{trial}")
        scores = random_scores(rng, doc)
        if trial % 2:  # mention parents above the meta ones: most first maxima cycle
            scores.score[scores.layout.cand >= len(META)] += 10.0
        for order in ("score", "document"):
            ranked.clear()
            graph = greedy_decode(doc, scores, order=order)
            departs = [i for i, slot in enumerate(scores.layout.slots)
                       if graph.edges[slot] != scores[slot].ranked()[0][0]]
            assert sorted(int(scores.layout.cand_slot[lo]) for lo in ranked) == departs
            overridden += len(departs)
            acyclic += not departs
    assert overridden > 100 and acyclic > 100


def test_graph_json_round_trip(hand_corpus):
    doc = hand_corpus[0]
    graph = gold_graph(doc)
    obj = graph_to_json(graph, doc)
    # canonical edge order, no labels
    assert [e["child"] for e in obj["edges"]] == ["e1", "e1", "t1", "e2", "e2", "t2"]
    assert all("label" not in e for e in obj["edges"])
    again = graph_from_json(json.loads(json.dumps(obj)), doc)
    assert again.edges == graph.edges
    with pytest.raises(GraphError):
        graph_from_json({"id": doc.id, "edges": obj["edges"][:2]}, doc)
    with pytest.raises(GraphError, match=re.escape(
            f"document {doc.id}: duplicate edge for Slot(child='e1', slot='timex_ref')")):
        graph_from_json({"id": doc.id, "edges": obj["edges"] + obj["edges"][:1]}, doc)
    # a prediction for another document is refused, even where that document
    # has the same mention ids and kinds and so the same legal edges
    twin = dataclasses.replace(doc, id="other")
    assert validate_graph(graph, twin) == []
    with pytest.raises(GraphError, match=re.escape(
            f"document other: the prediction is for document {doc.id}")):
        graph_from_json(obj, twin)
    # edge names are not coerced: only the document's string ids and the meta
    # nodes pass, and an unhashable name is refused like any other
    for key, value in [("parent", ["t1"]), ("parent", {"t1": 1}), ("child", ["e1"]),
                       ("parent", None), ("slot", 0), ("child", 1)]:
        edges = [dict(obj["edges"][0], **{key: value})] + obj["edges"][1:]
        with pytest.raises(GraphError, match=f"^document {doc.id}: "):
            graph_from_json({"id": doc.id, "edges": edges}, doc)
