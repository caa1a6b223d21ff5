import json
import random
import re
import statistics

import pytest

from tdgparse.cli import main
from tdgparse.corpus import Document, GoldEdge, Mention, Sentence, validate_document, write_corpus
from tdgparse.evaluation import (
    CategoryMetrics,
    EvaluationError,
    MetricsReport,
    aggregate_to_json,
    attachment_accuracy,
    corpus_identity,
    partitioned_prf,
    report_to_json,
)
from tdgparse.graph import Slot, TemporalDependencyGraph, graph_to_json
from tdgparse.scorer import _index_document, _with_gold, build_vocabulary

from .conftest import ONE_TIMEX_DOC, make_doc
from .oracles import (
    brute_force_metrics,
    gold_graph,
    gold_parents,
    random_document,
    random_pred_graph,
    slot_category,
)


def three_timex_doc(gold=("DCT", "t1", "t1")):
    g1, g2, g3 = gold
    return make_doc({
        "id": "m1", "dct": "2021-01-01",
        "sentences": [{"index": 0, "tokens": ["a", "b"]},
                      {"index": 1, "tokens": ["c"]}],
        "mentions": [
            {"id": "t1", "kind": "timex", "sentence": 0, "start": 0, "end": 1},
            {"id": "t2", "kind": "timex", "sentence": 0, "start": 1, "end": 2},
            {"id": "t3", "kind": "timex", "sentence": 1, "start": 0, "end": 1},
        ],
        "edges": [
            {"child": "t1", "slot": "timex_ref", "parent": g1},
            {"child": "t2", "slot": "timex_ref", "parent": g2},
            {"child": "t3", "slot": "timex_ref", "parent": g3},
        ],
    })


def graph_for(doc, parents):
    return TemporalDependencyGraph(doc.id, {
        Slot(child, "timex_ref"): parent for child, parent in parents.items()
    })


def test_slot_category():
    doc = three_timex_doc()
    assert slot_category(doc, "t1", "DCT") == "no_parent"
    assert slot_category(doc, "t1", "ROOT") == "no_parent"
    assert slot_category(doc, "t2", "t1") == "intra_sentence"
    assert slot_category(doc, "t3", "t1") == "cross_sentence"
    with pytest.raises(EvaluationError, match="unknown parent"):
        slot_category(doc, "t1", "t9")


def test_accuracy_identity(hand_corpus):
    preds = {doc.id: gold_graph(doc) for doc in hand_corpus}
    assert attachment_accuracy(preds, hand_corpus) == 1.0


def test_accuracy_counts_exact_matches():
    doc = make_doc({
        "id": "m2", "dct": "2021-01-01",
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
    pred = TemporalDependencyGraph(doc.id, {
        Slot("t1", "timex_ref"): "DCT",       # hit
        Slot("t2", "timex_ref"): "ROOT",      # miss
        Slot("e1", "timex_ref"): "t2",        # miss
        Slot("e1", "event_ref"): "NO_EVENT",  # hit (normalized gold)
    })
    assert attachment_accuracy({doc.id: pred}, [doc]) == 0.5


def test_wrong_meta_parent_scores_zero():
    doc = make_doc({
        "id": "m3", "dct": "2021-01-01",
        "sentences": [{"index": 0, "tokens": ["a"]}],
        "mentions": [{"id": "t1", "kind": "timex", "sentence": 0,
                      "start": 0, "end": 1}],
        "edges": [{"child": "t1", "slot": "timex_ref", "parent": "DCT"}],
    })
    preds = {doc.id: graph_for(doc, {"t1": "ROOT"})}
    assert attachment_accuracy(preds, [doc]) == 0.0
    report = partitioned_prf(preds, [doc])
    no_parent = report.per_category["no_parent"]
    assert (no_parent.gold, no_parent.predicted, no_parent.correct) == (1, 1, 0)
    assert no_parent.f1 == 0.0
    # the other two categories are empty on both sides
    assert sorted(report.flags) == [
        "cross_sentence:precision_undefined",
        "cross_sentence:recall_undefined",
        "intra_sentence:precision_undefined",
        "intra_sentence:recall_undefined",
    ]


def test_partitioned_three_timex_fixture():
    doc = three_timex_doc()
    preds = {doc.id: graph_for(doc, {"t1": "t3", "t2": "t1", "t3": "DCT"})}
    report = partitioned_prf(preds, [doc], seed=0)
    assert report.accuracy == pytest.approx(1 / 3)
    assert report.total_slots == 3
    intra = report.per_category["intra_sentence"]
    assert (intra.precision, intra.recall, intra.f1) == (1.0, 1.0, 1.0)
    cross = report.per_category["cross_sentence"]
    assert (cross.gold, cross.predicted, cross.correct) == (1, 1, 0)
    assert (cross.precision, cross.recall, cross.f1) == (0.0, 0.0, 0.0)
    nop = report.per_category["no_parent"]
    assert (nop.gold, nop.predicted, nop.correct) == (1, 1, 0)
    assert report.flags == []

    obj = report_to_json(report)
    assert obj["accuracy"] == 33.33
    assert obj["per_category"]["intra_sentence"]["f1"] == 100.0
    assert obj["per_category"]["cross_sentence"]["p"] == 0.0
    assert obj["seed"] == 0


def test_undefined_denominators_are_flagged():
    doc = three_timex_doc(gold=("DCT", "DCT", "DCT"))
    preds = {doc.id: graph_for(doc, {"t1": "DCT", "t2": "t1", "t3": "t1"})}
    report = partitioned_prf(preds, [doc])
    assert sorted(report.flags) == [
        "cross_sentence:recall_undefined",
        "intra_sentence:recall_undefined",
    ]
    assert report.per_category["intra_sentence"].recall == 0.0
    assert report.per_category["no_parent"].precision == 1.0
    assert report.per_category["no_parent"].recall == pytest.approx(1 / 3)

    swapped = partitioned_prf({doc.id: graph_for(
        doc, {"t1": "DCT", "t2": "DCT", "t3": "DCT"})}, [doc])
    assert "intra_sentence:precision_undefined" in swapped.flags


def test_predictions_must_cover_the_corpus():
    doc = three_timex_doc()
    with pytest.raises(EvaluationError, match="no prediction"):
        attachment_accuracy({}, [doc])
    partial = graph_for(doc, {"t1": "DCT", "t2": "t1"})
    with pytest.raises(EvaluationError, match="missing prediction"):
        attachment_accuracy({doc.id: partial}, [doc])


def test_an_unknown_parent_name_fails_in_both_counts():
    """attachment_accuracy is partitioned_prf's accuracy, so a predicted
    parent that names no mention of the document raises in both."""
    doc = three_timex_doc()
    preds = {doc.id: graph_for(doc, {"t1": "DCT", "t2": "t9", "t3": "DCT"})}
    for count in (attachment_accuracy, partitioned_prf):
        with pytest.raises(EvaluationError, match=f"document {doc.id}: unknown parent 't9'"):
            count(preds, [doc])


def test_a_gold_slot_without_an_edge_or_with_an_unknown_parent_fails():
    """A gold document built directly, here an event without its event_ref
    edge, raises EvaluationError naming the document and the slot; a gold
    parent that names no mention raises naming the parent."""
    def event_doc(edges):
        return Document("d", "DCT", [Sentence(0, ("a", "b"))],
                        [Mention("e1", "event", 0, 0, 1)], edges)

    pred = {"d": TemporalDependencyGraph("d", {Slot("e1", "timex_ref"): "DCT",
                                               Slot("e1", "event_ref"): "NO_EVENT"})}
    bare = event_doc([GoldEdge("e1", "timex_ref", "DCT")])
    stray = event_doc([GoldEdge("e1", "timex_ref", "DCT"), GoldEdge("e1", "event_ref", "e9")])
    for count in (attachment_accuracy, partitioned_prf):
        with pytest.raises(EvaluationError, match=r"^document d: slot "
                           r"Slot\(child='e1', slot='event_ref'\) has no gold edge$"):
            count(pred, [bare])
        with pytest.raises(EvaluationError, match="^document d: unknown parent 'e9'$"):
            count(pred, [stray])


def test_a_documents_first_faulty_slot_names_the_error():
    """Slot by slot, in slot_instances order, the first fault raises: a
    missing prediction before its own slot's gold fault, a predicted parent
    that names no mention before a later slot's gold fault."""
    doc = Document("d", "DCT", [Sentence(0, ("a", "b"))], [Mention("e1", "event", 0, 0, 1)],
                   [GoldEdge("e1", "timex_ref", "DCT")])  # event_ref has no gold edge
    cases = [({"timex_ref": "t9", "event_ref": "NO_EVENT"}, "unknown parent 't9'"),
             ({"event_ref": "NO_EVENT"},
              "missing prediction for slot Slot(child='e1', slot='timex_ref')"),
             ({"timex_ref": "DCT"},
              "missing prediction for slot Slot(child='e1', slot='event_ref')"),
             ({"timex_ref": "DCT", "event_ref": "NO_EVENT"},
              "slot Slot(child='e1', slot='event_ref') has no gold edge")]
    for parents, error in cases:
        pred = {"d": TemporalDependencyGraph("d", {Slot("e1", slot): parent
                                                   for slot, parent in parents.items()})}
        with pytest.raises(EvaluationError, match=f"^document d: {re.escape(error)}$"):
            partitioned_prf(pred, [doc])


def test_a_gold_mention_of_unknown_kind_fails():
    """A gold document built directly with a mention of a kind that owns no
    slots raises EvaluationError naming the document and the mention."""
    doc = Document("d", "DCT", [Sentence(0, ("a", "b"))],
                   [Mention("t1", "timex", 0, 0, 1), Mention("x1", "bogus", 0, 1, 2)],
                   [GoldEdge("t1", "timex_ref", "DCT")])
    pred = {"d": TemporalDependencyGraph("d", {Slot("t1", "timex_ref"): "DCT"})}
    for count in (attachment_accuracy, partitioned_prf):
        with pytest.raises(EvaluationError,
                           match="^document d: mention x1 has unknown kind 'bogus'$"):
            count(pred, [doc])


def fake_report(accuracy, corpus="deadbeef", seed=0):
    cats = {c: CategoryMetrics(gold=10, predicted=10, correct=int(10 * accuracy),
                               precision=accuracy, recall=accuracy, f1=accuracy)
            for c in ("intra_sentence", "cross_sentence", "no_parent")}
    return MetricsReport(corpus=corpus, seed=seed, accuracy=accuracy,
                         total_slots=30, per_category=cats)


def test_aggregate_mean_and_sample_std():
    reports = [fake_report(a, seed=i) for i, a in enumerate((0.7, 0.8, 0.9))]
    agg = aggregate_to_json(reports)
    assert agg["accuracy"]["mean"] == pytest.approx(80.0)
    assert agg["accuracy"]["std"] == pytest.approx(10.0)
    assert agg["seeds"] == [0, 1, 2]
    assert agg["n_reports"] == 3
    assert agg["per_category"]["intra_sentence"]["f1"]["mean"] == pytest.approx(80.0)

    reordered = aggregate_to_json(list(reversed(reports)))
    assert reordered["accuracy"]["mean"] == pytest.approx(agg["accuracy"]["mean"])
    assert reordered["accuracy"]["std"] == pytest.approx(agg["accuracy"]["std"])

    single = aggregate_to_json([fake_report(0.75)])
    assert single["accuracy"] == {"mean": 75.0, "std": 0.0}

    assert agg["accuracy"] == {"mean": 80.0, "std": 10.0}
    assert agg["per_category"]["no_parent"]["gold"] == 10


def test_aggregate_rejects_mismatched_corpora():
    with pytest.raises(EvaluationError, match="different corpora"):
        aggregate_to_json([fake_report(0.5, corpus="aaa"),
                           fake_report(0.6, corpus="bbb")])
    with pytest.raises(EvaluationError, match="nothing"):
        aggregate_to_json([])


def test_evaluate_aggregate_matches_brute_force_recount(tmp_path):
    """Every field of metrics-aggregate.json, recounted from brute_force_metrics."""
    # at this seed two reports predict no intra_sentence slot and one no
    # cross_sentence slot, so the flags are a union of different sets
    rng = random.Random(51)
    corpus = [random_document(rng, max_mentions=4, doc_id=f"d{i}") for i in range(3)]
    gold = tmp_path / "gold.jsonl"
    write_corpus(corpus, gold)
    pred_files, recounts = [], []
    for seed in range(3):
        preds = {doc.id: random_pred_graph(rng, doc) for doc in corpus}
        path = tmp_path / f"pred{seed}.jsonl"
        path.write_text("".join(json.dumps(graph_to_json(preds[doc.id], doc)) + "\n"
                                for doc in corpus), encoding="utf-8")
        pred_files.append(str(path))
        recounts.append(brute_force_metrics(preds, corpus))
    out = tmp_path / "metrics"
    assert main(["evaluate", "--gold", str(gold), "--pred", *pred_files,
                 "--seeds", "4,5,6", "--variant", "v", "--aggregate", "--out", str(out)]) == 0
    agg = json.loads((out / "metrics-aggregate.json").read_text(encoding="utf-8"))

    def pct(values):
        return {"mean": round(100 * statistics.mean(values), 2),
                "std": round(100 * statistics.stdev(values), 2)}

    flags = set()
    for recount in recounts:
        for cat, counts in recount["per_category"].items():
            if not counts["predicted"]:
                flags.add(f"{cat}:precision_undefined")
            if not counts["gold"]:
                flags.add(f"{cat}:recall_undefined")
    assert flags == {"intra_sentence:precision_undefined", "cross_sentence:precision_undefined"}
    assert agg == {
        "corpus": corpus_identity(corpus), "variant": "v", "seed": "aggregate",
        "n_reports": 3, "seeds": [4, 5, 6],
        "accuracy": pct([recount["accuracy"] for recount in recounts]),
        "per_category": {
            cat: {**{key: pct([recount["per_category"][cat][key] for recount in recounts])
                     for key in ("p", "r", "f1")},
                  **{key: statistics.mean([recount["per_category"][cat][key]
                                           for recount in recounts])
                     for key in ("gold", "predicted", "correct")}}
            for cat in ("intra_sentence", "cross_sentence", "no_parent")},
        "flags": sorted(flags),
    }


def test_a_slot_with_two_gold_edges_takes_its_first():
    """The scorer trains toward, evaluation scores against and validation keeps
    the first of a slot's gold edges."""
    doc = make_doc({**ONE_TIMEX_DOC, "edges": [
        {"child": "t1", "slot": "timex_ref", "parent": "DCT"},
        {"child": "t1", "slot": "timex_ref", "parent": "ROOT"}]}, validate=False)
    assert validate_document(doc) == [
        "gold slot Slot(child='t1', slot='timex_ref'): more than one edge "
        "(parents DCT and ROOT)"]
    assert gold_parents(doc) == {("t1", "timex_ref"): "DCT"}
    assert doc.gold.parents == ("DCT",)
    idx = _with_gold(_index_document(doc, build_vocabulary([doc])))
    assert idx.layout.names[idx.cand[idx.gold[0]]] == "DCT"
    dct = TemporalDependencyGraph(doc.id, {Slot("t1", "timex_ref"): "DCT"})
    assert attachment_accuracy({doc.id: dct}, [doc]) == 1.0


def test_corpus_identity_tracks_doc_ids(hand_corpus):
    assert corpus_identity(hand_corpus) == corpus_identity(list(hand_corpus))
    assert corpus_identity(hand_corpus) != corpus_identity(hand_corpus[:2])


def test_matches_flat_recount_on_random_fixtures():
    rng = random.Random(3)
    for trial in range(20):
        corpus = [random_document(rng, max_mentions=8, doc_id=f"d{i}")
                  for i in range(3)]
        preds = {doc.id: random_pred_graph(rng, doc) for doc in corpus}
        want = brute_force_metrics(preds, corpus)
        report = partitioned_prf(preds, corpus)
        assert report.accuracy == pytest.approx(want["accuracy"])
        assert report.total_slots == want["total_slots"]
        for cat, w in want["per_category"].items():
            got = report.per_category[cat]
            assert (got.gold, got.predicted, got.correct) == \
                (w["gold"], w["predicted"], w["correct"])
            assert got.precision == pytest.approx(w["p"])
            assert got.recall == pytest.approx(w["r"])
            assert got.f1 == pytest.approx(w["f1"])
