"""The benchmark's hooks still find every package name they patch.

``perfbench/tracing.py`` and the host-speed probes in ``perfbench/run.py``
replace package functions by name; a rename in the package would otherwise
only show when a traced benchmark run fails.
"""

import ast
import importlib.util
import json
import math
import os
import sys
from pathlib import Path

import pytest

from tdgparse import analysis, cli, corpus, evaluation, graph, scorer, training
from tdgparse.synth import SynthConfig, generate_synthetic_corpus

from .conftest import initialized_model, make_doc, mixed_document
from .oracles import gold_graph, scores_over

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def perfbench_modules(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import hostspeed
    import tracing
    yield tracing, hostspeed
    for name in ("tracing", "hostspeed"):
        sys.modules.pop(name, None)


def test_tracer_patches_and_restores_every_name(perfbench_modules):
    tracing, _ = perfbench_modules
    tracer = tracing.Tracer()
    tracer.install()
    try:
        patched = [(owner, attr) for owner, attr, _ in tracer._patched]
        assert (graph, "candidate_set") in patched
        assert (scorer, "candidate_set") in patched
        assert (training, "greedy_decode") in patched
        assert (graph, "would_create_cycle") in patched
        originals = [original for _, _, original in tracer._patched]

        # a traced decode runs the hooks that read ScoredCandidates
        doc = make_doc({
            "id": "d", "dct": "2021-01-01",
            "sentences": [{"index": 0, "tokens": ["monday", "fire"]}],
            "mentions": [
                {"id": "t1", "kind": "timex", "sentence": 0, "start": 0, "end": 1},
                {"id": "e1", "kind": "event", "sentence": 0, "start": 1, "end": 2},
            ],
            "edges": [{"child": "t1", "slot": "timex_ref", "parent": "DCT"},
                      {"child": "e1", "slot": "timex_ref", "parent": "t1"}],
        })
        model = initialized_model(
            scorer.ModelConfig(dim=2, hidden=2), scorer.build_vocabulary([doc]), seed=0)
        scores = model.score_document(doc)
        assert isinstance(scores, graph.SlotScores)
        decoded = graph.greedy_decode(doc, scores)
        metrics = tracer.layer_metrics()
        assert metrics["graph.slots_decoded"] == len(decoded.edges) == 3
        assert metrics["scorer.candidates_scored"] == 2 + 2 + 1
        assert metrics["graph.cycle_override_ratio"] == 0.0

        # the hooks read overrides from the SlotScores a decode is given:
        # t1 and t2 each rank the other first, so the second slot visited
        # (t2, by its lower top score) falls back to DCT
        two = make_doc({
            "id": "c", "dct": "2021-01-01",
            "sentences": [{"index": 0, "tokens": ["monday", "today"]}],
            "mentions": [
                {"id": "t1", "kind": "timex", "sentence": 0, "start": 0, "end": 1},
                {"id": "t2", "kind": "timex", "sentence": 0, "start": 1, "end": 2},
            ],
            "edges": [{"child": "t1", "slot": "timex_ref", "parent": "DCT"},
                      {"child": "t2", "slot": "timex_ref", "parent": "DCT"}],
        })
        model.score_document(two)  # candidates DCT, ROOT, other timex
        cyclic = scores_over(two, lambda slot, cands: {"t1": [0.0, 0.0, 2.0],
                                                       "t2": [0.5, 0.0, 1.0]}[slot.child])
        decoded = graph.greedy_decode(two, cyclic)
        assert decoded.edges == {graph.Slot("t1", "timex_ref"): "t2",
                                 graph.Slot("t2", "timex_ref"): "DCT"}
        metrics = tracer.layer_metrics()
        assert metrics["scorer.candidates_scored"] == 5 + 3 + 3
        assert metrics["graph.slots_decoded"] == 3 + 2
        assert metrics["graph.cycle_override_ratio"] == 1 / 5
    finally:
        tracer.uninstall()
    for (owner, attr), original in zip(patched, originals):
        assert getattr(owner, attr) is original


def test_traced_evaluation_records_a_span_per_layer(perfbench_modules):
    """Reading predictions back, scoring and tabulating them each record a
    nonzero span, validate_graph's inside graph_from_json's, so inlining a
    layer into its caller cannot silently zero its per-layer metric."""
    tracing, _ = perfbench_modules
    docs, labels = generate_synthetic_corpus(SynthConfig(n_docs=3), seed=1)
    objs = [graph.graph_to_json(gold_graph(doc), doc) for doc in docs]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        preds = {doc.id: graph.graph_from_json(obj, doc) for doc, obj in zip(docs, objs)}
        assert evaluation.partitioned_prf(preds, docs).accuracy == 1.0
        analysis.all_tables(docs, labels)
        metrics = tracer.layer_metrics()
    finally:
        tracer.uninstall()
    calls = {"graph.graph_from_json": 3, "graph.validate_graph": 3,
             "evaluation.partitioned_prf": 1, "analysis.all_tables": 1}
    for name, n in calls.items():
        assert tracer.totals[name][0] == n and tracer.totals[name][1] > 0, name
    for name in ("graph.validate_graph_s", "evaluation.partitioned_prf_s",
                 "analysis.all_tables_s"):
        assert metrics[name] > 0, name
    names = {span[0]: span[3] for span in tracer.spans}
    assert [names[span[1]] for span in tracer.spans
            if span[3] == "graph.validate_graph"] == ["graph.graph_from_json"] * 3


@pytest.mark.parametrize("variant", ["baseline", "dp_distill"])
def test_traced_training_passes_every_batch_through_the_patched_names(
        perfbench_modules, variant):
    """The epoch layout still hands every batch's documents to the loss
    methods and every step to training.adamw_step, where the tracer and the
    host-speed probes patch them."""
    tracing, _ = perfbench_modules
    corpus, labels = generate_synthetic_corpus(SynthConfig(n_docs=7), seed=3)
    config = training.TrainConfig(variant=variant, max_epochs=2, warmup_epochs=1,
                                  batch_size_docs=3, dim=4, hidden=4, seeds=(0,))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        training.train(config, corpus, corpus, labels, seed=0)
        metrics = tracer.layer_metrics()
    finally:
        tracer.uninstall()
    slots = sum(len(graph.slot_instances(doc)) for doc in corpus)
    steps_per_batch = 2 if variant == "dp_distill" else 1
    assert metrics["scorer.ranking_slots"] == slots * config.max_epochs
    assert metrics["training.adamw_step_calls"] == (
        math.ceil(len(corpus) / config.batch_size_docs) * steps_per_batch * config.max_epochs)


def _probing_calls():
    """(owner module, names) of every ``probing(...)`` call in perfbench/run.py."""
    tree = ast.parse((PERFBENCH / "run.py").read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "probing"):
            owner, *names = node.args
            yield owner.id, [name.value for name in names]


def test_host_clock_probing_targets_exist(perfbench_modules):
    _, hostspeed = perfbench_modules
    calls = list(_probing_calls())
    assert ("training", ["adamw_step", "greedy_decode"]) in calls
    modules = {"graph": graph, "scorer": scorer, "training": training}
    clock = hostspeed.HostClock(enabled=True)
    for owner, names in calls:
        module = modules[owner]
        originals = [getattr(module, name) for name in names]
        with clock.probing(module, *names):
            assert all(getattr(module, name) is not fn
                       for name, fn in zip(names, originals))
        assert [getattr(module, name) for name in names] == originals


@pytest.fixture
def perfbench_run():
    """perfbench/run.py imported as it stands, which sets a BLAS variable and
    puts src/ on sys.path; os.environ and sys.path are restored afterwards."""
    environ, path = os.environ.copy(), sys.path[:]
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
        run = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run)
        yield run
    finally:
        os.environ.clear()
        os.environ.update(environ)
        sys.path[:] = path
        for name in ("tracing", "hostspeed"):
            sys.modules.pop(name, None)


@pytest.mark.parametrize("variant", scorer.VARIANTS)
def test_benchmark_request_writes_the_cli_line(perfbench_run, variant, tmp_path):
    """The benchmark's one-document request gives each document the line
    `tdgparse predict` writes for it, in both decode orders, on a seeded
    synth corpus and mixed_document (more than BLOCK_CANDIDATES
    candidates), dp_feature reading --dp-labels."""
    raw = json.loads(perfbench_run.SYNTH_CONFIG.read_text(encoding="utf-8"))
    raw["n_docs"] = 20
    docs, labels = generate_synthetic_corpus(SynthConfig.from_json(raw), seed=7)
    mixed, mixed_labels = mixed_document()
    docs, labels = docs + [mixed], {**labels, **mixed_labels}
    corpus.write_corpus(docs, tmp_path / "corpus.jsonl")
    corpus.write_dp_labels(labels, docs, tmp_path / "labels.tsv")
    model = initialized_model(scorer.ModelConfig(dim=4, hidden=3, variant=variant),
                              scorer.build_vocabulary(docs), seed=1)
    scorer.save_checkpoint(model, tmp_path / "checkpoint.json")

    model = scorer.load_checkpoint(tmp_path / "checkpoint.json")
    docs = corpus.parse_corpus(tmp_path / "corpus.jsonl")
    labels = (corpus.load_dp_labels(tmp_path / "labels.tsv", docs)
              if variant == "dp_feature" else None)
    flags = ["--dp-labels", str(tmp_path / "labels.tsv")] if variant == "dp_feature" else []
    for order in graph.DECODE_ORDERS:
        out = tmp_path / order
        assert cli.main(["predict", "--checkpoint", str(tmp_path / "checkpoint.json"),
                         "--corpus", str(tmp_path / "corpus.jsonl"), *flags,
                         "--decode-order", order, "--out", str(out)]) == 0
        lines = (out / "predictions.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
        assert lines == [perfbench_run.request(model, doc, labels, order) + "\n"
                         for doc in docs], order
