import functools
import gc
import json
import math
import os
import platform
import re
import resource
import signal
import subprocess
import sys
import threading
import weakref
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from tdgparse import cli, graph, scorer, training
from tdgparse.corpus import (
    ContentType,
    DpLabelError,
    document_from_json,
    document_to_json,
    write_corpus,
)
from tdgparse.evaluation import attachment_accuracy
from tdgparse.graph import DECODE_ORDERS, GraphError, candidate_layout, greedy_decode
from tdgparse.synth import SynthConfig, generate_synthetic_corpus
from tdgparse.scorer import (
    ModelConfig,
    _index_document,
    save_checkpoint,
)
from tdgparse.training import (
    HEAP_THRESHOLDS,
    OptimizerState,
    TrainConfig,
    TrainingDiverged,
    Validation,
    adamw_step,
    decode_corpus,
    lr_at,
    train,
)

from .conftest import (
    clone_params,
    hand_dp_loss,
    hand_ranking_loss,
    initialized_model,
    make_doc,
    mixed_document,
)
from .oracles import reference_adamw_step, reference_train


def test_ranking_loss_hand_values():
    assert hand_ranking_loss(0.0) == pytest.approx(math.log(2), abs=1e-9)
    assert hand_ranking_loss(1.0) == pytest.approx(math.log1p(math.exp(-1)),
                                                   abs=1e-9)
    assert hand_ranking_loss(40.0) == pytest.approx(0.0, abs=1e-9)


def test_dp_loss_hand_values():
    flat = np.zeros(9)
    assert hand_dp_loss(flat, ContentType.M1) == pytest.approx(math.log(9), abs=1e-9)
    peaked = np.zeros(9)
    peaked[0] = 10.0
    assert hand_dp_loss(peaked, ContentType.M1) == pytest.approx(
        math.log1p(8 * math.exp(-10)), abs=1e-9)
    assert hand_dp_loss(peaked, ContentType.NA) == pytest.approx(
        10 + math.log1p(8 * math.exp(-10)), abs=1e-9)


def test_lr_schedule_exact_knee_and_endpoint():
    peak = 0.3
    assert lr_at(0, 20, 10, peak) == 0.0
    assert lr_at(10, 20, 10, peak) == peak
    assert lr_at(20, 20, 10, peak) == 0.0
    assert lr_at(5, 20, 10, peak) == peak * 0.5
    assert lr_at(15, 20, 10, peak) == peak * 0.5
    # piecewise linear in between
    for s in range(1, 10):
        assert lr_at(s, 20, 10, peak) == pytest.approx(peak * s / 10)
    with pytest.raises(ValueError, match="outside"):
        lr_at(21, 20, 10, peak)
    with pytest.raises(ValueError, match="warmup"):
        lr_at(0, 20, 0, peak)


def test_adamw_first_step_hand_value():
    theta = np.zeros(1)
    state = OptimizerState.for_params({"x": theta})
    adamw_step(theta, np.ones(1), state, lr=0.1)
    assert state.t == 1
    assert theta[0] == pytest.approx(-0.1 / (1 + 1e-8), abs=1e-9)


def test_adamw_decay_only():
    theta = np.ones(1)
    state = OptimizerState.for_params({"x": theta})
    adamw_step(theta, np.zeros(1), state, lr=0.1, weight_decay=0.01)
    assert theta[0] == pytest.approx(0.999, abs=1e-12)
    # without decay a zero gradient moves nothing
    theta2 = np.ones(1)
    adamw_step(theta2, np.zeros(1), OptimizerState.for_params({"x": theta2}), lr=0.1)
    assert theta2[0] == 1.0


def test_adamw_updates_in_place_and_counts_steps():
    theta = np.zeros(3)
    view = theta[1:]  # as RankingModel.params are views of RankingModel.flat
    state = OptimizerState.for_params({"x": theta})
    for expected_t in (1, 2, 3):
        adamw_step(theta, np.full(3, 0.5), state, lr=0.01)
        assert state.t == expected_t
    assert np.all(view < 0) and np.array_equal(view, theta[1:])
    with pytest.raises(TrainingDiverged, match="non-finite"):
        adamw_step(theta, np.array([1.0, np.nan, 0.0]), state, lr=0.01)


def _flat(params: dict) -> np.ndarray:
    return np.concatenate([np.ravel(a) for a in params.values()])


@pytest.mark.parametrize("weight_decay", [0.0, 0.01])
def test_flat_adamw_matches_per_parameter_reference(weight_decay):
    corpus, _ = generate_synthetic_corpus(SynthConfig(n_docs=2), seed=3)
    model = initialized_model(ModelConfig(dim=3, hidden=4),
                              scorer.build_vocabulary(corpus), seed=0)
    params, want = model.params, clone_params(model.params)
    assert params["b2"].ndim == 0 and params["embeddings"].ndim == 2
    state = OptimizerState.for_params(params)
    moments = {name: (np.zeros_like(a), np.zeros_like(a)) for name, a in want.items()}
    rng = np.random.default_rng(0)
    for t in range(1, 7):
        grads = {name: rng.normal(scale=10.0 ** -t, size=a.shape) for name, a in params.items()}
        lr = 0.05 * t
        adamw_step(model.flat, _flat(grads), state, lr, weight_decay=weight_decay)
        reference_adamw_step(want, grads, moments, t, lr, weight_decay=weight_decay)
        assert state.t == t
        for name in params:
            assert params[name].tobytes() == want[name].tobytes(), (t, name)
        for k, moment in enumerate((state.m, state.v)):
            assert moment.tobytes() == np.concatenate(
                [moments[name][k].ravel() for name in params]).tobytes()


def test_adamw_non_finite_gradient_changes_nothing():
    params = {"a": np.ones(3), "b": np.ones((2, 2)), "c": np.zeros(())}
    theta = _flat(params)
    state = OptimizerState.for_params(params)
    adamw_step(theta, np.full(theta.shape, 0.5), state, lr=0.1)
    before, m, v = theta.copy(), state.m.copy(), state.v.copy()
    grads = {"a": np.ones(3), "b": np.array([[1.0, np.nan], [0.0, 1.0]]), "c": np.array(np.inf)}
    with pytest.raises(TrainingDiverged, match="parameter 'b'"):
        adamw_step(theta, _flat(grads), state, lr=0.1)
    assert state.t == 1
    assert np.array_equal(state.m, m) and np.array_equal(state.v, v)
    assert np.array_equal(theta, before)


@pytest.mark.parametrize("update_order", list(training.UPDATE_PLANS))
@pytest.mark.parametrize("variant", scorer.VARIANTS)
def test_train_matches_reference_train(variant, update_order):
    """train()'s epoch layout, flat gradients and flat AdamW give, byte for
    byte, what per-batch losses from the documents alone and a per-tensor
    AdamW give; chain_document makes one batch span several blocks."""
    corpus, labels = validation_corpus()
    config = distill_train_config(variant=variant, update_order=update_order,
                                  max_epochs=3, warmup_epochs=1, batch_size_docs=4)
    model, history = train(config, corpus, corpus, labels, seed=0)
    want_model, want_history = reference_train(config, corpus, corpus, labels, seed=0)
    assert asdict(history) == asdict(want_history)
    for name in scorer.PARAM_ORDER:
        assert model.params[name].tobytes() == want_model.params[name].tobytes(), name


def test_train_config_validation():
    with pytest.raises(ValueError, match="warmup"):
        TrainConfig(max_epochs=3, warmup_epochs=5)
    with pytest.raises(ValueError, match="update order"):
        TrainConfig(update_order="alternating")
    with pytest.raises(ValueError, match="seed"):
        TrainConfig(seeds=())
    with pytest.raises(ValueError, match="peak_lr"):
        TrainConfig(peak_lr=0.0)
    # AdamW multiplies each parameter by 1 - lr * weight_decay at the peak
    with pytest.raises(ValueError, match=r"peak_lr \* weight_decay is 2\.5, above 2"):
        TrainConfig(peak_lr=5.0, weight_decay=0.5)
    assert TrainConfig(peak_lr=4.0, weight_decay=0.5).peak_lr == 4.0
    assert TrainConfig(peak_lr=2.0**70, weight_decay=0.0).peak_lr == 2.0**70


TAGS = ("M1", "M2", "C1", "C2", "D1", "D2", "D3", "D4", "NA")


def separable_corpora():
    base = dict(
        sentences_per_doc=(2, 3), mentions_per_sentence=(1, 2),
        timex_share=0.5,
        timex_parent_probs={t: (1.0, 0.0) for t in TAGS},
        event_timex_probs={t: (0.0, 1.0) for t in TAGS},
        refevent_prob=0.0, noise_vocab_size=20,
        noise_tokens_per_sentence=(1, 2))
    train_corpus, labels = generate_synthetic_corpus(
        SynthConfig(n_docs=40, **base), seed=1)
    raw_valid, raw_labels = generate_synthetic_corpus(
        SynthConfig(n_docs=10, **base), seed=2)
    valid_corpus = []
    for doc in raw_valid:
        obj = document_to_json(doc)
        obj["id"] = "v-" + obj["id"]
        valid_corpus.append(document_from_json(obj))
    labels.update({("v-" + d, s): ct for (d, s), ct in raw_labels.items()})
    return train_corpus, valid_corpus, labels


SMALL = dict(max_epochs=6, batch_size_docs=5, peak_lr=0.05, warmup_epochs=2,
             dim=8, hidden=16, seeds=(0,))


def test_train_learns_and_is_deterministic():
    train_corpus, valid_corpus, _ = separable_corpora()
    config = TrainConfig(variant="baseline", **SMALL)
    model_a, hist_a = train(config, train_corpus, valid_corpus, None, seed=0)
    model_b, hist_b = train(config, train_corpus, valid_corpus, None, seed=0)
    assert asdict(hist_a) == asdict(hist_b)
    for name in model_a.params:
        assert np.array_equal(model_a.params[name], model_b.params[name])

    losses = [e.ranking_loss for e in hist_a.epochs]
    assert losses[-1] < 0.5 * losses[0]
    assert all(e.dp_loss is None for e in hist_a.epochs)
    accs = [e.valid_accuracy for e in hist_a.epochs]
    assert hist_a.best_epoch == accs.index(max(accs))
    assert max(accs) > 0.7

    _, hist_c = train(config, train_corpus, valid_corpus, None, seed=1)
    assert asdict(hist_c) != asdict(hist_a)


def test_train_indexes_each_document_object_once(monkeypatch):
    """A validation corpus parsed apart from the training corpus shares its
    ids but not its objects; each object is indexed once for the whole run."""
    train_corpus, _, _ = separable_corpora()
    train_corpus = train_corpus[:8]
    valid_corpus = [document_from_json(document_to_json(doc)) for doc in train_corpus]
    indexed = []
    index_document = scorer._index_document

    def counting(doc, vocab, dp_labels=None):
        indexed.append(doc)
        return index_document(doc, vocab, dp_labels)

    monkeypatch.setattr(scorer, "_index_document", counting)
    train(TrainConfig(variant="baseline", **dict(SMALL, max_epochs=2, warmup_epochs=1)),
          train_corpus, valid_corpus, None, seed=0)
    assert len(indexed) == 2 * len(train_corpus)
    assert sorted(map(id, indexed)) == sorted(map(id, train_corpus + valid_corpus))


def test_dp_distill_trains_on_labels_that_cover_the_training_corpus_only(monkeypatch):
    """dp_distill reads labels for its training documents only: with labels
    that miss a separately parsed validation corpus it trains, indexing
    each document object once, the training documents with their content
    types and the validation documents without."""
    train_corpus, valid_corpus, labels = separable_corpora()
    train_corpus = train_corpus[:8]
    train_ids = {doc.id for doc in train_corpus}
    labels = {key: ct for key, ct in labels.items() if key[0] in train_ids}
    labelled: dict[int, list[bool]] = {}
    index_document = scorer._index_document

    def recording(doc, vocab, dp_labels=None):
        idx = index_document(doc, vocab, dp_labels)
        labelled.setdefault(id(doc), []).append(idx.ctype is not None)
        return idx

    monkeypatch.setattr(scorer, "_index_document", recording)
    _, history = train(TrainConfig(variant="dp_distill",
                                   **dict(SMALL, max_epochs=2, warmup_epochs=1)),
                       train_corpus, valid_corpus, labels, seed=0)
    assert all(record.dp_loss is not None for record in history.epochs)
    assert labelled == {**{id(doc): [True] for doc in train_corpus},
                        **{id(doc): [False] for doc in valid_corpus}}


@pytest.mark.parametrize("variant", ["baseline", "dp_distill"])
def test_labels_reach_no_index_whose_variant_ignores_them(variant):
    """Outside dp_feature, scoring and decoding give what they give without
    labels, even given labels that cover none of the documents."""
    corpus, _ = distill_corpus(6)
    model = initialized_model(ModelConfig(dim=4, hidden=4, variant=variant),
                              scorer.build_vocabulary(corpus), seed=1)
    want = decode_corpus(model, corpus, None)
    for labels in ({}, {("elsewhere", 0): ContentType.M1}):
        assert decode_corpus(model, corpus, labels) == want
        for doc in corpus:
            got, plain = model.score_document(doc, labels), model.score_document(doc)
            assert got.layout.slots == plain.layout.slots
            assert np.array_equal(got.score, plain.score), doc.id


def test_a_missing_label_names_its_document_and_sentence():
    """Labels that miss one sentence of a document dp_feature scores stop
    scoring, decoding and both losses with DpLabelError naming the
    document and the sentence."""
    corpus, labels = generate_synthetic_corpus(SynthConfig(n_docs=2), seed=3)
    model = initialized_model(ModelConfig(dim=4, hidden=4, variant="dp_feature"),
                              scorer.build_vocabulary(corpus), seed=2)
    del labels[("synth-0000", 1)]
    missing = re.escape("document synth-0000: missing (synth-0000, 1)")
    for call in (lambda: model.score_document(corpus[0], labels),
                 lambda: decode_corpus(model, corpus, labels),
                 lambda: model.ranking_loss_and_grads(corpus, labels),
                 lambda: model.dp_loss_and_grads(corpus, labels)):
        with pytest.raises(DpLabelError, match=missing):
            call()


def test_a_trained_model_holds_only_its_parameters():
    """A model is its config, vocabulary and parameters: after training,
    decoding and scoring with it, it keeps no document alive."""
    train_corpus, valid_corpus, _ = separable_corpora()
    model, _ = train(TrainConfig(variant="baseline", **dict(SMALL, max_epochs=2, warmup_epochs=1)),
                     train_corpus, valid_corpus, None, seed=0)
    graphs = decode_corpus(model, valid_corpus)
    scores = model.score_document(train_corpus[0])
    assert len(graphs) == len(valid_corpus) and scores.layout.doc is train_corpus[0]
    assert set(vars(model)) == {"config", "vocab", "flat", "_params"}
    assert all(np.shares_memory(view, model.flat) for view in model.params.values())
    alive = [weakref.ref(doc) for doc in train_corpus + valid_corpus]
    del train_corpus, valid_corpus, graphs, scores
    gc.collect()
    assert [ref for ref in alive if ref() is not None] == []


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def distill_corpus(n_docs: int):
    """The first n_docs of a corpus from the shipped distill synth config, and its labels."""
    raw = json.loads((CONFIGS / "distill.synth.json").read_text(encoding="utf-8"))
    raw["n_docs"] = n_docs
    return generate_synthetic_corpus(SynthConfig.from_json(raw), seed=7)


def distill_train_config(**changes) -> TrainConfig:
    raw = json.loads((CONFIGS / "distill.train.json").read_text(encoding="utf-8"))
    raw.update(seeds=(0,), **changes)
    return TrainConfig(**raw)


def chain_document(n_events: int = 40):
    """A timex, one event per sentence, then a timex: each event's gold event
    parent is the event before it. Past BLOCK_CANDIDATES, it is scored in
    several blocks."""
    sentences = [{"index": i, "tokens": ["monday" if i in (0, n_events + 1) else "fire"]}
                 for i in range(n_events + 2)]
    mentions = [{"id": "t1", "kind": "timex", "sentence": 0, "start": 0, "end": 1}]
    mentions += [{"id": f"e{i}", "kind": "event", "sentence": i, "start": 0, "end": 1}
                 for i in range(1, n_events + 1)]
    mentions.append({"id": "t2", "kind": "timex", "sentence": n_events + 1, "start": 0,
                     "end": 1})
    edges = [{"child": "t1", "slot": "timex_ref", "parent": "DCT"},
             {"child": "t2", "slot": "timex_ref", "parent": "t1"}]
    edges += [{"child": f"e{i}", "slot": "timex_ref", "parent": "t1"}
              for i in range(1, n_events + 1)]
    edges += [{"child": f"e{i}", "slot": "event_ref", "parent": f"e{i - 1}"}
              for i in range(2, n_events + 1)]
    return make_doc({"id": "chain", "dct": "2021-01-01", "sentences": sentences,
                     "mentions": mentions, "edges": edges})


def validation_corpus():
    """Distill documents, a timex-only one, a one-mention one and chain_document,
    which is scored in several blocks."""
    corpus, labels = distill_corpus(30)
    timexes = make_doc({
        "id": "tx", "dct": "2021-06-01",
        "sentences": [{"index": 0, "tokens": ["monday", "then", "may"]},
                      {"index": 1, "tokens": ["in", "1990"]}],
        "mentions": [{"id": "t1", "kind": "timex", "sentence": 0, "start": 0, "end": 1},
                     {"id": "t2", "kind": "timex", "sentence": 0, "start": 2, "end": 3},
                     {"id": "t3", "kind": "timex", "sentence": 1, "start": 0, "end": 2}],
        "edges": [{"child": "t1", "slot": "timex_ref", "parent": "DCT"},
                  {"child": "t2", "slot": "timex_ref", "parent": "t1"},
                  {"child": "t3", "slot": "timex_ref", "parent": "ROOT"}],
    })
    single = make_doc({
        "id": "one", "dct": "2021-06-01",
        "sentences": [{"index": 0, "tokens": ["fire", "spread"]}],
        "mentions": [{"id": "e1", "kind": "event", "sentence": 0, "start": 1, "end": 2}],
        "edges": [{"child": "e1", "slot": "timex_ref", "parent": "DCT"}],
    })
    chain = chain_document()
    assert len(candidate_layout(chain).cand) > scorer.BLOCK_CANDIDATES
    corpus = corpus[:15] + [timexes, single, chain] + corpus[15:]
    labels = dict(labels)
    labels.update({(doc.id, s.index): ContentType.C1 for doc in (timexes, single, chain)
                   for s in doc.sentences})
    return corpus, labels


def chain_params(model):
    """Zero parameters but one hidden unit over the scalar features: a slot's
    first maximum is its nearest earlier mention, or else its first meta
    candidate. chain_document's events then form one acyclic chain through
    all of them."""
    params = {name: np.zeros_like(a) for name, a in model.params.items()}
    scalar = 5 * model.config.dim
    # distance buckets 0, 1, 2, 3-5, 6+; candidate after the child; metas
    for bit, weight in enumerate([5.0, 4.0, 3.0, 2.0, 1.0, -10.0, 0.0, -3.0, -3.0, -3.0]):
        params["w1"][0, scalar + bit] = weight
    params["b1"][0] = 20.0
    params["w2"][0] = 1.0
    return params


def first_maximum_graph(scores):
    """Each slot's first maximum, read through the slot view."""
    return {slot: scored.ranked()[0][0] for slot, scored in scores.items()}


STATES = ("untrained", "trained", "zero", "chain")


@functools.cache
def trained_model(variant: str):
    """The config, vocabulary and parameters of a model of the variant
    trained for two epochs on 60 distill documents, where a few documents'
    first maxima cycle."""
    corpus, labels = distill_corpus(60)
    config = distill_train_config(variant=variant, max_epochs=2, warmup_epochs=1)
    model, _ = train(config, corpus, corpus, labels if variant != "baseline" else None, seed=0)
    return model.config, model.vocab, model.params


def model_in_state(variant: str, state: str, corpus):
    """A fresh model of the variant in one of STATES: untrained, trained,
    all-zero parameters (every slot ties) or chain_params."""
    if state == "trained":
        config, vocab, params = trained_model(variant)
        return scorer.RankingModel(config, vocab, clone_params(params))
    config = distill_train_config(variant=variant).model_config()
    model = initialized_model(config, scorer.build_vocabulary(corpus), seed=0)
    if state == "zero":
        model.params = {name: np.zeros_like(a) for name, a in model.params.items()}
    elif state == "chain":
        model.params = chain_params(model)
    return model


def one_document_at_a_time(model, corpus, labels, order: str, state: str):
    """Each document's greedy_decode graph over its own score_document scores,
    and the ids of the documents whose graph departs from the first-maximum
    graph, which are those whose first maxima cycle: most of them for an
    untrained model, a few for a trained one and none otherwise."""
    graphs, departs = {}, []
    for doc in corpus:
        scores = model.score_document(doc, labels)
        graphs[doc.id] = greedy_decode(doc, scores, order=order)
        if graphs[doc.id].edges != first_maximum_graph(scores):
            departs.append(doc.id)
    if state == "untrained":
        assert len(departs) > len(corpus) // 2
    elif state == "trained":
        assert 0 < len(departs) < len(corpus) // 2
    else:
        assert departs == []
    return graphs, departs


def recorded_greedy_decode(monkeypatch) -> list[str]:
    """The ids of the documents training's greedy_decode is called on, from now on."""
    decoded = []

    def recording(doc, scores, order):
        decoded.append(doc.id)
        return greedy_decode(doc, scores, order=order)

    monkeypatch.setattr(training, "greedy_decode", recording)
    return decoded


def test_decode_corpus_matches_decoding_one_document_at_a_time(monkeypatch):
    """decode_corpus, which `tdgparse predict` runs, gives every document the
    graph greedy_decode gives it alone, and decodes every document through
    training's greedy_decode, once each and in corpus order, in every model
    state, variant and order; mixed_document among them."""
    corpus, labels = validation_corpus()
    mixed, mixed_labels = mixed_document()
    corpus, labels = corpus + [mixed], {**labels, **mixed_labels}
    decoded = recorded_greedy_decode(monkeypatch)
    for variant in scorer.VARIANTS:
        feature_labels = labels if variant == "dp_feature" else None
        for state in STATES:
            model = model_in_state(variant, state, corpus)
            for order in DECODE_ORDERS:
                want, _ = one_document_at_a_time(model, corpus, feature_labels, order, state)
                decoded.clear()
                assert decode_corpus(model, corpus, feature_labels, order=order) == want
                assert decoded == [doc.id for doc in corpus], (variant, state, order)


@pytest.mark.parametrize("state", STATES)
@pytest.mark.parametrize("variant", ["baseline", "dp_feature", "dp_distill"])
def test_validation_accuracy_is_decode_corpus_accuracy(variant, state, monkeypatch):
    """Validation counts what decoding each document alone, by greedy_decode
    over its score_document scores, counts, and never calls greedy_decode:
    it decodes a run at a time on positions."""
    corpus, labels = validation_corpus()
    feature_labels = labels if variant == "dp_feature" else None
    model = model_in_state(variant, state, corpus)
    validation = Validation(model, [_index_document(doc, model.vocab, feature_labels)
                                    for doc in corpus])
    decoded = recorded_greedy_decode(monkeypatch)
    for order in DECODE_ORDERS:
        graphs, _ = one_document_at_a_time(model, corpus, feature_labels, order, state)
        want = attachment_accuracy(graphs, corpus)
        decoded.clear()
        got = validation.accuracy(order)
        assert type(got) is float and got == want
        assert decoded == []
    with pytest.raises(GraphError, match="unknown decode order 'random'"):
        validation.accuracy("random")


class ProcessLog:
    """A list of ints that this process and the processes it forks append
    to: a file of one ``pid value`` line per item, which ``calls[i]`` and
    ``len`` read back."""

    def __init__(self, path: Path):
        self.path = path

    def _lines(self) -> list[list[int]]:
        text = self.path.read_text() if self.path.exists() else ""
        return [list(map(int, line.split())) for line in text.splitlines()]

    def append(self, value: int) -> None:
        with self.path.open("a") as fh:  # one short appended line: one write
            fh.write(f"{os.getpid()} {value}\n")

    def clear(self) -> None:
        self.path.unlink(missing_ok=True)

    def __len__(self) -> int:
        return len(self._lines())

    def __getitem__(self, i: int) -> int:
        return self._lines()[i][1]

    @property
    def pids(self) -> set[int]:
        return {pid for pid, _ in self._lines()}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_validation_names_a_non_finite_score(bad, monkeypatch, tmp_path, capsys):
    """A non-finite score stops validation, decode_corpus and `tdgparse
    predict` with the GraphError that SlotScores raises, naming its
    document, slot and candidate; predict exits 3 and writes no predictions.
    train() validates in its worker, so the calls are counted in a file."""
    corpus, _ = validation_corpus()
    model = initialized_model(scorer.ModelConfig(), scorer.build_vocabulary(corpus), seed=0)
    run = list(scorer.lay_out(_index_document(doc, model.vocab) for doc in corpus))[1][0]
    idx = run[1]
    k = idx.starts[3] - 1  # the last candidate of its third slot
    run_scores, calls = scorer.RankingModel.run_scores, ProcessLog(tmp_path / "calls")

    def poisoned(self, batch):
        values = run_scores(self, batch)
        calls.append(len(values))
        if len(calls) == 2:  # each path scores one run per call, in order
            values[len(run[0].cand) + k] = bad
        return values

    monkeypatch.setattr(scorer.RankingModel, "run_scores", poisoned)
    message = (f"document {idx.layout.doc.id}, slot {idx.layout.slots[2]}: candidate "
               f"{idx.layout.names[idx.cand[k]]} has a non-finite score")
    with pytest.raises(GraphError, match=re.escape(message)):
        train(distill_train_config(max_epochs=1, warmup_epochs=1), corpus, corpus, None,
              seed=0)
    assert calls[1] == sum(len(i.cand) for i in run)
    assert os.getpid() not in calls.pids  # the validation worker scored them

    calls.clear()
    with pytest.raises(GraphError, match=re.escape(message)):
        decode_corpus(model, corpus)
    assert calls[1] == sum(len(i.cand) for i in run)

    calls.clear()
    save_checkpoint(model, tmp_path / "checkpoint.json")
    write_corpus(corpus, tmp_path / "corpus.jsonl")
    out = tmp_path / "predict"
    assert cli.main(["predict", "--checkpoint", str(tmp_path / "checkpoint.json"),
                     "--corpus", str(tmp_path / "corpus.jsonl"), "--out", str(out)]) == 3
    assert capsys.readouterr().err == f"error: {message}\n"
    assert calls[1] == sum(len(i.cand) for i in run)
    assert [path.name for path in out.iterdir()] == ["manifest.json"]


def test_validation_refuses_a_corpus_without_slots_and_lays_out_once(monkeypatch):
    """Validation refuses a corpus without a slot when it is built, and
    computes each run's slot columns there, not on every accuracy call."""
    corpus, _ = validation_corpus()
    model = initialized_model(ModelConfig(), scorer.build_vocabulary(corpus), seed=0)
    quiet = make_doc({"id": "quiet", "dct": "2021-01-01", "mentions": [],
                      "sentences": [{"index": 0, "tokens": ["calm"]}], "edges": []})
    for docs in ([], [quiet]):
        with pytest.raises(ValueError, match="validation corpus has no slots to evaluate"):
            Validation(model, [_index_document(doc, model.vocab) for doc in docs])
    validation = Validation(model, [_index_document(doc, model.vocab) for doc in corpus])
    monkeypatch.setattr(graph, "slot_of", lambda *args: pytest.fail("slot_of called"))
    for order in DECODE_ORDERS:
        validation.accuracy(order)
    assert len(validation.runs) > 1 and validation.runs[0].layout is None


def force_inline_validation(monkeypatch) -> None:
    """Stop the validation worker and hide os.fork: train() then validates inline."""
    training._WORKER.stop()
    monkeypatch.delattr(os, "fork")


@pytest.mark.parametrize("decode_order", DECODE_ORDERS)
@pytest.mark.parametrize("variant", scorer.VARIANTS)
def test_worker_validation_matches_inline_validation(variant, decode_order, monkeypatch):
    """The worker's histories and best-epoch parameters are, byte for byte,
    inline validation's; the validation corpus holds documents the training
    corpus lacks, which dp_feature indexes with labels of their own."""
    corpus, labels = validation_corpus()
    config = distill_train_config(variant=variant, decode_order=decode_order,
                                  max_epochs=4, warmup_epochs=1)
    args = (config, corpus[:12], corpus, None if variant == "baseline" else labels)
    model, history = train(*args, seed=0)
    assert training._WORKER.owner == os.getpid() and training._WORKER.pid > 0
    force_inline_validation(monkeypatch)
    want_model, want_history = train(*args, seed=0)
    assert training._WORKER.conn is None
    assert asdict(history) == asdict(want_history)
    assert len({e.valid_accuracy for e in history.epochs}) > 1
    assert model.flat.tobytes() == want_model.flat.tobytes()


@pytest.mark.parametrize("where", ["worker", "inline"])
def test_a_validation_error_wins_over_the_next_epochs_divergence(where, monkeypatch,
                                                                 tmp_path):
    """Epoch 0's validation scores a NaN while epoch 1's first loss is NaN:
    train() raises the GraphError that names the score, over the
    TrainingDiverged that epoch 1 raised meanwhile."""
    if where == "inline":
        force_inline_validation(monkeypatch)
    corpus, _ = validation_corpus()
    config = distill_train_config(max_epochs=3, warmup_epochs=1, batch_size_docs=10)
    run_scores, calls = scorer.RankingModel.run_scores, ProcessLog(tmp_path / "calls")
    ranking_loss, losses = scorer.RankingModel.ranking_loss_and_grads, []

    def poisoned(self, batch):
        values = run_scores(self, batch)
        calls.append(len(values))
        if len(calls) == 1:
            values[0] = np.nan
        return values

    def diverging(self, *args, **kwargs):
        losses.append(len(losses))
        loss, grads = ranking_loss(self, *args, **kwargs)
        return (np.nan if len(losses) > 4 else loss), grads  # 4 batches an epoch

    monkeypatch.setattr(scorer.RankingModel, "run_scores", poisoned)
    monkeypatch.setattr(scorer.RankingModel, "ranking_loss_and_grads", diverging)
    idx = next(scorer.lay_out(_index_document(doc, scorer.build_vocabulary(corpus))
                              for doc in corpus))[0][0]
    message = (f"document {idx.layout.doc.id}, slot {idx.layout.slots[0]}: candidate "
               f"{idx.layout.names[idx.cand[0]]} has a non-finite score")
    with pytest.raises(GraphError, match=re.escape(message)) as raised:
        train(config, corpus, corpus, None, seed=0)
    assert len(losses) == 5
    assert isinstance(raised.value.__context__, TrainingDiverged)
    assert (os.getpid() in calls.pids) == (where == "inline")


def test_training_validates_inline_once_the_worker_dies(monkeypatch):
    """A worker that dies in epoch 1's validation leaves that epoch and the
    rest to inline validation, with inline validation's history, and the
    next train() forks a new worker."""
    corpus, _ = validation_corpus()
    config = distill_train_config(max_epochs=4, warmup_epochs=1)
    force_inline_validation(monkeypatch)
    want_model, want = train(config, corpus, corpus, None, seed=0)
    monkeypatch.undo()
    parent, run_scores, calls = os.getpid(), scorer.RankingModel.run_scores, []

    def dying(self, batch):
        calls.append(os.getpid())
        if os.getpid() != parent and len(calls) > len(validation_runs):
            os._exit(1)
        return run_scores(self, batch)

    validation_runs = list(scorer.lay_out(
        _index_document(doc, scorer.build_vocabulary(corpus)) for doc in corpus))
    monkeypatch.setattr(scorer.RankingModel, "run_scores", dying)
    model, history = train(config, corpus, corpus, None, seed=0)
    assert training._WORKER.conn is None and calls == [parent] * 3 * len(validation_runs)
    assert asdict(history) == asdict(want)
    assert model.flat.tobytes() == want_model.flat.tobytes()
    monkeypatch.undo()
    assert asdict(train(config, corpus, corpus, None, seed=0)[1]) == asdict(want)
    assert training._WORKER.conn is not None


def _small_training():
    corpus, _ = distill_corpus(12)
    return distill_train_config(max_epochs=3, warmup_epochs=1), corpus


def test_a_process_with_other_threads_validates_inline():
    """No worker is forked from a process that runs another thread."""
    config, corpus = _small_training()
    release = threading.Event()
    waiter = threading.Thread(target=release.wait)
    waiter.start()
    try:
        _, history = train(config, corpus, corpus, None, seed=0)
        assert training._WORKER.conn is None
    finally:
        release.set()
        waiter.join(timeout=10)
    assert not waiter.is_alive()
    assert asdict(train(config, corpus, corpus, None, seed=0)[1]) == asdict(history)
    assert training._WORKER.conn is not None


def test_a_forked_process_trains_with_a_worker_of_its_own():
    """A process forked after the worker started forks a worker of its own,
    and stops it, leaving its parent's worker running and serving."""
    config, corpus = _small_training()
    _, want = train(config, corpus, corpus, None, seed=0)
    first = training._WORKER.pid
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child: report, then leave without running pytest's exit
        code = 1
        try:
            os.close(read_end)
            _, got = train(config, corpus, corpus, None, seed=0)
            worker = training._WORKER
            report = {"same": asdict(got) == asdict(want), "owner": worker.owner,
                      "pid": os.getpid(), "worker": worker.pid}
            worker.stop()
            try:
                report["left"] = os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                report["left"] = None
            os.write(write_end, json.dumps(report).encode())
            code = 0
        finally:
            os._exit(code)
    os.close(write_end)
    with os.fdopen(read_end, "rb") as fh:
        report = json.loads(fh.read() or b"{}")
    assert os.waitpid(pid, 0)[1] == 0
    assert report == {"same": True, "owner": pid, "pid": pid,
                      "worker": report["worker"], "left": None}
    assert report["worker"] not in (0, first, pid)
    assert os.waitpid(first, os.WNOHANG) == (0, 0)  # still running
    _, again = train(config, corpus, corpus, None, seed=0)
    assert training._WORKER.pid == first and asdict(again) == asdict(want)


def test_the_worker_ignores_an_interrupt():
    """Ctrl-C reaches the worker too; the training process handles it, and
    the worker serves on."""
    config, corpus = _small_training()
    _, want = train(config, corpus, corpus, None, seed=0)
    worker = training._WORKER.pid
    os.kill(worker, signal.SIGINT)
    _, again = train(config, corpus, corpus, None, seed=0)
    assert training._WORKER.pid == worker and asdict(again) == asdict(want)
    assert os.waitpid(worker, os.WNOHANG) == (0, 0)


# trains once, then prints the worker's pid; an exit hook registered before
# the package's, which the import registers, runs after it and prints
# whether any child is left
_TRAIN_AND_EXIT = """
import atexit, os

def children_left():
    try:
        print(os.waitpid(-1, os.WNOHANG))
    except ChildProcessError:
        print("none")

atexit.register(children_left)
from tdgparse import training
from tdgparse.synth import SynthConfig, generate_synthetic_corpus
corpus, _ = generate_synthetic_corpus(SynthConfig(n_docs=6), seed=3)
config = training.TrainConfig(max_epochs=2, warmup_epochs=1, dim=4, hidden=4, seeds=(0,))
training.train(config, corpus, corpus, None, seed=0)
print(training._WORKER.pid)
"""


def test_a_process_that_trains_leaves_no_process_behind():
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(root / "src"),
                                                      env.get("PYTHONPATH"))))
    out = subprocess.run([sys.executable, "-c", _TRAIN_AND_EXIT], env=env,
                         capture_output=True, text=True, check=True, timeout=120)
    worker, left = out.stdout.split()
    assert int(worker) > 0 and left == "none"
    with pytest.raises(ProcessLookupError):
        os.kill(int(worker), 0)


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc"
                    or any(name in os.environ for name in HEAP_THRESHOLDS),
                    reason="the heap thresholds are pinned on glibc only")
def test_training_keeps_its_heap():
    """Batch temporaries stay in the heap rather than being faulted in afresh."""
    corpus, _ = distill_corpus(40)
    train(distill_train_config(max_epochs=1, warmup_epochs=1), corpus, corpus, None, seed=0)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    train(distill_train_config(max_epochs=3, warmup_epochs=1), corpus, corpus, None, seed=0)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < 1000, f"{faults} minor page faults"


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc"
                    or any(name in os.environ for name in HEAP_THRESHOLDS),
                    reason="the heap thresholds are pinned on glibc only")
def test_training_the_three_variants_keeps_its_heap():
    """On the 200-document distill corpus, after a warm-up train(), training
    the three variants faults in about 500 pages with the thresholds pinned
    and tens of thousands without: glibc's defaults map and unmap a batch's
    larger temporaries afresh."""
    corpus, labels = distill_corpus(200)
    train(distill_train_config(max_epochs=1, warmup_epochs=1), corpus, corpus, None, seed=0)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for variant in scorer.VARIANTS:
        train(distill_train_config(variant=variant, max_epochs=2, warmup_epochs=1),
              corpus, corpus, labels, seed=0)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < 5000, f"{faults} minor page faults"


@pytest.mark.parametrize("preset", [None, "MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_"])
def test_heap_thresholds_are_pinned_unless_set(preset, monkeypatch):
    calls = []

    class Libc:
        def __init__(self, name):
            self.mallopt = lambda param, value: calls.append((param, value))

    for name in HEAP_THRESHOLDS:
        monkeypatch.delenv(name, raising=False)
    if preset is not None:
        monkeypatch.setenv(preset, "65536")
    monkeypatch.setattr(training.ctypes, "CDLL", Libc)
    training._pin_heap_thresholds()
    assert calls == ([] if preset else [(-3, 4 << 20), (-1, 8 << 20)])


def test_train_distill_update_orders_diverge():
    train_corpus, valid_corpus, labels = separable_corpora()
    small = dict(SMALL, max_epochs=3, warmup_epochs=1)
    histories = {}
    for order in ("dp_then_rank", "rank_then_dp", "joint"):
        config = TrainConfig(variant="dp_distill", update_order=order, **small)
        _, hist = train(config, train_corpus, valid_corpus, labels, seed=0)
        assert all(e.dp_loss is not None for e in hist.epochs)
        histories[order] = asdict(hist)
    assert histories["dp_then_rank"] != histories["rank_then_dp"]
    assert histories["joint"] != histories["dp_then_rank"]


def test_train_requires_labels_for_dp_variants():
    train_corpus, valid_corpus, _ = separable_corpora()
    for variant in ("dp_feature", "dp_distill"):
        config = TrainConfig(variant=variant, **SMALL)
        with pytest.raises(ValueError, match="labels"):
            train(config, train_corpus, valid_corpus, None, seed=0)


def test_train_refuses_a_validation_corpus_without_slots(monkeypatch):
    train_corpus, _, _ = separable_corpora()
    quiet = document_from_json({"id": "quiet", "dct": "2021-01-01", "mentions": [],
                                "sentences": [{"index": 0, "tokens": ["calm"]}], "edges": []})
    batches = []
    monkeypatch.setattr(scorer.RankingModel, "ranking_loss_and_grads",
                        lambda self, *args: batches.append(args))
    for valid_corpus in ([], [quiet]):
        with pytest.raises(ValueError, match="validation corpus has no slots to evaluate"):
            train(TrainConfig(variant="baseline", **SMALL), train_corpus, valid_corpus,
                  None, seed=0)
    assert batches == []


def test_train_diverges_loudly_at_absurd_lr():
    train_corpus, valid_corpus, _ = separable_corpora()
    config = TrainConfig(variant="baseline", max_epochs=3, batch_size_docs=5,
                         peak_lr=1e150, weight_decay=0.0, warmup_epochs=1, dim=8,
                         hidden=16, seeds=(0,))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingDiverged):
            train(config, train_corpus, valid_corpus, None, seed=0)
