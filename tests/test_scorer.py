import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tdgparse import scorer, training
from tdgparse.corpus import META_NODES, ContentType, Document, GoldEdge, Mention, Sentence
from tdgparse.graph import Slot, candidate_layout, candidate_set, greedy_decode
from tdgparse.scorer import (
    ModelConfig,
    PARAM_ORDER,
    VARIANTS,
    RankingModel,
    ScorerError,
    Vocabulary,
    build_vocabulary,
    feature_dim,
    _blocks,
    _concat,
    _index_document,
    _Offsets,
    _offsets,
    _segment_means,
    _segment_sums,
    _slice,
    _with_gold,
    init_params,
    load_checkpoint,
    param_shapes,
    save_checkpoint,
)
from tdgparse.synth import SynthConfig, generate_synthetic_corpus

from .conftest import initialized_model, make_doc, mixed_document
from .oracles import (
    finite_difference_check,
    lookup,
    reference_dp_loss_and_grads,
    reference_ranking_loss_and_grads,
    reference_relu_pattern,
    relu_pattern,
    random_document,
    reference_candidates,
    feature_bit_rows,
    reference_feature_bits,
    reference_index_document,
    reference_scores,
    score_documents,
)


def tiny_doc():
    return make_doc({
        "id": "s1", "dct": "2021-06-01",
        "sentences": [{"index": 0, "tokens": ["a", "b"]}],
        "mentions": [
            {"id": "t1", "kind": "timex", "sentence": 0, "start": 0, "end": 1},
            {"id": "e1", "kind": "event", "sentence": 0, "start": 1, "end": 2},
        ],
        "edges": [
            {"child": "t1", "slot": "timex_ref", "parent": "DCT"},
            {"child": "e1", "slot": "timex_ref", "parent": "t1"},
        ],
    })


def one_sentence_doc(tokens: list[str]):
    return make_doc({
        "id": "v1", "dct": "2021-01-01",
        "sentences": [{"index": 0, "tokens": tokens}],
        "mentions": [{"id": "e1", "kind": "event", "sentence": 0,
                      "start": 0, "end": 1}],
        "edges": [{"child": "e1", "slot": "timex_ref", "parent": "DCT"}],
    })


def test_build_vocabulary_lowercases_and_sorts():
    vocab = build_vocabulary([one_sentence_doc(["Fire", "fire", "ash", "$", "@"])])
    assert vocab.tokens[:3] == ["<unk>", "$", "@"]
    assert vocab.tokens[3:12] == [f"#{t}#" for t in
                                  ("M1", "M2", "C1", "C2", "D1", "D2", "D3", "D4", "NA")]
    assert vocab.tokens[12:] == ["ash", "fire"]
    # the index looks tokens up lowercased, unseen text as <unk>, and corpus
    # text spelled like a reserved token does not reach its row
    doc = one_sentence_doc(["FIRE", "fire", "never-seen", "$", "@", "<UNK>", "#M1#", "#m1#"])
    # (the token table: the mention's segment, then the sentence's)
    assert _index_document(doc, vocab).tok.tolist() == [13] + [13, 13, 0, 0, 0, 0, 0, 0]
    # dp_feature's marker of a sentence is its content type's reserved row
    model = initialized_model(ModelConfig(dim=2, hidden=2, variant="dp_feature"), vocab, 0)
    assert [model._markers(_index_document(doc, vocab, {("v1", 0): ct})).tolist()
            for ct in (ContentType.M1, ContentType.NA)] == [[3], [11]]


def test_a_vocabulary_token_not_spelled_in_lowercase_is_never_found():
    """Lookups go by a token's lowercase form, so a checkpoint's vocabulary
    token spelled otherwise is never found, while every spelling of a
    lowercase vocabulary token finds its row."""
    vocab = Vocabulary(list(scorer.RESERVED_TOKENS) + ["Fire", "ash"])
    doc = one_sentence_doc(["Fire", "fire", "FIRE", "ash", "ASH", "Ash"])
    assert _index_document(doc, vocab).tok.tolist() == [0] + [0, 0, 0, 13, 13, 13]


def test_vocabulary_guards():
    with pytest.raises(ScorerError, match="reserved"):
        Vocabulary(["fire", "ash"])
    good = build_vocabulary([])
    with pytest.raises(ScorerError, match="duplicate"):
        Vocabulary(good.tokens + ["<unk>"])


def test_model_config_validation():
    with pytest.raises(ScorerError, match="variant"):
        ModelConfig(variant="distilled")
    with pytest.raises(ScorerError, match="positive"):
        ModelConfig(dim=0)


def test_init_params_deterministic_and_bounded():
    vocab = build_vocabulary([tiny_doc()])
    config = ModelConfig(dim=4, hidden=3)
    rng = np.random.Generator(np.random.PCG64(7))
    a = init_params(config, vocab, rng)
    b = init_params(config, vocab, np.random.Generator(np.random.PCG64(7)))
    assert list(a) == list(PARAM_ORDER)
    for name in PARAM_ORDER:
        assert np.array_equal(a[name], b[name])
    assert a["w1"].shape == (3, feature_dim(4))
    assert abs(a["embeddings"]).max() <= 0.05
    assert a["w1"].any() and a["w2"].any()
    assert not a["b1"].any() and not a["b2"].any() and not a["dp_bias"].any()


def hand_model(doc):
    vocab = build_vocabulary([doc])
    config = ModelConfig(dim=1, hidden=1)
    params = init_params(config, vocab,
                         np.random.Generator(np.random.PCG64(0)))
    for name in PARAM_ORDER:
        params[name][...] = 0.0
    params["embeddings"][lookup(vocab, "a"), 0] = 1.0
    params["embeddings"][lookup(vocab, "b"), 0] = 2.0
    params["embeddings"][1, 0] = 0.25   # child mark
    params["embeddings"][2, 0] = 0.5    # candidate mark
    params["meta_embeddings"][:, 0] = [3.0, 4.0, 5.0]  # DCT, ROOT, NO_EVENT
    params["w1"][...] = 1.0
    params["w2"][...] = 1.0
    return RankingModel(config, vocab, params)


def test_hand_computed_scores():
    # d = h = 1 and all-ones scorer weights make each score the feature sum:
    # child repr + child sentence + candidate repr + candidate sentence
    # + product + scalar indicators.
    doc = tiny_doc()
    model = hand_model(doc)
    scored = model.score_document(doc)

    def score(child, slot, cand):
        sc = scored[Slot(child, slot)]
        return sc.scores[sc.candidates.index(cand)]

    # u(t1) = 1 + 0.25, u(e1) = 2 + 0.25, sentence mean = 1.5,
    # candidate reprs: t1 -> 1.5, meta rows as set above
    assert score("t1", "timex_ref", "DCT") == pytest.approx(10.5)
    assert score("t1", "timex_ref", "ROOT") == pytest.approx(12.75)
    assert score("e1", "timex_ref", "DCT") == pytest.approx(14.5)
    assert score("e1", "timex_ref", "t1") == pytest.approx(12.125)
    assert score("e1", "event_ref", "NO_EVENT") == pytest.approx(21.0)


def test_zero_model_scores_are_bias():
    doc = tiny_doc()
    vocab = build_vocabulary([doc])
    config = ModelConfig(dim=2, hidden=2)
    params = init_params(config, vocab,
                         np.random.Generator(np.random.PCG64(0)))
    for name in PARAM_ORDER:
        params[name][...] = 0.0
    params["b2"][...] = 0.7
    model = RankingModel(config, vocab, params)
    scored = model.score_document(doc)
    for sc in scored.values():
        assert all(v == pytest.approx(0.7) for v in sc.scores)
    # blanket ties resolve to the first candidate in canonical order
    graph = greedy_decode(doc, scored)
    assert graph.edges[Slot("t1", "timex_ref")] == "DCT"
    assert graph.edges[Slot("e1", "timex_ref")] == "DCT"
    assert graph.edges[Slot("e1", "event_ref")] == "NO_EVENT"


def test_w2_scaling_preserves_ranking():
    corpus, labels = generate_synthetic_corpus(SynthConfig(n_docs=2), seed=5)
    vocab = build_vocabulary(corpus)
    model = initialized_model(ModelConfig(dim=4, hidden=4), vocab, seed=1)
    before = model.score_document(corpus[0])
    model.params["w2"] *= 2.0
    model.params["b2"] *= 2.0
    after = model.score_document(corpus[0])
    for slot, sc in before.items():
        assert after[slot].scores == pytest.approx([2 * v for v in sc.scores])
        assert after[slot].ranked()[0][0] == sc.ranked()[0][0]


def test_dp_feature_requires_and_uses_labels():
    corpus, labels = generate_synthetic_corpus(SynthConfig(n_docs=2), seed=3)
    vocab = build_vocabulary(corpus)
    config = ModelConfig(dim=4, hidden=4, variant="dp_feature")
    model = initialized_model(config, vocab, seed=2)
    doc = corpus[0]
    with pytest.raises(ScorerError, match="labels"):
        model.score_document(doc)
    scored = model.score_document(doc, labels)
    flipped = {k: (ContentType.D1 if v != ContentType.D1 else ContentType.M1)
               for k, v in labels.items()}
    rescored = model.score_document(doc, flipped)
    assert any(scored[s].scores != rescored[s].scores for s in scored)

    # the content marker must be the only difference: same params under the
    # baseline variant with matching scores everywhere except via the marker
    base = RankingModel(ModelConfig(dim=4, hidden=4), vocab, model.params)
    assert base.score_document(doc) != scored

    # no label state carries from one call to the next
    for label_map in (labels, flipped, labels):
        fresh = RankingModel(config, vocab, model.params)
        assert model.score_document(doc, label_map) == fresh.score_document(doc, label_map)


def test_content_types_are_read_from_labelled_batches_only():
    """dp_feature's markers and the dp head read the batch's content types:
    a run mixing a labelled and an unlabelled index, and an unlabelled
    batch, raise ScorerError rather than read misaligned rows."""
    docs, labels = mixed_batch()
    vocab = build_vocabulary(docs)
    model = initialized_model(ModelConfig(dim=2, hidden=2, variant="dp_feature"), vocab, 0)
    mixed = _concat([_index_document(docs[0], vocab, labels), _index_document(docs[1], vocab)])
    assert mixed.ctype is None
    with pytest.raises(ScorerError, match="requires discourse labels to score"):
        model.run_scores(mixed)
    unlabelled = _concat([_index_document(doc, vocab) for doc in docs[:2]])
    for variant in VARIANTS:
        head = RankingModel(ModelConfig(dim=2, hidden=2, variant=variant), vocab, model.params)
        with pytest.raises(ScorerError, match="discourse head requires discourse labels"):
            head.dp_loss_and_grads(docs[:2], laid=unlabelled)
        with pytest.raises(ScorerError, match="discourse head requires discourse labels"):
            head.dp_loss_and_grads(docs[:2])


def test_dp_loss_ignores_variant_markers():
    """The dp head reads plain sentence means under every variant: a
    dp_feature model's content markers never reach it, not even after a
    ranking call has used them."""
    corpus, labels = generate_synthetic_corpus(SynthConfig(n_docs=1), seed=9)
    vocab = build_vocabulary(corpus)
    params = init_params(ModelConfig(dim=3, hidden=2), vocab,
                         np.random.Generator(np.random.PCG64(4)))
    base = RankingModel(ModelConfig(dim=3, hidden=2), vocab, params)
    feat = RankingModel(ModelConfig(dim=3, hidden=2, variant="dp_feature"),
                        vocab, params)
    want_loss, want_grads = base.dp_loss_and_grads(corpus, labels)
    feat.ranking_loss_and_grads(corpus, labels)  # markers are per call, never cached
    loss, grads = feat.dp_loss_and_grads(corpus, labels)
    assert loss == want_loss
    for name in PARAM_ORDER:
        assert np.array_equal(grads[name], want_grads[name]), name


def test_gradient_locality():
    corpus, labels = generate_synthetic_corpus(SynthConfig(n_docs=2), seed=6)
    vocab = build_vocabulary(corpus)
    model = initialized_model(ModelConfig(dim=4, hidden=4), vocab, seed=3)
    _, rg = model.ranking_loss_and_grads(corpus)
    assert not rg["dp_weight"].any() and not rg["dp_bias"].any()
    assert rg["w1"].any() and rg["embeddings"].any()
    _, dg = model.dp_loss_and_grads(corpus, labels)
    for name in ("w1", "b1", "w2", "b2", "meta_embeddings"):
        assert not dg[name].any()
    assert dg["dp_weight"].any() and dg["embeddings"].any()


def test_single_candidate_doc_has_zero_loss():
    doc = make_doc({
        "id": "s2", "dct": "2021-01-01",
        "sentences": [{"index": 0, "tokens": ["x"]}],
        "mentions": [{"id": "e1", "kind": "event", "sentence": 0,
                      "start": 0, "end": 1}],
        "edges": [{"child": "e1", "slot": "timex_ref", "parent": "DCT"}],
    })
    vocab = build_vocabulary([doc])
    model = initialized_model(ModelConfig(dim=3, hidden=3), vocab, seed=0)
    loss, grads = model.ranking_loss_and_grads([doc])
    assert loss == 0.0
    for name in PARAM_ORDER:
        assert not grads[name].any()


def mixed_batch():
    """Synthetic documents of different sizes, a timex-only one and a one-mention one."""
    corpus, labels = generate_synthetic_corpus(
        SynthConfig(n_docs=3, sentences_per_doc=(1, 8)), seed=12)
    timexes = make_doc({
        "id": "tx", "dct": "2021-06-01",
        "sentences": [{"index": 0, "tokens": ["Monday", "then", "May"]},
                      {"index": 1, "tokens": ["in", "1990"]}],
        "mentions": [
            {"id": "t1", "kind": "timex", "sentence": 0, "start": 0, "end": 1},
            {"id": "t2", "kind": "timex", "sentence": 0, "start": 2, "end": 3},
            {"id": "t3", "kind": "timex", "sentence": 1, "start": 0, "end": 2},
        ],
        "edges": [
            {"child": "t1", "slot": "timex_ref", "parent": "DCT"},
            {"child": "t2", "slot": "timex_ref", "parent": "t1"},
            {"child": "t3", "slot": "timex_ref", "parent": "ROOT"},
        ],
    })
    single = make_doc({
        "id": "one", "dct": "2021-06-01",
        "sentences": [{"index": 0, "tokens": ["fire", "spread"]}],
        "mentions": [{"id": "e1", "kind": "event", "sentence": 0,
                      "start": 1, "end": 2}],
        "edges": [{"child": "e1", "slot": "timex_ref", "parent": "DCT"}],
    })
    labels = dict(labels)
    labels.update({("tx", 0): ContentType.M1, ("tx", 1): ContentType.D1,
                   ("one", 0): ContentType.C2})
    return corpus + [timexes, single], labels


def _block_bounds_split_an_event(model, docs) -> bool:
    """Whether some block boundary of the batch docs lies between an event's two slots."""
    slots = [slot for doc in docs for slot in candidate_layout(doc).slots]
    batch = _concat([_index_document(doc, model.vocab) for doc in docs])
    return any(slots[lo - 1].child == slots[lo].child
               for lo, _, _, _ in _blocks(batch.starts, len(batch.cand))[1:])


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("dim,hidden", [(1, 1), (3, 5), (8, 16)])
def test_array_scorer_matches_per_slot_reference(variant, dim, hidden, monkeypatch):
    tol = 1e-12
    docs, labels = mixed_batch()
    vocab = build_vocabulary(docs)
    config = ModelConfig(dim=dim, hidden=hidden, variant=variant)
    rng = np.random.Generator(np.random.PCG64(100 * dim + hidden))
    params = init_params(config, vocab, rng)
    params["b1"] = rng.uniform(-0.05, 0.05, hidden)
    params["dp_bias"] = rng.uniform(-0.05, 0.05, 9)
    model = RankingModel(config, vocab, params)
    whole = _concat([_index_document(doc, model.vocab) for doc in docs])
    assert len(_blocks(whole.starts, len(whole.cand))) == 1
    for block in (None, 7):
        if block is not None:
            # several blocks per document, a slot alone past the bound, and
            # a boundary between an event's timex_ref and event_ref slots
            monkeypatch.setattr(scorer, "BLOCK_CANDIDATES", block)
            indexes = [_index_document(doc, model.vocab) for doc in docs]
            assert all(len(_blocks(idx.starts, len(idx.cand))) > 1 for idx in indexes[:3])
            assert any(np.diff(idx.starts).max(initial=0) > block for idx in indexes)
            assert _block_bounds_split_an_event(model, docs)
        for doc in docs:
            got = model.score_document(doc, labels)
            want = reference_scores(model, doc, labels)
            assert list(got) == list(want)
            for slot, (candidates, scores) in want.items():
                assert got[slot].candidates == candidates
                assert np.allclose(got[slot].scores, scores, rtol=0, atol=tol)
        assert relu_pattern(model, docs, labels) == reference_relu_pattern(model, docs, labels)
        for batch in (docs, docs[3:], docs[4:]):
            for ours, reference in ((model.ranking_loss_and_grads,
                                     reference_ranking_loss_and_grads),
                                    (model.dp_loss_and_grads, reference_dp_loss_and_grads)):
                loss, grads = ours(batch, labels)
                want_loss, want_grads = reference(model, batch, labels)
                assert abs(loss - want_loss) <= tol
                for name in PARAM_ORDER:
                    assert grads[name].shape == params[name].shape
                    assert np.allclose(grads[name], want_grads[name], rtol=0, atol=tol), name


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("block", [50])
def test_score_documents_matches_score_document(variant, block, monkeypatch):
    docs, labels = mixed_batch()
    empty = make_doc({"id": "z", "dct": "2021-01-01",
                      "sentences": [{"index": 0, "tokens": ["quiet"]}],
                      "mentions": [], "edges": []})
    labels[("z", 0)] = ContentType.NA
    # candidates: tx 12, one 2, z 0, synth-0000 57, synth-0001 196, synth-0002 26
    docs = docs[3:] + [empty] + docs[:3]
    config = ModelConfig(dim=4, hidden=6, variant=variant)
    rng = np.random.Generator(np.random.PCG64(5))
    params = init_params(config, build_vocabulary(docs), rng)
    params["b1"] = rng.uniform(-0.05, 0.05, 6)
    model = RankingModel(config, build_vocabulary(docs), params)
    want = [model.score_document(doc, labels) for doc in docs]

    runs, blocks = [], []

    def recording(indexes):
        runs.append([idx.layout.doc.id for idx in indexes])
        return concat(indexes)

    def counting(starts, n_cand):
        split = split_blocks(starts, n_cand)
        blocks.append(len(split))
        return split

    concat, split_blocks = scorer._concat, scorer._blocks
    monkeypatch.setattr(scorer, "_concat", recording)
    monkeypatch.setattr(scorer, "_blocks", counting)
    # one bound for runs and blocks: a document past it is a run of its own,
    # scored block by block
    monkeypatch.setattr(scorer, "BLOCK_CANDIDATES", block)
    got = list(score_documents(model, docs, labels))
    assert runs == [["tx", "one", "z"], ["synth-0000"], ["synth-0001"], ["synth-0002"]]
    assert [n > 1 for n in blocks] == [False, True, True, False]
    assert len(got) == len(docs)
    for doc, ours, theirs in zip(docs, got, want):
        assert ours.layout.doc is doc
        assert list(ours) == list(theirs)
        assert np.array_equal(ours.layout.cand, theirs.layout.cand)
        assert np.allclose(ours.score, theirs.score, rtol=0, atol=1e-12), doc.id


def test_concat_keeps_a_missing_gold_position():
    """A slot whose gold parent is not a candidate keeps gold -1 in a batch,
    and every other gold position shifts with its document's candidates."""
    docs, _ = mixed_batch()
    model = initialized_model(ModelConfig(dim=2, hidden=2), build_vocabulary(docs), seed=0)
    first, second = (_with_gold(_index_document(doc, model.vocab)) for doc in docs[:2])
    second = second._replace(gold=np.concatenate([[-1], second.gold[1:]]).astype(np.int32))
    batch = _concat([first, second])
    assert batch.gold.tolist() == (first.gold.tolist() + [-1]
                                   + (second.gold[1:] + len(first.cand)).tolist())


@pytest.mark.parametrize("run", [1, 2, 4])
def test_a_run_of_a_laid_out_epoch_is_its_own_batch(run):
    """_concat with runs, then _slice, gives each run's _concat: the rows of
    every run count from the run's start, a gold position of -1 included."""
    docs, labels = mixed_batch()
    model = initialized_model(ModelConfig(dim=2, hidden=2), build_vocabulary(docs), seed=0)
    indexes = [_with_gold(_index_document(doc, model.vocab, labels)) for doc in docs]
    indexes[1] = indexes[1]._replace(
        gold=np.concatenate([[-1], indexes[1].gold[1:]]).astype(np.int32))
    laid = _concat(indexes, run=run)
    offsets = _offsets(indexes).tolist()
    for lo in range(0, len(indexes), run):
        hi = min(lo + run, len(indexes))
        got = _slice(laid, _Offsets(*offsets[lo]), _Offsets(*offsets[hi]))
        want = _concat(indexes[lo:hi])
        for name in scorer._FlatIndex._fields[1:]:
            assert getattr(got, name).tolist() == getattr(want, name).tolist(), (lo, name)


# one ranking loss on a 720-mention document (407,209 candidates), in a
# fresh process so that ru_maxrss is this call's peak
_LONG_DOCUMENT_LOSS = """
import json, resource, sys
import numpy as np
from tdgparse import training
from tdgparse.scorer import (ModelConfig, RankingModel, _index_document, build_vocabulary,
                             init_params)
from tdgparse.synth import SynthConfig, generate_synthetic_corpus
raw = json.loads(open(sys.argv[1], encoding="utf-8").read())
raw.update(n_docs=1, sentences_per_doc=[240, 240], mentions_per_sentence=[3, 3])
corpus, _ = generate_synthetic_corpus(SynthConfig.from_json(raw), 7)
config, vocab = ModelConfig(dim=16, hidden=32), build_vocabulary(corpus)
rng = np.random.Generator(np.random.PCG64(0))
model = RankingModel(config, vocab, init_params(config, vocab, rng))
if sys.argv[2] == "loss":
    model.ranking_loss_and_grads(corpus)
else:
    training.Validation(model, [_index_document(doc, vocab) for doc in corpus]).accuracy()
print(len(corpus[0].mentions), resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def _long_document_peak_kb(call: str) -> int:
    """Peak RSS of a fresh process that runs one call on the 720-mention document."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(root / "src"),
                                                      env.get("PYTHONPATH"))))
    out = subprocess.run([sys.executable, "-c", _LONG_DOCUMENT_LOSS,
                          str(root / "configs" / "distill.synth.json"), call],
                         env=env, capture_output=True, text=True, check=True)
    mentions, peak_kb = map(int, out.stdout.split())
    assert mentions == 720
    return peak_kb


def test_long_document_loss_and_gradients_stay_under_256_mb():
    peak_kb = _long_document_peak_kb("loss")
    assert peak_kb <= 256 * 1024, f"peak RSS {peak_kb / 1024:.0f} MB"


def test_long_document_validation_stays_under_256_mb():
    """One validation pass, laid out, scored, taken by first maxima and (the
    untrained model's chains cycle) decoded by greedy_decode."""
    peak_kb = _long_document_peak_kb("validation")
    assert peak_kb <= 256 * 1024, f"peak RSS {peak_kb / 1024:.0f} MB"


def test_zero_slot_batch():
    empty = make_doc({
        "id": "z", "dct": "2021-01-01",
        "sentences": [{"index": 0, "tokens": ["quiet"]}],
        "mentions": [], "edges": [],
    })
    vocab = build_vocabulary([empty])
    model = initialized_model(ModelConfig(dim=3, hidden=2), vocab, seed=0)
    for batch in ([], [empty]):
        loss, grads = model.ranking_loss_and_grads(batch)
        assert loss == 0.0
        for name in PARAM_ORDER:
            assert grads[name].shape == model.params[name].shape
            assert not grads[name].any()
        assert relu_pattern(model, batch) == b""
    assert model.score_document(empty) == {}


def test_gold_parent_outside_candidates_names_document_and_slot():
    # ROOT is a candidate of timex slots only, so this event's gold is illegal
    doc = Document(
        id="bad", dct="2021-01-01", sentences=[Sentence(0, ("monday", "fire"))],
        mentions=[Mention("t1", "timex", 0, 0, 1), Mention("e1", "event", 0, 1, 2)],
        gold_edges=[GoldEdge("t1", "timex_ref", "DCT"),
                    GoldEdge("e1", "timex_ref", "ROOT"),
                    GoldEdge("e1", "event_ref", "NO_EVENT")])
    model = initialized_model(ModelConfig(dim=3, hidden=2),
                              build_vocabulary([doc]), seed=0)
    assert len(model.score_document(doc)) == 3
    with pytest.raises(ScorerError, match=r"document bad: slot Slot\(child='e1', "
                                          r"slot='timex_ref'\) has no gold parent"):
        model.ranking_loss_and_grads([doc])


@pytest.mark.parametrize("variant", ["baseline", "dp_feature", "dp_distill"])
@pytest.mark.parametrize("kind", ["ranking", "dp"])
def test_finite_difference_small(variant, kind):
    corpus, labels = generate_synthetic_corpus(
        SynthConfig(n_docs=2, sentences_per_doc=(2, 3)), seed=8)
    vocab = build_vocabulary(corpus)
    config = ModelConfig(dim=3, hidden=4, variant=variant)
    params = init_params(config, vocab, np.random.Generator(np.random.PCG64(1)))

    def loss_and_grads(p):
        model = RankingModel(config, vocab, p)
        if kind == "ranking":
            return model.ranking_loss_and_grads(corpus, labels)
        return model.dp_loss_and_grads(corpus, labels)

    def loss_and_pattern(p):
        model = RankingModel(config, vocab, p)
        loss, _ = model.ranking_loss_and_grads(corpus, labels)
        return loss, relu_pattern(model, corpus, labels)

    report = finite_difference_check(
        loss_and_grads, params, np.random.Generator(np.random.PCG64(2)),
        coords_per_tensor=12,
        loss_and_pattern=loss_and_pattern if kind == "ranking" else None)
    assert report["checked"] > 0
    assert report["max_rel_err"] < 1e-6, report["worst"]


def test_checkpoint_round_trip(tmp_path):
    corpus, labels = generate_synthetic_corpus(SynthConfig(n_docs=2), seed=4)
    vocab = build_vocabulary(corpus)
    model = initialized_model(
        ModelConfig(dim=4, hidden=3, variant="dp_distill"), vocab, seed=11)
    path = tmp_path / "ck.json"
    save_checkpoint(model, path, train_config={"peak_lr": 0.05}, seed=11)
    loaded = load_checkpoint(path)
    assert loaded.config == model.config
    assert loaded.vocab.tokens == model.vocab.tokens
    for name in PARAM_ORDER:
        assert np.array_equal(loaded.params[name], model.params[name])
    before = model.score_document(corpus[0], labels)
    after = loaded.score_document(corpus[0], labels)
    for slot in before:
        assert before[slot].scores == after[slot].scores

    other = tmp_path / "ck2.json"
    save_checkpoint(loaded, other, train_config={"peak_lr": 0.05}, seed=11)
    assert path.read_bytes() == other.read_bytes()


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format_version": 1, "vocabulary": []}')
    with pytest.raises(ScorerError, match="malformed"):
        load_checkpoint(path)
    path.write_text('{"format_version": 99}')
    with pytest.raises(ScorerError, match="format"):
        load_checkpoint(path)
    for text in ("[]", "5", '"x"', "null"):
        path.write_text(text)
        with pytest.raises(ScorerError, match="malformed.*not a JSON object"):
            load_checkpoint(path)


def test_checkpoint_tensor_data_must_fit_a_float(tmp_path):
    """A JSON integer too large for a float64 is a malformed checkpoint, not
    an OverflowError."""
    model = initialized_model(ModelConfig(dim=3, hidden=2), build_vocabulary([]), seed=0)
    path = tmp_path / "ck.json"
    save_checkpoint(model, path)
    path.write_text(path.read_text().replace('"b2": {"shape": [], "data": [0.0]}',
                                             '"b2": {"shape": [], "data": [' + "9" * 400 + "]}"))
    with pytest.raises(ScorerError, match="malformed checkpoint .*too large to convert"):
        load_checkpoint(path)


def test_candidate_layout_matches_reference():
    """candidate_layout, candidate_set and the scorer's index list the
    candidates of reference_candidates, slot by slot."""
    rng = random.Random(31)
    for trial in range(300):
        doc = random_document(rng, doc_id=f"c{trial}")
        want = reference_candidates(doc)
        layout = candidate_layout(doc)
        assert layout.slots == tuple(want)
        assert layout.names == META_NODES + tuple(m.id for m in doc.ordered_mentions())
        assert layout.starts.dtype == layout.cand.dtype == np.int32
        idx = _index_document(doc, build_vocabulary([doc]))
        assert idx.layout.doc is doc
        rows = np.split(idx.cand, idx.starts[1:]) if len(idx.starts) else []
        assert len(rows) == len(want)
        for (slot, cands), row in zip(want.items(), rows):
            assert [layout.names[r] for r in row.tolist()] == cands
            assert candidate_set(doc, slot) == cands


def index_documents() -> list[Document]:
    """Seeded random documents, mixed_document (multi-token mentions, mixed
    case, marker spellings, far sentences both ways, several blocks),
    synthetic ones up to 8 sentences long, a timex-only, a one-mention and a
    mention-less one, and two whose gold parents miss candidates: a slot
    without a gold edge, and one whose gold parent is illegal."""
    rng = random.Random(53)
    docs = [random_document(rng, doc_id=f"x{trial}") for trial in range(150)]
    docs.append(mixed_document()[0])
    docs += mixed_batch()[0]  # its last two: the timex-only and the one-mention one
    quiet = Document(id="quiet", dct="2021-01-01", sentences=[Sentence(0, ("calm",))],
                     mentions=[], gold_edges=[])
    dropped = random_document(rng, doc_id="dropped")
    dropped = Document(id="dropped", dct=dropped.dct, sentences=dropped.sentences,
                       mentions=dropped.mentions, gold_edges=dropped.gold_edges[1:])
    illegal = Document(
        id="illegal", dct="2021-01-01", sentences=[Sentence(0, ("monday", "fire"))],
        mentions=[Mention("t1", "timex", 0, 0, 1), Mention("e1", "event", 0, 1, 2)],
        gold_edges=[GoldEdge("t1", "timex_ref", "DCT"), GoldEdge("e1", "timex_ref", "ROOT"),
                    GoldEdge("e1", "event_ref", "NO_EVENT")])
    return docs + [quiet, dropped, illegal]


def test_index_matches_reference():
    """_with_gold of a document's index equals the reference index column by
    column, dtypes included, and each candidate's scalar-feature row equals
    the reference's bits as a row; an index made to predict holds no gold."""
    docs = index_documents()
    rng = random.Random(5)
    labels = {(doc.id, s.index): rng.choice(list(ContentType))
              for doc in docs for s in doc.sentences}
    vocab = build_vocabulary(docs[::2])  # unknown tokens too
    missing = 0
    for doc in docs:
        for dp_labels in (None, labels):
            predict = _index_document(doc, vocab, dp_labels)
            assert predict.gold is None
            got, want = _with_gold(predict), reference_index_document(doc, vocab, dp_labels)
            assert got.layout.doc is want.layout.doc is doc
            assert (got.layout.slots, got.layout.names) == (want.layout.slots, want.layout.names)
            assert np.array_equal(scorer._FEATURE_ROWS[got.feat], feature_bit_rows(want.feat))
            for name in scorer._FlatIndex._fields[1:-1]:  # feat, the last, is a row above
                a, b = getattr(got, name), getattr(want, name)
                if b is None:
                    assert a is None, (doc.id, name)
                else:
                    assert a.dtype == b.dtype and np.array_equal(a, b), (doc.id, name)
        missing += int(np.count_nonzero(got.gold < 0))
    assert [len(doc.mentions) for doc in docs[-5:-2]] == [3, 1, 0]
    assert {m.kind for m in docs[-5].mentions} == {"timex"}
    assert missing >= 2


@pytest.mark.parametrize("variant", ["baseline", "dp_feature"])
def test_one_scatter_sums_as_two_do(variant):
    """_first_layer's u, a and sent equal, bit for bit, those built from a
    separate scatter for mentions and for sentences, with and without the
    dp_feature markers."""
    docs, labels = mixed_batch()
    model = initialized_model(ModelConfig(dim=5, hidden=3, variant=variant),
                              build_vocabulary(docs), seed=2)
    batch = _concat([_index_document(doc, model.vocab, labels) for doc in docs])
    markers = model._markers(batch)
    assert (markers is None) == (variant == "baseline")
    emb = model.params["embeddings"]
    n_mention_tok = batch.mention_len.sum()
    mention = _segment_means(emb, batch.tok[:n_mention_tok], batch.mention_len)
    sent = _segment_sums(emb, batch.tok[n_mention_tok:], batch.sent_len)
    sizes = batch.sent_len
    if markers is not None:
        sent, sizes = sent + emb[markers], sizes + 1
    sent = (sent / sizes[:, None])[batch.mention_sent]
    layer = model._first_layer(batch, markers)
    assert np.array_equal(layer.u, mention + emb[scorer.CHILD_MARK_INDEX])
    assert np.array_equal(layer.a, np.concatenate([model.params["meta_embeddings"],
                                                   mention + emb[scorer.CAND_MARK_INDEX]]))
    assert np.array_equal(layer.sent, sent)


def test_feature_table_matches_bucket_arithmetic():
    """The feature table gives a mention candidate the row of the distance
    buckets' bits, for every distance from 0 to 300 and either order, and a
    meta candidate its own column."""
    delta = np.arange(301)
    for precedes in (False, True):
        key = np.minimum(delta, scorer._FAR) + (scorer._FAR + 1) * precedes
        assert np.array_equal(scorer._FEATURE_ROWS[key], feature_bit_rows(
            reference_feature_bits(delta, np.full(len(delta), precedes))))
    assert scorer._FEATURE_ROWS.shape == (17, scorer.N_SCALAR_FEATURES)
    assert np.array_equal(scorer._FEATURE_ROWS[scorer._META_KEY:],
                          feature_bit_rows(1 << (7 + np.arange(scorer.N_META))))


def test_prediction_never_computes_gold(monkeypatch):
    """score_document and decode_corpus run with every gold computation
    raising, the gold table's property included."""
    docs, labels = mixed_batch()

    def refuse(*args):
        raise AssertionError("a prediction computed gold")

    for module in (scorer, training):
        monkeypatch.setattr(module, "_with_gold", refuse)
    monkeypatch.setattr(Document, "gold", property(refuse))
    for variant in VARIANTS:
        model = initialized_model(ModelConfig(dim=3, hidden=2, variant=variant),
                                  build_vocabulary(docs), seed=0)
        for doc in docs:
            assert len(model.score_document(doc, labels)) == len(candidate_layout(doc).slots)
        assert list(training.decode_corpus(model, docs, labels)) == [doc.id for doc in docs]


def test_model_rejects_misshaped_or_non_finite_parameters():
    config = ModelConfig(dim=3, hidden=2)
    vocab = build_vocabulary([tiny_doc()])
    assert param_shapes(config, vocab)["w1"] == (2, feature_dim(3))
    good = init_params(config, vocab, np.random.default_rng(0))
    for name in PARAM_ORDER:
        params = dict(good)
        params[name] = np.zeros(good[name].shape + (1,))
        with pytest.raises(ScorerError, match=f"parameter {name} has shape"):
            RankingModel(config, vocab, params)
        params[name] = good[name].copy()
        params[name].flat[0] = np.nan
        with pytest.raises(ScorerError, match=f"parameter {name} holds non-finite"):
            RankingModel(config, vocab, params)
    params = dict(good, w1=np.zeros((2, feature_dim(3) - 1)))
    with pytest.raises(ScorerError, match=rf"w1 has shape \(2, {feature_dim(3) - 1}\)"):
        RankingModel(config, vocab, params)
