import dataclasses

import pytest

from tdgparse.corpus import (
    DCT,
    ROOT,
    TIMEX,
    TIMEX_REF,
    corpus_lines,
    dp_coverage_gaps,
    validate_document,
)
from tdgparse.synth import (
    DEFAULT_CONTENT_WEIGHTS,
    SynthConfig,
    cue_token,
    generate_synthetic_corpus,
)


def test_deterministic_output():
    config = SynthConfig(n_docs=8)
    a, la = generate_synthetic_corpus(config, seed=3)
    b, lb = generate_synthetic_corpus(config, seed=3)
    assert list(corpus_lines(a)) == list(corpus_lines(b))
    assert la == lb
    c, _ = generate_synthetic_corpus(config, seed=4)
    assert list(corpus_lines(a)) != list(corpus_lines(c))


def test_all_documents_valid_with_total_labels():
    corpus, labels = generate_synthetic_corpus(SynthConfig(n_docs=40), seed=9)
    assert len(corpus) == 40
    for doc in corpus:
        assert validate_document(doc) == []
    assert dp_coverage_gaps(labels, corpus) == []


def test_sentences_carry_their_cue():
    corpus, labels = generate_synthetic_corpus(SynthConfig(n_docs=5), seed=2)
    for doc in corpus:
        for sent in doc.sentences:
            assert sent.tokens[0] == cue_token(labels[(doc.id, sent.index)])


def test_lone_timex_attaches_to_a_meta_node():
    config = SynthConfig(n_docs=30, sentences_per_doc=(1, 1),
                         mentions_per_sentence=(1, 1), timex_share=1.0)
    corpus, _ = generate_synthetic_corpus(config, seed=0)
    for doc in corpus:
        (edge,) = doc.gold_edges
        assert edge.slot == TIMEX_REF
        assert edge.parent in (DCT, ROOT)


def test_historical_sentences_prefer_root():
    weights = {tag: 0.0 for tag in DEFAULT_CONTENT_WEIGHTS}
    weights["D1"] = 1.0
    config = SynthConfig(n_docs=150, sentences_per_doc=(3, 5),
                         mentions_per_sentence=(2, 3), timex_share=0.8,
                         content_weights=weights)
    corpus, _ = generate_synthetic_corpus(config, seed=13)
    root = total = 0
    for doc in corpus:
        for edge in doc.gold_edges:
            if doc.mention(edge.child).kind == TIMEX and edge.slot == TIMEX_REF:
                total += 1
                root += edge.parent == ROOT
    assert total > 1000
    assert abs(root / total - 0.661) < 0.05


def test_config_validation():
    with pytest.raises(ValueError, match="n_docs"):
        SynthConfig(n_docs=0)
    with pytest.raises(ValueError, match="infeasible"):
        SynthConfig(sentences_per_doc=(4, 2))
    with pytest.raises(ValueError, match="timex_share"):
        SynthConfig(timex_share=1.5)
    with pytest.raises(ValueError, match="nine types"):
        SynthConfig(content_weights={"M1": 1.0})
    with pytest.raises(ValueError, match="sub-probability"):
        bad = dict(SynthConfig().timex_parent_probs)
        bad["M1"] = (0.9, 0.3)
        SynthConfig(timex_parent_probs=bad)
    with pytest.raises(ValueError, match="refevent_prob"):
        SynthConfig(refevent_prob=-0.1)


def test_config_json_round_trip():
    config = SynthConfig(n_docs=7, timex_share=0.5, refevent_prob=0.9)
    again = SynthConfig.from_json(dataclasses.asdict(config))
    assert dataclasses.asdict(again) == dataclasses.asdict(config)
