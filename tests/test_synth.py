import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from tdgparse.corpus import (
    DCT,
    ROOT,
    TIMEX,
    TIMEX_REF,
    corpus_lines,
    dp_coverage_gaps,
    dp_label_lines,
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


CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _shipped(name: str, **changes) -> SynthConfig:
    raw = json.loads((CONFIG_DIR / f"{name}.synth.json").read_text(encoding="utf-8"))
    return SynthConfig(**{**raw, **changes})


# (shipped config, changed fields, seed, sha256 of the corpus lines, sha256
# of the label lines), recorded when every value took its own numpy call
PINNED = {
    "distill@7": (
        "distill", {}, 7,
        "ae46cffb568728d2e9d93ae8433d9992559f9864a9a8acde70e251e08fa5249e",
        "db77ce874d4748ce87b2d91efd76b0c1ec2d32eeb230f52b8d3a939c506390be"),
    "predict_bulk unseen@1000010": (
        "distill", {"n_docs": 2000}, 1_000_010,
        "abbac8bbc7beb49a929c1299e07f78a175aa4a21846656913a51b43842d44ed7",
        "bbdb8634a21fcbfa1be0db9a95c73c97b2affbeeb0637b90b5885f865fb01a85"),
    "sanity@20260815": (
        "sanity", {}, 20260815,
        "51464105f016ad64a5cc0b8cabb6d21999261faae2be3a41e81e7a62edb6ba9e",
        "1d2d42a5ba06ac87d6ded71798717be83f22c89b579697c3805f0a56f58aeb93"),
    "zero counts@8": (
        "distill", {"n_docs": 100, "mentions_per_sentence": [0, 2],
                    "noise_tokens_per_sentence": [0, 1]}, 8,
        "6cc3dd86d6a25d9c5a8c33227001550c7e9ab363e5740d6ebd65a27ad6fb0a1a",
        "909129735ab5a48710f2c3ad622c120b756a8187a3ecedfd5a240bdbb2742f96"),
}


def _digests(corpus, labels) -> tuple[str, str]:
    return (hashlib.sha256("".join(corpus_lines(corpus)).encode("utf-8")).hexdigest(),
            hashlib.sha256("".join(dp_label_lines(labels, corpus)).encode("utf-8")).hexdigest())


@pytest.mark.parametrize("name", PINNED)
def test_generated_bytes_are_pinned(name):
    """The generator draws a document's sentence types, a sentence's mention
    kinds and its noise tokens in one numpy call each. numpy fills those
    arrays with the very draws, in the very order, that one scalar call per
    value makes, so every corpus keeps the bytes it had when each value took
    its own call."""
    config, changes, seed, corpus_digest, labels_digest = PINNED[name]
    got = _digests(*generate_synthetic_corpus(_shipped(config, **changes), seed))
    assert got == (corpus_digest, labels_digest), (
        f"{name}: generated bytes changed under numpy {np.__version__}; the pinned "
        "digests were recorded under numpy 2.4.6")
