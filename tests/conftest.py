import os

# one BLAS thread, set before numpy loads: the batch matrix products are big
# enough for OpenBLAS to use a thread per core, which runs several times
# slower when another process is busy on one of the cores
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import json

import numpy as np
import pytest

from tdgparse import training
from tdgparse.corpus import (
    ContentType,
    document_from_json,
    validate_document,
)
from tdgparse.scorer import (
    N_SCALAR_FEATURES,
    ModelConfig,
    RankingModel,
    build_vocabulary,
    feature_dim,
    init_params,
)


@pytest.fixture(autouse=True)
def no_process_outlives_a_test():
    """Stop the validation worker after every test, so that each test's
    worker is forked inside it and inherits its monkeypatches, and fail the
    test if any child process is left."""
    yield
    training._WORKER.stop()
    try:
        left = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"a child process outlived the test: waitpid gave {left}")


def make_doc(obj: dict, validate: bool = True):
    """Build a normalized Document from plain JSON-shaped data."""
    doc = document_from_json(obj)
    if validate:
        violations = validate_document(doc)
        assert not violations, violations
    return doc


ONE_TIMEX_DOC = {
    "id": "one", "dct": "2021-01-01",
    "sentences": [{"index": 0, "tokens": ["today"]}],
    "mentions": [{"id": "t1", "kind": "timex", "sentence": 0, "start": 0, "end": 1}],
    "edges": [{"child": "t1", "slot": "timex_ref", "parent": "DCT"}],
}


# the tokens of each of mixed_document's sentences before its two own ones:
# mixed case and corpus text spelled like the reserved tokens
_MIXED_TOKENS = ["The", "FIRE", "spread", "$", "@", "#M1#", "<unk>", "Monday", "#m1#", "AsH"]


def mixed_document():
    """A ten-sentence document and its discourse labels: per sentence a
    two-token timex ("The FIRE") and events of two and three tokens, among
    tokens of mixed case and tokens spelled like the reserved markers. Gold
    edges join sentences up to nine apart, the child before or after its
    parent, and its 1,340 candidates exceed BLOCK_CANDIDATES."""
    n = 10
    sentences = [{"index": s, "tokens": _MIXED_TOKENS + [f"W{s}", f"w{s}"]} for s in range(n)]
    mentions, edges = [], []
    for s in range(n):
        mentions += [{"id": f"t{s}", "kind": "timex", "sentence": s, "start": 0, "end": 2},
                     {"id": f"a{s}", "kind": "event", "sentence": s, "start": 2, "end": 4},
                     {"id": f"b{s}", "kind": "event", "sentence": s, "start": 4, "end": 7},
                     {"id": f"c{s}", "kind": "event", "sentence": s, "start": 7, "end": 10}]
        edges += [{"child": f"t{s}", "slot": "timex_ref", "parent": f"t{s - 1}" if s else "DCT"},
                  {"child": f"a{s}", "slot": "timex_ref", "parent": f"t{s}"},
                  {"child": f"b{s}", "slot": "timex_ref", "parent": f"t{(s + 6) % n}"},
                  {"child": f"c{s}", "slot": "timex_ref", "parent": "DCT"},
                  {"child": f"a{s}", "slot": "event_ref", "parent": f"a{s - 1}" if s else "NO_EVENT"},
                  {"child": f"b{s}", "slot": "event_ref", "parent": f"a{n - 1 - s}"},
                  {"child": f"c{s}", "slot": "event_ref", "parent": f"b{s}"}]
    doc = make_doc({"id": "mixed", "dct": "2021-01-01", "sentences": sentences,
                    "mentions": mentions, "edges": edges})
    types = list(ContentType)
    return doc, {("mixed", s): types[s % len(types)] for s in range(n)}


def initialized_model(config: ModelConfig, vocab, seed: int) -> RankingModel:
    """A model whose parameters init_params draws from a PCG64 generator seeded with ``seed``."""
    rng = np.random.Generator(np.random.PCG64(seed))
    return RankingModel(config, vocab, init_params(config, vocab, rng))


def clone_params(params: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """A copy of every parameter tensor, as a dict of new arrays."""
    return {name: np.array(arr) for name, arr in params.items()}


def _zero_model(doc) -> RankingModel:
    """A small model over ``doc``'s vocabulary with every parameter zero."""
    config = ModelConfig(dim=2, hidden=1)
    vocab = build_vocabulary([doc])
    params = init_params(config, vocab, np.random.default_rng(0))
    return RankingModel(config, vocab, {n: np.zeros_like(a) for n, a in params.items()})


def hand_ranking_loss(dct_score: float) -> float:
    """The ranking loss of a one-timex document whose gold parent is DCT.

    Its candidates are DCT and ROOT; the parameters make DCT score
    ``dct_score`` (>= 0, passed through one relu unit) and ROOT score 0.
    """
    doc = make_doc(ONE_TIMEX_DOC)
    model = _zero_model(doc)
    dct_feature = feature_dim(model.config.dim) - N_SCALAR_FEATURES + 7  # scalar 7: DCT
    model.params["w1"][0, dct_feature] = dct_score
    model.params["w2"][0] = 1.0
    return model.ranking_loss_and_grads([doc])[0]


def hand_dp_loss(logits, teacher: ContentType) -> float:
    """The dp loss of a one-sentence document whose head outputs ``logits``."""
    doc = make_doc(ONE_TIMEX_DOC)
    model = _zero_model(doc)
    model.params["dp_bias"][:] = logits
    return model.dp_loss_and_grads([doc], {(doc.id, 0): teacher})[0]


# A three-document corpus small enough to tally every table by hand:
#   doc a: M1 sentence (quake) + C2 sentence (response); cross-sentence
#          event and timex references back into the M1 sentence.
#   doc b: two D1 sentences; the timex anchors to ROOT, one event to the DCT.
#   doc c: one NA sentence; the event_ref edge is omitted on purpose to
#          exercise NO_EVENT normalization.
HAND_DOCS = [
    {
        "id": "a",
        "dct": "2021-03-01",
        "sentences": [
            {"index": 0, "tokens": ["quake", "hit", "monday"]},
            {"index": 1, "tokens": ["crews", "responded", "tuesday"]},
        ],
        "mentions": [
            {"id": "e1", "kind": "event", "sentence": 0, "start": 1, "end": 2},
            {"id": "t1", "kind": "timex", "sentence": 0, "start": 2, "end": 3},
            {"id": "e2", "kind": "event", "sentence": 1, "start": 1, "end": 2},
            {"id": "t2", "kind": "timex", "sentence": 1, "start": 2, "end": 3},
        ],
        "edges": [
            {"child": "t1", "slot": "timex_ref", "parent": "DCT"},
            {"child": "t2", "slot": "timex_ref", "parent": "t1", "label": "after"},
            {"child": "e1", "slot": "timex_ref", "parent": "t1", "label": "overlap"},
            {"child": "e1", "slot": "event_ref", "parent": "NO_EVENT"},
            {"child": "e2", "slot": "timex_ref", "parent": "t1"},
            {"child": "e2", "slot": "event_ref", "parent": "e1", "label": "after"},
        ],
    },
    {
        "id": "b",
        "dct": "2021-03-02",
        "sentences": [
            {"index": 0, "tokens": ["in-1990", "war", "began"]},
            {"index": 1, "tokens": ["aftermath", "lingered"]},
        ],
        "mentions": [
            {"id": "t3", "kind": "timex", "sentence": 0, "start": 0, "end": 1},
            {"id": "e3", "kind": "event", "sentence": 0, "start": 2, "end": 3},
            {"id": "e4", "kind": "event", "sentence": 1, "start": 1, "end": 2},
        ],
        "edges": [
            {"child": "t3", "slot": "timex_ref", "parent": "ROOT"},
            {"child": "e3", "slot": "timex_ref", "parent": "t3"},
            {"child": "e3", "slot": "event_ref", "parent": "NO_EVENT"},
            {"child": "e4", "slot": "timex_ref", "parent": "DCT"},
            {"child": "e4", "slot": "event_ref", "parent": "e3"},
        ],
    },
    {
        "id": "c",
        "dct": "2021-03-03",
        "sentences": [
            {"index": 0, "tokens": ["today", "meeting", "held"]},
        ],
        "mentions": [
            {"id": "t4", "kind": "timex", "sentence": 0, "start": 0, "end": 1},
            {"id": "e5", "kind": "event", "sentence": 0, "start": 2, "end": 3},
        ],
        "edges": [
            {"child": "t4", "slot": "timex_ref", "parent": "DCT"},
            {"child": "e5", "slot": "timex_ref", "parent": "t4"},
        ],
    },
]

HAND_DP_ROWS = [
    ("a", 0, "M1"),
    ("a", 1, "C2"),
    ("b", 0, "D1"),
    ("b", 1, "D1"),
    ("c", 0, "NA"),
]


@pytest.fixture
def hand_corpus():
    return [make_doc(obj) for obj in HAND_DOCS]


@pytest.fixture
def hand_dp_labels():
    return {(doc, idx): ContentType(tag) for doc, idx, tag in HAND_DP_ROWS}


@pytest.fixture
def hand_corpus_path(tmp_path):
    path = tmp_path / "hand.jsonl"
    path.write_text("".join(json.dumps(obj) + "\n" for obj in HAND_DOCS),
                    encoding="utf-8")
    return path


@pytest.fixture
def hand_dp_path(tmp_path):
    path = tmp_path / "hand.tsv"
    path.write_text("".join(f"{d}\t{i}\t{t}\n" for d, i, t in HAND_DP_ROWS),
                    encoding="utf-8")
    return path
