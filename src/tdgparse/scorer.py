"""Compact trainable scorer for candidate reference ranking.

The scorer embeds tokens, represents mentions and sentences as embedding
means, and scores each (child slot, candidate) pair with a small relu MLP
over concatenated representation blocks plus a handful of scalar features.
Three variants share this machinery:

- "baseline": sentence representations are plain token means;
- "dp_feature": the sentence's discourse content-type marker token is
  appended to the token set before averaging, so labels are needed to score;
- "dp_distill": representations match the baseline, but the model carries a
  linear discourse-profile head over sentence representations that training
  can supervise alongside the ranking objective.

Each document is indexed into flat arrays: one token table, the token ids
of every mention's segment and then of every sentence's, and the candidate
layout ``graph.candidate_layout`` builds for its slots, with each
candidate's key into one constant table of scalar features.
Given discourse labels, the index also holds every sentence's content type,
which dp_feature's markers and the dp head read; labels enter nowhere else,
and a sentence without a label raises DpLabelError there. A slot's gold
candidate is the parent its document's gold table, ``Document.gold``, names;
its position is computed only where a loss or an accuracy reads it, by
``_with_gold`` for training and validation, never for a prediction. A model
holds no index: each pass indexes the documents it reads. A batch of
documents, for training or scoring, is scored by one embedding gather, one
scatter that sums the token table's segments (a batch's table, too, holds
its mentions' segments before its sentences'), and a factored hidden
layer. The MLP's input
for a candidate is ``[u, sent(child), a, sent(cand), u*a, scalars]``, so its
first layer splits by column block: the child and candidate blocks are
multiplied once per mention and once per candidate-table row, and gathered
per candidate; only ``u*a`` and the scalars are multiplied per candidate.
One bound, ``BLOCK_CANDIDATES``, limits that per-candidate work: it runs
over slot-aligned blocks of at most that many candidates, each with its own
per-slot softmax, so memory stays bounded however long a document is;
gradients run the same blocks backwards and sum. ``lay_out`` lays the
indexes it is given end to end in runs of at most the same bound (a larger
document is a run of its own, split into blocks); fed indexes one at a time,
a predict run holds one run's indexes at a time. ``run_scores`` scores one
laid-out run: ``training.decode_corpus`` hands each document's share of it
to ``graph.greedy_decode`` as a ``graph.SlotScores``, and validation decodes
the whole run's positions at once by ``graph.greedy_positions``.
``score_document`` indexes and scores one document alone, as the
``SlotScores`` that ``greedy_decode`` reads.

Training reads batches from a ``TrainingLayout`` of the indexes it made,
which checks every gold parent once per training run and lays the documents
end to end once per epoch, so that a batch, content types included, is
slices of the epoch's layout.
A model's parameters are views of one float64 vector, ``RankingModel.flat``;
each loss writes its gradients into one vector laid out the same way, which
training's AdamW steps on whole.
All arithmetic is float64 numpy and gradients are computed analytically.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from collections.abc import Iterable, Iterator
from dataclasses import asdict, dataclass
from itertools import chain
from numbers import Real
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .corpus import (
    CONTENT_TYPE_INDEX,
    CONTENT_TYPES,
    MAX_COUNT,
    META_NODES,
    Corpus,
    Document,
    DpLabelMap,
    json_field,
    parse_object,
    require_dp_coverage,
    write_atomic,
)
from .graph import CandidateLayout, SlotScores, candidate_layout, candidate_set, slot_of


class ScorerError(ValueError):
    """The scorer was configured or invoked inconsistently."""


VARIANTS = ("baseline", "dp_feature", "dp_distill")

UNK_TOKEN = "<unk>"
CHILD_MARK = "$"
CAND_MARK = "@"
CONTENT_MARKERS = tuple(f"#{ct.value}#" for ct in CONTENT_TYPES)
RESERVED_TOKENS = (UNK_TOKEN, CHILD_MARK, CAND_MARK) + CONTENT_MARKERS

UNK_INDEX = 0
CHILD_MARK_INDEX = 1
CAND_MARK_INDEX = 2
MARKER_BASE_INDEX = 3

# rows of meta_embeddings, which head the candidate table before the mentions
N_META = len(META_NODES)

# scalar feature block, one column each: 0-4 sentence-distance bucket (0, 1,
# 2, 3-5, >=6), 5 child precedes candidate, 6 same sentence, 7-9 the
# candidate is DCT, ROOT or NO_EVENT
N_SCALAR_FEATURES = 10
_BUCKETS = (0, 1, 2, 3, 3, 3, 4)  # the bucket of each sentence distance up to _FAR
_FAR = len(_BUCKETS) - 1
_META_KEY = 2 * (_FAR + 1)
# a candidate's scalar block by its key, the index's ``feat``: a mention's
# key is min(sentence distance, _FAR) + (_FAR + 1) * [child precedes it], a
# meta node's _META_KEY plus its row
_ONE_HOT = np.eye(N_SCALAR_FEATURES)
_FEATURE_ROWS = np.array(
    [_ONE_HOT[bucket] + precedes * _ONE_HOT[5] + (distance == 0) * _ONE_HOT[6]
     for precedes in (0, 1) for distance, bucket in enumerate(_BUCKETS)] + list(_ONE_HOT[7:]))

# the most candidates one block of the per-candidate work holds (unless a
# single slot has more) and one run of lay_out lays end to end (unless a
# single document has more): it bounds the memory of scoring and
# of gradients
BLOCK_CANDIDATES = 1 << 10

PARAM_ORDER = ("embeddings", "meta_embeddings", "w1", "b1", "w2", "b2",
               "dp_weight", "dp_bias")


def feature_dim(dim: int) -> int:
    return 5 * dim + N_SCALAR_FEATURES


@dataclass(frozen=True)
class ModelConfig:
    dim: int = 32
    hidden: int = 64
    variant: str = "baseline"

    def __post_init__(self) -> None:
        if json_field(vars(self), "variant", str) not in VARIANTS:
            raise ScorerError(f"unknown variant {self.variant!r}")
        if not (1 <= json_field(vars(self), "dim", int) <= MAX_COUNT
                and 1 <= json_field(vars(self), "hidden", int) <= MAX_COUNT):
            raise ScorerError(f"dim and hidden must be positive, in [1, {MAX_COUNT}]")


class _TokenIds(dict):
    """Corpus tokens spelled in lowercase, the only ones a lowercased lookup
    can reach, each mapped to its row. Subscripted with a raw corpus token,
    it gives the token's own row, else (by __missing__) its lowercase form's,
    else ``<unk>``'s; __missing__ stores nothing, so the map never grows."""

    __slots__ = ()

    def __missing__(self, token: str) -> int:
        return self.get(token.lower(), UNK_INDEX)


class Vocabulary:
    """Token-to-index map with reserved marker tokens at fixed positions.

    Corpus tokens are lowercased; unknown tokens map to ``<unk>``. Marker
    tokens (child/candidate marks and the content-type markers) occupy fixed
    indices at the front and are addressed directly: ``index`` holds only
    corpus tokens, so text spelled like a marker, such as ``$``, is
    ``<unk>``. ``index[token]`` is a raw corpus token's row (a _TokenIds
    lowercases only what is not spelled lowercase already).
    """

    def __init__(self, tokens: list[str]):
        if tuple(tokens[: len(RESERVED_TOKENS)]) != RESERVED_TOKENS:
            raise ScorerError("vocabulary must start with the reserved tokens")
        self.tokens = list(tokens)
        if len(set(self.tokens)) != len(self.tokens):
            raise ScorerError("vocabulary contains duplicate tokens")
        self.index = _TokenIds((t, i) for i, t in enumerate(self.tokens)
                               if i >= len(RESERVED_TOKENS) and t.lower() == t)

    def __len__(self) -> int:
        return len(self.tokens)


def build_vocabulary(corpus: Corpus) -> Vocabulary:
    seen: set[str] = set()
    for doc in corpus:
        for sent in doc.sentences:
            for token in sent.tokens:
                seen.add(token.lower())
    ordered = sorted(seen - set(RESERVED_TOKENS))
    return Vocabulary(list(RESERVED_TOKENS) + ordered)


def param_shapes(config: ModelConfig, vocab: Vocabulary) -> dict[str, tuple[int, ...]]:
    """The shape of every parameter tensor, in PARAM_ORDER."""
    d, h = config.dim, config.hidden
    n_types = len(CONTENT_TYPES)
    return {"embeddings": (len(vocab), d), "meta_embeddings": (N_META, d),
            "w1": (h, feature_dim(d)), "b1": (h,), "w2": (h,), "b2": (),
            "dp_weight": (n_types, d), "dp_bias": (n_types,)}


def init_params(config: ModelConfig, vocab: Vocabulary,
                rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Uniform(-0.05, 0.05) weights drawn in PARAM_ORDER; biases start at zero."""
    scale = 0.05
    return {name: np.zeros(shape) if name in ("b1", "b2", "dp_bias")
            else rng.uniform(-scale, scale, shape)
            for name, shape in param_shapes(config, vocab).items()}


def param_views(flat: np.ndarray,
                shapes: dict[str, tuple[int, ...]]) -> dict[str, np.ndarray]:
    """A view of ``flat`` per tensor, the tensors of these shapes lying end to end in order."""
    views, lo = {}, 0
    for name, shape in shapes.items():
        size = math.prod(shape)
        views[name] = flat[lo:lo + size].reshape(shape)
        lo += size
    return views


def _softmax(x: np.ndarray) -> np.ndarray:
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _scatter_rows(index: np.ndarray, rows: np.ndarray, n: int) -> np.ndarray:
    """Sum each ``rows[i]`` into row ``index[i]`` of an (n, width) zero array.

    One bincount over (row, column) cells: it adds in input order, as
    ``np.add.at`` does, for a fraction of the cost.
    """
    width = rows.shape[1]
    cells = np.multiply(index, width, dtype=np.int64)[:, None] + np.arange(width)
    return np.bincount(cells.ravel(), weights=rows.ravel(),
                       minlength=n * width).reshape(n, width)


def _segment_sums(table: np.ndarray, tokens: np.ndarray,
                  lengths: np.ndarray) -> np.ndarray:
    """Sum of table rows over each token segment (one segment per mention or sentence)."""
    segment = np.repeat(np.arange(len(lengths)), lengths)
    return _scatter_rows(segment, table[tokens], len(lengths))


def _segment_means(table: np.ndarray, tokens: np.ndarray,
                   lengths: np.ndarray) -> np.ndarray:
    """Mean table row of each token segment."""
    return _segment_sums(table, tokens, lengths) / lengths[:, None]


def _token_grads(n_vocab: int, segments) -> np.ndarray:
    """Embedding-table gradient of segment sums.

    ``segments`` holds (tokens, lengths, gradient) triples, one gradient row
    per segment, which each of the segment's tokens receives in full.
    """
    tokens = np.concatenate([tok for tok, _, _ in segments])
    rows = np.concatenate([np.repeat(g, lengths, axis=0) for _, lengths, g in segments])
    return _scatter_rows(tokens, rows, n_vocab)


class _FlatIndex(NamedTuple):
    """Token and candidate tables of one document, or of a batch laid end to end.

    Mentions are rows in document order, and ``mention_sent`` holds each
    one's sentence row. ``tok`` is the token table: the token ids of every
    mention's segment, then of every sentence's, with one length per segment
    in ``tok_len``, so one scatter sums them all; a batch's table holds its
    mentions' segments, then its sentences' (each run's so, in a _concat
    with ``run``). ``ctype`` is each sentence's discourse content type, as
    its CONTENT_TYPES index, or None when the document was indexed without
    labels (and for a batch when any of its indexes was).

    Slots and their candidates are those of ``layout``, the document's
    ``candidate_layout`` (None for a batch): ``starts`` is the position of
    each slot's first candidate and ``cand`` each candidate's row in the
    candidate table, whose rows are the META_NODES and then the mentions
    (mention i at N_META + i). Per slot, ``gold`` is the position of its
    gold candidate or -1 when the gold parent is not a candidate; only
    _with_gold computes it, for training and validation, and it is None in
    an index made to predict (and for a batch when any of its indexes has
    none). Per candidate, ``child`` is the child mention's row and ``feat``
    its scalar features' key, the row of _FEATURE_ROWS that holds them.
    """

    layout: CandidateLayout | None
    tok: np.ndarray
    tok_len: np.ndarray
    ctype: np.ndarray | None
    mention_sent: np.ndarray
    starts: np.ndarray
    gold: np.ndarray | None
    child: np.ndarray
    cand: np.ndarray
    feat: np.ndarray

    @property
    def mention_len(self) -> np.ndarray:
        return self.tok_len[:len(self.mention_sent)]

    @property
    def sent_len(self) -> np.ndarray:
        return self.tok_len[len(self.mention_sent):]


def _blocks(starts: np.ndarray, n_cand: int) -> list[tuple[int, int, int, int]]:
    """Split slots into runs of at most BLOCK_CANDIDATES candidates.

    Each block is (first slot, end slot, first candidate, end candidate);
    a slot with more candidates than the bound is a block of its own.
    """
    if n_cand <= BLOCK_CANDIDATES:
        return [(0, len(starts), 0, n_cand)]
    bounds = starts.tolist() + [n_cand]
    blocks = []
    lo = 0
    while lo < len(starts):
        hi = max(lo + 1, bisect_right(bounds, bounds[lo] + BLOCK_CANDIDATES, lo) - 1)
        blocks.append((lo, hi, bounds[lo], bounds[hi]))
        lo = hi
    return blocks


def _joined(parts: list[np.ndarray]) -> np.ndarray:
    """The blocks' arrays end to end; one block's array is returned as it is."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _content_types(doc: Document, dp_labels: DpLabelMap) -> np.ndarray:
    """Each sentence's CONTENT_TYPES index; DpLabelError names a sentence without a label."""
    try:
        return np.array([CONTENT_TYPE_INDEX[dp_labels[(doc.id, s.index)]]
                         for s in doc.sentences], dtype=np.int64)
    except KeyError:
        require_dp_coverage(dp_labels, [doc], what=f"document {doc.id}")
        raise


def _index_document(doc: Document, vocab: Vocabulary,
                    dp_labels: DpLabelMap | None = None) -> _FlatIndex:
    """Index one document's tokens, candidate_layout and, given labels, content types.

    The index holds no gold positions: _with_gold adds them where a loss or
    an accuracy reads them.
    """
    ids = vocab.index.__getitem__  # bound once per document
    sent_ids = [list(map(ids, s.tokens)) for s in doc.sentences]
    ordered = doc.ordered_mentions()
    segments = [sent_ids[m.sentence][m.start:m.end] for m in ordered]
    segments += sent_ids
    sent = np.array([m.sentence for m in ordered], dtype=np.int32)
    layout = candidate_layout(doc)
    cand = layout.cand
    child = layout.slot_child[layout.cand_slot]

    is_mention = cand >= N_META
    c, r = child[is_mention], cand[is_mention] - N_META
    feat = (cand + _META_KEY).astype(np.uint8)
    # an int32 factor keeps the per-candidate temporaries int32, as a Python int would not
    feat[is_mention] = np.minimum(np.abs(sent[c] - sent[r]), _FAR) + np.int32(_FAR + 1) * (c < r)

    return _FlatIndex(
        layout,
        tok=np.array(list(chain.from_iterable(segments)), dtype=np.int32),
        tok_len=np.array(list(map(len, segments)), dtype=np.int32),
        ctype=None if dp_labels is None else _content_types(doc, dp_labels),
        mention_sent=sent, starts=layout.starts, gold=None, child=child, cand=cand,
        feat=feat)


def _with_gold(idx: _FlatIndex) -> _FlatIndex:
    """A document's index with ``gold``: per slot, the position of the
    candidate its document's gold table names, or -1 when that parent is not
    a candidate or the slot has none."""
    layout = idx.layout
    table_row = {name: i for i, name in enumerate(layout.names)}
    gold_row = np.array([table_row.get(parent, -1) for parent in layout.doc.gold.parents],
                        dtype=np.int64)
    hit = np.flatnonzero(idx.cand == gold_row[layout.cand_slot])
    gold = np.full(len(layout.slots), -1, dtype=np.int32)
    gold[layout.cand_slot[hit]] = hit
    return idx._replace(gold=gold)


def _sentence_sizes(batch: _FlatIndex, markers: np.ndarray | None) -> np.ndarray:
    """How many tokens each sentence's ranking representation averages."""
    return batch.sent_len if markers is None else batch.sent_len + 1


_NO_ROWS = np.zeros(0, dtype=np.int32)  # lets an empty batch concatenate


class _Offsets(NamedTuple):
    """A position in each kind of row of indexes laid end to end."""

    tok: int
    mention: int
    sent: int
    slot: int
    cand: int


def _columns(indexes: list[_FlatIndex]) -> dict[str, tuple[np.ndarray, ...]]:
    """Each _FlatIndex field's arrays, one per index."""
    columns = zip(*indexes) if indexes else [()] * len(_FlatIndex._fields)
    return dict(zip(_FlatIndex._fields, columns))


def _offsets(indexes: list[_FlatIndex]) -> np.ndarray:
    """Where each index starts when the indexes lie end to end, one column
    per _Offsets field; a last row holds the totals."""
    columns, n = _columns(indexes), len(indexes)
    offsets = np.zeros((n + 1, len(_Offsets._fields)), dtype=np.int32)
    for k, name in enumerate(("tok", "mention_sent", "tok_len", "starts", "cand")):
        np.cumsum(np.fromiter(map(len, columns[name]), dtype=np.int32, count=n),
                  out=offsets[1:, k])
    offsets[:, 2] -= offsets[:, 1]  # segments less mentions: sentences
    return offsets


def _concat(indexes: list[_FlatIndex], run: int | None = None,
            offsets: np.ndarray | None = None) -> _FlatIndex:
    """Lay indexes end to end, shifting every row reference to match.

    With ``run``, the indexes form runs of that many (the last may hold
    fewer), and each run's row references count from the run's own first
    rows, so that _slice takes a run back out as a batch of its own: each
    run's token table holds its mentions' segments, then its sentences'. A
    gold position of -1, a slot whose gold parent is not a candidate, stays
    -1, and ``gold`` or ``ctype`` is None when any index has none.
    ``offsets``, when given, is _offsets(indexes), which a caller that needs
    it too computes once.
    """
    if len(indexes) == 1:
        return indexes[0]
    columns = _columns(indexes)
    if offsets is None:
        offsets = _offsets(indexes)
    size = _Offsets(*np.diff(offsets, axis=0).T)
    first = offsets[:-1]
    run_of = np.arange(len(indexes)) // (run or max(len(indexes), 1))  # without run, one run
    if run is not None:
        first = first - first[run_of * run]
    first = _Offsets(*first.T)

    def cat(name: str) -> np.ndarray:
        return np.concatenate(columns[name]) if indexes else _NO_ROWS

    # a stable sort of the segments, and of their tokens, by run and then
    # mention before sentence
    key = np.repeat(np.stack([2 * run_of, 2 * run_of + 1], axis=1).ravel(),
                    np.stack([size.mention, size.sent], axis=1).ravel())
    tok_len = cat("tok_len")
    cand_first = np.repeat(first.cand, size.slot)
    mention_first = np.repeat(first.mention, size.cand)
    cand = cat("cand")
    if any(g is None for g in columns["gold"]):
        gold = None
    else:
        gold = cat("gold")
        gold = np.where(gold >= 0, gold + cand_first, -1)
    return _FlatIndex(
        None,
        tok=cat("tok")[np.argsort(np.repeat(key, tok_len), kind="stable")],
        tok_len=tok_len[np.argsort(key, kind="stable")],
        ctype=None if any(c is None for c in columns["ctype"]) else cat("ctype"),
        mention_sent=cat("mention_sent") + np.repeat(first.sent, size.mention),
        starts=cat("starts") + cand_first, gold=gold,
        child=cat("child") + mention_first,
        cand=cand + np.where(cand >= N_META, mention_first, 0),
        feat=cat("feat"))


def _slice(batch: _FlatIndex, lo: _Offsets, hi: _Offsets) -> _FlatIndex:
    """The rows of a batch from offsets lo to hi: a run of a _concat with ``run``."""
    return _FlatIndex(
        None,
        tok=batch.tok[lo.tok:hi.tok],
        tok_len=batch.tok_len[lo.mention + lo.sent:hi.mention + hi.sent],
        ctype=None if batch.ctype is None else batch.ctype[lo.sent:hi.sent],
        mention_sent=batch.mention_sent[lo.mention:hi.mention],
        starts=batch.starts[lo.slot:hi.slot],
        gold=None if batch.gold is None else batch.gold[lo.slot:hi.slot],
        child=batch.child[lo.cand:hi.cand], cand=batch.cand[lo.cand:hi.cand],
        feat=batch.feat[lo.cand:hi.cand])


def _require_gold(indexes: Iterable[_FlatIndex]) -> None:
    """Raise ScorerError for the first slot whose gold parent is not a candidate."""
    for idx in indexes:
        missing = np.flatnonzero(idx.gold < 0)
        if missing.size:
            doc = idx.layout.doc
            slot = idx.layout.slots[missing[0]]
            raise ScorerError(
                f"document {doc.id}: slot {slot} has no gold parent among "
                f"its candidates {candidate_set(doc, slot)}"
            )


def lay_out(indexes: Iterable[_FlatIndex]) -> Iterator[tuple[list[_FlatIndex], _FlatIndex]]:
    """The indexes in runs of at most BLOCK_CANDIDATES candidates, each laid end to end.

    Yields each run's indexes and the run laid end to end by _concat, which
    RankingModel.run_scores scores. A larger document is a run of its own.
    Indexes are taken from ``indexes`` only as each run fills.
    """
    run: list[_FlatIndex] = []
    n_cand = 0
    for idx in indexes:
        if run and n_cand + len(idx.cand) > BLOCK_CANDIDATES:
            yield run, _concat(run)
            run, n_cand = [], 0
        run.append(idx)
        n_cand += len(idx.cand)
    if run:
        yield run, _concat(run)


class _FirstLayer(NamedTuple):
    """The hidden layer's terms that do not depend on the candidate pair.

    w1's columns split into blocks ``[W_u | W_cs | W_a | W_ks | W_ua | W_s]``
    that multiply a candidate's ``[u, sent(child), a, sent(cand), u*a,
    scalars]``. Per mention, ``u`` is the child vector (its mean plus the
    child mark) and ``sent`` its sentence; per candidate-table row, ``a`` is
    the candidate vector (a meta embedding, or a mention's mean plus the
    candidate mark). ``c = u @ W_u.T + sent @ W_cs.T + b1`` per mention and
    ``t = a @ W_a.T + sent(row) @ W_ks.T`` per row, a meta row having no
    sentence term; a candidate's pre-activation is ``c[child] + t[cand] +
    [u*a, scalars] @ wx``, with ``wx = [W_ua | W_s].T``.
    """

    u: np.ndarray
    a: np.ndarray
    sent: np.ndarray
    c: np.ndarray
    t: np.ndarray
    wx: np.ndarray


class RankingModel:
    """Candidate scorer plus discourse-profile head over shared embeddings."""

    def __init__(self, config: ModelConfig, vocab: Vocabulary,
                 params: dict[str, np.ndarray]):
        self.config = config
        self.vocab = vocab
        self.params = params

    @property
    def params(self) -> dict[str, np.ndarray]:
        """Every parameter tensor by name, in PARAM_ORDER, each a view of ``flat``."""
        return self._params

    @params.setter
    def params(self, params: dict[str, np.ndarray]) -> None:
        """Copy params into a new ``flat``, after checking their names, shapes and values."""
        if set(params) != set(PARAM_ORDER):
            raise ScorerError(f"params must have exactly the keys {sorted(PARAM_ORDER)}")
        shapes = param_shapes(self.config, self.vocab)
        for name, shape in shapes.items():
            if np.shape(params[name]) != shape:
                raise ScorerError(f"parameter {name} has shape {np.shape(params[name])}, "
                                  f"expected {shape} for this vocabulary and config")
            if not np.all(np.isfinite(params[name])):
                raise ScorerError(f"parameter {name} holds non-finite values")
        self.flat = np.concatenate([np.ravel(params[name]) for name in PARAM_ORDER],
                                   dtype=np.float64)
        self._params = param_views(self.flat, shapes)

    def _grads(self, grad: np.ndarray | None) -> dict[str, np.ndarray]:
        """A view per parameter of grad, zeroed in place, or of a new zero vector."""
        if grad is None:
            grad = np.zeros_like(self.flat)
        else:
            grad.fill(0.0)
        return param_views(grad, param_shapes(self.config, self.vocab))

    def _feature_labels(self, dp_labels: DpLabelMap | None) -> DpLabelMap | None:
        """dp_labels if ranking reads them (dp_feature), else None: what a ranking index takes."""
        return dp_labels if self.config.variant == "dp_feature" else None

    def _markers(self, batch: _FlatIndex) -> np.ndarray | None:
        """The content-marker token of every sentence of a batch under dp_feature, else None."""
        if self.config.variant != "dp_feature":
            return None
        if batch.ctype is None:
            raise ScorerError("variant dp_feature requires discourse labels to score")
        return MARKER_BASE_INDEX + batch.ctype

    def _first_layer(self, batch: _FlatIndex, markers: np.ndarray | None) -> _FirstLayer:
        """The first layer's terms for each mention and candidate-table row.

        A sentence is the mean of its tokens, plus its marker token when
        ``markers`` gives one per sentence.
        """
        p = self.params
        d = self.config.dim
        emb, w1 = p["embeddings"], p["w1"]
        # one scatter sums the mentions' tokens into the first rows and the
        # sentences' into the rest; each row adds its tokens in order, as a
        # scatter of its own would
        n_mentions = len(batch.mention_sent)
        sums = _segment_sums(emb, batch.tok, batch.tok_len)
        mention = sums[:n_mentions] / batch.mention_len[:, None]
        sent = sums[n_mentions:]
        if markers is not None:
            sent = sent + emb[markers]
        sent = (sent / _sentence_sizes(batch, markers)[:, None])[batch.mention_sent]
        u = mention + emb[CHILD_MARK_INDEX]
        a = np.concatenate([p["meta_embeddings"], mention + emb[CAND_MARK_INDEX]])
        c = u @ w1[:, :d].T + sent @ w1[:, d:2 * d].T + p["b1"]
        t = a @ w1[:, 2 * d:3 * d].T
        t[N_META:] += sent @ w1[:, 3 * d:4 * d].T
        # a contiguous copy: batch-sized products with w1's strided column
        # block took about twice as long
        return _FirstLayer(u, a, sent, c, t, np.ascontiguousarray(w1[:, 4 * d:].T))

    def _block_forward(self, layer: _FirstLayer, batch: _FlatIndex, lo: int, hi: int):
        """Forward pass over candidates lo:hi of a batch.

        Returns their child and candidate vectors u and a, the inputs
        ``x = [u*a, scalars]`` that the first layer multiplies per
        candidate, hidden pre-activations z, relu outputs r and scores s.
        """
        child, cand = batch.child[lo:hi], batch.cand[lo:hi]
        u, a = layer.u.take(child, axis=0), layer.a.take(cand, axis=0)
        x = np.concatenate([u * a, _FEATURE_ROWS.take(batch.feat[lo:hi], axis=0)], axis=1)
        z = layer.c.take(child, axis=0)
        z += layer.t.take(cand, axis=0)
        z += x @ layer.wx
        r = np.maximum(z, 0.0)
        return u, a, x, z, r, r @ self.params["w2"] + self.params["b2"]

    def run_scores(self, batch: _FlatIndex) -> np.ndarray:
        """The score of every candidate of a run: one first layer, then its blocks.

        Under dp_feature the run's indexes must carry content types.
        """
        layer = self._first_layer(batch, self._markers(batch))
        scores = np.empty(len(batch.cand))
        for _, _, c_lo, c_hi in _blocks(batch.starts, len(batch.cand)):
            scores[c_lo:c_hi] = self._block_forward(layer, batch, c_lo, c_hi)[-1]
        return scores

    def score_document(self, doc: Document,
                       dp_labels: DpLabelMap | None = None) -> SlotScores:
        """The scores of one document, as a SlotScores over its index's layout.

        The document is indexed for this call, with dp_labels under
        dp_feature only, and scored as a run of its own, block by block past
        BLOCK_CANDIDATES.
        """
        idx = _index_document(doc, self.vocab, self._feature_labels(dp_labels))
        return SlotScores(idx.layout, self.run_scores(idx))

    def ranking_loss_and_grads(
        self, docs: list[Document], dp_labels: DpLabelMap | None = None, *,
        laid: _FlatIndex | None = None, grad: np.ndarray | None = None,
    ) -> tuple[float, dict[str, np.ndarray]]:
        """Mean listwise cross-entropy over every slot, with full gradients.

        Each slot contributes -log softmax(scores)[gold]; the mean runs over
        all slots of all documents in the batch. ``laid`` is docs laid out
        already (TrainingLayout), with every gold parent checked and, under
        dp_feature, content types; without it the documents are indexed
        (with dp_labels under dp_feature), given gold positions, checked and
        laid end to end here. The gradients are views of ``grad``, zeroed
        first, or of a new vector.
        """
        if laid is None:
            labels = self._feature_labels(dp_labels)
            indexes = [_with_gold(_index_document(doc, self.vocab, labels)) for doc in docs]
            _require_gold(indexes)
            laid = _concat(indexes)
        batch, markers = laid, self._markers(laid)
        grads = self._grads(grad)
        n_slots = len(batch.starts)
        if n_slots == 0:
            return 0.0, grads
        d, h = self.config.dim, self.config.hidden
        w1, w2 = self.params["w1"], self.params["w2"]
        gw1 = grads["w1"]
        layer = self._first_layer(batch, markers)
        n_rows = len(layer.a)
        total = 0.0
        # dz summed per slot (later per child mention) and per table row, each
        # beside the u*a block's share of the gradient toward u or a
        dz_slot, du_slot = [], []
        d_row = np.zeros((n_rows, h + d))
        for s_lo, s_hi, c_lo, c_hi in _blocks(batch.starts, len(batch.cand)):
            u, a, x, z, r, s = self._block_forward(layer, batch, c_lo, c_hi)
            # segmented softmax; bincount sums each slot in order, as
            # ndarray.sum does for fewer than eight candidates
            starts = batch.starts[s_lo:s_hi] - c_lo
            gold = batch.gold[s_lo:s_hi] - c_lo
            slot = slot_of(starts, c_hi - c_lo)
            e = np.exp(s - np.maximum.reduceat(s, starts)[slot])
            p = e / np.bincount(slot, weights=e)[slot]
            total -= np.log(p[gold]).sum()
            g = p / n_slots
            g[gold] -= 1.0 / n_slots
            grads["b2"] += g.sum()
            grads["w2"] += r.T @ g
            dz = g[:, None] * w2
            dz *= z > 0
            gw1[:, 4 * d:] += dz.T @ x
            dx = dz @ layer.wx[:d].T
            dz_slot.append(np.add.reduceat(dz, starts))
            du_slot.append(np.add.reduceat(dx * a, starts))
            d_row += _scatter_rows(batch.cand[c_lo:c_hi],
                                   np.concatenate([dz, dx * u], axis=1), n_rows)
        d_child = _scatter_rows(batch.child[batch.starts],
                                np.concatenate([_joined(dz_slot), _joined(du_slot)], axis=1),
                                len(layer.u))
        dc, dt = d_child[:, :h], d_row[:, :h]
        grads["b1"][:] = dc.sum(axis=0)
        gw1[:, :d] = dc.T @ layer.u
        gw1[:, d:2 * d] = dc.T @ layer.sent
        gw1[:, 2 * d:3 * d] = dt.T @ layer.a
        gw1[:, 3 * d:4 * d] = dt[N_META:].T @ layer.sent
        du = dc @ w1[:, :d] + d_child[:, h:]
        da = dt @ w1[:, 2 * d:3 * d] + d_row[:, h:]
        grads["meta_embeddings"][:] = da[:N_META]
        d_cand = da[N_META:]
        d_sent = _scatter_rows(batch.mention_sent,
                               dc @ w1[:, d:2 * d] + dt[N_META:] @ w1[:, 3 * d:4 * d],
                               len(batch.sent_len)) / _sentence_sizes(batch, markers)[:, None]
        segments = [(batch.tok, batch.tok_len,
                     np.concatenate([(du + d_cand) / batch.mention_len[:, None], d_sent]))]
        if markers is not None:
            segments.append((markers, 1, d_sent))
        demb = grads["embeddings"]
        demb[:] = _token_grads(len(self.vocab), segments)
        demb[CHILD_MARK_INDEX] += du.sum(axis=0)
        demb[CAND_MARK_INDEX] += d_cand.sum(axis=0)
        return float(total / n_slots), grads

    def dp_loss_and_grads(
        self, docs: list[Document], dp_labels: DpLabelMap | None = None, *,
        laid: _FlatIndex | None = None, grad: np.ndarray | None = None,
    ) -> tuple[float, dict[str, np.ndarray]]:
        """Mean 9-way cross-entropy of the discourse head over all sentences.

        The head's targets are the batch's content types: ``laid`` (as for
        ranking_loss_and_grads) must carry them, and without it the documents
        are indexed with dp_labels here. A batch without them raises
        ScorerError. ``grad`` is as for ranking_loss_and_grads.
        """
        if laid is None:
            laid = _concat([_index_document(doc, self.vocab, dp_labels) for doc in docs])
        batch, labels = laid, laid.ctype
        if labels is None:
            raise ScorerError("the discourse head requires discourse labels to train")
        grads = self._grads(grad)
        n_sents = len(batch.sent_len)
        if n_sents == 0:
            return 0.0, grads
        wd = self.params["dp_weight"]
        sent_tok = batch.tok[batch.mention_len.sum():]
        s = _segment_means(self.params["embeddings"], sent_tok, batch.sent_len)
        p = _softmax(s @ wd.T + self.params["dp_bias"])
        rows = np.arange(n_sents)
        total = -np.log(p[rows, labels]).sum()
        g = p / n_sents
        g[rows, labels] -= 1.0 / n_sents
        grads["dp_weight"][:] = g.T @ s
        grads["dp_bias"][:] = g.sum(axis=0)
        grads["embeddings"][:] = _token_grads(
            len(self.vocab), [(sent_tok, batch.sent_len, (g @ wd) / batch.sent_len[:, None])])
        return float(total / n_sents), grads


class TrainingLayout:
    """The training documents of one train() call, laid end to end once per epoch.

    Built once per call from the documents' indexes, which train() makes
    with the content types its losses read: each is given its gold
    positions and every gold parent is checked (the ScorerError
    ranking_loss_and_grads raises). ``batches(order, size)`` lays the
    indexes out in the epoch's order with one _concat, in runs of ``size``
    whose rows count from each run's start, and yields each run's documents
    with the run's slice of that layout, content types included: no array
    computed per batch.
    """

    def __init__(self, indexes: list[_FlatIndex]):
        self.indexes = [_with_gold(idx) for idx in indexes]
        _require_gold(self.indexes)

    def batches(self, order: np.ndarray, size: int) -> Iterator[tuple[list[Document], _FlatIndex]]:
        """Each run of ``size`` documents of ``order`` and the run laid end to end."""
        indexes = [self.indexes[i] for i in order]
        offsets = _offsets(indexes)
        laid = _concat(indexes, run=size, offsets=offsets)
        offsets = offsets.tolist()
        for lo in range(0, len(order), size):
            hi = min(lo + size, len(order))
            yield ([self.indexes[i].layout.doc for i in order[lo:hi]],
                   _slice(laid, _Offsets(*offsets[lo]), _Offsets(*offsets[hi])))


CHECKPOINT_FORMAT = 1


def save_checkpoint(model: RankingModel, path: str | Path,
                    train_config: dict | None = None,
                    seed: int | None = None) -> None:
    """Write the model as deterministic JSON through corpus.write_atomic.

    Parameter tensors are stored as shape plus row-major value lists, which
    round-trip exactly (json emits shortest-repr floats). ``train_config``
    and ``seed`` are echoed verbatim when given so a checkpoint records how
    it was produced.
    """
    obj = {
        "format_version": CHECKPOINT_FORMAT,
        "hyperparameters": asdict(model.config),
        "vocabulary": model.vocab.tokens,
        "params": {
            name: {
                "shape": list(model.params[name].shape),
                "data": np.ascontiguousarray(model.params[name]).ravel().tolist(),
            }
            for name in PARAM_ORDER
        },
        "train_config": train_config,
        "seed": seed,
    }
    write_atomic(path, [json.dumps(obj, ensure_ascii=False)])


def load_checkpoint(path: str | Path) -> RankingModel:
    """Read a save_checkpoint file; ScorerError names what is malformed."""
    try:
        obj = parse_object(Path(path).read_text(encoding="utf-8"))
        if json_field(obj, "format_version", int) != CHECKPOINT_FORMAT:
            raise ScorerError(f"unsupported format_version {obj['format_version']}")
        config = ModelConfig(**json_field(obj, "hyperparameters", dict))
        vocab = Vocabulary(json_field(obj, "vocabulary", list, "", str))
        tensors = json_field(obj, "params", dict)
        params = {}
        for name, expected in param_shapes(config, vocab).items():
            entry = json_field(tensors, name, dict, "params")
            data = json_field(entry, "data", list, f"params: {name}", Real)
            shape = tuple(json_field(entry, "shape", list, f"params: {name}", int))
            if shape != expected:
                raise ScorerError(f"parameter {name} has shape {shape}, "
                                  f"expected {expected} for this vocabulary and config")
            params[name] = np.array(data, dtype=np.float64).reshape(shape)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ScorerError(f"malformed checkpoint {path}: {exc}") from None
    return RankingModel(config, vocab, params)
