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

Each document is indexed once into flat arrays (token ids of every mention
and sentence, and every slot's candidates with their packed scalar
features). A batch of documents is scored by one embedding gather with
segment means, one matrix product for the MLP's hidden layer and a softmax
per slot segment; gradients run the same arrays backwards. All arithmetic is
float64 numpy and gradients are computed analytically.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import (
    CONTENT_TYPE_INDEX,
    CONTENT_TYPES,
    DCT,
    EVENT,
    EVENT_REF,
    META_NODES,
    NO_EVENT,
    ROOT,
    TIMEX,
    TIMEX_REF,
    ContentType,
    Corpus,
    Document,
    DpLabelMap,
    require_dp_coverage,
)
from .graph import ScoredCandidates, Slot, candidate_set, slot_instances


class ScorerError(Exception):
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
_META_ROW = {name: i for i, name in enumerate(META_NODES)}

# scalar feature block, one bit each in a candidate's packed features:
# 0-4 sentence-distance bucket (0, 1, 2, 3-5, >=6), 5 child precedes
# candidate, 6 same sentence, 7-9 the candidate is DCT, ROOT or NO_EVENT
N_SCALAR_FEATURES = 10
_PRECEDES_BIT, _SAME_SENTENCE_BIT, _META_BIT = 5, 6, 7

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
        if self.variant not in VARIANTS:
            raise ScorerError(f"unknown variant {self.variant!r}")
        if self.dim < 1 or self.hidden < 1:
            raise ScorerError("dim and hidden must be positive")


class Vocabulary:
    """Token-to-index map with reserved marker tokens at fixed positions.

    Corpus tokens are lowercased; unknown tokens map to ``<unk>``. Marker
    tokens (child/candidate marks and the content-type markers) occupy fixed
    indices at the front and are addressed directly, not through ``lookup``.
    """

    def __init__(self, tokens: list[str]):
        if tuple(tokens[: len(RESERVED_TOKENS)]) != RESERVED_TOKENS:
            raise ScorerError("vocabulary must start with the reserved tokens")
        self.tokens = list(tokens)
        self.index = {t: i for i, t in enumerate(self.tokens)}
        if len(self.index) != len(self.tokens):
            raise ScorerError("vocabulary contains duplicate tokens")

    def __len__(self) -> int:
        return len(self.tokens)

    def lookup(self, token: str) -> int:
        return self.index.get(token.lower(), UNK_INDEX)

    def marker_index(self, content_type: ContentType) -> int:
        return MARKER_BASE_INDEX + CONTENT_TYPE_INDEX[content_type]


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


def zero_grads(params: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    return {name: np.zeros_like(arr) for name, arr in params.items()}


def clone_params(params: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    return {name: arr.copy() for name, arr in params.items()}


def _softmax(x: np.ndarray) -> np.ndarray:
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _starts(lengths: np.ndarray) -> np.ndarray:
    """Offset of each segment when segments of these lengths lie end to end."""
    starts = np.zeros(len(lengths), dtype=np.int64)
    np.cumsum(lengths[:-1], out=starts[1:])
    return starts


def _scatter_rows(index: np.ndarray, rows: np.ndarray, n: int) -> np.ndarray:
    """Sum each ``rows[i]`` into row ``index[i]`` of an (n, width) zero array.

    One bincount over (row, column) cells: it adds in input order, as
    ``np.add.at`` does, for a fraction of the cost.
    """
    width = rows.shape[1]
    cells = np.asarray(index, dtype=np.int64)[:, None] * width + np.arange(width)
    return np.bincount(cells.ravel(), weights=rows.ravel(),
                       minlength=n * width).reshape(n, width)


def _segment_means(table: np.ndarray, tokens: np.ndarray,
                   lengths: np.ndarray) -> np.ndarray:
    """Mean table row of each token segment (one segment per mention or sentence)."""
    segment = np.repeat(np.arange(len(lengths)), lengths)
    return _scatter_rows(segment, table[tokens], len(lengths)) / lengths[:, None]


def _token_grads(n_vocab: int, segments) -> np.ndarray:
    """Embedding-table gradient of segment means.

    ``segments`` holds (tokens, lengths, gradient) triples, one gradient row
    per segment; each row is split evenly over the segment's tokens.
    """
    tokens = np.concatenate([tok for tok, _, _ in segments])
    rows = np.concatenate([np.repeat(g / lengths[:, None], lengths, axis=0)
                           for _, lengths, g in segments])
    return _scatter_rows(tokens, rows, n_vocab)


class _FlatIndex:
    """Token and candidate tables of one document, or of a batch laid end to end.

    Mentions are rows in document order. Token ids are in CSR form: flat ids
    plus one length per mention or sentence. ``sent_tok`` holds the plain
    sentence tokens and ``phi_tok`` the ones the ranking scorer averages;
    they are the same arrays unless ``add_markers`` appended the dp_feature
    content markers of ``dp_labels``.

    Slots follow ``slot_instances`` order. Per slot: ``starts``, the position
    of its first candidate, and ``gold``, the position of its gold candidate
    or -1 when the gold parent is not a candidate. Candidates lie end to end
    in ``candidate_set`` order. Per candidate: ``slot``; ``child`` and
    ``child_sent``, the child mention's row and sentence; ``cand``, its row
    in the candidate table, whose rows are the META_NODES and then the
    mentions (mention i at N_META + i); ``cand_sent``, 1 + its sentence, or 0
    for a meta node; and ``feat``, its scalar features as bits.
    """

    __slots__ = ("doc", "dp_labels", "mention_tok", "mention_len", "sent_tok",
                 "sent_len", "phi_tok", "phi_len", "starts", "gold", "slot",
                 "child", "child_sent", "cand", "cand_sent", "feat")

    def __init__(self, doc: Document | None, **arrays: np.ndarray):
        self.doc = doc
        self.dp_labels = None
        for name, array in arrays.items():
            setattr(self, name, array)

    def add_markers(self, vocab: Vocabulary, dp_labels: DpLabelMap) -> None:
        """Append each sentence's content-type marker to the tokens the ranking scorer averages."""
        doc = self.doc
        markers = [vocab.marker_index(dp_labels[(doc.id, s.index)]) for s in doc.sentences]
        self.phi_tok = np.insert(self.sent_tok, np.cumsum(self.sent_len), markers)
        self.phi_len = self.sent_len + 1
        self.dp_labels = dp_labels


def _index_document(doc: Document, vocab: Vocabulary) -> _FlatIndex:
    """Index one document with whole-array operations, no loop over slots or candidates."""
    sent_ids = [[vocab.lookup(t) for t in s.tokens] for s in doc.sentences]
    ordered = doc.ordered_mentions()
    spans = [sent_ids[m.sentence][m.start:m.end] for m in ordered]
    sent = np.array([m.sentence for m in ordered], dtype=np.int32)
    is_timex = np.array([m.kind == TIMEX for m in ordered], dtype=bool)
    is_event = np.array([m.kind == EVENT for m in ordered], dtype=bool)

    # every mention's timex_ref slot, then an event's event_ref slot
    per_mention = 1 + is_event
    child = np.repeat(np.arange(len(ordered)), per_mention)
    event_ref = np.zeros(len(child), dtype=bool)
    event_ref[np.cumsum(per_mention) - 1] = is_event

    # each slot's meta candidates, then its pool of timexes or events minus
    # the child; a stable sort by slot puts them in candidate_set order
    timex_slots, event_slots = np.flatnonzero(~event_ref), np.flatnonzero(event_ref)
    timexes, events = np.flatnonzero(is_timex), np.flatnonzero(is_event)
    root_slots = timex_slots[is_timex[child[timex_slots]]]
    pool_slot = np.concatenate([np.repeat(timex_slots, len(timexes)),
                                np.repeat(event_slots, len(events))])
    pool = np.concatenate([np.tile(timexes, len(timex_slots)),
                           np.tile(events, len(event_slots))])
    keep = pool != child[pool_slot]
    slot = np.concatenate([np.arange(len(child)), root_slots, pool_slot[keep]])
    cand = np.concatenate([np.where(event_ref, _META_ROW[NO_EVENT], _META_ROW[DCT]),
                           np.full(len(root_slots), _META_ROW[ROOT]),
                           pool[keep] + N_META])
    order = np.argsort(slot, kind="stable")
    slot, cand = slot[order], cand[order]

    row = cand - N_META
    is_mention = row >= 0
    cand_child = child[slot]
    c, r = cand_child[is_mention], row[is_mention]
    delta = np.abs(sent[c] - sent[r])
    bucket = np.where(delta <= 2, delta, np.where(delta <= 5, 3, 4))
    feat = np.empty(len(cand), dtype=np.uint16)
    feat[~is_mention] = 1 << (_META_BIT + cand[~is_mention])
    feat[is_mention] = ((1 << bucket) + (c < r) * (1 << _PRECEDES_BIT)
                        + (delta == 0) * (1 << _SAME_SENTENCE_BIT))
    cand_sent = np.zeros(len(cand), dtype=np.int32)
    cand_sent[is_mention] = sent[r] + 1

    ids = [m.id for m in ordered]
    table_row = {name: i for i, name in enumerate(META_NODES + tuple(ids))}
    gold_parent = {(e.child, e.slot): e.parent for e in reversed(doc.gold_edges)}
    gold_row = np.array(
        [table_row.get(gold_parent.get((ids[m], EVENT_REF if e else TIMEX_REF)), -1)
         for m, e in zip(child.tolist(), event_ref.tolist())], dtype=np.int64)
    hit = np.flatnonzero(cand == gold_row[slot])
    gold = np.full(len(child), -1, dtype=np.int32)
    gold[slot[hit]] = hit

    sent_tok = np.array([i for sentence in sent_ids for i in sentence], dtype=np.int32)
    sent_len = np.array([len(sentence) for sentence in sent_ids], dtype=np.int32)
    return _FlatIndex(
        doc,
        mention_tok=np.array([i for span in spans for i in span], dtype=np.int32),
        mention_len=np.array([len(span) for span in spans], dtype=np.int32),
        sent_tok=sent_tok, sent_len=sent_len, phi_tok=sent_tok, phi_len=sent_len,
        starts=_starts(np.bincount(slot, minlength=len(child))).astype(np.int32),
        gold=gold, slot=slot.astype(np.int32), child=cand_child.astype(np.int32),
        child_sent=sent[cand_child], cand=cand.astype(np.int32), cand_sent=cand_sent,
        feat=feat)


_NO_ROWS = np.zeros(0, dtype=np.int32)  # lets an empty batch concatenate


def _concat(indexes: list[_FlatIndex]) -> _FlatIndex:
    """Lay indexes end to end, shifting every row reference to match.

    Gold positions are shifted as they are, so callers check them first.
    """
    if len(indexes) == 1:
        return indexes[0]

    def cat(name: str) -> np.ndarray:
        return np.concatenate([_NO_ROWS] + [getattr(idx, name) for idx in indexes])

    def firsts(name: str) -> np.ndarray:
        """Each index's first row among ``name``'s rows in the batch."""
        return _starts(np.array([len(getattr(idx, name)) for idx in indexes]))

    n_cand = [len(idx.cand) for idx in indexes]
    n_slot = [len(idx.starts) for idx in indexes]
    cand_first = np.repeat(firsts("cand"), n_slot)
    mention_first = np.repeat(firsts("mention_len"), n_cand)
    sent_first = np.repeat(firsts("sent_len"), n_cand)
    cand, cand_sent = cat("cand"), cat("cand_sent")
    return _FlatIndex(
        None,
        mention_tok=cat("mention_tok"), mention_len=cat("mention_len"),
        sent_tok=cat("sent_tok"), sent_len=cat("sent_len"),
        phi_tok=cat("phi_tok"), phi_len=cat("phi_len"),
        starts=cat("starts") + cand_first, gold=cat("gold") + cand_first,
        slot=cat("slot") + np.repeat(firsts("starts"), n_cand),
        child=cat("child") + mention_first, child_sent=cat("child_sent") + sent_first,
        cand=cand + np.where(cand >= N_META, mention_first, 0),
        cand_sent=cand_sent + np.where(cand_sent > 0, sent_first, 0),
        feat=cat("feat"))


class RankingModel:
    """Candidate scorer plus discourse-profile head over shared embeddings."""

    def __init__(self, config: ModelConfig, vocab: Vocabulary,
                 params: dict[str, np.ndarray]):
        if set(params) != set(PARAM_ORDER):
            raise ScorerError(f"params must have exactly the keys {sorted(PARAM_ORDER)}")
        for name, shape in param_shapes(config, vocab).items():
            if params[name].shape != shape:
                raise ScorerError(f"parameter {name} has shape {params[name].shape}, "
                                  f"expected {shape} for this vocabulary and config")
            if not np.all(np.isfinite(params[name])):
                raise ScorerError(f"parameter {name} holds non-finite values")
        self.config = config
        self.vocab = vocab
        self.params = params
        self._index_cache: dict[str, _FlatIndex] = {}

    @classmethod
    def initialized(cls, config: ModelConfig, vocab: Vocabulary,
                    seed: int) -> "RankingModel":
        rng = np.random.Generator(np.random.PCG64(seed))
        return cls(config, vocab, init_params(config, vocab, rng))

    def _index(self, doc: Document) -> _FlatIndex:
        cached = self._index_cache.get(doc.id)
        if cached is not None and cached.doc is doc:
            return cached
        idx = _index_document(doc, self.vocab)
        self._index_cache[doc.id] = idx
        return idx

    def _ranking_indexes(self, docs: list[Document],
                         dp_labels: DpLabelMap | None) -> list[_FlatIndex]:
        """Indexes whose ranking tokens carry this variant's sentence markers."""
        indexes = [self._index(doc) for doc in docs]
        if self.config.variant == "dp_feature":
            for idx in indexes:
                if dp_labels is None:
                    raise ScorerError("variant dp_feature requires discourse labels to score")
                if idx.dp_labels is not dp_labels:
                    idx.add_markers(self.vocab, dp_labels)
        return indexes

    def _ranking_forward(self, batch: _FlatIndex):
        """Forward pass over every candidate of a batch.

        Returns the features Phi (one row per candidate), their child and
        candidate blocks u and a, hidden pre-activations z, relu outputs r
        and scores s.
        """
        p = self.params
        emb = p["embeddings"]
        mention = _segment_means(emb, batch.mention_tok, batch.mention_len)
        sent = _segment_means(emb, batch.phi_tok, batch.phi_len)
        u = (mention + emb[CHILD_MARK_INDEX])[batch.child]
        a = np.concatenate([p["meta_embeddings"],
                            mention + emb[CAND_MARK_INDEX]])[batch.cand]
        no_sentence = np.zeros((1, self.config.dim))
        scalars = (batch.feat[:, None] >> np.arange(N_SCALAR_FEATURES)) & 1
        phi = np.concatenate([u, sent[batch.child_sent], a,
                              np.concatenate([no_sentence, sent])[batch.cand_sent],
                              u * a, scalars], axis=1)
        z = phi @ p["w1"].T + p["b1"]
        r = np.maximum(z, 0.0)
        s = r @ p["w2"] + p["b2"]
        return phi, u, a, z, r, s

    def score_document(self, doc: Document,
                       dp_labels: DpLabelMap | None = None) -> dict[Slot, ScoredCandidates]:
        """Score every candidate of every slot of one document."""
        (idx,) = self._ranking_indexes([doc], dp_labels)
        scores = self._ranking_forward(idx)[-1].tolist()
        names = META_NODES + tuple(m.id for m in doc.ordered_mentions())
        cands = [names[c] for c in idx.cand.tolist()]
        starts = idx.starts.tolist()
        return {slot: ScoredCandidates(slot, cands[start:end], scores[start:end])
                for slot, start, end in zip(slot_instances(doc), starts,
                                            starts[1:] + [len(cands)])}

    def dp_logits(self, doc: Document) -> np.ndarray:
        """(n_sentences, 9) content-type logits from plain sentence means."""
        idx = self._index(doc)
        sent = _segment_means(self.params["embeddings"], idx.sent_tok, idx.sent_len)
        return sent @ self.params["dp_weight"].T + self.params["dp_bias"]

    def ranking_loss_and_grads(
        self, docs: list[Document], dp_labels: DpLabelMap | None = None,
    ) -> tuple[float, dict[str, np.ndarray]]:
        """Mean listwise cross-entropy over every slot, with full gradients.

        Each slot contributes -log softmax(scores)[gold]; the mean runs over
        all slots of all documents in the batch.
        """
        grads = zero_grads(self.params)
        indexes = self._ranking_indexes(docs, dp_labels)
        for idx in indexes:
            missing = np.flatnonzero(idx.gold < 0)
            if missing.size:
                slot = slot_instances(idx.doc)[missing[0]]
                raise ScorerError(
                    f"document {idx.doc.id}: slot {slot} has no gold parent among "
                    f"its candidates {candidate_set(idx.doc, slot)}"
                )
        batch = _concat(indexes)
        n_slots = len(batch.starts)
        if n_slots == 0:
            return 0.0, grads
        d = self.config.dim
        w1, w2 = self.params["w1"], self.params["w2"]
        phi, u, a, z, r, s = self._ranking_forward(batch)
        # segmented softmax; bincount sums each slot in order, as ndarray.sum
        # does for fewer than eight candidates
        e = np.exp(s - np.maximum.reduceat(s, batch.starts)[batch.slot])
        p = e / np.bincount(batch.slot, weights=e)[batch.slot]
        total = -np.log(p[batch.gold]).sum()
        g = p / n_slots
        g[batch.gold] -= 1.0 / n_slots
        grads["b2"][...] = g.sum()
        grads["w2"] = r.T @ g
        dz = np.outer(g, w2) * (z > 0)
        grads["w1"] = dz.T @ phi
        grads["b1"] = dz.sum(axis=0)
        dphi = dz @ w1
        du = dphi[:, 0:d] + dphi[:, 4 * d:5 * d] * a
        da = dphi[:, 2 * d:3 * d] + dphi[:, 4 * d:5 * d] * u
        n_mentions = len(batch.mention_len)
        d_child = _scatter_rows(batch.child, du, n_mentions)
        d_table = _scatter_rows(batch.cand, da, N_META + n_mentions)
        grads["meta_embeddings"] = d_table[:N_META]
        d_cand = d_table[N_META:]
        d_sent = _scatter_rows(
            np.concatenate([batch.child_sent + 1, batch.cand_sent]),
            np.concatenate([dphi[:, d:2 * d], dphi[:, 3 * d:4 * d]]),
            1 + len(batch.phi_len))[1:]
        demb = _token_grads(len(self.vocab), [
            (batch.mention_tok, batch.mention_len, d_child),
            (batch.mention_tok, batch.mention_len, d_cand),
            (batch.phi_tok, batch.phi_len, d_sent),
        ])
        demb[CHILD_MARK_INDEX] += d_child.sum(axis=0)
        demb[CAND_MARK_INDEX] += d_cand.sum(axis=0)
        grads["embeddings"] = demb
        return float(total / n_slots), grads

    def dp_loss_and_grads(
        self, docs: list[Document], dp_labels: DpLabelMap,
    ) -> tuple[float, dict[str, np.ndarray]]:
        """Mean 9-way cross-entropy of the discourse head over all sentences."""
        require_dp_coverage(dp_labels, docs, what="batch")
        grads = zero_grads(self.params)
        batch = _concat([self._index(doc) for doc in docs])
        tokens, lengths = batch.sent_tok, batch.sent_len
        n_sents = len(lengths)
        if n_sents == 0:
            return 0.0, grads
        wd = self.params["dp_weight"]
        labels = np.array([CONTENT_TYPE_INDEX[dp_labels[(doc.id, s.index)]]
                           for doc in docs for s in doc.sentences], dtype=np.int64)
        s = _segment_means(self.params["embeddings"], tokens, lengths)
        p = _softmax(s @ wd.T + self.params["dp_bias"])
        rows = np.arange(n_sents)
        total = -np.log(p[rows, labels]).sum()
        g = p / n_sents
        g[rows, labels] -= 1.0 / n_sents
        grads["dp_weight"] = g.T @ s
        grads["dp_bias"] = g.sum(axis=0)
        grads["embeddings"] = _token_grads(len(self.vocab), [(tokens, lengths, g @ wd)])
        return float(total / n_sents), grads

    def relu_pattern(self, docs: list[Document],
                     dp_labels: DpLabelMap | None = None) -> bytes:
        """Packed activation signs of every hidden unit across the batch.

        Two parameter settings with equal patterns lie on the same linear
        region of the ranking loss, which finite differencing relies on.
        """
        z = self._ranking_forward(_concat(self._ranking_indexes(docs, dp_labels)))[3]
        return np.packbits(z > 0).tobytes()


CHECKPOINT_FORMAT = 1


def save_checkpoint(model: RankingModel, path: str | Path,
                    train_config: dict | None = None,
                    seed: int | None = None) -> None:
    """Write the model as deterministic JSON.

    Parameter tensors are stored as shape plus row-major value lists, which
    round-trip exactly (json emits shortest-repr floats). ``train_config``
    and ``seed`` are echoed verbatim when given so a checkpoint records how
    it was produced.
    """
    obj = {
        "format_version": CHECKPOINT_FORMAT,
        "hyperparameters": {"dim": model.config.dim,
                            "hidden": model.config.hidden,
                            "variant": model.config.variant},
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
    Path(path).write_text(json.dumps(obj, ensure_ascii=False), encoding="utf-8")


def load_checkpoint(path: str | Path) -> RankingModel:
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
        if obj.get("format_version") != CHECKPOINT_FORMAT:
            raise ScorerError(f"unsupported checkpoint format in {path}")
        config = ModelConfig(**obj["hyperparameters"])
        vocab = Vocabulary(list(obj["vocabulary"]))
        params = {}
        for name in PARAM_ORDER:
            entry = obj["params"][name]
            arr = np.array(entry["data"], dtype=np.float64)
            params[name] = arr.reshape(entry["shape"])
    except (KeyError, ValueError, TypeError) as exc:
        raise ScorerError(f"malformed checkpoint {path}: {exc}") from None
    return RankingModel(config, vocab, params)
