"""Optimizer, learning-rate schedule, decoding, and the training procedures.

The losses live in scorer.py, as RankingModel methods. Three procedures
share one loop: "baseline" and "dp_feature" take one
ranking-loss optimizer step per batch; "dp_distill" takes a discourse-profile
step and a ranking step per batch (order configurable, or a single joint
step). A single seeded generator drives parameter init, epoch shuffling, and
batching, so a run is fully determined by (config, corpora, labels, seed).
Each epoch's batches are slices of one scorer.TrainingLayout of the
permuted training corpus; each loss writes into its own flat gradient
vector, allocated once per run, and adamw_step updates the model's flat
parameter vector in one pass.

``decode_run`` is the one corpus decoder, behind both ``decode_corpus``
(``tdgparse predict``) and the per-epoch ``Validation``.
"""

from __future__ import annotations

import ctypes
import itertools
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import scorer
from .corpus import MAX_COUNT, Corpus, DpLabelMap, json_field
from .graph import (
    DECODE_ORDERS,
    GraphError,
    SlotScores,
    TemporalDependencyGraph,
    chain_cycles,
    first_maxima,
    greedy_decode,
    require_finite,
    slot_of,
)
from .scorer import (
    N_META,
    ModelConfig,
    RankingModel,
    TrainingLayout,
    Vocabulary,
    _concat,
    _FlatIndex,
    _Offsets,
    _offsets,
    _with_gold,
    build_vocabulary,
    init_params,
    lay_out,
)

# glibc's heap thresholds, each under the environment variable that would
# set it, as (mallopt parameter, value). By default glibc gives freed memory
# back to the OS from 128 KiB up, so every training batch's temporaries were
# mapped and faulted in afresh: about 260k minor page faults in training the
# three variants on the distill config, against about a thousand with these.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
HEAP_THRESHOLDS = {"MALLOC_MMAP_THRESHOLD_": (_M_MMAP_THRESHOLD, 4 << 20),
                   "MALLOC_TRIM_THRESHOLD_": (_M_TRIM_THRESHOLD, 8 << 20)}


def _pin_heap_thresholds() -> None:
    """Fix glibc's mmap and trim thresholds, unless the environment sets either.

    Does nothing where the C library has no ``mallopt``.
    """
    if any(name in os.environ for name in HEAP_THRESHOLDS):
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    for param, value in HEAP_THRESHOLDS.values():
        mallopt(param, value)


_pin_heap_thresholds()

# dp_distill's optimizer steps per batch under each update order; a step
# names the losses whose gradients it sums, in that order
UPDATE_PLANS: dict[str, tuple[tuple[str, ...], ...]] = {
    "dp_then_rank": (("dp",), ("ranking",)),
    "rank_then_dp": (("ranking",), ("dp",)),
    "joint": (("ranking", "dp"),),
}


class TrainingDiverged(Exception):
    """A loss or gradient went non-finite; the run cannot continue."""


@dataclass
class TrainConfig:
    variant: str = "baseline"
    max_epochs: int = 15
    batch_size_docs: int = 5
    peak_lr: float = 1e-4
    warmup_epochs: int = 5
    weight_decay: float = 0.01
    seeds: tuple[int, ...] = (0, 1, 2)
    update_order: str = "dp_then_rank"
    decode_order: str = "score"
    dim: int = 32
    hidden: int = 64

    def __post_init__(self) -> None:
        self.seeds = tuple(json_field(vars(self), "seeds", list, "", int))  # JSON gives a list
        for name, kind in (("max_epochs", int), ("batch_size_docs", int), ("warmup_epochs", int),
                           ("peak_lr", float), ("weight_decay", float), ("variant", str),
                           ("update_order", str), ("decode_order", str)):
            json_field(vars(self), name, kind)
        if not self.seeds or len(set(self.seeds)) != len(self.seeds):
            raise ValueError("seeds must be one or more distinct integers, "
                             f"not {list(self.seeds)}")
        if min(self.seeds) < 0:
            raise ValueError(f"seed {min(self.seeds)} is negative; seeds must be non-negative")
        if not (1 <= self.max_epochs <= MAX_COUNT and 1 <= self.batch_size_docs <= MAX_COUNT):
            raise ValueError(f"max_epochs and batch_size_docs must lie in [1, {MAX_COUNT}]")
        if self.peak_lr <= 0 or self.weight_decay < 0:
            raise ValueError("peak_lr must be positive and weight_decay non-negative")
        if self.peak_lr * self.weight_decay > 2:  # AdamW's decay factor 1 - lr * wd
            raise ValueError(
                f"peak_lr * weight_decay is {self.peak_lr * self.weight_decay:g}, above 2: "
                "at the peak, each step's decay would multiply every parameter by a "
                "factor of magnitude above 1")
        if not 1 <= self.warmup_epochs <= self.max_epochs:
            raise ValueError("warmup_epochs must lie in [1, max_epochs]")
        if self.update_order not in UPDATE_PLANS:
            raise ValueError(f"unknown update order {self.update_order!r}")
        if self.decode_order not in DECODE_ORDERS:
            raise ValueError(f"unknown decode order {self.decode_order!r}")
        self.model_config()

    def model_config(self) -> ModelConfig:
        return ModelConfig(dim=self.dim, hidden=self.hidden, variant=self.variant)


def lr_at(step: int, total_steps: int, warmup_steps: int, peak: float) -> float:
    """Linear warmup to ``peak`` at ``warmup_steps``, then linear decay to 0."""
    if not 0 <= step <= total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps}]")
    if not 0 < warmup_steps <= total_steps:
        raise ValueError("warmup_steps must lie in (0, total_steps]")
    if step <= warmup_steps:
        return peak * (step / warmup_steps)
    return peak * ((total_steps - step) / (total_steps - warmup_steps))


@dataclass
class OptimizerState:
    """AdamW's moment estimates, each one flat vector over the parameters in
    order, and where each parameter ends in them."""

    m: np.ndarray
    v: np.ndarray
    ends: dict[str, int]
    t: int = 0

    @classmethod
    def for_params(cls, params: dict[str, np.ndarray]) -> "OptimizerState":
        sizes = [np.size(a) for a in params.values()]
        return cls(m=np.zeros(sum(sizes)), v=np.zeros(sum(sizes)),
                   ends=dict(zip(params, itertools.accumulate(sizes))))


ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8


def adamw_step(theta: np.ndarray, grad: np.ndarray, state: OptimizerState, lr: float,
               weight_decay: float = 0.0) -> None:
    """One decoupled-weight-decay Adam update of the flat parameter vector, in place.

    theta <- theta - lr * (m_hat / (sqrt(v_hat) + ADAM_EPS) + weight_decay * theta)
    with moment estimates m_hat, v_hat bias-corrected for ADAM_BETAS.
    ``theta`` and ``grad`` hold every parameter end to end, as
    RankingModel.flat does, in the order of ``state.ends``. The gradient is
    checked first: a non-finite one raises, naming its parameter, with
    nothing changed.
    """
    b1, b2 = ADAM_BETAS
    finite = np.isfinite(grad)
    if not finite.all():
        at = int(np.argmin(finite))
        name = next(name for name, end in state.ends.items() if at < end)
        raise TrainingDiverged(f"non-finite gradient for parameter {name!r}")
    state.t += 1
    m, v, t = state.m, state.v, state.t
    m *= b1
    m += (1.0 - b1) * grad
    v *= b2
    v += (1.0 - b2) * grad * grad
    step = m / (1.0 - b1 ** t)
    step /= np.sqrt(v / (1.0 - b2 ** t)) + ADAM_EPS
    step += weight_decay * theta
    step *= lr
    theta -= step


@dataclass
class EpochRecord:
    epoch: int
    ranking_loss: float
    dp_loss: float | None
    valid_accuracy: float


@dataclass
class TrainHistory:
    epochs: list[EpochRecord] = field(default_factory=list)
    best_epoch: int = 0


def decode_run(indexes: list[_FlatIndex], batch: _FlatIndex, values: np.ndarray,
               order: str = "score") -> np.ndarray:
    """The position in ``values`` of the candidate greedy_decode gives every slot.

    ``batch`` is ``indexes`` laid end to end (scorer._concat) and ``values``
    scores its candidates. A slot takes its first maximum unless its
    document's first-maximum graph holds a cycle (graph.chain_cycles); only
    those documents go through greedy_decode, looked up in this module. A
    non-finite score raises GraphError naming its document, slot and
    candidate, as SlotScores does; so does an unknown order.
    """
    if order not in DECODE_ORDERS:
        raise GraphError(f"unknown decode order {order!r}")
    first_of = _Offsets(*_offsets(indexes).T)  # each index's first rows, then the totals
    finite = np.isfinite(values)
    if not finite.all():
        d = int(np.searchsorted(first_of.cand, np.argmin(finite), side="right")) - 1
        require_finite(indexes[d].layout, values[first_of.cand[d]:first_of.cand[d + 1]])
    first = first_maxima(values, batch.starts)
    # a mention's last slot is its chain slot; batch.cand - N_META is a
    # candidate's mention row, negative for a meta node
    slot_child = batch.child[batch.starts]
    chain = first[np.diff(slot_child, append=-1) != 0]
    parent = batch.cand[chain] - N_META
    cyclic = chain_cycles(np.where(parent >= 0, parent, len(parent)))
    mention_doc = np.repeat(np.arange(len(indexes)), np.diff(first_of.mention))
    cand_slot = slot_of(batch.starts, len(batch.cand))
    for d in np.unique(mention_doc[cyclic]).tolist():
        idx, s_lo = indexes[d], int(first_of.slot[d])
        c_lo, c_hi = int(first_of.cand[d]), int(first_of.cand[d + 1])
        layout = idx.layout
        edges = greedy_decode(layout.doc, SlotScores(layout, values[c_lo:c_hi]),
                              order=order).edges
        row = {name: i for i, name in enumerate(layout.names)}
        parent_row = np.array([row[edges[slot]] for slot in layout.slots])
        first[s_lo:s_lo + len(layout.slots)] = c_lo + np.flatnonzero(
            idx.cand == parent_row[cand_slot[c_lo:c_hi] - s_lo])
    return first


def decode_corpus(model: RankingModel, corpus: Corpus,
                  dp_labels: DpLabelMap | None = None,
                  order: str = "score") -> dict[str, TemporalDependencyGraph]:
    """Score and decode every document; keyed by document id.

    Each document is indexed, with dp_labels under dp_feature only, as
    lay_out fills its run; each run is scored and decoded by decode_run, and
    each document's graph is built from its slots' decoded positions.
    """
    out: dict[str, TemporalDependencyGraph] = {}
    labels = model._feature_labels(dp_labels)
    fresh = (scorer._index_document(doc, model.vocab, labels) for doc in corpus)
    for indexes, batch in lay_out(fresh):
        chosen = decode_run(indexes, batch, model.run_scores(batch), order)
        c_lo = s_lo = 0
        for idx in indexes:
            layout = idx.layout
            cand = idx.cand[chosen[s_lo:s_lo + len(layout.slots)] - c_lo].tolist()
            out[layout.doc.id] = TemporalDependencyGraph(
                layout.doc.id, {slot: layout.names[c] for slot, c in zip(layout.slots, cand)})
            c_lo += len(idx.cand)
            s_lo += len(layout.slots)
    return out


class Validation:
    """A validation corpus laid out once, for every epoch of one train() call.

    ``accuracy(order)`` equals ``evaluation.attachment_accuracy`` of
    decode_corpus with the same model, labels and order. The documents'
    indexes, which train() makes (with content types under dp_feature), are
    given their gold positions and laid out once in lay_out's runs, which
    each call scores, and once as one batch, which decode_run decodes at
    once. A slot is correct when its decoded candidate is its gold candidate.
    """

    def __init__(self, model: RankingModel, indexes: list[_FlatIndex]):
        self.model = model
        self.indexes = [_with_gold(idx) for idx in indexes]
        self.runs = list(lay_out(self.indexes))
        self.batch = _concat(self.indexes)

    def accuracy(self, order: str = "score") -> float:
        """The attachment accuracy of decoding the corpus with the model's parameters now.

        Raises as decode_run does.
        """
        values = np.concatenate([self.model.run_scores(batch) for _, batch in self.runs])
        decoded = decode_run(self.indexes, self.batch, values, order)
        return int(np.count_nonzero(decoded == self.batch.gold)) / len(decoded)


def train(config: TrainConfig, train_corpus: Corpus, valid_corpus: Corpus,
          dp_labels: DpLabelMap | None, seed: int,
          vocab: Vocabulary | None = None) -> tuple[RankingModel, TrainHistory]:
    """Run one seeded training job and return the best-epoch model.

    The learning-rate schedule is evaluated at 1-based optimizer-step
    indexes; dp_distill takes the steps of its UPDATE_PLANS entry per batch,
    the other variants one ranking step, and the schedule advances on each
    step. Model selection keeps the epoch with the highest validation
    attachment accuracy (earliest on ties), which Validation counts after
    every epoch from the validation corpus laid out once before the first;
    its parameters are a copy of ``model.flat``, restored in place. Labels
    need cover only what indexing reads: training documents under either dp
    variant, validation-only ones under dp_feature.
    """
    variant = config.variant
    if variant in ("dp_feature", "dp_distill") and dp_labels is None:
        raise ValueError(f"variant {variant} requires discourse labels")
    if not train_corpus:
        raise ValueError("training corpus is empty")
    if not any(doc.mentions for doc in valid_corpus):
        raise ValueError("validation corpus has no slots to evaluate")

    rng = np.random.Generator(np.random.PCG64(seed))
    if vocab is None:
        vocab = build_vocabulary(train_corpus)
    model_config = config.model_config()
    model = RankingModel(model_config, vocab, init_params(model_config, vocab, rng))
    state = OptimizerState.for_params(model.params)

    docs = list(train_corpus)
    n_batches = math.ceil(len(docs) / config.batch_size_docs)
    plan = UPDATE_PLANS[config.update_order] if variant == "dp_distill" else (("ranking",),)
    steps_per_epoch = n_batches * len(plan)
    total_steps = steps_per_epoch * config.max_epochs
    warmup_steps = steps_per_epoch * config.warmup_epochs

    # one gradient vector per loss, zeroed by the loss on every step
    grad = {name: np.zeros_like(model.flat) for names in plan for name in names}
    loss_fns = {
        "ranking": lambda batch, laid: model.ranking_loss_and_grads(
            batch, laid=laid, grad=grad["ranking"]),
        "dp": lambda batch, laid: model.dp_loss_and_grads(batch, laid=laid, grad=grad["dp"]),
    }

    # each document object indexed once, whether one corpus or both hold it,
    # with labels where its variant reads them: a training document's under
    # either dp variant, a validation-only one's under dp_feature
    distinct = {id(doc): (doc, model._feature_labels(dp_labels)) for doc in valid_corpus}
    distinct.update((id(doc), (doc, None if variant == "baseline" else dp_labels))
                    for doc in docs)
    index = {key: scorer._index_document(doc, vocab, labels)
             for key, (doc, labels) in distinct.items()}
    layout = TrainingLayout([index[id(doc)] for doc in docs])
    validation = Validation(model, [index[id(doc)] for doc in valid_corpus])
    history = TrainHistory()
    best = model.flat.copy()
    best_accuracy = -1.0
    for epoch in range(config.max_epochs):
        perm = rng.permutation(len(docs))
        losses: dict[str, list[float]] = {"ranking": [], "dp": []}
        for b, (batch, laid) in enumerate(layout.batches(perm, config.batch_size_docs)):
            for names in plan:
                for name in names:
                    loss, _ = loss_fns[name](batch, laid)
                    if not math.isfinite(loss):
                        raise TrainingDiverged(
                            f"non-finite {name} loss at epoch {epoch}, batch {b}"
                        )
                    losses[name].append(loss)
                step = grad[names[0]]
                for name in names[1:]:
                    step += grad[name]
                lr = lr_at(state.t + 1, total_steps, warmup_steps, config.peak_lr)
                adamw_step(model.flat, step, state, lr, weight_decay=config.weight_decay)

        accuracy = validation.accuracy(config.decode_order)
        history.epochs.append(EpochRecord(
            epoch=epoch,
            ranking_loss=float(np.mean(losses["ranking"])),  # every plan ranks
            dp_loss=float(np.mean(losses["dp"])) if losses["dp"] else None,
            valid_accuracy=accuracy,
        ))
        if accuracy > best_accuracy:
            best_accuracy = accuracy
            best = model.flat.copy()
            history.best_epoch = epoch

    model.flat[:] = best
    return model, history
