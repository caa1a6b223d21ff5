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

``graph.greedy_positions`` is the one decoder: ``decode_corpus`` (``tdgparse
predict``) reaches it through ``graph.greedy_decode``, one document at a
time, and the per-epoch ``Validation`` calls it once per laid-out run.

Each epoch is validated in a worker process while the next epoch trains, so
training may keep two cores busy. The worker is forked at a process's first
train() and serves every later call in that process; it is stopped at
interpreter exit, and a process forked from its owner forks a worker of
its own. Each call sends it the validation runs' arrays, the model config
and the vocabulary once, then a copy of the parameters after each epoch,
and reads back that epoch's accuracy before it records the epoch. Validation runs inline, in the training process, where
os.fork is missing or fails, where a worker would be forked from a process
that runs other threads, or once the worker has died; histories,
checkpoints and errors are the same either way.
"""

from __future__ import annotations

import atexit
import ctypes
import itertools
import math
import os
import signal
import threading
from dataclasses import dataclass, field
from multiprocessing.connection import Connection, Pipe

import numpy as np

from . import scorer
from .corpus import MAX_COUNT, Corpus, DpLabelMap, json_field
from .graph import (
    DECODE_ORDERS,
    SlotScores,
    TemporalDependencyGraph,
    greedy_decode,
    greedy_positions,
    require_finite,
)
from .scorer import (
    ModelConfig,
    RankingModel,
    TrainingLayout,
    Vocabulary,
    _FlatIndex,
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


def decode_corpus(model: RankingModel, corpus: Corpus,
                  dp_labels: DpLabelMap | None = None,
                  order: str = "score") -> dict[str, TemporalDependencyGraph]:
    """Score and decode every document; keyed by document id.

    Each document is indexed, with dp_labels under dp_feature only, as
    lay_out fills its run; each run is scored at once, and each of its
    documents decoded by greedy_decode over its own scores, which it looks
    up in this module. A non-finite score raises GraphError naming its
    document, slot and candidate, as SlotScores does.
    """
    out: dict[str, TemporalDependencyGraph] = {}
    labels = model._feature_labels(dp_labels)
    fresh = (scorer._index_document(doc, model.vocab, labels) for doc in corpus)
    for indexes, batch in lay_out(fresh):
        values = model.run_scores(batch)
        lo = 0
        for idx in indexes:
            layout = idx.layout
            scores = SlotScores(layout, values[lo:lo + len(idx.cand)])
            out[layout.doc.id] = greedy_decode(layout.doc, scores, order)
            lo += len(idx.cand)
    return out


class _NonFiniteRun(Exception):
    """Run ``args[0]`` of a validation scored a non-finite value; ``args[1]``
    holds the run's scores. Validation names the document, slot and candidate."""


def _accuracy(model: RankingModel, runs: list[_FlatIndex], order: str) -> float:
    """The share of the runs' slots whose greedy_positions decode is their gold position."""
    correct = total = 0
    for r, batch in enumerate(runs):
        values = model.run_scores(batch)
        if not np.isfinite(values).all():
            raise _NonFiniteRun(r, values)
        chosen = greedy_positions(values, batch.starts, batch.cand_slot, batch.slot_child,
                                  batch.cand, order)
        correct += int(np.count_nonzero(chosen == batch.gold))
        total += len(chosen)
    return correct / total


class Validation:
    """A validation corpus laid out once, for every epoch of one train() call.

    ``accuracy(order)`` equals ``evaluation.attachment_accuracy`` of
    decode_corpus with the same model, labels and order. The documents'
    indexes, which train() makes (with content types under dp_feature), are
    given their gold positions and laid out once in lay_out's runs, each
    kept as its batch without a layout, which each call scores and decodes
    by graph.greedy_positions on the batch's slot columns, a run at a time.
    A slot is correct when its decoded candidate is its gold candidate. A
    corpus without a slot is refused with ValueError.
    """

    def __init__(self, model: RankingModel, indexes: list[_FlatIndex]):
        self.model = model
        self.runs: list[_FlatIndex] = []
        self.indexes: list[list[_FlatIndex]] = []  # each run's, to name a non-finite score
        for run, batch in lay_out(_with_gold(idx) for idx in indexes):
            self.indexes.append(run)
            self.runs.append(batch._replace(layout=None))
        if not any(len(batch.starts) for batch in self.runs):
            raise ValueError("validation corpus has no slots to evaluate")

    def accuracy(self, order: str = "score") -> float:
        """The attachment accuracy of decoding the corpus with the model's parameters now.

        Raises as decode_corpus does.
        """
        return self.worded(_accuracy, self.model, self.runs, order)

    def worded(self, fn, *args):
        """``fn(*args)``, whose _NonFiniteRun over these runs is raised as the
        GraphError require_finite words for the run's first non-finite score."""
        try:
            return fn(*args)
        except _NonFiniteRun as exc:
            failed = exc
        r, values = failed.args  # out of the handler: the GraphError does not chain it
        lo = 0
        for idx in self.indexes[r]:
            require_finite(idx.layout, values[lo:lo + len(idx.cand)])
            lo += len(idx.cand)
        raise failed


def _serve(conn: Connection) -> None:
    """The validation worker's loop, until its parent closes the connection.

    A ``("runs", model config, vocabulary, runs, order)`` message sets up
    one train() call's validation; each ``("epoch", flat)`` message is
    answered with ``("accuracy", value)`` or ``("error", exception)``.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent handles an interrupt
    while True:
        try:
            message = conn.recv()
        except EOFError:
            return
        if message[0] == "runs":
            _, model_config, vocab, runs, order = message
            model = RankingModel(model_config, vocab, {
                name: np.zeros(shape)
                for name, shape in scorer.param_shapes(model_config, vocab).items()})
            continue
        model.flat[:] = message[1]
        try:
            reply = ("accuracy", _accuracy(model, runs, order))
        except Exception as exc:  # the parent raises it
            reply = ("error", exc)
        conn.send(reply)


class _ValidationWorker:
    """This process's validation worker: a child forked at the process's
    first train() and reused by every later one.

    ``owner`` is the process that forked it. A process forked from the owner
    inherits this object; there it drops the owner's connection, neither
    using nor stopping the owner's worker, and forks a worker of its own.
    ``busy`` is set while a message or reply is in flight, so a call that
    ended between the two, by an interrupt, leaves a worker that the next
    call stops and replaces. An atexit hook stops the worker.
    """

    def __init__(self) -> None:
        self.owner: int | None = None
        self.pid = 0
        self.conn: Connection | None = None
        self.busy = False

    def begin(self, validation: Validation, order: str) -> bool:
        """Hand the worker one train() call's runs, forking it first where needed.

        False, to validate inline, where os.fork is missing or the worker
        cannot be reached.
        """
        if self.busy or self.owner != os.getpid():
            self.stop()
        if self.conn is None and not self._fork():
            return False
        model = validation.model
        return self._send(("runs", model.config, model.vocab, validation.runs, order))

    def submit(self, flat: np.ndarray) -> bool:
        """Send one epoch's parameters; False if the worker cannot be reached."""
        return self._send(("epoch", flat), awaits_reply=True)

    def result(self) -> float | None:
        """The accuracy of the parameters last submitted, or None if the worker died.

        Raises what validating them raised in the worker.
        """
        try:
            kind, value = self.conn.recv()
        except (EOFError, OSError):
            self.stop()
            return None
        self.busy = False
        if kind == "error":
            raise value
        return value

    def stop(self) -> None:
        """Stop and reap this process's worker; drop one inherited from another process."""
        conn, self.conn, self.busy = self.conn, None, False
        if conn is None:
            return
        conn.close()
        if self.owner == os.getpid():
            try:
                os.kill(self.pid, signal.SIGKILL)
                os.waitpid(self.pid, 0)
            except (ProcessLookupError, ChildProcessError):  # another wait reaped it
                pass

    def _fork(self) -> bool:
        # the child would hold no other thread, and any lock one held at the fork
        if not hasattr(os, "fork") or threading.active_count() > 1:
            return False
        parent_end, child_end = Pipe()
        try:
            pid = os.fork()
        except OSError:  # no process to spare: validate inline
            parent_end.close()
            child_end.close()
            return False
        if pid == 0:  # the worker: never returns into the caller's frames
            parent_end.close()
            try:
                _serve(child_end)
            finally:
                os._exit(0)
        child_end.close()
        self.owner, self.pid, self.conn = os.getpid(), pid, parent_end
        return True

    def _send(self, message: tuple, awaits_reply: bool = False) -> bool:
        self.busy = True
        try:
            self.conn.send(message)
        except OSError:
            self.stop()
            return False
        self.busy = awaits_reply
        return True


_WORKER = _ValidationWorker()
atexit.register(_WORKER.stop)


class _ModelSelection:
    """One train() call's validation of each epoch and choice of the best.

    ``submit`` hands over an epoch's record and a copy of its parameters,
    which the worker validates while the next epoch trains (or which are
    validated inline where the worker cannot run); ``settle`` waits for the
    accuracy, records the epoch in the history and keeps its parameters in
    ``best`` if no earlier epoch scored as high.
    """

    def __init__(self, validation: Validation, order: str, history: TrainHistory):
        self.validation, self.order, self.history = validation, order, history
        self.remote = _WORKER.begin(validation, order)
        self.pending: tuple[EpochRecord, np.ndarray] | None = None
        self.best: np.ndarray | None = None
        self.best_accuracy = -1.0

    def submit(self, record: EpochRecord, flat: np.ndarray) -> None:
        self.pending = record, flat
        self.remote = self.remote and _WORKER.submit(flat)

    def settle(self) -> None:
        """Record the epoch submitted last, if it is not yet; raises what validating it raised."""
        if self.pending is None:
            return
        (record, flat), self.pending = self.pending, None
        accuracy = self.validation.worded(_WORKER.result) if self.remote else None
        if accuracy is None:  # inline, or the worker died
            self.remote = False
            self.validation.model.flat[:] = flat
            accuracy = self.validation.accuracy(self.order)
        record.valid_accuracy = accuracy
        self.history.epochs.append(record)
        if accuracy > self.best_accuracy:
            self.best, self.best_accuracy = flat, accuracy
            self.history.best_epoch = record.epoch


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

    Each epoch's copy of ``model.flat`` is validated in this process's
    validation worker (see the module docstring) while the next epoch
    trains, or inline where there is none; epochs are recorded in order. An
    error validating epoch e is raised ahead of anything epoch e + 1 raised,
    with its own type and message, as inline validation would raise it.
    """
    variant = config.variant
    if variant in ("dp_feature", "dp_distill") and dp_labels is None:
        raise ValueError(f"variant {variant} requires discourse labels")
    if not train_corpus:
        raise ValueError("training corpus is empty")

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
    # validation scores with a model of its own, given each epoch's parameters
    validation = Validation(RankingModel(model_config, vocab, model.params),
                            [index[id(doc)] for doc in valid_corpus])
    history = TrainHistory()
    selection = _ModelSelection(validation, config.decode_order, history)
    for epoch in range(config.max_epochs):
        perm = rng.permutation(len(docs))
        losses: dict[str, list[float]] = {"ranking": [], "dp": []}
        try:
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
        finally:
            selection.settle()  # the epoch before: its error is raised ahead of this one's
        selection.submit(EpochRecord(
            epoch=epoch,
            ranking_loss=float(np.mean(losses["ranking"])),  # every plan ranks
            dp_loss=float(np.mean(losses["dp"])) if losses["dp"] else None,
            valid_accuracy=math.nan,  # until settled
        ), model.flat.copy())
    selection.settle()

    model.flat[:] = selection.best
    return model, history
