"""Attachment accuracy, partitioned precision/recall/F1, seed aggregation.

Every slot falls into one of three categories by its parent: no_parent for a
meta parent, intra_sentence for a mention parent in the child's sentence,
cross_sentence otherwise. A slot is correct only when the predicted parent
equals the gold parent exactly, so a correct slot always agrees on category.
Precision for a category runs over predicted-category slots, recall over
gold-category slots. Internal values stay unrounded; files carry percentages
rounded to 2 decimals.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

from .corpus import META_NODES, Corpus, Document
from .graph import KIND_SLOTS, Slot, TemporalDependencyGraph

INTRA_SENTENCE = "intra_sentence"
CROSS_SENTENCE = "cross_sentence"
NO_PARENT = "no_parent"
CATEGORIES = (INTRA_SENTENCE, CROSS_SENTENCE, NO_PARENT)


class EvaluationError(Exception):
    """Predictions do not line up with the gold corpus."""


def _category(doc: Document, sentence_of: dict[str, int], child: str,
              parent: str) -> str:
    """slot_category, with ``sentence_of`` mapping doc's mention ids to sentences."""
    if parent in META_NODES:
        return NO_PARENT
    sentence = sentence_of.get(parent)
    if sentence is None:
        raise EvaluationError(f"document {doc.id}: unknown parent {parent!r}")
    if sentence == sentence_of[child]:
        return INTRA_SENTENCE
    return CROSS_SENTENCE


def _sentences(doc: Document) -> dict[str, int]:
    return {m.id: m.sentence for m in doc.mentions}


def slot_category(doc: Document, child: str, parent: str) -> str:
    return _category(doc, _sentences(doc), child, parent)


def corpus_identity(corpus: Corpus) -> str:
    digest = hashlib.sha256()
    for doc in corpus:
        digest.update(doc.id.encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


@dataclass
class CategoryMetrics:
    gold: int = 0
    predicted: int = 0
    correct: int = 0
    precision: float = 0.0
    recall: float = 0.0
    f1: float = 0.0


@dataclass
class MetricsReport:
    corpus: str
    seed: int | str | None
    accuracy: float
    total_slots: int
    per_category: dict[str, CategoryMetrics]
    flags: list[str] = field(default_factory=list)
    variant: str | None = None


def _iter_slot_pairs(preds: dict[str, TemporalDependencyGraph], gold: Corpus):
    """Yield (doc, child id, predicted parent, gold parent) for every slot, in
    slot_instances order."""
    for doc in gold:
        graph = preds.get(doc.id)
        if graph is None:
            raise EvaluationError(f"no prediction for document {doc.id!r}")
        edges = graph.edges
        gold_parents = {(e.child, e.slot): e.parent for e in doc.gold_edges}
        for m in doc.ordered_mentions():
            for slot in KIND_SLOTS[m.kind]:
                key = (m.id, slot)  # a Slot hashes and compares as its tuple
                pred_parent = edges.get(key)
                if pred_parent is None:
                    raise EvaluationError(
                        f"document {doc.id}: missing prediction for slot {Slot(*key)}"
                    )
                yield doc, m.id, pred_parent, gold_parents[key]


def attachment_accuracy(preds: dict[str, TemporalDependencyGraph],
                        gold: Corpus) -> float:
    """Fraction of slots whose predicted parent equals the gold parent."""
    total = correct = 0
    for _doc, _child, pred_parent, gold_parent in _iter_slot_pairs(preds, gold):
        total += 1
        if pred_parent == gold_parent:
            correct += 1
    if total == 0:
        raise EvaluationError("gold corpus has no slots to evaluate")
    return correct / total


def partitioned_prf(preds: dict[str, TemporalDependencyGraph], gold: Corpus,
                    seed: int | str | None = None,
                    variant: str | None = None) -> MetricsReport:
    """Per-category precision/recall/F1 plus overall accuracy."""
    cats = {c: CategoryMetrics() for c in CATEGORIES}
    total = correct = 0
    current, sentence_of = None, {}
    for doc, child, pred_parent, gold_parent in _iter_slot_pairs(preds, gold):
        if doc is not current:
            current, sentence_of = doc, _sentences(doc)
        total += 1
        gold_cat = _category(doc, sentence_of, child, gold_parent)
        pred_cat = _category(doc, sentence_of, child, pred_parent)
        cats[gold_cat].gold += 1
        cats[pred_cat].predicted += 1
        if pred_parent == gold_parent:
            correct += 1
            cats[gold_cat].correct += 1
    if total == 0:
        raise EvaluationError("gold corpus has no slots to evaluate")
    flags: list[str] = []
    for name, c in cats.items():
        if c.predicted > 0:
            c.precision = c.correct / c.predicted
        else:
            flags.append(f"{name}:precision_undefined")
        if c.gold > 0:
            c.recall = c.correct / c.gold
        else:
            flags.append(f"{name}:recall_undefined")
        if c.precision + c.recall > 0:
            c.f1 = 2 * c.precision * c.recall / (c.precision + c.recall)
    return MetricsReport(corpus=corpus_identity(gold), seed=seed,
                         accuracy=correct / total, total_slots=total,
                         per_category=cats, flags=flags, variant=variant)


def report_to_json(report: MetricsReport) -> dict:
    """Percentages rounded to 2 decimals, counts verbatim."""
    return {
        "corpus": report.corpus,
        "variant": report.variant,
        "seed": report.seed,
        "total_slots": report.total_slots,
        "accuracy": round(100.0 * report.accuracy, 2),
        "per_category": {
            name: {
                "p": round(100.0 * c.precision, 2),
                "r": round(100.0 * c.recall, 2),
                "f1": round(100.0 * c.f1, 2),
                "gold": c.gold,
                "predicted": c.predicted,
                "correct": c.correct,
            }
            for name, c in report.per_category.items()
        },
        "flags": sorted(report.flags),
    }


def _mean_std(values: list[float]) -> dict[str, float]:
    n = len(values)
    mean = sum(values) / n
    if n == 1:
        return {"mean": mean, "std": 0.0}
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    return {"mean": mean, "std": math.sqrt(var)}


def aggregate_seeds(reports: list[MetricsReport]) -> dict:
    """Mean and sample standard deviation of every metric across seeds."""
    if not reports:
        raise EvaluationError("nothing to aggregate")
    identities = {r.corpus for r in reports}
    if len(identities) != 1:
        raise EvaluationError(
            f"reports cover different corpora: {sorted(identities)}"
        )
    agg_cats = {}
    for name in CATEGORIES:
        agg_cats[name] = {
            metric: _mean_std([getattr(r.per_category[name], metric)
                               for r in reports])
            for metric in ("precision", "recall", "f1", "gold", "predicted",
                           "correct")
        }
    return {
        "corpus": reports[0].corpus,
        "variant": reports[0].variant,
        "seed": "aggregate",
        "n_reports": len(reports),
        "seeds": [r.seed for r in reports],
        "accuracy": _mean_std([r.accuracy for r in reports]),
        "per_category": agg_cats,
        "flags": sorted({f for r in reports for f in r.flags}),
    }


def aggregate_to_json(aggregate: dict) -> dict:
    """Render an aggregate_seeds result with 2-decimal percentages."""

    def pct(ms: dict[str, float]) -> dict[str, float]:
        return {"mean": round(100.0 * ms["mean"], 2),
                "std": round(100.0 * ms["std"], 2)}

    out = dict(aggregate)
    out["accuracy"] = pct(aggregate["accuracy"])
    out["per_category"] = {
        name: {
            "p": pct(cat["precision"]),
            "r": pct(cat["recall"]),
            "f1": pct(cat["f1"]),
            "gold": cat["gold"]["mean"],
            "predicted": cat["predicted"]["mean"],
            "correct": cat["correct"]["mean"],
        }
        for name, cat in aggregate["per_category"].items()
    }
    return out
