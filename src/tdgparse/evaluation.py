"""Attachment accuracy, partitioned precision/recall/F1, seed aggregation.

Every slot falls into one of three categories by its parent: no_parent for a
meta parent, intra_sentence for a mention parent in the child's sentence,
cross_sentence otherwise. A slot is correct only when the predicted parent
equals the gold parent exactly, so a correct slot always agrees on category.
Precision for a category runs over predicted-category slots, recall over
gold-category slots. Internal values stay unrounded; files carry percentages
rounded to 2 decimals. ``report_to_json`` renders one seed's MetricsReport and
``aggregate_to_json`` the mean and spread of several, both with one helper per
category entry. Each slot's gold parent comes from ``corpus.gold_parents``.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

from .corpus import KIND_SLOTS, META_NODES, Corpus, Document, Slot, gold_parents
from .graph import TemporalDependencyGraph

INTRA_SENTENCE = "intra_sentence"
CROSS_SENTENCE = "cross_sentence"
NO_PARENT = "no_parent"
CATEGORIES = (INTRA_SENTENCE, CROSS_SENTENCE, NO_PARENT)


class EvaluationError(Exception):
    """Predictions do not line up with the gold corpus."""


def _category(doc: Document, sentence_of: dict[str, int], child: str,
              parent: str) -> str:
    """The category of the slot child -> parent; ``sentence_of`` maps doc's
    mention ids to their sentences."""
    if parent in META_NODES:
        return NO_PARENT
    sentence = sentence_of.get(parent)
    if sentence is None:
        raise EvaluationError(f"document {doc.id}: unknown parent {parent!r}")
    if sentence == sentence_of[child]:
        return INTRA_SENTENCE
    return CROSS_SENTENCE


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


def attachment_accuracy(preds: dict[str, TemporalDependencyGraph], gold: Corpus) -> float:
    """Fraction of slots whose predicted parent equals the gold parent:
    partitioned_prf's accuracy, raising as it does."""
    return partitioned_prf(preds, gold).accuracy


def partitioned_prf(preds: dict[str, TemporalDependencyGraph], gold: Corpus,
                    seed: int | str | None = None,
                    variant: str | None = None) -> MetricsReport:
    """Per-category precision/recall/F1 plus overall accuracy, over every slot
    of every gold document in slot_instances order."""
    cats = {c: CategoryMetrics() for c in CATEGORIES}
    total = correct = 0
    for doc in gold:
        graph = preds.get(doc.id)
        if graph is None:
            raise EvaluationError(f"no prediction for document {doc.id!r}")
        edges = graph.edges
        gold_of = gold_parents(doc)
        sentence_of = {m.id: m.sentence for m in doc.mentions}
        for m in doc.ordered_mentions():
            for slot in KIND_SLOTS[m.kind]:
                key = (m.id, slot)  # a Slot hashes and compares as its tuple
                pred_parent = edges.get(key)
                if pred_parent is None:
                    raise EvaluationError(
                        f"document {doc.id}: missing prediction for slot {Slot(*key)}"
                    )
                gold_parent = gold_of[key]
                total += 1
                gold_cat = _category(doc, sentence_of, m.id, gold_parent)
                pred_cat = _category(doc, sentence_of, m.id, pred_parent)
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


def _pct(value: float) -> float:
    return round(100.0 * value, 2)


def _category_json(cats: list[CategoryMetrics], rate, count) -> dict:
    """One category's entry in a metrics file, from its metrics in each
    report: ``rate`` renders the p, r and f1 values, ``count`` the counts."""
    return {"p": rate([c.precision for c in cats]), "r": rate([c.recall for c in cats]),
            "f1": rate([c.f1 for c in cats]), "gold": count([c.gold for c in cats]),
            "predicted": count([c.predicted for c in cats]),
            "correct": count([c.correct for c in cats])}


def report_to_json(report: MetricsReport) -> dict:
    """Percentages rounded to 2 decimals, counts verbatim."""
    return {
        "corpus": report.corpus,
        "variant": report.variant,
        "seed": report.seed,
        "total_slots": report.total_slots,
        "accuracy": _pct(report.accuracy),
        "per_category": {name: _category_json([c], lambda v: _pct(v[0]), lambda v: v[0])
                         for name, c in report.per_category.items()},
        "flags": sorted(report.flags),
    }


def _mean(values: list) -> float:
    return sum(values) / len(values)


def _pct_mean_std(values: list[float]) -> dict[str, float]:
    """Mean and sample standard deviation (0 of one value), as report_to_json rounds them."""
    mean = _mean(values)
    n = len(values)
    var = sum((v - mean) ** 2 for v in values) / (n - 1) if n > 1 else 0.0
    return {"mean": _pct(mean), "std": _pct(math.sqrt(var))}


def aggregate_to_json(reports: list[MetricsReport]) -> dict:
    """The reports across seeds: each percentage's mean and sample standard
    deviation, and each count's mean."""
    if not reports:
        raise EvaluationError("nothing to aggregate")
    identities = {r.corpus for r in reports}
    if len(identities) != 1:
        raise EvaluationError(f"reports cover different corpora: {sorted(identities)}")
    return {
        "corpus": reports[0].corpus,
        "variant": reports[0].variant,
        "seed": "aggregate",
        "n_reports": len(reports),
        "seeds": [r.seed for r in reports],
        "accuracy": _pct_mean_std([r.accuracy for r in reports]),
        "per_category": {name: _category_json([r.per_category[name] for r in reports],
                                              _pct_mean_std, _mean)
                         for name in CATEGORIES},
        "flags": sorted({f for r in reports for f in r.flags}),
    }
