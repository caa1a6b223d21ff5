"""Attachment accuracy, partitioned precision/recall/F1, seed aggregation.

Every slot falls into one of three categories by its parent: no_parent for a
meta parent, intra_sentence for a mention parent in the child's sentence,
cross_sentence otherwise. A slot is correct only when the predicted parent
equals the gold parent exactly, so a correct slot always agrees on category.
Precision for a category runs over predicted-category slots, recall over
gold-category slots. Internal values stay unrounded; files carry percentages
rounded to 2 decimals. ``report_to_json`` renders one seed's MetricsReport and
``aggregate_to_json`` the mean and spread of several, both with one helper per
category entry. Each slot's gold parent and gold category are read from its
document's ``corpus.GoldTable``, which the document builds on first read and
keeps, so scoring a gold corpus again, for another seed or another pass,
categorizes only the predicted parents. Predictions are looked up by
``Document.slots``, the very keys of a decoded or read-back graph.
"""

from __future__ import annotations

import hashlib
import math
from collections.abc import Iterator
from dataclasses import dataclass, field

from .corpus import META_NODES, NOT_A_MENTION, Corpus, CorpusError, Document
from .graph import TemporalDependencyGraph

INTRA_SENTENCE = "intra_sentence"
CROSS_SENTENCE = "cross_sentence"
NO_PARENT = "no_parent"
CATEGORIES = (INTRA_SENTENCE, CROSS_SENTENCE, NO_PARENT)


class EvaluationError(Exception):
    """Predictions do not line up with the gold corpus."""


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


def _slot_errors(doc: Document, edges: dict) -> Iterator[EvaluationError]:
    """The error of each of doc's slots, in ``doc.slots`` order, that has no
    prediction, has a gold parent that is no mention or meta node, or has a
    predicted parent that is neither, in that order of checks: the first is
    the error partitioned_prf raises for doc."""
    parents, categories = doc.gold
    by_id = doc.by_id
    for key, gold_parent, gold_cat in zip(doc.slots, parents, categories):
        pred_parent = edges.get(key)
        if pred_parent is None:
            yield EvaluationError(f"document {doc.id}: missing prediction for slot {key}")
        elif gold_cat == NOT_A_MENTION:
            yield EvaluationError(f"document {doc.id}: slot {key} has no gold edge"
                                  if gold_parent is None else
                                  f"document {doc.id}: unknown parent {gold_parent!r}")
        elif pred_parent != gold_parent and pred_parent not in META_NODES \
                and pred_parent not in by_id:
            yield EvaluationError(f"document {doc.id}: unknown parent {pred_parent!r}")


def partitioned_prf(preds: dict[str, TemporalDependencyGraph], gold: Corpus,
                    seed: int | str | None = None,
                    variant: str | None = None) -> MetricsReport:
    """Per-category precision/recall/F1 plus overall accuracy, over every slot
    of every gold document in ``Document.slots`` order.

    Gold parents and categories come from each document's gold table, whose
    categories are CATEGORIES indexes; a predicted parent other than the
    gold one is categorized through the document's ``by_id`` map, against
    the sentence of the slot's own mention. Counts are plain ints, one per
    CATEGORIES entry, which make each CategoryMetrics at the end; a hit
    counts as predicted in its gold category, so predicted counts are hits
    plus misses. A slot without a prediction, without a gold edge, or with
    a parent that is no mention of the document raises EvaluationError, as
    does a gold mention of unknown kind; _slot_errors words the first.
    """
    gold_n, miss_n, hit_n = [0, 0, 0], [0, 0, 0], [0, 0, 0]  # per CATEGORIES entry
    for doc in gold:
        graph = preds.get(doc.id)
        if graph is None:
            raise EvaluationError(f"no prediction for document {doc.id!r}")
        edges = graph.edges
        try:
            parents, categories = doc.gold
        except CorpusError as exc:  # a mention of unknown kind
            raise EvaluationError(f"document {doc.id}: {exc}") from None
        if NOT_A_MENTION in categories:
            raise next(_slot_errors(doc, edges))
        for cat in range(3):
            gold_n[cat] += categories.count(cat)
        # no gold parent is None now, so a missing prediction takes the miss branch
        by_id = doc.by_id
        for pred_parent, gold_parent, cat, m in zip(map(edges.get, doc.slots), parents,
                                                    categories, doc.slot_mentions):
            if pred_parent == gold_parent:  # then its category is the gold one
                hit_n[cat] += 1
            elif pred_parent is None:
                raise next(_slot_errors(doc, edges))
            else:
                try:  # the gold table's rule: 2 for a meta parent, else 0 in
                    # the child's sentence and 1 outside it
                    miss_n[2 if pred_parent in META_NODES else
                           0 if by_id[pred_parent].sentence == m.sentence else 1] += 1
                except KeyError:
                    raise next(_slot_errors(doc, edges)) from None
    pred_n = [miss + hit for miss, hit in zip(miss_n, hit_n)]
    total = sum(gold_n)
    if total == 0:
        raise EvaluationError("gold corpus has no slots to evaluate")
    cats: dict[str, CategoryMetrics] = {}
    flags: list[str] = []
    for name, n_gold, n_pred, n_hit in zip(CATEGORIES, gold_n, pred_n, hit_n):
        precision = n_hit / n_pred if n_pred else 0.0
        recall = n_hit / n_gold if n_gold else 0.0
        flags += [f"{name}:{rate}_undefined"
                  for rate, n in (("precision", n_pred), ("recall", n_gold)) if not n]
        f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
        cats[name] = CategoryMetrics(n_gold, n_pred, n_hit, precision, recall, f1)
    return MetricsReport(corpus=corpus_identity(gold), seed=seed,
                         accuracy=sum(hit_n) / total, total_slots=total,
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
