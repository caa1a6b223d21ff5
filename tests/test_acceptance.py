"""Acceptance gate: eleven numbered end-to-end checks.

Run ``pytest tests/test_acceptance.py -s`` to see one
``[acceptance] criterion N: PASS/FAIL`` line per check. Criteria 7, 8 and 11
share one module-scoped pipeline run (synthesis, training, decoding and
scoring through the command-line interface with the shipped configs).
Criterion 10 only runs when ``TDG_SOURCE_CORPUS`` and ``TDG_SOURCE_DP_LABELS``
point at a real annotated corpus; it is skipped (and says so) otherwise. A
last, unnumbered check reads back, from the same run's checkpoints, every
prediction line in both decode orders through graph_from_json's typed pass.
"""

import json
import math
import os
import random
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from tdgparse import graph as graph_module
from tdgparse.analysis import all_tables
from tdgparse.cli import main as cli_main
from tdgparse.corpus import ContentType, load_dp_labels, parse_corpus
from tdgparse.evaluation import partitioned_prf
from tdgparse.graph import (
    DECODE_ORDERS,
    SlotScores,
    candidate_layout,
    graph_from_json,
    greedy_decode,
    slot_instances,
    validate_graph,
)
from tdgparse.scorer import (
    ModelConfig,
    RankingModel,
    VARIANTS,
    build_vocabulary,
    init_params,
)
from tdgparse.synth import SynthConfig, generate_synthetic_corpus
from tdgparse.training import (
    OptimizerState,
    TrainConfig,
    adamw_step,
    decode_corpus,
    lr_at,
    train,
)

from .conftest import HAND_DOCS, HAND_DP_ROWS, hand_dp_loss, hand_ranking_loss, make_doc
from .oracles import (
    brute_force_metrics,
    finite_difference_check,
    random_document,
    random_pred_graph,
    random_scores,
    reference_decode,
    relu_pattern,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
SANITY_CORPUS_SEED = 20260815
DISTILL_CORPUS_SEED = 7
META = ("DCT", "ROOT", "NO_EVENT")


def criterion(n: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"\n[acceptance] criterion {n}: {status} — {detail}")
    assert passed, f"criterion {n}: {detail}"


def run_cli(*argv) -> None:
    code = cli_main([str(a) for a in argv])
    assert code == 0, f"command {argv} exited with {code}"


# ------------------------------------------------------------------ 1


def test_criterion_01_gradients_match_finite_differences():
    t0 = time.time()
    rng = np.random.Generator(np.random.PCG64(101))
    worst = 0.0
    worst_at = None
    for i in range(100):
        variant = VARIANTS[int(rng.integers(0, len(VARIANTS)))]
        kind = ("ranking", "dp")[int(rng.integers(0, 2))]
        corpus, labels = generate_synthetic_corpus(
            SynthConfig(n_docs=2, sentences_per_doc=(2, 3),
                        mentions_per_sentence=(1, 2)), seed=1000 + i)
        vocab = build_vocabulary(corpus)
        config = ModelConfig(dim=int(rng.integers(2, 5)),
                             hidden=int(rng.integers(2, 7)), variant=variant)
        params = init_params(config, vocab, rng)

        def loss_and_grads(p):
            model = RankingModel(config, vocab, p)
            if kind == "ranking":
                return model.ranking_loss_and_grads(corpus, labels)
            return model.dp_loss_and_grads(corpus, labels)

        def loss_and_pattern(p):
            model = RankingModel(config, vocab, p)
            loss, _ = model.ranking_loss_and_grads(corpus, labels)
            return loss, relu_pattern(model, corpus, labels)

        report = finite_difference_check(
            loss_and_grads, params, rng, coords_per_tensor=6,
            loss_and_pattern=loss_and_pattern if kind == "ranking" else None)
        if report["max_rel_err"] > worst:
            worst = report["max_rel_err"]
            worst_at = (i, variant, kind)
    elapsed = time.time() - t0
    criterion(1, worst < 1e-4 and elapsed < 60,
              f"100 configs, max rel err {worst:.2e} at {worst_at}, "
              f"{elapsed:.1f}s (< 60s)")


# ------------------------------------------------------------------ 2, 3


def fuzz_stream(n: int):
    rng = random.Random(202)
    for i in range(n):
        doc = random_document(rng, max_mentions=10, doc_id=f"fz{i}")
        scores = random_scores(rng, doc)
        yield rng, doc, scores


def _walks_back_to(assigned: dict, start: str, target: str) -> bool:
    """Follow already-assigned mention parents from start; True on target."""
    frontier, seen = [start], set()
    while frontier:
        node = frontier.pop()
        if node == target:
            return True
        if node in seen:
            continue
        seen.add(node)
        frontier.extend(assigned.get(node, ()))
    return False


def audit_turn_by_turn(doc, scores, graph, order: str) -> None:
    """Re-simulate the decode and insist each turn took the best legal pick."""
    slots = slot_instances(doc)
    if order == "score":
        slots = sorted(slots, key=lambda s: -max(scores[s].scores))
    assigned: dict[str, list[str]] = {}
    for slot in slots:
        chosen = graph.edges[slot]
        ranked = sorted(range(len(scores[slot].candidates)),
                        key=lambda j: -scores[slot].scores[j])
        for j in ranked:
            cand = scores[slot].candidates[j]
            feasible = cand in META or not _walks_back_to(assigned, cand,
                                                          slot.child)
            if feasible:
                assert cand == chosen, (
                    f"{doc.id} {slot}: decoded {chosen!r} but {cand!r} was "
                    f"the best feasible candidate at its turn"
                )
                break
        if chosen not in META:
            assigned.setdefault(slot.child, []).append(chosen)


def test_criterion_02_decoder_fuzz():
    t0 = time.time()
    n_docs = 1000
    for _, doc, scores in fuzz_stream(n_docs):
        for order in ("score", "document"):
            graph = greedy_decode(doc, scores, order=order)
            assert validate_graph(graph, doc) == []
            audit_turn_by_turn(doc, scores, graph, order)
            copy = SlotScores(candidate_layout(doc), scores.score.copy())
            again = greedy_decode(doc, copy, order=order)
            assert again.edges == graph.edges
    elapsed = time.time() - t0
    criterion(2, elapsed < 30,
              f"{n_docs} documents x 2 orders: all valid, turn-by-turn "
              f"feasibility holds, deterministic; {elapsed:.1f}s (< 30s)")


def test_criterion_03_decoder_matches_reference():
    mismatches = checked = 0
    for _, doc, scores in fuzz_stream(1000):
        if len(doc.mentions) > 4:
            continue
        checked += 1
        for order in ("score", "document"):
            got = greedy_decode(doc, scores, order=order)
            flat = {(s.child, s.slot): p for s, p in got.edges.items()}
            if flat != reference_decode(doc, scores, order=order):
                mismatches += 1
    criterion(3, checked > 0 and mismatches == 0,
              f"{checked} documents with <= 4 mentions, {mismatches} mismatches")


# ------------------------------------------------------------------ 4


def test_criterion_04_metrics_match_brute_force():
    rng = random.Random(404)
    for trial in range(200):
        corpus = [random_document(rng, max_mentions=8, doc_id=f"t{trial}d{i}")
                  for i in range(rng.randint(1, 3))]
        preds = {doc.id: random_pred_graph(rng, doc) for doc in corpus}
        want = brute_force_metrics(preds, corpus)
        report = partitioned_prf(preds, corpus)
        assert report.accuracy == want["accuracy"]
        assert report.total_slots == want["total_slots"]
        for cat, w in want["per_category"].items():
            got = report.per_category[cat]
            assert (got.gold, got.predicted, got.correct,
                    got.precision, got.recall, got.f1) == \
                (w["gold"], w["predicted"], w["correct"],
                 w["p"], w["r"], w["f1"])
        total_gold = sum(c.gold for c in report.per_category.values())
        total_pred = sum(c.predicted for c in report.per_category.values())
        total_correct = sum(c.correct for c in report.per_category.values())
        assert total_gold == total_pred == report.total_slots
        assert report.accuracy == total_correct / total_gold
    criterion(4, True, "200 fixtures equal the flat recount exactly; "
                       "micro-consistency holds on each")


# ------------------------------------------------------------------ 5


def test_criterion_05_loss_and_optimizer_values():
    errs = [
        abs(hand_ranking_loss(0.0) - math.log(2)),
        abs(hand_ranking_loss(1.0) - math.log1p(math.exp(-1))),
        abs(hand_dp_loss(np.zeros(9), ContentType.M1) - math.log(9)),
    ]
    peaked = np.zeros(9)
    peaked[0] = 10.0
    errs.append(abs(hand_dp_loss(peaked, ContentType.M1)
                    - math.log1p(8 * math.exp(-10))))

    theta = np.zeros(1)
    adamw_step(theta, np.ones(1), OptimizerState.for_params({"x": theta}), lr=0.1)
    errs.append(abs(theta[0] - (-0.1 / (1 + 1e-8))))
    theta = np.ones(1)
    adamw_step(theta, np.zeros(1), OptimizerState.for_params({"x": theta}),
               lr=0.1, weight_decay=0.01)
    errs.append(abs(theta[0] - 0.999))

    exact = (lr_at(10, 20, 10, 0.3) == 0.3 and lr_at(20, 20, 10, 0.3) == 0.0
             and lr_at(0, 20, 10, 0.3) == 0.0)
    criterion(5, max(errs) < 1e-9 and exact,
              f"max deviation {max(errs):.2e} (< 1e-9); schedule knee and "
              f"endpoint exact: {exact}")


# ------------------------------------------------------------------ 6


def test_criterion_06_training_sanity():
    t0 = time.time()
    synth_config = SynthConfig.from_json(
        json.loads((CONFIG_DIR / "sanity.synth.json").read_text()))
    raw = json.loads((CONFIG_DIR / "sanity.train.json").read_text())
    raw["seeds"] = tuple(raw["seeds"])
    train_config = TrainConfig(**raw)
    corpus, _ = generate_synthetic_corpus(synth_config, SANITY_CORPUS_SEED)
    accuracies = []
    for seed in train_config.seeds:
        model, _ = train(train_config, corpus, corpus, None, seed=seed)
        preds = decode_corpus(model, corpus)
        report = partitioned_prf(preds, corpus)
        accuracies.append(report.accuracy)
    elapsed = time.time() - t0
    criterion(6, all(a >= 0.90 for a in accuracies) and elapsed < 600,
              f"train accuracy {[round(a, 4) for a in accuracies]} "
              f"(>= 0.90 each) over {len(corpus)} documents, "
              f"{elapsed:.0f}s (< 600s)")


# ------------------------------------------------------------------ 7, 8, 11


def distill_pipeline(base: Path) -> None:
    """synth -> train x2 variants -> predict x3 seeds -> evaluate, via CLI."""
    run_cli("synth", "--config", CONFIG_DIR / "distill.synth.json",
            "--seed", DISTILL_CORPUS_SEED, "--out", base / "data")
    corpus = base / "data" / "corpus.jsonl"
    labels = base / "data" / "dp_labels.tsv"
    for variant in ("baseline", "dp_distill"):
        args = ["train", "--config", CONFIG_DIR / "distill.train.json",
                "--variant", variant, "--train", corpus, "--valid", corpus,
                "--out", base / variant]
        if variant == "dp_distill":
            args += ["--dp-labels", labels]
        run_cli(*args)
        pred_files = []
        for seed in (0, 1, 2):
            out = base / variant / f"preds-seed{seed}"
            run_cli("predict",
                    "--checkpoint", base / variant / f"checkpoint-seed{seed}.json",
                    "--corpus", corpus, "--out", out)
            pred_files.append(out / "predictions.jsonl")
        run_cli("evaluate", "--gold", corpus, "--pred", *pred_files,
                "--seeds", "0,1,2", "--variant", variant, "--aggregate",
                "--out", base / variant / "metrics")


@pytest.fixture(scope="module")
def pipeline_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("pipeline")
    t0 = time.time()
    distill_pipeline(root / "run1")
    return {"root": root, "base": root / "run1", "elapsed": time.time() - t0}


def aggregate_f1(base: Path, variant: str, category: str) -> float:
    obj = json.loads(
        (base / variant / "metrics" / "metrics-aggregate.json").read_text())
    return obj["per_category"][category]["f1"]["mean"]


def test_criterion_07_distillation_effect(pipeline_run):
    base = pipeline_run["base"]
    cross_gain = (aggregate_f1(base, "dp_distill", "cross_sentence")
                  - aggregate_f1(base, "baseline", "cross_sentence"))
    intra_drop = (aggregate_f1(base, "baseline", "intra_sentence")
                  - aggregate_f1(base, "dp_distill", "intra_sentence"))
    elapsed = pipeline_run["elapsed"]
    criterion(7, cross_gain >= 2.0 and intra_drop <= 1.0 and elapsed < 1800,
              f"cross-sentence F1 gain {cross_gain:+.2f} (>= 2.0), "
              f"intra-sentence drop {intra_drop:+.2f} (<= 1.0), mean of 3 "
              f"seeds; pipeline {elapsed:.0f}s (< 1800s)")


def test_criterion_08_update_order_changes_training(pipeline_run):
    base = pipeline_run["base"]
    corpus = parse_corpus(base / "data" / "corpus.jsonl")
    labels = load_dp_labels(base / "data" / "dp_labels.tsv", corpus)
    raw = json.loads((CONFIG_DIR / "distill.train.json").read_text())
    histories = {}
    for order in ("dp_then_rank", "rank_then_dp"):
        config = TrainConfig(**{**raw, "seeds": (0,), "variant": "dp_distill",
                                "update_order": order})
        _, history = train(config, corpus, corpus, labels, seed=0)
        histories[order] = asdict(history)
    differs = histories["dp_then_rank"] != histories["rank_then_dp"]
    criterion(8, differs,
              "dp_then_rank and rank_then_dp histories differ on the "
              "distillation corpus (seed 0)")


# ------------------------------------------------------------------ 9


def test_criterion_09_analyzer_tables():
    corpus = [make_doc(obj) for obj in HAND_DOCS]
    dp = {(d, i): ContentType(t) for d, i, t in HAND_DP_ROWS}
    timexes, events, timex_m, event_m = all_tables(corpus, dp)

    def row(table, label):
        i = table.row_labels.index(label)
        return table.denominators[i], tuple(table.cells[i])

    nan3 = (0, tuple([math.nan] * 3))
    nan9 = (0, tuple([math.nan] * 9))

    def eq(a, b):
        return a[0] == b[0] and all(
            x == y or (math.isnan(x) and math.isnan(y))
            for x, y in zip(a[1], b[1]))

    def one_hot9(label, pct=100.0):
        cells = [0.0] * 9
        cells[timex_m.col_labels.index(label)] = pct
        return tuple(cells)

    expected = {
        "timexes": {"M1": (1, (100.0, 0.0, 0.0)), "C2": (1, (0.0, 0.0, 100.0)),
                    "D1": (1, (0.0, 100.0, 0.0)), "NA": (1, (100.0, 0.0, 0.0))},
        "events": {"M1": (1, (0.0, 100.0, 0.0)), "C2": (1, (0.0, 0.0, 100.0)),
                   "D1": (2, (50.0, 50.0, 0.0)), "NA": (1, (0.0, 100.0, 0.0))},
        "timex_m": {"M1": (1, one_hot9("M1")), "C2": (1, one_hot9("M1")),
                    "D1": (1, one_hot9("D1")), "NA": (1, one_hot9("NA"))},
        "event_m": {"C2": (1, one_hot9("M1")), "D1": (1, one_hot9("D1"))},
    }
    tables = {"timexes": timexes, "events": events,
              "timex_m": timex_m, "event_m": event_m}
    for name, table in tables.items():
        empty = nan9 if name.endswith("_m") else nan3
        for label in table.row_labels:
            want = expected[name].get(label, empty)
            assert eq(row(table, label), want), (name, label, row(table, label))

    for seed in range(100):
        corpus, labels = generate_synthetic_corpus(SynthConfig(n_docs=6), seed)
        for table in all_tables(corpus, labels):
            for i in range(len(table.row_labels)):
                if table.denominators[i] == 0:
                    assert all(math.isnan(v) for v in table.cells[i])
                else:
                    assert abs(sum(table.cells[i]) - 100.0) <= 0.1
    criterion(9, True, "hand-tallied 3-document tables exact; row sums within "
                       "0.1 of 100 across 100 random corpora")


# ------------------------------------------------------------------ 10


def test_criterion_10_source_corpus_hook(tmp_path):
    corpus = os.environ.get("TDG_SOURCE_CORPUS")
    labels = os.environ.get("TDG_SOURCE_DP_LABELS")
    if not corpus or not labels:
        print("\n[acceptance] criterion 10: SKIP — export TDG_SOURCE_CORPUS "
              "and TDG_SOURCE_DP_LABELS to analyze an annotated source corpus")
        pytest.skip("no source corpus supplied via environment")
    out = tmp_path / "analysis"
    run_cli("analyze", "--corpus", corpus, "--dp-labels", labels, "--out", out)
    for stem in ("timex_parents", "event_reference_timexes",
                 "event_reference_timex_content",
                 "event_reference_event_content"):
        assert (out / f"{stem}.csv").exists()
    checks = json.loads((out / "summary.json").read_text())["checks"]
    criterion(10, all(c["passed"] for c in checks),
              "; ".join(f"{c['check']}: value={c['value']}" for c in checks))


# ------------------------------------------------------------------ 11


def test_criterion_11_pipeline_determinism(pipeline_run):
    root = pipeline_run["root"]
    first = pipeline_run["base"]
    second = root / "run2"
    distill_pipeline(second)

    rel_paths = ["data/corpus.jsonl", "data/dp_labels.tsv"]
    for variant in ("baseline", "dp_distill"):
        for seed in (0, 1, 2):
            rel_paths.append(f"{variant}/checkpoint-seed{seed}.json")
            rel_paths.append(f"{variant}/history-seed{seed}.json")
            rel_paths.append(f"{variant}/preds-seed{seed}/predictions.jsonl")
            rel_paths.append(f"{variant}/metrics/metrics-seed{seed}.json")
        rel_paths.append(f"{variant}/metrics/metrics-aggregate.json")
    mismatched = [rel for rel in rel_paths
                  if (first / rel).read_bytes() != (second / rel).read_bytes()]

    manifests = sorted(p.relative_to(first)
                       for p in first.rglob("manifest.json"))

    def canon(path: Path, base: Path) -> str:
        obj = json.loads(path.read_text())
        obj.pop("timestamp")
        return json.dumps(obj, sort_keys=True).replace(str(base), "<run>")

    for rel in manifests:
        if canon(first / rel, first) != canon(second / rel, second):
            mismatched.append(str(rel))
    criterion(11, not mismatched,
              f"{len(rel_paths)} artifacts byte-identical across two runs; "
              f"{len(manifests)} manifests equal modulo timestamp and run "
              f"directory" + (f"; MISMATCHES: {mismatched}" if mismatched else ""))


# ------------------------------------------------------------ read-back path


def test_shipped_predictions_load_through_the_typed_pass(pipeline_run, monkeypatch, tmp_path):
    """Every line ``tdgparse predict`` writes for the shipped distill corpus,
    from each trained checkpoint in both decode orders, loads through
    graph_from_json's typed pass: the per-edge path, which words errors, is
    patched to raise, so a valid prediction that drifted onto it fails here."""
    base = pipeline_run["base"]
    corpus_path = base / "data" / "corpus.jsonl"
    docs = {doc.id: doc for doc in parse_corpus(corpus_path)}

    def per_edge(obj, doc):
        raise AssertionError(f"document {doc.id}: a valid prediction took the per-edge path")

    monkeypatch.setattr(graph_module, "_edges_by_field", per_edge)
    loaded = 0
    for variant in ("baseline", "dp_distill"):
        for seed in (0, 1, 2):
            for order in DECODE_ORDERS:
                out = tmp_path / f"{variant}-seed{seed}-{order}"
                run_cli("predict", "--checkpoint", base / variant / f"checkpoint-seed{seed}.json",
                        "--corpus", corpus_path, "--decode-order", order, "--out", out)
                for line in (out / "predictions.jsonl").read_text(encoding="utf-8").splitlines():
                    obj = json.loads(line)
                    graph_from_json(obj, docs[obj["id"]])
                    loaded += 1
    assert loaded == 2 * 3 * len(DECODE_ORDERS) * len(docs)
