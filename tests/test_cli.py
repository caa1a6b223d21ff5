import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tdgparse.cli import main
from tdgparse.corpus import parse_corpus
from tdgparse.scorer import ModelConfig, RankingModel, build_vocabulary, save_checkpoint

SMALL_SYNTH = {
    "n_docs": 12,
    "sentences_per_doc": [2, 3],
    "mentions_per_sentence": [1, 2],
    "timex_share": 0.5,
    "timex_parent_probs": {t: [1.0, 0.0] for t in
                           ("M1", "M2", "C1", "C2", "D1", "D2", "D3", "D4", "NA")},
    "event_timex_probs": {t: [0.0, 1.0] for t in
                          ("M1", "M2", "C1", "C2", "D1", "D2", "D3", "D4", "NA")},
    "refevent_prob": 0.0,
    "noise_vocab_size": 20,
    "noise_tokens_per_sentence": [1, 2],
}

SMALL_TRAIN = ["--epochs", "2", "--warmup-epochs", "1", "--batch-docs", "4",
               "--lr", "0.05", "--dim", "4", "--hidden", "6", "--seeds", "0"]


def read_json(path):
    return json.loads(path.read_text(encoding="utf-8"))


def manifest_sans_timestamp(path):
    obj = read_json(path / "manifest.json")
    obj.pop("timestamp")
    return obj


def test_help_and_version_exit_zero(capsys):
    for argv in (["--help"], ["--version"], ["train", "--help"]):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 0
        capsys.readouterr()


def test_missing_required_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["validate", "--corpus", "x.jsonl"])  # no --out
    assert err.value.code == 2
    capsys.readouterr()


def test_validate_clean_corpus(hand_corpus_path, hand_dp_path, tmp_path):
    out = tmp_path / "report"
    code = main(["validate", "--corpus", str(hand_corpus_path),
                 "--dp-labels", str(hand_dp_path), "--out", str(out)])
    assert code == 0
    report = read_json(out / "report.json")
    assert report == {"documents": 3, "violations": [], "ok": True}
    manifest = read_json(out / "manifest.json")
    assert manifest["command"] == "validate"
    assert manifest["outputs"] == ["report.json"]
    assert set(manifest["inputs"]) == {"corpus", "dp_labels"}
    assert all(len(v["sha256"]) == 64 for v in manifest["inputs"].values())


CYCLIC_DOC = {
    "id": "x", "dct": "2021-01-01",
    "sentences": [{"index": 0, "tokens": ["a", "b"]}],
    "mentions": [
        {"id": "t1", "kind": "timex", "sentence": 0, "start": 0, "end": 1},
        {"id": "t2", "kind": "timex", "sentence": 0, "start": 1, "end": 2},
    ],
    "edges": [
        {"child": "t1", "slot": "timex_ref", "parent": "t2"},
        {"child": "t2", "slot": "timex_ref", "parent": "t1"},
    ],
}


def test_validate_reports_violations(tmp_path, capsys):
    corpus = tmp_path / "broken.jsonl"
    corpus.write_text(json.dumps(CYCLIC_DOC) + "\n{oops\n", encoding="utf-8")
    out = tmp_path / "report"
    code = main(["validate", "--corpus", str(corpus), "--out", str(out)])
    assert code == 1
    report = read_json(out / "report.json")
    assert report["ok"] is False
    assert report["documents"] == 1
    assert any("cycle" in v for v in report["violations"])
    assert any("malformed JSON" in v for v in report["violations"])
    assert "cycle" in capsys.readouterr().err


def test_train_rejects_the_cycle_validate_reports(tmp_path, capsys):
    corpus = tmp_path / "cyclic.jsonl"
    corpus.write_text(json.dumps(CYCLIC_DOC) + "\n", encoding="utf-8")
    cycle = "gold edges form a cycle: t1 -> t2 -> t1"
    assert main(["validate", "--corpus", str(corpus),
                 "--out", str(tmp_path / "report")]) == 1
    report = read_json(tmp_path / "report" / "report.json")
    assert report["violations"] == [f"{corpus}:1: {cycle}"]
    capsys.readouterr()
    code = main(["train", "--train", str(corpus), "--valid", str(corpus),
                 *SMALL_TRAIN, "--out", str(tmp_path / "model")])
    assert code == 1
    err = capsys.readouterr().err
    assert f"{corpus}:1" in err and cycle in err


def meta_named_doc(name: str) -> dict:
    """One timex whose id is the name of a meta node."""
    return {
        "id": "m", "dct": "2021-01-01",
        "sentences": [{"index": 0, "tokens": ["today"]}],
        "mentions": [{"id": name, "kind": "timex", "sentence": 0, "start": 0, "end": 1}],
        "edges": [{"child": name, "slot": "timex_ref",
                   "parent": "ROOT" if name == "DCT" else "DCT"}],
    }


@pytest.mark.parametrize("name", ["DCT", "ROOT", "NO_EVENT"])
def test_validate_rejects_meta_node_ids(name, tmp_path, capsys):
    corpus = tmp_path / "meta.jsonl"
    corpus.write_text(json.dumps(meta_named_doc(name)) + "\n", encoding="utf-8")
    assert main(["validate", "--corpus", str(corpus),
                 "--out", str(tmp_path / "report")]) == 1
    report = read_json(tmp_path / "report" / "report.json")
    assert f"{corpus}:1: mention {name}: id is reserved for a meta node" \
        in report["violations"]
    capsys.readouterr()


def test_train_rejects_meta_node_ids(tmp_path, capsys):
    corpus = tmp_path / "meta.jsonl"
    corpus.write_text(json.dumps(meta_named_doc("DCT")) + "\n", encoding="utf-8")
    code = main(["train", "--train", str(corpus), "--valid", str(corpus),
                 *SMALL_TRAIN, "--out", str(tmp_path / "model")])
    assert code == 1
    assert "mention DCT: id is reserved for a meta node" in capsys.readouterr().err


def _break_w1_shape(params):
    hidden, width = params["w1"]["shape"]
    params["w1"] = {"shape": [hidden, width - 1], "data": [0.0] * (hidden * (width - 1))}
    return "parameter w1 has shape"


def _make_w2_nan(params):
    params["w2"]["data"][0] = float("nan")
    return "parameter w2 holds non-finite values"


@pytest.mark.parametrize("corrupt", [_break_w1_shape, _make_w2_nan])
def test_predict_rejects_bad_checkpoint_tensors(corrupt, tmp_path, capsys):
    config = tmp_path / "synth.json"
    config.write_text(json.dumps(SMALL_SYNTH), encoding="utf-8")
    assert main(["synth", "--config", str(config), "--seed", "2",
                 "--out", str(tmp_path / "data")]) == 0
    corpus = str(tmp_path / "data" / "corpus.jsonl")
    assert main(["train", "--variant", "baseline", "--train", corpus,
                 "--valid", corpus, *SMALL_TRAIN, "--out", str(tmp_path / "run")]) == 0
    checkpoint = tmp_path / "run" / "checkpoint-seed0.json"
    obj = read_json(checkpoint)
    message = corrupt(obj["params"])
    checkpoint.write_text(json.dumps(obj), encoding="utf-8")
    capsys.readouterr()
    code = main(["predict", "--checkpoint", str(checkpoint), "--corpus", corpus,
                 "--out", str(tmp_path / "preds")])
    assert code == 3
    assert message in capsys.readouterr().err
    assert not (tmp_path / "preds" / "predictions.jsonl").exists()


def test_validate_missing_file_is_usage_error(tmp_path, capsys):
    code = main(["validate", "--corpus", str(tmp_path / "nope.jsonl"),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    capsys.readouterr()


def test_synth_is_deterministic_per_seed(tmp_path):
    runs = {}
    for name, seed in (("a", 7), ("b", 7), ("c", 8)):
        out = tmp_path / name
        assert main(["synth", "--seed", str(seed), "--out", str(out)]) == 0
        runs[name] = ((out / "corpus.jsonl").read_bytes(),
                      (out / "dp_labels.tsv").read_bytes())
        manifest = read_json(out / "manifest.json")
        assert manifest["seeds"] == [seed]
        assert manifest["config"]["n_docs"] == 20
    assert runs["a"] == runs["b"]
    assert runs["a"] != runs["c"]


def test_synth_rejects_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n_docs": 0}), encoding="utf-8")
    code = main(["synth", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert code == 2
    bad.write_text(json.dumps({"number_of_docs": 3}), encoding="utf-8")
    code = main(["synth", "--config", str(bad), "--out", str(tmp_path / "o2")])
    assert code == 2
    capsys.readouterr()


def test_analyze_flags_label_gaps(hand_corpus_path, tmp_path, capsys):
    labels = tmp_path / "partial.tsv"
    labels.write_text("a\t0\tM1\na\t1\tC2\nb\t0\tD1\nb\t1\tD1\n",
                      encoding="utf-8")  # (c, 0) missing
    code = main(["analyze", "--corpus", str(hand_corpus_path),
                 "--dp-labels", str(labels), "--out", str(tmp_path / "o")])
    assert code == 3
    assert "missing" in capsys.readouterr().err


def test_failed_train_leaves_manifest_but_no_outputs(tmp_path, capsys):
    synth_out = tmp_path / "data"
    config = tmp_path / "synth.json"
    config.write_text(json.dumps(SMALL_SYNTH), encoding="utf-8")
    assert main(["synth", "--config", str(config), "--seed", "1",
                 "--out", str(synth_out)]) == 0
    train_out = tmp_path / "diverged"
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["train", "--variant", "baseline",
                     "--train", str(synth_out / "corpus.jsonl"),
                     "--valid", str(synth_out / "corpus.jsonl"),
                     "--out", str(train_out),
                     "--epochs", "3", "--warmup-epochs", "1", "--dim", "4",
                     "--hidden", "6", "--seeds", "0", "--lr", "1e150"])
    assert code == 3
    assert (train_out / "manifest.json").exists()
    assert not (train_out / "checkpoint-seed0.json").exists()
    assert not list(train_out.glob("*.tmp"))
    capsys.readouterr()


def test_evaluate_seed_label_mismatch(tmp_path, hand_corpus_path, capsys):
    preds = tmp_path / "p.jsonl"
    preds.write_text("", encoding="utf-8")
    code = main(["evaluate", "--gold", str(hand_corpus_path),
                 "--pred", str(preds), str(preds), "--seeds", "0",
                 "--out", str(tmp_path / "o")])
    assert code == 2
    capsys.readouterr()


def test_repeated_seed_labels_are_usage_errors(tmp_path, hand_corpus_path, capsys):
    preds = tmp_path / "p.jsonl"
    preds.write_text("", encoding="utf-8")
    runs = (["evaluate", "--gold", str(hand_corpus_path), "--pred", str(preds),
             str(preds), "--seeds", "0,0", "--out", str(tmp_path / "e")],
            ["train", "--train", str(hand_corpus_path), "--valid", str(hand_corpus_path),
             "--out", str(tmp_path / "t"), "--seeds", "1,2,1"])
    for argv in runs:
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert "repeats a seed" in capsys.readouterr().err
    assert not (tmp_path / "e").exists() and not (tmp_path / "t").exists()


def test_evaluate_rejects_malformed_predictions(tmp_path, hand_corpus_path,
                                                capsys):
    preds = tmp_path / "p.jsonl"
    preds.write_text("not json\n", encoding="utf-8")
    code = main(["evaluate", "--gold", str(hand_corpus_path),
                 "--pred", str(preds), "--out", str(tmp_path / "o")])
    assert code == 3
    assert "malformed" in capsys.readouterr().err


@pytest.mark.parametrize("line, message", [
    ("[1, 2]", "must be a JSON object with a string id"),
    ('{"id": ["x"], "edges": []}', "must be a JSON object with a string id"),
    ('{"id": "a"}', "malformed prediction (KeyError: 'edges')"),
    ('{"id": "a", "edges": [1]}', "malformed prediction (TypeError"),
], ids=["not_an_object", "list_id", "no_edges", "edge_not_an_object"])
def test_evaluate_rejects_malformed_prediction_lines(line, message, tmp_path,
                                                     hand_corpus_path, capsys):
    preds = tmp_path / "p.jsonl"
    preds.write_text("\n" + line + "\n", encoding="utf-8")
    code = main(["evaluate", "--gold", str(hand_corpus_path),
                 "--pred", str(preds), "--out", str(tmp_path / "o")])
    assert code == 3
    err = capsys.readouterr().err
    assert f"{preds}:2: " in err and message in err
    assert "Traceback" not in err


def test_predict_dp_feature_without_labels_is_a_usage_error(tmp_path, hand_corpus_path,
                                                            capsys):
    corpus = parse_corpus(hand_corpus_path)
    checkpoint = tmp_path / "checkpoint.json"
    config = ModelConfig(dim=3, hidden=2, variant="dp_feature")
    save_checkpoint(RankingModel.initialized(config, build_vocabulary(corpus), seed=0),
                    checkpoint)
    code = main(["predict", "--checkpoint", str(checkpoint),
                 "--corpus", str(hand_corpus_path), "--out", str(tmp_path / "preds")])
    assert code == 2
    assert "variant dp_feature requires --dp-labels" in capsys.readouterr().err
    assert not (tmp_path / "preds").exists()


def test_pipeline_end_to_end(tmp_path):
    config = tmp_path / "synth.json"
    config.write_text(json.dumps(SMALL_SYNTH), encoding="utf-8")
    data = tmp_path / "data"
    assert main(["synth", "--config", str(config), "--seed", "3",
                 "--out", str(data)]) == 0
    corpus = str(data / "corpus.jsonl")
    labels = str(data / "dp_labels.tsv")

    assert main(["validate", "--corpus", corpus, "--dp-labels", labels,
                 "--out", str(tmp_path / "report")]) == 0

    run = tmp_path / "run"
    assert main(["train", "--variant", "baseline", "--train", corpus,
                 "--valid", corpus, "--out", str(run), *SMALL_TRAIN]) == 0
    checkpoint = run / "checkpoint-seed0.json"
    history = read_json(run / "history-seed0.json")
    assert len(history["epochs"]) == 2
    assert 0 <= history["best_epoch"] <= 1
    echoed = read_json(checkpoint)
    assert echoed["seed"] == 0
    assert echoed["train_config"]["max_epochs"] == 2

    preds = tmp_path / "preds"
    assert main(["predict", "--checkpoint", str(checkpoint),
                 "--corpus", corpus, "--out", str(preds)]) == 0
    lines = (preds / "predictions.jsonl").read_text().splitlines()
    assert [json.loads(l)["id"] for l in lines] == \
        [f"synth-{i:04d}" for i in range(12)]

    metrics = tmp_path / "metrics"
    assert main(["evaluate", "--gold", corpus,
                 "--pred", str(preds / "predictions.jsonl"),
                 "--variant", "baseline", "--aggregate",
                 "--out", str(metrics)]) == 0
    seed0 = read_json(metrics / "metrics-seed0.json")
    assert 0.0 <= seed0["accuracy"] <= 100.0
    assert seed0["variant"] == "baseline"
    assert set(seed0["per_category"]) == {"intra_sentence", "cross_sentence",
                                          "no_parent"}
    agg = read_json(metrics / "metrics-aggregate.json")
    assert agg["accuracy"]["mean"] == seed0["accuracy"]
    assert agg["accuracy"]["std"] == 0.0

    analysis = tmp_path / "analysis"
    assert main(["analyze", "--corpus", corpus, "--dp-labels", labels,
                 "--out", str(analysis)]) == 0
    for stem in ("timex_parents", "event_reference_timexes",
                 "event_reference_timex_content",
                 "event_reference_event_content"):
        assert (analysis / f"{stem}.csv").exists()
        assert (analysis / f"{stem}.txt").exists()
    summary = read_json(analysis / "summary.json")
    assert summary["n_documents"] == 12
    assert len(summary["checks"]) == 2
    # every timex in this corpus anchors to the DCT by construction
    assert summary["checks"][1]["passed"] is True

    # a second identical run reproduces every artifact byte for byte
    run2 = tmp_path / "run2"
    assert main(["train", "--variant", "baseline", "--train", corpus,
                 "--valid", corpus, "--out", str(run2), *SMALL_TRAIN]) == 0
    assert (run2 / "checkpoint-seed0.json").read_bytes() == \
        checkpoint.read_bytes()
    assert (run2 / "history-seed0.json").read_bytes() == \
        (run / "history-seed0.json").read_bytes()
    assert manifest_sans_timestamp(run2) == manifest_sans_timestamp(run)

    preds2 = tmp_path / "preds2"
    assert main(["predict", "--checkpoint", str(run2 / "checkpoint-seed0.json"),
                 "--corpus", corpus, "--out", str(preds2)]) == 0
    assert (preds2 / "predictions.jsonl").read_bytes() == \
        (preds / "predictions.jsonl").read_bytes()


def test_train_config_file_with_flag_overrides(tmp_path):
    config = tmp_path / "synth.json"
    config.write_text(json.dumps(SMALL_SYNTH), encoding="utf-8")
    data = tmp_path / "data"
    assert main(["synth", "--config", str(config), "--seed", "5",
                 "--out", str(data)]) == 0

    train_cfg = tmp_path / "train.json"
    train_cfg.write_text(json.dumps({
        "variant": "baseline", "max_epochs": 4, "warmup_epochs": 1,
        "peak_lr": 0.05, "dim": 4, "hidden": 6, "seeds": [0],
        "batch_size_docs": 4,
    }), encoding="utf-8")
    run = tmp_path / "run"
    assert main(["train", "--config", str(train_cfg), "--epochs", "2",
                 "--train", str(data / "corpus.jsonl"),
                 "--valid", str(data / "corpus.jsonl"),
                 "--out", str(run)]) == 0
    manifest = read_json(run / "manifest.json")
    assert manifest["config"]["max_epochs"] == 2      # flag wins
    assert manifest["config"]["peak_lr"] == 0.05      # file wins over default
    assert len(read_json(run / "history-seed0.json")["epochs"]) == 2

    bad_cfg = tmp_path / "bad.json"
    bad_cfg.write_text(json.dumps({"learning_rate": 0.1}), encoding="utf-8")
    code = main(["train", "--config", str(bad_cfg),
                 "--train", str(data / "corpus.jsonl"),
                 "--valid", str(data / "corpus.jsonl"),
                 "--out", str(tmp_path / "bad-run")])
    assert code == 2


def test_train_usage_errors(tmp_path, hand_corpus_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    corpus = str(hand_corpus_path)
    runs = {"requires --dp-labels": ["--variant", "dp_distill", "--train", corpus],
            "is empty": ["--train", str(empty)],
            "warmup_epochs must lie in": ["--train", corpus, "--warmup-epochs", "3"]}
    for message, argv in runs.items():
        code = main(["train", "--warmup-epochs", "1", *argv, "--valid", corpus,
                     "--epochs", "2", "--out", str(tmp_path / "run")])
        assert code == 2
        assert message in capsys.readouterr().err


def test_runtime_value_error_is_a_runtime_fault(tmp_path, hand_corpus_path, capsys,
                                                monkeypatch):
    corpus = parse_corpus(hand_corpus_path)
    checkpoint = tmp_path / "checkpoint.json"
    save_checkpoint(RankingModel.initialized(ModelConfig(dim=3, hidden=2),
                                             build_vocabulary(corpus), seed=0),
                    checkpoint)

    def broken_forward(self, batch, markers):
        return np.ones(2) + np.ones(3)

    monkeypatch.setattr(RankingModel, "_ranking_forward", broken_forward)
    code = main(["predict", "--checkpoint", str(checkpoint),
                 "--corpus", str(hand_corpus_path), "--out", str(tmp_path / "preds")])
    assert code == 3
    assert "could not be broadcast" in capsys.readouterr().err
    assert not (tmp_path / "preds" / "predictions.jsonl").exists()


# prints the thread count the loaded OpenBLAS uses, or -1 if none is found
_BLAS_THREADS = """
import ctypes, sys
from pathlib import Path
if sys.argv[1] == "cli":
    import tdgparse.cli
import numpy as np
for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*.so*")):
    for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                 "openblas_get_num_threads64_", "openblas_get_num_threads"):
        getter = getattr(ctypes.CDLL(str(lib)), name, None)
        if getter is not None:
            getter.argtypes, getter.restype = [], ctypes.c_int
            print(getter())
            sys.exit()
print(-1)
"""


def _blas_threads(first_import: str, preset: str | None) -> int:
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    out = subprocess.run([sys.executable, "-c", _BLAS_THREADS, first_import], env=env,
                         capture_output=True, text=True, check=True)
    return int(out.stdout)


def test_cli_pins_blas_threads_unless_set():
    pinned = _blas_threads("cli", None)
    if pinned == -1:
        pytest.skip("numpy does not load OpenBLAS here")
    assert pinned == 1
    # a count the user set is kept: the CLI import changes nothing
    assert _blas_threads("cli", "2") == _blas_threads("numpy", "2")
