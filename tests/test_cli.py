import argparse
import hashlib
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tdgparse import cli, scorer
from tdgparse import corpus as corpus_module
from tdgparse.cli import _path, _resolve_train_config, build_parser, main
from tdgparse.corpus import parse_corpus, write_atomic, write_corpus
from tdgparse.graph import graph_to_json
from tdgparse.scorer import (
    ModelConfig,
    RankingModel,
    build_vocabulary,
    save_checkpoint,
)
from tdgparse.training import TrainingDiverged, decode_corpus

from .conftest import initialized_model
from .oracles import gold_graph

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


def test_train_parses_a_file_named_by_train_and_valid_once(tmp_path, hand_corpus_path,
                                                           hand_corpus, monkeypatch):
    indexed = []
    index_document = scorer._index_document

    def counting(doc, vocab, dp_labels=None):
        indexed.append(doc.id)
        return index_document(doc, vocab, dp_labels)

    monkeypatch.setattr(scorer, "_index_document", counting)
    # another spelling of the same path: the check is by file, not by name
    folder = hand_corpus_path.parent
    valid = folder / ".." / folder.name / hand_corpus_path.name
    assert main(["train", "--train", str(hand_corpus_path), "--valid", str(valid),
                 *SMALL_TRAIN, "--out", str(tmp_path / "model")]) == 0
    assert sorted(indexed) == sorted(doc.id for doc in hand_corpus)


def meta_named_doc(name: str) -> dict:
    """One timex whose id is the name of a meta node."""
    return {
        "id": "m", "dct": "2021-01-01",
        "sentences": [{"index": 0, "tokens": ["today"]}],
        "mentions": [{"id": name, "kind": "timex", "sentence": 0, "start": 0, "end": 1}],
        "edges": [{"child": name, "slot": "timex_ref",
                   "parent": "ROOT" if name == "DCT" else "DCT"}],
    }


@pytest.mark.parametrize("change, violations", [
    (lambda doc: doc["sentences"][0].update(index=1),
     ["document m: sentence indexes [1] are not contiguous from 0",
      "mention t1: sentence 0 does not exist"]),
    (lambda doc: doc["sentences"].append({"index": 1, "tokens": []}),
     ["document m: sentence 1 has no tokens"]),
    (lambda doc: doc["mentions"].append(dict(doc["mentions"][0])),
     ["mention t1: duplicate id"]),
    (lambda doc: doc["mentions"][0].update(kind="date"),
     ["mention t1: unknown kind 'date'",
      "gold slot Slot(child='t1', slot='timex_ref') does not belong to document m"]),
], ids=["gapped_sentences", "empty_sentence", "duplicate_mention", "unknown_kind"])
def test_validate_reports_broken_invariants(change, violations, tmp_path, capsys):
    doc = meta_named_doc("t1")
    change(doc)
    corpus = tmp_path / "broken.jsonl"
    corpus.write_text(json.dumps(doc) + "\n", encoding="utf-8")
    assert main(["validate", "--corpus", str(corpus),
                 "--out", str(tmp_path / "report")]) == 1
    report = read_json(tmp_path / "report" / "report.json")
    assert report["violations"] == [f"{corpus}:1: {v}" for v in violations]
    capsys.readouterr()


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


def _set_field(doc: dict, path: tuple, value) -> dict:
    """A deep copy of doc with the field at path (keys and list positions) set to value."""
    doc = json.loads(json.dumps(doc))
    *parents, last = path
    target = doc
    for key in parents:
        target = target[key]
    target[last] = value
    return doc


@pytest.mark.parametrize("path, value, message", [
    (("sentences", 0, "index"), "abc", "sentence: field 'index' must be an integer, not 'abc'"),
    (("mentions", 0, "sentence"), None, "mention: field 'sentence' must be an integer, not None"),
    (("sentences",), 5, "field 'sentences' must be a list of objects, not 5"),
    (("mentions",), [5], "field 'mentions' must be a list of objects, not [5]"),
    (("mentions", 0, "start"), 0.7, "mention: field 'start' must be an integer, not 0.7"),
    (("mentions", 0, "end"), True, "mention: field 'end' must be an integer, not True"),
    (("id",), ["a"], "field 'id' must be a string, not ['a']"),
    (("edges", 0, "parent"), 0, "edge: field 'parent' must be a string, not 0"),
    (("sentences", 0, "tokens"), ["a", 1], "sentence: field 'tokens' must be a list of strings, not ['a', 1]"),
], ids=["str_index", "null_sentence", "int_sentences", "int_mention", "float_start",
        "bool_end", "list_id", "int_parent", "int_token"])
def test_corpus_fields_must_have_their_json_type(path, value, message, tmp_path, capsys):
    corpus = tmp_path / "typed.jsonl"
    corpus.write_text(json.dumps(_set_field(meta_named_doc("t1"), path, value)) + "\n",
                      encoding="utf-8")
    assert main(["validate", "--corpus", str(corpus),
                 "--out", str(tmp_path / "report")]) == 1
    violations = read_json(tmp_path / "report" / "report.json")["violations"]
    assert violations == [f"{corpus}:1: {message}"]
    assert message in capsys.readouterr().err
    if path == ("mentions", 0, "start"):
        code = main(["train", "--train", str(corpus), "--valid", str(corpus),
                     *SMALL_TRAIN, "--out", str(tmp_path / "model")])
        assert code == 1
        assert message in capsys.readouterr().err


def _break_w1_shape(params):
    hidden, width = params["w1"]["shape"]
    params["w1"] = {"shape": [hidden, width - 1], "data": [0.0] * (hidden * (width - 1))}
    return "parameter w1 has shape"


def _make_w2_nan(params):
    params["w2"]["data"][0] = float("nan")
    return "parameter w2 holds non-finite values"


def _infer_a_dimension(params):
    """Declared shapes with a -1, which numpy's reshape would fill in."""
    rows, dim = params["embeddings"]["shape"]
    params["embeddings"]["shape"] = [rows, -1]
    params["w1"]["shape"][0] = -1
    return f"parameter embeddings has shape ({rows}, -1), expected ({rows}, {dim})"


@pytest.mark.parametrize("corrupt", [_break_w1_shape, _make_w2_nan, _infer_a_dimension])
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


@pytest.mark.parametrize("argv", [["validate", "--corpus"], ["synth", "--config"],
                                  ["predict", "--corpus", "c.jsonl", "--checkpoint"]],
                         ids=["validate_corpus", "synth_config", "predict_checkpoint"])
def test_directory_as_input_file_is_usage_error(argv, tmp_path, capsys):
    code = main([*argv, str(tmp_path), "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and str(tmp_path) in err
    assert not (tmp_path / "out").exists()


def test_out_naming_an_existing_file_is_a_usage_error_for_every_command(
        tmp_path, hand_corpus_path, hand_dp_path, capsys):
    """Each subcommand, given inputs it accepts, stops at an --out that is a
    file with one error line and exit 2, and leaves the file as it was."""
    corpus = parse_corpus(hand_corpus_path)
    checkpoint = tmp_path / "checkpoint.json"
    save_checkpoint(initialized_model(ModelConfig(dim=3, hidden=2), build_vocabulary(corpus),
                                      seed=0), checkpoint)
    preds = tmp_path / "preds.jsonl"
    preds.write_text("".join(json.dumps(graph_to_json(gold_graph(doc), doc)) + "\n"
                             for doc in corpus), encoding="utf-8")
    c, d = str(hand_corpus_path), str(hand_dp_path)
    inputs = {"validate": ["--corpus", c, "--dp-labels", d], "synth": [],
              "train": ["--train", c, "--valid", c, *SMALL_TRAIN],
              "predict": ["--checkpoint", str(checkpoint), "--corpus", c],
              "evaluate": ["--gold", c, "--pred", str(preds)],
              "analyze": ["--corpus", c, "--dp-labels", d]}
    assert set(inputs) == set(REQUIRED_PATH_FLAGS)
    out = tmp_path / "out"
    out.write_bytes(b"keep\n")
    for command, argv in inputs.items():
        assert main([command, *argv, "--out", str(out)]) == 2, command
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, (command, err)
        assert "File exists" in err and str(out) in err, (command, err)
        assert out.read_bytes() == b"keep\n"


def test_a_failing_write_is_a_runtime_fault(tmp_path, monkeypatch, capsys):
    """An OSError that is no path error, here raised while write_atomic takes
    the corpus's lines, exits 3 with one error line and leaves no partial file."""
    def interrupted(path, chunks):
        def stream():
            yield next(iter(chunks))
            raise OSError("no space left on device")

        write_atomic(path, stream())

    monkeypatch.setattr(corpus_module, "write_atomic", interrupted)
    out = tmp_path / "data"
    assert main(["synth", "--seed", "3", "--out", str(out)]) == 3
    assert capsys.readouterr().err == "error: OSError: no space left on device\n"
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]


def test_a_corpus_line_that_is_not_utf8_is_an_invalid_corpus(tmp_path, hand_corpus_path,
                                                             hand_dp_path, capsys):
    """validate lists the line in its report; train, predict and analyze
    stop at it as at any invalid corpus line; all exit 1."""
    corpus = tmp_path / "bom.jsonl"
    corpus.write_bytes(b"\xff\xfe" + hand_corpus_path.read_bytes())
    message = (f"{corpus}:1: not UTF-8 text: 'utf-8' codec can't decode byte 0xff "
               "in position 0: invalid start byte")
    assert main(["validate", "--corpus", str(corpus), "--out", str(tmp_path / "v")]) == 1
    report = read_json(tmp_path / "v" / "report.json")
    assert report["violations"] == [message] and report["documents"] == 2
    capsys.readouterr()
    checkpoint = tmp_path / "checkpoint.json"
    save_checkpoint(initialized_model(ModelConfig(dim=3, hidden=2),
                                      build_vocabulary(parse_corpus(hand_corpus_path)),
                                      seed=0), checkpoint)
    for argv in (["train", "--train", str(corpus), "--valid", str(hand_corpus_path),
                  *SMALL_TRAIN],
                 ["predict", "--checkpoint", str(checkpoint), "--corpus", str(corpus)],
                 ["analyze", "--corpus", str(corpus), "--dp-labels", str(hand_dp_path)]):
        assert main([*argv, "--out", str(tmp_path / argv[0])]) == 1, argv[0]
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / argv[0]).exists()


# every path flag each subcommand requires
REQUIRED_PATH_FLAGS = {
    "validate": ("--corpus", "--out"),
    "synth": ("--out",),
    "train": ("--train", "--valid", "--out"),
    "predict": ("--checkpoint", "--corpus", "--out"),
    "evaluate": ("--pred", "--gold", "--out"),
    "analyze": ("--corpus", "--dp-labels", "--out"),
}


def test_required_path_flags_are_all_listed():
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    declared = {command: tuple(a.option_strings[0] for a in p._actions
                               if a.required and a.type is _path)
                for command, p in subparsers.choices.items()}
    assert declared == REQUIRED_PATH_FLAGS


@pytest.mark.parametrize("command, flag", [(c, f) for c, flags in REQUIRED_PATH_FLAGS.items()
                                           for f in flags])
def test_empty_required_path_flag_is_usage_error(command, flag, tmp_path, capsys,
                                                 monkeypatch):
    """An empty value would be read as the working directory; it is refused by name."""
    monkeypatch.chdir(tmp_path)
    argv = [command]
    for name in REQUIRED_PATH_FLAGS[command]:
        argv += [name, "" if name == flag else name[2:]]
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert f"error: argument {flag}: path is empty" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


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


@pytest.mark.parametrize("seed, message", [("-1", "seed -1 is negative"),
                                           ("x", "bad seed 'x'")])
def test_synth_seed_must_be_a_non_negative_integer(tmp_path, capsys, seed, message):
    with pytest.raises(SystemExit) as err:
        main(["synth", "--seed", seed, "--out", str(tmp_path / "data")])
    assert err.value.code == 2
    assert f"error: argument --seed: {message}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_synth_rejects_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n_docs": 0}), encoding="utf-8")
    code = main(["synth", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert code == 2
    bad.write_text(json.dumps({"number_of_docs": 3}), encoding="utf-8")
    code = main(["synth", "--config", str(bad), "--out", str(tmp_path / "o2")])
    assert code == 2
    capsys.readouterr()


# every config field that sizes a run, by command
SYNTH_RANGES = ("sentences_per_doc", "mentions_per_sentence", "noise_tokens_per_sentence")
CEILING_FIELDS = [("synth", name) for name in (
    "n_docs", "noise_vocab_size", "event_vocab_size", "timex_vocab_size", *SYNTH_RANGES)] + [
    ("train", name) for name in ("max_epochs", "batch_size_docs", "dim", "hidden")]


@pytest.mark.parametrize("value", [2**63, 2**70], ids=["2**63", "2**70"])
@pytest.mark.parametrize("command, field", CEILING_FIELDS)
def test_a_config_value_too_large_to_run_is_a_usage_error(command, field, value, tmp_path,
                                                          hand_corpus_path, capsys):
    """A count or size above MAX_COUNT, 2**31 - 1, exits 2 naming its field
    before --out is made; a range is refused on its high bound and on both."""
    config = tmp_path / "config.json"
    out = tmp_path / "out"
    argv = [command, "--config", str(config), "--out", str(out)]
    if command == "train":
        argv += ["--train", str(hand_corpus_path), "--valid", str(hand_corpus_path)]
        given = [{"max_epochs": 2, "warmup_epochs": 1, field: value}]
    elif field in SYNTH_RANGES:
        given = [{field: [1, value]}, {field: [value, value]}]
    else:
        given = [{field: value}]
    for obj in given:
        config.write_text(json.dumps(obj), encoding="utf-8")
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert field in err and "2147483647]" in err, err
    assert not out.exists()


def _with(key: str, tag: str, value) -> dict:
    """SMALL_SYNTH with one content type's entry of a per-type table replaced."""
    return {**SMALL_SYNTH, key: {**SMALL_SYNTH.get(key, {}), tag: value}}


@pytest.mark.parametrize("changes, message", [
    (_with("timex_parent_probs", "D1", [float("nan"), 0.0]),
     "timex_parent_probs: field 'D1' must be a list of finite numbers, not [nan, 0.0]"),
    (_with("event_timex_probs", "M1", [0.5, float("nan")]),
     "event_timex_probs: field 'M1' must be a list of finite numbers, not [0.5, nan]"),
    ({"content_weights": {**dict.fromkeys(("M1", "M2", "C1", "C2", "D1", "D2", "D3",
                                           "D4"), 0.1), "NA": float("nan")}},
     "content_weights: field 'NA' must be a finite number, not nan"),
    ({"n_docs": 2.5}, "field 'n_docs' must be an integer, not 2.5"),
    ({"sentences_per_doc": [1.5, 3]},
     "field 'sentences_per_doc' must be a list of integers, not [1.5, 3]"),
    ({"noise_vocab_size": 20.0}, "field 'noise_vocab_size' must be an integer, not 20.0"),
    ({"timex_share": True}, "field 'timex_share' must be a finite number, not True"),
    ({"sentences_per_doc": [1, 2, 3]},
     "sentences_per_doc must be a [low, high] pair, not [1, 2, 3]"),
    ({"mentions_per_sentence": [2]}, "mentions_per_sentence must be a [low, high] pair, not [2]"),
    (_with("timex_parent_probs", "NA", [0.2, 0.3, 0.1]),
     "timex_parent_probs[NA] must be a pair of probabilities, not [0.2, 0.3, 0.1]"),
], ids=["nan_timex_parent_prob", "nan_event_timex_prob", "nan_content_weight",
        "float_n_docs", "float_sentence_bound", "float_vocab_size", "bool_share",
        "triple_range", "single_range", "triple_probs"])
def test_synth_rejects_wrong_typed_and_non_finite_values(tmp_path, capsys, changes,
                                                          message):
    config = tmp_path / "synth.json"
    config.write_text(json.dumps({**SMALL_SYNTH, **changes}), encoding="utf-8")
    out = tmp_path / "data"
    assert main(["synth", "--config", str(config), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("command", ["synth", "train"])
@pytest.mark.parametrize("text", ["[]", '[["n_docs", 2]]', "5", "[{}]"],
                         ids=["empty_list", "pair_list", "number", "list_of_object"])
def test_config_file_must_hold_an_object(command, text, tmp_path, hand_corpus_path,
                                         capsys):
    config = tmp_path / "config.json"
    config.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    argv = [command, "--config", str(config), "--out", str(out)]
    if command == "train":
        argv += ["--train", str(hand_corpus_path), "--valid", str(hand_corpus_path)]
    assert main(argv) == 2
    assert f"bad config {config}: not a JSON object" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


def test_analyze_flags_label_gaps(hand_corpus_path, tmp_path, capsys):
    labels = tmp_path / "partial.tsv"
    labels.write_text("a\t0\tM1\na\t1\tC2\nb\t0\tD1\nb\t1\tD1\n",
                      encoding="utf-8")  # (c, 0) missing
    code = main(["analyze", "--corpus", str(hand_corpus_path),
                 "--dp-labels", str(labels), "--out", str(tmp_path / "o")])
    assert code == 3
    assert "missing" in capsys.readouterr().err


@pytest.fixture
def split_corpora(tmp_path):
    """Two synth draws, the second's documents renamed valid-0000, ...; the
    labels file is the first draw's."""
    config = tmp_path / "synth.json"
    config.write_text(json.dumps(SMALL_SYNTH), encoding="utf-8")
    for seed, name in ((1, "A"), (2, "B")):
        assert main(["synth", "--config", str(config), "--seed", str(seed),
                     "--out", str(tmp_path / name)]) == 0
    valid = parse_corpus(tmp_path / "B" / "corpus.jsonl")
    for i, doc in enumerate(valid):
        doc.id = f"valid-{i:04d}"
    write_corpus(valid, tmp_path / "B" / "corpus.jsonl")
    return tmp_path / "A" / "corpus.jsonl", tmp_path / "B" / "corpus.jsonl", \
        tmp_path / "A" / "dp_labels.tsv"


def test_train_needs_labels_only_where_its_variant_reads_them(split_corpora, tmp_path,
                                                              capsys):
    """Labels for the training corpus alone serve dp_distill; dp_feature,
    which reads them on validation documents too, stops at the first one
    without a label and leaves only the manifest."""
    train, valid, labels = split_corpora
    argv = ["train", "--train", str(train), "--valid", str(valid),
            "--dp-labels", str(labels), *SMALL_TRAIN]
    assert main([*argv, "--variant", "dp_distill", "--out", str(tmp_path / "distill")]) == 0
    out = tmp_path / "feature"
    assert main([*argv, "--variant", "dp_feature", "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith(
        "error: discourse labels do not cover the document valid-0000: missing (valid-0000, 0)")
    assert {p.name for p in out.iterdir()} == {"manifest.json"}


def test_train_refuses_an_id_that_names_two_documents(split_corpora, tmp_path, capsys):
    """A --valid corpus drawn at another seed keeps the synth-NNNN ids, so
    its synth-0000 is not --train's: every variant exits 2 naming it before
    --out is made. A copy of the training corpus under another name, whose
    shared ids name identical documents, trains."""
    train, renamed, labels = split_corpora
    clashing = renamed.parent / "clashing.jsonl"
    docs = parse_corpus(renamed)
    for i, doc in enumerate(docs):
        doc.id = f"synth-{i:04d}"
    write_corpus(docs, clashing)
    for variant in ("baseline", "dp_distill"):
        out = tmp_path / variant
        assert main(["train", "--variant", variant, "--train", str(train),
                     "--valid", str(clashing), "--dp-labels", str(labels),
                     "--out", str(out), *SMALL_TRAIN]) == 2
        assert capsys.readouterr().err == (
            f"error: document id 'synth-0000' names different documents in --train "
            f"{train} and --valid {clashing}\n")
        assert not out.exists()
    copy = tmp_path / "copy.jsonl"
    copy.write_bytes(train.read_bytes())
    assert main(["train", "--variant", "dp_distill", "--train", str(train),
                 "--valid", str(copy), "--dp-labels", str(labels),
                 "--out", str(tmp_path / "copy"), *SMALL_TRAIN]) == 0


def test_predict_needs_labels_only_under_dp_feature(split_corpora, tmp_path, capsys):
    """A label file that misses documents serves a baseline or dp_distill
    checkpoint, which reads no label, and stops a dp_feature one."""
    corpus, _, labels = split_corpora
    partial = tmp_path / "partial.tsv"
    partial.write_text("".join(line for line in labels.read_text(encoding="utf-8")
                               .splitlines(keepends=True) if line.startswith("synth-0000\t")),
                       encoding="utf-8")
    vocab = build_vocabulary(parse_corpus(corpus))
    for variant in ("baseline", "dp_distill", "dp_feature"):
        checkpoint = tmp_path / f"{variant}.json"
        save_checkpoint(initialized_model(ModelConfig(dim=3, hidden=2, variant=variant),
                                          vocab, seed=0), checkpoint)
        argv = ["predict", "--checkpoint", str(checkpoint), "--corpus", str(corpus)]
        out = tmp_path / variant
        code = main([*argv, "--dp-labels", str(partial), "--out", str(out)])
        if variant == "dp_feature":
            assert code == 3
            assert capsys.readouterr().err.startswith(
                "error: discourse labels do not cover the document synth-0001: missing")
            assert {p.name for p in out.iterdir()} == {"manifest.json"}
        else:
            assert code == 0
            assert main([*argv, "--out", str(tmp_path / f"{variant}-plain")]) == 0
            assert (out / "predictions.jsonl").read_bytes() == \
                (tmp_path / f"{variant}-plain" / "predictions.jsonl").read_bytes()


def test_validate_reports_label_gaps(hand_corpus_path, tmp_path, capsys):
    labels = tmp_path / "partial.tsv"
    labels.write_text("a\t0\tM1\na\t1\tC2\nb\t1\tD1\n", encoding="utf-8")
    out = tmp_path / "o"
    assert main(["validate", "--corpus", str(hand_corpus_path), "--dp-labels", str(labels),
                 "--out", str(out)]) == 1
    gap = "discourse labels do not cover the corpus: missing (b, 0), (c, 0)"
    assert read_json(out / "report.json") == {"documents": 3, "violations": [gap], "ok": False}
    assert capsys.readouterr().err == gap + "\n"


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
                     "--hidden", "6", "--seeds", "0", "--lr", "1e150",
                     "--weight-decay", "0"])
    assert code == 3
    assert (train_out / "manifest.json").exists()
    assert not (train_out / "checkpoint-seed0.json").exists()
    assert not list(train_out.glob("*.tmp"))
    capsys.readouterr()


def test_train_failing_on_a_later_seed_leaves_no_outputs(tmp_path, monkeypatch, capsys):
    """Every seed trains before any output is written, so a run whose second
    seed diverges leaves the first seed's checkpoint and history unwritten."""
    synth_out = tmp_path / "data"
    config = tmp_path / "synth.json"
    config.write_text(json.dumps(SMALL_SYNTH), encoding="utf-8")
    assert main(["synth", "--config", str(config), "--seed", "1",
                 "--out", str(synth_out)]) == 0
    train, seeds = cli.train, []

    def diverging(config, train_corpus, valid_corpus, dp_labels, seed):
        seeds.append(seed)
        if len(seeds) == 2:
            raise TrainingDiverged(f"seed {seed} diverged")
        return train(config, train_corpus, valid_corpus, dp_labels, seed)

    monkeypatch.setattr(cli, "train", diverging)
    train_out = tmp_path / "diverged"
    code = main(["train", "--variant", "baseline",
                 "--train", str(synth_out / "corpus.jsonl"),
                 "--valid", str(synth_out / "corpus.jsonl"),
                 "--out", str(train_out), "--epochs", "1", "--warmup-epochs", "1",
                 "--dim", "4", "--hidden", "6", "--seeds", "0,1,2"])
    assert code == 3
    assert seeds == [0, 1]
    assert capsys.readouterr().err == "error: seed 1 diverged\n"
    assert [path.name for path in train_out.iterdir()] == ["manifest.json"]


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
    ("[1, 2]", "not a JSON object but a list"),
    ('{"id": ["x"], "edges": []}', "field 'id' must be a string, not ['x']"),
    ('{"id": "a"}', "missing required field 'edges'"),
    ('{"id": "a", "edges": [1]}', "field 'edges' must be a list of objects, not [1]"),
    ('{"id": "zz", "edges": []}', "prediction for unknown document 'zz'"),
], ids=["not_an_object", "list_id", "no_edges", "edge_not_an_object", "unknown_document"])
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


def test_evaluate_names_a_prediction_line_that_is_not_utf8(tmp_path, hand_corpus_path,
                                                          capsys):
    preds = tmp_path / "p.jsonl"
    preds.write_bytes(b'\n{"id": "a\xe9", "edges": []}\n')
    code = main(["evaluate", "--gold", str(hand_corpus_path),
                 "--pred", str(preds), "--out", str(tmp_path / "o")])
    assert code == 3
    assert capsys.readouterr().err == (
        f"error: {preds}:2: not UTF-8 text: 'utf-8' codec can't decode byte 0xe9 in "
        "position 9: invalid continuation byte\n")


def test_evaluate_rejects_a_duplicate_prediction(tmp_path, hand_corpus_path, hand_corpus,
                                                  capsys):
    doc = hand_corpus[1]
    line = json.dumps(graph_to_json(gold_graph(doc), doc)) + "\n"
    preds = tmp_path / "p.jsonl"
    preds.write_text(line * 2, encoding="utf-8")
    code = main(["evaluate", "--gold", str(hand_corpus_path),
                 "--pred", str(preds), "--out", str(tmp_path / "o")])
    assert code == 3
    assert f"{preds}:2: duplicate prediction for document {doc.id!r}" in capsys.readouterr().err
    assert not (tmp_path / "o" / "metrics-seed0.json").exists()


# two timexes named by numeric strings: a prediction edge that names one by a
# JSON number must not pass for it
NUMBERED_DOC = {
    "id": "n", "dct": "2021-01-01",
    "sentences": [{"index": 0, "tokens": ["a", "b"]}],
    "mentions": [{"id": "1", "kind": "timex", "sentence": 0, "start": 0, "end": 1},
                 {"id": "2", "kind": "timex", "sentence": 0, "start": 1, "end": 2}],
    "edges": [{"child": "1", "slot": "timex_ref", "parent": "DCT"},
              {"child": "2", "slot": "timex_ref", "parent": "1"}],
}
TAGS = ["M1", "M2", "C1", "C2", "D1", "D2", "D3", "D4", "NA"]


@pytest.mark.parametrize("kind, path, value, message", [
    ("prediction", ("edges", 1, "parent"), 1,
     "document n: slot Slot(child='2', slot='timex_ref'): parent 1 is not a legal candidate"),
    ("prediction", ("edges", 1, "child"), 2,
     "document n: slot Slot(child='2', slot='timex_ref') is unfilled; "
     "slot Slot(child=2, slot='timex_ref') does not belong to document n"),
    ("checkpoint", ("hyperparameters", "dim"), True, "field 'dim' must be an integer, not True"),
    ("checkpoint", ("hyperparameters", "dim"), 2.0, "field 'dim' must be an integer, not 2.0"),
    ("checkpoint", ("hyperparameters", "hidden"), 2.0,
     "field 'hidden' must be an integer, not 2.0"),
    ("checkpoint", ("params", "b1", "data"), ["0.5", "0"],
     "params: b1: field 'data' must be a list of numbers, not ['0.5', '0']"),
    ("checkpoint", ("params", "b1", "data"), [True, False],
     "params: b1: field 'data' must be a list of numbers, not [True, False]"),
    ("checkpoint", ("vocabulary",), ["<unk>", 7], "field 'vocabulary' must be a list of strings"),
    ("checkpoint", ("format_version",), True,
     "field 'format_version' must be an integer, not True"),
    ("synth", ("content_weights",), TAGS,
     "field 'content_weights' must be an object, not ['M1', 'M2', 'C1', 'C2', 'D1', 'D2', ...]"),
    ("synth", ("timex_parent_probs",), TAGS,
     "field 'timex_parent_probs' must be an object, not ['M1', 'M2', 'C1', 'C2', 'D1', "),
    ("synth", ("content_weights",), {**dict.fromkeys(TAGS, 0.1), "M1": 10**400},
     "content_weights: field 'M1' must be a finite number, not 100000"),
    ("synth", ("sentences_per_doc",), 3,
     "field 'sentences_per_doc' must be a list of integers, not 3"),
    ("train", ("seeds",), 3, "field 'seeds' must be a list of integers, not 3"),
    ("train", ("update_order",), ["joint"],
     "field 'update_order' must be a string, not ['joint']"),
    ("checkpoint", ("hyperparameters", "variant"), ["baseline"],
     "field 'variant' must be a string, not ['baseline']"),
], ids=["number_parent", "number_child", "bool_dim", "float_dim", "float_hidden",
        "string_data", "bool_data", "int_token", "bool_format", "list_weights", "list_probs",
        "huge_weight", "int_range", "int_seeds", "list_update_order", "list_variant"])
def test_json_value_of_the_wrong_type_names_its_field(kind, path, value, message, tmp_path,
                                                      hand_corpus_path, capsys):
    """Each input kind reports a wrong-typed value with its field and its exit
    code, before writing its outputs: config files exit 2 with no manifest,
    checkpoints and prediction lines (named by file:line) exit 3."""
    out = tmp_path / "out"
    source = tmp_path / "input.json"
    if kind in ("synth", "train"):
        source.write_text(json.dumps(_set_field(
            SMALL_SYNTH if kind == "synth" else {"max_epochs": 2, "warmup_epochs": 1},
            path, value)), encoding="utf-8")
        argv = [kind, "--config", str(source), "--out", str(out)]
        if kind == "train":
            argv += ["--train", str(hand_corpus_path), "--valid", str(hand_corpus_path)]
        code, outputs = 2, ["manifest.json"]
        message = (f"bad synth config {source}" if kind == "synth" else "bad train config") \
            + f": {message}"
    elif kind == "checkpoint":
        corpus = parse_corpus(hand_corpus_path)
        save_checkpoint(initialized_model(ModelConfig(dim=3, hidden=2),
                                          build_vocabulary(corpus), seed=0), source)
        source.write_text(json.dumps(_set_field(read_json(source), path, value)),
                          encoding="utf-8")
        argv = ["predict", "--checkpoint", str(source), "--corpus", str(hand_corpus_path),
                "--out", str(out)]
        code, outputs = 3, ["predictions.jsonl"]
        message = f"malformed checkpoint {source}: {message}"
    else:
        gold = tmp_path / "gold.jsonl"
        gold.write_text(json.dumps(NUMBERED_DOC) + "\n", encoding="utf-8")
        prediction = {"id": "n", "edges": NUMBERED_DOC["edges"]}
        source.write_text("\n" + json.dumps(_set_field(prediction, path, value)) + "\n",
                          encoding="utf-8")
        argv = ["evaluate", "--gold", str(gold), "--pred", str(source), "--out", str(out)]
        code, outputs = 3, ["metrics-seed0.json"]
        message = f"{source}:2: {message}"
    assert main(argv) == code
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not [name for name in outputs if (out / name).exists()]


def test_predict_dp_feature_without_labels_is_a_usage_error(tmp_path, hand_corpus_path,
                                                            capsys):
    corpus = parse_corpus(hand_corpus_path)
    checkpoint = tmp_path / "checkpoint.json"
    config = ModelConfig(dim=3, hidden=2, variant="dp_feature")
    save_checkpoint(initialized_model(config, build_vocabulary(corpus), seed=0),
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


def test_manifest_digests_each_input_flag_given(tmp_path):
    """A manifest's inputs are the input flags given, with an empty value
    given as none, plus evaluate's ``pred-seed{label}`` names."""
    config = tmp_path / "synth.json"
    config.write_text(json.dumps(SMALL_SYNTH), encoding="utf-8")
    data = tmp_path / "data"
    corpus, labels = data / "corpus.jsonl", data / "dp_labels.tsv"
    run, preds = tmp_path / "run", tmp_path / "preds"
    checkpoint, predictions = run / "checkpoint-seed0.json", preds / "predictions.jsonl"
    runs = [
        (["synth", "--config", ""], {}),
        (["synth", "--config", config, "--seed", "3"], {"config": config}),
        (["validate", "--corpus", corpus, "--dp-labels", ""], {"corpus": corpus}),
        (["validate", "--corpus", corpus, "--dp-labels", labels],
         {"corpus": corpus, "dp_labels": labels}),
        (["train", "--variant", "dp_feature", "--train", corpus, "--valid", corpus,
          "--dp-labels", labels, "--config", "", *SMALL_TRAIN],
         {"train": corpus, "valid": corpus, "dp_labels": labels}),
        (["predict", "--checkpoint", checkpoint, "--corpus", corpus, "--dp-labels", labels],
         {"checkpoint": checkpoint, "corpus": corpus, "dp_labels": labels}),
        (["evaluate", "--gold", corpus, "--pred", predictions, predictions, "--seeds", "4,5"],
         {"gold": corpus, "pred-seed4": predictions, "pred-seed5": predictions}),
        (["analyze", "--corpus", corpus, "--dp-labels", labels],
         {"corpus": corpus, "dp_labels": labels}),
    ]
    outs = {"synth": data, "train": run, "predict": preds}
    for i, (argv, inputs) in enumerate(runs):
        out = outs.get(argv[0], tmp_path / f"out{i}")
        assert main([*map(str, argv), "--out", str(out)]) == 0
        manifest = read_json(out / "manifest.json")
        assert manifest["command"] == argv[0]
        assert manifest["inputs"] == {
            name: {"path": str(path),
                   "sha256": hashlib.sha256(path.read_bytes()).hexdigest()}
            for name, path in inputs.items()}


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


REPO_ROOT = Path(__file__).resolve().parent.parent
# train flags whose TrainConfig field is not the flag's own name
RENAMED_TRAIN_FLAGS = {"--epochs": "max_epochs", "--batch-docs": "batch_size_docs",
                       "--lr": "peak_lr"}
TRAIN_INPUT_FLAGS = {"--config", "--train", "--valid", "--dp-labels", "--out"}


def readme_commands() -> list[list[str]]:
    """The argv of every ``tdgparse`` line in the README's command-line block."""
    text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("tdgparse ")]


def _flag_value(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def test_readme_commands_parse_and_resolve_train_configs(monkeypatch):
    """Each README command parses, and each train command's TrainConfig holds
    its config file's values with its flags applied."""
    monkeypatch.chdir(REPO_ROOT)
    commands = readme_commands()
    assert {argv[0] for argv in commands} == \
        {"synth", "validate", "train", "predict", "evaluate", "analyze"}
    parser = build_parser()
    for argv in commands:
        args = parser.parse_args(argv)
        if args.command != "train":
            continue
        want = read_json(Path(args.config))
        for flag, value in zip(argv[1::2], argv[2::2]):
            if flag not in TRAIN_INPUT_FLAGS:
                want[RENAMED_TRAIN_FLAGS.get(flag, flag[2:].replace("-", "_"))] = \
                    _flag_value(value)
        config = _resolve_train_config(args)
        assert {name: getattr(config, name) for name in want} == \
            {name: tuple(v) if isinstance(v, list) else v for name, v in want.items()}


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


@pytest.mark.parametrize("valid_text", ["", json.dumps({
    "id": "quiet", "dct": "2021-01-01", "sentences": [{"index": 0, "tokens": ["calm"]}],
    "mentions": [], "edges": []}) + "\n"], ids=["empty", "no_mentions"])
def test_train_refuses_a_validation_corpus_without_slots(tmp_path, hand_corpus_path,
                                                        capsys, valid_text):
    valid = tmp_path / "valid.jsonl"
    valid.write_text(valid_text, encoding="utf-8")
    out = tmp_path / "run"
    code = main(["train", "--train", str(hand_corpus_path), "--valid", str(valid),
                 "--out", str(out), *SMALL_TRAIN])
    assert code == 2
    assert f"validation corpus {valid} has no slots to evaluate" in capsys.readouterr().err
    assert not out.exists()


def test_order_flags_reach_the_run(tmp_path):
    config = tmp_path / "synth.json"
    config.write_text(json.dumps(SMALL_SYNTH), encoding="utf-8")
    data = tmp_path / "data"
    assert main(["synth", "--config", str(config), "--seed", "2",
                 "--out", str(data)]) == 0
    corpus, labels = data / "corpus.jsonl", data / "dp_labels.tsv"

    run = tmp_path / "run"
    assert main(["train", "--variant", "dp_distill", "--dp-labels", str(labels),
                 "--train", str(corpus), "--valid", str(corpus), "--out", str(run),
                 "--update-order", "joint", "--decode-order", "document",
                 *SMALL_TRAIN]) == 0
    checkpoint = run / "checkpoint-seed0.json"
    for recorded in (read_json(checkpoint)["train_config"],
                     read_json(run / "manifest.json")["config"]):
        assert (recorded["update_order"], recorded["decode_order"]) == ("joint", "document")

    # an untrained model whose cycle conflicts the two orders resolve apart
    docs = parse_corpus(corpus)
    model = initialized_model(ModelConfig(dim=4, hidden=6), build_vocabulary(docs), seed=1)
    untrained = tmp_path / "untrained.json"
    save_checkpoint(model, untrained)
    preds = tmp_path / "preds"
    assert main(["predict", "--checkpoint", str(untrained), "--corpus", str(corpus),
                 "--decode-order", "document", "--out", str(preds)]) == 0

    def lines(order):
        graphs = decode_corpus(model, docs, order=order)
        return [json.dumps(graph_to_json(graphs[doc.id], doc), ensure_ascii=False)
                for doc in docs]
    assert lines("document") != lines("score")
    assert (preds / "predictions.jsonl").read_text(encoding="utf-8").splitlines() == \
        lines("document")
    assert read_json(preds / "manifest.json")["config"]["decode_order"] == "document"


@pytest.mark.parametrize("flags, config, message", [
    (["--dim", "0"], None, "dim and hidden must be positive"),
    (["--hidden", "-3"], None, "dim and hidden must be positive"),
    ([], {"variant": "bogus"}, "unknown variant 'bogus'"),
    (["--lr", "nan"], None, "field 'peak_lr' must be a finite number, not nan"),
    (["--weight-decay", "nan"], None, "field 'weight_decay' must be a finite number, not nan"),
    ([], {"peak_lr": float("inf")}, "field 'peak_lr' must be a finite number, not inf"),
    ([], {"dim": 2.5}, "field 'dim' must be an integer, not 2.5"),
    ([], {"dim": True}, "field 'dim' must be an integer, not True"),
    ([], {"max_epochs": 1.5}, "field 'max_epochs' must be an integer, not 1.5"),
    ([], {"batch_size_docs": 2.5}, "field 'batch_size_docs' must be an integer, not 2.5"),
    ([], {"seeds": [0.5]}, "field 'seeds' must be a list of integers, not [0.5]"),
    ([], {"seeds": [0, 0]}, "seeds must be one or more distinct integers, not [0, 0]"),
    (["--seeds=-1"], None, "seed -1 is negative"),
    ([], {"seeds": [2, -1]}, "seed -1 is negative"),
    (["--lr", "5", "--weight-decay", "0.5"], None, "peak_lr * weight_decay is 2.5, above 2"),
    ([], {"peak_lr": 2**70}, "peak_lr * weight_decay is 1.18059e+19, above 2"),
    ([], {"weight_decay": 2**70}, "peak_lr * weight_decay is 1.18059e+17, above 2"),
], ids=["dim_zero", "hidden_negative", "config_variant", "lr_nan", "weight_decay_nan",
        "config_lr_inf", "config_float_dim", "config_bool_dim", "config_float_epochs",
        "config_float_batch", "config_float_seed", "config_repeated_seed", "negative_seed",
        "config_negative_seed", "growing_decay", "config_huge_lr", "config_huge_decay"])
def test_train_rejects_bad_model_values(tmp_path, hand_corpus_path, capsys,
                                        flags, config, message):
    corpus = str(hand_corpus_path)
    out = tmp_path / "run"
    path = tmp_path / "train.json"
    path.write_text(json.dumps({"max_epochs": 2, "warmup_epochs": 1, **(config or {})}),
                    encoding="utf-8")
    argv = ["train", "--train", corpus, "--valid", corpus, "--config", str(path),
            "--out", str(out), *flags]
    assert main(argv) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_runtime_value_error_is_a_runtime_fault(tmp_path, hand_corpus_path, capsys,
                                                monkeypatch):
    corpus = parse_corpus(hand_corpus_path)
    checkpoint = tmp_path / "checkpoint.json"
    save_checkpoint(initialized_model(ModelConfig(dim=3, hidden=2),
                                      build_vocabulary(corpus), seed=0),
                    checkpoint)

    def broken_forward(self, layer, batch, lo, hi):
        return np.ones(2) + np.ones(3)

    monkeypatch.setattr(RankingModel, "_block_forward", broken_forward)
    code = main(["predict", "--checkpoint", str(checkpoint),
                 "--corpus", str(hand_corpus_path), "--out", str(tmp_path / "preds")])
    assert code == 3
    assert "could not be broadcast" in capsys.readouterr().err
    assert not (tmp_path / "preds" / "predictions.jsonl").exists()


def test_a_runtime_fault_of_a_foreign_class_names_its_type(tmp_path, hand_corpus_path,
                                                           capsys, monkeypatch):
    """An exception class tdgparse does not define is named on the error line;
    tdgparse's own errors are reported by their message alone."""
    corpus = parse_corpus(hand_corpus_path)
    checkpoint = tmp_path / "checkpoint.json"
    save_checkpoint(initialized_model(ModelConfig(dim=3, hidden=2),
                                      build_vocabulary(corpus), seed=0),
                    checkpoint)
    argv = ["predict", "--checkpoint", str(checkpoint), "--corpus", str(hand_corpus_path)]

    def raising(exc):
        def decode(*args, **kwargs):
            raise exc
        return decode

    monkeypatch.setattr(cli, "decode_corpus", raising(KeyError(("synth-0000", 1))))
    assert main([*argv, "--out", str(tmp_path / "a")]) == 3
    assert capsys.readouterr().err == "error: KeyError: ('synth-0000', 1)\n"
    monkeypatch.setattr(cli, "decode_corpus", raising(TrainingDiverged("scores diverged")))
    assert main([*argv, "--out", str(tmp_path / "b")]) == 3
    assert capsys.readouterr().err == "error: scores diverged\n"


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
