"""Command-line front end for reproducible corpus/model runs.

Every subcommand writes into ``--out``: first a ``manifest.json`` recording
the resolved configuration, input digests, seeds, and planned outputs, then
the outputs themselves (written atomically). Re-running a command with the
same inputs and seeds reproduces every artifact byte for byte; only the
manifest's ``timestamp`` field differs.

Exit codes: 0 success; 1 an invalid corpus; 2 a usage error, meaning bad
flags, a missing file, a bad config file or value, a seed-label count that
does not match the prediction files, a ``train`` run without the discourse
labels its variant needs or with an empty training corpus, or a ``predict``
run of a ``dp_feature`` checkpoint without ``--dp-labels``; 3 a runtime
fault, which is every other failure (a malformed prediction line and any
other ``ValueError`` included).

OpenBLAS runs on one thread unless ``OPENBLAS_NUM_THREADS`` is already set.
"""

from __future__ import annotations

import os

# OpenBLAS reads this when numpy loads, so it is set before the imports below.
# The ranking passes' matrix products are big enough for OpenBLAS to start a
# thread per core, which made them about 3x slower on a busy 2-core host.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
import hashlib
import json
import sys
from contextlib import contextmanager
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .analysis import all_tables, render_csv, render_text, summary_checks
from .corpus import (
    CorpusError,
    DpLabelError,
    load_dp_labels,
    parse_corpus,
    read_corpus,
    write_corpus,
    write_dp_labels,
)
from .evaluation import (
    EvaluationError,
    aggregate_seeds,
    aggregate_to_json,
    corpus_identity,
    partitioned_prf,
    report_to_json,
)
from .graph import GraphError, graph_from_json, graph_to_json
from .scorer import ScorerError, load_checkpoint, save_checkpoint
from .synth import SynthConfig, generate_synthetic_corpus
from .training import TrainConfig, TrainingDiverged, decode_corpus, train


class UsageError(Exception):
    """The command line or a config file asks for something that cannot run."""


@contextmanager
def _usage_errors(what: str):
    """Report a ValueError or TypeError raised inside as a UsageError about ``what``."""
    try:
        yield
    except (TypeError, ValueError) as exc:
        raise UsageError(f"{what}: {exc}") from None


def _write_atomic(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def _write_json(path: Path, obj) -> None:
    _write_atomic(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_manifest(out_dir: Path, command: str, config: dict,
                    inputs: dict[str, Path], seeds: list[int],
                    outputs: list[str]) -> None:
    manifest = {
        "command": command,
        "version": __version__,
        "config": config,
        "inputs": {name: {"path": str(p), "sha256": _digest(p)}
                   for name, p in inputs.items()},
        "seeds": seeds,
        "outputs": sorted(outputs),
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(out_dir / "manifest.json", manifest)


def _parse_seeds(text: str) -> list[int]:
    try:
        seeds = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad seed list {text!r}") from None
    if not seeds:
        raise argparse.ArgumentTypeError("seed list is empty")
    if len(set(seeds)) != len(seeds):
        raise argparse.ArgumentTypeError(f"seed list {text!r} repeats a seed")
    return seeds


def cmd_validate(args) -> int:
    out_dir = Path(args.out)
    inputs = {"corpus": Path(args.corpus)}
    if args.dp_labels:
        inputs["dp_labels"] = Path(args.dp_labels)
    _write_manifest(out_dir, "validate", {}, inputs, [], ["report.json"])

    violations: list[str] = []
    docs = []
    for where, doc, found in read_corpus(args.corpus):
        if doc is None:
            violations.extend(found)
            continue
        violations.extend(f"{where}: {v}" for v in found)
        docs.append(doc)
    if args.dp_labels and not violations:
        try:
            load_dp_labels(args.dp_labels, docs)
        except DpLabelError as exc:
            violations.append(str(exc))
    report = {"documents": len(docs), "violations": violations,
              "ok": not violations}
    _write_json(out_dir / "report.json", report)
    for v in violations:
        print(v, file=sys.stderr)
    return 0 if not violations else 1


def cmd_synth(args) -> int:
    if args.config:
        with open(args.config, encoding="utf-8") as fh, \
                _usage_errors(f"bad synth config {args.config}"):
            config = SynthConfig.from_json(json.load(fh))
    else:
        config = SynthConfig()
    out_dir = Path(args.out)
    inputs = {"config": Path(args.config)} if args.config else {}
    outputs = ["corpus.jsonl", "dp_labels.tsv"]
    _write_manifest(out_dir, "synth", asdict(config), inputs, [args.seed],
                    outputs)
    corpus, labels = generate_synthetic_corpus(config, args.seed)
    write_corpus(corpus, out_dir / "corpus.jsonl.tmp")
    os.replace(out_dir / "corpus.jsonl.tmp", out_dir / "corpus.jsonl")
    write_dp_labels(labels, corpus, out_dir / "dp_labels.tsv.tmp")
    os.replace(out_dir / "dp_labels.tsv.tmp", out_dir / "dp_labels.tsv")
    return 0


_TRAIN_FLAG_FIELDS = {
    "variant": "variant",
    "epochs": "max_epochs",
    "batch_docs": "batch_size_docs",
    "lr": "peak_lr",
    "warmup_epochs": "warmup_epochs",
    "weight_decay": "weight_decay",
    "seeds": "seeds",
    "update_order": "update_order",
    "decode_order": "decode_order",
    "dim": "dim",
    "hidden": "hidden",
}


def _resolve_train_config(args) -> TrainConfig:
    """Merge CLI flags over config-file values over dataclass defaults."""
    from_file: dict = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh, \
                _usage_errors(f"bad train config {args.config}"):
            from_file = json.load(fh)
        unknown = set(from_file) - set(_TRAIN_FLAG_FIELDS.values())
        if unknown:
            raise UsageError(f"unknown train config keys {sorted(unknown)}")
    kwargs = dict(from_file)
    for flag, field_name in _TRAIN_FLAG_FIELDS.items():
        value = getattr(args, flag)
        if value is not None:
            kwargs[field_name] = value
    with _usage_errors("bad train config"):
        if "seeds" in kwargs:
            kwargs["seeds"] = tuple(kwargs["seeds"])
        return TrainConfig(**kwargs)


def cmd_train(args) -> int:
    config = _resolve_train_config(args)
    if config.variant in ("dp_feature", "dp_distill") and not args.dp_labels:
        raise UsageError(f"variant {config.variant} requires --dp-labels")
    train_corpus = parse_corpus(args.train)
    if not train_corpus:
        raise UsageError(f"training corpus {args.train} is empty")
    valid_corpus = parse_corpus(args.valid)
    dp_labels = None
    if args.dp_labels:
        dp_labels = load_dp_labels(args.dp_labels, train_corpus + valid_corpus)

    out_dir = Path(args.out)
    inputs = {"train": Path(args.train), "valid": Path(args.valid)}
    if args.dp_labels:
        inputs["dp_labels"] = Path(args.dp_labels)
    if args.config:
        inputs["config"] = Path(args.config)
    outputs = [f"checkpoint-seed{s}.json" for s in config.seeds]
    outputs += [f"history-seed{s}.json" for s in config.seeds]
    _write_manifest(out_dir, "train", asdict(config), inputs, list(config.seeds),
                    outputs)

    for seed in config.seeds:
        model, history = train(config, train_corpus, valid_corpus, dp_labels,
                               seed)
        save_checkpoint(model, out_dir / f"checkpoint-seed{seed}.json.tmp",
                        train_config=asdict(config), seed=seed)
        os.replace(out_dir / f"checkpoint-seed{seed}.json.tmp",
                   out_dir / f"checkpoint-seed{seed}.json")
        _write_json(out_dir / f"history-seed{seed}.json", history.as_json())
    return 0


def cmd_predict(args) -> int:
    model = load_checkpoint(args.checkpoint)
    if model.config.variant == "dp_feature" and not args.dp_labels:
        raise UsageError(f"variant {model.config.variant} requires --dp-labels")
    corpus = parse_corpus(args.corpus)
    dp_labels = load_dp_labels(args.dp_labels, corpus) if args.dp_labels else None
    out_dir = Path(args.out)
    inputs = {"checkpoint": Path(args.checkpoint), "corpus": Path(args.corpus)}
    if args.dp_labels:
        inputs["dp_labels"] = Path(args.dp_labels)
    config = {"decode_order": args.decode_order, "variant": model.config.variant}
    _write_manifest(out_dir, "predict", config, inputs, [], ["predictions.jsonl"])

    graphs = decode_corpus(model, corpus, dp_labels, order=args.decode_order)
    lines = [json.dumps(graph_to_json(graphs[doc.id], doc), ensure_ascii=False)
             for doc in corpus]
    _write_atomic(out_dir / "predictions.jsonl", "".join(l + "\n" for l in lines))
    return 0


def _load_predictions(path: str, corpus) -> dict:
    docs = {doc.id: doc for doc in corpus}
    graphs = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            where = f"{path}:{lineno}"
            try:
                obj = json.loads(line)
                doc = docs.get(obj.get("id"))
            except json.JSONDecodeError as exc:
                raise EvaluationError(f"{where}: malformed JSON: {exc}") from None
            except (AttributeError, TypeError):
                raise EvaluationError(
                    f"{where}: a prediction must be a JSON object with a string id"
                ) from None
            if doc is None:
                raise EvaluationError(
                    f"{where}: prediction for unknown document {obj.get('id')!r}"
                )
            if doc.id in graphs:
                raise EvaluationError(f"{where}: duplicate prediction "
                                      f"for document {doc.id!r}")
            try:
                graphs[doc.id] = graph_from_json(obj, doc)
            except GraphError as exc:
                raise GraphError(f"{where}: {exc}") from None
    return graphs


def cmd_evaluate(args) -> int:
    corpus = parse_corpus(args.gold)
    labels = args.seeds if args.seeds is not None else list(range(len(args.pred)))
    if len(labels) != len(args.pred):
        raise UsageError(
            f"{len(args.pred)} prediction files but {len(labels)} seed labels"
        )
    out_dir = Path(args.out)
    inputs = {"gold": Path(args.gold)}
    for label, pred in zip(labels, args.pred):
        inputs[f"pred-seed{label}"] = Path(pred)
    outputs = [f"metrics-seed{label}.json" for label in labels]
    if args.aggregate:
        outputs.append("metrics-aggregate.json")
    config = {"aggregate": bool(args.aggregate), "variant": args.variant,
              "corpus_identity": corpus_identity(corpus)}
    _write_manifest(out_dir, "evaluate", config, inputs, labels, outputs)

    reports = []
    for label, pred in zip(labels, args.pred):
        graphs = _load_predictions(pred, corpus)
        report = partitioned_prf(graphs, corpus, seed=label, variant=args.variant)
        reports.append(report)
        _write_json(out_dir / f"metrics-seed{label}.json", report_to_json(report))
    if args.aggregate:
        _write_json(out_dir / "metrics-aggregate.json",
                    aggregate_to_json(aggregate_seeds(reports)))
    return 0


def cmd_analyze(args) -> int:
    corpus = parse_corpus(args.corpus)
    dp = load_dp_labels(args.dp_labels, corpus)
    out_dir = Path(args.out)
    tables = all_tables(corpus, dp)
    outputs = [f"{t.name}.csv" for t in tables] + [f"{t.name}.txt" for t in tables]
    outputs.append("summary.json")
    inputs = {"corpus": Path(args.corpus), "dp_labels": Path(args.dp_labels)}
    _write_manifest(out_dir, "analyze", {}, inputs, [], outputs)

    for table in tables:
        _write_atomic(out_dir / f"{table.name}.csv", render_csv(table))
        _write_atomic(out_dir / f"{table.name}.txt", render_text(table))
    summary = {
        "corpus_identity": corpus_identity(corpus),
        "n_documents": len(corpus),
        "checks": summary_checks(tables[0]),
    }
    _write_json(out_dir / "summary.json", summary)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tdgparse",
        description="Temporal dependency graph toolkit: synthesize, train, "
                    "decode, evaluate, analyze.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a corpus against every invariant")
    p.add_argument("--corpus", required=True)
    p.add_argument("--dp-labels")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("synth", help="generate a synthetic corpus and labels")
    p.add_argument("--config", help="SynthConfig JSON; defaults when omitted")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train one variant over a list of seeds")
    p.add_argument("--variant", choices=["baseline", "dp_feature", "dp_distill"])
    p.add_argument("--train", required=True)
    p.add_argument("--valid", required=True)
    p.add_argument("--dp-labels")
    p.add_argument("--seeds", type=_parse_seeds)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-docs", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--warmup-epochs", type=int)
    p.add_argument("--weight-decay", type=float)
    p.add_argument("--update-order",
                   choices=["dp_then_rank", "rank_then_dp", "joint"])
    p.add_argument("--decode-order", choices=["score", "document"])
    p.add_argument("--dim", type=int)
    p.add_argument("--hidden", type=int)
    p.add_argument("--config", help="TrainConfig JSON; flags override it")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="decode a corpus with a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--dp-labels")
    p.add_argument("--decode-order", choices=["score", "document"],
                   default="score")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="score predictions against gold")
    p.add_argument("--pred", nargs="+", required=True,
                   help="prediction JSONL file(s), one per seed")
    p.add_argument("--gold", required=True)
    p.add_argument("--seeds", type=_parse_seeds,
                   help="seed labels matching --pred order")
    p.add_argument("--variant", help="echoed into the metrics files")
    p.add_argument("--aggregate", action="store_true",
                   help="also write mean/std across the prediction files")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("analyze", help="distribution tables by content type")
    p.add_argument("--corpus", required=True)
    p.add_argument("--dp-labels", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_analyze)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CorpusError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (UsageError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, DpLabelError, GraphError, ScorerError, TrainingDiverged,
            EvaluationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
