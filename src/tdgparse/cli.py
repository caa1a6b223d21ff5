"""Command-line front end for reproducible corpus/model runs.

Every subcommand writes into ``--out``: first a ``manifest.json`` recording
the resolved configuration, the digest of every input file flag given, seeds,
and planned outputs, then the outputs themselves, each through
``corpus.write_atomic``. Re-running a command with the same inputs and seeds
reproduces every artifact byte for byte but the manifest's ``timestamp``.

Exit codes, one error line each: 0 success; 1 a ``CorpusError``, an invalid
corpus; 2 a ``UsageError`` or one of ``PATH_ERRORS``: bad flags, a missing or
unreadable input, an ``--out`` that is a file, a bad config file or value, a
seed-label count that does not match the prediction files, a ``train`` run
without the discourse labels its variant needs, with an empty training
corpus, with a validation corpus that has no slot or with a document id that
names different documents in the two corpora, or a ``predict`` run of
a ``dp_feature`` checkpoint without ``--dp-labels``; 3 any other exception,
a runtime fault, whose line names the type of an exception class that
tdgparse does not define (``error: KeyError: ...``). One rule types every
JSON input: a value of the wrong JSON type is reported with its file (and
line, where there is one) and its field, and exits 1 in a corpus, 2 in a
config, 3 in a checkpoint (whose dimensions, tensors and vocabulary are
typed) or a prediction (whose edges must name the document's string ids).
A line of a corpus, label or prediction file that is not UTF-8 is a bad
line of that file.

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
from dataclasses import asdict, fields
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .analysis import all_tables, render_csv, render_text, summary_checks
from .corpus import (
    CorpusError,
    DpLabelError,
    FieldError,
    decode_line,
    json_field,
    load_dp_labels,
    parse_corpus,
    parse_object,
    read_corpus,
    require_dp_coverage,
    write_atomic,
    write_corpus,
    write_dp_labels,
)
from .evaluation import (
    EvaluationError,
    aggregate_to_json,
    corpus_identity,
    partitioned_prf,
    report_to_json,
)
from .graph import DECODE_ORDERS, GraphError, graph_from_json, graph_to_json
from .scorer import VARIANTS, load_checkpoint, save_checkpoint
from .synth import SynthConfig, generate_synthetic_corpus
from .training import UPDATE_PLANS, TrainConfig, decode_corpus, train


class UsageError(Exception):
    """The command line or a config file asks for something that cannot run."""


@contextmanager
def _usage_errors(what: str):
    """Report a ValueError or TypeError raised inside as a UsageError about ``what``."""
    try:
        yield
    except (TypeError, ValueError) as exc:
        raise UsageError(f"{what}: {exc}") from None


def _write_json(path: Path, obj) -> None:
    write_atomic(path, [json.dumps(obj, indent=2, sort_keys=True) + "\n"])


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# the argparse dests of every flag that names an input file
INPUT_FLAGS = ("checkpoint", "config", "corpus", "dp_labels", "gold", "train", "valid")


def _path(text: str) -> Path:
    """A required path flag's value; an empty one, which Path reads as ``.``, is refused."""
    if not text:
        raise argparse.ArgumentTypeError("path is empty")
    return Path(text)


def _optional_path(text: str) -> Path | None:
    """An optional path flag's value; an empty one, as in ``--config ""``, is not given."""
    return Path(text) if text else None


def _write_manifest(args, config: dict, seeds: list[int], outputs: list[str],
                    more_inputs: dict[str, Path] | None = None) -> None:
    """Write ``args.out/manifest.json``, digesting each input flag given."""
    inputs = {name: p for name, p in vars(args).items() if name in INPUT_FLAGS and p}
    inputs.update(more_inputs or {})
    manifest = {
        "command": args.command,
        "version": __version__,
        "config": config,
        "inputs": {name: {"path": str(p), "sha256": _digest(p)}
                   for name, p in inputs.items()},
        "seeds": seeds,
        "outputs": sorted(outputs),
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    args.out.mkdir(parents=True, exist_ok=True)
    _write_json(args.out / "manifest.json", manifest)


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


def _seed(text: str) -> int:
    """A --seed value: a non-negative integer, as numpy's generators take."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad seed {text!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed {seed} is negative; it must be non-negative")
    return seed


def _read_config(path: Path | None) -> dict:
    """The JSON object a --config file holds, or {} when no file is given."""
    if path is None:
        return {}
    with _usage_errors(f"bad config {path}"):
        return parse_object(path.read_text(encoding="utf-8"))


def cmd_validate(args) -> int:
    _write_manifest(args, {}, [], ["report.json"])

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
            require_dp_coverage(load_dp_labels(args.dp_labels, docs), docs)
        except DpLabelError as exc:
            violations.append(str(exc))
    report = {"documents": len(docs), "violations": violations,
              "ok": not violations}
    _write_json(args.out / "report.json", report)
    for v in violations:
        print(v, file=sys.stderr)
    return 0 if not violations else 1


def cmd_synth(args) -> int:
    with _usage_errors(f"bad synth config {args.config}"):
        config = SynthConfig(**_read_config(args.config))
    _write_manifest(args, asdict(config), [args.seed], ["corpus.jsonl", "dp_labels.tsv"])
    corpus, labels = generate_synthetic_corpus(config, args.seed)
    write_corpus(corpus, args.out / "corpus.jsonl")
    write_dp_labels(labels, corpus, args.out / "dp_labels.tsv")
    return 0


def _resolve_train_config(args) -> TrainConfig:
    """Merge CLI flags over config-file values over dataclass defaults.

    A flag sets the TrainConfig field its argparse ``dest`` names.
    """
    kwargs = _read_config(args.config)
    names = {f.name for f in fields(TrainConfig)}
    kwargs.update((k, v) for k, v in vars(args).items() if k in names and v is not None)
    with _usage_errors("bad train config"):
        return TrainConfig(**kwargs)


def cmd_train(args) -> int:
    config = _resolve_train_config(args)
    if config.variant in ("dp_feature", "dp_distill") and not args.dp_labels:
        raise UsageError(f"variant {config.variant} requires --dp-labels")
    train_corpus = parse_corpus(args.train)
    if not train_corpus:
        raise UsageError(f"training corpus {args.train} is empty")
    # one parse when both flags name one file, so each document is indexed once
    same_file = args.valid.exists() and args.train.samefile(args.valid)
    valid_corpus = train_corpus if same_file else parse_corpus(args.valid)
    # labels are looked up by document id over both corpora, so an id may
    # name one document only
    train_docs = {doc.id: doc for doc in train_corpus}
    clash = next((doc.id for doc in valid_corpus
                  if train_docs.get(doc.id, doc) != doc), None)
    if clash is not None:
        raise UsageError(f"document id {clash!r} names different documents in --train "
                         f"{args.train} and --valid {args.valid}")
    if not any(doc.mentions for doc in valid_corpus):
        raise UsageError(f"validation corpus {args.valid} has no slots to evaluate")
    dp_labels = (load_dp_labels(args.dp_labels, train_corpus + valid_corpus)
                 if args.dp_labels else None)

    outputs = [f"checkpoint-seed{s}.json" for s in config.seeds]
    outputs += [f"history-seed{s}.json" for s in config.seeds]
    _write_manifest(args, asdict(config), list(config.seeds), outputs)

    # every seed trains before any is written, so a failing seed leaves no outputs
    results = [(seed, *train(config, train_corpus, valid_corpus, dp_labels, seed))
               for seed in config.seeds]
    for seed, model, history in results:
        save_checkpoint(model, args.out / f"checkpoint-seed{seed}.json",
                        train_config=asdict(config), seed=seed)
        _write_json(args.out / f"history-seed{seed}.json", asdict(history))
    return 0


def cmd_predict(args) -> int:
    model = load_checkpoint(args.checkpoint)
    if model.config.variant == "dp_feature" and not args.dp_labels:
        raise UsageError(f"variant {model.config.variant} requires --dp-labels")
    corpus = parse_corpus(args.corpus)
    dp_labels = load_dp_labels(args.dp_labels, corpus) if args.dp_labels else None
    config = {"decode_order": args.decode_order, "variant": model.config.variant}
    _write_manifest(args, config, [], ["predictions.jsonl"])

    graphs = decode_corpus(model, corpus, dp_labels, order=args.decode_order)
    write_atomic(args.out / "predictions.jsonl",
                 (json.dumps(graph_to_json(graphs[doc.id], doc), ensure_ascii=False) + "\n"
                  for doc in corpus))
    return 0


def _load_predictions(path: Path, corpus) -> dict:
    docs = {doc.id: doc for doc in corpus}
    graphs = {}
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = decode_line(raw)
                if not line.strip():
                    continue
                obj = parse_object(line)
                doc = docs.get(json_field(obj, "id", str))
                if doc is None:
                    raise EvaluationError(f"prediction for unknown document {obj['id']!r}")
                if doc.id in graphs:
                    raise EvaluationError(f"duplicate prediction for document {doc.id!r}")
                graphs[doc.id] = graph_from_json(obj, doc)
            except (FieldError, EvaluationError, GraphError) as exc:
                raise EvaluationError(f"{path}:{lineno}: {exc}") from None
    return graphs


def cmd_evaluate(args) -> int:
    corpus = parse_corpus(args.gold)
    labels = args.seeds if args.seeds is not None else list(range(len(args.pred)))
    if len(labels) != len(args.pred):
        raise UsageError(
            f"{len(args.pred)} prediction files but {len(labels)} seed labels"
        )
    outputs = [f"metrics-seed{label}.json" for label in labels]
    if args.aggregate:
        outputs.append("metrics-aggregate.json")
    config = {"aggregate": bool(args.aggregate), "variant": args.variant,
              "corpus_identity": corpus_identity(corpus)}
    _write_manifest(args, config, labels, outputs,
                    {f"pred-seed{label}": pred for label, pred in zip(labels, args.pred)})

    reports = []
    for label, pred in zip(labels, args.pred):
        graphs = _load_predictions(pred, corpus)
        report = partitioned_prf(graphs, corpus, seed=label, variant=args.variant)
        reports.append(report)
        _write_json(args.out / f"metrics-seed{label}.json", report_to_json(report))
    if args.aggregate:
        _write_json(args.out / "metrics-aggregate.json", aggregate_to_json(reports))
    return 0


def cmd_analyze(args) -> int:
    corpus = parse_corpus(args.corpus)
    dp = load_dp_labels(args.dp_labels, corpus)
    tables = all_tables(corpus, dp)
    outputs = [f"{t.name}.csv" for t in tables] + [f"{t.name}.txt" for t in tables]
    outputs.append("summary.json")
    _write_manifest(args, {}, [], outputs)

    for table in tables:
        write_atomic(args.out / f"{table.name}.csv", [render_csv(table)])
        write_atomic(args.out / f"{table.name}.txt", [render_text(table)])
    summary = {
        "corpus_identity": corpus_identity(corpus),
        "n_documents": len(corpus),
        "checks": summary_checks(tables[0]),
    }
    _write_json(args.out / "summary.json", summary)
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
    p.add_argument("--corpus", type=_path, required=True)
    p.add_argument("--dp-labels", type=_optional_path)
    p.add_argument("--out", type=_path, required=True)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("synth", help="generate a synthetic corpus and labels")
    p.add_argument("--config", type=_optional_path,
                   help="SynthConfig JSON; defaults when omitted")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", type=_path, required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train one variant over a list of seeds")
    p.add_argument("--variant", choices=VARIANTS)
    p.add_argument("--train", type=_path, required=True)
    p.add_argument("--valid", type=_path, required=True)
    p.add_argument("--dp-labels", type=_optional_path)
    p.add_argument("--seeds", type=_parse_seeds)
    p.add_argument("--epochs", type=int, dest="max_epochs")
    p.add_argument("--batch-docs", type=int, dest="batch_size_docs")
    p.add_argument("--lr", type=float, dest="peak_lr")
    p.add_argument("--warmup-epochs", type=int)
    p.add_argument("--weight-decay", type=float)
    p.add_argument("--update-order", choices=UPDATE_PLANS)
    p.add_argument("--decode-order", choices=DECODE_ORDERS)
    p.add_argument("--dim", type=int)
    p.add_argument("--hidden", type=int)
    p.add_argument("--config", type=_optional_path,
                   help="TrainConfig JSON; flags override it")
    p.add_argument("--out", type=_path, required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="decode a corpus with a checkpoint")
    p.add_argument("--checkpoint", type=_path, required=True)
    p.add_argument("--corpus", type=_path, required=True)
    p.add_argument("--dp-labels", type=_optional_path)
    p.add_argument("--decode-order", choices=DECODE_ORDERS, default="score")
    p.add_argument("--out", type=_path, required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="score predictions against gold")
    p.add_argument("--pred", type=_path, nargs="+", required=True,
                   help="prediction JSONL file(s), one per seed")
    p.add_argument("--gold", type=_path, required=True)
    p.add_argument("--seeds", type=_parse_seeds,
                   help="seed labels matching --pred order")
    p.add_argument("--variant", help="echoed into the metrics files")
    p.add_argument("--aggregate", action="store_true",
                   help="also write mean/std across the prediction files")
    p.add_argument("--out", type=_path, required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("analyze", help="distribution tables by content type")
    p.add_argument("--corpus", type=_path, required=True)
    p.add_argument("--dp-labels", type=_path, required=True)
    p.add_argument("--out", type=_path, required=True)
    p.set_defaults(func=cmd_analyze)

    return parser


# the OSErrors of a path flag that names a file which cannot be used as asked
PATH_ERRORS = (FileExistsError, FileNotFoundError, IsADirectoryError, NotADirectoryError,
               PermissionError)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        if isinstance(exc, CorpusError):
            code = 1
        else:
            code = 2 if isinstance(exc, (UsageError, *PATH_ERRORS)) else 3
        # a runtime fault of a class tdgparse does not define names its type
        foreign = code == 3 and not type(exc).__module__.startswith(f"{__package__}.")
        print(f"error: {type(exc).__name__ + ': ' if foreign else ''}{exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
