"""tdgparse benchmark: synth -> train -> predict -> evaluate, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload distill_train --seed 7 --seconds 8 --trace 0

``--seed`` is the corpus seed handed to the synthetic generator. The timed
phase trains each of the workload's variants and runs the workload's number
of predict and evaluate passes with it, then goes on with passes over every
model until ``--seconds`` have passed since the phase began. Every timed unit
is rescaled by host-speed probes taken through the run (see hostspeed.py).

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics listed in BENCHMARK.json. With ``--trace 1`` it holds
the per-layer metrics instead, measured by wrapping the package's public
functions in spans (see tracing.py), plus the tracing overhead. The lines
before it name every metric with its unit, the figures that are not bounded
metrics (error rate, the distillation gain) and the environment. A copy of
each result goes to ``.perfbench/results`` and the spans of a traced run to
``.perfbench/traces``. perfbench/README.md defines every metric.

Everything runs in this one process with OpenBLAS pinned to one thread.
"""

import os

# OpenBLAS reads this when numpy loads it, so it must be set before any import
# of numpy. One thread: the host has two cores, and a second BLAS thread made
# long documents slower in wall time while using more CPU.
BLAS_THREADS = "1"
os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS

import argparse
import ctypes
import hashlib
import json
import platform
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path
from time import perf_counter_ns

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from hostspeed import HostClock  # noqa: E402
from tracing import Tracer  # noqa: E402

try:
    import tdgparse
    from tdgparse import analysis, corpus, evaluation, graph, scorer, synth, training
except ImportError as exc:
    sys.exit(f"perfbench: cannot import tdgparse from {ROOT / 'src'}: {exc}")
if not Path(tdgparse.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"perfbench: tdgparse was imported from {tdgparse.__file__}, "
             f"not from this checkout's src/")

SYNTH_CONFIG = ROOT / "configs" / "distill.synth.json"
TRAIN_CONFIG = ROOT / "configs" / "distill.train.json"
STATE_DIR = ROOT / ".perfbench"

TRAIN_SEED = 0  # one training seed per variant: the shipped config's first
UNSEEN_SEED_OFFSET = 1_000_003  # corpus seed of unseen documents = seed + this
SETUP_REPEATS = 3  # set-ups per run at the least; setup_s is their median
SETUP_SECONDS = 2  # and more set-ups until they have taken this long in all


@dataclass(frozen=True)
class Workload:
    """One set of inputs; BENCHMARK.json says why each exists."""

    variants: tuple[str, ...]  # trained in the timed phase, one seed each
    passes: int  # predict+evaluate passes per model, at the least
    checkpoint: str | None = None  # variant trained once, during set-up
    unseen_docs: int = 0  # predict this many unseen documents, not the training corpus


WORKLOADS = {
    # The paper's experiment. Short documents (~19 slots, ~6 candidates per
    # slot): per-slot Python overhead in the ranking loss and the per-epoch
    # validation decode dominate, and cycle checks are cheap.
    "distill_train": Workload(
        variants=("baseline", "dp_feature", "dp_distill"),
        passes=5,  # a pass over 200 documents is short, so take more of them
    ),
    # The read path: forward scoring, index building, decoding and
    # serialization only, one document per request from a single closed-loop
    # client, every index cold. The per-document index cache grows with the
    # corpus and shows in peak_rss_mb.
    "predict_bulk": Workload(
        variants=(),
        passes=3,
        checkpoint="dp_distill",
        unseen_docs=2000,
    ),
}


@dataclass
class Data:
    corpus: list
    labels: dict
    vocab: object
    corpus_slots: int
    predict_corpus: list
    predict_labels: dict
    predict_slots: list  # slots of each document of predict_corpus


@dataclass
class Tally:
    """Samples, checks and failures from the timed phase of one run.

    Times are kept as units of the host clock (train() call, request, loaded
    prediction, scoring pass), each rescaled by the probes taken around it
    when the metrics are computed (see end_to_end).
    """

    clock: HostClock
    train_units: dict = field(default_factory=dict)  # variant -> train() call
    slot_epochs: dict = field(default_factory=dict)  # variant -> slots x epochs
    request_units: dict = field(default_factory=dict)  # (variant, doc index) -> one per pass
    load_units: dict = field(default_factory=dict)  # (variant, doc index) -> one per pass
    score_units: dict = field(default_factory=dict)  # variant -> prf + tables, one per pass
    evaluated_slots: dict = field(default_factory=dict)  # variant -> slots
    correct_slots: dict = field(default_factory=dict)  # variant -> correct slots
    cross_f1: dict = field(default_factory=dict)  # variant -> cross-sentence F1
    digests: dict = field(default_factory=dict)  # variant -> predictions sha256
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def fail(self, what: str) -> None:
        self.failed += 1
        self.problems.append(what)
        if self.failed == 1:
            traceback.print_exc(file=sys.stderr)


def train_config(variant: str) -> "training.TrainConfig":
    raw = json.loads(TRAIN_CONFIG.read_text(encoding="utf-8"))
    raw.update(variant=variant, seeds=(TRAIN_SEED,))
    return training.TrainConfig(**raw)


def make_corpus(config, seed: int, path: Path, clock: HostClock):
    """Generate, write and read back a corpus and its labels, as `tdgparse synth` then `train` do."""
    docs, labels = synth.generate_synthetic_corpus(config, seed)
    clock.maybe_probe()
    corpus.write_corpus(docs, path.with_suffix(".jsonl"))
    corpus.write_dp_labels(labels, docs, path.with_suffix(".tsv"))
    clock.maybe_probe()
    docs = corpus.parse_corpus(path.with_suffix(".jsonl"))
    clock.maybe_probe()
    return docs, corpus.load_dp_labels(path.with_suffix(".tsv"), docs)


def count_slots(docs) -> list:
    return [len(graph.slot_instances(d)) for d in docs]


def set_up(w: Workload, seed: int, work: Path, clock: HostClock) -> Data:
    raw = json.loads(SYNTH_CONFIG.read_text(encoding="utf-8"))
    docs, labels = make_corpus(synth.SynthConfig.from_json(raw), seed, work / "corpus",
                               clock)
    clock.maybe_probe()
    vocab = scorer.build_vocabulary(docs)
    pdocs, plabels = docs, labels
    if w.unseen_docs:
        clock.maybe_probe()
        raw["n_docs"] = w.unseen_docs
        pdocs, plabels = make_corpus(synth.SynthConfig.from_json(raw),
                                     seed + UNSEEN_SEED_OFFSET, work / "unseen", clock)
    return Data(docs, labels, vocab, sum(count_slots(docs)), pdocs, plabels,
                count_slots(pdocs))


def train_variant(variant: str, data: Data, tally: Tally, work: Path):
    """Train one seed, write the checkpoint and load it back, as `train` then `predict` do."""
    config = train_config(variant)
    tally.attempted += 1
    clock = tally.clock
    clock.maybe_probe()
    # probes run between batches and between validation documents; their
    # time is taken out of the call's
    with clock.probing(training, "adamw_step", "greedy_decode"):
        start = clock.start()
        try:
            model, _ = training.train(config, data.corpus, data.corpus, data.labels,
                                      TRAIN_SEED, vocab=data.vocab)
        except training.TrainingDiverged:
            tally.fail(f"{variant}: training diverged")
            return None
        tally.train_units[variant] = clock.stop(start)
    clock.maybe_probe()
    tally.slot_epochs[variant] = data.corpus_slots * config.max_epochs
    path = work / f"checkpoint-{variant}.json"
    scorer.save_checkpoint(model, path, train_config=asdict(config), seed=TRAIN_SEED)
    return scorer.load_checkpoint(path)


def request(model, doc, labels, order: str) -> str:
    """One predict request: score, decode and serialize a single document."""
    scores = model.score_document(doc, labels)
    decoded = graph.greedy_decode(doc, scores, order=order)
    return json.dumps(graph.graph_to_json(decoded, doc), ensure_ascii=False)


def predict(model, variant: str, data: Data, order: str, tally: Tally,
            tracer: Tracer) -> list:
    """One pass over the predict corpus, one document per request, from one client."""
    labels = data.predict_labels if variant == "dp_feature" else None
    # a fresh model shares the parameters but starts with an empty index cache
    model = scorer.RankingModel(model.config, model.vocab, model.params)
    lines = []
    clock = tally.clock
    for i, doc in enumerate(data.predict_corpus):
        tally.attempted += 1
        tracer.enter_group(("doc", id(model), id(doc)))
        clock.maybe_probe()
        start = clock.start()
        try:
            line = tracer.call("bench.request", request, model, doc, labels, order)
        except Exception:  # a request boundary: count the failure and go on
            tally.fail(f"document {doc.id}: prediction raised")
            lines.append(None)
            continue
        tally.request_units.setdefault((variant, i), []).append(clock.stop(start))
        lines.append(line)
    return lines


def evaluate(lines: list, variant: str, data: Data, tally: Tally):
    """Load predictions back through graph_from_json (which validates), then score and tabulate."""
    docs = data.predict_corpus
    graphs = {}
    clock = tally.clock
    for i, (doc, line) in enumerate(zip(docs, lines)):
        if line is None:
            continue
        clock.maybe_probe()
        start = clock.start()
        try:
            graphs[doc.id] = graph.graph_from_json(json.loads(line), doc)
        except (graph.GraphError, KeyError, ValueError):
            tally.fail(f"document {doc.id}: prediction failed validation")
            continue
        tally.load_units.setdefault((variant, i), []).append(clock.stop(start))
    clock.maybe_probe()
    start = clock.start()
    try:
        report = evaluation.partitioned_prf(graphs, docs, variant=variant)
    except evaluation.EvaluationError as exc:
        tally.problems.append(f"{variant}: {exc}")
        return None
    analysis.all_tables(docs, data.predict_labels)
    tally.score_units.setdefault(variant, []).append(clock.stop(start))
    return graphs, report


def check_report(graphs: dict, report, variant: str, data: Data, tally: Tally) -> None:
    """Recount the attachment accuracy from the graphs and compare with the report."""
    total = correct = 0
    for doc in data.predict_corpus:
        gold = {graph.Slot(e.child, e.slot): e.parent for e in doc.gold_edges}
        total += len(gold)
        correct += sum(graphs[doc.id].edges.get(s) == p for s, p in gold.items())
    if total != report.total_slots or correct / total != report.accuracy:
        tally.problems.append(
            f"{variant}: report says {report.accuracy} of {report.total_slots} "
            f"slots, recount says {correct} of {total}")
    tally.evaluated_slots[variant] = total
    tally.correct_slots[variant] = correct
    tally.cross_f1[variant] = report.per_category[evaluation.CROSS_SENTENCE].f1


def predict_and_evaluate(variant: str, model, data: Data, order: str, tally: Tally,
                         tracer: Tracer) -> None:
    lines = tracer.call("bench.predict", predict, model, variant, data, order,
                        tally, tracer)
    digest = hashlib.sha256("".join(f"{l}\n" for l in lines).encode("utf-8")).hexdigest()
    if tally.digests.setdefault(variant, digest) != digest:
        tally.problems.append(f"{variant}: predictions changed between passes")
    result = tracer.call("bench.evaluate", evaluate, lines, variant, data, tally)
    if result is not None and variant not in tally.evaluated_slots:
        check_report(*result, variant, data, tally)


def timed_phase(w: Workload, data: Data, setup_model, tally: Tally, work: Path,
                tracer: Tracer, seconds: int, variants: tuple | None = None):
    """Predict and evaluate in passes with each model as soon as it is trained.

    Each model gets ``w.passes`` passes right after its training (the set-up
    checkpoint's come first), so the passes are spread over the phase rather
    than bunched at its end. Then further passes over every model run until
    ``seconds`` have gone by since the phase began. ``variants`` defaults to
    the workload's. Returns the pass count of the first model and the
    phase's wall time in ns.
    """
    start = perf_counter_ns()
    order = train_config("baseline").decode_order
    models = []

    def run_passes(chosen: list, count: int) -> None:
        for _ in range(count):
            for variant, model in chosen:
                predict_and_evaluate(variant, model, data, order, tally, tracer)

    if setup_model is not None:
        models.append((w.checkpoint, setup_model))
        run_passes(models, w.passes)
    for variant in w.variants if variants is None else variants:
        model = tracer.call("bench.train", train_variant, variant, data, tally, work)
        if model is not None:
            models.append((variant, model))
            run_passes(models[-1:], w.passes)
    done = w.passes
    while perf_counter_ns() - start < seconds * 1e9:
        run_passes(models, 1)
        done += 1
    return done, perf_counter_ns() - start


def train_checkpoint(w: Workload, data: Data, tally: Tally, work: Path):
    if w.checkpoint is None:
        return None
    model = train_variant(w.checkpoint, data, tally, work)
    if model is None:
        sys.exit(f"perfbench: set-up training of {w.checkpoint} failed")
    return model


def openblas() -> dict:
    """OpenBLAS version and the thread count it actually uses, read from the loaded library."""
    info = {"OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (AttributeError, KeyError, TypeError):
        pass
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*.so*"))
    for lib_path in libs:
        try:
            lib = ctypes.CDLL(str(lib_path))
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                getter = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if getter is not None:
                    getter.restype = ctypes.c_int
                    info["threads_in_use"] = getter()
                if config is not None:
                    config.restype = ctypes.c_char_p
                    info["config"] = config().decode()
    return info


def environment(w: Workload, seed: int) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": openblas(),
        "corpus_seed": seed,
        "unseen_corpus_seed": seed + UNSEEN_SEED_OFFSET if w.unseen_docs else None,
        "training_seed": TRAIN_SEED,
        "tdgparse": tdgparse.__version__,
    }


def source_digest() -> str:
    """sha256 of the files that decide a run's outputs: the package, the configs and this benchmark."""
    h = hashlib.sha256()
    files = [p for d in ("src", "configs", "perfbench") for pattern in ("*.py", "*.json")
             for p in (ROOT / d).rglob(pattern)]
    for path in sorted(files):
        h.update(f"{path.relative_to(ROOT).as_posix()}\n".encode("utf-8"))
        h.update(path.read_bytes())
    return h.hexdigest()


def check_repeatable(workload: str, seed: int, source: str, fingerprint: dict,
                     tally: Tally) -> None:
    """Compare the run's outputs with an earlier run of the same sources at the same seed."""
    path = STATE_DIR / "digests.json"
    known = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    key = f"{workload}/seed{seed}/{source}"
    if key in known and known[key] != fingerprint:
        tally.problems.append(
            f"outputs differ from an earlier run at seed {seed}: "
            f"{known[key]} != {fingerprint}")
        return
    known[key] = fingerprint
    tmp = path.with_name(path.name + f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True), encoding="utf-8")
    tmp.replace(path)


def declared_metrics() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {kind: {m["name"]: m["unit"] for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


def end_to_end(tally: Tally, predict_slots: list, peak_rss_kb: int) -> dict:
    """End-to-end metrics except setup_s, from units rescaled to a fixed host speed.

    Training time is the sum of the train() calls. A request's latency is
    the median of its cold repeats, one per pass. Evaluation time is each
    prediction's median load plus each model's median scoring pass.
    """
    norm = tally.clock.normalize

    def median_ns(units: list) -> float:
        return statistics.median(norm(u) for u in units)

    train_ns = sum(norm(u) for u in tally.train_units.values())
    request_ns = {key: median_ns(units) for key, units in tally.request_units.items()}
    lat_ms = [ns / 1e6 for ns in request_ns.values()]
    cuts = statistics.quantiles(lat_ms, n=100, method="inclusive")
    predicted_slots = sum(predict_slots[i] for _, i in request_ns)
    evaluate_ns = (sum(median_ns(units) for units in tally.load_units.values())
                   + sum(median_ns(units) for units in tally.score_units.values()))
    evaluated = sum(tally.evaluated_slots.values())
    return {
        "train_slots_per_s": sum(tally.slot_epochs.values()) / (train_ns / 1e9),
        "predict_slots_per_s": predicted_slots / (sum(request_ns.values()) / 1e9),
        "predict_doc_ms_p50": cuts[49],
        "predict_doc_ms_p99": cuts[98],
        "evaluate_slots_per_s": evaluated / (evaluate_ns / 1e9),
        "peak_rss_mb": peak_rss_kb / 1024,
        "accuracy_pct": 100.0 * sum(tally.correct_slots.values()) / evaluated,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    declared = declared_metrics()
    w = WORKLOADS[args.workload]
    work = STATE_DIR / "work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    # traced runs report raw layer times, and their probes would sit inside spans
    clock = HostClock(enabled=not args.trace)
    tally = Tally(clock)
    tracer = Tracer()
    extra: dict = {}
    try:
        if args.trace:
            tracer.install()
            data = tracer.call("bench.setup", set_up, w, args.seed, work, clock)
            setup_model = tracer.call("bench.setup", train_checkpoint, w, data,
                                      tally, work)
            tracer.uninstall()
            # the overhead compares the same work untraced and traced: the first
            # variant (or the set-up checkpoint) with the workload's passes
            first, rest = w.variants[:1], w.variants[1:]
            if setup_model is not None:
                # warm-up: a first pass in a fresh heap is slower, which made the
                # overhead read about -10% when the untraced passes began with it
                predict_and_evaluate(w.checkpoint, setup_model, data,
                                     train_config("baseline").decode_order, tally, tracer)
            passes, plain_ns = timed_phase(w, data, setup_model, tally, work, tracer,
                                           0, variants=first)
            tracer.install()
            _, traced_ns = timed_phase(w, data, setup_model, tally, work, tracer,
                                       0, variants=first)
            if rest:
                timed_phase(w, data, None, tally, work, tracer, 0, variants=rest)
            tracer.uninstall()
            values = tracer.layer_metrics()
            values["trace.overhead_pct"] = 100.0 * (traced_ns - plain_ns) / plain_ns
            extra.update(passes=passes, untraced_s=plain_ns / 1e9,
                         traced_s=traced_ns / 1e9, spans=len(tracer.spans))
            tracer.write(STATE_DIR / "traces" / f"{args.workload}-seed{args.seed}.jsonl")
            kind = "per_layer"
        else:
            setups = []

            def timed_set_up() -> Data:
                clock.maybe_probe()
                start = clock.start()
                data = set_up(w, args.seed, work, clock)
                setups.append(clock.stop(start))
                return data

            data = timed_set_up()
            start = clock.start()
            setup_model = train_checkpoint(w, data, tally, work)
            checkpoint = clock.stop(start)
            passes, _ = timed_phase(w, data, setup_model, tally, work, tracer, args.seconds)
            # peak memory is the workload's own; the set-ups repeated for
            # setup_s come after it, each dropped before the next
            peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            predict_slots = data.predict_slots
            data = setup_model = None
            while (len(setups) < SETUP_REPEATS
                   or sum(u[2] for u in setups) < SETUP_SECONDS * 1e9):
                timed_set_up()
            clock.probe()
            values = end_to_end(tally, predict_slots, peak_rss_kb)
            setup_ns = statistics.median(clock.normalize(u) for u in setups)
            if w.checkpoint is not None:
                setup_ns += clock.normalize(checkpoint)
            values["setup_s"] = setup_ns / 1e9
            extra.update(passes=passes, latency_samples=len(tally.request_units),
                         probes=len(clock.durations),
                         probe_ms_median=statistics.median(clock.durations) / 1e6)
            kind = "end_to_end"
    finally:
        shutil.rmtree(work, ignore_errors=True)

    extra["error_rate"] = tally.failed / tally.attempted
    if {"baseline", "dp_distill"} <= set(tally.cross_f1):
        extra["cross_f1_gain_pts"] = 100.0 * (tally.cross_f1["dp_distill"]
                                              - tally.cross_f1["baseline"])
    fingerprint = {"predictions": tally.digests, "correct_slots": tally.correct_slots,
                   "cross_f1": tally.cross_f1}
    source = source_digest()
    check_repeatable(args.workload, args.seed, source, fingerprint, tally)
    extra["source_sha256"] = source
    extra["outputs_sha256"] = hashlib.sha256(
        json.dumps(fingerprint, sort_keys=True).encode("utf-8")).hexdigest()
    env = environment(w, args.seed)

    units = declared[kind]
    if set(values) != set(units):
        sys.exit(f"perfbench: measured {sorted(values)} but BENCHMARK.json "
                 f"declares {sorted(units)}")
    for name, value in values.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    for name, value in extra.items():
        print(f"{args.workload} {name} = {value}")
    for problem in tally.problems:
        print(f"{args.workload} PROBLEM {problem}")
    print("environment " + json.dumps(env, sort_keys=True))
    result = {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }
    record = STATE_DIR / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.parent.mkdir(parents=True, exist_ok=True)
    record.write_text(json.dumps({**result, "extra": extra, "environment": env,
                                  "problems": tally.problems}, indent=1),
                      encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
