"""In-memory spans around calls into the tdgparse modules.

The benchmark never edits the package: ``Tracer.install`` replaces public
functions on the module objects where callers look them up (for example
``training.decode_corpus``, which ``training.train`` calls through its module
globals) and ``Tracer.uninstall`` puts the originals back.

Two kinds of wrapper exist:

- a *span* records name, start, end, parent span and group for every call
  and is kept in memory until ``write`` dumps it at the end of the run;
- a *leaf timer* is used for the two calls made per slot or per candidate
  check (``would_create_cycle``, ``candidate_set``). It adds its time and
  call count to per-name totals and to the enclosing span's child time, but
  stores no record, so a run with hundreds of thousands of checks keeps a
  small trace.

A span's self time is its duration minus the duration of its child spans and
leaf timers. Spans of one document request or one training batch share a
group id: the wrappers open a new group when the batch list or the
(model, document) pair changes.
"""

from __future__ import annotations

import json
import weakref
from collections import defaultdict
from pathlib import Path
from time import perf_counter_ns


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, int, int, str, int, int]] = []
        # name -> [calls, inclusive ns, self ns]
        self.totals: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []  # [span id, child ns]
        self._next_id = 0
        self._group = 0
        self._group_key: object = None
        # model -> ids of the documents it has indexed (its cache is per model)
        self._indexed: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._patched: list[tuple[object, str, object]] = []
        self.enabled = False

    # ---------------------------------------------------------------- spans

    def enter_group(self, key: object) -> None:
        if key != self._group_key:
            self._group_key = key
            self._group += 1

    def _close(self, name: str, span_id: int, parent: int, group: int,
               start: int, child_ns: int) -> None:
        end = perf_counter_ns()
        dur = end - start
        self.spans.append((span_id, parent, group, name, start, end))
        tot = self.totals[name]
        tot[0] += 1
        tot[1] += dur
        tot[2] += dur - child_ns
        if self._stack:
            self._stack[-1][1] += dur

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name`` (a no-op when disabled)."""
        if not self.enabled:
            return fn(*args, **kwargs)
        self._next_id += 1
        span_id = self._next_id
        parent = self._stack[-1][0] if self._stack else 0
        frame = [span_id, 0]
        self._stack.append(frame)
        group = self._group
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            self._close(name, span_id, parent, group, start, frame[1])

    def _leaf(self, name: str, fn):
        totals, stack = self.totals[name], self._stack

        def leaf(*args, **kwargs):
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter_ns() - start
                totals[0] += 1
                totals[1] += dur
                totals[2] += dur
                if stack:
                    stack[-1][1] += dur
        return leaf

    def _span(self, name: str | None, fn, before=None, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            span_name = before(*args) if before is not None else name
            result = tracer.call(span_name, fn, *args, **kwargs)
            if after is not None:
                after(result, *args)
            return result
        return wrapper

    # ------------------------------------------------------------- patching

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap the package's public functions where their callers look them up."""
        from tdgparse import analysis, corpus, evaluation, graph, scorer, synth, training

        counts = self.counts
        slot_instances = graph.slot_instances

        def note_batch(model, docs) -> None:
            self.enter_group(("batch", id(docs)))
            self._indexed.setdefault(model, set()).update(id(d) for d in docs)

        def ranking_before(model, docs, *rest):
            note_batch(model, docs)
            counts["scorer.ranking_slots"] += sum(len(slot_instances(d)) for d in docs)
            return "scorer.ranking_loss_and_grads"

        def dp_before(model, docs, *rest):
            note_batch(model, docs)
            return "scorer.dp_loss_and_grads"

        def score_before(model, doc, *rest):
            self.enter_group(("doc", id(model), id(doc)))
            indexed = self._indexed.setdefault(model, set())
            if id(doc) in indexed:
                return "scorer.score_warm"
            indexed.add(id(doc))
            return "scorer.score_cold"

        def score_after(result, *args):
            counts["scorer.candidates_scored"] += sum(
                len(sc.candidates) for sc in result.values())

        def decode_after(result, doc, scores, *rest):
            counts["graph.slots_decoded"] += len(result.edges)
            counts["graph.cycle_overrides"] += sum(
                scores[slot].ranked()[0][0] != parent
                for slot, parent in result.edges.items())

        RM = scorer.RankingModel
        self._patch(RM, "ranking_loss_and_grads",
                    self._span(None, RM.ranking_loss_and_grads, before=ranking_before))
        self._patch(RM, "dp_loss_and_grads",
                    self._span(None, RM.dp_loss_and_grads, before=dp_before))
        self._patch(RM, "score_document",
                    self._span(None, RM.score_document, before=score_before,
                               after=score_after))

        decode = self._span("graph.greedy_decode", graph.greedy_decode, after=decode_after)
        self._patch(graph, "greedy_decode", decode)
        self._patch(training, "greedy_decode", decode)
        for owner, attr, name in (
            (training, "adamw_step", "training.adamw_step"),
            (training, "train", "training.train"),
            (training, "decode_corpus", "training.decode_corpus"),
            (graph, "validate_graph", "graph.validate_graph"),
            (graph, "graph_to_json", "graph.graph_to_json"),
            (graph, "graph_from_json", "graph.graph_from_json"),
            (evaluation, "partitioned_prf", "evaluation.partitioned_prf"),
            (evaluation, "attachment_accuracy", "evaluation.attachment_accuracy"),
            (analysis, "all_tables", "analysis.all_tables"),
            (synth, "generate_synthetic_corpus", "synth.generate"),
            (corpus, "write_corpus", "corpus.write"),
            (corpus, "write_dp_labels", "corpus.write"),
            (corpus, "parse_corpus", "corpus.parse"),
            (corpus, "load_dp_labels", "corpus.load_dp_labels"),
            (scorer, "build_vocabulary", "scorer.build_vocabulary"),
            (scorer, "save_checkpoint", "scorer.save_checkpoint"),
            (scorer, "load_checkpoint", "scorer.load_checkpoint"),
        ):
            self._patch(owner, attr, self._span(name, getattr(owner, attr)))
        self._patch(graph, "would_create_cycle",
                    self._leaf("graph.would_create_cycle", graph.would_create_cycle))
        candidate_set = self._leaf("graph.candidate_set", graph.candidate_set)
        self._patch(graph, "candidate_set", candidate_set)
        self._patch(scorer, "candidate_set", candidate_set)
        self.enabled = True

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        self.enabled = False

    # --------------------------------------------------------------- output

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer figures: seconds per public function, counts and ratios."""
        t = self.totals

        def secs(*names: str, index: int = 1) -> float:
            return sum(t[n][index] for n in names) / 1e9

        def calls(*names: str) -> int:
            return sum(t[n][0] for n in names)

        c = self.counts
        score = ("scorer.score_cold", "scorer.score_warm")
        slots = c["graph.slots_decoded"]
        return {
            "scorer.ranking_loss_and_grads_s": secs("scorer.ranking_loss_and_grads"),
            "scorer.ranking_slots": c["scorer.ranking_slots"],
            "scorer.dp_loss_and_grads_s": secs("scorer.dp_loss_and_grads"),
            "training.adamw_step_s": secs("training.adamw_step"),
            "training.adamw_step_calls": calls("training.adamw_step"),
            "training.train_self_s": secs("training.train", index=2),
            "scorer.score_document_s": secs(*score),
            "scorer.score_document_calls": calls(*score),
            "scorer.candidates_scored": c["scorer.candidates_scored"],
            "scorer.score_cold_s": secs("scorer.score_cold"),
            "scorer.score_warm_s": secs("scorer.score_warm"),
            "training.decode_corpus_s": secs("training.decode_corpus"),
            "graph.greedy_decode_s": secs("graph.greedy_decode"),
            "graph.slots_decoded": slots,
            "graph.would_create_cycle_calls": calls("graph.would_create_cycle"),
            "graph.would_create_cycle_s": secs("graph.would_create_cycle"),
            "graph.candidate_set_calls": calls("graph.candidate_set"),
            "graph.cycle_checks_per_slot":
                calls("graph.would_create_cycle") / slots if slots else 0.0,
            "graph.cycle_override_ratio":
                c["graph.cycle_overrides"] / slots if slots else 0.0,
            "graph.validate_graph_s": secs("graph.validate_graph"),
            "graph.graph_to_json_s": secs("graph.graph_to_json"),
            "evaluation.partitioned_prf_s": secs("evaluation.partitioned_prf"),
            "evaluation.attachment_accuracy_s": secs("evaluation.attachment_accuracy"),
            "analysis.all_tables_s": secs("analysis.all_tables"),
            "synth.generate_s": secs("synth.generate"),
            "corpus.write_s": secs("corpus.write"),
            "corpus.parse_s": secs("corpus.parse"),
            "corpus.load_dp_labels_s": secs("corpus.load_dp_labels"),
            "scorer.build_vocabulary_s": secs("scorer.build_vocabulary"),
            "scorer.save_checkpoint_s": secs("scorer.save_checkpoint"),
            "scorer.load_checkpoint_s": secs("scorer.load_checkpoint"),
        }

    def write(self, path: Path) -> None:
        """One JSON array per line: span id, parent id, group id, name, start ns, end ns."""
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(path.name + ".tmp")
        with tmp.open("w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
        tmp.replace(path)
