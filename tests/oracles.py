"""Independent reference implementations used as test oracles.

Everything here is deliberately written with different mechanics than the
package: the decoder re-scans all unassigned slots every step and checks
acyclicity with a Floyd-Warshall transitive closure; the metrics counter
tallies flat slot tuples; the scorer reference runs the ranking MLP slot by
slot and pushes gradients down one candidate and one token at a time; the
AdamW reference steps one parameter at a time with fresh arrays, and the
training reference takes each batch's losses from documents alone and
validates by decoding one document at a time. The index reference keeps
the earlier one-pass indexer, gold positions and nested np.where distance
buckets included. The graph validator keeps the earlier package code: a
colour-table depth-first search from every node, an explicit candidate
list per slot and a walk over every mention for unfilled slots; the
document validator keeps the earlier per-kind branches and per-mention edge
counts; the analysis tables run one loop per table. A document's slots are
listed mention by mention with each kind's slots spelled out. The gold
table's reference keeps the earlier package's gold-parent map.
The JSON type check names each value's type and compares names; the
prediction and corpus-line readers ask types by those names, build their
graph or document themselves and hand it to the reference validators, and
the config, checkpoint and label-row checks ask them field by field. Plain
Python only, except numpy in the scorer, index, AdamW and training
references and the gradient check.
"""

from __future__ import annotations

import math
import random
from numbers import Real

import numpy as np

from tdgparse.corpus import (
    CONTENT_TYPE_INDEX,
    CONTENT_TYPES,
    EDGE_LABELS,
    ContentType,
    Document,
    GoldEdge,
    Mention,
    Sentence,
)
from tdgparse.evaluation import EvaluationError, attachment_accuracy
from tdgparse.graph import (
    GraphError,
    Slot,
    SlotScores,
    TemporalDependencyGraph,
    candidate_layout,
    candidate_set,
    greedy_decode,
    slot_instances,
    validate_graph,
)
from tdgparse.scorer import (
    CAND_MARK_INDEX,
    CHILD_MARK_INDEX,
    MARKER_BASE_INDEX,
    N_META,
    N_SCALAR_FEATURES,
    RESERVED_TOKENS,
    UNK_INDEX,
    RankingModel,
    Vocabulary,
    _blocks,
    _concat,
    _content_types,
    _FlatIndex,
    _index_document,
    _joined,
    build_vocabulary,
    init_params,
    lay_out,
)
from tdgparse.training import (
    ADAM_BETAS,
    ADAM_EPS,
    UPDATE_PLANS,
    EpochRecord,
    TrainHistory,
    TrainingDiverged,
    lr_at,
)

META = ("DCT", "ROOT", "NO_EVENT")


def _closure_has_cycle(ids: list[str], edges: list[tuple[str, str]]) -> bool:
    index = {m: i for i, m in enumerate(ids)}
    n = len(ids)
    reach = [[False] * n for _ in range(n)]
    for child, parent in edges:
        reach[index[child]][index[parent]] = True
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                row_i, row_k = reach[i], reach[k]
                for j in range(n):
                    if row_k[j]:
                        row_i[j] = True
    return any(reach[i][i] for i in range(n))


def reference_decode(doc: Document, scores: dict, order: str = "score") -> dict:
    """Greedy cycle-free decoding, restated from scratch.

    Returns {(child_id, slot_name): parent}. Each step picks the unassigned
    slot with the highest top-candidate score (canonical slot order on ties),
    then assigns the best-scored candidate whose addition keeps the full edge
    set acyclic under a transitive-closure check.
    """
    ordered_mentions = sorted(doc.mentions,
                              key=lambda m: (m.sentence, m.start, m.end, m.id))
    slot_order: list[tuple[str, str]] = []
    for m in ordered_mentions:
        slot_order.append((m.id, "timex_ref"))
        if m.kind == "event":
            slot_order.append((m.id, "event_ref"))
    canon = {s: i for i, s in enumerate(slot_order)}
    ids = [m.id for m in doc.mentions]

    def top_score(key: tuple[str, str]) -> float:
        return max(scores[Slot(*key)].scores)

    unassigned = list(slot_order)
    chosen_edges: list[tuple[str, str]] = []
    result: dict[tuple[str, str], str] = {}
    while unassigned:
        if order == "score":
            key = min(unassigned, key=lambda s: (-top_score(s), canon[s]))
        else:
            key = min(unassigned, key=lambda s: canon[s])
        unassigned.remove(key)
        sc = scores[Slot(*key)]
        feasible = []
        for pos, (cand, value) in enumerate(zip(sc.candidates, sc.scores)):
            if cand in META or not _closure_has_cycle(
                    ids, chosen_edges + [(key[0], cand)]):
                feasible.append((value, -pos, cand))
        value, _negpos, cand = max(feasible)
        result[key] = cand
        if cand not in META:
            chosen_edges.append((key[0], cand))
    return result


def gold_parents(doc: Document) -> dict[tuple[str, str], str]:
    """Each slot's gold parent, keyed by (child, slot) as a plain tuple.

    A slot with several gold edges takes its first, the one validate_document
    keeps: the reference for the parents of ``Document.gold``, which the
    scorer trains toward and evaluation scores against.
    """
    return {(e.child, e.slot): e.parent for e in reversed(doc.gold_edges)}


def reference_gold_table(doc: Document) -> list[tuple[str | None, str]]:
    """Per slot in slot_instances order, its gold_parents parent (None
    without one) and that parent's category: the evaluation category name,
    or "not_a_mention" for a parent that is no meta node and no mention, None
    included. A repeated mention id names its last mention, whose sentence
    is compared with that of the slot's own mention."""
    gold = gold_parents(doc)
    sentence_of = {m.id: m.sentence for m in doc.mentions}
    rows = []
    for m in sorted(doc.mentions, key=lambda m: (m.sentence, m.start, m.end, m.id)):
        for slot in {"timex": ["timex_ref"], "event": ["timex_ref", "event_ref"]}[m.kind]:
            parent = gold.get((m.id, slot))
            if parent in META:
                category = "no_parent"
            elif parent not in sentence_of:
                category = "not_a_mention"
            elif sentence_of[parent] == m.sentence:
                category = "intra_sentence"
            else:
                category = "cross_sentence"
            rows.append((parent, category))
    return rows


def brute_force_metrics(preds: dict, corpus: list[Document]) -> dict:
    """Accuracy and partitioned P/R/F1 by flat tuple counting."""
    rows: list[tuple[str, str, bool]] = []  # (gold category, pred category, hit)
    for doc in corpus:
        sentence_of = {m.id: m.sentence for m in doc.mentions}

        def category(child: str, parent: str) -> str:
            if parent in META:
                return "no_parent"
            if sentence_of[parent] == sentence_of[child]:
                return "intra_sentence"
            return "cross_sentence"

        graph = preds[doc.id]
        for edge in doc.gold_edges:
            predicted = graph.edges[Slot(edge.child, edge.slot)]
            rows.append((category(edge.child, edge.parent),
                         category(edge.child, predicted),
                         predicted == edge.parent))
    total = len(rows)
    out = {
        "accuracy": sum(1 for _, _, hit in rows if hit) / total,
        "total_slots": total,
        "per_category": {},
    }
    for cat in ("intra_sentence", "cross_sentence", "no_parent"):
        gold_n = sum(1 for g, _, _ in rows if g == cat)
        pred_n = sum(1 for _, p, _ in rows if p == cat)
        correct = sum(1 for g, _, hit in rows if g == cat and hit)
        p = correct / pred_n if pred_n else 0.0
        r = correct / gold_n if gold_n else 0.0
        f1 = 2 * p * r / (p + r) if p + r else 0.0
        out["per_category"][cat] = {"gold": gold_n, "predicted": pred_n,
                                    "correct": correct, "p": p, "r": r, "f1": f1}
    return out


def random_document(rng: random.Random, max_mentions: int = 10,
                    doc_id: str = "fuzz") -> Document:
    """A random valid document with an acyclic random gold graph."""
    n_sents = rng.randint(1, 3)
    n_mentions = rng.randint(1, max_mentions)
    placements = sorted(rng.randint(0, n_sents - 1) for _ in range(n_mentions))
    per_sent: dict[int, int] = {}
    mentions = []
    n_t = n_e = 0
    for s in placements:
        pos = per_sent.get(s, 0)
        per_sent[s] = pos + 1
        if rng.random() < 0.45:
            n_t += 1
            mid, kind = f"t{n_t}", "timex"
        else:
            n_e += 1
            mid, kind = f"e{n_e}", "event"
        mentions.append(Mention(id=mid, kind=kind, sentence=s, start=pos,
                                end=pos + 1))
    sentences = [Sentence(index=s, tokens=tuple(
        f"w{s}-{i}" for i in range(max(per_sent.get(s, 0), 1))))
        for s in range(n_sents)]

    # random acyclic gold: parents always precede children in a hidden order
    shuffled = mentions[:]
    rng.shuffle(shuffled)
    rank = {m.id: i for i, m in enumerate(shuffled)}
    timexes = [m for m in mentions if m.kind == "timex"]
    events = [m for m in mentions if m.kind == "event"]
    edges = []
    for m in timexes:
        earlier = [t.id for t in timexes if rank[t.id] < rank[m.id]]
        parent = rng.choice(["DCT", "ROOT"] + earlier)
        edges.append(GoldEdge(child=m.id, slot="timex_ref", parent=parent))
    for m in events:
        parent = rng.choice(["DCT"] + [t.id for t in timexes])
        edges.append(GoldEdge(child=m.id, slot="timex_ref", parent=parent))
        earlier = [e.id for e in events if rank[e.id] < rank[m.id]]
        parent = rng.choice(["NO_EVENT"] + earlier)
        edges.append(GoldEdge(child=m.id, slot="event_ref", parent=parent))
    return Document(id=doc_id, dct="2021-06-15", sentences=sentences,
                    mentions=mentions, gold_edges=edges)


def scores_over(doc: Document, values) -> SlotScores:
    """A SlotScores over candidate_layout(doc).

    ``values(slot, candidates)`` gives the scores of one slot's candidates;
    it is called once per slot, in slot order.
    """
    layout = candidate_layout(doc)
    score: list[float] = []
    for i, slot in enumerate(layout.slots):
        score += values(slot, [layout.names[c] for c in layout.cand[layout.span(i)].tolist()])
    return SlotScores(layout, np.array(score, dtype=np.float64))


def score_documents(model, docs, dp_labels=None):
    """One SlotScores per document, in order, scored in lay_out's runs."""
    fresh = (_index_document(doc, model.vocab, model._feature_labels(dp_labels)) for doc in docs)
    for indexes, batch in lay_out(fresh):
        values = model.run_scores(batch)
        lo = 0
        for idx in indexes:
            yield SlotScores(idx.layout, values[lo:lo + len(idx.cand)])
            lo += len(idx.cand)


def random_scores(rng: random.Random, doc: Document) -> SlotScores:
    """Random finite scores for every slot; sometimes coarsened to force ties."""
    coarse = rng.random() < 0.3

    def values(slot: Slot, cands: list[str]) -> list[float]:
        drawn = [rng.uniform(-5, 5) for _ in cands]
        return [round(v) * 1.0 for v in drawn] if coarse else drawn

    return scores_over(doc, values)


def gold_graph(doc: Document) -> TemporalDependencyGraph:
    """The gold assignment as a graph; GraphError unless it validates."""
    graph = TemporalDependencyGraph(
        doc.id, {Slot(e.child, e.slot): e.parent for e in doc.gold_edges})
    violations = validate_graph(graph, doc)
    if violations:
        raise GraphError(f"document {doc.id}: gold edges invalid: {violations[0]}")
    return graph


def slot_category(doc: Document, child: str, parent: str) -> str:
    """The evaluation category of the slot child -> parent; EvaluationError
    for a parent that is neither a meta node nor a mention of doc."""
    if parent in META:
        return "no_parent"
    sentence_of = {m.id: m.sentence for m in doc.mentions}
    if parent not in sentence_of:
        raise EvaluationError(f"document {doc.id}: unknown parent {parent!r}")
    return "intra_sentence" if sentence_of[parent] == sentence_of[child] else "cross_sentence"


def random_pred_graph(rng: random.Random, doc: Document) -> TemporalDependencyGraph:
    """A random legal (total, acyclic) prediction for one document."""
    ids = [m.id for m in doc.mentions]
    slots = slot_instances(doc)
    rng.shuffle(slots)
    edges: dict[Slot, str] = {}
    chosen: list[tuple[str, str]] = []
    for slot in slots:
        options = candidate_set(doc, slot)[:]
        rng.shuffle(options)
        for cand in options:
            if cand in META or not _closure_has_cycle(
                    ids, chosen + [(slot.child, cand)]):
                edges[slot] = cand
                if cand not in META:
                    chosen.append((slot.child, cand))
                break
    return TemporalDependencyGraph(doc_id=doc.id, edges=edges)


# ------------------------------------------------------------ decode arrays


def reference_slot_of(starts: list[int], n_cand: int) -> list[int]:
    """Each candidate's slot: the last slot whose first candidate is at or before it."""
    return [max(i for i, start in enumerate(starts) if start <= k) for k in range(n_cand)]


def reference_first_maxima(score: list[float], starts: list[int]) -> list[int]:
    """Each slot's first maximum, by a scan that moves only to a strictly higher score."""
    out = []
    for lo, hi in zip(starts, starts[1:] + [len(score)]):
        best = lo
        for k in range(lo + 1, hi):
            if score[k] > score[best]:
                best = k
        out.append(best)
    return out


# ------------------------------------------------------------ JSON types


def _json_type_name(value) -> str:
    """The JSON type of a decoded value, asked in an order where True is not
    taken for an int; a float that is NaN or infinite, and an integer that
    no float can hold, have names of their own."""
    if value is True or value is False:
        return "boolean"
    if value is None:
        return "null"
    if isinstance(value, int):
        try:
            float(value)
        except OverflowError:
            return "huge integer"
        return "integer"
    for python_type, name in ((str, "string"), (list, "list"), (dict, "object")):
        if isinstance(value, python_type):
            return name
    return "float" if math.isfinite(value) else "non-finite"


# the _json_type_name names each kind of field admits
_ADMITTED = {str: {"string"}, int: {"integer", "huge integer"}, float: {"integer", "float"},
             Real: {"integer", "huge integer", "float", "non-finite"}, list: {"list"},
             dict: {"object"}}
JSON_KINDS = tuple(_ADMITTED)


def reference_is_json(value, kind: type, item: type | None = None) -> bool:
    """corpus.is_json by type names: the value's name is one kind admits, and
    so is every element's when item is given."""
    if _json_type_name(value) not in _ADMITTED[kind]:
        return False
    return item is None or all(_json_type_name(v) in _ADMITTED[item] for v in value)


_SCALARS = (lambda rng: rng.choice([True, False]), lambda rng: rng.choice([-3, 0, 2, -10**400, 10**400]),
            lambda rng: rng.choice([0.5, -2.0, 3.0, math.nan, math.inf, -math.inf]),
            lambda rng: rng.choice(["", "a", "1", "true"]), lambda rng: None)


def random_json_value(rng: random.Random, depth: int = 2):
    """A random decoded JSON value: a scalar of any type, or (above depth 0) a
    list or an object of such values, whose elements often share one type."""
    pick = rng.randrange(len(_SCALARS) + (2 if depth else 0))
    if pick < len(_SCALARS):
        return _SCALARS[pick](rng)
    shared = rng.choice(_SCALARS) if rng.random() < 0.7 else None
    values = [shared(rng) if shared else random_json_value(rng, depth - 1)
              for _ in range(rng.randint(0, 3))]
    return values if pick == len(_SCALARS) else {f"k{i}": v for i, v in enumerate(values)}


# ------------------------------------------------------------ graph checks


def reference_find_cycle(node_ids: list[str],
                         edges: list[tuple[str, str]]) -> list[str] | None:
    """One directed cycle over node_ids, by a colour-table DFS from every node."""
    known = set(node_ids)
    out_edges: dict[str, list[str]] = {}
    for child, parent in edges:
        if child in known and parent in known:
            out_edges.setdefault(child, []).append(parent)
    WHITE, GREY, BLACK = 0, 1, 2
    color = {n: WHITE for n in node_ids}
    for start in node_ids:
        if color[start] != WHITE:
            continue
        path = [start]
        stack = [(start, 0)]
        color[start] = GREY
        while stack:
            node, i = stack[-1]
            succs = out_edges.get(node, [])
            if i < len(succs):
                stack[-1] = (node, i + 1)
                nxt = succs[i]
                if color[nxt] == GREY:
                    return path[path.index(nxt):] + [nxt]
                if color[nxt] == WHITE:
                    color[nxt] = GREY
                    path.append(nxt)
                    stack.append((nxt, 0))
            else:
                color[node] = BLACK
                path.pop()
                stack.pop()
    return None


def reference_slots(doc: Document) -> list[tuple[Slot, Mention]]:
    """Each slot of doc and the mention that owns it, one mention at a time
    in document order, each kind's slots spelled out: a timex fills a
    reference-timex slot, an event that and then a reference-event slot, a
    repeated id each time and a mention of another kind none."""
    pairs = []
    for m in sorted(doc.mentions, key=lambda m: (m.sentence, m.start, m.end, m.id)):
        if m.kind in ("timex", "event"):
            pairs.append((Slot(m.id, "timex_ref"), m))
        if m.kind == "event":
            pairs.append((Slot(m.id, "event_ref"), m))
    return pairs


def reference_candidates(doc: Document) -> dict[Slot, list[str]]:
    """Every slot's legal parents, listed one slot at a time."""
    ordered = sorted(doc.mentions, key=lambda m: (m.sentence, m.start, m.end, m.id))
    timexes = [m.id for m in ordered if m.kind == "timex"]
    events = [m.id for m in ordered if m.kind == "event"]
    sets: dict[Slot, list[str]] = {}
    for m in ordered:
        if m.kind == "timex":
            sets[Slot(m.id, "timex_ref")] = ["DCT", "ROOT"] + [t for t in timexes if t != m.id]
        else:
            sets[Slot(m.id, "timex_ref")] = ["DCT"] + timexes
            sets[Slot(m.id, "event_ref")] = ["NO_EVENT"] + [e for e in events if e != m.id]
    return sets


def reference_validate_graph(graph: TemporalDependencyGraph, doc: Document) -> list[str]:
    """validate_graph's violations, from explicit candidate lists.

    On a document with repeated mention ids or unknown kinds, as a test may
    build one, the slots to fill are every mention's own, repeats included,
    and an edge is judged by the kind of the last mention of its child's
    and parent's ids; a kind other than timex and event owns no slot."""
    kind_of = {m.id: m.kind for m in doc.mentions}
    own = {"timex": ["timex_ref"], "event": ["timex_ref", "event_ref"]}
    ordered = sorted(doc.mentions, key=lambda m: (m.sentence, m.start, m.end, m.id))
    timexes = [i for i, kind in kind_of.items() if kind == "timex"]
    events = [i for i, kind in kind_of.items() if kind == "event"]
    sets: dict[Slot, list[str]] = {}
    for child, kind in kind_of.items():
        if kind == "timex":
            sets[Slot(child, "timex_ref")] = ["DCT", "ROOT"] + [t for t in timexes if t != child]
        elif kind == "event":
            sets[Slot(child, "timex_ref")] = ["DCT"] + timexes
            sets[Slot(child, "event_ref")] = ["NO_EVENT"] + [e for e in events if e != child]
    violations = [f"slot {Slot(m.id, slot)} is unfilled" for m in ordered
                  for slot in own.get(m.kind, []) if Slot(m.id, slot) not in graph.edges]
    for slot, parent in graph.edges.items():
        legal = sets.get(slot)
        if legal is None:
            violations.append(f"slot {slot} does not belong to document {doc.id}")
        elif parent not in legal:
            violations.append(f"slot {slot}: parent {parent} is not a legal candidate")
    cycle = reference_find_cycle([m.id for m in doc.mentions],
                                 [(slot.child, parent) for slot, parent in graph.edges.items()])
    if cycle is not None:
        violations.append("edges form a cycle: " + " -> ".join(cycle))
    return violations


def reference_validate_document(doc: Document) -> list[str]:
    """validate_document's verdict, from per-kind branches and per-mention edge counts."""
    violations: list[str] = []

    indexes = [s.index for s in doc.sentences]
    if indexes != list(range(len(doc.sentences))):
        violations.append(
            f"document {doc.id}: sentence indexes {indexes} are not contiguous from 0"
        )
    for sent in doc.sentences:
        if not sent.tokens:
            violations.append(f"document {doc.id}: sentence {sent.index} has no tokens")

    sent_len = {s.index: len(s.tokens) for s in doc.sentences}
    seen_ids: set[str] = set()
    for m in doc.mentions:
        if m.id in seen_ids:
            violations.append(f"mention {m.id}: duplicate id")
            continue
        seen_ids.add(m.id)
        if m.id in META:
            violations.append(f"mention {m.id}: id is reserved for a meta node")
        if m.kind not in ("event", "timex"):
            violations.append(f"mention {m.id}: unknown kind {m.kind!r}")
        if m.sentence not in sent_len:  # sentences are looked up by index, not position
            violations.append(f"mention {m.id}: sentence {m.sentence} does not exist")
        elif not (0 <= m.start < m.end <= sent_len[m.sentence]):
            violations.append(
                f"mention {m.id}: span [{m.start}, {m.end}) outside sentence "
                f"{m.sentence} of length {sent_len[m.sentence]}"
            )

    by_id = {m.id: m for m in doc.mentions}
    timex_ref_count: dict[str, int] = {m.id: 0 for m in doc.mentions}
    event_ref_count: dict[str, int] = {m.id: 0 for m in doc.mentions}
    for edge in doc.gold_edges:
        tag = f"edge ({edge.child}, {edge.slot}, {edge.parent})"
        child = by_id.get(edge.child)
        if child is None:
            violations.append(f"{tag}: unknown child mention")
            continue
        if edge.slot not in ("timex_ref", "event_ref"):
            violations.append(f"{tag}: unknown slot")
            continue
        if edge.label is not None and edge.label not in EDGE_LABELS:
            violations.append(f"{tag}: unknown label {edge.label!r}")
        if edge.parent == edge.child:
            violations.append(f"{tag}: child and parent coincide")
            continue
        if edge.slot == "timex_ref":
            timex_ref_count[edge.child] += 1
            if edge.parent in META:
                if edge.parent == "NO_EVENT":
                    violations.append(f"{tag}: NO_EVENT is not a timex reference")
                elif edge.parent == "ROOT" and child.kind == "event":
                    violations.append(f"{tag}: events may not reference ROOT")
            else:
                parent = by_id.get(edge.parent)
                if parent is None:
                    violations.append(f"{tag}: unknown parent mention")
                elif parent.kind != "timex":
                    violations.append(f"{tag}: timex reference parent must be a timex")
        else:  # event_ref
            if child.kind != "event":
                violations.append(f"{tag}: only events carry a reference event")
                continue
            event_ref_count[edge.child] += 1
            if edge.parent in META:
                if edge.parent != "NO_EVENT":
                    violations.append(
                        f"{tag}: only NO_EVENT is a meta reference-event parent"
                    )
            else:
                parent = by_id.get(edge.parent)
                if parent is None:
                    violations.append(f"{tag}: unknown parent mention")
                elif parent.kind != "event":
                    violations.append(f"{tag}: event reference parent must be an event")

    for m in doc.mentions:
        if timex_ref_count[m.id] != 1:
            violations.append(
                f"mention {m.id}: {timex_ref_count[m.id]} reference-timex edges, expected 1"
            )
        if m.kind == "event" and event_ref_count[m.id] > 1:
            violations.append(
                f"mention {m.id}: {event_ref_count[m.id]} reference-event edges, "
                "expected at most 1"
            )

    cycle = reference_find_cycle([m.id for m in doc.mentions],
                                 [(e.child, e.parent) for e in doc.gold_edges])
    if cycle is not None:
        violations.append("gold edges form a cycle: " + " -> ".join(cycle))

    return violations


# ------------------------------------------------------------ JSON readers


def _unhashable(value) -> bool:
    return isinstance(value, (list, dict))


def reference_load_error(obj: dict, doc: Document) -> str | None:
    """The GraphError text graph_from_json gives for a prediction object whose
    fields have their JSON types and whose edges hold child, slot and parent,
    or None if it loads. Reading in edge order, an unhashable child or slot
    or a slot seen before stops it; then an id other than doc's, an
    unhashable parent of a mention's slot, and last the violations."""
    at = f"document {doc.id}: "

    def malformed(value) -> str:
        return f"{at}malformed prediction (TypeError: unhashable type: '{type(value).__name__}')"

    edges: dict = {}
    for e in obj["edges"]:
        for name in (e["child"], e["slot"]):
            if _unhashable(name):
                return malformed(name)
        slot = Slot(e["child"], e["slot"])
        if slot in edges:
            return f"{at}duplicate edge for {slot}"
        edges[slot] = e["parent"]
    if obj["id"] != doc.id:
        return f"{at}the prediction is for document {obj['id']}"
    ids = {m.id for m in doc.mentions}
    for slot, parent in edges.items():
        if slot.child in ids and _unhashable(parent):
            return malformed(parent)
    violations = reference_validate_graph(TemporalDependencyGraph(doc.id, edges), doc)
    return at + "; ".join(violations) if violations else None


def reference_prediction_ok(obj, doc: Document) -> bool:
    """Whether a decoded prediction line loads as doc's graph: the JSON types
    asked by name, then reference_load_error."""
    if _json_type_name(obj) != "object" or _json_type_name(obj.get("id")) != "string" \
            or not reference_is_json(obj.get("edges"), list, dict):
        return False
    if any(key not in e for e in obj["edges"] for key in ("child", "slot", "parent")):
        return False
    return reference_load_error(obj, doc) is None


# each record's fields, as (JSON kind, element kind), in a corpus line
_CORPUS_FIELDS = {
    None: {"id": (str, None), "dct": (str, None), "sentences": (list, dict),
           "mentions": (list, dict), "edges": (list, dict)},
    "sentences": {"index": (int, None), "tokens": (list, str)},
    "mentions": {"id": (str, None), "kind": (str, None), "sentence": (int, None),
                 "start": (int, None), "end": (int, None)},
    "edges": {"child": (str, None), "slot": (str, None), "parent": (str, None)},
}


def reference_corpus_line_ok(obj) -> str | None:
    """The document id of a decoded corpus line whose fields all have their
    JSON types and which reference_validate_document finds valid, else None."""
    if _json_type_name(obj) != "object":
        return None
    records = [(None, obj)] + [(part, r) for part in ("sentences", "mentions", "edges")
                               if reference_is_json(obj.get(part), list, dict)
                               for r in obj[part]]
    for part, record in records:
        for key, (kind, item) in _CORPUS_FIELDS[part].items():
            if key not in record or not reference_is_json(record[key], kind, item):
                return None
    sentences = [Sentence(s["index"], tuple(s["tokens"])) for s in obj["sentences"]]
    mentions = [Mention(m["id"], m["kind"], m["sentence"], m["start"], m["end"])
                for m in obj["mentions"]]
    edges = [GoldEdge(e["child"], e["slot"], e["parent"], e.get("label"))
             for e in obj["edges"]]
    covered = {e.child for e in edges if e.slot == "event_ref"}
    edges += [GoldEdge(m.id, "event_ref", "NO_EVENT") for m in mentions
              if m.kind == "event" and m.id not in covered]
    doc = Document(obj["id"], obj["dct"], sentences, mentions, edges)
    return None if reference_validate_document(doc) else doc.id


# ------------------------------------------- configs, checkpoints, label rows

_MAX_COUNT = 2**31 - 1  # the most any count or size of a config may be
_VARIANTS = ("baseline", "dp_feature", "dp_distill")
_TAGS = {ct.value for ct in CONTENT_TYPES}


def _count(value, low: int = 1) -> bool:
    return _json_type_name(value) == "integer" and low <= value <= _MAX_COUNT


def _number(value, low: float = 0.0, high: float = math.inf) -> bool:
    return _json_type_name(value) in ("integer", "float") and low <= value <= high


def _bounds(value, low: int = 0) -> bool:
    """A [low, high] list of counts, in order, from ``low`` up."""
    return _json_type_name(value) == "list" and len(value) == 2 \
        and all(_count(v, 0) for v in value) and low <= value[0] <= value[1]


def _per_tag(value, ok) -> bool:
    """An object with exactly one entry per content type, each passing ``ok``."""
    return _json_type_name(value) == "object" and set(value) == _TAGS \
        and all(ok(v) for v in value.values())


def _sub_probability(pair) -> bool:
    return _json_type_name(pair) == "list" and len(pair) == 2 \
        and all(_number(p) for p in pair) and sum(pair) <= 1.0 + 1e-12


_SYNTH_CHECKS = {
    "n_docs": _count, "noise_vocab_size": _count, "event_vocab_size": _count,
    "timex_vocab_size": _count, "sentences_per_doc": lambda v: _bounds(v, 1),
    "mentions_per_sentence": _bounds, "noise_tokens_per_sentence": _bounds,
    "timex_share": lambda v: _number(v, high=1.0),
    "refevent_prob": lambda v: _number(v, high=1.0),
    "refevent_intra_prob": lambda v: _number(v, high=1.0),
    "refevent_content_affinity": lambda v: _number(v, high=1.0),
    "content_weights": lambda v: _per_tag(v, _number) and sum(v.values()) > 0,
    "timex_parent_probs": lambda v: _per_tag(v, _sub_probability),
    "event_timex_probs": lambda v: _per_tag(v, _sub_probability),
}


def reference_synth_config_ok(obj: dict) -> bool:
    """Whether SynthConfig takes a decoded config object: only its own
    fields, each of which, when given, passes its check by type names."""
    return set(obj) <= set(_SYNTH_CHECKS) and all(
        check(obj[name]) for name, check in _SYNTH_CHECKS.items() if name in obj)


_TRAIN_DEFAULTS = {"variant": "baseline", "max_epochs": 15, "batch_size_docs": 5,
                   "peak_lr": 1e-4, "warmup_epochs": 5, "weight_decay": 0.01,
                   "seeds": [0, 1, 2], "update_order": "dp_then_rank",
                   "decode_order": "score", "dim": 32, "hidden": 64}


def reference_train_config_ok(obj: dict) -> bool:
    """Whether TrainConfig takes a decoded config object, its left-out
    fields at their documented defaults; a decay that multiplies parameters
    by 1 - peak_lr * weight_decay of magnitude above 1 is refused."""
    if not set(obj) <= set(_TRAIN_DEFAULTS):
        return False
    c = {**_TRAIN_DEFAULTS, **obj}
    seeds = c["seeds"]
    return (reference_is_json(seeds, list, int) and 0 < len(set(seeds)) == len(seeds)
            and min(seeds) >= 0
            and all(_count(c[name]) for name in ("max_epochs", "batch_size_docs", "dim", "hidden"))
            and _json_type_name(c["warmup_epochs"]) in ("integer", "huge integer")
            and 1 <= c["warmup_epochs"] <= c["max_epochs"]
            and _number(c["peak_lr"]) and c["peak_lr"] > 0 and _number(c["weight_decay"])
            and c["peak_lr"] * c["weight_decay"] <= 2
            and c["variant"] in _VARIANTS and c["decode_order"] in ("score", "document")
            and c["update_order"] in ("dp_then_rank", "rank_then_dp", "joint"))


def reference_checkpoint_ok(obj: dict) -> bool:
    """Whether load_checkpoint reads a decoded checkpoint object: format 1,
    a config whose left-out fields take their defaults, a vocabulary led by
    the reserved tokens without a repeat, and per parameter a shape that
    equals the one the config and vocabulary give and as many finite
    numbers as it holds. ``train_config`` and ``seed`` are never read."""
    hyper, vocab, params = (obj.get(k) for k in ("hyperparameters", "vocabulary", "params"))
    if _json_type_name(obj.get("format_version")) != "integer" or obj["format_version"] != 1 \
            or not reference_is_json(hyper, dict) or not reference_is_json(vocab, list, str) \
            or not reference_is_json(params, dict) or not set(hyper) <= {"dim", "hidden", "variant"}:
        return False
    config = {"dim": 32, "hidden": 64, "variant": "baseline", **hyper}
    d, h = config["dim"], config["hidden"]
    if not (_count(d) and _count(h) and config["variant"] in _VARIANTS) \
            or vocab[:len(RESERVED_TOKENS)] != list(RESERVED_TOKENS) or len(set(vocab)) != len(vocab):
        return False
    n_types = len(CONTENT_TYPES)
    shapes = {"embeddings": [len(vocab), d], "meta_embeddings": [N_META, d],
              "w1": [h, 5 * d + N_SCALAR_FEATURES], "b1": [h], "w2": [h], "b2": [],
              "dp_weight": [n_types, d], "dp_bias": [n_types]}
    for name, shape in shapes.items():
        entry = params.get(name)
        if not reference_is_json(entry, dict) or entry.get("shape") != shape \
                or not reference_is_json(entry["shape"], list, int) \
                or not reference_is_json(entry.get("data"), list) \
                or len(entry["data"]) != math.prod(shape) \
                or not all(_json_type_name(v) in ("integer", "float") for v in entry["data"]):
            return False
    return True


def reference_dp_rows_ok(rows: list[list[str]], corpus: list[Document]) -> bool:
    """Whether label rows, each a line split at its tabs, label every
    sentence of the corpus once and nothing else: three fields, the
    document id and the index as write_dp_labels writes them, and a
    content type's tag."""
    keys = [tuple(row[:2]) for row in rows if len(row) == 3 and row[2] in _TAGS]
    want = {(doc.id, str(s.index)) for doc in corpus for s in doc.sentences}
    return len(keys) == len(rows) == len(set(keys)) and set(keys) == want


# ---------------------------------------------------------------- analysis


def reference_tables(corpus: list[Document], dp) -> dict[str, tuple[list[int], list[list[float]]]]:
    """{table name: (row denominators, row percentages)}, one loop per table."""
    rows = [ct.value for ct in CONTENT_TYPES]

    def finish(counts: dict[str, list[int]]) -> tuple[list[int], list[list[float]]]:
        denominators = [sum(counts[r]) for r in rows]
        cells = [[100.0 * c / n for c in counts[r]] if n else [math.nan] * len(counts[r])
                 for r, n in zip(rows, denominators)]
        return denominators, cells

    def empty(n_cols: int) -> dict[str, list[int]]:
        return {r: [0] * n_cols for r in rows}

    def content(doc: Document, mention_id: str) -> str:
        return dp[(doc.id, doc.mention(mention_id).sentence)].value

    timex = empty(3)
    for doc in corpus:
        for e in doc.gold_edges:
            if e.slot == "timex_ref" and doc.mention(e.child).kind == "timex":
                col = 0 if e.parent == "DCT" else 1 if e.parent == "ROOT" else 2
                timex[content(doc, e.child)][col] += 1
    event_timex = empty(3)
    for doc in corpus:
        for e in doc.gold_edges:
            if e.slot == "timex_ref" and doc.mention(e.child).kind == "event":
                if e.parent == "DCT":
                    col = 0
                elif doc.mention(e.parent).sentence == doc.mention(e.child).sentence:
                    col = 1
                else:
                    col = 2
                event_timex[content(doc, e.child)][col] += 1
    timex_content = empty(len(rows))
    for doc in corpus:
        for e in doc.gold_edges:
            if (e.slot == "timex_ref" and doc.mention(e.child).kind == "event"
                    and e.parent not in META):
                timex_content[content(doc, e.child)][rows.index(content(doc, e.parent))] += 1
    event_content = empty(len(rows))
    for doc in corpus:
        for e in doc.gold_edges:
            if (e.slot == "event_ref" and e.parent not in META
                    and doc.mention(e.parent).sentence != doc.mention(e.child).sentence):
                event_content[content(doc, e.child)][rows.index(content(doc, e.parent))] += 1
    return {"timex_parents": finish(timex),
            "event_reference_timexes": finish(event_timex),
            "event_reference_timex_content": finish(timex_content),
            "event_reference_event_content": finish(event_content)}


# ------------------------------------------------------------------ scorer


def reference_index_document(doc: Document, vocab: Vocabulary, dp_labels=None) -> _FlatIndex:
    """The document's index with gold positions, built as the scorer built it
    before gold left the prediction index: every column in one pass, the
    scalar features bucketed by nested np.where."""
    sent_ids = [[vocab.index.get(t.lower(), UNK_INDEX) for t in s.tokens] for s in doc.sentences]
    ordered = doc.ordered_mentions()
    spans = [sent_ids[m.sentence][m.start:m.end] for m in ordered]
    sent = np.array([m.sentence for m in ordered], dtype=np.int32)
    layout = candidate_layout(doc)
    table_row = {name: i for i, name in enumerate(layout.names)}
    cand = layout.cand
    # each candidate's slot: the last slot that starts at or before it
    slot = (np.searchsorted(layout.starts, np.arange(len(cand)), side="right") - 1).astype(np.int32)
    slot_child = np.array([table_row[s.child] - N_META for s in layout.slots], dtype=np.int32)
    child = slot_child[slot]

    row = cand - N_META
    is_mention = row >= 0
    c, r = child[is_mention], row[is_mention]
    delta = np.abs(sent[c] - sent[r])
    feat = np.empty(len(cand), dtype=np.uint16)
    feat[~is_mention] = 1 << (7 + cand[~is_mention])
    feat[is_mention] = reference_feature_bits(delta, c < r)

    gold_parent = gold_parents(doc)
    gold_row = np.array([table_row.get(gold_parent.get(s), -1) for s in layout.slots],
                        dtype=np.int64)
    hit = np.flatnonzero(cand == gold_row[slot])
    gold = np.full(len(layout.slots), -1, dtype=np.int32)
    gold[slot[hit]] = hit

    mention_tok = np.array([i for span in spans for i in span], dtype=np.int32)
    mention_len = np.array([len(span) for span in spans], dtype=np.int32)
    sent_tok = np.array([i for sentence in sent_ids for i in sentence], dtype=np.int32)
    sent_len = np.array([len(sentence) for sentence in sent_ids], dtype=np.int32)
    return _FlatIndex(
        layout,
        tok=np.concatenate([mention_tok, sent_tok]),
        tok_len=np.concatenate([mention_len, sent_len]),
        ctype=None if dp_labels is None else _content_types(doc, dp_labels),
        mention_sent=sent, starts=layout.starts, gold=gold, slot_child=slot_child,
        cand=cand, cand_slot=slot, feat=feat)


def reference_feature_bits(delta: np.ndarray, precedes: np.ndarray) -> np.ndarray:
    """A mention candidate's packed scalar features from its sentence distance
    and whether the child precedes it: the distance bucket (0, 1, 2, 3-5,
    >=6) as bits 0-4, precedes as bit 5, same sentence as bit 6."""
    bucket = np.where(delta <= 2, delta, np.where(delta <= 5, 3, 4))
    return (1 << bucket) + precedes * (1 << 5) + (delta == 0) * (1 << 6)


def feature_bit_rows(bits: np.ndarray) -> np.ndarray:
    """Packed scalar features as the scorer's scalar block: bit k is column k."""
    return ((np.asarray(bits)[:, None] >> np.arange(N_SCALAR_FEATURES)) & 1).astype(np.float64)


def lookup(vocab: Vocabulary, token: str) -> int:
    """A corpus token's embedding row: its lowercase form's, else <unk>'s."""
    return vocab.index.get(token.lower(), UNK_INDEX)


def _marker_index(content_type: ContentType) -> int:
    """The embedding row of a content type's marker token."""
    return MARKER_BASE_INDEX + CONTENT_TYPE_INDEX[content_type]


def _reference_tokens(model, doc: Document, dp_labels) -> tuple[dict, dict]:
    """Token ids averaged for each sentence index and each mention id."""
    vocab = model.vocab
    sentences = {}
    for s in doc.sentences:
        ids = [lookup(vocab, t) for t in s.tokens]
        if model.config.variant == "dp_feature":
            ids.append(_marker_index(dp_labels[(doc.id, s.index)]))
        sentences[s.index] = ids
    mentions = {m.id: [lookup(vocab, t) for t in
                       doc.sentences[m.sentence].tokens[m.start:m.end]]
                for m in doc.mentions}
    return sentences, mentions


def _reference_slot(model, doc: Document, slot: Slot, sentences: dict,
                    mentions: dict) -> tuple[list[str], np.ndarray]:
    """The candidates of one slot and their feature rows, built one by one."""
    emb = model.params["embeddings"]
    d = model.config.dim
    position = {m.id: i for i, m in enumerate(doc.ordered_mentions())}
    child = doc.mention(slot.child)
    u = emb[mentions[child.id]].mean(axis=0) + emb[CHILD_MARK_INDEX]
    s_child = emb[sentences[child.sentence]].mean(axis=0)
    candidates = candidate_set(doc, slot)
    rows = []
    for cand in candidates:
        scalars = [0.0] * 10
        if cand in META:
            a = model.params["meta_embeddings"][META.index(cand)]
            s_cand = np.zeros(d)
            scalars[7 + META.index(cand)] = 1.0
        else:
            other = doc.mention(cand)
            a = emb[mentions[cand]].mean(axis=0) + emb[CAND_MARK_INDEX]
            s_cand = emb[sentences[other.sentence]].mean(axis=0)
            delta = abs(child.sentence - other.sentence)
            scalars[delta if delta <= 2 else 3 if delta <= 5 else 4] = 1.0
            scalars[5] = float(position[child.id] < position[cand])
            scalars[6] = float(delta == 0)
        rows.append(np.concatenate([u, s_child, a, s_cand, u * a, scalars]))
    return candidates, np.array(rows)


def _reference_mlp(model, phi: np.ndarray):
    p = model.params
    z = phi @ p["w1"].T + p["b1"]
    r = np.maximum(z, 0.0)
    return z, r, r @ p["w2"] + p["b2"]


def reference_scores(model, doc: Document, dp_labels=None) -> dict:
    """{slot: (candidates, scores)} from one MLP pass per slot."""
    sentences, mentions = _reference_tokens(model, doc, dp_labels)
    out = {}
    for slot in slot_instances(doc):
        candidates, phi = _reference_slot(model, doc, slot, sentences, mentions)
        out[slot] = (candidates, list(_reference_mlp(model, phi)[2]))
    return out


def relu_pattern(model, docs: list[Document], dp_labels=None) -> bytes:
    """Packed activation signs of every hidden unit of model across the batch.

    Two parameter settings with equal patterns lie on the same linear
    region of the ranking loss, which finite differencing relies on.
    """
    labels = model._feature_labels(dp_labels)
    batch = _concat([_index_document(doc, model.vocab, labels) for doc in docs])
    layer = model._first_layer(batch, model._markers(batch))
    z = _joined([model._block_forward(layer, batch, c_lo, c_hi)[3]
                 for _, _, c_lo, c_hi in _blocks(batch.starts, len(batch.cand))])
    return np.packbits(z > 0).tobytes()


def reference_relu_pattern(model, docs: list[Document], dp_labels=None) -> bytes:
    bits = []
    for doc in docs:
        sentences, mentions = _reference_tokens(model, doc, dp_labels)
        for slot in slot_instances(doc):
            _, phi = _reference_slot(model, doc, slot, sentences, mentions)
            bits.extend((_reference_mlp(model, phi)[0] > 0).ravel())
    return np.packbits(np.array(bits, dtype=bool)).tobytes()


def _spread(grad: np.ndarray, tokens: list[int], g: np.ndarray) -> None:
    """Backward of a token mean: an equal share of g to each token."""
    for t in tokens:
        grad[t] += g / len(tokens)


def reference_ranking_loss_and_grads(model, docs: list[Document], dp_labels=None):
    """Mean listwise cross-entropy and its gradients, one slot and one candidate at a time."""
    p = model.params
    d = model.config.dim
    grads = {name: np.zeros_like(arr) for name, arr in p.items()}
    n = sum(len(slot_instances(doc)) for doc in docs)
    if n == 0:
        return 0.0, grads
    total = 0.0
    for doc in docs:
        sentences, mentions = _reference_tokens(model, doc, dp_labels)
        gold = {(e.child, e.slot): e.parent for e in doc.gold_edges}
        for slot in slot_instances(doc):
            candidates, phi = _reference_slot(model, doc, slot, sentences, mentions)
            z, r, s = _reference_mlp(model, phi)
            prob = np.exp(s - s.max())
            prob /= prob.sum()
            k = candidates.index(gold[(slot.child, slot.slot)])
            total -= np.log(prob[k])
            g = prob / n
            g[k] -= 1.0 / n
            grads["b2"] += g.sum()
            grads["w2"] += r.T @ g
            dz = np.outer(g, p["w2"]) * (z > 0)
            grads["w1"] += dz.T @ phi
            grads["b1"] += dz.sum(axis=0)
            child = doc.mention(slot.child)
            for cand, row, dphi in zip(candidates, phi, dz @ p["w1"]):
                u, a = row[0:d], row[2 * d:3 * d]
                du = dphi[0:d] + dphi[4 * d:5 * d] * a
                da = dphi[2 * d:3 * d] + dphi[4 * d:5 * d] * u
                _spread(grads["embeddings"], mentions[child.id], du)
                grads["embeddings"][CHILD_MARK_INDEX] += du
                _spread(grads["embeddings"], sentences[child.sentence], dphi[d:2 * d])
                if cand in META:
                    grads["meta_embeddings"][META.index(cand)] += da
                else:
                    _spread(grads["embeddings"], mentions[cand], da)
                    grads["embeddings"][CAND_MARK_INDEX] += da
                    _spread(grads["embeddings"], sentences[doc.mention(cand).sentence],
                            dphi[3 * d:4 * d])
    return float(total / n), grads


def reference_dp_loss_and_grads(model, docs: list[Document], dp_labels):
    """Mean cross-entropy of the discourse head and its gradients, one sentence at a time."""
    p = model.params
    grads = {name: np.zeros_like(arr) for name, arr in p.items()}
    n = sum(len(doc.sentences) for doc in docs)
    if n == 0:
        return 0.0, grads
    total = 0.0
    for doc in docs:
        for s in doc.sentences:
            tokens = [lookup(model.vocab, t) for t in s.tokens]
            x = p["embeddings"][tokens].mean(axis=0)
            logits = p["dp_weight"] @ x + p["dp_bias"]
            prob = np.exp(logits - logits.max())
            prob /= prob.sum()
            k = CONTENT_TYPE_INDEX[dp_labels[(doc.id, s.index)]]
            total -= np.log(prob[k])
            g = prob / n
            g[k] -= 1.0 / n
            grads["dp_weight"] += np.outer(g, x)
            grads["dp_bias"] += g
            _spread(grads["embeddings"], tokens, p["dp_weight"].T @ g)
    return float(total / n), grads


def reference_adamw_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
                         moments: dict[str, tuple[np.ndarray, np.ndarray]], t: int,
                         lr: float, weight_decay: float = 0.0) -> None:
    """One AdamW step taken parameter by parameter, with fresh arrays throughout.

    ``moments`` maps each parameter name to its (m, v) pair, zeros before the
    first step, and is updated; ``t`` is the 1-based step count. A non-finite
    gradient raises after the parameters before it have been updated.
    """
    b1, b2 = ADAM_BETAS
    for name, theta in params.items():
        g = grads[name]
        if not np.all(np.isfinite(g)):
            raise TrainingDiverged(f"non-finite gradient for parameter {name!r}")
        m, v = moments[name]
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * g * g
        moments[name] = m, v
        m_hat = m / (1.0 - b1 ** t)
        v_hat = v / (1.0 - b2 ** t)
        theta -= lr * (m_hat / (np.sqrt(v_hat) + ADAM_EPS) + weight_decay * theta)


def reference_train(config, train_corpus, valid_corpus, dp_labels, seed: int):
    """train() one batch at a time from per-tensor parameters.

    The generator draws as train() does (init_params, then one permutation
    per epoch). Each batch's losses come from ranking_loss_and_grads and
    dp_loss_and_grads given the batch's documents alone, each step from
    reference_adamw_step on every parameter tensor, and each epoch's
    validation accuracy from greedy_decode over one document's
    score_document scores at a time. Returns the best epoch's model and the
    history.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    vocab = build_vocabulary(train_corpus)
    model_config = config.model_config()
    model = RankingModel(model_config, vocab, init_params(model_config, vocab, rng))
    moments = {name: (np.zeros_like(a), np.zeros_like(a)) for name, a in model.params.items()}
    feature_labels = dp_labels if config.variant == "dp_feature" else None
    plan = UPDATE_PLANS[config.update_order] if config.variant == "dp_distill" else (("ranking",),)
    docs = list(train_corpus)
    n_batches = math.ceil(len(docs) / config.batch_size_docs)
    total_steps = n_batches * len(plan) * config.max_epochs
    warmup_steps = n_batches * len(plan) * config.warmup_epochs
    history, best, best_accuracy, t = TrainHistory(), None, -1.0, 0
    for epoch in range(config.max_epochs):
        perm = rng.permutation(len(docs))
        losses = {"ranking": [], "dp": []}
        for b in range(n_batches):
            batch = [docs[i] for i in perm[b * config.batch_size_docs:
                                           (b + 1) * config.batch_size_docs]]
            for names in plan:
                step = None
                for name in names:
                    if name == "ranking":
                        loss, grads = model.ranking_loss_and_grads(batch, feature_labels)
                    else:
                        loss, grads = model.dp_loss_and_grads(batch, dp_labels)
                    losses[name].append(loss)
                    step = grads if step is None else {k: step[k] + grads[k] for k in step}
                t += 1
                reference_adamw_step(model.params, step, moments, t,
                                     lr_at(t, total_steps, warmup_steps, config.peak_lr),
                                     weight_decay=config.weight_decay)
        graphs = {doc.id: greedy_decode(doc, model.score_document(doc, feature_labels),
                                        order=config.decode_order)
                  for doc in valid_corpus}
        accuracy = attachment_accuracy(graphs, valid_corpus)
        history.epochs.append(EpochRecord(
            epoch, float(np.mean(losses["ranking"])),
            float(np.mean(losses["dp"])) if losses["dp"] else None, accuracy))
        if accuracy > best_accuracy:
            best, best_accuracy = {name: a.copy() for name, a in model.params.items()}, accuracy
            history.best_epoch = epoch
    model.params = best
    return model, history


# ------------------------------------------------------------ gradient check


def finite_difference_check(
    loss_and_grads,
    params: dict[str, np.ndarray],
    rng: np.random.Generator,
    coords_per_tensor: int = 50,
    step: float = 1e-5,
    loss_and_pattern=None,
) -> dict:
    """Compare analytic gradients against central differences.

    ``loss_and_grads(params)`` must return ``(loss, grads)``. For each tensor,
    up to ``coords_per_tensor`` coordinates are sampled without replacement
    and perturbed by ``+-step``. When ``loss_and_pattern`` is given (returning
    ``(loss, pattern)``), coordinates whose two perturbed evaluations land in
    different relu regions are resampled, because the loss is not
    differentiable across a kink and the central difference is meaningless
    there. Relative error uses ``|a - n| / max(1, |a|, |n|)``.
    """
    _, grads = loss_and_grads(params)

    def eval_loss(p: dict[str, np.ndarray]):
        if loss_and_pattern is not None:
            return loss_and_pattern(p)
        return loss_and_grads(p)[0], None

    report = {"max_rel_err": 0.0, "checked": 0, "resampled": 0, "worst": None}
    for name in sorted(params):
        arr = params[name]
        size = arr.size
        k = min(coords_per_tensor, size)
        order = rng.permutation(size)
        chosen, pool = list(order[:k]), list(order[k:])
        for flat in chosen:
            flat = int(flat)
            attempts = 0
            while True:
                bumped = dict(params)
                plus = arr.copy()
                plus.flat[flat] += step
                bumped[name] = plus
                loss_plus, pat_plus = eval_loss(bumped)
                minus = arr.copy()
                minus.flat[flat] -= step
                bumped[name] = minus
                loss_minus, pat_minus = eval_loss(bumped)
                if pat_plus == pat_minus or not pool or attempts >= 20:
                    break
                report["resampled"] += 1
                attempts += 1
                flat = int(pool.pop())
            numeric = (loss_plus - loss_minus) / (2.0 * step)
            analytic = float(grads[name].flat[flat])
            rel = abs(analytic - numeric) / max(1.0, abs(analytic), abs(numeric))
            report["checked"] += 1
            if rel > report["max_rel_err"]:
                report["max_rel_err"] = rel
                report["worst"] = (name, flat, analytic, numeric, rel)
    return report

