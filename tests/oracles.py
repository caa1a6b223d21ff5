"""Independent reference implementations used as test oracles.

Everything here is deliberately written with different mechanics than the
package: the decoder re-scans all unassigned slots every step and checks
acyclicity with a Floyd-Warshall transitive closure; the metrics counter
tallies flat slot tuples; the scorer reference runs the ranking MLP slot by
slot and pushes gradients down one candidate and one token at a time. The
graph validator keeps the earlier package code: a colour-table depth-first
search from every node and an explicit candidate list per slot; the
analysis tables run one loop per table. Plain Python only, except numpy in
the scorer reference and the gradient check.
"""

from __future__ import annotations

import random

import numpy as np

import math

from tdgparse.corpus import (
    CONTENT_TYPE_INDEX,
    CONTENT_TYPES,
    Document,
    GoldEdge,
    Mention,
    Sentence,
)
from tdgparse.graph import Slot, TemporalDependencyGraph, candidate_set, slot_instances
from tdgparse.scorer import CAND_MARK_INDEX, CHILD_MARK_INDEX

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


def random_scores(rng: random.Random, doc: Document) -> dict:
    """Random finite scores for every slot; sometimes coarsened to force ties."""
    from tdgparse.graph import ScoredCandidates

    out = {}
    coarse = rng.random() < 0.3
    for slot in slot_instances(doc):
        cands = candidate_set(doc, slot)
        values = [rng.uniform(-5, 5) for _ in cands]
        if coarse:
            values = [round(v) * 1.0 for v in values]
        out[slot] = ScoredCandidates(slot, cands, values)
    return out


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
    """validate_graph's violations, from explicit candidate lists."""
    violations: list[str] = []
    sets = reference_candidates(doc)
    for slot in sets:
        if slot not in graph.edges:
            violations.append(f"slot {slot} is unfilled")
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


def _reference_tokens(model, doc: Document, dp_labels) -> tuple[dict, dict]:
    """Token ids averaged for each sentence index and each mention id."""
    vocab = model.vocab
    sentences = {}
    for s in doc.sentences:
        ids = [vocab.lookup(t) for t in s.tokens]
        if model.config.variant == "dp_feature":
            ids.append(vocab.marker_index(dp_labels[(doc.id, s.index)]))
        sentences[s.index] = ids
    mentions = {m.id: [vocab.lookup(t) for t in
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
            tokens = [model.vocab.lookup(t) for t in s.tokens]
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

