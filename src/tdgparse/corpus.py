"""Documents, mentions, and gold temporal reference edges.

A corpus is a list of documents loaded from JSONL, one document object per
line. Every mention owns a reference-timex slot; events additionally own a
reference-event slot. Events annotated without a reference event are
normalized at load time to an explicit NO_EVENT edge, so downstream ranking
and evaluation are total over slots. Corpus objects are treated as immutable
after load.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path


class ContentType(Enum):
    """Discourse content type of a sentence; NA marks unlabeled sentences."""

    M1 = "M1"  # main event
    M2 = "M2"  # consequence
    C1 = "C1"  # previous event
    C2 = "C2"  # current context
    D1 = "D1"  # historical event
    D2 = "D2"  # anecdotal event
    D3 = "D3"  # evaluation
    D4 = "D4"  # expectation
    NA = "NA"  # left unlabeled by the profiler

    @classmethod
    def from_tag(cls, tag: str) -> "ContentType":
        try:
            return cls(tag)
        except ValueError:
            raise ValueError(f"unknown content type {tag!r}") from None


CONTENT_TYPES = tuple(ContentType)
CONTENT_TYPE_INDEX = {ct: i for i, ct in enumerate(CONTENT_TYPES)}

EVENT = "event"
TIMEX = "timex"
MENTION_KINDS = (EVENT, TIMEX)

TIMEX_REF = "timex_ref"
EVENT_REF = "event_ref"
SLOTS = (TIMEX_REF, EVENT_REF)

DCT = "DCT"
ROOT = "ROOT"
NO_EVENT = "NO_EVENT"
META_NODES = (DCT, ROOT, NO_EVENT)

EDGE_LABELS = ("before", "after", "overlap", "included", "depend_on")


class CorpusError(Exception):
    """A corpus file could not be parsed or failed validation."""


class DpLabelError(Exception):
    """A discourse-profile label file is malformed or does not cover the corpus."""


@dataclass(frozen=True)
class Sentence:
    index: int
    tokens: tuple[str, ...]


@dataclass(frozen=True)
class Mention:
    """A gold event or timex mention spanning tokens [start, end) of one sentence."""

    id: str
    kind: str
    sentence: int
    start: int
    end: int


@dataclass(frozen=True)
class GoldEdge:
    child: str
    slot: str
    parent: str
    label: str | None = None


@dataclass
class Document:
    id: str
    dct: str
    sentences: list[Sentence]
    mentions: list[Mention]
    gold_edges: list[GoldEdge]
    _by_id: dict[str, Mention] = field(init=False, repr=False, compare=False)
    _ordered: list[Mention] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._by_id = {m.id: m for m in self.mentions}
        self._ordered = sorted(
            self.mentions, key=lambda m: (m.sentence, m.start, m.end, m.id)
        )

    def mention(self, mention_id: str) -> Mention:
        return self._by_id[mention_id]

    def ordered_mentions(self) -> list[Mention]:
        """Mentions in document order: by sentence, then span position."""
        return self._ordered


Corpus = list[Document]

# (document id, sentence index) -> ContentType, total over the covered corpus
DpLabelMap = dict[tuple[str, int], ContentType]


def find_cycle(node_ids: list[str], edges: list[tuple[str, str]]) -> list[str] | None:
    """Return one directed cycle as a node list, or None if the graph is acyclic.

    ``edges`` are (child, parent) pairs; a pair whose endpoints are not both
    in ``node_ids`` (a meta parent, an unknown mention) is skipped. A
    depth-first search starts from each node with an out-edge, in
    ``node_ids`` order, and follows each node's edges in the order given;
    nodes without one cannot lie on a cycle and are never entered.
    """
    known = set(node_ids)
    succs: dict[str, list[str]] = {}
    for child, parent in edges:
        if child in known and parent in known:
            succs.setdefault(child, []).append(parent)
    done: set[str] = set()
    for start in node_ids:
        if start not in succs or start in done:
            continue
        path = [start]
        on_path = {start}
        stack = [iter(succs[start])]
        while stack:
            for nxt in stack[-1]:
                if nxt in on_path:
                    return path[path.index(nxt):] + [nxt]
                if nxt in succs and nxt not in done:
                    path.append(nxt)
                    on_path.add(nxt)
                    stack.append(iter(succs[nxt]))
                    break
            else:
                node = path.pop()
                on_path.discard(node)
                done.add(node)
                stack.pop()
    return None


def validate_document(doc: Document) -> list[str]:
    """Check every document invariant; return one description per violation.

    Violations are data, not faults: the list is empty iff the document is
    well formed. Each entry names the offending sentence, mention, or edge.
    """
    violations: list[str] = []

    indexes = [s.index for s in doc.sentences]
    if indexes != list(range(len(doc.sentences))):
        violations.append(
            f"document {doc.id}: sentence indexes {indexes} are not contiguous from 0"
        )
    for sent in doc.sentences:
        if not sent.tokens:
            violations.append(f"document {doc.id}: sentence {sent.index} has no tokens")

    n_sents = len(doc.sentences)
    sent_len = {s.index: len(s.tokens) for s in doc.sentences}
    seen_ids: set[str] = set()
    for m in doc.mentions:
        if m.id in seen_ids:
            violations.append(f"mention {m.id}: duplicate id")
            continue
        seen_ids.add(m.id)
        if m.id in META_NODES:
            violations.append(f"mention {m.id}: id is reserved for a meta node")
        if m.kind not in MENTION_KINDS:
            violations.append(f"mention {m.id}: unknown kind {m.kind!r}")
        if not 0 <= m.sentence < n_sents:
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
        if edge.slot not in SLOTS:
            violations.append(f"{tag}: unknown slot")
            continue
        if edge.label is not None and edge.label not in EDGE_LABELS:
            violations.append(f"{tag}: unknown label {edge.label!r}")
        if edge.parent == edge.child:
            violations.append(f"{tag}: child and parent coincide")
            continue
        if edge.slot == TIMEX_REF:
            timex_ref_count[edge.child] += 1
            if edge.parent in META_NODES:
                if edge.parent == NO_EVENT:
                    violations.append(f"{tag}: NO_EVENT is not a timex reference")
                elif edge.parent == ROOT and child.kind == EVENT:
                    violations.append(f"{tag}: events may not reference ROOT")
            else:
                parent = by_id.get(edge.parent)
                if parent is None:
                    violations.append(f"{tag}: unknown parent mention")
                elif parent.kind != TIMEX:
                    violations.append(f"{tag}: timex reference parent must be a timex")
        else:  # EVENT_REF
            if child.kind != EVENT:
                violations.append(f"{tag}: only events carry a reference event")
                continue
            event_ref_count[edge.child] += 1
            if edge.parent in META_NODES:
                if edge.parent != NO_EVENT:
                    violations.append(
                        f"{tag}: only NO_EVENT is a meta reference-event parent"
                    )
            else:
                parent = by_id.get(edge.parent)
                if parent is None:
                    violations.append(f"{tag}: unknown parent mention")
                elif parent.kind != EVENT:
                    violations.append(f"{tag}: event reference parent must be an event")

    for m in doc.mentions:
        if timex_ref_count[m.id] != 1:
            violations.append(
                f"mention {m.id}: {timex_ref_count[m.id]} reference-timex edges, expected 1"
            )
        if m.kind == EVENT and event_ref_count[m.id] > 1:
            violations.append(
                f"mention {m.id}: {event_ref_count[m.id]} reference-event edges, expected at most 1"
            )

    cycle = find_cycle([m.id for m in doc.mentions],
                       [(e.child, e.parent) for e in doc.gold_edges])
    if cycle is not None:
        violations.append("gold edges form a cycle: " + " -> ".join(cycle))

    return violations


def _require(obj: dict, key: str, where: str):
    if key not in obj:
        raise CorpusError(f"{where}: missing required field {key!r}")
    return obj[key]


def document_from_json(obj: dict, where: str = "document") -> Document:
    """Build a Document from its JSON object; structural errors raise CorpusError."""
    if not isinstance(obj, dict):
        raise CorpusError(f"{where}: document must be a JSON object")
    doc_id = _require(obj, "id", where)
    dct = _require(obj, "dct", where)
    sentences = []
    for s in _require(obj, "sentences", where):
        tokens = _require(s, "tokens", f"{where}: sentence")
        if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
            raise CorpusError(f"{where}: sentence tokens must be a list of strings")
        sentences.append(Sentence(index=int(_require(s, "index", f"{where}: sentence")),
                                  tokens=tuple(tokens)))
    mentions = []
    for m in _require(obj, "mentions", where):
        mentions.append(Mention(
            id=str(_require(m, "id", f"{where}: mention")),
            kind=str(_require(m, "kind", f"{where}: mention")),
            sentence=int(_require(m, "sentence", f"{where}: mention")),
            start=int(_require(m, "start", f"{where}: mention")),
            end=int(_require(m, "end", f"{where}: mention")),
        ))
    edges = []
    for e in _require(obj, "edges", where):
        edges.append(GoldEdge(
            child=str(_require(e, "child", f"{where}: edge")),
            slot=str(_require(e, "slot", f"{where}: edge")),
            parent=str(_require(e, "parent", f"{where}: edge")),
            label=e.get("label"),
        ))
    return Document(id=str(doc_id), dct=str(dct), sentences=sentences,
                    mentions=mentions, gold_edges=edges)


def normalize_no_event_edges(doc: Document) -> Document:
    """Give every event lacking a reference-event edge an explicit NO_EVENT edge."""
    covered = {e.child for e in doc.gold_edges if e.slot == EVENT_REF}
    extra = [GoldEdge(child=m.id, slot=EVENT_REF, parent=NO_EVENT)
             for m in doc.mentions if m.kind == EVENT and m.id not in covered]
    if not extra:
        return doc
    return Document(id=doc.id, dct=doc.dct, sentences=doc.sentences,
                    mentions=doc.mentions, gold_edges=doc.gold_edges + extra)


def read_corpus(path: str | Path) -> Iterator[tuple[str, Document | None, list[str]]]:
    """Read a JSONL corpus line by line, yielding ``(where, doc, violations)``.

    ``where`` is ``path:lineno``. ``doc`` is None when a line yields no
    document (malformed JSON, a structural error, a duplicate id); its one
    violation then names the line itself. Otherwise ``doc`` is normalized and
    ``violations`` is what validate_document finds in it. Blank lines are
    skipped.
    """
    path = Path(path)
    seen: set[str] = set()
    with path.open(encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            where = f"{path}:{lineno}"
            try:
                doc = document_from_json(json.loads(line), where=where)
            except json.JSONDecodeError as exc:
                yield where, None, [f"{where}: malformed JSON: {exc}"]
                continue
            except CorpusError as exc:
                yield where, None, [str(exc)]
                continue
            if doc.id in seen:
                yield where, None, [f"{where}: duplicate document id {doc.id!r}"]
                continue
            seen.add(doc.id)
            doc = normalize_no_event_edges(doc)
            yield where, doc, validate_document(doc)


def parse_corpus(path: str | Path) -> Corpus:
    """Load and validate a JSONL corpus; the first bad line aborts with its violations."""
    docs: list[Document] = []
    for where, doc, violations in read_corpus(path):
        if doc is None:
            raise CorpusError(violations[0])
        if violations:
            listing = "\n  ".join(violations)
            raise CorpusError(f"{where}: document {doc.id!r} is invalid:\n  {listing}")
        docs.append(doc)
    return docs


def document_to_json(doc: Document) -> dict:
    edges = []
    for e in doc.gold_edges:
        entry = {"child": e.child, "slot": e.slot, "parent": e.parent}
        if e.label is not None:
            entry["label"] = e.label
        edges.append(entry)
    return {
        "id": doc.id,
        "dct": doc.dct,
        "sentences": [{"index": s.index, "tokens": list(s.tokens)} for s in doc.sentences],
        "mentions": [{"id": m.id, "kind": m.kind, "sentence": m.sentence,
                      "start": m.start, "end": m.end} for m in doc.mentions],
        "edges": edges,
    }


def serialize_corpus(corpus: Corpus) -> str:
    """Render a corpus as JSONL text, the inverse of parse_corpus on valid input."""
    return "".join(json.dumps(document_to_json(d), ensure_ascii=False) + "\n"
                   for d in corpus)


def write_corpus(corpus: Corpus, path: str | Path) -> None:
    Path(path).write_text(serialize_corpus(corpus), encoding="utf-8")


def dp_coverage_gaps(labels: DpLabelMap, corpus: Corpus) -> list[tuple[str, int]]:
    """List (doc id, sentence index) pairs of the corpus missing from labels."""
    return [(doc.id, sent.index) for doc in corpus for sent in doc.sentences
            if (doc.id, sent.index) not in labels]


def require_dp_coverage(labels: DpLabelMap, corpus: Corpus, what: str = "corpus") -> None:
    gaps = dp_coverage_gaps(labels, corpus)
    if gaps:
        shown = ", ".join(f"({d}, {i})" for d, i in gaps[:5])
        more = "" if len(gaps) <= 5 else f" and {len(gaps) - 5} more"
        raise DpLabelError(
            f"discourse labels do not cover the {what}: missing {shown}{more}"
        )


def load_dp_labels(path: str | Path, corpus: Corpus) -> DpLabelMap:
    """Read a doc_id<TAB>sentence_index<TAB>tag file, total over the corpus."""
    path = Path(path)
    docs = {d.id: d for d in corpus}
    labels: DpLabelMap = {}
    with path.open(encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise DpLabelError(
                    f"{path}:{lineno}: expected doc_id<TAB>sentence_index<TAB>tag"
                )
            doc_id, index_str, tag = parts
            if doc_id not in docs:
                raise DpLabelError(f"{path}:{lineno}: unknown document id {doc_id!r}")
            try:
                index = int(index_str)
            except ValueError:
                raise DpLabelError(
                    f"{path}:{lineno}: sentence index {index_str!r} is not an integer"
                ) from None
            if not 0 <= index < len(docs[doc_id].sentences):
                raise DpLabelError(
                    f"{path}:{lineno}: document {doc_id!r} has no sentence {index}"
                )
            try:
                ct = ContentType.from_tag(tag)
            except ValueError as exc:
                raise DpLabelError(f"{path}:{lineno}: {exc}") from None
            key = (doc_id, index)
            if key in labels:
                raise DpLabelError(f"{path}:{lineno}: duplicate entry for {key}")
            labels[key] = ct
    require_dp_coverage(labels, corpus)
    return labels


def serialize_dp_labels(labels: DpLabelMap, corpus: Corpus) -> str:
    lines = []
    for doc in corpus:
        for sent in doc.sentences:
            lines.append(f"{doc.id}\t{sent.index}\t{labels[(doc.id, sent.index)].value}\n")
    return "".join(lines)


def write_dp_labels(labels: DpLabelMap, corpus: Corpus, path: str | Path) -> None:
    Path(path).write_text(serialize_dp_labels(labels, corpus), encoding="utf-8")
