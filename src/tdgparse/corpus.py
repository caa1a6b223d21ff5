"""Documents, mentions, and gold temporal reference edges.

A corpus is JSONL, each line built into one Document. Every mention owns a
reference-timex slot; events additionally own a reference-event slot, which
an event annotated without one fills with an explicit NO_EVENT edge, so
ranking and evaluation are total over slots. Every file the package writes
goes through write_atomic.

Corpus objects are immutable after load: sentences, mentions and gold edges
are frozen dataclasses with ``__slots__``, so an instance carries no
``__dict__``. Every token, mention id, kind, slot, parent and label a corpus
line holds is interned (``sys.intern``), one str object per distinct value
however many documents repeat it: a parsed 2,000-document distill corpus
holds 8.8 MB live, where one str object per occurrence took 25.1 MB. Equal
names that are one object also compare, and find dict keys, by identity.

document_from_json reads a line in one typed pass: each of its lists
(sentences, mentions, edges) is built in one comprehension of direct
subscripts, and the JSON types of a whole list are checked at once, as the
set of their ``type()``. A line that lacks a field or fails a check is read
again one json_field at a time, the path that words every error, so a valid
line never calls json_field and an invalid one is refused in that path's
words.

A document orders its slots once, when built, as ``Document.slots``, each
mention's in one tuple that the documents of one read share: every walk
over slots reads them, and graphs key their edges by those objects. Its
gold facts per slot, its parent and where that parent lies, are one
GoldTable, ``Document.gold``: a tuple of names and one byte per slot, built
on first read and cached, so that scoring a corpus again does not build
them again. Parsing, validation and prediction never read it.
edge_violations checks a gold or predicted graph in one pass over its
edges, which finds a cycle by walking up the timex and event chains, the
only legal edges that can close one; find_cycle words a cycle, and runs only
when that pass finds one or an illegal edge, or a mention has a meta name.
"""

from __future__ import annotations

import json
import os
import reprlib
import sys
from collections.abc import Callable, Iterable, Iterator
from dataclasses import InitVar, dataclass, field
from enum import Enum
from functools import cached_property
from numbers import Real
from pathlib import Path
from sys import intern
from typing import NamedTuple


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


CONTENT_TYPES = tuple(ContentType)
CONTENT_TYPE_INDEX = {ct: i for i, ct in enumerate(CONTENT_TYPES)}

EVENT = "event"
TIMEX = "timex"
MENTION_KINDS = (EVENT, TIMEX)

TIMEX_REF = "timex_ref"
EVENT_REF = "event_ref"

DCT = "DCT"
ROOT = "ROOT"
NO_EVENT = "NO_EVENT"
META_NODES = (DCT, ROOT, NO_EVENT)

EDGE_LABELS = ("before", "after", "overlap", "included", "depend_on")


class Slot(NamedTuple):
    """One reference decision: the child mention and which slot is being filled."""

    child: str
    slot: str


# (child kind, slot) -> (meta parents, parent kind): a legal parent of the slot
# is one of those metas, or a mention of that kind other than the child.
PARENT_RULES: dict[tuple[str, str], tuple[tuple[str, ...], str]] = {
    (TIMEX, TIMEX_REF): ((DCT, ROOT), TIMEX),
    (EVENT, TIMEX_REF): ((DCT,), TIMEX),
    (EVENT, EVENT_REF): ((NO_EVENT,), EVENT),
}
# the slots of each mention kind, in canonical order
KIND_SLOTS: dict[str, tuple[str, ...]] = {
    kind: tuple(slot for (k, slot) in PARENT_RULES if k == kind) for kind in MENTION_KINDS
}
# each kind's chain slot: the slot whose parents are mentions of the child's own
# kind, the one slot whose edges can close a cycle
CHAIN_SLOTS: dict[str, str] = {
    kind: slot for (kind, slot), (_, parent_kind) in PARENT_RULES.items() if parent_kind == kind
}
# a document's slots, one tuple per mention id in a map per kind, shared by the
# documents one call builds (a corpus read, a synthetic corpus), as interned names are
SlotShare = dict[str, dict[str, tuple[Slot, ...]]]
_NO_IDS: dict[str, tuple[Slot, ...]] = {}


def _own_slots(m: Mention, share: SlotShare) -> tuple[Slot, ...]:
    """m's slots (none for an unknown kind), kept in its kind's map of ``share``, its id
    interned; tuple.__new__ skips the Python-level __new__ that NamedTuple generates."""
    ids = share.get(m.kind)
    if ids is None:
        ids = share[m.kind] = {}
    return ids.setdefault(m.id, tuple([tuple.__new__(Slot, (intern(m.id), s))
                                       for s in KIND_SLOTS.get(m.kind, ())]))


class CorpusError(Exception):
    """A corpus file could not be parsed or failed validation."""


class DpLabelError(Exception):
    """A discourse-profile label file is malformed or does not cover the corpus."""


@dataclass(frozen=True, slots=True)
class Sentence:
    index: int
    tokens: tuple[str, ...]


@dataclass(frozen=True, slots=True)
class Mention:
    """A gold event or timex mention spanning tokens [start, end) of one sentence."""

    id: str
    kind: str
    sentence: int
    start: int
    end: int


@dataclass(frozen=True, slots=True)
class GoldEdge:
    child: str
    slot: str
    parent: str
    label: str | None = None


# a slot's category in a GoldTable, by where its gold parent lies; the first
# three are evaluation.CATEGORIES in order
SAME_SENTENCE, OTHER_SENTENCE, META_PARENT, NOT_A_MENTION = range(4)


class GoldTable(NamedTuple):
    """Each slot's gold parent and its category, in Document.slots order.

    A slot's parent is that of its first gold edge, the one validate_document
    keeps, or None when it has none. Its category is SAME_SENTENCE or
    OTHER_SENTENCE for a mention parent in or outside the slot's own
    mention's sentence, META_PARENT for a meta node and NOT_A_MENTION for a
    parent that is neither, None included.
    """

    parents: tuple[str | None, ...]
    categories: bytes


@dataclass
class Document:
    id: str
    dct: str
    sentences: list[Sentence]
    mentions: list[Mention]
    gold_edges: list[GoldEdge]
    # the slots share this map with other documents of one call; None shares nothing
    share: InitVar[SlotShare | None] = None
    # each mention by id, the last of a repeated one; hot loops read it directly
    by_id: dict[str, Mention] = field(init=False, repr=False, compare=False)
    _ordered: list[Mention] = field(init=False, repr=False, compare=False)
    # each mention's KIND_SLOTS slots, in document order (none for an unknown kind)
    mention_slots: tuple[tuple[Slot, ...], ...] = field(init=False, repr=False, compare=False)
    # those slots one after another, a repeated id's each time
    slots: tuple[Slot, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self, share: SlotShare | None) -> None:
        self.by_id = {m.id: m for m in self.mentions}
        self._ordered = ordered = sorted(
            self.mentions, key=lambda m: (m.sentence, m.start, m.end, m.id)
        )
        share = {} if share is None else share
        self.mention_slots = own = tuple([share.get(m.kind, _NO_IDS).get(m.id)
                                          or _own_slots(m, share) for m in ordered])
        self.slots = tuple([slot for slots in own for slot in slots])

    def mention(self, mention_id: str) -> Mention:
        return self.by_id[mention_id]

    def ordered_mentions(self) -> list[Mention]:
        """Mentions in document order: by sentence, then span position."""
        return self._ordered

    @cached_property
    def slot_mentions(self) -> tuple[Mention, ...]:
        """The mention that owns each of ``slots``, built on first read."""
        return tuple([m for m, own in zip(self._ordered, self.mention_slots) for _ in own])

    @cached_property
    def gold(self) -> GoldTable:
        """The document's GoldTable, the one map from a slot to its gold
        parent: built on first read, kept while the document lives, and read
        by the scorer's gold positions and by evaluation. Parsing and
        prediction never read it. A mention of unknown kind raises CorpusError."""
        if unknown := next((m for m in self._ordered if m.kind not in MENTION_KINDS), None):
            raise CorpusError(f"mention {unknown.id} has unknown kind {unknown.kind!r}")
        first = {(e.child, e.slot): e.parent for e in reversed(self.gold_edges)}
        parents = tuple(map(first.get, self.slots))  # a Slot hashes as its tuple
        by_id = self.by_id
        return GoldTable(parents, bytes([
            META_PARENT if parent in META_NODES else NOT_A_MENTION if target is None
            else SAME_SENTENCE if target.sentence == m.sentence else OTHER_SENTENCE
            for parent, m, target in zip(parents, self.slot_mentions, map(by_id.get, parents))]))


Corpus = list[Document]

# (document id, sentence index) -> ContentType
DpLabelMap = dict[tuple[str, int], ContentType]


def find_cycle(node_ids: Iterable[str], succs: dict[str, list[str]]) -> list[str] | None:
    """Return one directed cycle as a node list, or None if the graph is acyclic.

    ``succs`` is the graph's adjacency: each node with an out-edge maps to
    the nodes its edges lead to, in edge order, and every node it names is
    one of ``node_ids``. A depth-first search starts from each node with an
    out-edge, in ``node_ids`` order, and follows its successors in order;
    nodes without one cannot lie on a cycle and are never entered. An
    entered node maps to True in ``on_path`` while on the path, to False
    once done.
    """
    on_path: dict[str, bool] = {}
    for start in node_ids:
        if start not in succs or start in on_path:
            continue
        path = [start]
        on_path[start] = True
        stack = [iter(succs[start])]
        while stack:
            for nxt in stack[-1]:
                state = on_path.get(nxt)
                if state:
                    return path[path.index(nxt):] + [nxt]
                if state is None and nxt in succs:
                    path.append(nxt)
                    on_path[nxt] = True
                    stack.append(iter(succs[nxt]))
                    break
            else:
                on_path[path.pop()] = False
                stack.pop()
    return None


# each mention kind's slots, as slot -> (meta parents, parent kind): PARENT_RULES
# looked up per kind, without building a (kind, slot) key per edge
_SLOT_RULES: dict[str, dict[str, tuple[tuple[str, ...], str]]] = {
    kind: {slot: PARENT_RULES[kind, slot] for slot in slots} for kind, slots in KIND_SLOTS.items()
}
_NO_RULES: dict[str, tuple[tuple[str, ...], str]] = {}


def chain_reaches(parent_of: Callable[[str], str | None], node: str | None, child: str,
                  limit: int) -> bool | None:
    """Whether walking up one kind's chain from ``node``, a parent at a time
    through ``parent_of``, reaches ``child``: whether a chain edge from
    ``child`` to ``node`` would close a cycle, the test greedy_positions
    makes on mention rows and edge_violations on each legal chain edge,
    stated on names. The walk ends at None; one that runs past ``limit``
    nodes, which only a chain that already holds a cycle does, gives None.
    """
    for _ in range(limit):
        if node is None:
            return False
        if node == child:
            return True
        node = parent_of(node)
    return None


def edge_violations(doc: Document, edges: dict[tuple[str, str], str]) -> list[str]:
    """Check that ``edges`` fill every slot of ``doc`` legally and without a cycle.

    Violations list the unfilled slots in ``doc.slots`` order, then the
    edges that break PARENT_RULES in edge order, then one cycle. An edge
    whose child is no mention, or whose slot its child's kind does not have,
    does not belong to the document. Kinds are read from ``doc.by_id``.

    One pass over the edges checks each and counts those that do not
    belong. Each other fills a distinct slot of a mention id under its
    ``doc.by_id`` kind, so they number ``len(doc.slots)`` only when every
    such slot is filled and no earlier mention of a repeated id owns a
    slot; only when they number fewer are the slots walked for unfilled ones.
    A legal edge closes a cycle only along one kind's chain (a parent of the
    child's own kind), and a mention has at most one chain edge, so each
    legal chain edge walks up those seen so far (chain_reaches): reaching
    its child is a cycle, whatever the edge order. find_cycle words the
    cycle, on each child's mention parents in edge order, and runs only when
    the walk found one, an edge is illegal or a mention id names a meta
    node, whose meta edges the walk does not follow.
    """
    by_id = doc.by_id
    illegal: list[str] = []
    up: dict[str, str] = {}  # each mention's chain parent, among the edges seen so far
    limit = len(doc.mentions) + 2  # a walk past it has entered a cycle already in up
    cyclic = False
    foreign = 0
    for (child, name), parent in edges.items():
        mention = by_id.get(child)
        rule = None if mention is None else _SLOT_RULES.get(mention.kind, _NO_RULES).get(name)
        if rule is None:
            illegal.append(f"slot {Slot(child, name)} does not belong to document {doc.id}")
            foreign += 1
            continue
        metas, parent_kind = rule
        if parent in metas:
            continue
        target = by_id.get(parent)
        if parent == child or target is None or target.kind != parent_kind:
            illegal.append(f"slot {Slot(child, name)}: parent {parent} is not a legal candidate")
        elif parent_kind == mention.kind:
            # parent is not child, so with no chain parent yet it reaches no other
            if parent in up and chain_reaches(up.get, parent, child, limit) is not False:
                cyclic = True
            up[child] = parent
    violations: list[str] = []
    if len(edges) - foreign < len(doc.slots):
        violations = [f"slot {slot} is unfilled" for slot in doc.slots if slot not in edges]
    violations += illegal
    if cyclic or illegal or not by_id.keys().isdisjoint(META_NODES):
        succs: dict[str, list[str]] = {}
        for (child, _), parent in edges.items():
            if child in by_id and parent in by_id:
                succs.setdefault(child, []).append(parent)
        cycle = find_cycle(by_id, succs)
        if cycle is not None:
            violations.append("edges form a cycle: " + " -> ".join(cycle))
    return violations


def validate_document(doc: Document) -> list[str]:
    """Check every invariant of a document as document_from_json builds it;
    return one description per violation.

    Violations are data, not faults: the list is empty iff the document is
    well formed. Each entry names the offending sentence, mention, or edge.
    The gold edges go through edge_violations, like a predicted graph.
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
        if m.sentence not in sent_len:
            violations.append(f"mention {m.id}: sentence {m.sentence} does not exist")
        elif not (0 <= m.start < m.end <= sent_len[m.sentence]):
            violations.append(
                f"mention {m.id}: span [{m.start}, {m.end}) outside sentence "
                f"{m.sentence} of length {sent_len[m.sentence]}"
            )

    edges: dict[tuple[str, str], str] = {}
    for e in doc.gold_edges:
        slot = (e.child, e.slot)
        if e.label is not None and e.label not in EDGE_LABELS:
            violations.append(f"gold slot {Slot(*slot)}: unknown label {e.label!r}")
        if slot in edges:
            violations.append(f"gold slot {Slot(*slot)}: more than one edge "
                              f"(parents {edges[slot]} and {e.parent})")
        else:
            edges[slot] = e.parent
    violations += ["gold " + v for v in edge_violations(doc, edges)]
    return violations


class FieldError(ValueError):
    """A JSON input is malformed, is not an object, or holds a field of the wrong type."""


def parse_object(text: str) -> dict:
    """The JSON object ``text`` holds; FieldError if it is malformed or holds another value."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FieldError(f"malformed JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise FieldError(f"not a JSON object but a {type(obj).__name__}")
    return obj


# each JSON type's Python types (a list default may be a tuple) and its name
_JSON_TYPES = {str: ({str}, "a string"), int: ({int}, "an integer"),
               float: ({int, float}, "a finite number"), Real: ({int, float}, "a number"),
               list: ({list, tuple}, "a list"), dict: ({dict}, "an object")}


def is_json(value, kind: type, item: type | None = None) -> bool:
    """Whether ``value`` has JSON type ``kind`` and, given ``item``, each of
    its elements type ``item``. Types are exact, so a bool is no number; a
    float, or an int in its place, must be finite as a float; a Real may not."""
    if type(value) not in _JSON_TYPES[kind][0] \
            or kind is float and not abs(value) <= sys.float_info.max:
        return False
    return item is None or set(map(type, value)) <= _JSON_TYPES[item][0] and (
        item is not float or all(abs(v) <= sys.float_info.max for v in value))


def json_field(obj: dict, key: str, kind: type, where: str = "", item: type | None = None):
    """``obj[key]`` if is_json(obj[key], kind, item), else FieldError naming
    ``where`` (when given) and the field."""
    value = obj.get(key)
    if type(value) is kind and item is None and kind is not float or is_json(value, kind, item):
        return value
    at = f"{where}: " if where else ""
    if key not in obj:
        raise FieldError(f"{at}missing required field {key!r}")
    of = f" of {_JSON_TYPES[item][1].split(' ', 1)[1]}s" if item else ""
    raise FieldError(f"{at}field {key!r} must be {_JSON_TYPES[kind][1]}{of}, "
                     f"not {reprlib.repr(value)}")


MAX_COUNT = 2**31 - 1  # a config's largest count or size: the scorer's largest int32 row


def intern_str(value):
    """``value`` interned if it is a str; any other value, which a validator
    reports later, as it is."""
    return intern(value) if type(value) is str else value


_Parts = tuple[str, str, list[Sentence], list[Mention], list[GoldEdge]]
_STR, _INT, _LIST, _DICT = {str}, {int}, {list}, {dict}


def _typed_parts(obj: dict) -> _Parts | None:
    """A corpus line's fields, each list built in one comprehension of direct
    subscripts, or None when a JSON type check fails. A whole list's types
    are checked at once, as the set of their ``type()``; ``intern`` takes an
    exact str only, so it checks every name and token it interns. A missing
    field or a record that is no object raises KeyError or TypeError."""
    doc_id, dct = obj["id"], obj["dct"]
    sents, ments, links = obj["sentences"], obj["mentions"], obj["edges"]
    if {type(doc_id), type(dct)} != _STR or {type(sents), type(ments), type(links)} != _LIST \
            or not {*map(type, sents), *map(type, ments), *map(type, links)} <= _DICT \
            or not {type(s["tokens"]) for s in sents} <= _LIST:
        return None
    sentences = [Sentence(s["index"], tuple(map(intern, s["tokens"]))) for s in sents]
    mentions = [Mention(intern(m["id"]), intern(m["kind"]), m["sentence"], m["start"], m["end"])
                for m in ments]
    edges = [GoldEdge(intern(e["child"]), intern(e["slot"]), intern(e["parent"]),
                      intern_str(e.get("label"))) for e in links]
    ints = {type(s.index) for s in sentences} | {type(m.sentence) for m in mentions} \
        | {type(m.start) for m in mentions} | {type(m.end) for m in mentions}
    return (doc_id, dct, sentences, mentions, edges) if ints <= _INT else None


def _parts_by_field(obj: dict) -> _Parts:
    """A corpus line's fields read one json_field at a time, so that a
    missing field, or one whose JSON type is not the documented one, raises
    FieldError naming it."""
    doc_id = json_field(obj, "id", str)
    dct = json_field(obj, "dct", str)
    at = "sentence"
    sentences = [Sentence(index=json_field(s, "index", int, at),
                          tokens=tuple(map(intern, json_field(s, "tokens", list, at, str))))
                 for s in json_field(obj, "sentences", list, "", dict)]
    at = "mention"
    mentions = [Mention(id=intern(json_field(m, "id", str, at)),
                        kind=intern(json_field(m, "kind", str, at)),
                        sentence=json_field(m, "sentence", int, at),
                        start=json_field(m, "start", int, at), end=json_field(m, "end", int, at))
                for m in json_field(obj, "mentions", list, "", dict)]
    at = "edge"
    edges = [GoldEdge(child=intern(json_field(e, "child", str, at)),
                      slot=intern(json_field(e, "slot", str, at)),
                      parent=intern(json_field(e, "parent", str, at)),
                      label=intern_str(e.get("label")))
             for e in json_field(obj, "edges", list, "", dict)]
    return doc_id, dct, sentences, mentions, edges


def document_from_json(obj: dict, share: SlotShare | None = None) -> Document:
    """Build a Document from its JSON object, giving every event without an
    event_ref edge a NO_EVENT one; a missing field, or one whose JSON type is
    not the documented one, raises FieldError. Names are interned, slots shared via ``share``.

    One typed pass builds a line whose every field has its type; any other
    line is read again field by field, which words the error."""
    try:
        parts = _typed_parts(obj)
    except (KeyError, TypeError):
        parts = None
    doc_id, dct, sentences, mentions, edges = parts or _parts_by_field(obj)
    covered = {e.child for e in edges if e.slot == EVENT_REF}
    edges += [GoldEdge(child=m.id, slot=EVENT_REF, parent=NO_EVENT)
              for m in mentions if m.kind == EVENT and m.id not in covered]
    return Document(id=doc_id, dct=dct, sentences=sentences, mentions=mentions,
                    gold_edges=edges, share=share)


def decode_line(line: bytes) -> str:
    """One line of an input file, read as bytes, as text; FieldError if it is not UTF-8."""
    try:
        return line.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FieldError(f"not UTF-8 text: {exc}") from None


def read_corpus(path: str | Path) -> Iterator[tuple[str, Document | None, list[str]]]:
    """Read a JSONL corpus line by line, yielding ``(where, doc, violations)``.

    ``where`` is ``path:lineno``. ``doc`` is None when a line yields no
    document (not UTF-8, malformed JSON, a structural error, a duplicate
    id); its one violation then names the line itself. Otherwise
    ``violations`` is what validate_document finds in it. Blank lines are
    skipped. The documents of one read share their slots.
    """
    name = str(path)
    seen: set[str] = set()
    share: SlotShare = {}
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            where = f"{name}:{lineno}"
            try:
                line = decode_line(raw)
                if not line or line.isspace():
                    continue
                doc = document_from_json(parse_object(line), share)
            except FieldError as exc:
                yield where, None, [f"{where}: {exc}"]
                continue
            if doc.id in seen:
                yield where, None, [f"{where}: duplicate document id {doc.id!r}"]
                continue
            seen.add(doc.id)
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


def corpus_lines(corpus: Corpus) -> Iterator[str]:
    """Each document as one JSONL line, the inverse of parse_corpus on valid input."""
    return (json.dumps(document_to_json(d), ensure_ascii=False) + "\n" for d in corpus)


def write_atomic(path: str | Path, chunks: Iterable[str]) -> None:
    """Write the text ``chunks`` as UTF-8, in order, to a temporary file beside
    ``path`` and rename it over ``path``, so the target holds its old bytes or
    all the new ones, even when producing a chunk fails. Files of many lines
    are streamed a line at a time; text held whole is passed as one chunk."""
    tmp = Path(f"{path}.tmp")
    try:
        with tmp.open("w", encoding="utf-8") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    finally:  # removes what a failed write left; a renamed file is gone already
        tmp.unlink(missing_ok=True)


def write_corpus(corpus: Corpus, path: str | Path) -> None:
    write_atomic(path, corpus_lines(corpus))


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
    """Read a doc_id<TAB>sentence_index<TAB>tag file about the corpus; a bad
    line, one that is not UTF-8 included, raises DpLabelError naming it. A
    sentence left out raises DpLabelError only where its label is read."""
    path = Path(path)
    docs = {d.id: d for d in corpus}
    labels: DpLabelMap = {}
    with path.open("rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = decode_line(raw).rstrip("\r\n")
            except FieldError as exc:
                raise DpLabelError(f"{path}:{lineno}: {exc}") from None
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise DpLabelError(
                    f"{path}:{lineno}: expected doc_id<TAB>sentence_index<TAB>tag"
                )
            doc_id, index_str, tag = parts
            doc = docs.get(doc_id)
            if doc is None:
                raise DpLabelError(f"{path}:{lineno}: unknown document id {doc_id!r}")
            if not (index_str.isascii() and index_str.isdigit()) \
                    or index_str != str(index := int(index_str)):
                raise DpLabelError(f"{path}:{lineno}: sentence index {index_str!r} is not "
                                   "an integer in canonical form (digits, no leading 0)")
            if not 0 <= index < len(doc.sentences):
                raise DpLabelError(
                    f"{path}:{lineno}: document {doc_id!r} has no sentence {index}"
                )
            try:
                ct = ContentType(tag)
            except ValueError:
                raise DpLabelError(f"{path}:{lineno}: unknown content type {tag!r}") from None
            key = (doc.id, index)  # the document's own id object, not the line's copy
            if key in labels:
                raise DpLabelError(f"{path}:{lineno}: duplicate entry for {key}")
            labels[key] = ct
    return labels


def dp_label_lines(labels: DpLabelMap, corpus: Corpus) -> Iterator[str]:
    """One load_dp_labels line per sentence of the corpus, in corpus order."""
    return (f"{doc.id}\t{sent.index}\t{labels[(doc.id, sent.index)].value}\n"
            for doc in corpus for sent in doc.sentences)


def write_dp_labels(labels: DpLabelMap, corpus: Corpus, path: str | Path) -> None:
    write_atomic(path, dp_label_lines(labels, corpus))
