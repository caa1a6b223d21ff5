import ast
import json
import random
import re
from pathlib import Path

import pytest

from tdgparse import corpus as corpus_module
from tdgparse import scorer
from tdgparse.analysis import all_tables
from tdgparse.corpus import (
    META_NODES,
    META_PARENT,
    NOT_A_MENTION,
    OTHER_SENTENCE,
    SAME_SENTENCE,
    ContentType,
    CorpusError,
    Document,
    DpLabelError,
    GoldEdge,
    Mention,
    Sentence,
    corpus_lines,
    load_dp_labels,
    parse_corpus,
    require_dp_coverage,
    validate_document,
    write_atomic,
    write_corpus,
    write_dp_labels,
)
from tdgparse.evaluation import CATEGORIES
from tdgparse.graph import TemporalDependencyGraph, graph_from_json, graph_to_json
from tdgparse.scorer import ModelConfig, build_vocabulary, save_checkpoint
from tdgparse.synth import SynthConfig, generate_synthetic_corpus

from .conftest import HAND_DOCS, initialized_model, make_doc
from .oracles import gold_parents, random_document, reference_gold_table


def test_parse_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    assert parse_corpus(path) == []


def test_parse_single_timex_doc(tmp_path):
    obj = {
        "id": "d1", "dct": "2021-01-01",
        "sentences": [{"index": 0, "tokens": ["monday"]}],
        "mentions": [{"id": "t1", "kind": "timex", "sentence": 0,
                      "start": 0, "end": 1}],
        "edges": [{"child": "t1", "slot": "timex_ref", "parent": "DCT"}],
    }
    path = tmp_path / "one.jsonl"
    path.write_text(json.dumps(obj) + "\n")
    corpus = parse_corpus(path)
    assert len(corpus) == 1
    assert len(corpus[0].gold_edges) == 1
    assert corpus[0].gold_edges[0].parent == "DCT"


def test_no_event_normalization(hand_corpus):
    doc_c = next(d for d in hand_corpus if d.id == "c")
    assert GoldEdge(child="e5", slot="event_ref", parent="NO_EVENT") \
        in doc_c.gold_edges
    # slot totality after normalization
    for doc in hand_corpus:
        n_timex = sum(1 for m in doc.mentions if m.kind == "timex")
        n_event = sum(1 for m in doc.mentions if m.kind == "event")
        timex_ref = [e for e in doc.gold_edges if e.slot == "timex_ref"]
        event_ref = [e for e in doc.gold_edges if e.slot == "event_ref"]
        assert len(timex_ref) == n_timex + n_event
        assert len(event_ref) == n_event


def test_malformed_json_names_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "a"}\nnot json\n')
    with pytest.raises(CorpusError, match=r"bad\.jsonl:1"):
        parse_corpus(path)
    path.write_text(json.dumps(HAND_DOCS[0]) + "\nnot json\n")
    with pytest.raises(CorpusError, match=r"bad\.jsonl:2.*malformed"):
        parse_corpus(path)


def test_duplicate_document_id(tmp_path):
    line = json.dumps(HAND_DOCS[0])
    path = tmp_path / "dup.jsonl"
    path.write_text(line + "\n" + line + "\n")
    with pytest.raises(CorpusError, match="duplicate document id"):
        parse_corpus(path)


def test_validate_clean_fixture(hand_corpus):
    for doc in hand_corpus:
        assert validate_document(doc) == []


def _base_doc():
    return {
        "id": "v", "dct": "2021-01-01",
        "sentences": [{"index": 0, "tokens": ["a", "b", "c"]}],
        "mentions": [
            {"id": "t1", "kind": "timex", "sentence": 0, "start": 0, "end": 1},
            {"id": "t2", "kind": "timex", "sentence": 0, "start": 1, "end": 2},
            {"id": "e1", "kind": "event", "sentence": 0, "start": 2, "end": 3},
        ],
        "edges": [
            {"child": "t1", "slot": "timex_ref", "parent": "DCT"},
            {"child": "t2", "slot": "timex_ref", "parent": "t1"},
            {"child": "e1", "slot": "timex_ref", "parent": "t1"},
        ],
    }


def test_validate_double_timex_ref():
    obj = _base_doc()
    obj["edges"].append({"child": "t1", "slot": "timex_ref", "parent": "ROOT"})
    doc = make_doc(obj, validate=False)
    assert validate_document(doc) == [
        "gold slot Slot(child='t1', slot='timex_ref'): more than one edge "
        "(parents DCT and ROOT)"]


def test_validate_cycle_reported():
    obj = _base_doc()
    obj["edges"][0] = {"child": "t1", "slot": "timex_ref", "parent": "t2"}
    doc = make_doc(obj, validate=False)
    violations = validate_document(doc)
    assert any("cycle" in v and "t1" in v and "t2" in v for v in violations)


def test_validate_span_and_sentence_bounds():
    obj = _base_doc()
    obj["mentions"][0]["end"] = 9
    obj["mentions"][1]["sentence"] = 3
    doc = make_doc(obj, validate=False)
    violations = validate_document(doc)
    assert any("t1" in v and "span" in v for v in violations)
    assert any("t2" in v and "sentence 3" in v for v in violations)


def test_validate_event_cannot_reference_root():
    obj = _base_doc()
    obj["edges"][2] = {"child": "e1", "slot": "timex_ref", "parent": "ROOT"}
    doc = make_doc(obj, validate=False)
    assert any("ROOT" in v for v in validate_document(doc))


def test_validate_event_timex_ref_parent_must_be_timex():
    obj = _base_doc()
    obj["mentions"].append(
        {"id": "e2", "kind": "event", "sentence": 0, "start": 0, "end": 1})
    obj["edges"][2] = {"child": "e1", "slot": "timex_ref", "parent": "e2"}
    obj["edges"].append({"child": "e2", "slot": "timex_ref", "parent": "DCT"})
    doc = make_doc(obj, validate=False)
    assert validate_document(doc) == [
        "gold slot Slot(child='e1', slot='timex_ref'): parent e2 is not a legal candidate"]


def test_validate_timex_has_no_event_ref():
    obj = _base_doc()
    obj["edges"].append({"child": "t1", "slot": "event_ref", "parent": "NO_EVENT"})
    doc = make_doc(obj, validate=False)
    assert validate_document(doc) == [
        "gold slot Slot(child='t1', slot='event_ref') does not belong to document v"]


def test_validate_unknown_label_and_slot():
    obj = _base_doc()
    obj["edges"][0]["label"] = "simultaneous"
    obj["edges"].append({"child": "e1", "slot": "anchor", "parent": "DCT"})
    doc = make_doc(obj, validate=False)
    violations = validate_document(doc)
    assert any("unknown label" in v for v in violations)
    assert "gold slot Slot(child='e1', slot='anchor') does not belong to document v" \
        in violations


def test_round_trip_identity(hand_corpus, tmp_path):
    path = tmp_path / "rt.jsonl"
    write_corpus(hand_corpus, path)
    again = parse_corpus(path)
    assert list(corpus_lines(again)) == list(corpus_lines(hand_corpus))
    assert again == hand_corpus


def test_load_dp_labels_total(hand_corpus, hand_dp_path):
    labels = load_dp_labels(hand_dp_path, hand_corpus)
    assert len(labels) == 5
    assert labels[("a", 0)] is ContentType.M1
    assert labels[("b", 1)] is ContentType.D1


def test_load_dp_labels_missing_sentence(hand_corpus, tmp_path):
    """A map that misses a sentence loads; each reader of that sentence's
    label raises DpLabelError naming the gap."""
    path = tmp_path / "gap.tsv"
    path.write_text("a\t0\tM1\na\t1\tC2\nb\t0\tD1\nb\t1\tD1\n")
    labels = load_dp_labels(path, hand_corpus)
    assert sorted(labels) == [("a", 0), ("a", 1), ("b", 0), ("b", 1)]
    vocab = build_vocabulary(hand_corpus)
    assert scorer._index_document(hand_corpus[0], vocab, labels).ctype.tolist() == [0, 3]
    with pytest.raises(DpLabelError, match=re.escape("document c: missing (c, 0)")):
        scorer._index_document(hand_corpus[2], vocab, labels)
    with pytest.raises(DpLabelError, match=re.escape("the corpus: missing (c, 0)")):
        all_tables(hand_corpus, labels)
    with pytest.raises(DpLabelError, match=re.escape("the corpus: missing (c, 0)")):
        require_dp_coverage(labels, hand_corpus)


def test_load_dp_labels_unknown_tag(hand_corpus, tmp_path):
    path = tmp_path / "tag.tsv"
    path.write_text("a\t0\tM3\n")
    with pytest.raises(DpLabelError, match="unknown content type"):
        load_dp_labels(path, hand_corpus)


def test_load_dp_labels_unknown_doc_and_bad_index(hand_corpus, tmp_path):
    path = tmp_path / "doc.tsv"
    path.write_text("zz\t0\tM1\n")
    with pytest.raises(DpLabelError, match="unknown document id"):
        load_dp_labels(path, hand_corpus)
    path.write_text("a\t9\tM1\n")
    with pytest.raises(DpLabelError, match="no sentence 9"):
        load_dp_labels(path, hand_corpus)
    path.write_text("a\tx\tM1\n")
    with pytest.raises(DpLabelError, match="not an integer"):
        load_dp_labels(path, hand_corpus)
    # int() reads these as 10, 1 and 2; write_dp_labels never writes them
    for index in ("1_0", "+1", " 2"):
        path.write_text(f"a\t0\tM1\na\t{index}\tC2\n")
        with pytest.raises(DpLabelError, match=re.escape(
                f"doc.tsv:2: sentence index '{index}' is not an integer")):
            load_dp_labels(path, hand_corpus)


@pytest.mark.parametrize("row", ["a\t0", "a 0 M1", "a\t0\tM1\tC2"])
def test_load_dp_labels_row_needs_three_fields(row, hand_corpus, tmp_path):
    path = tmp_path / "fields.tsv"
    path.write_text(f"a\t0\tM1\n{row}\n")
    with pytest.raises(DpLabelError, match=re.escape(
            "fields.tsv:2: expected doc_id<TAB>sentence_index<TAB>tag")):
        load_dp_labels(path, hand_corpus)


def test_load_dp_labels_names_a_line_that_is_not_utf8(hand_corpus, hand_dp_labels, tmp_path):
    path = tmp_path / "latin1.tsv"
    path.write_bytes("a\t0\tM1\na\t1\tC2\xe9\n".encode("latin-1"))
    with pytest.raises(DpLabelError, match=re.escape(
            f"{path}:2: not UTF-8 text: 'utf-8' codec can't decode byte 0xe9")):
        load_dp_labels(path, hand_corpus)
    # each line is decoded on its own, and a CRLF line ending still reads
    path.write_bytes(b"".join(f"{d}\t{i}\t{ct.value}\r\n".encode()
                              for (d, i), ct in hand_dp_labels.items()))
    assert load_dp_labels(path, hand_corpus) == hand_dp_labels


def test_load_dp_labels_duplicate(hand_corpus, tmp_path):
    path = tmp_path / "dup.tsv"
    path.write_text("a\t0\tM1\na\t0\tM1\n")
    with pytest.raises(DpLabelError, match="duplicate"):
        load_dp_labels(path, hand_corpus)


def test_dp_labels_round_trip(hand_corpus, hand_dp_path, tmp_path):
    labels = load_dp_labels(hand_dp_path, hand_corpus)
    path = tmp_path / "again.tsv"
    write_dp_labels(labels, hand_corpus, path)
    assert load_dp_labels(path, hand_corpus) == labels


def test_only_corpus_parses_json():
    """Every JSON input is read by corpus.parse_object: no other module of the
    package calls json.load or json.loads, or imports them from json."""
    parsers = {}
    for path in sorted((Path(__file__).resolve().parents[1] / "src" / "tdgparse").glob("*.py")):
        if path.name == "corpus.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in ("load", "loads") \
                    and isinstance(node.value, ast.Name) and node.value.id == "json" \
                    or isinstance(node, ast.ImportFrom) and node.module == "json" \
                    and {a.name for a in node.names} & {"load", "loads"}:
                parsers.setdefault(path.name, []).append(node.lineno)
    assert parsers == {}


def test_an_interrupted_write_keeps_the_old_file(hand_corpus, tmp_path, monkeypatch):
    model = initialized_model(ModelConfig(dim=3, hidden=2), build_vocabulary(hand_corpus),
                              seed=0)
    checkpoint, corpus = tmp_path / "checkpoint.json", tmp_path / "corpus.jsonl"
    save_checkpoint(model, checkpoint)
    write_corpus(hand_corpus[:1], corpus)
    before = {path: path.read_bytes() for path in (checkpoint, corpus)}

    def interrupted(path, chunks):
        """write_atomic fed the first half of the text, then a chunk that fails."""
        text = "".join(chunks)

        def stream():
            yield text[: len(text) // 2]
            raise OSError("no space left on device")

        write_atomic(path, stream())

    for module in (scorer, corpus_module):
        monkeypatch.setattr(module, "write_atomic", interrupted)
    with pytest.raises(OSError, match="no space"):
        save_checkpoint(model, checkpoint, seed=1)
    with pytest.raises(OSError, match="no space"):
        write_corpus(hand_corpus, corpus)
    monkeypatch.undo()
    assert {path: path.read_bytes() for path in before} == before
    assert sorted(tmp_path.iterdir()) == sorted(before)  # no temporary file is left


def _writes_a_file(call: ast.Call) -> bool:
    """Whether ``call`` is a write_text, write_bytes or os.replace call, or an
    open whose mode is not a constant free of w, a, x and +."""
    func = call.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    if name == "replace":
        return isinstance(func, ast.Attribute) and getattr(func.value, "id", None) == "os"
    if name != "open":
        return name in ("write_text", "write_bytes")
    modes = [kw.value for kw in call.keywords if kw.arg == "mode"]
    modes += call.args[1:2] if isinstance(func, ast.Name) else call.args[:1]  # open(f, mode)
    return any(not (isinstance(m, ast.Constant) and isinstance(m.value, str))
               or set(m.value) & set("wax+") for m in modes)


def test_only_corpus_writes_files():
    """Every file is written by corpus.write_atomic: no other module of the
    package calls write_text, write_bytes or os.replace, or opens a file to write."""
    writers = {}
    for path in sorted((Path(__file__).resolve().parents[1] / "src" / "tdgparse").glob("*.py")):
        if path.name == "corpus.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and _writes_a_file(node):
                writers.setdefault(path.name, []).append(node.lineno)
    assert writers == {}


def _names(node: ast.AST, name: str) -> bool:
    """Whether ``node`` names ``name``: reads it by its bare name or as a
    module attribute, or imports it."""
    if isinstance(node, ast.ImportFrom):
        return any(alias.name == name for alias in node.names)
    return getattr(node, "id", None) == name \
        or isinstance(node, ast.Attribute) and node.attr == name


def test_only_corpus_reads_a_kinds_slots():
    """The order of a document's slots is decided in one place: no module of
    the package but corpus.py, which builds Document.slots, imports or reads
    KIND_SLOTS in any way. The scan finds corpus.py's own."""
    readers = {}
    for path in sorted((Path(__file__).resolve().parents[1] / "src" / "tdgparse").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if _names(node, "KIND_SLOTS"):
                readers.setdefault(path.name, []).append(node.lineno)
    assert "corpus.py" in readers
    del readers["corpus.py"]
    assert readers == {}


def test_only_candidate_layout_derives_each_candidates_slot():
    """graph.slot_of runs once per document, in graph.candidate_layout: no
    other code of the package calls, imports or reads it, so every index and
    laid-out run carries the layout's ``cand_slot`` rather than deriving it
    again. Each use is named by its module and top-level definition."""
    users = []
    for path in sorted((Path(__file__).resolve().parents[1] / "src" / "tdgparse").glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            users += [(path.name, getattr(top, "name", None))
                      for node in ast.walk(top) if _names(node, "slot_of")]
    assert users == [("graph.py", "candidate_layout")]


def test_each_kinds_chain_slot_is_its_last():
    """CHAIN_SLOTS names, for each kind, the slot whose parents are of that
    kind, and it is the last of the kind's slots: greedy_positions skips all
    but a mention's last slot when it looks for a cycle."""
    assert corpus_module.CHAIN_SLOTS == {"timex": "timex_ref", "event": "event_ref"}
    for kind, slot in corpus_module.CHAIN_SLOTS.items():
        assert corpus_module.KIND_SLOTS[kind][-1] == slot


def test_no_module_imports_a_name_it_never_uses():
    """Every name a module of the package imports (``from __future__`` aside)
    is read somewhere in that module, so a merge leaves no dead import."""
    unused = {}
    for path in sorted((Path(__file__).resolve().parents[1] / "src" / "tdgparse").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {alias.asname or alias.name.split(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names}
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        if imported - read:
            unused[path.name] = sorted(imported - read)
    assert unused == {}


def test_no_definition_is_used_only_by_tests():
    """Every function, class and method the package defines (dunders aside)
    is referenced from the package or from perfbench/: by a name, an
    attribute, an import, or a string naming what the benchmark's tracer
    patches. A definition only tests/ reference belongs in tests/."""
    root = Path(__file__).resolve().parents[1]
    package = sorted((root / "src" / "tdgparse").glob("*.py"))
    defined: dict[str, str] = {}
    referenced: set[str] = set()
    for path in package + sorted((root / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and path in package \
                    and not node.name.startswith("__"):
                defined.setdefault(node.name, f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name.rpartition(".")[2])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                referenced.add(node.value)
    assert len(defined) > 100
    assert {name: at for name, at in defined.items() if name not in referenced} == {}


def test_every_oracle_is_used_by_another_test_module():
    """Every public name tests/oracles.py defines at module level, function,
    class or constant, is referenced from another module of tests/, so a
    reference whose code is gone does not linger."""
    tests = Path(__file__).resolve().parent
    tree = ast.parse((tests / "oracles.py").read_text(encoding="utf-8"))
    defined = {node.name for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    defined.update(target.id for node in tree.body if isinstance(node, ast.Assign)
                   for target in node.targets if isinstance(target, ast.Name))
    referenced: set[str] = set()
    for path in sorted(tests.glob("*.py")):
        if path.name != "oracles.py":
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    referenced.add(node.id)
                elif isinstance(node, ast.Attribute):
                    referenced.add(node.attr)
                elif isinstance(node, ast.alias):
                    referenced.add(node.name)
    public = {name for name in defined if not name.startswith("_")}
    assert len(public) > 40
    assert sorted(public - referenced) == []


def test_only_corpus_maps_gold_edges():
    """Document.gold is the one slot -> gold parent map: the package builds
    one dict comprehension over a document's gold_edges, in that property."""
    builders = {}
    for path in sorted((Path(__file__).resolve().parents[1] / "src" / "tdgparse").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {id(node): f.name for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
                 for node in ast.walk(f)}
        for node in ast.walk(tree):
            if isinstance(node, ast.DictComp) and any(
                    isinstance(n, ast.Attribute) and n.attr == "gold_edges"
                    for gen in node.generators for n in ast.walk(gen.iter)):
                builders.setdefault(path.name, []).append(owner.get(id(node)))
    assert builders == {"corpus.py": ["gold"]}


def _shared(names) -> None:
    """AssertionError unless equal names are one object."""
    first: dict[str, str] = {}
    for name in names:
        assert first.setdefault(name, name) is name, name


def _assert_shares_names(docs) -> None:
    """Equal names across ``docs`` are one object, each gold edge's child and
    mention parent are its mention's own id, and no record has a __dict__."""
    _shared(t for doc in docs for s in doc.sentences for t in s.tokens)
    _shared(name for doc in docs for m in doc.mentions for name in (m.id, m.kind))
    _shared(name for doc in docs for e in doc.gold_edges
            for name in (e.child, e.slot, e.parent, e.label) if name is not None)
    for doc in docs:
        for e in doc.gold_edges:
            assert e.child is doc.mention(e.child).id
            assert e.parent in META_NODES or e.parent is doc.mention(e.parent).id
        for record in (*doc.sentences, *doc.mentions, *doc.gold_edges):
            assert not hasattr(record, "__dict__"), type(record).__name__


def test_a_corpus_holds_one_object_per_distinct_name(tmp_path):
    """parse_corpus, load_dp_labels, graph_from_json and the generator share
    every name: one str object per value, however many documents hold it."""
    # two documents with the same tokens and mention ids, each name longer
    # than the one character CPython caches by itself
    objs = [{**HAND_DOCS[0], "id": f"doc-{n}"} for n in ("one", "two")]
    path = tmp_path / "two.jsonl"
    path.write_text("".join(json.dumps(obj) + "\n" for obj in objs), encoding="utf-8")
    docs = parse_corpus(path)
    _assert_shares_names(docs)
    one, two = docs
    assert one.sentences[0].tokens[0] is two.sentences[0].tokens[0]
    assert one.mentions[0].id is two.mentions[0].id

    labels_path = tmp_path / "two.tsv"
    labels_path.write_text("".join(f"{d.id}\t{s.index}\tM1\n" for d in docs
                                   for s in d.sentences), encoding="utf-8")
    ids = {d.id: d.id for d in docs}
    assert all(doc_id is ids[doc_id] for doc_id, _ in load_dp_labels(labels_path, docs))

    line = json.dumps(graph_to_json(TemporalDependencyGraph(two.id, gold_parents(two)), two))
    gold = {(e.child, e.slot): e for e in two.gold_edges}
    for (child, slot), parent in graph_from_json(json.loads(line), two).edges.items():
        edge = gold[child, slot]
        assert (child, slot, parent) == (edge.child, edge.slot, edge.parent)
        assert child is edge.child and slot is edge.slot and parent is edge.parent

    synthetic, _ = generate_synthetic_corpus(SynthConfig(n_docs=6), seed=3)
    _assert_shares_names(synthetic)


def test_the_documents_of_one_call_share_their_slots(tmp_path):
    """The documents of one parse_corpus or generator call hold one tuple of
    Slots per mention id and kind; another read, and a document built on its
    own, hold their own, so no Slot outlives the documents that hold it."""
    objs = [{**HAND_DOCS[0], "id": f"doc-{n}"} for n in ("one", "two")]
    path = tmp_path / "two.jsonl"
    path.write_text("".join(json.dumps(obj) + "\n" for obj in objs), encoding="utf-8")
    one, two = parse_corpus(path)
    assert one.slots and all(a is b for a, b in zip(one.mention_slots, two.mention_slots,
                                                    strict=True))
    again = parse_corpus(path)[0]
    alone = Document(one.id, one.dct, one.sentences, one.mentions, one.gold_edges)
    for other in (again, alone):
        assert other.slots == one.slots
        assert not any(a is b for a, b in zip(other.slots, one.slots))

    synthetic, _ = generate_synthetic_corpus(SynthConfig(n_docs=6), seed=3)
    share: dict = {}
    for doc in synthetic:
        for m, own in zip(doc.ordered_mentions(), doc.mention_slots, strict=True):
            assert share.setdefault((m.id, m.kind), own) is own
    assert len(share) < sum(len(doc.mentions) for doc in synthetic)


# each gold table category by the name reference_gold_table gives it
_CATEGORY_NAMES = {SAME_SENTENCE: "intra_sentence", OTHER_SENTENCE: "cross_sentence",
                   META_PARENT: "no_parent", NOT_A_MENTION: "not_a_mention"}


def _gold_rows(doc: Document) -> list:
    parents, categories = doc.gold
    return [(p, _CATEGORY_NAMES[c]) for p, c in zip(parents, categories, strict=True)]


def _doc(mentions: list[tuple], edges: list[tuple]) -> Document:
    """A document built directly, unvalidated: mentions as (id, kind,
    sentence) in sentences 0 to 2, edges as (child, slot, parent)."""
    return Document("h", "DCT", [Sentence(i, ("w", "x")) for i in range(3)],
                    [Mention(i, kind, sent, 0, 1) for i, kind, sent in mentions],
                    [GoldEdge(*edge) for edge in edges])


GOLD_TABLE_CASES = {
    "two_edges_on_one_slot": _doc([("t1", "timex", 0)], [("t1", "timex_ref", "ROOT"),
                                                         ("t1", "timex_ref", "DCT")]),
    "slot_without_edge": _doc([("t1", "timex", 0), ("e1", "event", 1)],
                              [("t1", "timex_ref", "DCT"), ("e1", "timex_ref", "t1")]),
    "parent_no_mention": _doc([("e1", "event", 0), ("e2", "event", 0)],
                              [("e1", "timex_ref", "DCT"), ("e1", "event_ref", "nobody"),
                               ("e2", "timex_ref", "DCT"), ("e2", "event_ref", "e1")]),
    # the twins of t1 lie in sentences 0 and 2, the later ordered before t2;
    # a parent t1 is the last twin
    "repeated_ids": _doc([("t1", "timex", 0), ("t2", "timex", 2), ("t1", "timex", 2)],
                         [("t1", "timex_ref", "t2"), ("t2", "timex_ref", "t1")]),
    "no_mention": _doc([], []),
}


def test_gold_table_matches_reference():
    """Document.gold gives every slot, in slot_instances order, the parent
    of its first gold edge and that parent's category, as
    reference_gold_table does, on random and hand-built documents; its
    first three categories are evaluation.CATEGORIES in order."""
    assert [_CATEGORY_NAMES[c] for c in range(3)] == list(CATEGORIES)
    rng = random.Random(29)
    docs = [random_document(rng, max_mentions=12, doc_id=f"r{i}") for i in range(300)]
    docs += list(GOLD_TABLE_CASES.values())
    for doc in docs:
        assert _gold_rows(doc) == reference_gold_table(doc), doc.id
        assert doc.gold is doc.gold
    assert {category for doc in docs for category in doc.gold.categories} == set(_CATEGORY_NAMES)
    assert _gold_rows(GOLD_TABLE_CASES["two_edges_on_one_slot"]) == [("ROOT", "no_parent")]
    assert _gold_rows(GOLD_TABLE_CASES["slot_without_edge"])[-1] == (None, "not_a_mention")
    assert _gold_rows(GOLD_TABLE_CASES["repeated_ids"]) == [
        ("t2", "cross_sentence"), ("t2", "intra_sentence"), ("t1", "intra_sentence")]
    assert GOLD_TABLE_CASES["no_mention"].gold == ((), b"")


def test_parsing_never_computes_the_gold_table(tmp_path, monkeypatch):
    """parse_corpus, which validates every document, reads no gold table."""
    def refuse(doc):
        raise AssertionError(f"document {doc.id}: parsing computed its gold table")

    docs, _ = generate_synthetic_corpus(SynthConfig(n_docs=5), seed=4)
    write_corpus(docs, tmp_path / "c.jsonl")
    monkeypatch.setattr(Document, "gold", property(refuse))
    assert parse_corpus(tmp_path / "c.jsonl") == docs


def test_parsing_a_valid_corpus_reads_no_field_one_at_a_time(tmp_path, monkeypatch):
    """Every line of a valid corpus takes document_from_json's typed pass,
    so parse_corpus calls json_field on none of them; one line with a field
    of the wrong type is read again field by field."""
    fields = []
    json_field = corpus_module.json_field

    def counted(obj, key, *args):
        fields.append(key)
        return json_field(obj, key, *args)

    docs, _ = generate_synthetic_corpus(SynthConfig(n_docs=20), seed=4)
    path = tmp_path / "c.jsonl"
    write_corpus(docs, path)
    monkeypatch.setattr(corpus_module, "json_field", counted)
    assert parse_corpus(path) == docs
    assert fields == []

    obj = json.loads(path.read_text(encoding="utf-8").splitlines()[3])
    obj["mentions"][0]["start"] = 1.0
    path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
    with pytest.raises(CorpusError, match="field 'start' must be an integer, not 1.0"):
        parse_corpus(path)
    assert "start" in fields
