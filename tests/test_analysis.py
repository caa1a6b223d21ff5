import math

import pytest

from tdgparse.analysis import TABLES, all_tables, render_csv, render_text, summary_checks
from tdgparse.corpus import ContentType, DpLabelError
from tdgparse.synth import SynthConfig, generate_synthetic_corpus

from .conftest import HAND_DOCS, make_doc

EMPTY = ("M2", "C1", "D2", "D3", "D4")


def table_named(name, corpus, dp):
    """One of all_tables' tables, picked by name."""
    return {t.name: t for t in all_tables(corpus, dp)}[name]


def test_timex_parent_table_by_hand(hand_corpus, hand_dp_labels):
    table = table_named("timex_parents", hand_corpus, hand_dp_labels)
    assert table.col_labels == ("DCT", "Meta", "OtherTimex")
    for row, cells in (("M1", (100.0, 0.0, 0.0)),
                       ("C2", (0.0, 0.0, 100.0)),
                       ("D1", (0.0, 100.0, 0.0)),
                       ("NA", (100.0, 0.0, 0.0))):
        assert table.denominator(row) == 1
        assert tuple(table.cell(row, c) for c in table.col_labels) == cells
    for row in EMPTY:
        assert table.denominator(row) == 0
        assert all(math.isnan(table.cell(row, c)) for c in table.col_labels)


def test_event_reftimex_table_by_hand(hand_corpus, hand_dp_labels):
    table = table_named("event_reference_timexes", hand_corpus, hand_dp_labels)
    assert table.col_labels == ("DCT", "IntraSentenceTimex", "CrossSentenceTimex")
    assert table.denominator("D1") == 2
    assert tuple(table.cell("D1", c) for c in table.col_labels) == (50.0, 50.0, 0.0)
    assert table.cell("M1", "IntraSentenceTimex") == 100.0
    assert table.cell("C2", "CrossSentenceTimex") == 100.0
    assert table.cell("NA", "IntraSentenceTimex") == 100.0


def test_content_matrices_by_hand(hand_corpus, hand_dp_labels):
    # e4 -> DCT is excluded; the remaining reference timexes sit in M1, D1,
    # and NA sentences respectively
    timex_m = table_named("event_reference_timex_content", hand_corpus, hand_dp_labels)
    assert timex_m.col_labels == timex_m.row_labels
    assert timex_m.cell("M1", "M1") == 100.0
    assert timex_m.cell("C2", "M1") == 100.0
    assert timex_m.cell("D1", "D1") == 100.0
    assert timex_m.cell("NA", "NA") == 100.0
    assert all(timex_m.denominator(r) == 1 for r in ("M1", "C2", "D1", "NA"))

    # only e2->e1 (C2 child, M1 parent) and e4->e3 (D1 child, D1 parent)
    # cross sentences
    event_m = table_named("event_reference_event_content", hand_corpus, hand_dp_labels)
    assert event_m.cell("C2", "M1") == 100.0
    assert event_m.cell("D1", "D1") == 100.0
    assert event_m.denominator("M1") == 0
    assert event_m.denominator("NA") == 0


def test_tables_require_total_labels(hand_corpus, hand_dp_labels):
    partial = dict(hand_dp_labels)
    del partial[("c", 0)]
    with pytest.raises(DpLabelError, match="missing"):
        all_tables(hand_corpus, partial)


def test_row_sums_on_random_corpora():
    for seed in range(10):
        corpus, labels = generate_synthetic_corpus(SynthConfig(n_docs=12), seed)
        for table in all_tables(corpus, labels):
            for i, row in enumerate(table.row_labels):
                if table.denominators[i] == 0:
                    assert all(math.isnan(v) for v in table.cells[i])
                else:
                    assert sum(table.cells[i]) == pytest.approx(100.0, abs=0.1)


def test_degenerate_corpus_pins_columns():
    tags = {t: (1.0, 0.0) for t in
            ("M1", "M2", "C1", "C2", "D1", "D2", "D3", "D4", "NA")}
    config = SynthConfig(n_docs=15, timex_share=0.5,
                         timex_parent_probs=tags,
                         event_timex_probs={t: (0.0, 1.0) for t in tags})
    corpus, labels = generate_synthetic_corpus(config, seed=4)
    timexes = table_named("timex_parents", corpus, labels)
    events = table_named("event_reference_timexes", corpus, labels)
    for i, row in enumerate(timexes.row_labels):
        if timexes.denominators[i]:
            assert timexes.cells[i] == [100.0, 0.0, 0.0]
    for i, row in enumerate(events.row_labels):
        if events.denominators[i]:
            # a sentence is not guaranteed a timex; DCT absorbs the rest
            assert events.cell(row, "CrossSentenceTimex") == 0.0


def test_document_order_is_irrelevant(hand_corpus, hand_dp_labels):
    forward = all_tables(hand_corpus, hand_dp_labels)
    backward = all_tables(list(reversed(hand_corpus)), hand_dp_labels)
    assert [t.name for t in forward] == [name for name, _cols in TABLES]
    for a, b in zip(forward, backward):
        assert a.denominators == b.denominators
        for ra, rb in zip(a.cells, b.cells):
            assert all(x == y or (math.isnan(x) and math.isnan(y))
                       for x, y in zip(ra, rb))


def test_render_csv_and_text(hand_corpus, hand_dp_labels):
    table = table_named("event_reference_timexes", hand_corpus, hand_dp_labels)
    csv = render_csv(table)
    lines = csv.splitlines()
    assert lines[0] == "content_type,n,DCT,IntraSentenceTimex,CrossSentenceTimex"
    assert "D1,2,50.0,50.0,0.0" in lines
    assert "M2,0,-,-,-" in lines
    assert csv.endswith("\n")

    text = render_text(table)
    assert text.startswith("event_reference_timexes\n")
    assert "50.0" in text and "-" in text
    # fixed-width: every row renders to the same width
    widths = {len(line) for line in text.splitlines()[1:]}
    assert len(widths) == 1


def test_summary_checks_hand_corpus(hand_corpus, hand_dp_labels):
    table = table_named("timex_parents", hand_corpus, hand_dp_labels)
    d1_check, dct_check = summary_checks(table)
    assert d1_check["passed"] is True
    assert d1_check["value"] == 100.0
    # the C2 row's lone timex points at another timex, so the DCT-share
    # claim fails on this corpus
    assert dct_check["passed"] is False
    assert dct_check["worst_row"] == "C2"
    assert dct_check["value"] == 0.0


def test_summary_checks_degenerate_and_missing_rows():
    tags = {t: (1.0, 0.0) for t in
            ("M1", "M2", "C1", "C2", "D1", "D2", "D3", "D4", "NA")}
    corpus, labels = generate_synthetic_corpus(
        SynthConfig(n_docs=15, timex_share=0.5, timex_parent_probs=tags), seed=4)
    d1_check, dct_check = summary_checks(table_named("timex_parents", corpus, labels))
    assert dct_check["passed"] is True
    assert dct_check["value"] == 100.0
    assert d1_check["passed"] is False  # everything points at the DCT

    solo = [make_doc(HAND_DOCS[0])]
    labels = {("a", 0): ContentType.M1, ("a", 1): ContentType.C2}
    d1_check, dct_check = summary_checks(table_named("timex_parents", solo, labels))
    assert d1_check["passed"] is False
    assert d1_check["value"] is None
    assert dct_check["worst_row"] == "C2"
