"""Distributions of reference mentions across discourse content types.

Four tables describe where gold reference edges land, broken down by the
content type of the child's sentence: timex parents (DCT / meta / other
timex), event reference-timex parents (DCT / same sentence / cross
sentence), and two child-type-by-parent-type matrices for mention parents.
Cells are row percentages; a row with no qualifying children renders as "-".
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .corpus import (
    CONTENT_TYPE_INDEX,
    CONTENT_TYPES,
    DCT,
    META_NODES,
    ROOT,
    TIMEX,
    TIMEX_REF,
    Corpus,
    DpLabelMap,
    require_dp_coverage,
)

ROW_LABELS = tuple(ct.value for ct in CONTENT_TYPES)


@dataclass
class DistributionTable:
    name: str
    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]
    cells: list[list[float]]  # row percentages; NaN row when denominator is 0
    denominators: list[int]

    def cell(self, row: str, col: str) -> float:
        return self.cells[self.row_labels.index(row)][self.col_labels.index(col)]

    def denominator(self, row: str) -> int:
        return self.denominators[self.row_labels.index(row)]


def _table(name: str, col_labels: tuple[str, ...],
           counts: list[list[int]]) -> DistributionTable:
    cells: list[list[float]] = []
    denominators: list[int] = []
    for row_counts in counts:
        denom = sum(row_counts)
        denominators.append(denom)
        if denom == 0:
            cells.append([math.nan] * len(col_labels))
        else:
            cells.append([100.0 * c / denom for c in row_counts])
    return DistributionTable(name=name, row_labels=ROW_LABELS,
                             col_labels=col_labels, cells=cells,
                             denominators=denominators)


# the four tables in all_tables order, as (name, column labels)
TABLES = (
    ("timex_parents", ("DCT", "Meta", "OtherTimex")),
    ("event_reference_timexes", ("DCT", "IntraSentenceTimex", "CrossSentenceTimex")),
    ("event_reference_timex_content", ROW_LABELS),
    ("event_reference_event_content", ROW_LABELS),
)


def all_tables(corpus: Corpus, dp: DpLabelMap) -> list[DistributionTable]:
    """The four tables of TABLES, counted in one sweep over the gold edges.

    Rows are the content type of the child's sentence:
    - timex_parents: where a timex points, the DCT, the meta root or another
      timex;
    - event_reference_timexes: where an event anchors in time, the DCT, a
      same-sentence timex or one further away;
    - event_reference_timex_content: the content type of an event's non-DCT
      reference timex;
    - event_reference_event_content: the content type of an event's
      cross-sentence reference event.
    Sentence indexes run 0, 1, ... as validation requires, so each document's
    content types are one list indexed by sentence, each label read once. A
    label missing from ``dp`` raises require_dp_coverage's DpLabelError over
    the whole corpus.
    """
    counts = [[[0] * len(cols) for _ in ROW_LABELS] for _, cols in TABLES]
    timex_parents, event_timexes, timex_content, event_content = counts
    for doc in corpus:
        try:
            types = [CONTENT_TYPE_INDEX[dp[doc.id, s.index]] for s in doc.sentences]
        except KeyError:
            require_dp_coverage(dp, corpus)
            raise
        by_id = doc.by_id
        for edge in doc.gold_edges:
            slot, parent = edge.slot, edge.parent
            child = by_id[edge.child]
            row = types[child.sentence]
            if slot == TIMEX_REF:
                if child.kind == TIMEX:
                    timex_parents[row][0 if parent == DCT else 1 if parent == ROOT else 2] += 1
                elif parent == DCT:
                    event_timexes[row][0] += 1
                elif parent not in META_NODES:
                    target = by_id[parent]
                    event_timexes[row][1 if target.sentence == child.sentence else 2] += 1
                    timex_content[row][types[target.sentence]] += 1
            elif parent not in META_NODES:
                target = by_id[parent]
                if target.sentence != child.sentence:
                    event_content[row][types[target.sentence]] += 1
    return [_table(name, cols, table) for (name, cols), table in zip(TABLES, counts)]


def _fmt(value: float) -> str:
    return "-" if math.isnan(value) else f"{value:.1f}"


def render_csv(table: DistributionTable) -> str:
    lines = ["content_type,n," + ",".join(table.col_labels)]
    for i, row in enumerate(table.row_labels):
        cells = ",".join(_fmt(v) for v in table.cells[i])
        lines.append(f"{row},{table.denominators[i]},{cells}")
    return "\n".join(lines) + "\n"


def render_text(table: DistributionTable) -> str:
    """Aligned fixed-width table, one content type per row."""
    headers = ["type", "n"] + list(table.col_labels)
    rows = [[row, str(table.denominators[i])]
            + [_fmt(v) for v in table.cells[i]]
            for i, row in enumerate(table.row_labels)]
    widths = [max(len(h), *(len(r[c]) for r in rows))
              for c, h in enumerate(headers)]
    out = [table.name]
    out.append("  ".join(h.rjust(widths[c]) for c, h in enumerate(headers)))
    for r in rows:
        out.append("  ".join(cell.rjust(widths[c]) for c, cell in enumerate(r)))
    return "\n".join(out) + "\n"


def summary_checks(timex_table: DistributionTable) -> list[dict]:
    """The two headline claims about timex anchoring, as pass/fail records.

    Historical (D1) sentences send most timexes to the meta root; every
    other content type anchors timexes on the DCT at least two thirds of
    the time. Rows without timexes are skipped.
    """
    checks: list[dict] = []
    d1_meta = timex_table.cell("D1", "Meta")
    checks.append({
        "check": "D1 timexes reference the meta root >= 60% of the time",
        "passed": bool(not math.isnan(d1_meta) and d1_meta >= 60.0),
        "value": None if math.isnan(d1_meta) else round(d1_meta, 1),
    })
    worst_row, worst = None, math.inf
    for row in timex_table.row_labels:
        if row == "D1" or timex_table.denominator(row) == 0:
            continue
        share = timex_table.cell(row, "DCT")
        if share < worst:
            worst_row, worst = row, share
    checks.append({
        "check": "non-D1 timexes reference the DCT >= 66% of the time",
        "passed": bool(worst_row is not None and worst >= 66.0),
        "value": None if worst_row is None else round(worst, 1),
        "worst_row": worst_row,
    })
    return checks
