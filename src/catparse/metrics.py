"""Tuple-based tree evaluation.

Trees are flattened to (level, type, content) tuples and matched as
multisets; precision, recall and F1 come from the matched counts. The
overall score uses the full tuple multiset, while per-type and per-level
scores filter both sides first, which is why overall can sit below both
per-type scores. Corpus aggregation is micro: counts are summed across
documents before any ratio is taken.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .tree import CatalogTree, EvalTuple, NodeKind, flatten


class EmptyEvaluation(Exception):
    """Aggregation was requested over zero documents."""


@dataclass(frozen=True)
class PRF:
    matched: int = 0
    gold_count: int = 0
    pred_count: int = 0

    @property
    def precision(self) -> float:
        return self.matched / self.pred_count if self.pred_count else 0.0

    @property
    def recall(self) -> float:
        return self.matched / self.gold_count if self.gold_count else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if p + r > 0 else 0.0

    def __add__(self, other: "PRF") -> "PRF":
        return PRF(
            matched=self.matched + other.matched,
            gold_count=self.gold_count + other.gold_count,
            pred_count=self.pred_count + other.pred_count,
        )

    def to_dict(self) -> dict:
        return {
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "matched": self.matched,
            "gold_count": self.gold_count,
            "pred_count": self.pred_count,
        }


@dataclass
class EvalReport:
    overall: PRF = field(default_factory=PRF)
    by_type: dict[NodeKind, PRF] = field(default_factory=dict)
    by_level: dict[int, PRF] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "overall": self.overall.to_dict(),
            "heading": self.by_type.get(NodeKind.HEADING, PRF()).to_dict(),
            "text": self.by_type.get(NodeKind.TEXT, PRF()).to_dict(),
            "by_level": {
                str(level): prf.to_dict()
                for level, prf in sorted(self.by_level.items())
            },
        }


def _match(gold: Sequence[EvalTuple], pred: Sequence[EvalTuple]) -> PRF:
    gold_counter = Counter(gold)
    pred_counter = Counter(pred)
    matched = sum((gold_counter & pred_counter).values())
    return PRF(matched=matched, gold_count=len(gold), pred_count=len(pred))


def evaluate(gold: CatalogTree, pred: CatalogTree) -> EvalReport:
    """Match one predicted tree against its gold tree."""
    gold_tuples = flatten(gold)
    pred_tuples = flatten(pred)
    report = EvalReport(overall=_match(gold_tuples, pred_tuples))
    for kind in (NodeKind.HEADING, NodeKind.TEXT):
        report.by_type[kind] = _match(
            [t for t in gold_tuples if t.kind is kind],
            [t for t in pred_tuples if t.kind is kind],
        )
    levels = {t.level for t in gold_tuples} | {t.level for t in pred_tuples}
    for level in sorted(levels):
        report.by_level[level] = _match(
            [t for t in gold_tuples if t.level == level],
            [t for t in pred_tuples if t.level == level],
        )
    return report


def aggregate(reports: Iterable[EvalReport]) -> EvalReport:
    """Micro-aggregate per-document reports by summing their counts."""
    reports = list(reports)
    if not reports:
        raise EmptyEvaluation("no documents to aggregate")
    total = EvalReport()
    for report in reports:
        total.overall = total.overall + report.overall
        for kind, prf in report.by_type.items():
            total.by_type[kind] = total.by_type.get(kind, PRF()) + prf
        for level, prf in report.by_level.items():
            total.by_level[level] = total.by_level.get(level, PRF()) + prf
    return total


def format_report(report: EvalReport) -> str:
    """Human-readable aligned score table."""
    rows = [("scope", "P", "R", "F1", "matched", "gold", "pred")]

    def add(name: str, prf: PRF) -> None:
        rows.append(
            (
                name,
                f"{prf.precision:.4f}",
                f"{prf.recall:.4f}",
                f"{prf.f1:.4f}",
                str(prf.matched),
                str(prf.gold_count),
                str(prf.pred_count),
            )
        )

    add("overall", report.overall)
    add("heading", report.by_type.get(NodeKind.HEADING, PRF()))
    add("text", report.by_type.get(NodeKind.TEXT, PRF()))
    for level in sorted(report.by_level):
        add(f"level {level}", report.by_level[level])

    return format_table(rows)


def format_table(rows: Sequence[Sequence[str]]) -> str:
    """Align ``rows`` of cells: the first column left, the others right."""
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = []
    for row in rows:
        cells = [row[0].ljust(widths[0])] + [
            cell.rjust(widths[i]) for i, cell in enumerate(row) if i > 0
        ]
        lines.append("  ".join(cells))
    return "\n".join(lines)
