"""Confusion-matrix metrics for per-timestep binary verdicts (attack = positive)."""

from dataclasses import asdict, dataclass

import numpy as np

from .detectors import VerdictSeries


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    tn: int
    fn: int

    def __post_init__(self):
        if min(self.tp, self.fp, self.tn, self.fn) < 0:
            raise ValueError("counts must be non-negative")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


@dataclass(frozen=True)
class MetricsReport:
    accuracy: float
    precision: float
    recall: float
    f1: float


def report_from_counts(counts: ConfusionCounts) -> MetricsReport:
    """Standard binary metrics; every zero denominator yields 0."""
    total = counts.total
    accuracy = (counts.tp + counts.tn) / total if total else 0.0
    p_den = counts.tp + counts.fp
    precision = counts.tp / p_den if p_den else 0.0
    r_den = counts.tp + counts.fn
    recall = counts.tp / r_den if r_den else 0.0
    f1 = 2.0 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return MetricsReport(accuracy=accuracy, precision=precision, recall=recall, f1=f1)


def score(verdicts: VerdictSeries, labels: np.ndarray) -> tuple[ConfusionCounts, MetricsReport]:
    """Score attack flags against ground-truth labels of equal length."""
    truth = np.asarray(labels, dtype=bool)
    flags = verdicts.flags
    if len(truth) != len(flags):
        raise ValueError(f"labels length {len(truth)} != verdicts length {len(flags)}")
    counts = ConfusionCounts(
        tp=int(np.sum(flags & truth)),
        fp=int(np.sum(flags & ~truth)),
        tn=int(np.sum(~flags & ~truth)),
        fn=int(np.sum(~flags & truth)),
    )
    return counts, report_from_counts(counts)


def report_text(counts: ConfusionCounts, report: MetricsReport) -> str:
    """Flat key-value block: each count, then each metric, one per line as its repr."""
    values = asdict(counts) | asdict(report)
    return "".join(f"{name} {value!r}\n" for name, value in values.items())
