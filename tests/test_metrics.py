import numpy as np
import pytest

from cps_sentinel.detectors import VerdictSeries
from cps_sentinel.metrics import (
    ConfusionCounts,
    report_from_counts,
    report_text,
    score,
)
from cps_sentinel.rng import Rng


def verdicts_from(flags):
    flags = np.asarray(flags, dtype=bool)
    return VerdictSeries(
        indices=np.arange(len(flags)),
        flags=flags,
        scores=np.zeros(len(flags)),
    )


def test_hand_example():
    counts = ConfusionCounts(tp=2, fp=1, tn=6, fn=1)
    report = report_from_counts(counts)
    assert counts.total == 10
    assert report.accuracy == 0.8
    assert report.precision == pytest.approx(2 / 3)
    assert report.recall == pytest.approx(2 / 3)
    assert report.f1 == pytest.approx(2 / 3)


def test_perfect_predictions():
    labels = [False, True, True, False, True]
    counts, report = score(verdicts_from(labels), labels)
    assert (counts.tp, counts.fp, counts.tn, counts.fn) == (3, 0, 2, 0)
    assert report == report_from_counts(counts)
    assert report.accuracy == report.precision == report.recall == report.f1 == 1.0


def test_all_normal_gives_zero_metrics():
    counts, report = score(verdicts_from([False] * 8), [False] * 8)
    assert counts.tn == 8 and counts.tp == 0
    assert report.accuracy == 1.0
    assert report.precision == report.recall == report.f1 == 0.0


def test_zero_denominators_yield_zero():
    # No predicted positives: precision 0; no actual positives: recall 0.
    report = report_from_counts(ConfusionCounts(tp=0, fp=0, tn=5, fn=3))
    assert report.precision == 0.0 and report.f1 == 0.0
    report = report_from_counts(ConfusionCounts(tp=0, fp=4, tn=5, fn=0))
    assert report.recall == 0.0 and report.f1 == 0.0
    report = report_from_counts(ConfusionCounts(tp=0, fp=0, tn=0, fn=0))
    assert report.accuracy == 0.0


def test_f1_is_harmonic_mean_identity():
    rng = Rng(1)
    for _ in range(200):
        tp, fp, tn, fn = (rng.randint(50) for _ in range(4))
        report = report_from_counts(ConfusionCounts(tp=tp, fp=fp, tn=tn, fn=fn))
        p, r = report.precision, report.recall
        expected = 2.0 * p * r / (p + r) if p + r > 0 else 0.0
        assert abs(report.f1 - expected) <= 1e-12


def test_score_is_permutation_invariant():
    rng = Rng(2)
    flags = rng.uniform_array(100) < 0.3
    labels = rng.uniform_array(100) < 0.2
    counts_a, _ = score(verdicts_from(flags), labels)
    perm = np.arange(100)
    rng.shuffle(perm)
    counts_b, _ = score(verdicts_from(flags[perm]), labels[perm])
    assert counts_a == counts_b


def test_score_counts_match_loop_oracle():
    rng = Rng(3)
    flags = rng.uniform_array(60) < 0.4
    labels = rng.uniform_array(60) < 0.4
    counts, _ = score(verdicts_from(flags), labels)
    tp = sum(1 for f, l in zip(flags, labels) if f and l)
    fp = sum(1 for f, l in zip(flags, labels) if f and not l)
    tn = sum(1 for f, l in zip(flags, labels) if not f and not l)
    fn = sum(1 for f, l in zip(flags, labels) if not f and l)
    assert (counts.tp, counts.fp, counts.tn, counts.fn) == (tp, fp, tn, fn)


def test_score_rejects_length_mismatch():
    with pytest.raises(ValueError, match="length"):
        score(verdicts_from([True, False]), [True])


def test_counts_reject_negatives():
    with pytest.raises(ValueError, match="non-negative"):
        ConfusionCounts(tp=-1, fp=0, tn=0, fn=0)


def test_report_text_format():
    counts = ConfusionCounts(tp=2, fp=1, tn=6, fn=1)
    text = report_text(counts, report_from_counts(counts))
    assert text == (
        "tp 2\nfp 1\ntn 6\nfn 1\n"
        "accuracy 0.8\nprecision 0.6666666666666666\n"
        "recall 0.6666666666666666\nf1 0.6666666666666666\n"
    )


def test_text_floats_round_trip():
    counts = ConfusionCounts(tp=7, fp=3, tn=11, fn=2)
    report = report_from_counts(counts)
    lines = report_text(counts, report).splitlines()
    parsed = dict(line.split(" ") for line in lines)
    assert float(parsed["f1"]) == report.f1
    assert float(parsed["accuracy"]) == report.accuracy
