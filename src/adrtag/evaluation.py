"""Approximate-match precision/recall/F1 on ADR spans, with multi-trial
aggregation (mean and sample standard deviation)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from . import training
from .encoding import ADR, Span, decode_spans


@dataclass
class MatchCounts:
    matched: int = 0
    predicted: int = 0
    gold: int = 0

    def __add__(self, other: "MatchCounts") -> "MatchCounts":
        return MatchCounts(
            self.matched + other.matched,
            self.predicted + other.predicted,
            self.gold + other.gold,
        )


def approximate_match(
    predicted: Sequence[Span], gold: Sequence[Span], label: str = ADR
) -> MatchCounts:
    """Count gold spans overlapped by a same-label predicted span.

    A gold span matches if any predicted span of the same label shares at
    least one token with it. Each gold span is matched at most once, and each
    predicted span may be consumed by at most one gold span (greedy, in
    position order). Only spans carrying ``label`` are counted.
    """
    preds = sorted(s for s in predicted if s.label == label)
    golds = sorted(s for s in gold if s.label == label)
    used = [False] * len(preds)
    matched = 0
    for g in golds:
        for i, p in enumerate(preds):
            if used[i]:
                continue
            if p.start < g.end and g.start < p.end:
                used[i] = True
                matched += 1
                break
    return MatchCounts(matched=matched, predicted=len(preds), gold=len(golds))


def prf(counts: MatchCounts) -> Tuple[float, float, float]:
    """Precision, recall, F1 with zero-denominator cases returning 0."""
    p = counts.matched / counts.predicted if counts.predicted else 0.0
    r = counts.matched / counts.gold if counts.gold else 0.0
    f1 = 2 * p * r / (p + r) if p + r > 0 else 0.0
    return p, r, f1


@dataclass
class EvalReport:
    per_trial: List[Tuple[float, float, float]]
    mean: Tuple[float, float, float]
    std: Tuple[float, float, float]


def aggregate_trials(per_trial: Sequence[Tuple[float, float, float]]) -> EvalReport:
    """Mean and sample (n-1) standard deviation of each metric; std is 0 for
    a single trial."""
    if not per_trial:
        raise ValueError("no trials to aggregate")
    n = len(per_trial)
    means = tuple(sum(t[k] for t in per_trial) / n for k in range(3))
    if n == 1:
        stds = (0.0, 0.0, 0.0)
    else:
        stds = tuple(
            math.sqrt(sum((t[k] - means[k]) ** 2 for t in per_trial) / (n - 1))
            for k in range(3)
        )
    return EvalReport(per_trial=list(per_trial), mean=means, std=stds)


def format_report(report: EvalReport) -> str:
    lines = ["trial\tprecision\trecall\tf1"]
    for i, (p, r, f1) in enumerate(report.per_trial, start=1):
        lines.append(f"{i}\t{p:.4f}\t{r:.4f}\t{f1:.4f}")
    mp, mr, mf = report.mean
    sp, sr, sf = report.std
    lines.append(
        f"mean ± std\t{mp:.4f} ± {sp:.4f}\t{mr:.4f} ± {sr:.4f}\t{mf:.4f} ± {sf:.4f}"
    )
    return "\n".join(lines)


def evaluate_tagging(model, data, label: str = ADR) -> MatchCounts:
    """Micro-averaged counts of a tagger over (token ids, gold tag ids, tweet
    id) records, tagged length-sorted by :func:`training.predict_chunks`, each
    chunk padded to its own longest record, so nothing is truncated."""
    total = MatchCounts()
    records = sorted(data, key=lambda r: len(r[0]))
    for chunk, lengths, pred in training.predict_chunks(model.predict_tag_batch, records):
        for row, n, (_, gold, _) in zip(pred, lengths, chunk):
            total += approximate_match(decode_spans(row[:n].tolist()), decode_spans(gold), label)
    return total
