import math
import statistics

import numpy as np
import pytest

from adrtag.encoding import ADR, IND, Span
from adrtag.evaluation import (
    EvalReport,
    MatchCounts,
    aggregate_trials,
    approximate_match,
    evaluate_tagging,
    format_report,
    prf,
)
from adrtag.model import AdrModel
from adrtag.numerics import NumericalError
from test_encoding import random_span_set


def exhaustive_max_matching(preds, golds, label=ADR):
    """Independent oracle: true maximum bipartite matching over the
    same-label one-token-overlap graph, by exhaustive recursion."""
    ps = [s for s in preds if s.label == label]
    gs = [s for s in golds if s.label == label]

    def count(gi, used):
        if gi == len(gs):
            return 0
        best = count(gi + 1, used)
        g = gs[gi]
        for i, p in enumerate(ps):
            if not (used >> i) & 1 and p.start < g.end and g.start < p.end:
                best = max(best, 1 + count(gi + 1, used | (1 << i)))
        return best

    return MatchCounts(matched=count(0, 0), predicted=len(ps), gold=len(gs))


class TestApproximateMatch:
    def test_partial_overlap_counts(self):
        counts = approximate_match([Span(1, 3, ADR)], [Span(2, 6, ADR)])
        assert counts == MatchCounts(1, 1, 1)

    def test_disjoint_spans_do_not_match(self):
        counts = approximate_match([Span(0, 1, ADR)], [Span(5, 6, ADR)])
        assert counts.matched == 0

    def test_single_token_of_two_token_gold_matches(self):
        # prediction covering only "gain" of gold "weight gain"
        counts = approximate_match([Span(2, 3, ADR)], [Span(1, 3, ADR)])
        assert counts.matched == 1

    def test_label_must_agree(self):
        counts = approximate_match([Span(0, 2, IND)], [Span(0, 2, ADR)])
        assert counts == MatchCounts(0, 0, 1)

    def test_indication_scoring_behind_label_argument(self):
        counts = approximate_match([Span(0, 2, IND)], [Span(0, 2, IND)], label=IND)
        assert counts == MatchCounts(1, 1, 1)

    def test_each_gold_matched_at_most_once(self):
        counts = approximate_match([Span(0, 6, ADR)], [Span(0, 2, ADR), Span(3, 5, ADR)])
        assert counts.matched == 1  # one prediction consumed by one gold

    def test_agrees_with_exhaustive_matching_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            preds = random_span_set(rng, 12)
            golds = random_span_set(rng, 12)
            assert approximate_match(preds, golds) == exhaustive_max_matching(preds, golds)

    def test_adding_prediction_never_decreases_matched(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            golds = random_span_set(rng, 10)
            preds = random_span_set(rng, 10)
            base = approximate_match(preds, golds).matched
            extra = preds + [Span(50, 51, ADR)]
            assert approximate_match(extra, golds).matched >= base

    def test_spurious_prediction_strictly_lowers_precision(self):
        preds = [Span(0, 2, ADR)]
        golds = [Span(1, 3, ADR)]
        p0 = prf(approximate_match(preds, golds))[0]
        p1 = prf(approximate_match(preds + [Span(50, 51, ADR)], golds))[0]
        assert p1 < p0

    def test_exact_prediction_is_perfect(self):
        spans = [Span(0, 2, ADR), Span(4, 5, ADR)]
        assert prf(approximate_match(spans, list(spans))) == (1.0, 1.0, 1.0)

    def test_permutation_invariant(self):
        preds = [Span(0, 2, ADR), Span(4, 6, ADR), Span(8, 9, ADR)]
        golds = [Span(1, 3, ADR), Span(8, 9, ADR)]
        a = approximate_match(preds, golds)
        b = approximate_match(preds[::-1], golds[::-1])
        assert a == b


class TestPrf:
    def test_hand_values(self):
        p, r, f1 = prf(MatchCounts(3, 4, 5))
        assert p == 0.75
        assert r == 0.6
        assert f1 == pytest.approx(2 * 0.45 / 1.35, abs=1e-12)

    def test_no_predictions(self):
        assert prf(MatchCounts(0, 0, 5)) == (0.0, 0.0, 0.0)

    def test_no_gold(self):
        assert prf(MatchCounts(0, 3, 0)) == (0.0, 0.0, 0.0)

    def test_perfect(self):
        assert prf(MatchCounts(4, 4, 4)) == (1.0, 1.0, 1.0)

    def test_f1_is_harmonic_mean(self):
        p, r, f1 = prf(MatchCounts(2, 3, 8))
        assert f1 == pytest.approx(2 * p * r / (p + r))


class TestAggregateTrials:
    def test_identical_trials_zero_std(self):
        rep = aggregate_trials([(0.5, 0.5, 0.5)] * 4)
        assert rep.mean == (0.5, 0.5, 0.5)
        assert rep.std == (0.0, 0.0, 0.0)

    def test_two_trials_sample_std(self):
        rep = aggregate_trials([(0.7, 0.7, 0.7), (0.8, 0.8, 0.8)])
        assert rep.mean[2] == pytest.approx(0.75)
        assert rep.std[2] == pytest.approx(math.sqrt(0.005), abs=1e-9)  # ~0.0707

    def test_distinct_trials_match_statistics(self):
        # two trials alone cannot tell the sample std's n - 1 from other forms
        trials = [(0.61, 0.52, 0.56), (0.70, 0.91, 0.79), (0.66, 0.40, 0.50), (0.93, 0.35, 0.51)]
        rep = aggregate_trials(trials)
        for k, column in enumerate(zip(*trials)):
            assert rep.mean[k] == pytest.approx(statistics.mean(column), rel=1e-12)
            assert rep.std[k] == pytest.approx(statistics.stdev(column), rel=1e-12)

    def test_single_trial(self):
        rep = aggregate_trials([(0.3, 0.4, 0.35)])
        assert rep.mean == (0.3, 0.4, 0.35)
        assert rep.std == (0.0, 0.0, 0.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate_trials([])

    def test_format_has_per_trial_rows_and_summary(self):
        rep = aggregate_trials([(0.7, 0.7, 0.7), (0.8, 0.8, 0.8)])
        out = format_report(rep)
        lines = out.splitlines()
        assert len(lines) == 4  # header, two trials, summary
        assert "±" in lines[-1]
        assert lines[-1].startswith("mean")


def test_overflowing_embedding_row_fails_instead_of_tagging():
    """A huge but finite row overflows the gate sums; the NaN states it leads
    to would otherwise tag every position I-ADR."""
    embeddings = np.random.default_rng(0).normal(size=(6, 3))
    model = AdrModel(embeddings, hidden=2, drug_count=2, seed=0)
    data = [([1, 2, 3], [2, 2, 2], "ok"), ([4, 5], [0, 2], "huge")]
    assert evaluate_tagging(model, data).gold == 1
    table = model.embeddings.copy()  # the model's own table is read-only
    table[5] = 1.7e308
    model.embeddings = table
    model.cells[1].i.value[...] = 1.0
    with pytest.raises(NumericalError, match="encoder forward overflowed"):
        evaluate_tagging(model, data)
