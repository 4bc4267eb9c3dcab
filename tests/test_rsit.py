import math

import pytest

from polyseq import ModelPredictor, ReferenceModel
from polyseq.corpus import labeled_corpus
from polyseq.rsit import (
    compare_strategies,
    format_table,
    r2_score,
    rmse_score,
    rsit,
    squared_loss,
)


class ConstantPredictor:
    def predict(self, psmiles):
        return 1.5


class LengthPredictor:
    """Counts atoms in the string, so repetition doubles the prediction."""

    def predict(self, psmiles):
        return float(sum(c.isalpha() for c in psmiles))


class FailingPredictor:
    def __init__(self, bad):
        self.bad = bad

    def predict(self, psmiles):
        if psmiles == self.bad:
            raise RuntimeError("boom")
        return 0.0


SAMPLES = [("*CONO*", 1.0), ("*CC(C)O*", 2.0), ("*CCOC(=O)*", 1.4)]


class TestMetrics:
    def test_r2_perfect(self):
        assert r2_score([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 1.0

    def test_r2_mean_predictor_is_zero(self):
        assert r2_score([1.0, 2.0, 3.0], [2.0, 2.0, 2.0]) == pytest.approx(0.0)

    def test_r2_constant_labels(self):
        assert r2_score([2.0, 2.0], [2.0, 2.0]) == 1.0
        assert r2_score([2.0, 2.0], [1.0, 3.0]) == 0.0

    def test_rmse(self):
        assert rmse_score([0.0, 0.0], [3.0, 4.0]) == pytest.approx(
            math.sqrt(12.5))


class TestHarness:
    def test_invariant_predictor_zero_gap(self):
        rep = rsit(ConstantPredictor(), SAMPLES, T=4, seed=1)
        assert rep.rsit_gap == 0.0
        assert rep.adv_metric == rep.clean_metric
        for s in rep.samples:
            assert s.adv_predict == s.base_prediction

    def test_adv_loss_never_below_clean(self):
        rep = rsit(LengthPredictor(), SAMPLES, T=6, seed=3)
        for s in rep.samples:
            assert s.adv_loss >= squared_loss(s.base_prediction, s.label)
        assert rep.rsit_gap >= 0.0

    def test_t_zero_is_clean(self):
        rep = rsit(LengthPredictor(), SAMPLES, T=0, seed=0)
        assert rep.rsit_gap == 0.0

    def test_monotone_in_trials(self):
        losses = []
        for t in (0, 2, 8):
            rep = rsit(LengthPredictor(), SAMPLES, T=t, seed=9)
            losses.append([s.adv_loss for s in rep.samples])
        for earlier, later in zip(losses, losses[1:]):
            assert all(b >= a for a, b in zip(earlier, later))

    def test_deterministic(self):
        a = rsit(LengthPredictor(), SAMPLES, T=5, seed=11)
        b = rsit(LengthPredictor(), SAMPLES, T=5, seed=11)
        assert a.to_json() == b.to_json()

    def test_failures_recorded_and_excluded(self):
        rep = rsit(FailingPredictor("*CONO*"), SAMPLES, T=2, seed=0)
        assert rep.failures == 1
        assert rep.samples[0].error and "boom" in rep.samples[0].error
        assert rep.samples[1].error is None
        # metric computed over the two surviving samples only
        assert rep.clean_metric == r2_score([2.0, 1.4], [0.0, 0.0])

    def test_rmse_gap_sign(self):
        rep = rsit(LengthPredictor(), SAMPLES, T=6, seed=3, metric="rmse")
        assert rep.adv_metric >= rep.clean_metric
        assert rep.rsit_gap == pytest.approx(
            rep.adv_metric - rep.clean_metric)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            rsit(ConstantPredictor(), SAMPLES, T=-1)
        with pytest.raises(ValueError):
            rsit(ConstantPredictor(), SAMPLES, T=1, metric="mae")


class TestModelPredictor:
    def test_link_strategy_invariance(self):
        model = ReferenceModel.generate(seed=5, d=16, L=2, d_thres=2)
        pred = ModelPredictor(model, "link")
        samples = labeled_corpus(8, seed=21)
        rep = rsit(pred, samples, T=3, seed=2)
        assert rep.failures == 0
        for s in rep.samples:
            assert abs(s.adv_predict - s.base_prediction) < 1e-9
        assert abs(rep.rsit_gap) < 1e-9

    def test_keep_strategy_has_gap(self):
        model = ReferenceModel.generate(seed=5, d=16, L=2, d_thres=2)
        samples = labeled_corpus(8, seed=21)
        rep = rsit(ModelPredictor(model, "keep"), samples, T=3, seed=2)
        assert rep.rsit_gap > 1e-6

    def test_compare_strategies_table(self):
        samples = labeled_corpus(5, seed=4)
        model = ReferenceModel.generate(3, d=16, L=1, d_thres=2)
        rows = compare_strategies(model, samples, T=2, seed=1)
        assert [r["strategy"] for r in rows] == ["keep", "remove",
                                                 "substitute", "link"]
        by = {r["strategy"]: r for r in rows}
        assert abs(by["link"]["gap"]) < 1e-9
        table = format_table(rows)
        assert "strategy" in table and "link" in table
        assert len(table.splitlines()) == 6
