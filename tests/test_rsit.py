import math
import random

import pytest

from polyseq import ModelPredictor, ReferenceModel
from polyseq.corpus import corpus, labeled_corpus
from polyseq.psmiles import augment_rewrites, parse, random_augment, write
from polyseq.rsit import (
    METRICS,
    RsitReport,
    SampleResult,
    compare_strategies,
    format_table,
    r2_score,
    rmse_score,
    rsit,
    squared_loss,
)


def _trial_rng(seed, sample_idx, trial_idx):
    return random.Random(f"{seed}:{sample_idx}:{trial_idx}")


def _reference_rsit(predictor, samples, T, loss=squared_loss, seed=0,
                    metric="r2"):
    """The sampled harness rsit replaced: worst of T random_augment draws.

    Its per-sample records carry the number of draws in ``rewrites``.
    """
    if T < 0:
        raise ValueError("trial count must be >= 0")
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}")
    report = RsitReport(metric=metric)
    for idx, (s, y) in enumerate(samples):
        rec = SampleResult(idx, s, y)
        try:
            base = predictor.predict(s)
            rec.base_prediction = base
            rec.adv_loss = loss(base, y)
            rec.adv_predict = base
            for t in range(T):
                rng = _trial_rng(seed, idx, t)
                adv_x = write(random_augment(parse(s), rng))
                pred = predictor.predict(adv_x)
                trial_loss = loss(pred, y)
                if trial_loss > rec.adv_loss:
                    rec.adv_loss = trial_loss
                    rec.adv_predict = pred
            rec.rewrites = T
        except Exception as exc:  # predictor failure: record, exclude
            rec.error = f"{type(exc).__name__}: {exc}"
            report.failures += 1
        report.samples.append(rec)

    ok = [s for s in report.samples if s.error is None]
    fn, higher_better = METRICS[metric]
    if ok:
        labels = [s.label for s in ok]
        report.clean_metric = fn(labels, [s.base_prediction for s in ok])
        report.adv_metric = fn(labels, [s.adv_predict for s in ok])
        drop = report.clean_metric - report.adv_metric
        report.rsit_gap = drop if higher_better else -drop
    return report


class ConstantPredictor:
    def predict(self, psmiles):
        return 1.5


class LengthPredictor:
    """Counts atoms in the string, so repetition doubles the prediction."""

    def predict(self, psmiles):
        return float(sum(c.isalpha() for c in psmiles))


class CachedPredictor:
    """Memoises a deterministic predictor by input string."""

    def __init__(self, inner):
        self.inner = inner
        self.cache = {}

    def predict(self, psmiles):
        if psmiles not in self.cache:
            self.cache[psmiles] = self.inner.predict(psmiles)
        return self.cache[psmiles]


class ScriptedPredictor:
    """Returns the i-th scripted value on the i-th call, the last one after
    that, and records the inputs it was called with."""

    def __init__(self, values):
        self.values = values
        self.calls = []

    def predict(self, psmiles):
        self.calls.append(psmiles)
        return self.values[min(len(self.calls), len(self.values)) - 1]


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
        rep = rsit(ConstantPredictor(), SAMPLES)
        assert rep.rsit_gap == 0.0
        assert rep.adv_metric == rep.clean_metric
        for s in rep.samples:
            assert s.adv_predict == s.base_prediction

    def test_adv_loss_never_below_clean(self):
        rep = rsit(LengthPredictor(), SAMPLES)
        for s in rep.samples:
            assert s.adv_loss >= squared_loss(s.base_prediction, s.label)
        assert rep.rsit_gap >= 0.0

    def test_deterministic(self):
        a = rsit(LengthPredictor(), SAMPLES)
        b = rsit(LengthPredictor(), SAMPLES)
        assert a.to_json() == b.to_json()

    def test_every_rewrite_once_in_sorted_order(self):
        s = "*CC(C)O*"
        pred = ScriptedPredictor([0.0])
        rep = rsit(pred, [(s, 1.0)])
        want = augment_rewrites(parse(s))
        assert len(want) > 2
        assert pred.calls == [s] + want
        assert rep.samples[0].rewrites == len(want)

    def test_tie_keeps_first_rewrite(self):
        # label 0: the base predicts 0, the first rewrite -1 and every later
        # one +1, so all rewrites tie at loss 1 and the first one is kept
        pred = ScriptedPredictor([0.0, -1.0, 1.0])
        rep = rsit(pred, [("*CC(C)O*", 0.0)])
        assert rep.samples[0].adv_predict == -1.0
        assert rep.samples[0].adv_loss == 1.0

    def test_failures_recorded_and_excluded(self):
        rep = rsit(FailingPredictor("*CONO*"), SAMPLES)
        assert rep.failures == 1
        assert rep.samples[0].error and "boom" in rep.samples[0].error
        assert rep.samples[1].error is None
        # metric computed over the two surviving samples only
        assert rep.clean_metric == r2_score([2.0, 1.4], [0.0, 0.0])

    def test_rmse_gap_sign(self):
        rep = rsit(LengthPredictor(), SAMPLES, metric="rmse")
        assert rep.adv_metric >= rep.clean_metric
        assert rep.rsit_gap == pytest.approx(
            rep.adv_metric - rep.clean_metric)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            rsit(ConstantPredictor(), SAMPLES, metric="mae")


class TestExactOrbit:
    def test_exact_loss_at_least_sampled(self):
        model = ReferenceModel.generate(seed=5, d=16, L=2, d_thres=2)
        pred = CachedPredictor(ModelPredictor(model, "keep"))
        samples = labeled_corpus(25, seed=21)
        exact = rsit(pred, samples)
        assert exact.failures == 0
        for seed in range(4):
            for T in (1, 5, 20):
                ref = _reference_rsit(pred, samples, T, seed=seed)
                for e, r in zip(exact.samples, ref.samples):
                    assert e.adv_loss >= r.adv_loss, (seed, T, e.psmiles)
        assert any(s.adv_loss > squared_loss(s.base_prediction, s.label)
                   for s in exact.samples)

    def test_augment_draws_are_enumerated(self):
        for s in corpus(50, seed=23):
            g = parse(s)
            rewrites = set(augment_rewrites(g))
            for seed in range(20):
                drawn = write(random_augment(g, random.Random(seed)))
                assert drawn in rewrites, (s, seed)


class TestModelPredictor:
    def test_link_strategy_invariance(self):
        model = ReferenceModel.generate(seed=5, d=16, L=2, d_thres=2)
        pred = ModelPredictor(model, "link")
        samples = labeled_corpus(8, seed=21)
        rep = rsit(pred, samples)
        assert rep.failures == 0
        for s in rep.samples:
            assert abs(s.adv_predict - s.base_prediction) < 1e-9
        assert abs(rep.rsit_gap) < 1e-9

    def test_keep_strategy_has_gap(self):
        model = ReferenceModel.generate(seed=5, d=16, L=2, d_thres=2)
        samples = labeled_corpus(8, seed=21)
        rep = rsit(ModelPredictor(model, "keep"), samples)
        assert rep.rsit_gap > 1e-6

    def test_compare_strategies_table(self):
        samples = labeled_corpus(5, seed=4)
        model = ReferenceModel.generate(3, d=16, L=1, d_thres=2)
        rows = compare_strategies(model, samples)
        assert [r["strategy"] for r in rows] == ["keep", "remove",
                                                 "substitute", "link"]
        by = {r["strategy"]: r for r in rows}
        assert abs(by["link"]["gap"]) < 1e-9
        table = format_table(rows)
        assert "strategy" in table and "link" in table
        assert len(table.splitlines()) == 6
