"""Repeat-and-shift adversarial evaluation over pluggable predictors.

For every sample the harness evaluates each distinct rewrite that
augmentation can produce (the 1- and 2-fold repeat units, each at every
translation), keeps the worst-loss one, and compares the aggregate metric on
the adversarial predictions against the clean one.  A predictor that is
invariant under repetition and translation shows a gap of exactly zero, per
sample and in aggregate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .nets import ReferenceModel, forward_polymer
from .psmiles import augment_rewrites, parse


class ModelPredictor:
    """Reference forward model wrapped as a (P-SMILES -> float) predictor."""

    def __init__(self, model: ReferenceModel, strategy: str = "link"):
        self.model = model
        self.strategy = strategy

    def predict(self, psmiles: str) -> float:
        return forward_polymer(self.model, parse(psmiles),
                               strategy=self.strategy).yhat


def squared_loss(pred: float, label: float) -> float:
    return (pred - label) ** 2


def r2_score(labels: list[float], preds: list[float]) -> float:
    mean = sum(labels) / len(labels)
    ss_tot = sum((y - mean) ** 2 for y in labels)
    ss_res = sum((y - p) ** 2 for y, p in zip(labels, preds))
    if ss_tot == 0.0:
        return 1.0 if ss_res == 0.0 else 0.0
    return 1.0 - ss_res / ss_tot

def rmse_score(labels: list[float], preds: list[float]) -> float:
    return math.sqrt(sum((y - p) ** 2
                         for y, p in zip(labels, preds)) / len(labels))


METRICS = {"r2": (r2_score, True), "rmse": (rmse_score, False)}
STRATEGIES = ("keep", "remove", "substitute", "link")


@dataclass
class SampleResult:
    index: int
    psmiles: str
    label: float
    base_prediction: float = 0.0
    adv_loss: float = 0.0
    adv_predict: float = 0.0
    rewrites: int = 0
    error: str | None = None


@dataclass
class RsitReport:
    metric: str
    samples: list[SampleResult] = field(default_factory=list)
    clean_metric: float = 0.0
    adv_metric: float = 0.0
    rsit_gap: float = 0.0
    failures: int = 0

    def row(self, strategy: str) -> dict:
        """The table row of this report, run with the given strategy."""
        return {"strategy": strategy, "clean": self.clean_metric,
                "adversarial": self.adv_metric, "gap": self.rsit_gap,
                "failures": self.failures}

    def to_dict(self) -> dict:
        """The report as ``rsit --output`` writes it under its strategy."""
        row = self.row("")
        del row["strategy"]
        return {**row, "samples": [vars(s) for s in self.samples]}


def rsit(predictor, samples: list[tuple[str, float]],
         metric: str = "r2") -> RsitReport:
    """Worst case over every distinct rewrite of each sample.

    The adversarial loss starts from the unaugmented sample, so it is never
    below the clean loss; rewrites are tried in sorted order and a tie keeps
    the earlier one.
    """
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}")
    report = RsitReport(metric=metric)
    for idx, (s, y) in enumerate(samples):
        rec = SampleResult(idx, s, y)
        try:
            base = predictor.predict(s)
            rec.base_prediction = base
            rec.adv_loss = squared_loss(base, y)
            rec.adv_predict = base
            rewrites = augment_rewrites(parse(s))
            for adv_x in rewrites:
                pred = predictor.predict(adv_x)
                adv_loss = squared_loss(pred, y)
                if adv_loss > rec.adv_loss:
                    rec.adv_loss = adv_loss
                    rec.adv_predict = pred
            rec.rewrites = len(rewrites)
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


def compare_strategies(model: ReferenceModel,
                       samples: list[tuple[str, float]], metric: str = "r2"
                       ) -> list[dict[str, float | str]]:
    """Clean vs adversarial table for the four endpoint strategies."""
    return [rsit(ModelPredictor(model, s), samples, metric=metric).row(s)
            for s in STRATEGIES]


def format_table(rows: list[dict]) -> str:
    head = f"{'strategy':<12}{'clean':>12}{'adversarial':>14}{'gap':>12}"
    lines = [head, "-" * len(head)]
    for r in rows:
        lines.append(f"{r['strategy']:<12}{r['clean']:>12.6f}"
                     f"{r['adversarial']:>14.6f}{r['gap']:>12.6f}")
    return "\n".join(lines)
