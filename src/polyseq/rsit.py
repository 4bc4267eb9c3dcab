"""Repeat-and-shift adversarial evaluation over pluggable predictors.

For every sample the harness evaluates each distinct rewrite that
augmentation can produce (the 1- and 2-fold repeat units, each at every
translation), keeps the worst-loss one, and compares the aggregate metric on
the adversarial predictions against the clean one.  A predictor that is
invariant under repetition and translation shows a gap of exactly zero, per
sample and in aggregate.

``evaluate`` scores one sample under every predictor of a {name: predictor}
map, ``summarize`` turns the per-sample maps into one ``RsitReport`` per
predictor, and ``rsit`` is the one-predictor case of the two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    base_prediction: float
    adv_loss: float
    adv_predict: float
    rewrites: int


@dataclass
class RsitReport:
    samples: list[SampleResult]
    clean_metric: float
    adv_metric: float
    rsit_gap: float

    def to_dict(self) -> dict:
        """The report as ``rsit --output`` writes it under its predictor."""
        return {"clean": self.clean_metric, "adversarial": self.adv_metric,
                "gap": self.rsit_gap,
                "samples": [vars(s) for s in self.samples]}


def evaluate(predictors: dict, index: int, s: str, y: float
             ) -> dict[str, SampleResult]:
    """Sample (s, y), the index-th of its dataset, under each predictor of a
    {name: predictor} map.  The adversarial loss starts from the unaugmented
    sample; rewrites follow in sorted order and a tie keeps the earlier one.
    """
    rewrites = augment_rewrites(parse(s))
    records = {}
    for name, predictor in predictors.items():
        base = predictor.predict(s)
        adv_loss, adv_predict = squared_loss(base, y), base
        for adv_x in rewrites:
            pred = predictor.predict(adv_x)
            loss = squared_loss(pred, y)
            if loss > adv_loss:
                adv_loss, adv_predict = loss, pred
        records[name] = SampleResult(index, s, y, base, adv_loss,
                                     adv_predict, len(rewrites))
    return records


def summarize(records: list[dict[str, SampleResult]], metric: str
              ) -> dict[str, RsitReport]:
    """The clean and adversarial metric of every predictor, over the
    per-sample maps that evaluate returns, in the first map's order."""
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}")
    if not records:
        raise ValueError("no sample to score")
    fn, higher_better = METRICS[metric]
    reports = {}
    for name in records[0]:
        rows = [r[name] for r in records]
        labels = [r.label for r in rows]
        clean = fn(labels, [r.base_prediction for r in rows])
        adv = fn(labels, [r.adv_predict for r in rows])
        # adv - clean, not -(clean - adv): a zero gap stays +0.0
        gap = clean - adv if higher_better else adv - clean
        reports[name] = RsitReport(rows, clean, adv, gap)
    return reports


def rsit(predictor, samples: list[tuple[str, float]],
         metric: str = "r2") -> RsitReport:
    """Worst case over every rewrite of each sample; errors propagate."""
    return summarize([evaluate({"": predictor}, i, s, y)
                      for i, (s, y) in enumerate(samples)], metric)[""]


def format_table(reports: dict[str, RsitReport]) -> str:
    """One row per {strategy: report} entry: clean, adversarial and gap."""
    head = f"{'strategy':<12}{'clean':>12}{'adversarial':>14}{'gap':>12}"
    lines = [head, "-" * len(head)]
    for name, r in reports.items():
        lines.append(f"{name:<12}{r.clean_metric:>12.6f}"
                     f"{r.adv_metric:>14.6f}{r.rsit_gap:>12.6f}")
    return "\n".join(lines)
