"""Finite-unroll oracles for the equivalence properties of linked graphs.

Each oracle compares a network's per-atom outputs on the cyclic linked graph
against the outputs on the middle copy of a long open-chain unroll.  Initial
features are tiled from the linked graph so that both computations start
from the features of the infinite chain (the open chain's own features would
differ at ring flags and chain ends, which the infinite polymer does not
have).  The middle copy of a (2L+3)-fold unroll is more than L receptive
steps away from either chain end, so exact agreement is implied by the
locality of the layers; the oracles check it numerically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .context import build_context
from .graphs import (MonomerGraph, auto_repeat_for_lga, featurize,
                     repeat_monomer, star_link)
from .nets import (ReferenceModel, forward_polymer, gin_layer, layer_weights,
                   local_attention_layer)
from .wl import TwinPair, wl_refine

D_THRES_VALUES = (2, 3)  # thresholds theorem2_suite checks
# least deviation that counts as telling two outputs apart, for the controls
# that must deviate (theorem2's negative control, twin_suite's backbone)
DISTINCT_FLOOR = 1e-6


@dataclass
class CaseResult:
    label: str
    max_dev: float
    passed: bool
    detail: str = ""


@dataclass
class SuiteReport:
    name: str
    cases: list[CaseResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.cases)

    @property
    def max_dev(self) -> float:
        return max((c.max_dev for c in self.cases), default=0.0)

    def lines(self) -> list[str]:
        out = []
        for c in self.cases:
            status = "PASS" if c.passed else "FAIL"
            line = f"{status} {self.name}/{c.label} max_dev={c.max_dev:.3e}"
            if c.detail:
                line += f" ({c.detail})"
            out.append(line)
        return out


def _tiled_features(model: ReferenceModel, star_graph, k: int) -> tuple:
    x_star = model["input_proj"] @ featurize(star_graph)
    return x_star, np.tile(x_star, (1, k))


def gin_deviation(model: ReferenceModel, g: MonomerGraph, L: int) -> float:
    """Max per-entry gap between linked-graph and middle-of-unroll outputs
    after L message-passing layers."""
    star = star_link(g)
    n = star.monomer.n
    k = 2 * L + 3
    chain = repeat_monomer(star.monomer, k)
    x_s, x_u = _tiled_features(model, star.as_graph(), k)
    for l in range(L):
        args = (model[f"gin{l}.w1"], model[f"gin{l}.b1"],
                model[f"gin{l}.w2"], model[f"gin{l}.b2"])
        x_s = gin_layer(star.as_graph(), x_s, *args)
        x_u = gin_layer(chain, x_u, *args)
    mid = (k // 2) * n
    return float(np.abs(x_u[:, mid:mid + n] - x_s).max())


def lga_deviation(model: ReferenceModel, g: MonomerGraph, L: int,
                  d_thres: int, auto_repeat: bool = True) -> float:
    """Same comparison for L localized attention layers.

    With ``auto_repeat=False`` the boundary-distance precondition can be
    violated, which is the negative control: the cyclic distances then
    disagree with the chain distances inside the mask.
    """
    m = auto_repeat_for_lga(g, d_thres)[0] if auto_repeat else g
    star = star_link(m)
    n = star.monomer.n
    k = 2 * L + 3
    chain = repeat_monomer(star.monomer, k)
    ctx_s = build_context(star.as_graph(), d_thres)
    ctx_u = build_context(chain, d_thres)
    x_s, x_u = _tiled_features(model, star.as_graph(), k)
    for l in range(L):
        w = layer_weights(model, f"attn{l}")
        x_s = local_attention_layer(ctx_s, x_s, w)
        x_u = local_attention_layer(ctx_u, x_u, w)
    mid = (k // 2) * n
    return float(np.abs(x_u[:, mid:mid + n] - x_s).max())


def theorem1_suite(monomers: list[MonomerGraph], model: ReferenceModel,
                   tol: float = 1e-9) -> SuiteReport:
    rep = SuiteReport("message-passing-equivalence")
    for L in range(1, model.L + 1):
        worst = 0.0
        for g in monomers:
            worst = max(worst, gin_deviation(model, g, L))
        rep.cases.append(CaseResult(f"L={L}", worst, worst < tol,
                                    f"{len(monomers)} monomers"))
    return rep


def theorem2_suite(monomers: list[MonomerGraph], model: ReferenceModel,
                   negative_control: MonomerGraph,
                   tol: float = 1e-9) -> SuiteReport:
    rep = SuiteReport("localized-attention-equivalence")
    L = model.L
    for dt in D_THRES_VALUES:
        worst = 0.0
        for g in monomers:
            worst = max(worst, lga_deviation(model, g, L, dt))
        rep.cases.append(CaseResult(f"d_thres={dt}", worst, worst < tol,
                                    f"{len(monomers)} monomers"))
    neg = lga_deviation(model, negative_control, L, 3, auto_repeat=False)
    rep.cases.append(CaseResult("negative-control", neg, neg > DISTINCT_FLOOR,
                                "precondition violated, must deviate"))
    return rep


def lemma1_suite(pairs: list[TwinPair]) -> SuiteReport:
    """Each twin pair has identical refinement histograms on its two linked
    graphs: color refinement alone cannot tell twins apart."""
    rep = SuiteReport("twin-wl-histograms")
    for idx, p in enumerate(pairs):
        eq = (wl_refine(star_link(p.monomer_a).as_graph()).histogram
              == wl_refine(star_link(p.monomer_b).as_graph()).histogram)
        rep.cases.append(CaseResult(f"pair{idx}", 0.0, eq))
    return rep


def twin_suite(pairs: list[TwinPair], model: ReferenceModel,
               tol: float = 1e-9) -> SuiteReport:
    """Indistinguishability and backbone-remedy checks on twin pairs.

    Per pair: identical refinement histograms on the shared linked graph,
    identical predictions without the backbone shift, distinguishable
    predictions with it, and distinguishable refinement when initial colors
    are split by the backbone mask.
    """
    rep = SuiteReport("twin-pairs")
    for idx, p in enumerate(pairs):
        sa, sb = star_link(p.monomer_a), star_link(p.monomer_b)
        hist_eq = (wl_refine(sa.as_graph()).histogram
                   == wl_refine(sb.as_graph()).histogram)
        rep.cases.append(CaseResult(f"pair{idx}-wl-histogram", 0.0, hist_eq))

        ya = forward_polymer(model, p.monomer_a, use_backbone=False).yhat
        yb = forward_polymer(model, p.monomer_b, use_backbone=False).yhat
        dev = abs(ya - yb)
        rep.cases.append(CaseResult(f"pair{idx}-no-backbone", dev, dev < tol))

        ya = forward_polymer(model, p.monomer_a, use_backbone=True).yhat
        yb = forward_polymer(model, p.monomer_b, use_backbone=True).yhat
        dev = abs(ya - yb)
        rep.cases.append(CaseResult(f"pair{idx}-with-backbone", dev,
                                    dev > DISTINCT_FLOOR))

        ca = wl_refine(sa.as_graph(), init=[
            (a.attr_key(), m) for a, m in zip(sa.monomer.atoms, sa.backbone)])
        cb = wl_refine(sb.as_graph(), init=[
            (a.attr_key(), m) for a, m in zip(sb.monomer.atoms, sb.backbone)])
        split = ca.histogram != cb.histogram
        rep.cases.append(CaseResult(f"pair{idx}-backbone-split-wl", 0.0,
                                    split))
    return rep
