"""Finite-unroll oracles for the equivalence properties of linked graphs.

Each oracle compares a network's per-atom outputs on the linked repeat unit
(its cyclic graph for message passing, the forward pass's periodic context
for localized attention) against the outputs on the middle copy of an
open-chain unroll.  Initial features are tiled from the linked graph so that
both computations start from the same features (the open chain's own differ
at its ends, and its ring flags leave out the link cycle that the linked
graph's mark).  The unroll (``_unroll``) repeats the linked unit enough
times on either side of its middle copy that no atom past a chain end lies
within the layers' receptive field, so exact agreement is implied by the
locality of the layers; the oracles check it numerically.

Each oracle call runs its two sides as one disjoint union, the linked side
first and the chain after it: one neighbour table or attention context,
features tiled once, each layer run once over the concatenated columns,
and the deviation read off the two column blocks.  Outputs may differ from
separate passes in the last bits (a wider row or matrix regroups sums),
never in what the oracles decide.

The linked unit, its features and its unrolls come from the memo of
``star_link(g)`` on the unit (``StarLinkGraph.features`` and
``StarLinkGraph.unroll``), so the oracle calls on one monomer link,
featurize and unroll it once, each unroll once per copy count.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .context import build_context, neighbour_table
from .graphs import MonomerGraph, StarLinkGraph, star_link
from .nets import (ReferenceModel, forward_polymer, gin_layer,
                   local_attention_layer)
from .psmiles import parse
from .wl import TwinPair, wl_refine

# Each suite reads only the weights and depth of its model; these are the
# facts it fixes itself.
TOLERANCE = 1e-9  # outputs that deviate by less count as equal
D_THRES_VALUES = (2, 3)  # thresholds theorem2_suite checks
# theorem2's negative control and its threshold: the boundary distance of
# *CNO*, 2, is at most 2*3 - 1, so paths of the cyclic context wrap round
NEGATIVE_CONTROL = ("*CNO*", 3)
# twin_suite's threshold: at d_thres=2 the periodic context holds only each
# atom's bonds, which a pair's isomorphic linked graphs share, so only the
# backbone can tell the two units apart in the forward pass
TWIN_D_THRES = 2
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


def _unroll(star: StarLinkGraph, reach: int) -> tuple[MonomerGraph, int]:
    """The (2r+1)-fold unroll of the linked unit and its middle copy's first
    atom, r = ceil(reach / (d_b + 1)).  Copies meet only at junction bonds,
    so the first atom past either end is at least r*(d_b + 1) + 1 > reach
    hops from the middle copy."""
    r = -(-reach // (star.monomer.boundary_distance() + 1))
    return star.unroll(2 * r + 1), r * star.monomer.n


def _features(model: ReferenceModel, star, chain) -> np.ndarray:
    """Input features of the linked unit followed by the same tiled along
    the chain, whose atom j is a copy of unit atom j mod n: the columns of
    the union [linked side, chain]."""
    x = model["input_proj"] @ star.features
    return np.tile(x, (1, 1 + chain.n // x.shape[1]))


def _gap(x: np.ndarray, n: int, mid: int) -> float:
    """Max per-entry gap between the union's linked side, its first n
    columns, and the chain's middle copy, whose first atom ``mid`` sits
    in column n + mid."""
    return float(np.abs(x[:, n + mid:2 * n + mid] - x[:, :n]).max())


def _gin_deviations(model: ReferenceModel, g: MonomerGraph,
                    depth: int) -> list[float]:
    """Max per-entry gap between linked-graph and middle-of-unroll outputs
    after each of the first ``depth`` message-passing layers, on the
    unroll whose middle copy is more than ``depth`` hops from either end.
    Both sides run as one union, so each layer runs once."""
    star = star_link(g)
    n = star.monomer.n
    chain, mid = _unroll(star, depth)
    nbr, _ = neighbour_table([star.as_graph(), chain])
    x = _features(model, star, chain)
    out = []
    for l in range(depth):
        x = gin_layer(nbr, x, model[f"gin{l}.w1"], model[f"gin{l}.b1"],
                      model[f"gin{l}.w2"], model[f"gin{l}.b2"])
        out.append(_gap(x, n, mid))
    return out


def gin_deviation(model: ReferenceModel, g: MonomerGraph, L: int) -> float:
    """Max per-entry gap between linked-graph and middle-of-unroll outputs
    after L message-passing layers."""
    return _gin_deviations(model, g, L)[-1]


def lga_deviation(model: ReferenceModel, g: MonomerGraph, L: int,
                  d_thres: int, auto_repeat: bool = True) -> float:
    """Same comparison for L localized attention layers.

    The linked side is the forward pass's: one repeat unit with the
    periodic context ``build_context(star_link(g), d_thres)``.  Each layer
    reaches ``d_thres - 1`` hops, so the chain unrolls the linked unit far
    enough that L layers cannot carry the chain ends into the middle copy.
    Both sides share one context, that of the union [linked side, chain],
    so each layer runs once.  ``auto_repeat=False`` selects the plain
    cyclic context of the linked graph for the linked side instead, whose
    paths may wrap round the unit when its boundary distance is at most
    ``2*d_thres - 1``; that is the negative control: the cyclic distances
    then disagree with the chain distances inside the mask.  (The flag
    keeps its name because the benchmark in ``perfbench/`` binds it.)
    """
    star = star_link(g)
    chain, mid = _unroll(star, L * (d_thres - 1))
    ctx = build_context([star if auto_repeat else star.as_graph(), chain],
                        d_thres)
    x = _features(model, star, chain)
    for l in range(L):
        x = local_attention_layer(ctx, x, model.layers[l])
    return _gap(x, star.monomer.n, mid)


def theorem1_suite(monomers: list[MonomerGraph], model: ReferenceModel,
                   tol: float = TOLERANCE) -> SuiteReport:
    """One pass of ``model.L`` message-passing layers per monomer, over the
    unroll for L = ``model.L``, with the deviation read after each layer."""
    rep = SuiteReport("message-passing-equivalence")
    worst = [0.0] * model.L
    for g in monomers:
        worst = list(map(max, worst, _gin_deviations(model, g, model.L)))
    for L, dev in enumerate(worst, 1):
        rep.cases.append(CaseResult(f"L={L}", dev, dev < tol,
                                    f"{len(monomers)} monomers"))
    return rep


def theorem2_suite(monomers: list[MonomerGraph], model: ReferenceModel,
                   tol: float = TOLERANCE) -> SuiteReport:
    """The periodic unit against the unroll under ``model.L`` attention
    layers at each of D_THRES_VALUES, whatever ``model.d_thres`` is, and
    NEGATIVE_CONTROL's cyclic context, which must deviate."""
    rep = SuiteReport("localized-attention-equivalence")
    L = model.L
    for dt in D_THRES_VALUES:
        worst = 0.0
        for g in monomers:
            worst = max(worst, lga_deviation(model, g, L, dt))
        rep.cases.append(CaseResult(f"d_thres={dt}", worst, worst < tol,
                                    f"{len(monomers)} monomers"))
    smiles, dt = NEGATIVE_CONTROL
    neg = lga_deviation(model, parse(smiles), L, dt, auto_repeat=False)
    rep.cases.append(CaseResult("negative-control", neg, neg > DISTINCT_FLOOR,
                                "precondition violated, must deviate"))
    return rep


def _same_wl(p: TwinPair, backbone: bool = False) -> bool:
    """Whether the pair's linked graphs refine to one histogram, from
    initial colors split by the backbone mask if ``backbone``."""
    def histogram(g: MonomerGraph):
        star = star_link(g)
        extra = star.backbone.__getitem__ if backbone else None
        return wl_refine(star.as_graph(), extra).histogram
    return histogram(p.monomer_a) == histogram(p.monomer_b)


def lemma1_suite(pairs: list[TwinPair]) -> SuiteReport:
    """Each twin pair has identical refinement histograms on its two linked
    graphs: color refinement alone cannot tell twins apart."""
    rep = SuiteReport("twin-wl-histograms")
    for idx, p in enumerate(pairs):
        rep.cases.append(CaseResult(f"pair{idx}", 0.0, _same_wl(p)))
    return rep


def twin_suite(pairs: list[TwinPair], model: ReferenceModel,
               tol: float = TOLERANCE) -> SuiteReport:
    """Indistinguishability and backbone-remedy checks on twin pairs.

    Per pair: identical refinement histograms on the shared linked graph,
    identical predictions without the backbone shift, distinguishable
    predictions with it, and distinguishable refinement when initial colors
    are split by the backbone mask.  The forward passes run at TWIN_D_THRES
    whatever ``model.d_thres`` is.
    """
    model = replace(model, d_thres=TWIN_D_THRES)
    rep = SuiteReport("twin-pairs")
    for idx, p in enumerate(pairs):
        rep.cases.append(CaseResult(f"pair{idx}-wl-histogram", 0.0,
                                    _same_wl(p)))

        ya = forward_polymer(model, p.monomer_a, use_backbone=False).yhat
        yb = forward_polymer(model, p.monomer_b, use_backbone=False).yhat
        dev = abs(ya - yb)
        rep.cases.append(CaseResult(f"pair{idx}-no-backbone", dev, dev < tol))

        ya = forward_polymer(model, p.monomer_a, use_backbone=True).yhat
        yb = forward_polymer(model, p.monomer_b, use_backbone=True).yhat
        dev = abs(ya - yb)
        rep.cases.append(CaseResult(f"pair{idx}-with-backbone", dev,
                                    dev > DISTINCT_FLOOR))

        rep.cases.append(CaseResult(f"pair{idx}-backbone-split-wl", 0.0,
                                    not _same_wl(p, backbone=True)))
    return rep
