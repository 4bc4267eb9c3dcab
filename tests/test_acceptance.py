"""End-to-end acceptance checks with runtime budgets.

Each test prints a single PASS/FAIL line so the suite doubles as a report
when run with ``pytest -s tests/test_acceptance.py``.
"""

import json
import random
import time

import pytest

from polyseq import (
    ModelPredictor,
    ReferenceModel,
    canonical_form,
    fragcam,
    mask_atoms,
    monomer_isomorphic,
    parse,
    random_augment,
    write,
)
from polyseq.cli import main
from polyseq.corpus import (
    RING_FIXTURE,
    contiguous_fragments,
    corpus,
    default_twin_pairs,
    labeled_corpus,
    random_monomer,
)
from polyseq.rsit import compare_strategies, rsit
from polyseq.verify import theorem1_suite, theorem2_suite, twin_suite

import numpy as np


def report(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"{status} acceptance/{name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def seeded_monomers(n, seed):
    rng = random.Random(seed)
    return [random_monomer(rng) for _ in range(n)]


class TestAcceptance:
    def test_01_message_passing_equivalence(self):
        start = time.monotonic()
        model = ReferenceModel.generate(seed=101, d=64, L=3, d_thres=3)
        rep = theorem1_suite(seeded_monomers(100, seed=11), model, tol=1e-9)
        elapsed = time.monotonic() - start
        report("message-passing-equivalence",
               rep.passed and elapsed < 30.0,
               f"max_dev={rep.max_dev:.3e} elapsed={elapsed:.1f}s")

    def test_02_localized_attention_equivalence(self):
        start = time.monotonic()
        model = ReferenceModel.generate(seed=102, d=64, L=3, d_thres=3)
        rep = theorem2_suite(seeded_monomers(100, seed=12), model, tol=1e-9)
        elapsed = time.monotonic() - start
        report("localized-attention-equivalence",
               rep.passed and elapsed < 60.0,
               f"max_dev={rep.max_dev:.3e} elapsed={elapsed:.1f}s")

    def test_03_twin_pairs(self):
        start = time.monotonic()
        pairs = default_twin_pairs()
        # at this threshold the periodic context holds only each atom's
        # bonds, which the pair's isomorphic linked graphs share, so the
        # no-embedding forwards match exactly
        model = ReferenceModel.generate(seed=103, d=64, L=3, d_thres=2)
        rep = twin_suite(pairs, model, tol=1e-9)
        elapsed = time.monotonic() - start
        report("twin-pairs",
               len(pairs) >= 5 and rep.passed and elapsed < 30.0,
               f"pairs={len(pairs)} elapsed={elapsed:.1f}s")

    def test_04_rsit_invariance(self):
        start = time.monotonic()
        samples = labeled_corpus(200, seed=14)
        model = ReferenceModel.generate(seed=104, d=64, L=3, d_thres=3)
        rep = rsit(ModelPredictor(model, "link"), samples)
        per_sample = max(abs(s.adv_predict - s.base_prediction)
                         for s in rep.samples)
        gap_zero = round(abs(rep.rsit_gap), 6) == 0.0
        rows = compare_strategies(model, samples[:40])
        by = {r["strategy"]: r for r in rows}
        others_positive = all(by[s]["gap"] > 0.0
                              for s in ("keep", "remove", "substitute"))
        elapsed = time.monotonic() - start
        report("rsit-invariance",
               per_sample < 1e-6 and gap_zero
               and others_positive and elapsed < 120.0,
               f"per_sample={per_sample:.3e} gap={rep.rsit_gap:.6f} "
               f"elapsed={elapsed:.1f}s")

    def test_05_parser_round_trip(self):
        start = time.monotonic()
        lines = corpus(1000, seed=15)
        rng = random.Random(51)
        ok = True
        for s in lines:
            g = parse(s)
            if not monomer_isomorphic(parse(write(g)), g, allow_swap=False):
                ok = False
                break
            aug = random_augment(g, rng)
            if canonical_form(aug) != canonical_form(g):
                ok = False
                break
        elapsed = time.monotonic() - start
        report("parser-round-trip", ok and elapsed < 30.0,
               f"lines={len(lines)} elapsed={elapsed:.1f}s")

    def test_06_fragment_attribution_completeness(self):
        model = ReferenceModel.generate(seed=106, d=64, L=2, d_thres=2)
        worst = 0.0
        for i, s in enumerate(corpus(50, seed=16)):
            g = parse(s)
            frags = contiguous_fragments(g.n, 2 + i % 3)
            scores, yhat = fragcam(model, g, frags)
            worst = max(worst, abs(sum(scores) - yhat))
        report("fragment-attribution-completeness", worst < 1e-9,
               f"max_residual={worst:.3e}")

    def test_07_augmentation_statistics(self):
        g = parse("*CONO*")
        rng = random.Random(71)
        repeats = sum(random_augment(g, rng).n > g.n for _ in range(10_000))
        repeat_rate = repeats / 10_000
        x = np.ones((2, 50_000))
        _, masked = mask_atoms(x, 0.3, random.Random(72))
        mask_rate = len(masked) / 50_000
        report("augmentation-statistics",
               abs(repeat_rate - 0.5) <= 0.05
               and abs(mask_rate - 0.3) <= 0.02,
               f"repeat={repeat_rate:.3f} mask={mask_rate:.3f}")

    def test_08_ring_statistics(self, tmp_path, capsys):
        path = tmp_path / "fixture.txt"
        path.write_text("\n".join(s for s, _ in RING_FIXTURE) + "\n")
        rc = main(["stats", str(path)])
        doc = json.loads(capsys.readouterr().out)
        counts = [c for _, c in RING_FIXTURE]
        brute_mean = sum(counts) / len(counts)
        brute_frac = sum(c > 2 for c in counts) / len(counts)
        with capsys.disabled():
            report("ring-statistics",
                   rc == 0 and doc["skipped"] == 0
                   and doc["mean_rings"] == pytest.approx(brute_mean)
                   and doc["frac_more_than_2_rings"]
                   == pytest.approx(brute_frac),
                   f"mean={doc['mean_rings']} frac={doc['frac_more_than_2_rings']}")
