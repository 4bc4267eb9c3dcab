"""Seeded inputs, CLI batches, API items and correctness checks per workload.

A workload is a few batches.  A batch is one CLI invocation on its own
input file, the same work as a list of API items, and the checks on both
outputs.  Every input is made from the benchmark's ``--seed`` with
``polyseq.corpus``, as a stratified sample: the sizes a workload's cost
grows with (linked-graph atoms, atoms and rings for ``forward``, monomer atoms
times translations for ``canon``, the squared atoms of the unrolled oracle
chains for ``verify``) are fixed midpoints of equally likely strata of the
generator's size distribution, and the seed draws the monomers that fill
them.  Which rewrites are doubled is fixed the same way.  The structures
change with the seed but the work per run hardly does, so figures compare
across seeds.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import random
import statistics
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from polyseq import corpus, graphs, nets, psmiles, verify, wl
from polyseq.graphs import auto_repeat_for_lga
from polyseq.nets import ReferenceModel, SpatialDescriptors
from polyseq.psmiles import parse

TOL = 1e-9          # outputs that must agree, agree to within this
NEG_FLOOR = 1e-6    # the oracles' negative control must deviate by more
MATCH_TOL = 0.02    # a drawn size matches a target within this share
CALL_TOL = 0.015    # a verify call's summed cost matches within this share
MAX_DRAWS = 200000
REF_SEED = 20250727  # the fixed sample the size targets come from
REF_DRAWS = 4000
MODEL_SEED = 0      # forward model weights; the reference depends on them
GOLDEN_SEED = 20250726
GROUPS = {"shape": ["d0", "d1", "d2"], "charge": ["d3", "d4"]}
REFERENCE = Path(__file__).with_name("reference.json")
# canon: how many of a line's three rewrites are doubled, counted over the
# lines of one batch file; Binomial(3, 1/2) over 8 lines
CANON_DOUBLED = {0: 1, 1: 3, 2: 3, 3: 1}


@dataclass
class Workload:
    batches: list
    props: dict
    setup_code: str           # run after `import polyseq` to be ready
    warm_argv: list[list[str]]


def monomers(seed: int, n: int):
    """The monomers corpus.corpus(n, seed) writes, and verify --seed draws."""
    rng = random.Random(seed)
    return [corpus.random_monomer(rng) for _ in range(n)]


def linked_atoms(g) -> int:
    return auto_repeat_for_lga(g, 3)[0].n


def line_shape(g) -> tuple[int, int, int]:
    """What a forward line's time grows with: its linked-graph atoms, and
    its own atoms and rings, which set the cost of its doubled rewrite."""
    return linked_atoms(g), g.n, g.cyclomatic_number()


def chain_atoms(g) -> list[int]:
    """Atoms of the 9-fold attention-oracle unrolls at d_thres 2 and 3."""
    return [9 * auto_repeat_for_lga(g, dt)[0].n for dt in (2, 3)]


def canon_shape(g) -> tuple[int, int, int]:
    """What canonical_form's time grows with: atoms, translations keyed
    (one per boundary-separating bridge, plus the monomer itself) and
    rings."""
    return g.n, 1 + len(wl.separating_bridges(g)), g.cyclomatic_number()


def oracle_shape(g) -> tuple[int, int, int]:
    """What an oracle monomer's time grows with: the atoms of its two
    unrolled attention chains, and its own atoms, which the message-passing
    chains repeat."""
    return (*chain_atoms(g), g.n)


def chain_cost(g) -> int:
    """What an oracle monomer's time grows with: the all-pairs contexts of
    its two unrolled chains."""
    return sum(n * n for n in chain_atoms(g))


def targets(size, k: int) -> list:
    """k sizes, ascending: the midpoints of k equally likely strata of the
    generator's size distribution, read off a fixed sample."""
    ref = sorted(size(g) for g in monomers(REF_SEED, REF_DRAWS))
    return [ref[int((i + 0.5) / k * len(ref))] for i in range(k)]


def close_size(s, t) -> bool:
    """Size s matches target t: within MATCH_TOL of it, or of each part of
    a tuple."""
    if isinstance(t, tuple):
        return all(close_size(a, b) for a, b in zip(s, t))
    return abs(s - t) <= MATCH_TOL * t


def stratified(seed: str, size, goal: list) -> list:
    """One monomer per goal size, in goal order: the first unused monomer
    drawn from seed's stream whose size matches it (close_size).

    Every seed so gives the same sizes and different structures, and a
    run's work hardly depends on its seed.
    """
    rng = random.Random(seed)
    pool: list[tuple[object, object]] = []
    picked = [None] * len(goal)
    drawn = 0
    for k in sorted(range(len(goal)), key=lambda k: goal[k], reverse=True):
        t = goal[k]     # largest first: the rare sizes fill the pool
        hit = next((i for i, (s, _) in enumerate(pool)
                    if close_size(s, t)), None)
        while hit is None:
            if drawn == MAX_DRAWS:
                raise RuntimeError(f"no monomer of size {t} from {seed}")
            g = corpus.random_monomer(rng)
            drawn += 1
            pool.append((size(g), g))
            if close_size(pool[-1][0], t):
                hit = len(pool) - 1
        picked[k] = pool.pop(hit)[1]
    return picked


def augment_lines(bases: list[str], variants: int, seed: int) -> list[str]:
    """What `polyseq augment --n-variants variants --seed seed` prints for
    these lines, made through the API."""
    return [psmiles.write(psmiles.random_augment(
                psmiles.parse(s), random.Random(f"{seed}:{i}:{v}")))
            for i, s in enumerate(bases) for v in range(variants)]


def rewrite(s: str, want_doubled: bool, key: str) -> str:
    """A random_augment rewrite of s, doubled or not as asked: the first
    of the streams key:0, key:1, ... that gives one."""
    for v in itertools.count():
        out = psmiles.write(psmiles.random_augment(
            parse(s), random.Random(f"{key}:{v}")))
        if doubled(s, out) == want_doubled:
            return out


def canon_augment_seed(seed: str, lines: int, variants: int):
    """First augment seed drawn from seed under which the lines of a file
    get doubled rewrites as CANON_DOUBLED counts them; with it, how many of
    each line's rewrites are doubled.  `augment` doubles by a coin the
    line's own stream flips, whatever the line."""
    rng = random.Random(seed)
    probe = ["*CC*"] * lines
    goal = sorted(d for d, c in CANON_DOUBLED.items() for _ in range(c))
    for _ in range(MAX_DRAWS):
        sub = rng.randrange(2 ** 31)
        out = augment_lines(probe, variants, sub)
        pattern = [sum(doubled(probe[i], r)
                       for r in out[i * variants:(i + 1) * variants])
                   for i in range(lines)]
        if sorted(pattern) == goal:
            return sub, pattern
    raise RuntimeError(f"no augment seed with {CANON_DOUBLED} from {seed}")


def verify_call_seed(seed: str, count: int, mean_cost: float) -> int:
    """First seed drawn from seed whose count oracle monomers, as `verify
    --seed` draws them, cost count times the generator's mean within
    CALL_TOL."""
    rng = random.Random(seed)
    for _ in range(MAX_DRAWS):
        sub = rng.randrange(2 ** 31)
        total = sum(chain_cost(g) for g in monomers(sub, count))
        if abs(total / (count * mean_cost) - 1.0) <= CALL_TOL:
            return sub
    raise RuntimeError(f"no verify seed of mean cost from {seed}")


def composition_key(g) -> str:
    """Element counts of the primitive unit: the same for every writing of
    a polymer, whatever its translation or repeat count."""
    counts = Counter((a.element, a.aromatic) for a in g.atoms)
    k = math.gcd(*counts.values())
    return repr(sorted((e, ar, c // k) for (e, ar), c in counts.items()))


def descriptor_values(g) -> list[float]:
    """Descriptors drawn from the polymer's composition, so that every
    writing of one polymer gets the same row."""
    rng = random.Random(composition_key(g))
    return [rng.gauss(0.0, 1.0) for cols in GROUPS.values() for _ in cols]


def spatial(values: list[float]) -> SpatialDescriptors:
    groups, pos = [], 0
    for name, cols in GROUPS.items():
        groups.append((name, np.array(values[pos:pos + len(cols)])))
        pos += len(cols)
    return SpatialDescriptors(groups)


def close(a, b) -> bool:
    """Both present and within TOL; NaN never is."""
    return a is not None and b is not None and abs(a - b) <= TOL


def write_lines(path: Path, lines: list[str]) -> str:
    path.write_text("".join(s + "\n" for s in lines))
    return str(path)


def doubled(base: str, rewrite: str) -> bool:
    return parse(rewrite).n == 2 * parse(base).n


def size_props(lines: list[str], pairs: list[tuple[str, str]]) -> dict:
    sizes = [linked_atoms(parse(s)) for s in lines]
    return {
        "input.items": len(lines),
        "input.doubled_frac": statistics.fmean(doubled(b, r)
                                               for b, r in pairs),
        "input.linked_atoms.mean": statistics.fmean(sizes),
        "input.linked_atoms.max": max(sizes),
    }


def forward_model() -> ReferenceModel:
    return ReferenceModel.generate(
        MODEL_SEED, d=64, L=3, d_thres=3,
        spatial_groups={k: len(v) for k, v in GROUPS.items()})


def golden_lines() -> list[str]:
    """Fixed lines whose outputs are checked against reference.json."""
    return corpus.corpus(16, GOLDEN_SEED)


# --- forward -----------------------------------------------------------------

class ForwardBatch:
    """`polyseq forward` with descriptors on lines that each are followed
    by one random_augment rewrite of themselves."""

    def __init__(self, lines, argv, model, reference):
        self.lines = lines
        self.argv = argv
        self.reference = reference    # line index -> recorded yhat
        self.items = [self.item(model, s) for s in lines]
        self.cli_items = len(lines)
        self.items_per_calibration = len(lines)
        self.extras = []

    @staticmethod
    def item(model, s: str):
        """forward_polymer on line s, as a call that returns yhat."""
        sd = spatial(descriptor_values(parse(s)))
        # through the module attributes, so that a tracer sees the calls
        return lambda: nets.forward_polymer(model, psmiles.parse(s),
                                            descriptors=sd).yhat

    def run_cli(self, call):
        """yhat per line (None where lost), wall, wall of the pooled part."""
        rc, out, wall = call(self.argv)
        rows = [json.loads(t) for t in out.splitlines()] if rc == 0 else []
        got = {r["psmiles"]: r["yhat"] for r in rows}
        return [got.get(s) for s in self.lines], wall, wall

    def check_cli(self, yhat: list) -> int:
        """Each rewrite predicts as its line does; golden lines as recorded."""
        bad = sum(y is None for y in yhat)
        for i in range(0, len(yhat), 2):
            if yhat[i] is not None and yhat[i + 1] is not None:
                bad += not close(yhat[i], yhat[i + 1])
        for i, y in self.reference.items():
            bad += not close(yhat[i], y)
        return bad

    @staticmethod
    def check_api(got: list, cli: list) -> int:
        return sum(not close(g, c) for g, c in zip(got, cli))

    @staticmethod
    def inject_fault(yhat: list) -> list:
        return [yhat[0] + 1e-6] + yhat[1:]


def forward(workdir: Path, seed: int) -> Workload:
    n_batches, n_bases = 8, 16
    golden = golden_lines()
    reference = json.loads(REFERENCE.read_text())["forward"]
    model = forward_model()
    goal = targets(line_shape, n_batches * n_bases - len(golden))
    new = [psmiles.write(g) for g in stratified(f"forward:{seed}",
                                                line_shape, goal)]
    # half of the rewrites are doubled: every other line of each size
    by_size = sorted(golden, key=lambda s: linked_atoms(parse(s)))
    lines = ([(s, by_size.index(s) % 2 == 1) for s in golden],
             [(s, i % 2 == 1) for i, s in enumerate(new)])
    random.Random(f"forward-order:{seed}").shuffle(lines[1])
    bases = [s for s, _ in lines[0] + lines[1]]
    rewrites = [rewrite(s, want, f"forward-augment:{seed}:{i}")
                for i, (s, want) in enumerate(lines[0] + lines[1])]
    pairs = list(zip(bases, rewrites))
    # the golden lines ride in the first batch
    batch_lines = [[s for pair in pairs[j * n_bases:(j + 1) * n_bases]
                    for s in pair] for j in range(n_batches)]
    all_lines = [s for lines in batch_lines for s in lines]
    desc = workdir / "descriptors.csv"
    with open(desc, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["psmiles"] + [c for cols in GROUPS.values()
                                    for c in cols])
        for s in dict.fromkeys(all_lines):
            out.writerow([s] + [repr(v) for v in descriptor_values(parse(s))])
    (workdir / "groups.json").write_text(json.dumps(GROUPS))
    opts = ["--descriptors", str(desc), "--groups",
            str(workdir / "groups.json"), "--seed", str(MODEL_SEED)]
    batches = []
    for j, lines in enumerate(batch_lines):
        argv = ["forward", write_lines(workdir / f"forward{j}.txt",
                                       lines)] + opts
        ref = ({2 * i: reference[s] for i, s in enumerate(golden)}
               if j == 0 else {})
        batches.append(ForwardBatch(lines, argv, model, ref))
    warm = ["forward", write_lines(workdir / "warm.txt",
                                   batch_lines[0][:8])] + opts
    setup = ("polyseq.ReferenceModel.generate(0, d=64, L=3, d_thres=3, "
             "spatial_groups={'shape': 3, 'charge': 2})")
    return Workload(batches, size_props(all_lines, pairs), setup, [warm])


# --- canon -------------------------------------------------------------------

class CanonBatch:
    """`polyseq augment --n-variants 3`, then `polyseq canon` on the lines
    and their rewrites, so the same polymers are written and then read."""

    BASES = 8
    VARIANTS = 3

    def __init__(self, workdir: Path, j: int, sub: int, bases: list[str],
                 rewrites: list[str]):
        self.bases = bases
        self.reference = self._reference_classes()
        self.rewrites = rewrites   # what augment must print
        k = self.VARIANTS
        self.lines = [t for i, s in enumerate(self.bases)
                      for t in [s] + self.rewrites[k * i:k * (i + 1)]]
        self.aug_argv = ["augment", write_lines(workdir / f"bases{j}.txt",
                                                self.bases),
                         "--n-variants", str(k), "--seed", str(sub)]
        self.canon_argv = ["canon", write_lines(workdir / f"canon{j}.txt",
                                                self.lines)]
        self.items = [lambda s=s: psmiles.canonical_form(s)
                      for s in self.lines]
        self.cli_items = len(self.lines)
        self.items_per_calibration = len(self.lines)
        self.extras = [lambda: int(augment_lines(bases, k, sub) != rewrites)]

    def _reference_classes(self) -> list[int]:
        """Class per base line: equal polymers (exact isomorphism up to
        translation, repetition and orientation) share a class."""
        mols = [parse(s) for s in self.bases]
        cls = list(range(len(mols)))
        by_comp: dict[str, list[int]] = {}
        for i, g in enumerate(mols):
            peers = by_comp.setdefault(composition_key(g), [])
            for j in peers:
                if wl.polymer_equal(mols[j], g):
                    cls[i] = cls[j]
                    break
            else:
                peers.append(i)
        return cls

    def run_cli(self, call):
        """Keys per line (None where lost), wall of both commands, wall of
        the pooled canon command."""
        rc, out, wall_aug = call(self.aug_argv)
        aug_ok = rc == 0 and out.splitlines() == self.rewrites
        rc, out, wall_canon = call(self.canon_argv)
        keys = out.splitlines() if rc == 0 and aug_ok else []
        if len(keys) != len(self.lines):
            keys = [None] * len(self.lines)
        return keys, wall_aug + wall_canon, wall_canon

    def check_cli(self, keys: list) -> int:
        """Rewrites share their base's key, and the keys partition the base
        lines exactly as the reference classes do."""
        k = 1 + self.VARIANTS
        bad = sum(key is None for key in keys)
        base_keys = keys[::k]
        for i, key in enumerate(base_keys):
            bad += any(r != key for r in keys[i * k + 1:(i + 1) * k])
            same_key = {j for j, o in enumerate(base_keys) if o == key}
            same_cls = {j for j, c in enumerate(self.reference)
                        if c == self.reference[i]}
            bad += same_key != same_cls
        return bad

    @staticmethod
    def check_api(got: list, cli: list) -> int:
        return sum(g is None or g != c for g, c in zip(got, cli))

    def inject_fault(self, keys: list) -> list:
        """Give the first polymer of another class the first line's key."""
        k = 1 + self.VARIANTS
        other = next(i for i, c in enumerate(self.reference)
                     if c != self.reference[0])
        return [keys[0] if i // k == other else key
                for i, key in enumerate(keys)]


def canon(workdir: Path, seed: int) -> Workload:
    n_batches, n, k = 8, CanonBatch.BASES, CanonBatch.VARIANTS
    aug, pattern = canon_augment_seed(f"canon-augment:{seed}", n, k)
    # Each size target goes to the doubled-count group that is furthest
    # behind its share, so every group spans all sizes and the pairs of
    # (size, doubled rewrites) are the same for every seed.
    slots = {d: [(j, i) for j in range(n_batches)
                 for i in range(n) if pattern[i] == d]
             for d in sorted(CANON_DOUBLED)}
    sizes = {d: [] for d in slots}
    for t in targets(canon_shape, n_batches * n):
        d = min(slots, key=lambda d: (len(sizes[d]) + 0.5) / len(slots[d]))
        sizes[d].append(t)
    order = random.Random(f"canon-order:{seed}")
    slot_goal = {}
    for d, where in slots.items():
        order.shuffle(where)
        slot_goal.update(zip(where, sizes[d]))
    keys = sorted(slot_goal)
    mols = stratified(f"canon:{seed}", canon_shape,
                      [slot_goal[key] for key in keys])
    line = {key: psmiles.write(g) for key, g in zip(keys, mols)}
    chunks = [[line[j, i] for i in range(n)] for j in range(n_batches)]
    batches = [CanonBatch(workdir, j, aug, c, augment_lines(c, k, aug))
               for j, c in enumerate(chunks)]
    lines = [s for b in batches for s in b.lines]
    pairs = [(b.bases[i // b.VARIANTS], r) for b in batches
             for i, r in enumerate(b.rewrites)]
    warm = write_lines(workdir / "warm.txt", batches[0].bases)
    return Workload(batches, size_props(lines, pairs), "pass",
                    [["augment", warm], ["canon", warm]])


# --- verify ------------------------------------------------------------------

class VerifyBatch:
    """`polyseq verify all --count N --seed sub`, and oracle monomers of
    the same sizes through the API, one per item; the suites the command
    runs once per call are extras."""

    L = 3
    D_THRES = (2, 3)

    def __init__(self, sub: int, count: int, item_monomers, pairs):
        self.argv = ["verify", "all", "--count", str(count),
                     "--seed", str(sub)]
        self.monomers = monomers(sub, count)      # what the command draws
        self.item_monomers = item_monomers
        self.model = ReferenceModel.generate(sub, d=64, L=self.L, d_thres=3)
        self.twin_model = ReferenceModel.generate(sub, d=64, L=self.L,
                                                  d_thres=2)
        # theorem1 per L, theorem2 per d_thres plus its negative control,
        # then per twin pair one lemma1 line and four theorem3 lines
        self.expected_lines = (self.L + len(self.D_THRES) + 1
                               + 5 * len(pairs))
        self.items = [self._item(g) for g in item_monomers]
        self.cli_items = count
        self.items_per_calibration = 1    # an item takes about 60 ms
        self.extras = [self._suites]

    def _item(self, g):
        def run():
            return ([verify.gin_deviation(self.model, g, L)
                     for L in range(1, self.L + 1)]
                    + [verify.lga_deviation(self.model, g, self.L, dt)
                       for dt in self.D_THRES])
        return run

    def _suites(self) -> int:
        """The work `verify all` does once per call besides the monomers."""
        bad = 0
        pairs = corpus.default_twin_pairs()
        for p in pairs:
            ha = wl.wl_refine(graphs.star_link(p.monomer_a).as_graph())
            hb = wl.wl_refine(graphs.star_link(p.monomer_b).as_graph())
            bad += ha.histogram != hb.histogram
        bad += not verify.twin_suite(pairs, self.twin_model, tol=TOL).passed
        neg = verify.lga_deviation(self.model, psmiles.parse("*CNO*"),
                                   self.L, 3, auto_repeat=False)
        return bad + (not neg > NEG_FLOOR)

    def run_cli(self, call):
        rc, out, wall = call(self.argv)
        return (out.splitlines() if rc == 0 else []), wall, wall

    def check_cli(self, lines: list) -> int:
        """Exit 0 and every expected line PASS."""
        bad = sum(not t.startswith("PASS ") for t in lines)
        return bad + abs(len(lines) - self.expected_lines)

    @staticmethod
    def check_api(got: list, cli: list) -> int:
        return sum(g is None or not max(g) < TOL for g in got)

    @staticmethod
    def inject_fault(lines: list) -> list:
        return ["FAIL" + lines[0][4:]] + lines[1:]


def verify_workload(workdir: Path, seed: int) -> Workload:
    n_calls, count, n_items = 2, 10, 40
    pairs = corpus.default_twin_pairs()
    mean_cost = statistics.fmean(chain_cost(g)
                                 for g in monomers(REF_SEED, REF_DRAWS))
    subs = [verify_call_seed(f"verify:{seed}:{j}", count, mean_cost)
            for j in range(n_calls)]
    items = stratified(f"verify-items:{seed}", oracle_shape,
                       targets(oracle_shape, n_items))
    random.Random(f"verify-order:{seed}").shuffle(items)
    batches = [VerifyBatch(sub, count, items[j::n_calls], pairs)
               for j, sub in enumerate(subs)]
    chains = [c for b in batches for g in b.monomers + b.item_monomers
              for c in chain_atoms(g)]
    props = {"input.items": n_items,
             "verify.chain_atoms.mean": statistics.fmean(chains),
             "verify.chain_atoms.max": max(chains)}
    setup = ("polyseq.ReferenceModel.generate(0, d=64, L=3, d_thres=3); "
             "polyseq.ReferenceModel.generate(0, d=64, L=3, d_thres=2)")
    warm = ["verify", "all", "--count", "1", "--seed", str(subs[0])]
    return Workload(batches, props, setup, [warm])


WORKLOADS = {"forward": forward, "canon": canon, "verify": verify_workload}
