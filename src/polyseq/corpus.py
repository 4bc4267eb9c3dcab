"""Seeded generators for monomers, corpora, twin seeds, and fixtures.

The random monomer profile is deliberately conservative so that every
generated polymer satisfies the preconditions of the equivalence oracles:
the head-tail path consists of bridge edges (unique shortest boundary path),
rings are pendant or spiro with size 5 or 6 (no 3- or 4-rings, no fused
rings), and bond orders stay within default valences.  Under this profile
masked shortest paths are unique, so distance and path biases agree between
the linked graph and the unrolled chain.
"""

from __future__ import annotations

import random

from .graphs import Atom, Bond, DEFAULT_VALENCE, MolGraph, MonomerGraph
from .psmiles import write
from .wl import generate_twins, TwinPair

_PATH_ELEMENTS = ("C", "C", "C", "N", "O", "S")
_SIDE_ELEMENTS = ("C", "C", "N", "O")
# pairs the twin oracles check per run: the first 8 of ring_pair_seed(5, 6),
# all cuts of one polymer pair, *C(CCCC*)C1CCCCC1 and *C(C1CCCC1)CCCCC*, up
# to translation, through 8 distinct units (2 as monomer_a, 6 as monomer_b)
MAX_TWIN_PAIRS = 8
MIN_ATOMS, MAX_ATOMS = 4, 20  # size range of a random monomer


class _Builder:
    def __init__(self):
        self.atoms: list[Atom] = []
        self.bonds: list[Bond] = []
        self.free: list[int] = []  # remaining valence per atom

    def add(self, element: str, aromatic: bool = False) -> int:
        self.atoms.append(Atom(element, aromatic=aromatic))
        self.free.append(DEFAULT_VALENCE[element, 0] + (1 if aromatic else 0))
        return len(self.atoms) - 1

    def bond(self, u: int, v: int, order: str = "single") -> None:
        use = {"single": 1, "double": 2, "aromatic": 1}[order]
        self.bonds.append(Bond(u, v, order))
        self.free[u] -= use
        self.free[v] -= use


def random_monomer(rng: random.Random) -> MonomerGraph:
    """One random repeat unit within the safe structural profile."""
    while True:
        g = _try_monomer(rng)
        if MIN_ATOMS <= g.n <= MAX_ATOMS:
            return g


def _try_monomer(rng: random.Random) -> MonomerGraph:
    b = _Builder()
    m = rng.randint(2, 8)
    path = [b.add(rng.choice(_PATH_ELEMENTS)) for _ in range(m)]
    for u, v in zip(path, path[1:]):
        b.bond(u, v)
    # one bond on each boundary atom stays reserved for the chain junction
    reserved = {path[0]: 1, path[-1]: 1}

    def capacity(i: int) -> int:
        return b.free[i] - reserved.get(i, 0)

    ring_done = False
    for host in list(path):
        if len(b.atoms) >= MAX_ATOMS - 1:
            break
        roll = rng.random()
        if roll < 0.30 and capacity(host) >= 1:
            # short side chain, optionally ending in a carbonyl-style double;
            # the guard above leaves room for both of its atoms
            prev = host
            for _ in range(rng.randint(1, 2)):
                nxt = b.add(rng.choice(_SIDE_ELEMENTS))
                b.bond(prev, nxt)
                prev = nxt
            if (b.atoms[prev].element == "C" and b.free[prev] >= 2
                    and rng.random() < 0.4 and len(b.atoms) < MAX_ATOMS):
                o = b.add("O")
                b.bond(prev, o, "double")
        elif roll < 0.45 and not ring_done and len(b.atoms) + 6 <= MAX_ATOMS:
            kind = rng.choice(("pendant5", "pendant6", "benzene", "spiro5",
                               "spiro6"))
            if kind == "benzene" and capacity(host) >= 1:
                ring = [b.add("C", aromatic=True) for _ in range(6)]
                for i in range(6):
                    b.bond(ring[i], ring[(i + 1) % 6], "aromatic")
                b.bond(host, ring[0])
                ring_done = True
            elif kind.startswith("pendant") and capacity(host) >= 1:
                size = int(kind[-1])
                ring = [b.add("C") for _ in range(size)]
                for i in range(size):
                    b.bond(ring[i], ring[(i + 1) % size])
                b.bond(host, ring[0])
                ring_done = True
            elif kind.startswith("spiro") and capacity(host) >= 2 \
                    and b.atoms[host].element == "C":
                size = int(kind[-1])
                ring = [b.add("C") for _ in range(size - 1)]
                chain = [host] + ring
                for u, v in zip(chain, chain[1:]):
                    b.bond(u, v)
                b.bond(ring[-1], host)
                ring_done = True
    return MonomerGraph(b.atoms, b.bonds, path[0], path[-1])


def corpus(n: int, seed: int) -> list[str]:
    """n P-SMILES lines generated from one seed."""
    rng = random.Random(seed)
    return [write(random_monomer(rng)) for _ in range(n)]


def labeled_corpus(n: int, seed: int) -> list[tuple[str, float]]:
    """(psmiles, value) pairs; values are a smooth synthetic target."""
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        g = random_monomer(rng)
        value = 0.1 * g.n + 0.5 * g.cyclomatic_number() + rng.gauss(0.0, 0.2)
        out.append((write(g), round(value, 6)))
    return out


def ring_pair_seed(n1: int, n2: int) -> MolGraph:
    """Two plain carbon rings joined by one bridge bond.

    Cutting a ring edge gives a monomer whose linked graph is this graph
    again; cuts in different edge orbits generically produce twin pairs.
    """
    if min(n1, n2) < 5:
        raise ValueError("rings smaller than 5 are out of profile")
    atoms = [Atom("C")] * (n1 + n2)
    bonds = [Bond(i, (i + 1) % n1) for i in range(n1)]
    bonds += [Bond(n1 + i, n1 + (i + 1) % n2) for i in range(n2)]
    bonds.append(Bond(0, n1))
    return MolGraph(atoms, bonds)


def default_twin_pairs() -> list[TwinPair]:
    """The first MAX_TWIN_PAIRS twin pairs of the 5-ring/6-ring seed."""
    return generate_twins(ring_pair_seed(5, 6))[:MAX_TWIN_PAIRS]


# hand-checked cyclomatic (independent ring) counts per line
RING_FIXTURE: list[tuple[str, int]] = [
    ("*CCO*", 0),
    ("*CC(C)C*", 0),
    ("*c1ccc(*)cc1", 1),
    ("*CC1CCCC1*", 1),
    ("*Cc1ccc(C2CCCCC2)cc1C*", 2),
    ("*OC1CCC2(CC1)CCCC2*", 2),
    ("*CC(c1ccccc1)c1ccccc1*", 2),
    ("*C1CC2CC1C2*", 2),
    ("*c1ccc2ccccc2c1*", 2),
    ("*CC1(C2CCC3(CCC3)C2)CC1*", 3),
]
