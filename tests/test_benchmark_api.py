"""The library names the benchmark in perfbench/ calls keep resolving.

perfbench/tracer.py wraps every function its TRACED table names; a name
that no longer resolves breaks `perfbench/run.py --trace 1`.  The table is
read from the file as it stands, so the benchmark is not edited to match.
"""

import ast
import importlib
import inspect
import sys
from pathlib import Path

import pytest

from polyseq import psmiles, wl
from polyseq.context import AttentionContext, build_context
from polyseq.corpus import corpus, default_twin_pairs, random_monomer
from polyseq.graphs import MolGraph, MonomerGraph, auto_repeat_for_lga
from polyseq.psmiles import parse
from polyseq.verify import lga_deviation, twin_suite
from polyseq.wl import polymer_equal, separating_bridges

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def traced_names():
    tree = ast.parse(TRACER.read_text())
    for node in tree.body:
        names = [getattr(t, "id", None)
                 for t in getattr(node, "targets", [])]
        if names == ["TRACED"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py has no TRACED table")


@pytest.mark.parametrize("module, attr", traced_names(),
                         ids=[f"{m}.{a}" for m, a in traced_names()])
def test_traced_name_resolves(module, attr):
    if (module, attr) == ("graphs", "sssr"):
        assert callable(MolGraph.sssr)
        return
    mod = importlib.import_module(f"polyseq.{module}")
    assert callable(getattr(mod, attr))


def test_untraced_calls_resolve():
    assert "n" in AttentionContext.__dataclass_fields__
    # the tracer's context.atoms counter reads the context's atom count
    g = parse("*CC(C)O*")
    n = build_context(g, 3).n
    assert type(n) is int and n == g.n
    assert all(callable(f) for f in (polymer_equal, separating_bridges,
                                     default_twin_pairs))
    inspect.signature(default_twin_pairs).bind()
    inspect.signature(lga_deviation).bind(None, None, 3, 3,
                                          auto_repeat=False)
    inspect.signature(twin_suite).bind(None, None, tol=1e-9)
    inspect.signature(random_monomer).bind(None)
    inspect.signature(corpus).bind(16, 0)
    # workloads.py indexes auto_repeat_for_lga's pair; workloads.py and the
    # tracer read wl_refine's histogram and rounds
    unit, k = auto_repeat_for_lga(g, 3)
    assert isinstance(unit, MonomerGraph) and type(k) is int
    refined = wl.wl_refine(g)
    assert isinstance(refined.histogram, list) and type(refined.rounds) is int


def test_canonical_form_runs_through_traced_layers(monkeypatch):
    # The tracer wraps a function at every polyseq module attribute bound to
    # it, and attributes canon's work to wl.primitive_reduce and
    # wl.canonical_key only while canonical_form calls them by those names.
    calls = dict.fromkeys(["primitive_reduce", "canonical_key"], 0)
    mods = [m for n, m in sys.modules.items()
            if m is not None and (n == "polyseq" or n.startswith("polyseq."))]
    for name in calls:
        orig = getattr(wl, name)

        def counted(*args, _name=name, _orig=orig, **kwargs):
            calls[_name] += 1
            return _orig(*args, **kwargs)

        for mod in mods:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    monkeypatch.setattr(mod, key, counted)
    psmiles.canonical_form("*CCOCCO*")
    assert all(calls.values()), calls
