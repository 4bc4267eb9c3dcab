"""The library names the benchmark in perfbench/ calls keep resolving.

perfbench/tracer.py wraps every function its TRACED table names; a name
that no longer resolves breaks `perfbench/run.py --trace 1`.  The table is
read from the file as it stands, so the benchmark is not edited to match.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

from polyseq.context import AttentionContext
from polyseq.corpus import corpus, default_twin_pairs, random_monomer
from polyseq.graphs import MolGraph
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
    assert all(callable(f) for f in (polymer_equal, separating_bridges,
                                     default_twin_pairs))
    inspect.signature(default_twin_pairs).bind()
    inspect.signature(lga_deviation).bind(None, None, 3, 3,
                                          auto_repeat=False)
    inspect.signature(twin_suite).bind(None, None, tol=1e-9)
    inspect.signature(random_monomer).bind(None)
    inspect.signature(corpus).bind(16, 0)
