"""polyseq benchmark: CLI throughput, per-polymer latency and set-up time.

Run from the root of a checkout:

    python3 perfbench/run.py --workload forward --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py                 # every workload, one after another
    python3 perfbench/run.py --self-test     # injected faults must be caught

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones; BENCHMARK.json at the root names both sets and their units.  Each
metric is printed as ``name = value unit``, and the last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics.  The
exit code is 0 only when every output passed its check.
"""

from __future__ import annotations

import os
import sys

# Fixed before numpy loads: one BLAS thread and one hash seed, so the
# benchmark's own process runs one thread and repeats itself exactly.
PINNED = {"PYTHONHASHSEED": "0", "OPENBLAS_NUM_THREADS": "1",
          "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
if __name__ == "__main__" and any(os.environ.get(k) != v
                                  for k, v in PINNED.items()):
    os.execve(sys.executable, [sys.executable] + sys.argv,
              {**os.environ, **PINNED})

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
WORKLOAD_NAMES = ("forward", "canon", "verify")
MIN_ROUNDS = 2
SETUP_RUNS = 7
# Seconds the calibration loop takes at the reference speed: on the machine
# this was written on (an Intel Xeon vCPU of a shared two-CPU host), its
# time over quiet spells, rounded.  It fixes the scale of the reported times
# only.
REFERENCE_CALIBRATION_S = 0.002
IMPORTTIME_RUNS = 3
GENERATE_RUNS = 3
# candidate percentiles for item_ms_tail, highest first
PERCENTILES = (99.9, 99.5, 99.0, 98.0, 97.5, 95.0, 90.0, 80.0, 75.0, 50.0)


class Tally:
    """Items attempted and failures: CLI lines lost, API exceptions and
    failed checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, items: int, failed: int) -> None:
        self.attempted += items
        self.failed += failed


def child_env() -> dict:
    return {**os.environ, **PINNED, "PYTHONPATH": str(SRC)}


def call_cli(argv: list[str]) -> tuple[int, str, float]:
    """polyseq.cli.main(argv) in this process: exit code, stdout, wall."""
    from polyseq import cli

    out = io.StringIO()
    t0 = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
    return rc, out.getvalue(), time.perf_counter() - t0


def guarded(fn):
    """fn(), or None after reporting the exception on stderr."""
    try:
        return fn()
    except Exception as exc:  # an item that raises is a counted failure
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return None


# The calibration loop: a breadth-first search over a fixed graph and small
# numpy products, the kind of work polyseq does, but no polyseq code, so a
# change to the program never changes it.
_CAL_GRAPH = {i: [(i + 1) % 2000, (i * 7) % 2000, (i * 13 + 5) % 2000]
              for i in range(2000)}
_CAL_MATRIX = None


def calibration() -> float:
    """Wall time of two passes of the calibration loop, after one untimed
    pass that brings its data back into the caches."""
    global _CAL_MATRIX
    import numpy as np

    if _CAL_MATRIX is None:
        _CAL_MATRIX = np.arange(64.0).reshape(8, 8) / 64
    t0 = time.perf_counter()
    for k in range(3):
        if k == 1:
            t0 = time.perf_counter()
        seen = {0: 0}
        level = [0]
        while level:
            nxt = []
            for u in sorted(level):
                for v in _CAL_GRAPH[u]:
                    if v not in seen:
                        seen[v] = seen[u] + 1
                        nxt.append(v)
            level = nxt
        x = _CAL_MATRIX
        for _ in range(100):
            x = np.tanh(x @ _CAL_MATRIX + 0.1)
    return time.perf_counter() - t0


class Speed:
    """Scales a wall time to the reference speed.

    The shared host runs this process up to 1.6 times slower for spells of
    seconds to minutes.  A time measured between two calibrations is
    multiplied by REFERENCE_CALIBRATION_S over their mean: a slow spell
    slows both alike and cancels, a slower polyseq does not.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.last = calibration()

    def timed(self, fn):
        """fn()'s result, and the factor that scales a wall time measured
        inside it to the reference speed."""
        before = self.last
        result = fn()
        self.last = calibration()
        self.samples.append((before + self.last) / 2)
        return result, REFERENCE_CALIBRATION_S / self.samples[-1]

    def slowdown(self) -> float:
        """Median calibration time over the reference's."""
        return statistics.median(self.samples) / REFERENCE_CALIBRATION_S


def time_to_ready(code: str) -> float:
    """Wall time from starting a fresh interpreter until it has imported
    polyseq and run code."""
    script = f"import polyseq\n{code}\nprint('ready', flush=True)\n"
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", script],
                          stdout=subprocess.PIPE, env=child_env(),
                          text=True) as proc:
        line = proc.stdout.readline()
        wall = time.perf_counter() - t0
        proc.stdout.read()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError("set-up child failed")
    return wall


def import_times() -> tuple[float, float]:
    """Median cumulative import time of polyseq and of networkx, from
    ``python -X importtime``."""
    runs = []
    for _ in range(IMPORTTIME_RUNS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import polyseq"],
            capture_output=True, text=True, env=child_env(), check=True)
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = line.removeprefix("import time:").split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative[parts[2].strip()] = int(parts[1]) / 1e6
        runs.append((cumulative.get("polyseq", 0.0),
                     cumulative.get("networkx", 0.0)))
    return (statistics.median(r[0] for r in runs),
            statistics.median(r[1] for r in runs))


def api_pass(items, times: list[list[float]], tracer=None) -> list:
    """The items once, serially; appends each item's wall time."""
    got = []
    for i, fn in enumerate(items):
        t0 = time.perf_counter()
        got.append(guarded(fn if tracer is None
                           else (lambda f=fn: tracer.run_item(f))))
        times[i].append(time.perf_counter() - t0)
    return got


def in_rounds(w, seconds: float, step) -> None:
    """step(j, batch, round) for each batch in turn, round after round,
    until seconds have passed and every batch ran MIN_ROUNDS times.
    Interleaving spreads every measurement over the whole run, so a slow
    spell of the machine hits all of them alike and each has a repeat
    outside it."""
    for argv in w.warm_argv:
        call_cli(argv)
    start = time.perf_counter()
    for k in itertools.count():
        r, j = divmod(k, len(w.batches))
        if r >= MIN_ROUNDS and time.perf_counter() - start >= seconds:
            return
        step(j, w.batches[j], r)


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest listed percentile with at least 10 samples beyond it."""
    s = sorted(samples)
    for p in PERCENTILES:
        rank = math.ceil(p / 100 * len(s))
        if len(s) - rank >= 10:
            return s[rank - 1], p
    return s[-1], 100.0


def end_to_end(w, seconds: float, tally: Tally, inject_fault: bool):
    """Untraced CLI batches, API passes and interpreter starts, interleaved.

    Each is timed between two calibrations and scaled to the reference
    speed (Speed).  A batch's wall time and an item's time are the medians
    of their scaled repeats; set-up time is the median of SETUP_RUNS scaled
    starts, after one that warms the bytecode.
    """
    walls = [[] for _ in w.batches]
    times = [[[] for _ in b.items] for b in w.batches]
    starts = []
    speed = Speed()

    def start():
        wall, scale = speed.timed(lambda: time_to_ready(w.setup_code))
        starts.append(wall * scale)

    def step(j, batch, r):
        (out, wall, _), scale = speed.timed(lambda: batch.run_cli(call_cli))
        if inject_fault and r == 0 and j == 0:
            out = batch.inject_fault(out)
        tally.add(batch.cli_items, batch.check_cli(out))
        walls[j].append(wall * scale)
        got = []
        k = batch.items_per_calibration
        for a in range(0, len(batch.items), k):
            raw = [[] for _ in batch.items[a:a + k]]
            part, scale = speed.timed(
                lambda: api_pass(batch.items[a:a + k], raw))
            got += part
            for t, (x,) in zip(times[j][a:a + k], raw):
                t.append(x * scale)
        tally.add(len(got), batch.check_api(got, out))
        if len(starts) <= SETUP_RUNS:
            start()

    in_rounds(w, seconds, step)
    while len(starts) <= SETUP_RUNS:
        start()
    samples = [statistics.median(t) for batch_times in times
               for t in batch_times]
    tail_s, pct = tail(samples)
    metrics = {
        "items_per_s": sum(b.cli_items for b in w.batches)
        / sum(statistics.median(x) for x in walls),
        "item_ms_p50": statistics.median(samples) * 1e3,
        "item_ms_tail": tail_s * 1e3,
        "setup_s": statistics.median(starts[1:]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
    }
    note = {"item_ms_tail": f"p{pct:g} of {len(samples)} samples",
            "machine": f"{speed.slowdown():.3f} times slower than the "
                       f"reference speed; the times are scaled to it"}
    return metrics, note


def per_layer(w, seconds: float, tally: Tally, names: list[str],
              spans_path: Path):
    """CLI batches, untraced and traced API passes, interleaved.

    Only the traced passes run the batches' extras: the rest of a CLI
    call's work, replayed so that its layers are seen too.  Times here are
    as measured, the fastest repeat; machine.slowdown says how much slower
    than the reference speed the machine ran meanwhile.
    """
    import polyseq
    from tracer import LAYERS, Tracer

    import_s, networkx_s = import_times()
    gens = []
    for _ in range(GENERATE_RUNS):
        t0 = time.perf_counter()
        exec(w.setup_code, {"polyseq": polyseq})
        gens.append(time.perf_counter() - t0)

    pool = [[] for _ in w.batches]
    plain = [[[] for _ in b.items] for b in w.batches]
    traced = [[[] for _ in b.items] for b in w.batches]
    tracer = Tracer()
    speed = Speed()     # only to report how slow the machine ran

    def step(j, batch, r):
        (out, _, pool_wall), _ = speed.timed(lambda: batch.run_cli(call_cli))
        tally.add(batch.cli_items, batch.check_cli(out))
        pool[j].append(pool_wall)
        got = api_pass(batch.items, plain[j])
        tally.add(len(got), batch.check_api(got, out))
        tracer.install()
        try:
            got = api_pass(batch.items, traced[j], tracer)
            bad = sum(1 if res is None else int(res)
                      for res in map(guarded, batch.extras))
        finally:
            tracer.uninstall()
        tally.add(len(got), batch.check_api(got, out) + bad)

    in_rounds(w, seconds, step)
    plain_s = [min(t) for batch_times in plain for t in batch_times]
    traced_s = [min(t) for batch_times in traced for t in batch_times]
    n = tracer.n_items
    by_name = tracer.self_times()
    item_total = sum(end - start for name, start, end, _, _ in tracer.spans
                     if name == "item")
    vals = tracer.values

    def mean(key):
        return statistics.fmean(vals[key]) if vals[key] else 0.0

    # 0 for the layers and input properties a workload does not have
    m = {name: 0.0 for name in names}
    for layer in LAYERS:
        m[f"{layer}.us"] = by_name.get(layer, 0.0) / n * 1e6
        m[f"{layer}.errors"] = tracer.errors.get(layer, 0)
    m.update({
        "graphs.linked_atoms.mean": mean("graphs.linked_atoms"),
        "graphs.auto_repeat_k.mean": mean("graphs.auto_repeat_k"),
        "context.atoms.mean": mean("context.atoms"),
        "context.pairs.sum": sum(vals["context.pairs"]) / n,
        "wl.wl_refine.rounds.mean": mean("wl.wl_refine.rounds"),
        "wl.isomorphic.calls": len(vals["wl.isomorphic.match"]) / n,
        "wl.isomorphic.match_ratio": mean("wl.isomorphic.match"),
        "wl.primitive_reduce.hit_ratio": mean("wl.primitive_reduce.hit"),
        "wl.translation_variants.count.mean":
            mean("wl.translation_variants.count"),
        "unaccounted.us": by_name.get("item", 0.0) / n * 1e6,
        "unaccounted.share": by_name.get("item", 0.0) / item_total,
        "trace.untraced_item_ms_p50": statistics.median(plain_s) * 1e3,
        "trace.traced_item_ms_p50": statistics.median(traced_s) * 1e3,
        "trace.overhead_ratio":
            statistics.median(traced_s) / statistics.median(plain_s),
        "cli.pool_overhead_ratio":
            sum(min(x) for x in pool) / sum(b.cli_items for b in w.batches)
            / statistics.fmean(plain_s),
        "setup.import_s": import_s,
        "setup.import_networkx_s": networkx_s,
        "setup.model_generate_s": statistics.median(gens),
        "machine.slowdown": speed.slowdown(),
    })
    m.update(w.props)
    OUT.mkdir(exist_ok=True)
    tracer.dump(spans_path)
    return m, {}


def commit() -> str:
    """HEAD of the checkout, or "none" outside a git work tree."""
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, env={**os.environ,
                            "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except OSError:
        return "none"
    return git.stdout.strip() if git.returncode == 0 else "none"


def stamp(seed: int, trace: int) -> dict:
    digest = hashlib.blake2b(digest_size=8)
    for path in sorted((SRC / "polyseq").glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    nx = sys.modules.get("networkx")
    import numpy
    return {
        "commit": commit(),
        "src_digest": digest.hexdigest(),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "networkx": nx.__version__ if nx else "not imported",
        "nproc": os.cpu_count(),
        "cpus_used": sorted(os.sched_getaffinity(0)),
        "traced": bool(trace),
    }


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 inject_fault: bool = False) -> tuple[dict, int]:
    """One run; prints its report and returns (result, exit code)."""
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if trace else "end_to_end"]}
    gc.collect()
    tally = Tally()
    with tempfile.TemporaryDirectory(dir=ROOT,
                                     prefix=".perfbench-tmp-") as tmp:
        w = WORKLOADS[name](Path(tmp), seed)
        if trace:
            metrics, note = per_layer(
                w, seconds, tally, list(units),
                OUT / f"{name}-seed{seed}.spans.jsonl.gz")
        else:
            metrics, note = end_to_end(w, seconds, tally, inject_fault)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ set(units))}")
    correct = tally.failed == 0
    print(f"# workload {name}, seed {seed}, {seconds:g} s, trace {trace}")
    print(f"# stamp {json.dumps(stamp(seed, trace))}")
    print(f"# input {json.dumps(w.props)}")
    if "machine" in note:
        print(f"# machine {note.pop('machine')}")
    for key, value in metrics.items():
        extra = f" ({note[key]})" if key in note else ""
        print(f"{key} = {value:.6g} {units[key]}{extra}")
    print(f"failed_frac = {tally.failed / tally.attempted:.6g} ratio "
          f"({tally.failed} of {tally.attempted})")
    result = {"correct": correct, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in metrics.items()}}
    print(json.dumps(result))
    return result, 0 if correct else 1


def self_test() -> int:
    """Each workload with one output perturbed must fail its run."""
    ok = True
    for name in WORKLOAD_NAMES:
        result, rc = run_workload(name, 1, 1.0, 0, inject_fault=True)
        caught = not result["correct"] and result["failed"] >= 1 and rc != 0
        print(f"{'PASS' if caught else 'FAIL'} self-test/{name}: injected "
              f"fault gave failed={result['failed']}, exit {rc}")
        ok = ok and caught
    return 0 if ok else 1


def record_reference() -> None:
    """Write the golden forward outputs of the current program."""
    from workloads import REFERENCE, ForwardBatch, forward_model, golden_lines

    model = forward_model()
    ref = {s: ForwardBatch.item(model, s)() for s in golden_lines()}
    REFERENCE.write_text(json.dumps({"forward": ref}, indent=1) + "\n")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all",
                   choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=36.0)
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--record-reference", action="store_true")
    args = p.parse_args(argv)

    if not (SRC / "polyseq" / "__init__.py").is_file():
        print(f"perfbench: no polyseq sources at {SRC}", file=sys.stderr)
        return 2
    # One CPU for this process and so for the CLI's worker threads and the
    # set-up children: on a shared two-CPU machine, threads spread over both
    # CPUs made forward items/s twice as variable from run to run.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    if args.record_reference:
        record_reference()
        return 0
    if args.self_test:
        return self_test()
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    rc = 0
    for name in names:
        rc = max(rc, run_workload(name, args.seed, args.seconds,
                                  args.trace)[1])
    return rc


if __name__ == "__main__":
    sys.exit(main())
