"""Benchmark of lqmpc: run one workload, check its results, print metrics.

    python3 perfbench/run.py --workload design|region|submap \
        --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; the program is imported from the
checkout's `src`.  The run sets up its workload, then runs whole rounds of
the workload's operations until S seconds have passed, then checks every
result (see checks.py) and prints one JSON object as the last line of
standard output: `correct`, `attempted`, `failed` and `metrics`.

With `--trace 0` the metrics are the end-to-end ones (set-up time,
operations per second, CPU time per operation, peak resident set).  With
`--trace 1` they are the per-layer ones, measured by wrappers around each
layer's functions (see tracing.py); a traced round repeats the set-up, and
for the grid sweeps it also replays the sweep's cells in this process.  The
traced run also writes its raw span totals to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

# numpy, scipy and lqmpc are imported inside run(), so that the first set-up
# sample includes their import; hence the workload names are repeated here.
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
WORKLOAD_NAMES = ("design", "region", "submap")
# fresh interpreters that each time one set-up, for the median set-up time
SETUP_SAMPLES = 3
# The sweep workers' BLAS setting, applied to the whole run: the traced
# replay must round as the workers do, and a threaded OpenBLAS gives the
# design workload no speed but a peak resident set that is 124 or 143 MB at
# random on the same seed.
ONE_THREAD_BLAS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

_SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import workloads
workloads.WORKLOADS[sys.argv[3]](int(sys.argv[4]))
print(time.perf_counter() - t0)
"""


def _cpu_s() -> float:
    """User plus system time of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    """Largest resident set of this process or of any reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def _setup_in_fresh_process(name: str, seed: int) -> float:
    out = subprocess.run(
        [sys.executable, "-c", _SETUP_CODE, BENCH_DIR, SRC_DIR, name, str(seed)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def _stop_resource_tracker() -> None:
    """Stop and reap the helper process that multiprocessing starts with the
    first process pool, so the run leaves no process behind."""
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def _differing_cells(a, b):
    """(iy, ix) of the cells where two (feasible, cost, rel_gap) triples
    differ; NaN equals NaN."""
    import numpy as np

    same = np.ones(a[0].shape, dtype=bool)
    for x, y in zip(a, b):
        same &= np.isclose(x.astype(float), y.astype(float), rtol=0.0, atol=0.0, equal_nan=True)
    return [(int(iy), int(ix)) for iy, ix in zip(*np.nonzero(~same))]


def evaluate(wl, rounds: list, replays: list | None = None) -> tuple[int, int, list[str]]:
    """Check every round's results; returns (attempted, failed, wrong).

    The first round is checked in full (checks.py).  Each later round must
    give the same results as the first, since it runs the same operations.
    In a traced run each round's serial replay must match that round's
    sweep.  `wrong` describes each operation whose output failed a check;
    operations that raised count as failed but not as wrong.
    """
    import checks
    import workloads

    failed: set = set()
    wrong: list[str] = []

    def fail(rnd, key, why=None):
        if (rnd, key) not in failed:
            failed.add((rnd, key))
            if why is not None:
                wrong.append(f"round {rnd} op {key}: {why}")

    first = rounds[0]
    if wl.name == "design":
        for i, res in enumerate(first):
            if isinstance(res, Exception):
                fail(0, i)
                continue
            for why in checks.check_design(wl.problems[res.scenario], res, workloads.MC_SAMPLES):
                fail(0, i, why)
        for r, results in enumerate(rounds[1:], start=1):
            for i, res in enumerate(results):
                if isinstance(res, Exception) or isinstance(first[i], Exception):
                    fail(r, i)
                elif res.digest() != first[i].digest():
                    fail(r, i, "repeat: differs from the first round")
        return len(rounds) * wl.ops_per_round, len(failed), wrong

    check = checks.check_region if wl.name == "region" else checks.check_submap
    good = {k: g for k, g in first.items() if not isinstance(g, Exception)}
    for key, whys in check(wl, good).items():
        for why in whys:
            fail(0, key, why)
    cells = [(iy, ix) for iy, ix, _ in wl.points()]
    triple = lambda g: (g.feasible, g.cost, g.rel_gap)  # noqa: E731
    for r, grids in enumerate(rounds):
        for kind, grid in grids.items():
            if isinstance(grid, Exception) or isinstance(first[kind], Exception):
                for cell in cells:
                    fail(r, (kind, *cell))
                continue
            if r:
                for cell in _differing_cells(triple(grid), triple(first[kind])):
                    fail(r, (kind, *cell), "repeat: differs from the first round")
            if replays is not None:
                for cell in _differing_cells(triple(grid), replays[r][kind]):
                    fail(r, (kind, *cell), "replay: in-process replay differs from the sweep")
    return len(rounds) * wl.ops_per_round, len(failed), wrong


def run(name: str, seed: int, seconds: float, trace: bool, **sizes) -> dict:
    """One benchmark run; returns the result object that main() prints.
    `sizes` go to the workload's constructor (the tests make tiny runs)."""
    os.environ.update(ONE_THREAD_BLAS)  # before numpy loads BLAS
    sys.path.insert(0, SRC_DIR)
    t0 = time.perf_counter()
    import workloads

    cls = workloads.WORKLOADS[name]
    if trace:
        return _run_traced(lambda: cls(seed, **sizes), seconds, seed)
    wl = cls(seed, **sizes)
    return _run_plain(wl, seed, seconds, time.perf_counter() - t0)


def round_time(samples: list) -> tuple[float, float]:
    """(wall, cpu) seconds of an undisturbed round: the sum over the round's
    parts of each part's shortest time over the rounds.  Other tenants of a
    shared machine only ever add time to a part (README.md gives the
    spreads).  `samples` holds one list of (wall, cpu) pairs per round, one
    pair per part.  The first round is a warm-up and is left out when at
    least two others follow it."""
    timed = samples[1:] if len(samples) > 2 else samples
    per_part = list(zip(*timed))
    wall = sum(min(w for w, _ in part) for part in per_part)
    cpu = sum(min(c for _, c in part) for part in per_part)
    return wall, cpu


def _run_plain(wl, seed, seconds, first_setup_s) -> dict:
    import workloads

    rounds, samples = [], []

    def timed(call):
        c0, t0 = _cpu_s(), time.perf_counter()
        try:
            return workloads.attempt(call)
        finally:
            samples[-1].append((time.perf_counter() - t0, _cpu_s() - c0))

    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        samples.append([])
        rounds.append(wl.round(timed))
    rss = _peak_rss_mb()
    _stop_resource_tracker()
    # after the peak is read: these interpreters are not the program's workers
    setup_s = [first_setup_s] + [
        _setup_in_fresh_process(wl.name, seed) for _ in range(SETUP_SAMPLES - 1)]
    attempted, failed, wrong = evaluate(wl, rounds)
    ops = wl.ops_per_round
    wall, cpu = round_time(samples)
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "ops_per_s": (ops / wall, "op/s"),
        "cpu_ms_per_op": (1e3 * cpu / ops, "ms/op"),
        "peak_rss_mb": (rss, "MB"),
    }
    return _result(wrong, attempted, failed, metrics, len(rounds))


def _run_traced(make, seconds, seed) -> dict:
    from tracing import Tracer

    rounds, replays = [], []
    sweep_s = replay_s = 0.0
    with Tracer() as tracer:
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < seconds:
            wl = make()  # the set-up is traced in every round
            t0 = time.perf_counter()
            rounds.append(wl.round())
            if wl.name != "design":
                sweep_s += time.perf_counter() - t0
                t0 = time.perf_counter()
                replays.append({kind: wl.replay(kind) for kind in wl.designs})
                replay_s += time.perf_counter() - t0
    _stop_resource_tracker()
    attempted, failed, wrong = evaluate(wl, rounds, replays or None)
    layer = tracer.metrics(len(rounds), sweep_s, replay_s)
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"trace-{wl.name}-seed{seed}.json"), "w",
              encoding="utf-8") as f:
        json.dump({"workload": wl.name, "seed": seed, "rounds": len(rounds),
                   "metrics": layer, **tracer.dump()}, f, indent=1)
    metrics = {k: (v, _layer_unit(k)) for k, v in layer.items()}
    return _result(wrong, attempted, failed, metrics, len(rounds))


def _layer_unit(name: str) -> str:
    if name == "cmpc.sweep_speedup":
        return "ratio"
    if name.endswith(".s") or name.endswith("_s"):
        return "s/round"
    return "count/round"


def _result(wrong, attempted, failed, metrics, rounds) -> dict:
    for line in wrong[:20]:
        print(f"WRONG {line}", file=sys.stderr)
    print(f"{rounds} rounds, {attempted} operations, {failed} failed, "
          f"{len(wrong)} with wrong output", file=sys.stderr)
    return {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=1, help="input seed (default 1)")
    p.add_argument("--seconds", type=float, default=35.0,
                   help="length of the timed part (default 35, as in BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(SRC_DIR, "lqmpc", "__init__.py")):
        print(f"error: no lqmpc sources under {SRC_DIR}", file=sys.stderr)
        return 2
    print(json.dumps(run(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
