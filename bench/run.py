#!/usr/bin/env python3
"""Run one benchmark workload against the pira package in ../src.

    python3 bench/run.py --workload walk --seed 1 --seconds 25 --trace 0

Workloads: walk, exact, ingest, scenarios; catalog.py says why
each exists and what each metric measures.

With ``--trace 0`` the run sets up the workload several times, then repeats
its task for ``--seconds`` seconds with tracing off and reports the
end-to-end metrics; ``task_s`` is the median of the executions, each in
host-scaled seconds (see ``HostClock``).
With ``--trace 1`` it repeats the task untraced for half the time and
traced for the other half, then once more with ``tracemalloc`` peaks per
span, and reports the per-layer metrics (medians over the traced
executions) plus the tracing overhead.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; ``failed / attempted`` is the
error rate, where every task execution and every output check counts as
one operation.  The spans and run metadata go to
``.bench_out/<workload>-seed<seed>-trace<0|1>.json``.  Generated datasets
live in ``.bench_work/`` only while the run lasts.

Everything runs in this one process, with BLAS pinned to one thread.
"""

from __future__ import annotations

import os

# pinned before numpy is first imported
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import functools
import gc
import json
import platform
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import catalog

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
MIN_REPEATS = 3
PROBE_ALU_LOOPS = 25_000
PROBE_CHASE_STEPS = 20_000
PROBE_CYCLE = 1 << 18        # list entries the chase walks through, ~10 MB with its ints
PROBE_DICT_OPS = 8_000
PROBE_ROUNDS = 2             # of the graph job
PROBE_NODES = 300
PROBE_EDGES = 3_000
# About the probe's seconds on the host the bounds were tuned on (2-vCPU
# Intel Xeon VM, CPython 3.11).
PROBE_REFERENCE_S = 0.02


@functools.cache
def probe_cycle() -> list[int]:
    """A fixed random cyclic permutation: ``cycle[j]`` is the next entry."""
    order = list(range(PROBE_CYCLE))
    random.Random(0).shuffle(order)
    cycle = [0] * PROBE_CYCLE
    for a, b in zip(order, order[1:] + order[:1]):
        cycle[a] = b
    return cycle


def host_probe() -> float:
    """Seconds for fixed pure-Python work that does not touch pira, so they
    measure machine noise only: tight loops of integer arithmetic, of a
    pointer chase through a list too big for the core's own caches and of
    dict updates, then a small job shaped like pira's own code, which builds
    a random graph as adjacency lists, searches it breadth-first, ranks its
    nodes, writes the ranking as TSV text and splits it again."""
    cycle = probe_cycle()
    start = time.perf_counter()
    x = 0
    for i in range(PROBE_ALU_LOOPS):
        x += i * i % 7
    j = 0
    for _ in range(PROBE_CHASE_STEPS):
        j = cycle[j]
    d: dict[int, float] = {}
    for i in range(PROBE_DICT_OPS):
        d[i * 7919 % 100003] = d.get(i % 5000, 0.0) + 1.5
    for _ in range(PROBE_ROUNDS):
        rand = random.Random(7).random
        adj: list[list[int]] = [[] for _ in range(PROBE_NODES)]
        for _ in range(PROBE_EDGES):
            adj[int(rand() * PROBE_NODES)].append(int(rand() * PROBE_NODES))
        seen, queue = {0}, [0]
        for node in queue:
            for nb in adj[node]:
                if nb not in seen:
                    seen.add(nb)
                    queue.append(nb)
        ranked = sorted(((len(a) * 0.5, i) for i, a in enumerate(adj)),
                        key=lambda t: (-t[0], t[1]))
        text = "\n".join(f"{i}\t{c:.6f}" for c, i in ranked)
        rows = [line.split("\t") for line in text.splitlines()]
        assert len(rows) == PROBE_NODES
    return time.perf_counter() - start


class HostClock:
    """Times work in host-scaled seconds.

    The shared 2-vCPU VM the bounds were tuned on runs the same Python code
    up to 1.8 times slower at times, in phases from under a second to
    minutes long, with no steal time to show for it, so CPU time drifts as
    much as wall time.  Timed work is therefore cut into segments with
    ``host_probe`` calls at both ends of each: ``timed`` opens the first
    segment, and a workload's task calls ``lap`` between its steps.  Each
    segment's wall seconds are scaled by ``PROBE_REFERENCE_S`` over the mean
    of its two probes, giving the seconds it would take on a host that runs
    the probe in ``PROBE_REFERENCE_S``; probe time itself is not counted.
    The host's slow phases slow different code by different amounts, so
    the probe mixes several kinds.  In stretches of host noise where the
    median of eight ``walk`` executions spread (IQR / median) 0.45 unscaled,
    scaling left 0.19 with the tight loops alone and 0.07 to 0.12 with the
    graph job alone; in calmer stretches the tight loops did better on
    ``scenarios`` and ``exact`` (0.03 and 0.01 against 0.05 and 0.04), and
    the sum of both did as well as the better of the two there.
    Probing only before and after whole executions missed sub-second
    phases, hence the laps.
    """

    def __init__(self) -> None:
        self.probes: list[float] = []
        self._start: float | None = None   # start of the open segment, if any
        self._before = 0.0                 # the probe at its start
        self._wall = 0.0
        self._scaled = 0.0

    def probe(self) -> float:
        seconds = host_probe()
        self.probes.append(seconds)
        return seconds

    def lap(self) -> None:
        """Close the open segment and open the next; a no-op outside
        ``timed``."""
        if self._start is None:
            return
        wall = time.perf_counter() - self._start
        after = self.probe()
        self._wall += wall
        self._scaled += wall * PROBE_REFERENCE_S / ((self._before + after) / 2)
        self._before = after
        self._start = time.perf_counter()

    def timed(self, fn, *args):
        """``(fn(*args), wall seconds, host-scaled seconds)``."""
        self._wall = self._scaled = 0.0
        self._before = self.probe()
        self._start = time.perf_counter()
        try:
            result = fn(*args)
            self.lap()
        finally:
            self._start = None
        return result, self._wall, self._scaled


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def measure(clock, wl, ctx, state, ck, seconds: float, min_reps: int = MIN_REPEATS,
            on_rep=None) -> tuple[list[float], list[float]]:
    """Repeat the task for `seconds`, and at least `min_reps` times unless
    that takes four times as long; returns the wall and the host-scaled
    seconds of the successful executions."""
    times: list[float] = []
    scaled: list[float] = []
    attempts = 0
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and (len(times) >= min_reps
                                   or (attempts and elapsed >= 4 * seconds)):
            break
        attempts += 1
        gc.collect()
        try:
            out, wall, wall_scaled = clock.timed(wl.task, ctx, state)
        except Exception as exc:  # a failed execution is counted, not fatal
            ck.record("task", f"{type(exc).__name__}: {exc}")
            continue
        finally:
            if on_rep is not None:
                on_rep()
        times.append(wall)
        scaled.append(wall_scaled)
        ck.record("task", None)
        try:
            wl.check(ck, state, out)
        except Exception as exc:
            ck.record("check", f"{type(exc).__name__}: {exc}")
        del out  # not alive during the next execution, which would add to its peak memory
    return times, scaled


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def run(args) -> int:
    clock = HostClock()
    sys.path.insert(0, str(SRC))

    def import_workloads():
        import workloads  # imports pira, numpy and scipy
        return workloads

    workloads, import_s, import_scaled_s = clock.timed(import_workloads)
    import checks
    from spans import Tracer, summarize

    pira_file = Path(workloads.pira.__file__).resolve()
    if SRC not in pira_file.parents:
        print(f"error: imported pira from {pira_file}, not from {SRC}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]

    work_parent = ROOT / ".bench_work"
    work_parent.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_parent))
    ck = checks.Checker()
    record: dict = {}
    layer: dict[str, float] = {}
    try:
        ctx = workloads.Context(work, args.seed, clock.lap)
        setup_times, setup_scaled = [], []
        for _ in range(1 if args.trace else SETUP_REPEATS):
            gc.collect()
            state, wall, wall_scaled = clock.timed(wl.setup, ctx)
            setup_times.append(wall)
            setup_scaled.append(wall_scaled)

        if not args.trace:
            times, scaled = measure(clock, wl, ctx, state, ck, args.seconds)
            values = {
                "task_s": median(scaled),
                "setup_s": import_scaled_s + median(setup_scaled),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            record.update(task_seconds=times, task_scaled_seconds=scaled,
                          task_median_s=median(times))
        else:
            untraced, _ = measure(clock, wl, ctx, state, ck, args.seconds / 2)
            tracer = Tracer(args.workload, workloads.MEMORY_SKIP)
            workloads.instrument(tracer)
            per_rep: list[dict[str, float]] = []
            spans_out: list = []

            def harvest() -> None:
                spans = tracer.take()
                spans_out.extend(spans)
                per_rep.append(workloads.layer_values(summarize(spans), spans))

            try:
                traced, _ = measure(clock, wl, ctx, state, ck, args.seconds / 2, on_rep=harvest)
                tracer.memory = True
                try:
                    measure(clock, wl, ctx, state, ck, 0, min_reps=1)
                finally:
                    tracer.memory = False
                memory_spans = tracer.take()
            finally:
                tracer.restore()
            layer.update({k: median([r[k] for r in per_rep]) for k in per_rep[0]})
            layer.update(workloads.memory_values(summarize(memory_spans)))
            layer["trace.overhead_s"] = median(traced) - median(untraced)
            record.update(untraced_task_seconds=untraced, traced_task_seconds=traced,
                          span_summary=summarize(spans_out),
                          memory_span_summary=summarize(memory_spans),
                          spans=[vars(s) for s in spans_out + memory_spans])

        try:
            wl.finish(ctx, ck, state, layer)
        except Exception as exc:
            ck.record("finish", f"{type(exc).__name__}: {exc}")
        meta = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "git_sha": git_sha(), "python": platform.python_version(),
            **workloads.versions(),
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
            "sizes": {k: getattr(workloads, k) for k in (
                "WALK_AUTHORS", "ARRIVALS_PER_NODE", "WALKERS", "EXACT_AUTHORS",
                "INGEST_AUTHORS", "SCENARIO_PADDINGS")},
            "input": state.meta(),
            "import_s": import_s, "setup_seconds": setup_times,
            "setup_scaled_seconds": setup_scaled,
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)

    meta["host_probe_s"] = {"reference": PROBE_REFERENCE_S, "start": clock.probes[0],
                            "end": clock.probes[-1], "median": median(clock.probes),
                            "min": min(clock.probes), "max": max(clock.probes)}
    if args.trace:
        layer.setdefault("walk.mae", 0.0)
        layer["host.probe_s"] = median(clock.probes)
        metrics = {k: {"value": float(layer[k]), "unit": unit}
                   for k, (unit, _, _) in catalog.PER_LAYER.items()}
    else:
        metrics = {k: {"value": float(values[k]), "unit": unit}
                   for k, (unit, _) in catalog.END_TO_END.items()}

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"{args.workload}-seed{args.seed}-trace{int(args.trace)}.json"
    out_file.write_text(json.dumps({"meta": meta, "metrics": metrics, "checks": {
        "attempted": ck.attempted, "failed": ck.failed, "messages": ck.messages}, **record}))

    for message in ck.messages:
        print(f"check failed: {message}", file=sys.stderr)
    print("meta " + json.dumps(meta))
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    if "task_median_s" in record:
        print(f"{args.workload} task median = {record['task_median_s']:.6g} s "
              f"over {len(record['task_seconds'])} executions")
    print(f"{args.workload} error_rate = {ck.failed / max(ck.attempted, 1):.6g} "
          f"({ck.failed} of {ck.attempted} operations)")
    print(json.dumps({"correct": ck.failed == 0, "attempted": ck.attempted,
                      "failed": ck.failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(catalog.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "pira" / "__init__.py").is_file():
        print(f"error: no pira package under {SRC}", file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
