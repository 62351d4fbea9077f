"""End-to-end and per-layer benchmark for the fewweights pipelines.

Run from the repository root:

    python3 perfbench/run.py --workload apsp-nw --seed 1 --seconds 15 --trace 0

Workloads: apsp-nw, apsp-dweights, aete, reductions (see perfbench/README.md).
The library is imported from ./src; nothing needs building.  The run builds
its instance set from the seed, then solves every instance through the
pipeline's public entry point, checks every output against the pipeline's
oracle, and repeats full passes over the set while another pass would end
within --seconds (at least one pass).  Times are scaled to a reference
speed (speed.py), and a call's time is its median over the passes.

--trace 0 prints the end-to-end metrics; --trace 1 does one untraced pass and
then traced passes, and prints the per-layer metrics and the tracing
overhead.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Pinned before numpy is imported: one process, one BLAS/OpenMP thread.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")

LIBRARY_MODULES = ("core", "minplus", "apsp", "additive", "exact_triangle",
                   "reductions", "generators")

# Reference calls (speed.py) timed before each instance and after the last;
# an instance's times are scaled by the ones just before and just after it.
BRACKET = 2

# A set-up round is SETUP_TRIES consecutive set-ups and keeps their median.
# One round runs before the first pass and one after each pass, up to
# SETUP_ROUNDS; if the passes were fewer, the rest run at the end.  setup_s
# is the median over the rounds.
SETUP_TRIES, SETUP_ROUNDS = 3, 5

# An oracle call cheaper than this is repeated, up to ORACLE_REPEATS calls,
# so that verify_s is not the sum of single sub-millisecond readings.
CHEAP_ORACLE_NS, ORACLE_REPEATS = 10_000_000, 5

# Every time is measured as process CPU time.  The run is single-threaded,
# so this is the wall time minus the time the process was not running; on a
# shared VM, CPU steal makes wall time swing for identical work.  It is then
# scaled to the reference speed of speed.py.
clock_ns = time.process_time_ns


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _loaded_library():
    return {n: m for n, m in sys.modules.items()
            if n == "fewweights" or n.startswith("fewweights.")}


def import_library():
    """Import the fewweights package afresh and return its modules by name."""
    for name in _loaded_library():
        del sys.modules[name]
    importlib.import_module("fewweights")
    return {name: importlib.import_module(f"fewweights.{name}")
            for name in LIBRARY_MODULES}


@contextlib.contextmanager
def library_kept():
    """Put the loaded fewweights modules back in sys.modules on exit, so that
    set-ups timed mid-run leave the instances' own modules in place."""
    kept = _loaded_library()
    try:
        yield
    finally:
        for name in _loaded_library():
            del sys.modules[name]
        sys.modules.update(kept)


class Run:
    """State of one benchmark run: tallies, failures and check results."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.problems = []
        self.attempted = 0
        self.failed = 0

    def problem(self, text):
        self.problems.append(text)
        print(f"CHECK FAILED workload={self.workload} seed={self.seed}: {text}")

    def fail(self, index, inst, label, reason):
        self.failed += 1
        print(f"FAIL workload={self.workload} seed={self.seed} instance={index} "
              f"({inst.kind}) case={label}: {reason}")


class Tally:
    """Scaled timings of the solver and oracle calls of one or more passes,
    keyed by call; a call's time is its median over the passes."""

    def __init__(self):
        self.solve_ns = {}
        self.oracle_ns = {}
        self.handoffs = 0

    def solve_times(self):
        return [statistics.median(v) for v in self.solve_ns.values()]

    def instances_per_s(self):
        times = self.solve_times()
        return len(times) / (sum(times) / 1e9) if times else 0.0

    def solve_p50_s(self):
        times = self.solve_times()
        return statistics.median(times) / 1e9 if times else 0.0

    def verify_s(self):
        return sum(statistics.median(v) for v in self.oracle_ns.values()) / 1e9


def timed_call(run, fn, fw, tracer, where):
    """Call fn; under tracing, check traced kernel counts against the
    library's own counters for this call."""
    if tracer is not None:
        before = tracer.tallies()
        fw["minplus"].reset_counters()
    t0 = clock_ns()
    out = fn()
    elapsed = clock_ns() - t0
    if tracer is not None:
        after = tracer.tallies()
        snap = fw["minplus"].snapshot_counters()
        for key, value in after.items():
            if value - before[key] != snap.get(key):
                run.problem(f"{where}: traced {key}={value - before[key]} but "
                            f"minplus.snapshot_counters() says {snap.get(key)}")
    return out, elapsed


def run_pass(run, fw, instances, tally, speed, tracer=None):
    """Solve and verify every instance once, timing the reference routine
    between instances.  Returns the digest of the outputs and the pass's
    median speed factor; each instance's times go to the tally scaled by the
    reference times around it."""
    from workloads import feed

    digest = hashlib.sha256()
    solve_ns, oracle_ns = [], []
    bounds = []  # bounds[i]: reference times just before instance i
    for index, inst in enumerate(instances):
        bounds.append(speed.samples(BRACKET))
        try:
            ref, elapsed = timed_call(run, inst.oracle, fw, tracer,
                                      f"instance {index} oracle")
        except Exception:
            traceback.print_exc()
            for case in inst.cases:
                run.attempted += 1
                run.fail(index, inst, case.label, "oracle raised")
            continue
        spent = [elapsed]
        # untraced only: the repeat count depends on timing, traced counts must not
        while (tracer is None and sum(spent) < CHEAP_ORACLE_NS
               and len(spent) < ORACLE_REPEATS):
            spent.append(timed_call(run, inst.oracle, fw, None, "")[1])
        oracle_ns.append((index, statistics.median(spent)))
        for number, case in enumerate(inst.cases):
            run.attempted += 1
            handed = case.handoff.calls if case.handoff else 0
            try:
                out, elapsed = timed_call(run, case.solve, fw, tracer,
                                          f"instance {index} {case.label}")
            except Exception as exc:
                traceback.print_exc()
                run.fail(index, inst, case.label, f"raised {type(exc).__name__}: {exc}")
                continue
            if not inst.same(out, ref):
                run.fail(index, inst, case.label, "output differs from the oracle")
                continue
            solve_ns.append(((index, number), elapsed))
            if case.handoff:
                tally.handoffs += case.handoff.calls - handed
            feed(digest, out)
    bounds.append(speed.samples(BRACKET))
    factors = [speed.factor(bounds[i] + bounds[i + 1]) for i in range(len(instances))]
    for key, ns in solve_ns:
        tally.solve_ns.setdefault(key, []).append(ns * factors[key[0]])
    for index, ns in oracle_ns:
        tally.oracle_ns.setdefault(index, []).append(ns * factors[index])
    return digest.hexdigest(), statistics.median(factors)


class Setup:
    """Set-up rounds of one run: each imports the library afresh and builds
    the instance set SETUP_TRIES times, timing the reference routine before
    each try and after the last, and keeps the median scaled time.  Every
    set-up must build the same instances."""

    def __init__(self, run, workload, seed, speed):
        self.run, self.workload, self.seed, self.speed = run, workload, seed, speed
        self.round_s = []
        self.inputs_sha = None

    def round(self):
        """Run one round; return the modules and instances of its last try."""
        from workloads import fingerprint

        times, refs = [], []
        for _ in range(SETUP_TRIES):
            gc.collect()  # the previous try's modules and instances are garbage
            refs += self.speed.samples(1)
            t0 = clock_ns()
            fw = import_library()
            instances = self.workload.build(fw, self.seed)
            times.append((clock_ns() - t0) / 1e9)
            sha = fingerprint(inst.inputs for inst in instances)
            if self.inputs_sha is None:
                self.inputs_sha = sha
            elif sha != self.inputs_sha:
                self.run.problem("the same seed built different instances")
        refs += self.speed.samples(1)
        self.round_s.append(statistics.median(times) * self.speed.factor(refs))
        return fw, instances

    def timed_round(self):
        """A further round, up to SETUP_ROUNDS, leaving the run's modules
        loaded."""
        if len(self.round_s) < SETUP_ROUNDS:
            with library_kept():
                self.round()

    def check_other_seed(self, fw):
        from workloads import fingerprint

        other = fingerprint(inst.inputs
                            for inst in self.workload.build(fw, self.seed + 1))
        if other == self.inputs_sha:
            self.run.problem("a different seed built the same instances")

    def setup_s(self):
        return statistics.median(self.round_s)


def passes_until(run, fw, instances, tally, speed, deadline, tracers=None,
                 between=None):
    """Full passes while another one would end before the deadline (at
    least one pass); outputs must repeat from pass to pass.  `between` is
    called after each pass.

    Returns the output digest and the number of passes.
    """
    from tracing import Tracer, installed

    digests = []
    while True:
        gc.collect()
        t0 = time.perf_counter()
        if tracers is None:
            digest, _ = run_pass(run, fw, instances, tally, speed)
        else:
            tracer = Tracer()
            with installed(tracer, fw):
                digest, tracer.scale = run_pass(run, fw, instances, tally, speed,
                                                tracer)
            tracers.append(tracer)
        digests.append(digest)
        if between is not None:
            between()
        now = time.perf_counter()
        if now + (now - t0) >= deadline:
            break
    if len(set(digests)) != 1:
        run.problem("solver outputs changed between passes")
    if tracers and len({t.counts() for t in tracers}) != 1:
        run.problem("per-layer counts changed between traced passes")
    return digests[0], len(digests)


def tail_text(samples):
    """Highest percentile with at least ten samples beyond it, if any."""
    n = len(samples)
    for pct in (99, 95, 90):
        if n * (100 - pct) / 100 >= 10:
            cut = statistics.quantiles(samples, n=100)[pct - 1]
            return f"p{pct} {cut / 1e9:.6f} s"
    return "no tail percentile (fewer than 10 samples beyond p90)"


def environment_text(np):
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = os.cpu_count()
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = blas.get("openblas configuration") or f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    threads = " ".join(f"{v}={os.environ.get(v)}" for v in THREAD_VARS)
    return (f"env nproc={affinity} cpu_count={os.cpu_count()} "
            f"python={platform.python_version()} numpy={np.__version__} "
            f"blas=[{blas}] processes=1 {threads}")


def main(argv=None):
    args = parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        print("error: --seconds must be positive and --seed nonnegative",
              file=sys.stderr)
        return 2
    if not (SRC / "fewweights" / "__init__.py").is_file():
        print(f"error: library sources not found under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import numpy as np
    from speed import Speed
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    run = Run(args.workload, args.seed)
    print(environment_text(np))
    print(f"workload {args.workload} seed {args.seed}: {workload.sizes}")

    start = time.perf_counter()
    deadline = start + args.seconds
    speed = Speed(clock_ns)
    setup = Setup(run, workload, args.seed, speed)
    fw, instances = setup.round()
    setup.check_other_seed(fw)
    metrics = {}
    if args.trace == 0:
        tally = Tally()
        outputs_sha, passes = passes_until(run, fw, instances, tally, speed,
                                           deadline, between=setup.timed_round)
        while len(setup.round_s) < SETUP_ROUNDS:
            setup.timed_round()
        metrics["instances_per_s"] = (tally.instances_per_s(), "1/s")
        metrics["solve_p50_s"] = (tally.solve_p50_s(), "s")
        metrics["verify_s"] = (tally.verify_s(), "s")
        metrics["setup_s"] = (setup.setup_s(), "s")
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        times = tally.solve_times()
        print(f"{passes} passes over {len(instances)} instances in "
              f"{time.perf_counter() - start:.1f} s wall; times are process CPU "
              f"time scaled to the reference speed, each call's median over "
              f"{passes} passes; solve_p50_s over "
              f"{len(times)} successful solver calls, {tail_text(times)}; "
              f"verify_s is the oracle time of one pass; setup_s is the median "
              f"of {len(setup.round_s)} rounds of the median of {SETUP_TRIES} "
              f"imports + builds")
    else:
        from tracing import layer_metrics

        untraced = Tally()
        outputs_sha, _ = passes_until(run, fw, instances, untraced, speed, start)
        traced, tracers = Tally(), []
        traced_sha, _ = passes_until(run, fw, instances, traced, speed, deadline,
                                     tracers)
        if traced_sha != outputs_sha:
            run.problem("traced outputs differ from untraced outputs")
        metrics.update(layer_metrics(tracers))
        metrics["reductions.solver_calls"] = (traced.handoffs // len(tracers), "count")
        base, slow = untraced.instances_per_s(), traced.instances_per_s()
        metrics["trace.instances_per_s_untraced"] = (base, "1/s")
        metrics["trace.instances_per_s_traced"] = (slow, "1/s")
        metrics["trace.overhead_instances_per_s"] = (slow - base, "1/s")
        counts = hashlib.sha256(repr(tracers[0].counts()).encode())
        print(f"traced passes {len(tracers)}; per-layer counts are per pass; "
              f"self_s is scaled to the reference speed and is the mean per "
              f"pass; counts_sha256 {counts.hexdigest()}")

    quartiles = statistics.quantiles(speed.factors, n=4)
    print(f"speed factors (reference speed / measured speed) of "
          f"{len(speed.factors)} windows: min {min(speed.factors):.3f} "
          f"quartiles {' '.join(f'{q:.3f}' for q in quartiles)} "
          f"max {max(speed.factors):.3f}")
    print(f"inputs_sha256 {setup.inputs_sha}")
    print(f"outputs_sha256 {outputs_sha}")
    print(f"failed_frac {run.failed / max(run.attempted, 1)} fraction "
          f"({run.failed}/{run.attempted} solver calls)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    result = {
        "correct": run.failed == 0 and not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
