"""bcopt benchmark: one workload, one seed, one process, one caller.

    python3 perfbench/run.py --workload scale --seed 1 --seconds 35 --trace 0

Builds the package from the checkout's own ``src/`` (nothing is
installed), sets the workload up several times and reports the median
set-up, then runs ops in a closed loop (the next op starts when the
previous one returns) until ``--seconds`` of wall time have passed.
Set-up and ops are timed in CPU seconds of the process (see ``cpu_now``)
and scaled to a reference machine speed (see ``reference_work``).  After
the timed phase, untimed, it checks every answer on a separately built
copy of its instance and re-solves the first ops on fresh instances to
check that the answers repeat.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs a fixed
number of cycles of the workload's ops twice, untraced and then traced,
and prints the per-layer metrics (see ``tracer.py``) and the tracing
overhead; the spans go to ``.perfbench/`` in the checkout.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 1 when an
answer is wrong or does not repeat, 2 when the checkout cannot be run.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import resource
import statistics
import sys
import time
from collections import Counter
from fractions import Fraction
from itertools import chain, islice
from typing import Iterable

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads as W  # noqa: E402
from tracer import Tracer  # noqa: E402

SETUP_REPS = 7
# The traced run repeats a fixed number of cycles, so that its counts
# are exact and comparable between runs.
TRACE_CYCLES = {"desk": 5, "scale": 3, "nps_large": 2}
# ops re-solved on fresh instances after the timed phase; scale's first
# two ops share one instance, so the cached second solve is covered too
RESOLVE_FIRST = {"desk": 1, "scale": 2, "nps_large": 1}
# verifier time for the NPS contract on nps_large; past it, feasibility only
NPS_VERIFY_BUDGET_S = 10.0
# CPU seconds of reference_work at the reference speed (about a 2-core
# x86-64 VM's speed with Python 3.11); every time is scaled to it
REFERENCE_S = 0.0003


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "bcopt", "__init__.py")):
        print(f"error: no package source at {os.path.join(ROOT, 'src', 'bcopt')}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))

    wl = W.Desk(ROOT) if args.workload == "desk" else W.WORKLOADS[args.workload]()
    bc, first, stream, setup_s = set_up(wl, args.seed)
    print(f"workload {wl.name} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    print(f"  setup_s        {setup_s:.4f} s (median of {SETUP_REPS} set-ups, "
          f"each importing bcopt and building the first {len(first)} ops)")
    if args.trace:
        ops = first + list(islice(stream, (TRACE_CYCLES[wl.name] - 1) * wl.cycle_len))
        result = traced_run(bc, wl, ops, args.seed)
    else:
        result = timed_run(bc, wl, chain(first, stream), args.seconds, setup_s)
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


def cpu_now() -> float:
    """CPU seconds used so far by this process, all its threads, and its
    children once reaped.  The package is CPU-bound and single-threaded,
    so an op's CPU time is its latency on a core of its own.  Wall time
    on a shared VM adds whatever the host takes from the process: 4 to
    12 % of a desk run, in stalls that double single ops; those made the
    wall-clock tail of desk vary by 1.6x between runs, against 1 % for
    the CPU-time tail."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def reference_work() -> None:
    """A fixed piece of pure-Python work that does not touch the package:
    Fraction arithmetic, hashing and sorting, the package's kind of work.

    The CPU time of the same work on this shared VM moves by up to 2x
    between seconds of a run (cache and core sharing with other tenants),
    and whole 35 s runs differ by up to 1.4x.  So its CPU time is measured
    after every op and every set-up (median of three), and each op's CPU
    time is scaled by REFERENCE_S over the mean of the measurements just
    before and just after it.  In eight desk runs of the same ops, the
    quartile spread of ops_per_s was 0.17 in CPU time and 0.02 scaled."""
    gc.disable()  # the package's garbage is not collected inside it
    try:
        total = Fraction(0)
        seen: dict[Fraction, int] = {}
        for i in range(1, 50):
            f = Fraction(i % 19 + 1, i % 23 + 1)
            total += f
            seen[f] = seen.get(f, 0) + 1
        sorted(seen)
    finally:
        gc.enable()


def machine_speed() -> float:
    """CPU seconds of reference_work now, median of three."""
    runs = []
    for _ in range(3):
        t0 = cpu_now()
        reference_work()
        runs.append(cpu_now() - t0)
    return statistics.median(runs)


def set_up(wl: W.Workload, seed: int):
    """Import the package from source and build the first cycle of ops,
    SETUP_REPS times from a clean module table; the median is set-up.
    Later cycles are built between ops, outside the timed op calls."""
    times = []
    for _ in range(SETUP_REPS):
        for name in [m for m in sys.modules if m == "bcopt" or m.startswith("bcopt.")]:
            del sys.modules[name]
        gc.collect()  # the previous set-up's garbage is not this one's cost
        before = machine_speed()
        t0 = cpu_now()
        bc = importlib.import_module("bcopt")
        importlib.import_module("bcopt.cli")
        stream = wl.stream(bc, seed)
        first = list(islice(stream, wl.cycle_len))
        dt = cpu_now() - t0
        times.append(dt * 2 * REFERENCE_S / (before + machine_speed()))
    if not bc.__file__.startswith(os.path.join(ROOT, "src")):
        raise SystemExit(f"bcopt imported from {bc.__file__}, not this checkout")
    gc.collect()
    # Objects alive now (imported modules, networkx among them, and the
    # set-up's own) leave the collector's view.  Otherwise every full
    # collection during the run walks them: a 30 ms pause on a 2-core VM
    # that lands on a few ops per run and decides the tail.  A `bcopt
    # solve` process never walks them during its one solve; objects the
    # ops create are collected as usual.
    gc.freeze()
    return bc, first, stream, statistics.median(times)


def run_ops(ops: Iterable[W.Op], seconds: float | None, cycle_len: int = 1,
            tracer: Tracer | None = None):
    """Closed loop: each op starts when the previous one has returned.
    Stops at the first cycle boundary once the wall time spent in ops
    reaches ``seconds`` (None: runs them all), so every slot is run
    equally often.  Returns the ops run; their times at the reference
    speed, CPU times and wall times; outcomes and errors.  An op's
    instance is dropped once it has run, so peak memory is the
    package's, not the benchmark's."""
    done: list[W.Op] = []
    times: list[float] = []
    cpu: list[float] = []
    wall: list[float] = []
    outcomes: list[tuple | None] = []
    errors: dict[int, str] = {}
    busy = 0.0
    speed = machine_speed()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.begin_op(i)
        t0 = time.perf_counter()
        c0 = cpu_now()
        try:
            out = op.call()
        except Exception as exc:  # a failing op is counted, not fatal
            out = None
            errors[i] = f"{type(exc).__name__}: {exc}"
        dc = cpu_now() - c0
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.end_op()
        before, speed = speed, machine_speed()
        op.call = None
        done.append(op)
        times.append(dc * 2 * REFERENCE_S / (before + speed))
        cpu.append(dc)
        wall.append(dt)
        outcomes.append(out)
        busy += dt
        if seconds is not None and busy >= seconds and len(done) % cycle_len == 0:
            break
    return done, times, cpu, wall, outcomes, errors


def timed_run(bc, wl: W.Workload, ops: Iterable[W.Op], seconds: float,
              setup_s: float) -> dict:
    t0 = time.perf_counter()
    ops, times, cpu, wall, outcomes, errors = run_ops(ops, seconds, wl.cycle_len)
    elapsed = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    n = len(times)
    k, pct = W.percentile_rank(n)
    lat = sorted(d * 1000 for d in times)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (n / sum(times), "1/s"),
        "latency_p50_ms": (statistics.median(lat), "ms"),
        "latency_tail_ms": (lat[k], "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    print(f"  ops            {n} in {sum(times):.3f} s of op calls at the reference "
          f"speed, {sum(cpu):.3f} CPU s, {sum(wall):.3f} s wall ({elapsed:.3f} s with "
          f"instance builds and speed checks between ops), closed loop, 1 caller")
    for name, (value, unit) in metrics.items():
        if name != "setup_s":
            print(f"  {name:<15} {value:.4f} {unit}")
    print(f"  latency_tail   is p{pct:.1f} of {n} samples, {n - 1 - k} beyond it")
    for clock, durations in (("CPU time", cpu), ("wall clock", wall)):
        raw = sorted(d * 1000 for d in durations)
        print(f"  {clock:<14} {n / sum(durations):.4f} ops/s, p50 "
              f"{statistics.median(raw):.4f} ms, tail {raw[k]:.4f} ms (unscaled)")
    if wl.name != "desk":  # desk has 80 slots, one per file and epsilon
        slots: dict[str, list[float]] = {}
        for op, d in zip(ops, times):
            slots.setdefault(op.slot, []).append(d * 1000)
        print("  per slot       " + ", ".join(
            f"{s} {statistics.median(v):.0f} ms x{len(v)}" for s, v in slots.items()))

    failures = single_process_check(len(ops) - 1)
    failures += verify(bc, wl, ops, outcomes, errors)
    failures += repeat_check(bc, wl, ops, outcomes)
    failed_ops = {i for i, _ in failures}
    print(f"  failed_frac    {len(failed_ops) / n:.4f} ratio ({len(failed_ops)} of {n})")
    print(f"  digest         first {min(n, wl.cycle_len)} ops "
          f"{digest(outcomes[: wl.cycle_len])}; all {n} ops {digest(outcomes)}")
    report_failures(failures)
    return result(not failures, n, len(failed_ops), metrics)


def traced_run(bc, wl: W.Workload, ops: list[W.Op], seed: int) -> dict:
    """Fixed cycles untraced, then the same ops on fresh instances traced."""
    _, plain, _, _, out_plain, _ = run_ops(ops, None)
    again = wl.redo(bc, ops)
    tracer = Tracer()
    tracer.open()
    try:
        _, traced, _, _, out_traced, err_traced = run_ops(again, None, tracer=tracer)
    finally:
        tracer.close()
    n = len(ops)
    busy_plain, busy_traced = sum(plain), sum(traced)

    # the untraced answers are checked through their equality with these
    failures = verify(bc, wl, again, out_traced, err_traced)
    for i in range(n):
        if out_plain[i] != out_traced[i]:
            failures.append((i, f"determinism: {ops[i].slot} gave {out_plain[i]} "
                                f"untraced and {out_traced[i]} traced"))
    failed_ops = {i for i, _ in failures}

    baseline = exact_baseline(bc, ops) if wl.name == "scale" else 0.0
    metrics = layer_metrics(tracer, n / busy_plain, n / busy_traced, n, baseline)
    counts = {k: v for k, (v, unit) in metrics.items() if unit == "count"}
    print(f"  ops            {n} per pass ({TRACE_CYCLES[wl.name]} cycles), untraced "
          f"{busy_plain:.3f} s, traced {busy_traced:.3f} s at the reference speed")
    for name, (value, unit) in metrics.items():
        shown = f"{value}" if unit == "count" else f"{value:.6f}"
        print(f"  {name:<34} {shown} {unit}")
    probes = Counter(span[4] for span in tracer.spans if span[0] == "lagrangian.relax")
    if probes:
        print(f"  probes per op  {min(probes.values())} to {max(probes.values())} "
              f"over the {len(probes)} ops that ran a Lagrangian search")
    if tracer.missing:
        print(f"  not traced     {', '.join(tracer.missing)} (not in this package)")
    print(f"  digest         ops {digest(out_traced)}; counts "
          f"{digest(sorted(counts.items()))}")
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    path = os.path.join(ROOT, ".perfbench", f"spans-{wl.name}-seed{seed}.tsv.gz")
    tracer.write(path)
    print(f"  spans          {len(tracer.spans)} written to "
          f"{os.path.relpath(path, ROOT)}")
    report_failures(failures)
    return result(not failures, 2 * n, len(failed_ops), metrics)


def layer_metrics(tracer: Tracer, plain_rate: float, traced_rate: float, n: int,
                  baseline: float) -> dict:
    inclusive, self_s, calls = tracer.totals()
    c = tracer.counts
    strategy = {"oracles.brute_force": 0, "lagrangian.search": 0}
    for i, children in enumerate(tracer.child_names()):
        if tracer.spans[i][0] == "lagrangian.nps":
            for name in strategy:
                strategy[name] += name in children
    indep = c["matroids.indep.calls"]
    out = {
        "repset.two_approx.s": (inclusive["repset.two_approx"], "s"),
        "repset.two_approx.calls": (calls["repset.two_approx"], "count"),
        "repset.two_approx.cache_hits": (c["repset.two_approx.cache_hits"], "count"),
        "repset.two_approx.candidates": (c["repset.two_approx.candidates"], "count"),
        "driver.prefixes": (c["driver.prefixes"], "count"),
        "driver.eptas_run.self_s": (self_s["driver.eptas_run"], "s"),
        "oracles.iter_solutions.s": (inclusive["oracles.iter_solutions"], "s"),
        "model.residual.s": (inclusive["model.residual"], "s"),
        "model.residual.calls": (calls["model.residual"], "count"),
        "model.instance_builds": (c["model.instance_builds"], "count"),
        "model.profit_classes.s": (inclusive["model.profit_classes"], "s"),
        "exchange.exset.s": (inclusive["exchange.exset"], "s"),
        "exchange.exset.calls": (calls["exchange.exset"], "count"),
        "exchange.basis_calls": (c["exchange.basis_calls"], "count"),
        "lagrangian.nps.calls": (calls["lagrangian.nps"], "count"),
        "lagrangian.nps.exhaustive": (strategy["oracles.brute_force"], "count"),
        "lagrangian.nps.lagrangian": (strategy["lagrangian.search"], "count"),
        "lagrangian.nps.s": (inclusive["lagrangian.nps"], "s"),
        "oracles.brute_force.s": (inclusive["oracles.brute_force"], "s"),
        "oracles.brute_force.calls": (calls["oracles.brute_force"], "count"),
        "oracles.brute_force.cache_hits": (c["oracles.brute_force.cache_hits"], "count"),
        "lagrangian.search.self_s": (self_s["lagrangian.search"], "s"),
        "lagrangian.probes": (calls["lagrangian.relax"], "count"),
        "lagrangian.patch.s": (inclusive["lagrangian.patch"], "s"),
        "oracles.matching.s": (inclusive["oracles.matching"], "s"),
        "oracles.matching.calls": (calls["oracles.matching"], "count"),
        "oracles.mi_chain.s": (inclusive["oracles.mi_chain"], "s"),
        "oracles.mi_chain.calls": (calls["oracles.mi_chain"], "count"),
        "matroids.indep.calls": (indep, "count"),
        "matroids.indep.memo_hit_frac": (
            c["matroids.indep.memo_hits"] / indep if indep else 0.0, "ratio"),
        "serialize.load.s": (inclusive["serialize.load"], "s"),
        "serialize.emit.s": (inclusive["serialize.emit"], "s"),
        "oracles.exact_baseline_s": (baseline, "s"),
        "trace.ops": (n, "count"),
        "trace.ops_per_s_untraced": (plain_rate, "1/s"),
        "trace.ops_per_s_traced": (traced_rate, "1/s"),
        "trace.overhead_frac": (plain_rate / traced_rate - 1, "ratio"),
    }
    return out


def exact_baseline(bc, ops: list[W.Op]) -> float:
    """Seconds of ``brute_force_opt(inst, max_n=inst.n)`` over the
    distinct instances of ``ops``, each built fresh."""
    total = 0.0
    for spec in dict.fromkeys(op.spec for op in ops):
        inst = W.build(bc, spec)
        t0 = time.perf_counter()
        bc.brute_force_opt(inst, max_n=inst.n)
        total += time.perf_counter() - t0
    return total


def verify(bc, wl: W.Workload, ops: list[W.Op], outcomes: list, errors: dict) -> list:
    """(op index, message) for every op whose answer is wrong.  Each spec
    is rebuilt once, so the check never sees the op's own object.

    desk and scale compare against brute_force_opt.  On nps_large exact
    OPT is out of reach for most instances, so the NPS contract is first
    checked against an upper bound on OPT (a Lagrangian dual bound the
    verifier computes itself), then against brute_force_opt within its
    time limit; an op neither settles is checked for feasibility only."""
    failures = []
    copies: dict[tuple, object] = {}
    how = {"exact": 0, "bound": 0, "feasibility only": 0}
    budget_end = time.perf_counter() + NPS_VERIFY_BUDGET_S
    for i, (op, out) in enumerate(zip(ops, outcomes)):
        if out is None:
            failures.append((i, f"{op.slot} raised {errors.get(i)}"))
            continue
        if op.spec not in copies:
            copies[op.spec] = W.build(bc, op.spec)
        copy = copies[op.spec]
        err = W.feasibility_error(copy, out)
        if err is None and wl.exact_check == "ratio":
            opt = W.exact_opt(bc, copy, wl.verify_limit_s)
            if opt is None:
                err = f"exact OPT did not finish in {wl.verify_limit_s} s"
            else:
                how["exact"] += 1
                err = W.quality_error("ratio", copy, op.eps, out[1], opt)
        elif err is None:
            slack = 2 * max(e.profit for e in copy.elements)
            left = budget_end - time.perf_counter()
            bound = W.lagrangian_bound(copy, out[1] + slack, min(
                wl.verify_limit_s, left)) if left > 0 else None
            if bound is not None and out[1] >= bound - slack:
                how["bound"] += 1
            elif left > 0 and (opt := W.exact_opt(bc, copy, min(
                    wl.verify_limit_s, budget_end - time.perf_counter()))) is not None:
                how["exact"] += 1
                err = W.quality_error("nps", copy, None, out[1], opt)
            else:
                how["feasibility only"] += 1
        if err is not None:
            failures.append((i, f"{op.slot}: {err}"))
    if wl.exact_check == "ratio":
        against = f"brute_force_opt on {how['exact']}"
    else:
        against = (f"a Lagrangian upper bound on OPT on {how['bound']}, "
                   f"brute_force_opt on {how['exact']}, feasibility only on "
                   f"{how['feasibility only']}")
    what = "p >= (1-eps)*OPT" if wl.exact_check == "ratio" else "p >= OPT - 2*max p"
    print(f"  checks         {len(outcomes) - len(errors)} answers rechecked for "
          f"feasibility on separate copies; {what} checked against {against}")
    return failures


def repeat_check(bc, wl: W.Workload, ops: list[W.Op], outcomes: list) -> list:
    """Answers must repeat: ops with the same instance and epsilon agree,
    and the first ops agree when re-solved on freshly built instances."""
    failures = []
    first: dict[tuple, int] = {}
    for i, out in enumerate(outcomes):
        key = (ops[i].spec, ops[i].eps)
        j = first.setdefault(key, i)
        if out is not None and outcomes[j] is not None and out != outcomes[j]:
            failures.append((i, f"determinism: {ops[i].slot} gave {out}, "
                                f"op {j} gave {outcomes[j]}"))
    k = min(RESOLVE_FIRST[wl.name], len(outcomes))
    again = wl.redo(bc, ops[:k])
    _, _, _, _, redone, _ = run_ops(again, None)
    for i in range(k):
        if redone[i] != outcomes[i]:
            failures.append((i, f"determinism: {ops[i].slot} gave {outcomes[i]}, "
                                f"re-solved on a fresh instance {redone[i]}"))
    print(f"  determinism    {len(outcomes) - len(first)} repeated ops compared, "
          f"first {k} re-solved on fresh instances")
    return failures


def single_process_check(last_op: int) -> list:
    """Op times count the CPU of every thread of this process but only of
    children that have been reaped; a child still running after the
    timed phase would hide its work."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return []
    return [(last_op, "child processes were started and not all reaped; "
                      "their CPU time is missing from the op times")]


def digest(items) -> str:
    text = repr([_plain(x) for x in items])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _plain(x):
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, (tuple, list)):
        return [_plain(v) for v in x]
    return x


def report_failures(failures: list) -> None:
    for i, msg in failures:
        print(f"  FAILED op {i}: {msg}")


def result(correct: bool, attempted: int, failed: int, metrics: dict) -> dict:
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


if __name__ == "__main__":
    sys.exit(main())
