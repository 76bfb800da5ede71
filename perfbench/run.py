#!/usr/bin/env python3
"""The repository's benchmark: host time the simulator takes to produce
its figures and serve its indexes, with the simulated results pinned.

Usage (from the repository root)::

    python3 perfbench/run.py --workload oneshot_cold --seed 1 \\
        --seconds 40 --trace 0
    python3 perfbench/run.py --workload all          # every workload

Workloads (see ``scenarios.py``): ``oneshot_cold``, ``sweep_warm``,
``serve_read``, ``serve_churn``; ``BENCHMARK.json`` gates on
``oneshot_cold`` and ``serve_churn``.  A run sets up once, then runs
whole rounds until ``--seconds`` have passed and at least two rounds
are done; between rounds, fresh interpreters time imports plus one
set-up each (``setup_s`` is the median of these samples).  After the
rounds it repeats part of round 0 and requires identical simulated
statistics, and at the default seed it compares round 0's model digest
with ``digests.json``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` cycles
untraced, span-only, untraced and profiled rounds: traced rounds wrap
each layer's entry points with spans (``layers.py``), profiled ones
also run ``GPU.launch`` under ``cProfile``.  The run prints the
per-layer metrics and the tracing overhead, and writes its spans to
``.perfbench_out/``.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Exit code 0 means a result was printed;
2 means the run refused to start (inherited fault injection, tracing or
legacy engine, or no ``src/repro`` next to this directory).
"""

import argparse
import cProfile
import gc
import json
import os
import platform as platform_mod
import pstats
import resource
import shutil
import statistics
import subprocess
import sys
import time

import layers
from measure import (Tally, best_of_rate, digest, median, round_rates,
                     tail_percentile)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DIGESTS = os.path.join(HERE, "digests.json")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORK_DIR = os.path.join(ROOT, ".perfbench_work")

WORKLOADS = ("oneshot_cold", "sweep_warm", "serve_read", "serve_churn")
DEFAULT_SEED = 0
#: ``setup_s`` samples per run (imports plus one set-up): this
#: process's own, then fresh interpreters spread over the measured
#: window.  ``setup_s`` is their median.
SETUP_REPS = 6
#: Rounds every run completes; peak RSS is read after this many.
MIN_ROUNDS = 2

END_TO_END_UNITS = {"setup_s": "s", "ops_per_host_s": "1/s",
                    "peak_rss_mb": "MB"}


def pin_environment():
    """Refuse inherited fault injection, tracing or the legacy engine;
    clear every other ``REPRO_*`` knob and pin the fast core with the
    default guard and resilience off.  Returns an error or None."""
    for name in ("REPRO_FAULTS", "REPRO_TRACE"):
        if os.environ.get(name):
            return f"refusing to run with {name} set"
    if os.environ.get("REPRO_SIM_CORE", "fast") == "legacy":
        return "refusing to run with REPRO_SIM_CORE=legacy"
    for name in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[name]
    os.environ["REPRO_SIM_CORE"] = "fast"
    os.environ["REPRO_RESILIENCE"] = "off"
    return None


def import_simulator():
    """``(repro, scenarios)`` imported from ``src/``, or None with the
    reason on stderr."""
    sys.path.insert(0, SRC)
    try:
        import repro
        import scenarios
    except ImportError as exc:
        print(f"[perfbench] cannot import the simulator from {SRC}: {exc}",
              file=sys.stderr)
        return None
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print(f"[perfbench] repro imported from {repro.__file__}, not from "
              f"{SRC}", file=sys.stderr)
        return None
    return repro, scenarios


def setup_sample(args) -> int:
    """Print the seconds this interpreter takes to import the simulator
    and set the workload up once (one ``setup_s`` sample)."""
    problem = pin_environment()
    if problem:
        print(f"[perfbench] {problem}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    loaded = import_simulator()
    if loaded is None:
        return 2
    workdir = os.path.join(WORK_DIR, f"setup-{os.getpid()}")
    try:
        scenario = loaded[1].SCENARIOS[args.workload](
            args.seed, workdir, layers.SpanRecorder())
        scenario.setup()
        print(time.perf_counter() - started)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def fresh_setup_seconds(args) -> float:
    """One ``setup_s`` sample from a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload",
         args.workload, "--seed", str(args.seed), "--setup-sample"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
        timeout=120)
    return float(proc.stdout.strip().splitlines()[-1])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(args) -> int:
    problem = pin_environment()
    if problem:
        print(f"[perfbench] {problem}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    loaded = import_simulator()
    if loaded is None:
        return 2
    repro, scenarios = loaded
    from repro.sim import scheduler_fingerprint
    import_s = time.perf_counter() - started

    env = {"workload": args.workload, "seed": args.seed,
           "seconds": args.seconds, "trace": args.trace,
           "nproc": os.cpu_count(), "python": platform_mod.python_version(),
           "package_version": repro.__version__,
           "scheduler_fingerprint": scheduler_fingerprint()}
    print("env " + json.dumps(env, sort_keys=True))

    workdir = os.path.join(WORK_DIR, f"{args.workload}-{args.seed}-"
                                     f"{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    rec = layers.SpanRecorder()
    profiler = cProfile.Profile()
    patches = layers.instrument(rec, profiler) if args.trace else None
    tally = Tally()
    try:
        scenario = scenarios.SCENARIOS[args.workload](args.seed, workdir, rec)

        gc.collect()
        rec.active = bool(args.trace)
        t0 = time.perf_counter()
        with rec.span("setup") as sid:
            scenario.setup()
        setup_samples = [import_s + time.perf_counter() - t0]
        rec.active = False
        setup_spans = [sid] if sid is not None else []

        # Rounds; between them, fresh-interpreter set-ups spread evenly
        # over the window, so slow spells on the host touch set-up and
        # rounds alike.
        rounds, span_ids, span_results = [], [], []
        walls = {"plain": [], "spans": [], "profile": []}
        min_rounds = 4 if args.trace else MIN_ROUNDS
        rss = None
        loop_start = time.perf_counter()
        r = 0
        while r < min_rounds or \
                time.perf_counter() - loop_start < args.seconds:
            gc.collect()
            kind = layers.round_kind(r, bool(args.trace))
            rec.active = kind != "plain"
            rec.profile = kind == "profile"
            with rec.span("round") as sid:
                result = scenario.round(r, tally)
            rec.active = rec.profile = False
            rounds.append(result)
            walls[kind].append(result.wall_s)
            if kind == "spans":
                span_ids.append(sid)
                span_results.append(result)
            r += 1
            if r == MIN_ROUNDS:
                rss = peak_rss_mb()
            due = len(setup_samples) * args.seconds / SETUP_REPS
            if not args.trace and len(setup_samples) < SETUP_REPS and \
                    time.perf_counter() - loop_start >= due:
                setup_samples.append(fresh_setup_seconds(args))
        while not args.trace and len(setup_samples) < SETUP_REPS:
            setup_samples.append(fresh_setup_seconds(args))

        # Model identity: repetition within the run, and the recorded
        # digest at the default seed.
        parts0 = rounds[0].parts
        model = digest(parts0)
        again = scenario.repeat(tally)
        for key, part in sorted(again.items()):
            same = parts0.get(key) == part
            tally.add(1, int(not same),
                      why=f"repeat of round 0 part {key} gave different "
                          f"simulated statistics")
        recorded = {}
        if os.path.exists(DIGESTS):
            with open(DIGESTS) as fh:
                recorded = json.load(fh)
        if args.record_digest and args.seed == DEFAULT_SEED:
            recorded[args.workload] = model
            with open(DIGESTS, "w") as fh:
                json.dump(recorded, fh, indent=2, sort_keys=True)
                fh.write("\n")
        elif args.seed == DEFAULT_SEED and args.workload in recorded:
            tally.add(1, int(recorded[args.workload] != model),
                      why=f"model digest {model} != recorded "
                          f"{recorded[args.workload]}")
        print(f"digest {args.workload} seed={args.seed} {model}")

        op_ms = [s[1] * 1e3 for res in rounds for s in res.slots]
        pct, tail, n = tail_percentile(op_ms)
        rates = round_rates([res.slots for res in rounds])
        best = best_of_rate(s for res in rounds for s in res.slots)
        print(f"rounds {len(rounds)}: op host ms p50 {median(op_ms):.1f}"
              + (f", p{pct:g} {tail:.1f}" if pct else "") + f" (n={n}); "
              f"ops/s per round " + " ".join(f"{v:.4g}" for v in rates)
              + f"; median {median(rates):.4g}, best-of {best:.4g}")
        print("setup s per sample "
              + " ".join(f"{v:.4g}" for v in setup_samples))

        if args.trace:
            stats = pstats.Stats(profiler).stats if walls["profile"] else {}
            groups = layers.group_self_time(stats)
            extra = trace_extras(span_results, walls)
            # How far typical rounds fall behind the gated best-of rate:
            # a slowdown that spares some rounds shows here.
            plain = [res.slots for r, res in enumerate(rounds)
                     if layers.round_kind(r, True) == "plain"]
            plain_best = best_of_rate(s for slots in plain for s in slots)
            extra["ops.median_over_best"] = \
                median(round_rates(plain)) / plain_best if plain_best else 0.0
            metrics = layers.layer_metrics(rec.spans, span_ids,
                                           setup_spans, groups, extra)
            units = layers.LAYER_UNITS
            rec.write(os.path.join(OUT_DIR, f"trace-{args.workload}-"
                                            f"{args.seed}.json"))
        else:
            metrics = {
                "setup_s": statistics.median(setup_samples),
                "ops_per_host_s": best,
                "peak_rss_mb": rss,
            }
            units = END_TO_END_UNITS
    finally:
        rec.active = False
        if patches is not None:
            patches.restore()
        shutil.rmtree(workdir, ignore_errors=True)

    for name in sorted(metrics):
        print(f"metric {name} {metrics[name]:.6g} {units[name]}")
    print(f"failed_frac {tally.failed_frac:.6g} "
          f"({tally.failed} of {tally.attempted})")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": max(1, tally.attempted),
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in sorted(metrics)},
    }))
    return 0


def trace_extras(traced, walls):
    """Per-layer numbers the spans cannot see.  ``traced`` holds the
    span-only rounds' results, ``walls`` the round times by kind."""
    extra = {}
    if traced:
        extra["exec.cache_bytes"] = sum(
            res.notes.get("cache_bytes", 0) for res in traced) / len(traced)
        sizes = [s for res in traced for s in res.notes.get("batch_sizes",
                                                            ())]
        extra["serve.batch_size_mean"] = \
            sum(sizes) / len(sizes) if sizes else 0.0
        latencies = traced[0].notes.get("latencies_ms", [])
        if latencies:
            pct, tail, n = tail_percentile(latencies)
            extra["serve.sim_p50_ms"] = median(latencies)
            extra["serve.sim_tail_ms"] = tail or 0.0
            extra["serve.sim_tail_pct"] = pct or 0.0
            extra["serve.sim_samples"] = float(n)
    plain_wall = median(walls["plain"])
    if plain_wall:
        for metric, kind in (("trace.overhead_frac", "spans"),
                             ("trace.profile_overhead_frac", "profile")):
            if walls[kind]:
                extra[metric] = median(walls[kind]) / plain_wall - 1.0
    return extra


def run_all(args) -> int:
    """Every workload in its own process; prints each metric by name."""
    ok = True
    for workload in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload}: exit {proc.returncode}, no result")
            ok = False
            continue
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        print(f"{workload}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']}")
        for line in lines[:-1]:
            if line.startswith(("metric ", "digest ")):
                print(f"  {line}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digest", action="store_true",
                        help="at the default seed, write this workload's "
                             "model digest to digests.json (a deliberate "
                             "model change)")
    parser.add_argument("--setup-sample", action="store_true",
                        help="only print the seconds this interpreter takes "
                             "to import the simulator and set up once")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if args.setup_sample:
        return setup_sample(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
