"""Command-line experiment runner: ``python -m repro``.

Examples::

    python -m repro list
    python -m repro run fig12 --jobs 4
    python -m repro run fig12 fig13 --scale large --csv-dir results/
    python -m repro run all --scale smoke --no-cache
    python -m repro run fig13 --metrics-out results/fig13.metrics.json
    python -m repro trace fig12 --scale smoke -o trace.json
    python -m repro sweep btree --param n_keys=4096,16384 --jobs 4
    python -m repro campaign run table.json --workers 4
    python -m repro campaign worker --join ~/.cache/repro/campaigns/ab-12
    python -m repro campaign status ~/.cache/repro/campaigns/ab-12
    python -m repro loadtest --platform gpu,tta,ttaplus --qps 500,2000
    python -m repro serve --platform tta --input queries.jsonl
    python -m repro cache stats
    python -m repro cache prune --stale-leases
    python -m repro cache clear

``run`` and ``sweep`` route every simulation point through the
execution service (:mod:`repro.exec`): with ``--jobs N`` independent
points fan out over a worker-process pool, and completed points are
memoized in a content-addressed on-disk cache (``$REPRO_CACHE_DIR`` or
``~/.cache/repro``) so re-running a figure or resuming an interrupted
sweep only executes the missing points.  Each command prints a manifest
line (``[exec] total=.. executed=.. cached=..``) accounting for every
point.
"""

import argparse
import itertools
import os
import pathlib
import sys
import time

from repro.errors import GuardError
from repro.harness import experiments
from repro.harness.experiments import EXPERIMENTS

from repro.campaign.spec import KIND_PLATFORMS

#: Platforms accepted by each sweepable workload family's runner —
#: shared with the campaign expansion layer so ``sweep`` and
#: ``campaign`` can never disagree about axis validity.
SWEEP_PLATFORMS = KIND_PLATFORMS


def _add_exec_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", "-j", type=int, default=1, metavar="N",
                        help="run up to N simulation points in parallel "
                             "worker processes (default: 1, serial)")
    parser.add_argument("--no-cache", action="store_true",
                        help="do not read or write the on-disk result cache")
    parser.add_argument("--timeout", type=float, default=None, metavar="SEC",
                        help="per-point timeout in seconds (parallel runs)")
    parser.add_argument("--guard", default=None,
                        choices=("off", "watch", "on", "strict"),
                        help="simulation guard mode (default: $REPRO_GUARD "
                             "or on); exported to worker processes")
    parser.add_argument("--max-cycles", type=int, default=None, metavar="N",
                        help="abort any simulation whose clock passes N "
                             "cycles (SimulationStallError with a "
                             "diagnostic bundle)")


def _add_output_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--csv-dir", type=pathlib.Path, default=None,
                        help="also write each table as CSV into this "
                             "directory")
    parser.add_argument("--json-dir", type=pathlib.Path, default=None,
                        help="also write each table as full-precision JSON "
                             "into this directory")
    parser.add_argument("--json", action="store_true",
                        help="print each table as JSON instead of the "
                             "formatted text")


#: ``repro --help`` epilog: the subcommands, grouped by what they are
#: for (argparse's flat listing hides the structure once there are
#: seven of them).
_COMMAND_GROUPS = """\
command groups:
  experiments (one-shot figure reproduction):
    list                list available experiments
    run                 run one or more experiments
    sweep               custom parameter sweep over one workload family
    trace               run one experiment with the cycle tracer on

  campaigns (factorial run tables, repro.campaign):
    campaign run        expand and drain a run table with N local workers
    campaign worker     join an existing campaign from this (or any) host
    campaign status     progress probe over a campaign directory
    campaign expand     print the expanded run table without running it

  serving (resident indexes, repro.serve):
    serve               answer JSON-lines queries over warm indexes
    loadtest            open-loop load generation -> QPS vs latency curves

  maintenance:
    cache               inspect, prune, or clear the on-disk caches
"""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the paper's figures on the behavioral "
                    "TTA/TTA+ simulator.",
        epilog=_COMMAND_GROUPS,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    run = sub.add_parser("run", help="run one or more experiments")
    run.add_argument("experiments", nargs="+",
                     help="experiment names (or 'all')")
    run.add_argument("--scale",
                     default=os.environ.get("REPRO_SCALE", "small"),
                     choices=sorted(experiments.SCALES),
                     help="workload scale (default: $REPRO_SCALE or small)")
    run.add_argument("--plot", action="store_true",
                     help="render ASCII bar charts after each table")
    run.add_argument("--profile", action="store_true",
                     help="run each experiment under cProfile and print "
                          "the top-25 cumulative-time entries (profiles "
                          "this process: use with --jobs 1)")
    run.add_argument("--profile-out", type=pathlib.Path, default=None,
                     metavar="PATH",
                     help="write the cProfile data as a pstats dump to "
                          "PATH instead of printing the top-25 (a bare "
                          "filename lands beside --json-dir output; "
                          "implies --profile)")
    run.add_argument("--trace", type=pathlib.Path, default=None,
                     metavar="PATH",
                     help="record a cycle-domain event trace and write "
                          "it to PATH as Chrome/Perfetto trace JSON "
                          "(forces --jobs 1 and --no-cache so every "
                          "point simulates in this process)")
    run.add_argument("--metrics-out", type=pathlib.Path, default=None,
                     metavar="PATH",
                     help="write every point's repro.obs metrics "
                          "snapshot (label -> metrics) as JSON to PATH")
    _add_output_options(run)
    _add_exec_options(run)

    trace = sub.add_parser(
        "trace",
        help="run one experiment with the cycle tracer on and export a "
             "Chrome/Perfetto trace")
    trace.add_argument("experiment", help="experiment name")
    trace.add_argument("--scale",
                       default=os.environ.get("REPRO_SCALE", "smoke"),
                       choices=sorted(experiments.SCALES),
                       help="workload scale (default: $REPRO_SCALE or "
                            "smoke; traces grow with scale)")
    trace.add_argument("--out", "-o", type=pathlib.Path,
                       default=pathlib.Path("trace.json"), metavar="PATH",
                       help="trace output path (default: trace.json)")
    trace.add_argument("--rate", type=int, default=1, metavar="N",
                       help="keep every Nth event (default 1 = all)")
    trace.add_argument("--events", type=int, default=None, metavar="N",
                       help="ring capacity in events (default: "
                            "$REPRO_TRACE_EVENTS or 1,000,000)")
    trace.add_argument("--categories", default=None, metavar="C1,C2,...",
                       help="categories to keep (scheduler,sm,rta,memsys; "
                            "default: all)")
    trace.add_argument("--metrics-out", type=pathlib.Path, default=None,
                       metavar="PATH",
                       help="also write the points' metrics snapshots "
                            "as JSON to PATH")
    trace.add_argument("--guard", default=None,
                       choices=("off", "watch", "on", "strict"),
                       help="simulation guard mode (default: $REPRO_GUARD "
                            "or on)")
    trace.add_argument("--max-cycles", type=int, default=None, metavar="N",
                       help="abort any simulation whose clock passes N "
                            "cycles")

    sweep = sub.add_parser(
        "sweep",
        help="run a custom parameter sweep over one workload family")
    sweep.add_argument("kind", choices=sorted(SWEEP_PLATFORMS),
                       help="workload family")
    sweep.add_argument("--platforms", default=None, metavar="P1,P2,...",
                       help="platforms to sweep (default: all valid for "
                            "the family)")
    sweep.add_argument("--param", action="append", default=[],
                       metavar="KEY=V1[,V2,...]",
                       help="workload parameter values; repeat for the "
                            "cartesian product (e.g. --param "
                            "n_keys=4096,16384 --param n_queries=1024)")
    _add_output_options(sweep)
    _add_exec_options(sweep)

    def _add_serve_options(p, default_scale="smoke"):
        p.add_argument("--scale", default=default_scale,
                       choices=("smoke", "small", "large"),
                       help="resident-index construction scale "
                            f"(default: {default_scale})")
        p.add_argument("--mix", default="point,range,knn,radius",
                       metavar="CLS[=W],...",
                       help="query classes to serve, with optional "
                            "weights (default: all four, equal)")
        p.add_argument("--max-batch", type=int, default=32, metavar="N",
                       help="close a batch at N queries (default: 32)")
        p.add_argument("--max-wait-ms", type=float, default=2.0,
                       metavar="MS",
                       help="close a batch MS after its first query "
                            "(default: 2.0)")
        p.add_argument("--no-cache", action="store_true",
                       help="do not read or write the on-disk build cache")
        p.add_argument("--guard", default=None,
                       choices=("off", "watch", "on", "strict"),
                       help="simulation guard mode (default: $REPRO_GUARD "
                            "or on)")
        p.add_argument("--max-cycles", type=int, default=None, metavar="N",
                       help="abort any launch whose clock passes N cycles")
        p.add_argument("--resilience", default=None,
                       choices=("off", "shed", "degrade", "strict"),
                       help="serving failure-semantics policy (default: "
                            "$REPRO_RESILIENCE or off)")
        p.add_argument("--deadline-ms", type=float, default=None,
                       metavar="MS",
                       help="per-query latency budget under --resilience "
                            "(default: $REPRO_RESILIENCE_DEADLINE_MS "
                            "or 50)")

    serve = sub.add_parser(
        "serve",
        help="serve JSON-lines queries over resident indexes")
    serve.add_argument("--platform", default="tta",
                       choices=("gpu", "rta", "tta", "ttaplus"),
                       help="platform to serve on (default: tta)")
    serve.add_argument("--input", "-i", type=pathlib.Path, default=None,
                       metavar="PATH",
                       help="JSON-lines query file (default: stdin); each "
                            "line is {\"class\": ..., \"qid\": N} or "
                            "{\"class\": ..., \"payload\": ...}")
    serve.add_argument("--out", "-o", type=pathlib.Path, default=None,
                       metavar="PATH",
                       help="write JSON-lines responses to PATH "
                            "(default: stdout)")
    _add_serve_options(serve)

    loadtest = sub.add_parser(
        "loadtest",
        help="open-loop loadtest: QPS-vs-latency curves per platform")
    loadtest.add_argument("--platform", default="gpu,tta,ttaplus",
                          metavar="P1,P2,...",
                          help="platforms to sweep (default: "
                               "gpu,tta,ttaplus)")
    loadtest.add_argument("--qps", default="500,1000,2000",
                          metavar="Q1,Q2,...",
                          help="offered load points (default: "
                               "500,1000,2000)")
    loadtest.add_argument("--duration", type=float, default=1.0,
                          metavar="SEC",
                          help="measurement window in virtual seconds "
                               "(default: 1.0)")
    loadtest.add_argument("--warmup", type=float, default=0.1, metavar="SEC",
                          help="unmeasured lead-in at the same rate "
                               "(default: 0.1)")
    loadtest.add_argument("--arrival", default="poisson",
                          choices=("poisson", "uniform", "burst"),
                          help="arrival process (default: poisson)")
    loadtest.add_argument("--burst-size", type=int, default=8, metavar="N",
                          help="queries per burst in burst mode "
                               "(default: 8)")
    loadtest.add_argument("--seed", type=int, default=0,
                          help="arrival-schedule seed (default: 0)")
    loadtest.add_argument("--shards", type=int, default=1, metavar="N",
                          help="simulated devices a batch shards across "
                               "(default: 1)")
    loadtest.add_argument("--write-mix", default=None,
                          metavar="OP=RATE,...",
                          help="interleave a write stream: per-op rates in "
                               "writes/sec, e.g. insert=120,delete=60 "
                               "(ops: insert, delete, update; default: "
                               "read-only)")
    loadtest.add_argument("--rebuild-policy", default="writes:256",
                          metavar="MODE",
                          help="rebuild-vs-refit policy under --write-mix: "
                               "never | always | writes:N | quality:X "
                               "(default: writes:256)")
    loadtest.add_argument("--refit-threshold", type=int, default=64,
                          metavar="N",
                          help="writes between maintenance decisions "
                               "under --write-mix (default: 64)")
    loadtest.add_argument("--out", "-o", type=pathlib.Path, default=None,
                          metavar="PATH",
                          help="write the full QPS-vs-latency curves as "
                               "JSON to PATH")
    loadtest.add_argument("--json", action="store_true",
                          help="print the curves JSON to stdout instead "
                               "of the summary table")
    _add_serve_options(loadtest)

    campaign = sub.add_parser(
        "campaign",
        help="factorial run tables over the work-stealing scheduler")
    csub = campaign.add_subparsers(dest="campaign_cmd", required=True)

    crun = csub.add_parser(
        "run", help="expand a run-table JSON and drain it with N local "
                    "worker processes (resumable; re-runs are free)")
    crun.add_argument("table", type=pathlib.Path,
                      help="campaign document (JSON run table)")
    crun.add_argument("--workers", "-w", type=int, default=1, metavar="N",
                      help="local worker processes (default: 1); workers "
                           "on other hosts may join the same directory")
    crun.add_argument("--dir", type=pathlib.Path, default=None,
                      metavar="DIR",
                      help="campaign directory (default: "
                           "<cache>/campaigns/<name>-<id>)")
    crun.add_argument("--json", action="store_true",
                      help="print the finalized manifest as JSON")
    crun.add_argument("--quiet", action="store_true",
                      help="suppress per-point progress lines")
    crun.add_argument("--guard", default=None,
                      choices=("off", "watch", "on", "strict"),
                      help="simulation guard mode for all points")

    cworker = csub.add_parser(
        "worker", help="join an existing campaign as one extra worker "
                       "(run this on any host sharing the cache fs)")
    cworker.add_argument("--join", type=pathlib.Path, required=True,
                         metavar="DIR", help="campaign directory to drain")
    cworker.add_argument("--id", default=None, metavar="ID",
                         help="worker id (default: w<pid>)")
    cworker.add_argument("--max-points", type=int, default=None, metavar="N",
                         help="stop after resolving N points (partial)")
    cworker.add_argument("--max-wait", type=float, default=None,
                         metavar="SEC",
                         help="give up after SEC without progress")
    cworker.add_argument("--quiet", action="store_true",
                         help="suppress per-point progress lines")

    cstatus = csub.add_parser(
        "status", help="progress probe over a campaign directory")
    cstatus.add_argument("dir", type=pathlib.Path)
    cstatus.add_argument("--json", action="store_true")

    cexpand = csub.add_parser(
        "expand", help="print the expanded run table without running it")
    cexpand.add_argument("table", type=pathlib.Path)
    cexpand.add_argument("--json", action="store_true")

    cache = sub.add_parser(
        "cache", help="inspect, prune, or clear the on-disk caches")
    cache.add_argument("action", choices=("stats", "prune", "clear"))
    cache.add_argument("--stale-leases", action="store_true",
                       help="with prune: also remove expired campaign "
                            "lease files (crashed workers' claims)")
    return parser


def cmd_list() -> int:
    for name in sorted(EXPERIMENTS):
        print(f"{name:16s} {EXPERIMENTS[name].description}")
    return 0


def _apply_guard_options(args) -> None:
    """Export ``--guard``/``--max-cycles`` as the guard env vars, so
    both this process and any forked workers pick them up."""
    from repro.guard import GUARD_ENV, MAX_CYCLES_ENV

    guard = getattr(args, "guard", None)
    if guard is not None:
        os.environ[GUARD_ENV] = guard
    max_cycles = getattr(args, "max_cycles", None)
    if max_cycles is not None:
        os.environ[MAX_CYCLES_ENV] = str(max_cycles)


def _apply_resilience_options(args) -> None:
    """Export ``--resilience``/``--deadline-ms`` as the resilience env
    vars (same pattern as the guard options)."""
    from repro.serve.resilience import DEADLINE_MS_ENV, RESILIENCE_ENV

    mode = getattr(args, "resilience", None)
    if mode is not None:
        os.environ[RESILIENCE_ENV] = mode
    deadline_ms = getattr(args, "deadline_ms", None)
    if deadline_ms is not None:
        os.environ[DEADLINE_MS_ENV] = str(deadline_ms)


def _validate_serve_args(args):
    """Friendly up-front validation of serve/loadtest options; returns
    an error message, or None when the options are sound."""
    from repro.errors import ConfigurationError
    from repro.serve import QUERY_CLASSES, parse_mix

    if getattr(args, "max_batch", 1) < 1:
        return f"--max-batch must be >= 1, got {args.max_batch}"
    if getattr(args, "max_wait_ms", 0.0) < 0:
        return f"--max-wait-ms cannot be negative, got {args.max_wait_ms:g}"
    shards = getattr(args, "shards", None)
    if shards is not None and shards < 1:
        return f"--shards must be >= 1, got {shards}"
    deadline_ms = getattr(args, "deadline_ms", None)
    if deadline_ms is not None and deadline_ms <= 0:
        return f"--deadline-ms must be positive, got {deadline_ms:g}"
    duration = getattr(args, "duration", None)
    if duration is not None and duration <= 0:
        return f"--duration must be positive, got {duration:g}"
    warmup = getattr(args, "warmup", None)
    if warmup is not None and warmup < 0:
        return f"--warmup cannot be negative, got {warmup:g}"
    burst = getattr(args, "burst_size", None)
    if burst is not None and burst < 1:
        return f"--burst-size must be >= 1, got {burst}"
    try:
        mix = parse_mix(args.mix)
    except ConfigurationError as exc:
        return f"bad --mix {args.mix!r}: {exc}"
    unknown = sorted(set(mix) - set(QUERY_CLASSES))
    if unknown:
        return (f"unknown query class(es) in --mix: {', '.join(unknown)} "
                f"(valid: {', '.join(QUERY_CLASSES)})")
    negative = sorted(cls for cls, w in mix.items() if w < 0)
    if negative:
        return (f"--mix weight(s) cannot be negative: "
                f"{', '.join(negative)}")
    if sum(mix.values()) <= 0:
        return f"--mix weights sum to zero: {args.mix!r}"
    write_mix = getattr(args, "write_mix", None)
    if write_mix is not None:
        from repro.mutation.stream import parse_write_mix

        try:
            parse_write_mix(write_mix)
        except ConfigurationError as exc:
            return f"bad --write-mix {write_mix!r}: {exc}"
    rebuild_policy = getattr(args, "rebuild_policy", None)
    if rebuild_policy is not None:
        from repro.mutation.scheduler import parse_rebuild_policy

        try:
            parse_rebuild_policy(rebuild_policy)
        except ConfigurationError as exc:
            return f"bad --rebuild-policy {rebuild_policy!r}: {exc}"
    refit_threshold = getattr(args, "refit_threshold", None)
    if refit_threshold is not None and refit_threshold < 1:
        return f"--refit-threshold must be >= 1, got {refit_threshold}"
    return None


def _configure_service(jobs: int, no_cache: bool, timeout):
    from repro import exec as exec_mod

    return exec_mod.configure(jobs=jobs, cache_enabled=not no_cache,
                              timeout=timeout, progress=jobs > 1)


def _emit_table(name: str, table, *, json_out: bool, csv_dir, json_dir,
                plot: bool = False) -> None:
    print(table.to_json() if json_out else table.format())
    if plot:
        from repro.harness.plots import auto_plots
        for chart in auto_plots(name, table):
            print(chart)
            print()
    if csv_dir is not None:
        csv_dir.mkdir(parents=True, exist_ok=True)
        (csv_dir / f"{name}.csv").write_text(table.to_csv())
    if json_dir is not None:
        json_dir.mkdir(parents=True, exist_ok=True)
        (json_dir / f"{name}.json").write_text(table.to_json())


def _pin_tracer(rate: int = None, events: int = None, categories=None):
    """Build and pin a tracer; explicit arguments beat the env knobs."""
    from repro import obs
    from repro.obs.tracer import trace_env_int

    if rate is None:
        rate = trace_env_int(obs.TRACE_RATE_ENV, 1)
    if events is None:
        events = trace_env_int(obs.TRACE_EVENTS_ENV, obs.DEFAULT_CAPACITY)
    if isinstance(categories, str):
        categories = [c.strip() for c in categories.split(",") if c.strip()]
    return obs.enable(capacity=events, rate=rate,
                      categories=categories or None)


def _profile_path(profile_out: pathlib.Path, name: str, many: bool,
                  json_dir) -> pathlib.Path:
    """Where one experiment's pstats dump goes.

    A bare filename lands beside the ``--json-dir`` output when that is
    set; with several experiments each gets ``<stem>-<name><suffix>``
    so the dumps don't overwrite each other.
    """
    if json_dir is not None and profile_out.parent == pathlib.Path("."):
        profile_out = pathlib.Path(json_dir) / profile_out
    if many:
        profile_out = profile_out.with_name(
            f"{profile_out.stem}-{name}{profile_out.suffix or '.pstats'}")
    return profile_out


def _hotspot_summary(profiler, limit: int = 10) -> str:
    """Compact top-``limit`` cumulative-time hotspot list for stderr.

    The full ``print_stats(25)`` table (bare ``--profile``) and the
    pstats dump (``--profile-out``) both bury the answer to "where did
    the time go?"; this is the ten-line version that always lands on
    stderr, safely out of any ``--json`` pipeline.
    """
    import pstats
    stats = pstats.Stats(profiler)
    stats.sort_stats("cumulative")
    lines = [f"[profile] top {limit} hotspots by cumulative time "
             f"(total {stats.total_tt:.2f}s):"]
    for func in stats.fcn_list[:limit]:
        filename, lineno, name = func
        _cc, ncalls, selftime, cumtime, _callers = stats.stats[func]
        where = name if filename.startswith("~") else \
            f"{name} ({pathlib.Path(filename).name}:{lineno})"
        lines.append(f"[profile]   {cumtime:9.3f}s cum  {selftime:8.3f}s "
                     f"self  {ncalls:>9} calls  {where}")
    return "\n".join(lines)


def cmd_run(names, scale: str, csv_dir, plot: bool = False,
            jobs: int = 1, no_cache: bool = False, timeout=None,
            json_dir=None, json_out: bool = False,
            profile: bool = False, profile_out=None,
            trace=None, metrics_out=None) -> int:
    if names == ["all"]:
        names = sorted(EXPERIMENTS)
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {', '.join(unknown)}", file=sys.stderr)
        print(f"available: {', '.join(sorted(EXPERIMENTS))}", file=sys.stderr)
        return 2
    profile = profile or profile_out is not None
    tracer = None
    if trace is not None:
        # Cached or pooled points never emit events into this process's
        # ring, so a traced run is forced serial and cache-free.
        if jobs > 1 or not no_cache:
            print("[obs] --trace forces --jobs 1 --no-cache",
                  file=sys.stderr)
        jobs, no_cache = 1, True
        tracer = _pin_tracer()
    service = _configure_service(jobs, no_cache, timeout)
    metrics_report = {}
    claims_hold = True
    try:
        for name in names:
            started = time.time()
            if profile:
                import cProfile
                profiler = cProfile.Profile()
                profiler.enable()
                table = service.run_figure(EXPERIMENTS[name].fn, scale)
                profiler.disable()
            else:
                table = service.run_figure(EXPERIMENTS[name].fn, scale)
            _emit_table(name, table, json_out=json_out, csv_dir=csv_dir,
                        json_dir=json_dir, plot=plot)
            # With --json, stdout must stay parseable
            # (repro run fig --json | jq): route the claims, manifest
            # and timing chatter to stderr.
            chatter = sys.stderr if json_out else sys.stdout
            claims_hold &= _report_claims(name, table, chatter)
            if metrics_out is not None:
                # run_figure resets the manifest, so fold each figure's
                # report in as it completes.
                metrics_report.update(service.metrics_report())
            if profile:
                print(_hotspot_summary(profiler), file=sys.stderr)
            if profile and profile_out is not None:
                path = _profile_path(profile_out, name, len(names) > 1,
                                     json_dir)
                path.parent.mkdir(parents=True, exist_ok=True)
                profiler.dump_stats(path)
                print(f"[profile] pstats dump written to {path} "
                      f"(inspect with python -m pstats)", file=chatter)
            elif profile:
                import io
                import pstats
                stream = io.StringIO()
                pstats.Stats(profiler, stream=stream) \
                    .sort_stats("cumulative").print_stats(25)
                print(stream.getvalue(), file=chatter)
            print(service.manifest.summary(), file=chatter)
            print(f"[{name}: {time.time() - started:.1f}s at scale={scale}]",
                  file=chatter)
            print(file=chatter)
        if metrics_out is not None:
            from repro import obs
            path = obs.write_metrics_json(metrics_out, metrics_report)
            print(f"[obs] metrics for {len(metrics_report)} point(s) "
                  f"written to {path}", file=sys.stderr)
        if tracer is not None:
            from repro import obs
            path = obs.write_chrome_trace(trace, tracer)
            print(obs.summarize_trace(tracer), file=sys.stderr)
            print(f"[obs] trace written to {path} — open it at "
                  f"https://ui.perfetto.dev (or chrome://tracing)",
                  file=sys.stderr)
    except GuardError:
        # The aborted point is already failed in the manifest, and its
        # error names the diagnostic bundle.
        for record in service.manifest.records.values():
            if record.status == "failed":
                print(f"[exec] FAILED {record.label}: {record.error}",
                      file=sys.stderr)
        print(service.manifest.summary(), file=sys.stderr)
        return 1
    finally:
        if tracer is not None:
            from repro import obs
            obs.reset()
    return 0 if claims_hold else 1


def _report_claims(name: str, table, stream) -> bool:
    """Print how many of ``name``'s claims ``table`` keeps, and each
    broken one with its rows; True when all hold."""
    total = len(EXPERIMENTS[name].claims)
    broken = experiments.broken_claims(name, table)
    print(f"[claims] {name}: {total - len(broken)}/{total} hold", file=stream)
    for claim, rows in broken:
        print(f"[claims]   BROKEN {name}.{claim.name}: {claim.text} "
              f"— rows: {'; '.join(rows)}", file=stream)
    return not broken


def cmd_trace(name: str, scale: str, out, rate: int, events,
              categories, metrics_out=None) -> int:
    """``repro trace <experiment>``: serial, cache-free, tracer pinned."""
    if name not in EXPERIMENTS:
        print(f"unknown experiment: {name}", file=sys.stderr)
        print(f"available: {', '.join(sorted(EXPERIMENTS))}", file=sys.stderr)
        return 2
    from repro import obs

    tracer = _pin_tracer(rate=rate, events=events, categories=categories)
    service = _configure_service(1, True, None)
    try:
        started = time.time()
        table = service.run_figure(EXPERIMENTS[name].fn, scale)
        print(table.format())
        print(service.manifest.summary())
        path = obs.write_chrome_trace(out, tracer)
        print(obs.summarize_trace(tracer))
        if metrics_out is not None:
            mpath = obs.write_metrics_json(metrics_out,
                                           service.metrics_report())
            print(f"[obs] metrics written to {mpath}")
        print(f"[{name}: {time.time() - started:.1f}s at scale={scale}]")
        print(f"[obs] trace written to {path} — open it at "
              f"https://ui.perfetto.dev (or chrome://tracing)")
    finally:
        obs.reset()
    return 0


def _parse_param(text: str):
    """``key=v1,v2`` → (key, [typed values])."""
    if "=" not in text:
        raise SystemExit(f"bad --param {text!r}: expected KEY=V1[,V2,...]")
    key, _, raw = text.partition("=")

    def typed(token: str):
        lowered = token.lower()
        if lowered in ("true", "false"):
            return lowered == "true"
        for cast in (int, float):
            try:
                return cast(token)
            except ValueError:
                continue
        return token

    values = [typed(tok) for tok in raw.split(",") if tok != ""]
    if not values:
        raise SystemExit(f"bad --param {text!r}: no values")
    return key.strip(), values


def cmd_sweep(kind: str, platforms, params, csv_dir=None, json_dir=None,
              json_out: bool = False, jobs: int = 1, no_cache: bool = False,
              timeout=None) -> int:
    from repro.exec import make_spec
    from repro.harness.results import Table

    valid = SWEEP_PLATFORMS[kind]
    if platforms:
        chosen = [p.strip() for p in platforms.split(",") if p.strip()]
        bad = [p for p in chosen if p not in valid]
        if bad:
            print(f"invalid platform(s) for {kind}: {', '.join(bad)} "
                  f"(valid: {', '.join(valid)})", file=sys.stderr)
            return 2
    else:
        chosen = list(valid)

    grid = {}
    for item in params:
        key, values = _parse_param(item)
        grid[key] = values
    keys = sorted(grid)
    combos = [dict(zip(keys, values))
              for values in itertools.product(*(grid[k] for k in keys))] \
        if keys else [{}]

    service = _configure_service(jobs, no_cache, timeout)
    specs = [make_spec(kind, combo, platform,
                       config=experiments.default_config_policy(kind))
             for combo in combos for platform in chosen]
    service.run_many(specs)

    table = Table(
        f"sweep — {kind} × {len(combos)} point(s) × "
        f"{len(chosen)} platform(s)",
        ["params", "platform", "cycles", "simt_eff", "dram_util",
         "energy_mj"],
    )
    failures = 0
    for spec in specs:
        record = service.manifest.records.get(spec.key)
        if record is not None and record.status == "failed":
            failures += 1
            print(f"[exec] FAILED {spec.label}: {record.error}",
                  file=sys.stderr)
            continue
        run = service.run(spec)
        label = ",".join(f"{k}={v}" for k, v in
                         sorted(spec.workload.items())) or "(defaults)"
        table.add_row(label, spec.platform, run.cycles,
                      run.simt_efficiency, run.dram_utilization,
                      run.energy.total_mj)
    _emit_table(f"sweep_{kind}", table, json_out=json_out, csv_dir=csv_dir,
                json_dir=json_dir)
    print(service.manifest.summary())
    return 1 if failures else 0


def cmd_cache(action: str, stale_leases: bool = False) -> int:
    from repro.exec import ResultCache

    cache = ResultCache()
    if action == "stats":
        stats = cache.stats()
        print(f"cache root: {stats['root']} (format {stats['format']})")
        print(f"entries:    {stats['entries']}")
        print(f"builds:     {stats['builds']} (resident-index workloads)")
        print(f"size:       {stats['bytes'] / 1e6:.2f} MB")
        print(f"corrupt:    {stats['corrupt']} (quarantined)")
        print(f"campaigns:  {stats['campaigns']} "
              f"(leases: {stats['leases']}, "
              f"stale: {stats['stale_leases']})")
        print(f"quarantine: {stats['quarantine']} guard bundles")
    elif action == "prune":
        bundles = cache.prune_quarantine()
        line = f"pruned {bundles} quarantine/corrupt file(s)"
        if stale_leases:
            leases = cache.prune_stale_leases()
            line += f", {leases} stale campaign lease(s)"
        print(f"{line} from {cache.base}")
    else:
        removed = cache.clear()
        print(f"removed {removed} cached entries (runs + builds) "
              f"from {cache.base}")
    return 0


# -- campaigns -------------------------------------------------------------------
def cmd_campaign(args) -> int:
    import json

    from repro.campaign import (
        CampaignSpec,
        campaign_dir_for,
        run_campaign,
        run_worker,
        status,
    )
    from repro.errors import ConfigurationError

    try:
        if args.campaign_cmd == "run":
            spec = CampaignSpec.from_file(args.table)
            manifest = run_campaign(spec, workers=args.workers,
                                    directory=args.dir, quiet=args.quiet)
            if args.json:
                print(json.dumps(manifest, indent=1, default=str))
            else:
                totals, inv = manifest["totals"], manifest["invocation"]
                print(f"[campaign] {spec.slug}: {totals['points']} points "
                      f"in {manifest['wall_seconds']:.2f}s on "
                      f"{manifest['n_workers']} worker(s)")
                print(f"[campaign] this run: executed={inv['executed']} "
                      f"cached={inv['cached']} skipped={inv['skipped']} "
                      f"failed={inv['failed']} "
                      f"stolen={inv['stolen']}")
                print(f"[campaign] cumulative: executed={totals['executed']} "
                      f"cached={totals['cached']} "
                      f"failed={totals['failed']} "
                      f"unresolved={totals['unresolved']}")
                print(f"[campaign] result fingerprint "
                      f"{manifest['result_fingerprint'][:16]}  "
                      f"manifest {manifest['directory']}/manifest.json")
            bad = manifest["totals"]["failed"] \
                + manifest["totals"]["unresolved"]
            return 1 if bad else 0
        if args.campaign_cmd == "worker":
            report = run_worker(args.join, worker_id=args.id,
                                max_points=args.max_points,
                                max_wait_s=args.max_wait, quiet=args.quiet)
            print(f"[campaign] worker {report.worker_id}: "
                  f"executed={report.executed} cached={report.cached} "
                  f"skipped={report.skipped} failed={report.failed} "
                  f"stolen={report.stolen}"
                  f"{' (partial)' if report.partial else ''}")
            return 1 if report.errors and not report.resolved else 0
        if args.campaign_cmd == "status":
            doc = status(args.dir)
            if args.json:
                print(json.dumps(doc, indent=1, default=str))
            else:
                print(f"[campaign] {doc['campaign']} ({doc['slug']}): "
                      f"{doc['resolved']}/{doc['points']} resolved, "
                      f"{doc['unresolved']} open; statuses "
                      f"{doc['statuses']}; leases {doc['leases']}; "
                      f"manifest "
                      f"{'yes' if doc['manifest_written'] else 'no'}")
            return 0
        # expand
        spec = CampaignSpec.from_file(args.table)
        points = spec.expand()
        if args.json:
            print(json.dumps(
                [{"key": p.key, "label": p.label, "axes": p.axes}
                 for p in points], indent=1, default=str))
        else:
            for point in points:
                print(f"{point.key[:16]}  {point.label}")
            print(f"[campaign] {spec.slug}: {len(points)} points "
                  f"(dir {campaign_dir_for(spec)})")
        return 0
    except (ConfigurationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


# -- serving ---------------------------------------------------------------------
def _build_indexes(mix_text: str, scale: str, no_cache: bool):
    """Resident indexes for every class in a CLI mix string, routed
    through the exec build cache; returns ``(indexes, mix)``."""
    from repro.exec import ResultCache
    from repro.serve import SERVE_SCALES, build_resident_index, parse_mix

    mix = parse_mix(mix_text)
    cache = None if no_cache else ResultCache()
    indexes = {}
    for cls in sorted(mix):
        if mix[cls] <= 0:
            continue
        started = time.time()
        indexes[cls] = build_resident_index(cls, SERVE_SCALES[scale][cls],
                                            cache=cache)
        how = "cached" if indexes[cls].from_cache else "built"
        print(f"[serve] {cls}: {indexes[cls].spec.kind} index {how} in "
              f"{time.time() - started:.2f}s "
              f"(capacity {indexes[cls].capacity})", file=sys.stderr)
    return indexes, mix


def _serve_policy(args):
    from repro.serve import BatchPolicy

    return BatchPolicy(max_batch=args.max_batch,
                       max_wait_s=args.max_wait_ms / 1e3)


def cmd_serve(args) -> int:
    """``repro serve``: answer JSON-lines queries over warm indexes."""
    import asyncio
    import json

    from repro.serve import ServeService

    error = _validate_serve_args(args)
    if error is not None:
        print(error, file=sys.stderr)
        return 2
    indexes, _ = _build_indexes(args.mix, args.scale, args.no_cache)
    service = ServeService(indexes, platform=args.platform,
                           policy=_serve_policy(args))

    if args.input is not None:
        lines = args.input.read_text().splitlines()
    else:
        lines = sys.stdin.read().splitlines()
    requests = []
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            record = json.loads(line)
            cls = record["class"]
        except (ValueError, KeyError, TypeError):
            print(f"[serve] bad query on line {lineno}: {line!r}",
                  file=sys.stderr)
            return 2
        requests.append((cls, record.get("qid"), record.get("payload")))

    async def run():
        async with service:
            return await asyncio.gather(
                *[service.query(cls, qid=qid, payload=payload)
                  for cls, qid, payload in requests],
                return_exceptions=True)

    responses = asyncio.run(run())
    sink = args.out.open("w") if args.out is not None else sys.stdout
    failures = 0
    try:
        for (cls, qid, _), response in zip(requests, responses):
            if isinstance(response, BaseException):
                failures += 1
                record = {"class": cls, "qid": qid,
                          "error": f"{type(response).__name__}: {response}"}
            else:
                record = {
                    "class": response.query_class,
                    "qid": response.qid,
                    "result": _json_safe(response.result),
                    "batch_size": response.batch_size,
                    "sim_us": round(response.sim_seconds * 1e6, 3),
                    "engine": response.engine,
                }
            print(json.dumps(record), file=sink)
    finally:
        if args.out is not None:
            sink.close()
    stats = service.stats()
    print(f"[serve] {stats['queries_served']} queries in "
          f"{stats['batches_served']} batches on {args.platform} "
          f"({stats['degraded_batches']} failed)", file=sys.stderr)
    res = stats["resilience"]
    if res["mode"] != "off":
        print(f"[serve] resilience={res['mode']}: "
              f"{res['queries_shed']} shed, "
              f"{res['queries_expired']} expired, "
              f"{res['queries_failed']} failed, "
              f"{res['retries']} retries", file=sys.stderr)
    if res["degraded_reasons"]:
        detail = ", ".join(f"{reason}={count}" for reason, count
                           in res["degraded_reasons"].items())
        print(f"[serve] failed batches by reason: {detail}",
              file=sys.stderr)
    return 1 if failures else 0


def _json_safe(value):
    """Query results are ints/bools/tuples of ints — flatten tuples."""
    if isinstance(value, (list, tuple, set, frozenset)):
        return [_json_safe(v) for v in value]
    return value


def cmd_loadtest(args) -> int:
    """``repro loadtest``: QPS-vs-latency curves per platform."""
    import json

    from repro.harness.results import Table
    from repro.serve import LoadProfile, run_qps_sweep

    platforms = [p.strip() for p in args.platform.split(",") if p.strip()]
    valid = ("gpu", "rta", "tta", "ttaplus")
    bad = [p for p in platforms if p not in valid]
    if bad:
        print(f"invalid platform(s): {', '.join(bad)} "
              f"(valid: {', '.join(valid)})", file=sys.stderr)
        return 2
    try:
        qps_values = [float(q) for q in args.qps.split(",") if q.strip()]
    except ValueError:
        print(f"bad --qps {args.qps!r}: expected Q1[,Q2,...]",
              file=sys.stderr)
        return 2
    if not qps_values:
        print("--qps needs at least one load point", file=sys.stderr)
        return 2
    nonpositive = [q for q in qps_values if q <= 0]
    if nonpositive:
        print(f"--qps load points must be positive, got "
              f"{', '.join(f'{q:g}' for q in nonpositive)}",
              file=sys.stderr)
        return 2
    error = _validate_serve_args(args)
    if error is not None:
        print(error, file=sys.stderr)
        return 2

    indexes, mix = _build_indexes(args.mix, args.scale, args.no_cache)
    profile = LoadProfile(qps=qps_values[0], duration_s=args.duration,
                          warmup_s=args.warmup, mix=mix,
                          arrival=args.arrival, burst_size=args.burst_size,
                          seed=args.seed)
    mutation = None
    if args.write_mix is not None:
        from repro.mutation import MutationConfig, WriteProfile
        from repro.mutation.scheduler import parse_rebuild_policy
        from repro.mutation.stream import parse_write_mix

        mutation = MutationConfig(
            write=WriteProfile(mix=parse_write_mix(args.write_mix),
                               seed=args.seed),
            policy=parse_rebuild_policy(args.rebuild_policy),
            refit_threshold=args.refit_threshold)

    def progress(platform, qps):
        print(f"[loadtest] {platform} @ {qps:g} qps ...", file=sys.stderr)

    started = time.time()
    sweep = run_qps_sweep(platforms, qps_values, indexes, profile,
                          policy=_serve_policy(args), n_shards=args.shards,
                          progress=progress, mutation=mutation)

    resilient = sweep["resilience_mode"] != "off"
    if args.json:
        print(json.dumps(sweep, indent=2, sort_keys=True))
    else:
        table = Table(
            f"loadtest — {args.arrival} arrivals, "
            f"{args.duration:g}s window, scale={args.scale}, "
            f"resilience={sweep['resilience_mode']}",
            ["platform", "qps", "achieved", "goodput", "p50_ms", "p95_ms",
             "p99_ms", "batch", "shed", "degraded"],
        )
        for platform in platforms:
            for row in sweep["curves"][platform]:
                table.add_row(platform, row["qps"], row["achieved_qps"],
                              row["slo"]["goodput_qps"],
                              row["latency_ms"]["p50_ms"],
                              row["latency_ms"]["p95_ms"],
                              row["latency_ms"]["p99_ms"],
                              row["mean_batch_size"],
                              row["resilience"]["shed"],
                              row["degraded_batches"])
        print(table.format())
    if mutation is not None:
        for platform in platforms:
            for row in sweep["curves"][platform]:
                m = row.get("mutation")
                if not m:
                    continue
                decays = [b["decay_ratio"] for b in m["churn_curve"]
                          if b.get("decay_ratio") is not None]
                span = (f", decay peak {max(decays):.3f} "
                        f"final {decays[-1]:.3f}") if decays else ""
                detail = "; ".join(
                    f"{cls}: {c['writes']}w/{c['refits']}rf/"
                    f"{c['rebuilds']}rb"
                    for cls, c in sorted(m["per_class"].items()))
                print(f"[mutation] {platform} @ {row['qps']:g}qps — "
                      f"{detail}{span}", file=sys.stderr)
    if resilient:
        for platform in platforms:
            for row in sweep["curves"][platform]:
                slo = row["slo"]
                print(f"[slo] {platform} @ {row['qps']:g}qps: "
                      f"goodput {slo['goodput_qps']:.0f}/s, "
                      f"shed {slo['shed_fraction']:.1%}, "
                      f"failed {slo['error_fraction']:.1%}, "
                      f"p99(admitted) {slo['p99_admitted_ms']:.2f}ms",
                      file=sys.stderr)
    for platform in platforms:
        reasons: dict = {}
        for row in sweep["curves"][platform]:
            for reason, count in row["resilience"][
                    "degraded_reasons"].items():
                reasons[reason] = reasons.get(reason, 0) + count
        if reasons:
            detail = ", ".join(f"{reason}={count}" for reason, count
                               in sorted(reasons.items()))
            print(f"[loadtest] {platform} failed batches by reason: "
                  f"{detail}", file=sys.stderr)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(sweep, indent=2, sort_keys=True))
        print(f"[loadtest] curves written to {args.out}", file=sys.stderr)
    print(f"[loadtest] {len(platforms)} platform(s) x "
          f"{len(qps_values)} load point(s) in {time.time() - started:.1f}s",
          file=sys.stderr)
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        return cmd_list()
    _apply_guard_options(args)
    if args.command in ("serve", "loadtest"):
        # Validate before exporting any resilience env vars: a rejected
        # invocation must not leave a bad (or any) setting behind for
        # whatever reads the environment next.
        error = _validate_serve_args(args)
        if error is not None:
            print(f"error: {error}", file=sys.stderr)
            return 2
    _apply_resilience_options(args)
    if args.command == "sweep":
        return cmd_sweep(args.kind, args.platforms, args.param,
                         csv_dir=args.csv_dir, json_dir=args.json_dir,
                         json_out=args.json, jobs=args.jobs,
                         no_cache=args.no_cache, timeout=args.timeout)
    if args.command == "cache":
        return cmd_cache(args.action, stale_leases=args.stale_leases)
    if args.command == "campaign":
        return cmd_campaign(args)
    if args.command == "serve":
        return cmd_serve(args)
    if args.command == "loadtest":
        return cmd_loadtest(args)
    if args.command == "trace":
        return cmd_trace(args.experiment, args.scale, args.out,
                         rate=args.rate, events=args.events,
                         categories=args.categories,
                         metrics_out=args.metrics_out)
    return cmd_run(args.experiments, args.scale, args.csv_dir,
                   plot=getattr(args, "plot", False), jobs=args.jobs,
                   no_cache=args.no_cache, timeout=args.timeout,
                   json_dir=args.json_dir, json_out=args.json,
                   profile=getattr(args, "profile", False),
                   profile_out=getattr(args, "profile_out", None),
                   trace=getattr(args, "trace", None),
                   metrics_out=getattr(args, "metrics_out", None))


if __name__ == "__main__":
    sys.exit(main())
