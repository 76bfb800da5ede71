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
points drain as a campaign table over N local worker processes, and
completed points are memoized in a content-addressed on-disk cache
(``$REPRO_CACHE_DIR`` or ``~/.cache/repro``) so re-running a figure or
resuming an interrupted sweep only executes the missing points.  Each
command prints a manifest line (``[exec] total=.. executed=..
cached=..``) accounting for every point.
"""

import argparse
import dataclasses
import itertools
import json
import pathlib
import sys
import time

from repro.errors import ConfigurationError, GuardError
from repro.guard.config import MODES as GUARD_MODES, GuardConfig, guard_mode
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
    _add_guard_options(parser)


def _add_guard_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--guard", default=None, choices=GUARD_MODES,
                        help="simulation guard mode (default: $REPRO_GUARD "
                             "or on)")
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
    cache               inspect, prune, or clear the on-disk result cache
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
    run.add_argument("--scale", default="small",
                     choices=sorted(experiments.SCALES),
                     help="workload scale (default: small)")
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
    trace.add_argument("--scale", default="smoke",
                       choices=sorted(experiments.SCALES),
                       help="workload scale (default: smoke; traces grow "
                            "with scale)")
    trace.add_argument("--out", "-o", type=pathlib.Path,
                       default=pathlib.Path("trace.json"), metavar="PATH",
                       help="trace output path (default: trace.json)")
    trace.add_argument("--rate", type=int, default=1, metavar="N",
                       help="keep every Nth event (default 1 = all)")
    trace.add_argument("--events", type=int, default=None, metavar="N",
                       help="ring capacity in events (default: 1,000,000)")
    trace.add_argument("--categories", default=None, metavar="C1,C2,...",
                       help="categories to keep (scheduler,sm,rta,memsys; "
                            "default: all)")
    trace.add_argument("--metrics-out", type=pathlib.Path, default=None,
                       metavar="PATH",
                       help="also write the points' metrics snapshots "
                            "as JSON to PATH")
    _add_guard_options(trace)

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
        _add_guard_options(p)
        p.add_argument("--resilience", default=None,
                       choices=("off", "shed", "degrade", "strict"),
                       help="serving failure-semantics policy (default: "
                            "$REPRO_RESILIENCE or off)")
        p.add_argument("--deadline-ms", type=float, default=None,
                       metavar="MS",
                       help="per-query latency budget under --resilience "
                            "(default: 50)")

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
    _add_guard_options(crun)

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
        "cache", help="inspect, prune, or clear the on-disk result cache")
    cache.add_argument("action", choices=("stats", "prune", "clear"))
    cache.add_argument("--stale-leases", action="store_true",
                       help="with prune: also remove expired campaign "
                            "lease files (crashed workers' claims)")
    return parser


def cmd_list() -> int:
    for name in sorted(EXPERIMENTS):
        print(f"{name:16s} {EXPERIMENTS[name].description}")
    return 0


def _guard_config(args):
    """The :class:`GuardConfig` that ``--guard``/``--max-cycles`` ask
    for, or None (no flag: launches take the ``$REPRO_GUARD`` default).
    It is passed as an argument down to every launch, pool and campaign
    workers included."""
    if args.guard is None and args.max_cycles is None:
        return None
    return GuardConfig(mode=args.guard or guard_mode(),
                       max_cycles=args.max_cycles)


def _resilience_config(args):
    """The :class:`ResilienceConfig` that ``--resilience`` and
    ``--deadline-ms`` ask for over the ``$REPRO_RESILIENCE`` default."""
    from repro.serve import ResilienceConfig

    config = ResilienceConfig.from_env()
    if args.resilience is not None:
        config = dataclasses.replace(config, mode=args.resilience)
    if args.deadline_ms is not None:
        config = dataclasses.replace(config, deadline_ms=args.deadline_ms)
    return config


def _validate_serve_args(args):
    """Friendly up-front validation of serve/loadtest options; returns
    an error message, or None when the options are sound."""
    from repro.serve import QUERY_CLASSES, parse_mix, query_class_spec

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
    platforms = [p.strip() for p in args.platform.split(",") if p.strip()]
    for cls in sorted(c for c, w in mix.items() if w > 0):
        valid = query_class_spec(cls).platforms
        bad = [p for p in platforms if p not in valid]
        if bad:
            return (f"error: --mix class {cls!r} cannot serve on "
                    f"{', '.join(bad)} (valid: {', '.join(valid)})")
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


def _configure_service(jobs: int, no_cache: bool, guard=None,
                       tracer=None):
    from repro import exec as exec_mod

    return exec_mod.configure(jobs=jobs, cache_enabled=not no_cache,
                              progress=jobs > 1, guard=guard, tracer=tracer)


def _write_table(name: str, table, csv_dir, json_dir) -> None:
    """Write ``table`` into the ``--csv-dir``/``--json-dir`` outputs."""
    if csv_dir is not None:
        csv_dir.mkdir(parents=True, exist_ok=True)
        (csv_dir / f"{name}.csv").write_text(table.to_csv())
    if json_dir is not None:
        json_dir.mkdir(parents=True, exist_ok=True)
        (json_dir / f"{name}.json").write_text(table.to_json())


def _make_tracer(rate: int = 1, events: int = None, categories=None):
    """The tracer the trace flags describe."""
    from repro import obs

    if isinstance(categories, str):
        categories = [c.strip() for c in categories.split(",") if c.strip()]
    capacity = obs.DEFAULT_CAPACITY if events is None else events
    return obs.Tracer(capacity=capacity, rate=rate,
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
            jobs: int = 1, no_cache: bool = False,
            json_dir=None, json_out: bool = False,
            profile: bool = False, profile_out=None,
            trace=None, tracer=None, metrics_out=None, guard=None) -> int:
    """``repro run`` and ``repro trace``: each table to stdout; with
    ``--json`` one experiment prints its table document and several
    print one object keyed by experiment name.  With a ``tracer``
    every launch records into it, and the trace is written to the
    ``trace`` path at the end."""
    if names == ["all"]:
        names = sorted(EXPERIMENTS)
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {', '.join(unknown)}", file=sys.stderr)
        print(f"available: {', '.join(sorted(EXPERIMENTS))}", file=sys.stderr)
        return 2
    profile = profile or profile_out is not None
    if tracer is not None and (jobs > 1 or not no_cache):
        # The traced service runs serially without the result cache.
        print("[obs] --trace forces --jobs 1 --no-cache", file=sys.stderr)
    service = _configure_service(jobs, no_cache, guard, tracer)
    # With --json, stdout must stay parseable (repro run fig --json |
    # jq): the claims, manifest, timing and trace chatter go to stderr.
    chatter = sys.stderr if json_out else sys.stdout
    metrics_report = {}
    documents = {} if json_out and len(names) > 1 else None
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
            if documents is not None:
                documents[name] = table.to_dict()
            else:
                print(table.to_json() if json_out else table.format())
            if plot:
                from repro.harness.plots import auto_plots
                for chart in auto_plots(name, table):
                    print(chart)
                    print()
            _write_table(name, table, csv_dir, json_dir)
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
            print(obs.summarize_trace(tracer), file=chatter)
            print(f"[obs] trace written to {path} — open it at "
                  f"https://ui.perfetto.dev (or chrome://tracing)",
                  file=chatter)
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
        if documents:
            print(json.dumps(documents, indent=1))
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
              guard=None) -> int:
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

    service = _configure_service(jobs, no_cache, guard)
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
    print(table.to_json() if json_out else table.format())
    _write_table(f"sweep_{kind}", table, csv_dir, json_dir)
    print(service.manifest.summary())
    return 1 if failures else 0


def cmd_cache(action: str, stale_leases: bool = False) -> int:
    from repro.campaign import CAMPAIGNS_SUBDIR, sweep_campaigns
    from repro.exec import ResultCache

    cache = ResultCache()
    campaigns = cache.base / CAMPAIGNS_SUBDIR
    if action == "stats":
        stats = cache.stats()
        leases = sweep_campaigns(campaigns)
        print(f"cache root: {stats['root']} (format {stats['format']})")
        print(f"entries:    {stats['entries']}")
        print(f"size:       {stats['bytes'] / 1e6:.2f} MB")
        print(f"corrupt:    {stats['corrupt']} (quarantined)")
        print(f"campaigns:  {leases['campaigns']} "
              f"(leases: {leases['live'] + leases['expired']}, "
              f"stale: {leases['expired']})")
        print(f"quarantine: {stats['quarantine']} guard bundles")
    elif action == "prune":
        bundles = cache.prune_quarantine()
        line = f"pruned {bundles} quarantine/corrupt file(s)"
        if stale_leases:
            pruned = sweep_campaigns(campaigns, prune=True)["expired"]
            line += f", {pruned} stale campaign lease(s)"
        print(f"{line} from {cache.base}")
    else:
        removed = cache.clear()
        print(f"removed {removed} cached run entries from {cache.base}")
    return 0


# -- campaigns -------------------------------------------------------------------
def cmd_campaign(args, guard=None) -> int:
    from repro.campaign import (
        CampaignSpec,
        campaign_dir_for,
        run_campaign,
        run_worker,
        status,
    )

    try:
        if args.campaign_cmd == "run":
            spec = CampaignSpec.from_file(args.table)
            manifest = run_campaign(spec, workers=args.workers,
                                    directory=args.dir, quiet=args.quiet,
                                    guard=guard)
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
def _build_indexes(mix_text: str, scale: str):
    """Resident indexes for every class in a CLI mix string, built in
    process; returns ``(indexes, mix)``."""
    from repro.serve import SERVE_SCALES, build_resident_index, parse_mix

    mix = parse_mix(mix_text)
    indexes = {}
    for cls in sorted(mix):
        if mix[cls] <= 0:
            continue
        started = time.time()
        indexes[cls] = build_resident_index(cls, SERVE_SCALES[scale][cls])
        print(f"[serve] {cls}: {indexes[cls].spec.kind} index built in "
              f"{time.time() - started:.2f}s "
              f"(capacity {indexes[cls].capacity})", file=sys.stderr)
    return indexes, mix


def _serve_policy(args):
    from repro.serve import BatchPolicy

    return BatchPolicy(max_batch=args.max_batch,
                       max_wait_s=args.max_wait_ms / 1e3)


def _native_payload(values: list, native: type):
    """A JSON list as the class's native query: 3 numbers as a
    ``Vec3``, 6 (lo xyz, hi xyz) as an ``AABB``.  Any other list comes
    back unchanged, for the caller to reject."""
    from repro.geometry import AABB, Vec3

    if not all(type(v) in (int, float) for v in values):
        return values
    if native is Vec3 and len(values) == 3:
        return Vec3(*values)
    if native is AABB and len(values) == 6:
        return AABB(Vec3(*values[:3]), Vec3(*values[3:]))
    return values


def _parse_query(line: str, indexes):
    """One JSON-lines query as ``(class, qid, payload)``, or the reason
    it cannot be served."""
    try:
        record = json.loads(line)
        cls = record["class"]
        qid = record.get("qid")
        payload = record.get("payload")
    except (ValueError, KeyError, TypeError):
        return repr(line)
    if not isinstance(cls, str) or cls not in indexes:
        return (f"no resident index for query class {cls!r} "
                f"(serving: {', '.join(sorted(indexes))})")
    if qid is None and payload is None:
        return "needs a qid or a payload"
    native = type(indexes[cls].payload(0))
    if qid is None and isinstance(payload, list):
        payload = _native_payload(payload, native)
    if qid is None and type(payload) is not native:
        return (f"payload {payload!r} is not a {cls!r} query "
                f"(expected {native.__name__})")
    if qid is not None and (type(qid) is not int
                            or not 0 <= qid < indexes[cls].n_canonical):
        return (f"qid {qid!r} out of range for {cls!r} (canonical "
                f"stream has {indexes[cls].n_canonical})")
    return cls, qid, payload


def cmd_serve(args, guard=None) -> int:
    """``repro serve``: answer JSON-lines queries over warm indexes.

    Every line arrives at virtual t=0 in file order and runs through
    the loadtest's event loop (:func:`repro.serve.replay_queries`), so
    the same file always gives the same output."""
    from repro.serve import replay_queries

    error = _validate_serve_args(args)
    if error is not None:
        print(error, file=sys.stderr)
        return 2
    indexes, _ = _build_indexes(args.mix, args.scale)
    text = args.input.read_text() if args.input is not None \
        else sys.stdin.read()
    queries = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        query = _parse_query(line, indexes)
        if isinstance(query, str):
            print(f"[serve] bad query on line {lineno}: {query}",
                  file=sys.stderr)
            return 2
        queries.append(query)
    try:
        report, outcomes = replay_queries(
            args.platform, indexes, queries, policy=_serve_policy(args),
            guard=guard, resilience=_resilience_config(args))
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sink = args.out.open("w") if args.out is not None else sys.stdout
    failures = 0
    try:
        for (cls, qid, _), outcome in zip(queries, outcomes):
            record = {"class": cls, "qid": qid}
            if "error" in outcome:
                failures += 1
                record["error"] = outcome["error"]
            else:
                record.update(result=_json_safe(outcome["result"]),
                              batch_size=outcome["batch_size"],
                              sim_us=round(outcome["sim_s"] * 1e6, 3),
                              engine=outcome["engine"])
            print(json.dumps(record), file=sink)
    finally:
        if args.out is not None:
            sink.close()
    print(f"[serve] {report.served} queries in {report.batches} batches "
          f"on {args.platform} ({report.degraded_batches} failed)",
          file=sys.stderr)
    if report.resilience_mode != "off":
        expired = report.shed_reasons.get("expired", 0)
        print(f"[serve] resilience={report.resilience_mode}: "
              f"{report.shed - expired} shed, {expired} expired, "
              f"{report.failed} failed, {report.retries} retries",
              file=sys.stderr)
    if report.degraded_reasons:
        detail = ", ".join(f"{reason}={count}" for reason, count
                           in report.degraded_reasons.items())
        print(f"[serve] failed batches by reason: {detail}",
              file=sys.stderr)
    return 1 if failures else 0


def _json_safe(value):
    """Query results are ints/bools/tuples of ints — flatten tuples."""
    if isinstance(value, (list, tuple, set, frozenset)):
        return [_json_safe(v) for v in value]
    return value


def cmd_loadtest(args, guard=None) -> int:
    """``repro loadtest``: QPS-vs-latency curves per platform."""
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

    indexes, mix = _build_indexes(args.mix, args.scale)
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
                          guard=guard, progress=progress,
                          resilience=_resilience_config(args),
                          mutation=mutation)

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
    if args.command == "cache":
        return cmd_cache(args.action, stale_leases=args.stale_leases)
    try:
        guard = _guard_config(args) if hasattr(args, "guard") else None
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.command == "sweep":
        return cmd_sweep(args.kind, args.platforms, args.param,
                         csv_dir=args.csv_dir, json_dir=args.json_dir,
                         json_out=args.json, jobs=args.jobs,
                         no_cache=args.no_cache, guard=guard)
    if args.command == "campaign":
        return cmd_campaign(args, guard)
    if args.command == "serve":
        return cmd_serve(args, guard)
    if args.command == "loadtest":
        return cmd_loadtest(args, guard)
    if args.command == "trace":
        for flag, value in (("--rate", args.rate), ("--events", args.events)):
            if value is not None and value < 1:
                print(f"{flag} must be >= 1, got {value}", file=sys.stderr)
                return 2
        return cmd_run([args.experiment], args.scale, None, no_cache=True,
                       trace=args.out,
                       tracer=_make_tracer(args.rate, args.events,
                                           args.categories),
                       metrics_out=args.metrics_out, guard=guard)
    return cmd_run(args.experiments, args.scale, args.csv_dir,
                   plot=args.plot, jobs=args.jobs,
                   no_cache=args.no_cache, json_dir=args.json_dir,
                   json_out=args.json,
                   profile=args.profile, profile_out=args.profile_out,
                   trace=args.trace,
                   tracer=_make_tracer() if args.trace is not None else None,
                   metrics_out=args.metrics_out, guard=guard)


if __name__ == "__main__":
    sys.exit(main())
