"""Tests for the ``python -m repro`` command-line interface."""

import json
import os

import pytest

import repro.exec as exec_mod
from repro.__main__ import build_parser, cmd_list, cmd_run, main
from repro.guard import GuardConfig
from repro.harness import experiments
from repro.harness.experiments import EXPERIMENTS, Claim, Experiment
from repro.harness.results import Table
from repro.serve import ResilienceConfig
from tests.test_guard import _ReadOnlyEnviron


@pytest.fixture(autouse=True)
def _hermetic_exec(tmp_path, monkeypatch):
    """Point the CLI's disk cache at a temp dir and isolate the global
    service, so CLI tests neither read nor pollute ``~/.cache``."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    exec_mod.reset()
    yield
    exec_mod.reset()


class TestParser:
    def test_list_command(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_with_options(self, tmp_path):
        args = build_parser().parse_args(
            ["run", "fig13", "fig12", "--scale", "smoke",
             "--csv-dir", str(tmp_path)])
        assert args.experiments == ["fig13", "fig12"]
        assert args.scale == "smoke"
        assert args.jobs == 1 and not args.no_cache and not args.json

    def test_bad_scale_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig13", "--scale", "huge"])

    def test_scale_defaults(self, monkeypatch):
        # --scale is the only scale setting; the environment has none.
        monkeypatch.setenv("REPRO_SCALE", "large")
        assert build_parser().parse_args(["run", "fig13"]).scale == "small"
        assert build_parser().parse_args(["trace", "fig13"]).scale == \
            "smoke"

    @pytest.mark.parametrize("argv", [
        ["run", "fig13"], ["sweep", "btree"], ["trace", "fig13"],
        ["serve"], ["loadtest"], ["campaign", "run", "table.json"]])
    def test_guard_options_on_every_simulating_command(self, argv):
        args = build_parser().parse_args(
            argv + ["--guard", "strict", "--max-cycles", "5000"])
        assert args.guard == "strict" and args.max_cycles == 5000

    def test_exec_options(self):
        args = build_parser().parse_args(
            ["run", "fig12", "--jobs", "4", "--no-cache",
             "--timeout", "30"])
        assert args.jobs == 4 and args.no_cache and args.timeout == 30.0

    def test_sweep_and_cache_commands_parse(self):
        args = build_parser().parse_args(
            ["sweep", "btree", "--param", "n_keys=1024,2048",
             "--platforms", "gpu,tta", "--jobs", "2"])
        assert args.command == "sweep" and args.kind == "btree"
        assert args.param == ["n_keys=1024,2048"]
        args = build_parser().parse_args(["cache", "stats"])
        assert args.command == "cache" and args.action == "stats"

    def test_campaign_commands_parse(self, tmp_path):
        args = build_parser().parse_args(
            ["campaign", "run", "table.json", "--workers", "4",
             "--dir", str(tmp_path), "--quiet"])
        assert args.command == "campaign" and args.campaign_cmd == "run"
        assert args.workers == 4 and args.quiet
        args = build_parser().parse_args(
            ["campaign", "worker", "--join", str(tmp_path),
             "--max-points", "3"])
        assert args.campaign_cmd == "worker" and args.max_points == 3
        args = build_parser().parse_args(
            ["campaign", "status", str(tmp_path), "--json"])
        assert args.campaign_cmd == "status" and args.json
        args = build_parser().parse_args(
            ["campaign", "expand", "table.json"])
        assert args.campaign_cmd == "expand"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign"])  # subcommand required

    def test_cache_prune_parse(self):
        args = build_parser().parse_args(
            ["cache", "prune", "--stale-leases"])
        assert args.action == "prune" and args.stale_leases


class TestCommands:
    def test_list_prints_everything(self, capsys):
        assert cmd_list() == 0
        out = capsys.readouterr().out
        for name, experiment in EXPERIMENTS.items():
            assert f"{name} " in out and experiment.description in out

    def test_unknown_experiment_fails(self, capsys):
        assert cmd_run(["fig99"], "smoke", None) == 2
        assert "unknown experiments" in capsys.readouterr().err

    def test_run_writes_csv(self, tmp_path, capsys):
        from repro.harness import experiments
        experiments.clear_cache()
        code = main(["run", "fig13", "--scale", "smoke",
                     "--csv-dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "Fig. 13" in out
        assert "[exec] total=" in out
        csv = (tmp_path / "fig13.csv").read_text()
        assert csv.startswith("workload,")
        experiments.clear_cache()

    def test_second_run_resolves_from_cache(self, capsys):
        assert main(["run", "fig13", "--scale", "smoke", "--jobs", "2"]) == 0
        first = capsys.readouterr().out
        assert "executed=0" not in first
        assert main(["run", "fig13", "--scale", "smoke", "--jobs", "2"]) == 0
        second = capsys.readouterr().out
        assert "executed=0" in second

    def test_json_output_round_trips_floats(self, tmp_path, capsys):
        code = main(["run", "fig13", "--scale", "smoke", "--json",
                     "--json-dir", str(tmp_path)])
        assert code == 0
        data = json.loads((tmp_path / "fig13.json").read_text())
        assert data["headers"][0] == "workload"
        # Full float precision: values are raw reprs, not %.3g strings.
        floats = [c for row in data["rows"] for c in row
                  if isinstance(c, float) and c == c and c != 0]
        assert any(len(repr(f)) > 6 for f in floats)
        # stdout must be pure JSON (pipeable into jq); the [exec]
        # manifest/timing chatter goes to stderr under --json.
        captured = capsys.readouterr()
        assert json.loads(captured.out) == data
        assert "[exec]" in captured.err

    def test_json_output_of_several_experiments_is_one_document(
            self, capsys):
        assert main(["run", "table1", "table3", "--scale", "smoke",
                     "--json"]) == 0
        captured = capsys.readouterr()
        documents = json.loads(captured.out)
        assert sorted(documents) == ["table1", "table3"]
        for name, document in documents.items():
            assert sorted(document) == ["headers", "rows", "title"]
            assert document["rows"]
        assert "[claims] table3" in captured.err

    def test_cache_stats_and_clear(self, capsys):
        assert main(["run", "fig13", "--scale", "smoke"]) == 0
        capsys.readouterr()
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "entries:" in out and "entries:    0" not in out
        assert main(["cache", "clear"]) == 0
        assert "removed" in capsys.readouterr().out
        assert main(["cache", "stats"]) == 0
        assert "entries:    0" in capsys.readouterr().out

    def test_sweep_runs_and_reports(self, capsys):
        code = main(["sweep", "btree", "--param", "n_keys=256,512",
                     "--param", "n_queries=64", "--platforms", "gpu,tta"])
        assert code == 0
        out = capsys.readouterr().out
        assert "sweep — btree" in out
        assert out.count("n_keys=256") == 2  # one row per platform
        assert "[exec] total=4" in out

    def test_sweep_rejects_bad_platform(self, capsys):
        assert main(["sweep", "wknd", "--platforms", "gpu"]) == 2
        assert "invalid platform" in capsys.readouterr().err

    def test_all_expands(self):
        # 'all' expands to exactly the registered experiments: every
        # figure and table the docs list, each with its claims.
        assert sorted(EXPERIMENTS) == sorted([
            "fig01", "fig06", "fig12", "fig13", "fig14", "fig15", "fig16",
            "fig17", "fig18", "fig19", "fig20", "nbody_fusion", "table1",
            "table3", "table4", "ext_spatial", "ext_rangescan",
            "ablation_ttaplus"])
        assert all(e.claims for e in EXPERIMENTS.values())

    def test_claims_reported(self, capsys):
        assert main(["run", "table1", "--scale", "smoke"]) == 0
        assert "[claims] table1: 1/1 hold" in capsys.readouterr().out

    def test_broken_claim_exits_1(self, monkeypatch, capsys):
        def tiny(scale):
            table = Table("tiny", ["workload", "speedup"])
            table.add_row("btree", 0.9)
            return table

        monkeypatch.setitem(EXPERIMENTS, "tiny", Experiment(tiny, "tiny", (
            Claim("wins", "TTA wins", lambda t: [r for r in t.rows
                                                 if not r[1] > 1.0]),)))
        assert main(["run", "tiny", "--scale", "smoke", "--json"]) == 1
        captured = capsys.readouterr()
        assert json.loads(captured.out)["rows"] == [["btree", 0.9]]
        assert "[claims] tiny: 0/1 hold" in captured.err
        assert "BROKEN tiny.wins: TTA wins — rows: btree" in captured.err


class TestServingCLI:
    """``repro serve`` / ``repro loadtest`` and the grouped --help."""

    def test_help_groups_subcommands(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "command groups:" in out
        assert "serving (resident indexes, repro.serve):" in out
        for command in ("run", "sweep", "trace", "serve", "loadtest",
                        "cache"):
            assert command in out

    def test_loadtest_parses(self):
        args = build_parser().parse_args(
            ["loadtest", "--platform", "gpu,tta", "--qps", "100,200",
             "--mix", "point=2,knn=1", "--arrival", "burst",
             "--max-batch", "16", "--max-wait-ms", "1.5"])
        assert args.command == "loadtest"
        assert args.platform == "gpu,tta" and args.qps == "100,200"
        assert args.max_batch == 16 and args.max_wait_ms == 1.5

    def test_loadtest_rejects_bad_inputs(self, capsys):
        assert main(["loadtest", "--platform", "cpu"]) == 2
        assert "invalid platform" in capsys.readouterr().err
        assert main(["loadtest", "--qps", "fast"]) == 2
        assert "bad --qps" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, fragment", [
        (["loadtest", "--qps", "-5"], "--qps"),
        (["loadtest", "--shards", "0"], "--shards"),
        (["loadtest", "--max-batch", "0"], "--max-batch"),
        (["loadtest", "--max-wait-ms", "-1"], "--max-wait-ms"),
        (["loadtest", "--deadline-ms", "0"], "--deadline-ms"),
        (["loadtest", "--duration", "0"], "--duration"),
        (["loadtest", "--warmup", "-0.1"], "--warmup"),
        (["loadtest", "--arrival", "burst", "--burst-size", "0"],
         "--burst-size"),
        (["loadtest", "--mix", "point=oops"], "--mix"),
        (["loadtest", "--mix", "zorp"], "zorp"),
        (["loadtest", "--mix", "point=-1"], "--mix"),
        (["loadtest", "--shards", "-2"], "--shards"),
        (["serve", "--mix", "point=0"], "--mix"),
        (["loadtest", "--write-mix", "zorp=1"], "--write-mix"),
        (["loadtest", "--write-mix", "insert=oops"], "--write-mix"),
        (["loadtest", "--write-mix", "insert=-5"], "--write-mix"),
        (["loadtest", "--rebuild-policy", "sometimes"],
         "--rebuild-policy"),
        (["loadtest", "--rebuild-policy", "writes:0"],
         "--rebuild-policy"),
        (["loadtest", "--write-mix", "insert=1",
          "--refit-threshold", "0"], "--refit-threshold"),
    ])
    def test_validation_catches_bad_serve_args(self, argv, fragment,
                                               capsys):
        """Satellite: malformed serving options die up front with a
        friendly message naming the offending flag — never a traceback
        mid-loadtest."""
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert fragment in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["loadtest", "--platform", "rta", "--mix", "point", "--qps", "400",
         "--duration", "0.02", "--warmup", "0"],
        ["loadtest", "--platform", "tta,rta", "--mix", "radius,range"],
        ["serve", "--platform", "rta", "--mix", "knn"],
    ])
    def test_mix_class_off_its_platforms_rejected_up_front(
            self, argv, capsys, monkeypatch):
        """A class that cannot serve on a requested platform exits 2
        before any index is built."""
        import repro.__main__ as cli

        def no_build(*args, **kwargs):
            raise AssertionError("index built before validation")

        monkeypatch.setattr(cli, "_build_indexes", no_build)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --mix class ")
        assert "cannot serve on rta" in err
        assert "Traceback" not in err

    def test_resilience_mode_rejects_unknown_choice(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["loadtest", "--resilience", "yolo"])

    def test_loadtest_shed_mode_reports_slo(self, capsys):
        code = main(["loadtest", "--platform", "tta", "--qps", "400",
                     "--duration", "0.02", "--warmup", "0",
                     "--mix", "point", "--resilience", "shed"])
        assert code == 0
        captured = capsys.readouterr()
        assert "resilience=shed" in captured.out
        assert "goodput" in captured.out
        assert "[slo]" in captured.err

    def test_loadtest_emits_curves_json(self, tmp_path, capsys):
        out_path = tmp_path / "curves.json"
        code = main(["loadtest", "--platform", "gpu,tta,ttaplus",
                     "--qps", "400,1600", "--duration", "0.05",
                     "--warmup", "0.01", "--mix", "point",
                     "--out", str(out_path)])
        assert code == 0
        captured = capsys.readouterr()
        assert "loadtest —" in captured.out
        assert "p99_ms" in captured.out
        curves = json.loads(out_path.read_text())
        assert sorted(curves["curves"]) == ["gpu", "tta", "ttaplus"]
        for platform in ("gpu", "tta", "ttaplus"):
            rows = curves["curves"][platform]
            assert [row["qps"] for row in rows] == [400.0, 1600.0]
            for row in rows:
                assert row["served"] > 0
                assert {"p50_ms", "p95_ms", "p99_ms"} <= \
                    set(row["latency_ms"])

    def test_write_mix_flags_parse_with_defaults(self):
        args = build_parser().parse_args(["loadtest"])
        assert args.write_mix is None
        assert args.rebuild_policy == "writes:256"
        assert args.refit_threshold == 64
        args = build_parser().parse_args(
            ["loadtest", "--write-mix", "insert=120,delete=60",
             "--rebuild-policy", "quality:1.3", "--refit-threshold",
             "32"])
        assert args.write_mix == "insert=120,delete=60"
        assert args.rebuild_policy == "quality:1.3"
        assert args.refit_threshold == 32

    def test_loadtest_write_mix_runs(self, capsys):
        """Mixed read/write loadtest end to end: exit 0, the latency
        table still prints, and the mutation summary reaches stderr."""
        code = main(["loadtest", "--platform", "tta", "--qps", "400",
                     "--duration", "0.05", "--warmup", "0.01",
                     "--mix", "point",
                     "--write-mix", "insert=200,delete=100",
                     "--rebuild-policy", "writes:48",
                     "--refit-threshold", "16"])
        assert code == 0
        captured = capsys.readouterr()
        assert "p99_ms" in captured.out
        assert "[mutation]" in captured.err
        assert "point:" in captured.err

    def test_loadtest_builds_in_process_and_writes_nothing(
            self, tmp_path, capsys):
        """Resident indexes are always built in process: a loadtest
        leaves the cache directory without any entry, builds included."""
        argv = ["loadtest", "--platform", "tta", "--qps", "400",
                "--duration", "0.02", "--warmup", "0", "--mix", "point"]
        for _ in range(2):
            assert main(argv) == 0
            assert "index built" in capsys.readouterr().err
        cache_dir = tmp_path / "cache"
        assert not (cache_dir / "builds").exists()
        assert not cache_dir.exists() or not any(cache_dir.iterdir())

    def test_serve_answers_jsonl_queries(self, tmp_path, capsys):
        queries = tmp_path / "queries.jsonl"
        queries.write_text(
            '{"class": "point", "qid": 0}\n'
            '{"class": "point", "qid": 1}\n'
            '# a comment line\n'
            '{"class": "point", "qid": 2}\n')
        out_path = tmp_path / "responses.jsonl"
        code = main(["serve", "--platform", "tta", "--mix", "point",
                     "--input", str(queries), "--out", str(out_path),
                     "--max-wait-ms", "5"])
        assert code == 0
        responses = [json.loads(line)
                     for line in out_path.read_text().splitlines()]
        assert [r["qid"] for r in responses] == [0, 1, 2]
        assert all(isinstance(r["result"], bool) for r in responses)
        assert all(r["engine"] == "fast" for r in responses)
        assert "3 queries" in capsys.readouterr().err

    def test_serve_rejects_malformed_line(self, tmp_path, capsys):
        queries = tmp_path / "bad.jsonl"
        queries.write_text('{"qid": 3}\n')
        code = main(["serve", "--mix", "point", "--input", str(queries)])
        assert code == 2
        assert "bad query" in capsys.readouterr().err

    def test_serve_builds_in_process_and_writes_nothing(
            self, tmp_path, capsys):
        queries = tmp_path / "queries.jsonl"
        queries.write_text('{"class": "point", "qid": 0}\n')
        assert main(["serve", "--platform", "tta", "--mix", "point",
                     "--input", str(queries),
                     "--out", str(tmp_path / "out.jsonl")]) == 0
        assert "index built" in capsys.readouterr().err
        cache_dir = tmp_path / "cache"
        assert not (cache_dir / "builds").exists()
        assert not cache_dir.exists() or not any(cache_dir.iterdir())


class TestCampaignCLI:
    @pytest.fixture()
    def table(self, tmp_path):
        path = tmp_path / "table.json"
        path.write_text(json.dumps({
            "name": "clitest",
            "workloads": [{"kind": "btree",
                           "params": {"n_keys": [256, 512],
                                      "n_queries": 64}}],
            "platforms": ["gpu"],
            "reps": 1,
        }))
        return path

    def test_campaign_run_and_free_rerun(self, table, capsys):
        assert main(["campaign", "run", str(table), "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "executed=2" in out and "unresolved=0" in out
        assert "result fingerprint" in out
        # The re-run touches no simulator: every point is skipped.
        assert main(["campaign", "run", str(table), "--quiet"]) == 0
        again = capsys.readouterr().out
        assert "this run: executed=0" in again

    def test_campaign_guard_skips_cached_results(self, table, tmp_path,
                                                 capsys):
        # Warm the cache, then drain the table again in a fresh
        # directory: unguarded, every point is a cache hit; with a
        # cycle budget, no point is, and each one fails the budget.
        assert main(["campaign", "run", str(table), "--quiet"]) == 0
        capsys.readouterr()
        assert main(["campaign", "run", str(table), "--quiet",
                     "--dir", str(tmp_path / "warm")]) == 0
        assert "executed=0 cached=2" in capsys.readouterr().out
        assert main(["campaign", "run", str(table), "--quiet",
                     "--dir", str(tmp_path / "guarded"),
                     "--max-cycles", "100"]) == 1
        out = capsys.readouterr().out
        assert "cached=0" in out and "failed=2" in out

    def test_campaign_run_json_manifest(self, table, capsys):
        assert main(["campaign", "run", str(table), "--quiet",
                     "--json"]) == 0
        manifest = json.loads(capsys.readouterr().out)
        assert manifest["totals"]["points"] == 2
        assert manifest["result_fingerprint"]

    def test_campaign_expand_lists_points(self, table, capsys):
        assert main(["campaign", "expand", str(table)]) == 0
        out = capsys.readouterr().out
        assert "2 points" in out
        assert "btree[n_keys=256,n_queries=64]@gpu/default#r0" in out

    def test_campaign_worker_join_and_status(self, table, capsys):
        assert main(["campaign", "expand", str(table)]) == 0
        capsys.readouterr()
        # Materialize the directory, then join it as a lone worker.
        from repro.campaign import CampaignSpec, init_campaign

        directory = init_campaign(CampaignSpec.from_file(table))
        assert main(["campaign", "worker", "--join", str(directory),
                     "--id", "joiner", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "worker joiner" in out and "executed=2" in out
        assert main(["campaign", "status", str(directory)]) == 0
        assert "2/2 resolved" in capsys.readouterr().out

    def test_campaign_bad_table_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        assert main(["campaign", "run", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_cache_stats_shows_campaigns_and_prune(self, table, capsys):
        assert main(["campaign", "run", str(table), "--quiet"]) == 0
        capsys.readouterr()
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "campaigns:  1" in out
        assert main(["cache", "prune", "--stale-leases"]) == 0
        assert "stale campaign lease" in capsys.readouterr().out

    def test_dead_local_lease_is_expired_everywhere(self, table, capsys):
        """One expiry rule: a fresh lease held by a reaped local process
        is stale to ``cache stats``/``cache prune`` exactly as it is
        expired to ``campaign status``."""
        import socket
        import subprocess
        import sys
        import time

        from repro.campaign import CampaignSpec, init_campaign

        child = subprocess.Popen([sys.executable, "-c", "pass"])
        child.wait()
        directory = init_campaign(CampaignSpec.from_file(table))
        lease = directory / "leases" / "somekey.json"
        lease.write_text(json.dumps({
            "worker": "w9", "host": socket.gethostname(), "pid": child.pid,
            "nonce": "0" * 32, "acquired": time.time(), "ttl_s": 300.0}))
        assert main(["campaign", "status", str(directory), "--json"]) == 0
        leases = json.loads(capsys.readouterr().out)["leases"]
        assert leases == {"live": 0, "expired": 1}
        assert main(["cache", "stats"]) == 0
        assert "(leases: 1, stale: 1)" in capsys.readouterr().out
        assert main(["cache", "prune", "--stale-leases"]) == 0
        assert "1 stale campaign lease(s)" in capsys.readouterr().out
        assert not lease.exists()

    def test_help_epilog_groups_campaigns(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        assert "campaign run" in out


def _tiny_btree(scale):
    # One tta point through the exec service, like a real figure.
    from repro.exec import get_service, make_spec
    run = get_service().run(
        make_spec("btree", {"n_keys": 256, "n_queries": 64}, "tta"))
    table = Table("tiny", ["workload", "cycles"])
    table.add_row("btree", run.cycles)
    return table


class TestGuardSkipsCachedResults:
    """The result cache does not key on the guard: a run with an
    explicit guard re-executes every point, so the guard checks each
    result it reports, and still writes what it runs."""

    def test_run_rechecks_cached_points(self, monkeypatch, capsys):
        monkeypatch.setitem(EXPERIMENTS, "tiny",
                            Experiment(_tiny_btree, "tiny", ()))
        argv = ["run", "tiny", "--scale", "smoke"]
        assert main(argv + ["--max-cycles", "10000000"]) == 0
        assert "executed=1 cached=0" in capsys.readouterr().out
        # The guarded run wrote its result: an unguarded run reads it.
        assert main(argv) == 0
        assert "executed=0 cached=1" in capsys.readouterr().out
        # Over the warm cache, a budget the point exceeds still fails.
        assert main(argv + ["--max-cycles", "100"]) == 1
        err = capsys.readouterr().err
        assert "FAILED" in err and "[cycle-budget]" in err


class TestRangeScanThroughService:
    def test_cycle_budget_fails_range_scan_points(self, capsys):
        # ext_rangescan's launches go through the execution service, so
        # the guard reaches them and the manifest records the abort.
        assert main(["run", "ext_rangescan", "--scale", "smoke",
                     "--max-cycles", "10"]) == 1
        err = capsys.readouterr().err
        assert "FAILED rangescan[" in err and "[cycle-budget]" in err
        assert "executed=0 cached=0 failed=1" in err


class TestNoEnvironmentWrites:
    """Flags travel as arguments: the CLI never writes the process
    environment, for its own use or its workers'."""

    @staticmethod
    def _main_frozen(monkeypatch, argv):
        env = _ReadOnlyEnviron(os.environ)
        with monkeypatch.context() as frozen:
            frozen.setattr(os, "environ", env)
            code = main(argv)
        assert env.writes == []
        return code

    def test_run_guard_flags(self, monkeypatch, capsys):
        monkeypatch.setitem(EXPERIMENTS, "tiny",
                            Experiment(_tiny_btree, "tiny", ()))
        # The cycle budget reaches the launch: the point aborts.
        assert self._main_frozen(monkeypatch, [
            "run", "tiny", "--scale", "smoke", "--no-cache",
            "--guard", "strict", "--max-cycles", "100"]) == 1
        err = capsys.readouterr().err
        assert "FAILED" in err and "SimulationStallError" in err
        # A budget the run fits in leaves it alone.
        assert self._main_frozen(monkeypatch, [
            "run", "tiny", "--scale", "smoke", "--no-cache",
            "--guard", "strict", "--max-cycles", "10000000"]) == 0

    def test_loadtest_resilience_flags(self, monkeypatch, capsys):
        import repro.serve as serve

        seen = {}
        run_qps_sweep = serve.run_qps_sweep

        def spy(*args, **kwargs):
            seen.update(kwargs)
            return run_qps_sweep(*args, **kwargs)

        monkeypatch.setattr(serve, "run_qps_sweep", spy)
        monkeypatch.delenv("REPRO_RESILIENCE", raising=False)
        assert self._main_frozen(monkeypatch, [
            "loadtest", "--platform", "tta", "--qps", "400",
            "--duration", "0.02", "--warmup", "0", "--mix", "point",
            "--resilience", "shed", "--deadline-ms", "20"]) == 0
        assert seen["resilience"] == ResilienceConfig(mode="shed",
                                                      deadline_ms=20.0)
        assert seen["guard"] is None
        assert "resilience=shed" in capsys.readouterr().out

    def test_sweep_cycle_budget_reaches_pool_workers(self, monkeypatch,
                                                     capsys):
        # Two points over two workers: the limit is a pool payload
        # argument, not an inherited environment variable.
        assert self._main_frozen(monkeypatch, [
            "sweep", "btree", "--param", "n_keys=512",
            "--param", "n_queries=16,64", "--platforms", "tta",
            "--jobs", "2", "--max-cycles", "100", "--no-cache"]) == 1
        captured = capsys.readouterr()
        assert "failed=2 mode=parallel" in captured.out
        assert captured.err.count("SimulationStallError") >= 2

    def test_guard_config_from_flags(self, monkeypatch):
        from repro.__main__ import _guard_config

        monkeypatch.setenv("REPRO_GUARD", "watch")
        parse = build_parser().parse_args
        assert _guard_config(parse(["run", "fig13"])) is None
        assert _guard_config(parse(["run", "fig13", "--max-cycles", "9"])) \
            == GuardConfig(mode="watch", max_cycles=9)
        assert _guard_config(parse(["run", "fig13", "--guard", "off"])) \
            == GuardConfig(mode="off")
