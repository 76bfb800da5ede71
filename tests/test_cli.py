"""Tests for the ``python -m repro`` command-line interface."""

import json

import pytest

import repro.exec as exec_mod
from repro.__main__ import (
    EXPERIMENTS,
    build_parser,
    cmd_list,
    cmd_run,
    main,
)


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

    def test_scale_default_honors_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "large")
        args = build_parser().parse_args(["run", "fig13"])
        assert args.scale == "large"
        monkeypatch.delenv("REPRO_SCALE")
        args = build_parser().parse_args(["run", "fig13"])
        assert args.scale == "small"

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
        for name in EXPERIMENTS:
            assert name in out

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
        # 'all' must expand to exactly the registered experiments.
        names = sorted(EXPERIMENTS)
        assert "fig12" in names and len(names) == 12


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

    def test_resilience_flags_parse_and_export(self, monkeypatch):
        # _apply_resilience_options writes os.environ directly (the CLI
        # is a one-shot process); setenv first so monkeypatch restores.
        monkeypatch.setenv("REPRO_RESILIENCE", "")
        monkeypatch.setenv("REPRO_RESILIENCE_DEADLINE_MS", "")
        args = build_parser().parse_args(
            ["loadtest", "--resilience", "shed", "--deadline-ms", "20"])
        assert args.resilience == "shed" and args.deadline_ms == 20.0
        from repro.__main__ import _apply_resilience_options
        import os
        _apply_resilience_options(args)
        assert os.environ["REPRO_RESILIENCE"] == "shed"
        assert os.environ["REPRO_RESILIENCE_DEADLINE_MS"] == "20.0"

    def test_resilience_mode_rejects_unknown_choice(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["loadtest", "--resilience", "yolo"])

    def test_loadtest_shed_mode_reports_slo(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_RESILIENCE", "")   # restore after leak
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

    def test_loadtest_reuses_build_cache(self, capsys):
        argv = ["loadtest", "--platform", "tta", "--qps", "400",
                "--duration", "0.02", "--warmup", "0", "--mix", "point"]
        assert main(argv) == 0
        first = capsys.readouterr().err
        assert "index built" in first
        assert main(argv) == 0
        assert "index cached" in capsys.readouterr().err

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

    def test_cache_stats_reports_builds(self, capsys):
        assert main(["loadtest", "--platform", "tta", "--qps", "400",
                     "--duration", "0.02", "--warmup", "0",
                     "--mix", "point"]) == 0
        capsys.readouterr()
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "builds:" in out
        assert "builds:     0" not in out


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

    def test_help_epilog_groups_campaigns(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        assert "campaign run" in out
