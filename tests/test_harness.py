"""Tests for the experiment harness (tables, runners, experiments)."""

import pytest

from repro.harness.results import Table, geomean
from repro.harness.runner import scaled_config_for
from repro.errors import ConfigurationError


class TestTable:
    def test_format_alignment_and_title(self):
        t = Table("My Results", ["name", "value"])
        t.add_row("alpha", 1.2345)
        t.add_row("beta", 10000.0)
        text = t.format()
        assert text.startswith("My Results\n==========")
        assert "alpha" in text and "10,000" in text

    def test_row_arity_checked(self):
        t = Table("t", ["a", "b"])
        with pytest.raises(ValueError):
            t.add_row(1)

    def test_csv_round_trip(self):
        t = Table("t", ["a", "b"])
        t.add_row("x", 1)
        t.add_row("y", 2)
        lines = t.to_csv().strip().splitlines()
        assert lines[0] == "a,b"
        assert lines[1:] == ["x,1", "y,2"]

    def test_csv_and_json_round_trip_floats_exactly(self):
        # Export paths must not inherit format()'s lossy %.3g display.
        import csv as csv_mod
        import io
        import json
        value = 1.0 / 3.0
        t = Table("t", ["name", "value", "nan"])
        t.add_row("x", value, float("nan"))
        row = next(iter(csv_mod.reader(io.StringIO(t.to_csv().splitlines()[1]))))
        assert float(row[1]) == value
        data = json.loads(t.to_json())
        assert data["rows"][0][1] == value
        assert data["rows"][0][2] != data["rows"][0][2]  # NaN survives

    def test_column_extraction(self):
        t = Table("t", ["a", "b"])
        t.add_row("x", 1)
        t.add_row("y", 2)
        assert t.column("b") == [1, 2]
        with pytest.raises(ValueError):
            t.column("c")


class TestGeomean:
    def test_basic(self):
        assert geomean([2, 8]) == pytest.approx(4.0)
        assert geomean([3]) == pytest.approx(3.0)

    def test_nonpositive_dropped_with_warning(self):
        with pytest.warns(RuntimeWarning, match="non-positive"):
            assert geomean([2, 8, 0, -1]) == pytest.approx(4.0)
        assert geomean([]) == 0.0  # empty input is not a drop: no warning

    def test_strict_mode_raises(self):
        with pytest.raises(ValueError, match="non-positive"):
            geomean([2, 8, 0], strict=True)
        assert geomean([2, 8], strict=True) == pytest.approx(4.0)


class TestScaledConfig:
    def test_caches_scale_with_data(self):
        small = scaled_config_for(64 * 1024)
        large = scaled_config_for(16 * 1024 * 1024)
        assert small.l2_size <= large.l2_size
        assert small.l1_size <= large.l1_size

    def test_never_exceeds_table2(self):
        cfg = scaled_config_for(10**9)
        assert cfg.l2_size <= 3 * 1024 * 1024
        assert cfg.l1_size <= 64 * 1024

    def test_valid_geometry(self):
        for size in (1, 10_000, 1_000_000, 100_000_000):
            cfg = scaled_config_for(size)
            assert cfg.l2_size % (cfg.l2_assoc * cfg.line_size) == 0
            assert cfg.l1_size % cfg.line_size == 0

    def test_bad_input(self):
        with pytest.raises(ConfigurationError):
            scaled_config_for(0)


class TestExperimentsSmoke:
    """Smoke-scale table shapes; the paper's claims over these tables
    are checked in ``test_claims.py``."""

    def test_params_scale_selection(self):
        from repro.harness import experiments
        assert experiments.params("smoke")["lumi_res"] == 8
        with pytest.raises(KeyError):
            experiments.params("galactic")

    def test_fig14_shapes(self):
        from repro.harness import experiments
        experiments.clear_cache()
        table = experiments.fig14_sensitivity("smoke")
        rows = [r for r in table.rows if r[0] == "btree"]
        assert {r[1] for r in rows} == {"warp_buffer", "isect_latency"}
        experiments.clear_cache()

    def test_fig20_reduction(self):
        from repro.harness import experiments
        experiments.clear_cache()
        table = experiments.fig20_instructions("smoke")
        reduction = [r for r in table.rows
                     if r[0] == "mean reduction (tta)"][0][7]
        assert reduction > 0.8
        experiments.clear_cache()
