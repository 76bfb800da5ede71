"""Every paper claim holds at smoke scale.

Each registered experiment runs once at smoke scale, the way
``repro run`` runs it (execution service with a result cache, here in
a temp dir), and every claim beside it must hold on the table it
returns.  A failure names the broken claims and the rows that break
them.
"""

import pytest

import repro.exec as exec_mod
from repro.harness import experiments
from repro.harness.results import Table


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_CACHE_DIR", str(tmp_path_factory.mktemp("cache")))
        exec_mod.reset()
        yield exec_mod.configure(jobs=1, cache_enabled=True)
    exec_mod.reset()
    experiments.clear_cache()


@pytest.mark.parametrize("name", sorted(experiments.EXPERIMENTS))
def test_claims_hold_at_smoke(name, service):
    table = service.run_figure(experiments.EXPERIMENTS[name].fn, "smoke")
    broken = experiments.broken_claims(name, table)
    assert not broken, "\n".join(
        f"{name}.{claim.name}: {claim.text} — rows: {'; '.join(rows)}"
        for claim, rows in broken)


def _fig12_table(btree_tta: float) -> Table:
    """A hand-built Fig. 12 table on which every claim holds, apart
    from whatever ``btree_tta`` does to the B-Tree row."""
    table = Table("fig12", ["workload", "config", "tta", "ttaplus",
                            "paper_range"])
    table.add_row("btree", "2048k/2048q", btree_tta, 1.6, "")
    table.add_row("bstar", "2048k/2048q", 1.8, 1.7, "")
    table.add_row("bplus", "2048k/2048q", 1.7, 1.6, "")
    table.add_row("nbody2d", "384b", 3.2, 3.1, "")
    table.add_row("nbody3d", "384b", 2.7, 2.8, "")
    table.add_row("rtnn(tta)", "2048pts", 1.5, float("nan"), "")
    table.add_row("rtnn(naive)", "2048pts", 0.9, float("nan"), "")
    table.add_row("*rtnn", "2048pts", 1.1, float("nan"), "")
    return table


def test_doctored_table_names_claim_and_row():
    assert experiments.broken_claims("fig12", _fig12_table(1.76)) == []
    broken = experiments.broken_claims("fig12", _fig12_table(0.9))
    assert [(claim.name, rows) for claim, rows in broken] == \
        [("btree_tta_wins", ["btree 2048k/2048q"])]


def test_missing_row_breaks_claim():
    table = _fig12_table(1.76)
    table.rows = [r for r in table.rows if r[0] != "*rtnn"]
    broken = experiments.broken_claims("fig12", table)
    assert [claim.name for claim, _rows in broken] == ["rtnn_opt_recovers"]
    assert "no row '*rtnn'" in broken[0][1][0]
