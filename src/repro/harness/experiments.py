"""The experiment registry: every paper figure and table, and its claims.

Each experiment function runs the relevant workloads at one scale
("smoke" for tests, "small" for the default CLI runs, "large" for
longer, closer-to-paper runs) and returns a
:class:`~repro.harness.results.Table` shaped like the paper's figure,
with paper-reported values alongside.  Beside each function sit its
*claims*: the paper's qualitative findings (who wins, by roughly what
factor, where the crossovers fall) as named predicates over that table.
:data:`EXPERIMENTS` maps each name ``repro run``/``repro list`` accept
to its function, description and claims.
"""

import ast
import random
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.core.ttaplus import OP_UNIT_LATENCIES, PROGRAMS
from repro.core.ttaplus.uop import UNIT_TYPES
from repro.energy import area
from repro.exec import get_service, make_spec
from repro.gpu import GPU
from repro.gpu.config import DEFAULT_CONFIG
from repro.harness import paper
from repro.harness.results import Table, geomean
from repro.harness.runner import RunResult, scaled_config_for
from repro.workloads import LUMIBENCH_SUITE

#: Per-scale workload parameters.  "small" keeps every figure under a
#: couple of minutes; "large" roughly quadruples the work.
SCALES: Dict[str, Dict] = {
    "smoke": dict(
        btree_sweep=[(2048, 2048)],
        btree_main=(2048, 2048),
        nbody_bodies=384,
        rtnn=(2048, 384),
        lumi_res=8,
        wknd=dict(res=8, spheres=160, bounces=1),
        spatial=(1024, 256),
        rangescan=(2048, 128),
    ),
    "small": dict(
        btree_sweep=[(4096, 16384), (16384, 8192), (65536, 8192)],
        btree_main=(16384, 8192),
        nbody_bodies=1024,
        rtnn=(8192, 1024),
        lumi_res=12,
        wknd=dict(res=16, spheres=420, bounces=2),
        spatial=(8192, 1024),
        rangescan=(16384, 512),
    ),
    "large": dict(
        btree_sweep=[(4096, 32768), (16384, 16384), (65536, 16384),
                     (262144, 16384)],
        btree_main=(65536, 16384),
        nbody_bodies=2048,
        rtnn=(16384, 2048),
        lumi_res=16,
        wknd=dict(res=20, spheres=640, bounces=2),
        spatial=(16384, 2048),
        rangescan=(65536, 1024),
    ),
}

#: Cache geometry used for the ray-tracing workloads: procedural scenes
#: are far smaller than LumiBench assets, so the caches shrink with them
#: to keep node fetches memory-dominated (DESIGN.md §6).
RT_OVERRIDES = dict(l1_size=512, l2_size=4096, l2_assoc=8)

#: Spec config policies matching the historical per-family defaults.
_SCALED = {"policy": "scaled"}
_RT_POLICY = {"policy": "default", "overrides": RT_OVERRIDES}


def params(scale: str) -> Dict:
    if scale not in SCALES:
        raise KeyError(f"unknown scale {scale!r}; pick from {sorted(SCALES)}")
    return SCALES[scale]


def clear_cache() -> None:
    """Drop all in-memory memoization (run results and built workloads).

    The on-disk result cache, when enabled, is *not* touched — use
    ``python -m repro cache clear`` for that.
    """
    from repro.harness import runner
    runner.clear_workload_cache()
    get_service().clear_memory()


def default_config_policy(kind: str) -> Optional[Dict]:
    """The config policy each workload family's figures historically use."""
    return {
        "btree": dict(_SCALED),
        "nbody": dict(_SCALED),
        "rtnn": {"policy": "scaled", "pressure": 20.0},
        "rtree": dict(_SCALED),
        "knn": dict(_SCALED),
        "wknd": dict(_RT_POLICY),
        "lumi": dict(_RT_POLICY),
    }[kind]


# -- claims ---------------------------------------------------------------------------
class Claim(NamedTuple):
    """One paper finding as a check over its experiment's table.

    ``check`` returns what breaks the claim: table rows, or a string
    where no row can stand for the failure.  An empty list means the
    claim holds; a check that raises (on a missing row, say) counts as
    broken.
    """
    name: str
    text: str
    check: Callable[[Table], List]


class Experiment(NamedTuple):
    """A registry entry: ``fn(scale)`` builds the table ``claims`` check."""
    fn: Callable[[str], Table]
    description: str
    claims: Tuple[Claim, ...]
    #: How many leading cells name a row in a broken claim's report.
    key: int = 1


def _row(table: Table, *key) -> List:
    """The first row whose leading cells are ``key``."""
    for row in table.rows:
        if tuple(row[:len(key)]) == key:
            return row
    raise KeyError(f"no row {' '.join(map(str, key))!r}")


def _each(holds: Callable[[List], bool],
          where: Callable[[List], bool] = lambda row: True):
    """Check: ``holds`` on every row ``where`` selects."""
    return lambda t: [r for r in t.rows if where(r) and not holds(r)]


def _named(keys, holds: Callable[[List], bool]):
    """Check: ``holds`` on each named row (each key a tuple of leading
    cells); a missing row breaks the claim."""
    return lambda t: [r for r in (_row(t, *k) for k in keys) if not holds(r)]


def _pair(a, b, holds: Callable[[List, List], bool]):
    """Check: ``holds(row a, row b)``; both rows offend when it fails."""
    def check(table):
        ra, rb = _row(table, *a), _row(table, *b)
        return [] if holds(ra, rb) else [ra, rb]
    return check


def broken_claims(name: str, table: Table) -> List[Tuple[Claim, List[str]]]:
    """Each claim of experiment ``name`` that ``table`` breaks, with the
    labels of the rows that break it."""
    experiment = EXPERIMENTS[name]
    broken = []
    for claim in experiment.claims:
        try:
            offenders = claim.check(table)
        except Exception as exc:  # a check that cannot run is broken
            offenders = [f"{type(exc).__name__}: {exc}"]
        if offenders:
            broken.append((claim, [
                o if isinstance(o, str)
                else " ".join(str(c) for c in o[:experiment.key])
                for o in offenders]))
    return broken


# -- shared runs --------------------------------------------------------------------
#
# Each helper builds a declarative RunSpec and hands it to the global
# execution service, which memoizes in-process, consults the on-disk
# cache, and (under ``--jobs N``) executes missing points on the worker
# pool.  The workload seeds are part of the spec, so the content
# address covers everything that determines the simulation's outcome.

def _run(kind: str, workload: Dict, platform: str, config=None,
         **run_kwargs) -> RunResult:
    spec = make_spec(kind, workload, platform,
                     config=config if config is not None
                     else default_config_policy(kind),
                     run_kwargs=run_kwargs)
    return get_service().run(spec)


def _btree_run(variant: str, n_keys: int, n_queries: int, platform: str,
               config_overrides: Optional[Dict] = None,
               **kw) -> RunResult:
    config = default_config_policy("btree")
    if config_overrides:
        config["overrides"] = dict(config_overrides)
    return _run("btree",
                dict(variant=variant, n_keys=n_keys, n_queries=n_queries,
                     seed=1),
                platform, config=config, **kw)


def _nbody_run(dims: int, n_bodies: int, platform: str,
               fused: int = 0) -> RunResult:
    return _run("nbody", dict(n_bodies=n_bodies, dims=dims, seed=2,
                              theta=0.6),
                platform, fused_post_insts=fused)


def _rtnn_run(n_points: int, n_queries: int, platform: str) -> RunResult:
    return _run("rtnn", dict(n_points=n_points, n_queries=n_queries,
                             radius=1.0, seed=3),
                platform)


def _wknd_run(platform: str, scale: Dict, **kw) -> RunResult:
    w = scale["wknd"]
    return _run("wknd", dict(width=w["res"], height=w["res"],
                             n_spheres=w["spheres"], bounces=w["bounces"]),
                platform, **kw)


def _lumi_run(name: str, platform: str, res: int) -> RunResult:
    return _run("lumi", dict(name=name, width=res, height=res), platform)


_BTREES = ("btree", "bstar", "bplus")


# -- Fig. 1: motivation -------------------------------------------------------------
def fig01_motivation(scale: str) -> Table:
    p = params(scale)
    nk, nq = p["btree_main"]
    table = Table(
        "Fig. 1 — SIMT efficiency and DRAM bandwidth utilization",
        ["workload", "simt_eff(gpu)", "simt_eff(paper)",
         "dram(gpu)", "dram(gpu,paper)", "dram(+tta)", "dram(+tta,paper)"],
    )
    rows = [("btree", lambda pl: _btree_run("btree", nk, nq, pl)),
            ("bstar", lambda pl: _btree_run("bstar", nk, nq, pl)),
            ("bplus", lambda pl: _btree_run("bplus", nk, nq, pl)),
            ("nbody2d", lambda pl: _nbody_run(2, p["nbody_bodies"], pl)),
            ("nbody3d", lambda pl: _nbody_run(3, p["nbody_bodies"], pl))]
    for name, runner in rows:
        base = runner("gpu")
        tta = runner("tta")
        table.add_row(
            name, base.simt_efficiency,
            paper.FIG1_SIMT_EFFICIENCY[name],
            base.metric("memsys.dram.utilization"),
            paper.FIG1_DRAM_UTIL_GPU[name],
            tta.metric("memsys.dram.utilization"),
            paper.FIG1_DRAM_UTIL_TTA[name],
        )
    # The paper's rightmost bars: ray tracing, where the RTA already
    # fixes the divergence (software traversal vs hardware traceRay).
    sw = _lumi_run("BUNNY_SH", "gpu", p["lumi_res"])
    hw = _lumi_run("BUNNY_SH", "rta", p["lumi_res"])
    table.add_row("raytrace", sw.simt_efficiency, 0.45,
                  sw.metric("memsys.dram.utilization"), 0.15,
                  hw.metric("memsys.dram.utilization"), 0.30)
    return table


FIG01_CLAIMS = (
    Claim("tta_raises_dram",
          "TTA raises DRAM utilization on every workload",
          _each(lambda r: r[5] > r[3])),
    Claim("btree_divergent_nbody_not",
          "B-Tree search is divergent (SIMT eff. < 0.8); N-Body's "
          "warp-voting walk is not",
          _pair(("btree",), ("nbody3d",),
                lambda bt, nb: bt[1] < 0.8 < nb[1])),
)


# -- Fig. 6: roofline ---------------------------------------------------------------
def fig06_roofline(scale: str) -> Table:
    p = params(scale)
    nk, nq = p["btree_main"]
    cfg = DEFAULT_CONFIG
    peak_flops_per_cycle = cfg.n_sms * cfg.warp_size  # 1 FMA lane each
    table = Table(
        "Fig. 6 — roofline placement of tree traversal workloads",
        ["workload", "flops/byte", "achieved_ops_per_cycle",
         "peak_ops_per_cycle", "bw_roof_ops_per_cycle", "bound"],
    )
    runs = [("btree", _btree_run("btree", nk, nq, "gpu")),
            ("bplus", _btree_run("bplus", nk, nq, "gpu")),
            ("nbody3d", _nbody_run(3, p["nbody_bodies"], "gpu")),
            ("rtnn", _rtnn_run(*p["rtnn"], "gpu"))]
    for name, run in runs:
        flops = run.stats.thread_instructions.get("alu") + \
            run.stats.thread_instructions.get("sfu")
        dram_bytes = max(1.0, run.stats.memory["dram_bytes"])
        intensity = flops / dram_bytes
        achieved = flops / run.cycles
        bw_roof = intensity * DEFAULT_CONFIG.dram_bytes_per_cycle
        bound = "memory" if bw_roof < peak_flops_per_cycle else "compute"
        table.add_row(name, intensity, achieved, peak_flops_per_cycle,
                      bw_roof, bound)
    return table


FIG06_CLAIMS = (
    Claim("below_compute_roof",
          "every workload achieves under half the compute roof",
          _each(lambda r: r[2] < 0.5 * r[3])),
)


# -- Fig. 12: speedups ------------------------------------------------------------
def fig12_speedup(scale: str) -> Table:
    p = params(scale)
    table = Table(
        "Fig. 12 — speedup over baseline (CUDA apps vs GPU, RT apps vs RTA)",
        ["workload", "config", "tta", "ttaplus", "paper_range"],
    )
    tta_speedups = []
    for variant in ("btree", "bstar", "bplus"):
        for nk, nq in p["btree_sweep"]:
            base = _btree_run(variant, nk, nq, "gpu")
            tta = _btree_run(variant, nk, nq, "tta")
            tp = _btree_run(variant, nk, nq, "ttaplus")
            s_tta = tta.speedup_over(base)
            tta_speedups.append(s_tta)
            table.add_row(variant, f"{nk}k/{nq}q", s_tta,
                          tp.speedup_over(base),
                          str(paper.FIG12_SPEEDUP_TTA[variant]))
    for dims in (2, 3):
        base = _nbody_run(dims, p["nbody_bodies"], "gpu")
        tta = _nbody_run(dims, p["nbody_bodies"], "tta")
        tp = _nbody_run(dims, p["nbody_bodies"], "ttaplus")
        table.add_row(f"nbody{dims}d", f"{p['nbody_bodies']}b",
                      tta.speedup_over(base), tp.speedup_over(base),
                      str(paper.FIG12_SPEEDUP_TTA[f"nbody{dims}d"]))
    # RT apps: relative to the baseline RTA implementation (RTNN).
    rta = _rtnn_run(*p["rtnn"], "rta")
    for label, platform, key in (
            ("rtnn(tta)", "tta", "rtnn_tta"),
            ("rtnn(naive)", "ttaplus", "rtnn_ttaplus_naive"),
            ("*rtnn", "ttaplus_opt", "rtnn_ttaplus_opt")):
        run = _rtnn_run(*p["rtnn"], platform)
        table.add_row(label, f"{p['rtnn'][0]}pts", run.speedup_over(rta),
                      float("nan"),
                      str(paper.FIG12_RT_SPEEDUP_OVER_RTA[key]))
    table.rows.append(["geomean(btree family, tta)", "", geomean(tta_speedups),
                       "", str(paper.HEADLINES["btree_family_speedup_geomean"])])
    return table


FIG12_CLAIMS = (
    Claim("btree_tta_wins",
          "every B-Tree-family configuration beats the GPU on TTA",
          _each(lambda r: r[2] > 1.0, where=lambda r: r[0] in _BTREES)),
    Claim("btree_ttaplus_holds",
          "TTA+ keeps every B-Tree-family configuration above 0.9x",
          _each(lambda r: r[3] > 0.9, where=lambda r: r[0] in _BTREES)),
    Claim("nbody_in_band",
          "N-Body TTA speedups lie in 0.9-4.0x (paper 1.1-1.7x, slack "
          "for scale)",
          _each(lambda r: 0.9 < r[2] < 4.0,
                where=lambda r: r[0] in ("nbody2d", "nbody3d"))),
    Claim("rtnn_tta_wins", "RTNN on TTA beats the baseline RTA",
          _named([("rtnn(tta)",)], lambda r: r[2] > 1.0)),
    Claim("rtnn_naive_slows",
          "the naive TTA+ port of RTNN stays below 1.05x",
          _named([("rtnn(naive)",)], lambda r: r[2] < 1.05)),
    Claim("rtnn_opt_recovers", "*RTNN beats the naive TTA+ port",
          _pair(("*rtnn",), ("rtnn(naive)",),
                lambda opt, naive: opt[2] > naive[2])),
)


# -- Fig. 13: DRAM utilization ------------------------------------------------------
#
# Figs. 13/15/18 read the repro.obs metrics registry
# (``run.metric("memsys.dram.utilization")`` and friends) rather than
# raw stat dicts or accelerator snapshot keys: the registry owns the
# naming and the per-accelerator merging.

_DRAM_UTIL = "memsys.dram.utilization"


def fig13_dram(scale: str) -> Table:
    p = params(scale)
    nk, nq = p["btree_main"]
    table = Table(
        "Fig. 13 — DRAM bandwidth utilization per platform",
        ["workload", "gpu", "rta", "tta", "ttaplus"],
    )
    for variant in ("btree", "bstar", "bplus"):
        table.add_row(
            variant,
            _btree_run(variant, nk, nq, "gpu").metric(_DRAM_UTIL),
            float("nan"),  # baseline RTA cannot run B-Tree queries
            _btree_run(variant, nk, nq, "tta").metric(_DRAM_UTIL),
            _btree_run(variant, nk, nq, "ttaplus").metric(_DRAM_UTIL),
        )
    for dims in (2, 3):
        table.add_row(
            f"nbody{dims}d",
            _nbody_run(dims, p["nbody_bodies"], "gpu").metric(_DRAM_UTIL),
            float("nan"),
            _nbody_run(dims, p["nbody_bodies"], "tta").metric(_DRAM_UTIL),
            _nbody_run(dims, p["nbody_bodies"], "ttaplus").metric(_DRAM_UTIL),
        )
    table.add_row(
        "rtnn",
        _rtnn_run(*p["rtnn"], "gpu").metric(_DRAM_UTIL),
        _rtnn_run(*p["rtnn"], "rta").metric(_DRAM_UTIL),
        _rtnn_run(*p["rtnn"], "tta").metric(_DRAM_UTIL),
        _rtnn_run(*p["rtnn"], "ttaplus_opt").metric(_DRAM_UTIL),
    )
    return table


FIG13_CLAIMS = (
    Claim("tta_above_gpu",
          "TTA uses more DRAM bandwidth than the GPU on every workload",
          _each(lambda r: r[3] > r[1])),
    Claim("ttaplus_holds",
          "TTA+ keeps DRAM utilization above 0.8x the GPU's",
          _each(lambda r: r[4] > r[1] * 0.8)),
)


# -- Fig. 14: TTA sensitivity ---------------------------------------------------------
def fig14_sensitivity(scale: str) -> Table:
    p = params(scale)
    nk, nq = p["btree_main"]
    table = Table(
        "Fig. 14 — B-Tree TTA sensitivity to warp buffer size and latency",
        ["variant", "knob", "value", "speedup_vs_gpu"],
    )
    for variant in ("btree", "bstar", "bplus"):
        base = _btree_run(variant, nk, nq, "gpu")
        for warps in (1, 2, 4, 8, 16):
            run = _btree_run(variant, nk, nq, "tta",
                             config_overrides={"warp_buffer_warps": warps},
                             verify=False)
            table.add_row(variant, "warp_buffer", warps,
                          run.speedup_over(base))
        for latency, label in ((3, "minmax-only(3cy)"), (13, "default(13cy)"),
                               (130, "10x(130cy)")):
            run = _btree_run(variant, nk, nq, "tta",
                             tta_latency_overrides={"query_key": latency},
                             verify=False)
            table.add_row(variant, "isect_latency", label,
                          base.cycles / run.cycles)
    return table


def _per_variant(knob: str, offenders):
    """Check over each B-Tree variant's ``knob`` rows, keyed by value."""
    def check(table):
        broken = []
        for variant in _BTREES:
            by_value = {r[2]: r for r in table.rows
                        if r[0] == variant and r[1] == knob}
            broken.extend(offenders(by_value))
        return broken
    return check


FIG14_CLAIMS = (
    Claim("warp_buffer_gain",
          "4 warp-buffer entries beat 1 on every variant",
          _per_variant("warp_buffer",
                       lambda w: [] if w[4][3] > w[1][3] else [w[4], w[1]])),
    Claim("warp_buffer_saturates",
          "16 warp-buffer entries keep >= 0.85x of 8 (saturation, not "
          "regression)",
          _per_variant("warp_buffer",
                       lambda w: [] if w[16][3] >= w[8][3] * 0.85
                       else [w[16], w[8]])),
    Claim("latency_10x_wins",
          "TTA still beats the GPU at 10x intersection latency",
          _per_variant("isect_latency",
                       lambda lat: [] if lat["10x(130cy)"][3] > 1.0
                       else [lat["10x(130cy)"]])),
    Claim("latency_second_order",
          "3-cycle over 10x latency speedup stays below 2.5x",
          _per_variant("isect_latency",
                       lambda lat: [] if lat["minmax-only(3cy)"][3]
                       / lat["10x(130cy)"][3] < 2.5
                       else [lat["minmax-only(3cy)"], lat["10x(130cy)"]])),
)


# -- Fig. 15: TTA intersection unit utilization -----------------------------------------
def fig15_unit_util(scale: str) -> Table:
    p = params(scale)
    nk, nq = p["btree_main"]
    table = Table(
        "Fig. 15 — TTA intersection-unit concurrency (avg / peak in flight)",
        ["workload", "unit", "avg_inflight", "peak_inflight"],
    )
    runs = [("btree", _btree_run("btree", nk, nq, "tta"), ["query_key"]),
            ("nbody3d", _nbody_run(3, p["nbody_bodies"], "tta"),
             ["point_dist"]),
            ("rtnn", _rtnn_run(*p["rtnn"], "tta"),
             ["box", "point_dist"])]
    for name, run, units in runs:
        for unit in units:
            table.add_row(name, unit,
                          run.metric(f"rta.unit.{unit}.occupancy_avg"),
                          run.metric(f"rta.unit.{unit}.occupancy_peak"))
    return table


def _rtnn_point_dist_busy(table: Table) -> List:
    rows = [r for r in table.rows if r[:2] == ["rtnn", "point_dist"]]
    if any(r[3] > 0 for r in rows):
        return []
    return rows or ["rtnn point_dist (no row)"]


FIG15_CLAIMS = (
    Claim("peak_at_least_one", "every unit peaks at >= 1 in flight",
          _each(lambda r: r[3] >= 1)),
    Claim("bursty", "node processing is bursty: every unit's average is "
          "below its peak", _each(lambda r: r[2] < r[3])),
    Claim("rtnn_point_dist_busy",
          "RTNN's distance tests occupy the repurposed point_dist unit",
          _rtnn_point_dist_busy),
)


# -- Fig. 16: LumiBench on TTA+ ---------------------------------------------------------
def fig16_lumibench(scale: str) -> Table:
    p = params(scale)
    res = p["lumi_res"]
    table = Table(
        "Fig. 16 — ray tracing on TTA+ relative to baseline RTA",
        ["workload", "ttaplus/rta", "optimized/rta", "paper"],
    )
    ratios = []
    for spec in LUMIBENCH_SUITE:
        rta = _lumi_run(spec.name, "rta", res)
        tp = _lumi_run(spec.name, "ttaplus", res)
        ratio = rta.cycles / tp.cycles
        ratios.append(ratio)
        opt = float("nan")
        if spec.sato_capable:
            opt = rta.cycles / _lumi_run(spec.name, "ttaplus_opt", res).cycles
        table.add_row(spec.name, ratio, opt, "~0.92 mean")
    wk_rta = _wknd_run("rta", p)
    wk_tp = _wknd_run("ttaplus", p)
    wk_opt = _wknd_run("ttaplus_opt", p)
    table.add_row("WKND_PT", wk_rta.cycles / wk_tp.cycles,
                  wk_rta.cycles / wk_opt.cycles,
                  f"opt = {paper.HEADLINES['wknd_opt_improvement']}x naive")
    ratios.append(wk_rta.cycles / wk_tp.cycles)
    table.add_row("geomean", geomean(ratios), float("nan"),
                  str(paper.HEADLINES["lumibench_ttaplus_slowdown"]))
    return table


FIG16_CLAIMS = (
    Claim("geomean_band",
          "TTA+/RTA geomean lies in 0.6-1.05 (paper ~0.92)",
          _named([("geomean",)], lambda r: 0.6 < r[1] < 1.05)),
    Claim("unmodified_slow_down",
          "unmodified CORNELL_PT, SPONZA_AO, BUNNY_SH stay below 1.05x",
          _named([("CORNELL_PT",), ("SPONZA_AO",), ("BUNNY_SH",)],
                 lambda r: r[1] < 1.05)),
    Claim("wknd_opt_beats_naive", "*WKND_PT beats the naive TTA+ port",
          _named([("WKND_PT",)], lambda r: r[2] > r[1])),
)


# -- Fig. 17: limit study ----------------------------------------------------------------
def fig17_limit_study(scale: str) -> Table:
    p = params(scale)
    table = Table(
        "Fig. 17 — WKND_PT limit study on TTA+ (relative to baseline RTA)",
        ["config", "WKND_PT", "*WKND_PT"],
    )
    rta = _wknd_run("rta", p)

    def rel(platform, **kw):
        return rta.cycles / _wknd_run(platform, p, **kw).cycles

    table.add_row("TTA+", rel("ttaplus"), rel("ttaplus_opt"))
    table.add_row("Perf. RT (zero-latency node fetch)",
                  rel("ttaplus", perfect_node_fetch=True),
                  rel("ttaplus_opt", perfect_node_fetch=True))
    table.add_row("Perf. Mem (zero-latency memory)",
                  rel("ttaplus", perfect_mem=True),
                  rel("ttaplus_opt", perfect_mem=True))
    return table


_LIMITS = (("Perf. RT (zero-latency node fetch)",),
           ("Perf. Mem (zero-latency memory)",))


def _above_tta_plus(col: int):
    """Check: each limit row beats the plain TTA+ row in column ``col``."""
    def check(table):
        base = _row(table, "TTA+")[col]
        return _named(_LIMITS, lambda r: r[col] > base)(table)
    return check


FIG17_CLAIMS = (
    Claim("limits_lift_naive",
          "perfect RT and perfect memory each speed up WKND_PT",
          _above_tta_plus(1)),
    Claim("limits_lift_opt",
          "perfect RT and perfect memory each speed up *WKND_PT",
          _above_tta_plus(2)),
    Claim("opt_orthogonal",
          "*WKND_PT stays ahead of WKND_PT under each limit",
          _named(_LIMITS, lambda r: r[2] > r[1])),
)


# -- Fig. 18: OP unit utilization and intersection latency --------------------------------
def fig18_opunits(scale: str) -> Table:
    p = params(scale)
    nk, nq = p["btree_main"]
    table = Table(
        "Fig. 18 — TTA+ OP-unit utilization (top) / intersection latency "
        "(bottom)",
        ["workload", "kind", "name", "value"],
    )
    runs = [("btree", _btree_run("btree", nk, nq, "ttaplus")),
            ("nbody3d", _nbody_run(3, p["nbody_bodies"], "ttaplus")),
            ("*rtnn", _rtnn_run(*p["rtnn"], "ttaplus_opt")),
            ("wknd", _wknd_run("ttaplus_opt", p))]
    for name, run in runs:
        metrics = run.metrics
        for op, value in sorted(metrics.group("ttaplus.op_util").items()):
            if value > 0:
                table.add_row(name, "util", op, value)
        for test, value in sorted(
                metrics.group("ttaplus.test_latency").items()):
            if value > 0:
                table.add_row(name, "latency", test, value)
    return table


def _latency_rows(table: Table, test: str) -> List[List]:
    return [r for r in table.rows if r[1] == "latency" and r[2] == test]


def _raybox_slow(table: Table) -> List:
    rows = _latency_rows(table, "raybox")
    return [r for r in rows if not r[3] > 3 * 13] or \
        ([] if rows else ["raybox latency (no row)"])


def _btree_leaf_short(table: Table) -> List:
    leaf = [r for r in _latency_rows(table, "btree_leaf") if r[0] == "btree"]
    if not leaf:
        return []
    raybox = min(r[3] for r in _latency_rows(table, "raybox"))
    return [r for r in leaf if not r[3] < raybox]


def _units_used(table: Table, workload: str) -> set:
    return {r[2] for r in table.rows if r[0] == workload and r[1] == "util"}


FIG18_CLAIMS = (
    Claim("raybox_slow",
          "the µop Ray-Box takes over 3x the 13-cycle fixed-function "
          "latency (paper ~10x)",
          _raybox_slow),
    Claim("btree_leaf_short",
          "the 3-µop B-Tree leaf test stays under every Ray-Box latency",
          _btree_leaf_short),
    Claim("no_unit_saturates", "no OP unit reaches 0.95 utilization",
          _each(lambda r: r[3] < 0.95, where=lambda r: r[1] == "util")),
    Claim("apps_use_different_units",
          "B-Tree and N-Body exercise different OP-unit sets",
          lambda t: [] if _units_used(t, "btree") != _units_used(t, "nbody3d")
          else ["btree", "nbody3d"]),
)


# -- Fig. 19: energy -------------------------------------------------------------------
def fig19_energy(scale: str) -> Table:
    p = params(scale)
    nk, nq = p["btree_main"]
    table = Table(
        "Fig. 19 — energy normalized to the baseline GPU (BASE)",
        ["workload", "platform", "compute_core", "warp_buffer",
         "intersection", "total"],
    )

    def add(name, base_run, run, platform):
        norm = run.energy.normalized_to(base_run.energy)
        table.add_row(name, platform, norm["compute_core"],
                      norm["warp_buffer"], norm["intersection"],
                      norm["total"])

    for variant in ("btree", "bstar", "bplus"):
        base = _btree_run(variant, nk, nq, "gpu")
        add(variant, base, base, "base")
        add(variant, base, _btree_run(variant, nk, nq, "tta"), "tta")
        add(variant, base, _btree_run(variant, nk, nq, "ttaplus"), "ttaplus")
    for dims in (2, 3):
        base = _nbody_run(dims, p["nbody_bodies"], "gpu")
        add(f"nbody{dims}d", base, base, "base")
        add(f"nbody{dims}d", base, _nbody_run(dims, p["nbody_bodies"], "tta"),
            "tta")
        add(f"nbody{dims}d", base,
            _nbody_run(dims, p["nbody_bodies"], "ttaplus"), "ttaplus")
    rta = _rtnn_run(*p["rtnn"], "rta")
    add("rtnn", rta, rta, "rta(base)")
    add("rtnn", rta, _rtnn_run(*p["rtnn"], "tta"), "tta")
    add("rtnn", rta, _rtnn_run(*p["rtnn"], "ttaplus_opt"), "*rtnn")
    return table


_ACCELERATED = [(v, p) for v in _BTREES for p in ("tta", "ttaplus")]

FIG19_CLAIMS = (
    Claim("btree_saves_energy",
          "TTA and TTA+ spend under 0.95x BASE energy on every B-Tree",
          _named(_ACCELERATED, lambda r: r[5] < 0.95)),
    Claim("btree_saving_plausible",
          "TTA and TTA+ spend over 0.10x BASE energy on every B-Tree",
          _named(_ACCELERATED, lambda r: r[5] > 0.10)),
    Claim("intersection_small",
          "the intersection bucket stays under 0.5 of BASE on every "
          "accelerated run",
          _each(lambda r: r[4] < 0.5,
                where=lambda r: r[1] in ("tta", "ttaplus"))),
    Claim("rtnn_opt_saves", "*RTNN keeps net energy savings",
          _named([("rtnn", "*rtnn")], lambda r: r[5] < 1.0)),
)


# -- Fig. 20: dynamic instruction breakdown ------------------------------------------------
def fig20_instructions(scale: str) -> Table:
    p = params(scale)
    nk, nq = p["btree_main"]
    table = Table(
        "Fig. 20 — dynamically executed warp instructions (normalized)",
        ["workload", "platform", "alu", "control", "sfu", "mem", "tta",
         "total_vs_base"],
    )
    cases = [("btree", lambda pl: _btree_run("btree", nk, nq, pl)),
             ("bstar", lambda pl: _btree_run("bstar", nk, nq, pl)),
             ("bplus", lambda pl: _btree_run("bplus", nk, nq, pl)),
             ("nbody3d", lambda pl: _nbody_run(3, p["nbody_bodies"], pl))]
    reductions = []
    for name, runner in cases:
        base = runner("gpu")
        base_total = base.stats.total_warp_instructions
        for platform in ("gpu", "tta", "ttaplus"):
            run = runner(platform)
            br = run.stats.warp_instructions
            total = run.stats.total_warp_instructions
            table.add_row(name, platform,
                          br.get("alu") / base_total,
                          br.get("control") / base_total,
                          br.get("sfu") / base_total,
                          br.get("mem") / base_total,
                          br.get("tta") / base_total,
                          total / base_total)
            if platform == "tta":
                reductions.append(1.0 - total / base_total)
    table.add_row("mean reduction (tta)", "", float("nan"), float("nan"),
                  float("nan"), float("nan"), float("nan"),
                  sum(reductions) / len(reductions))
    return table


_FIG20_APPS = ("btree", "bstar", "bplus", "nbody3d")

FIG20_CLAIMS = (
    Claim("mean_reduction",
          "TTA eliminates over 80% of dynamic instructions on average "
          "(paper 91%)",
          _named([("mean reduction (tta)",)], lambda r: r[7] > 0.80)),
    Claim("tta_insts_tiny",
          "TTA instructions are under 5% of the baseline total (paper ~2%)",
          _named([(a, "tta") for a in _FIG20_APPS], lambda r: r[6] < 0.05)),
    Claim("baseline_alu_control",
          "the baseline mix is ALU + control, not memory, dominated",
          _named([(a, "gpu") for a in _FIG20_APPS],
                 lambda r: r[2] + r[3] > r[5])),
)


# -- N-Body kernel fusion (§V-A text) --------------------------------------------------
def nbody_fusion(scale: str) -> Table:
    p = params(scale)
    table = Table(
        "§V-A — N-Body traversal/post-processing kernel fusion on TTA+",
        ["config", "speedup_vs_gpu", "paper"],
    )
    post = 120  # post-processing instructions per body (integration etc.)
    base = _nbody_run(3, p["nbody_bodies"], "gpu", fused=post)
    separate = _nbody_run(3, p["nbody_bodies"], "ttaplus", fused=0)
    fused = _nbody_run(3, p["nbody_bodies"], "ttaplus", fused=post)
    # The separate-kernels configuration pays the post-processing serially
    # on the cores after the traversal kernel completes.
    separate_total = separate.cycles + (base.cycles * 0.25)
    table.add_row("TTA+ separate kernels", base.cycles / separate_total, "-")
    table.add_row("TTA+ fused", base.cycles / fused.cycles,
                  str(paper.HEADLINES["nbody_fused_speedup"]))
    return table


NBODY_FUSION_CLAIMS = (
    Claim("fusion_helps", "fused TTA+ kernels beat separate kernels",
          _pair(("TTA+ fused",), ("TTA+ separate kernels",),
                lambda fused, separate: fused[1] > separate[1])),
)


# -- Table I: OP units --------------------------------------------------------------
def table1_opunits(scale: str) -> Table:
    table = Table("Table I — OP units in TTA+",
                  ["unit", "latency(model)", "latency(paper)"])
    for unit in UNIT_TYPES:
        table.add_row(unit, OP_UNIT_LATENCIES[unit], paper.PAPER_TABLE1[unit])
    return table


TABLE1_CLAIMS = (
    Claim("latencies_match", "every OP-unit latency equals the paper's",
          _each(lambda r: r[1] == r[2])),
)


# -- Table III: µop counts ------------------------------------------------------------
def table3_uops(scale: str) -> Table:
    """Regenerated from the registered programs: the same objects the
    TTA+ timing model executes."""
    table = Table(
        "Table III — µops per intersection test",
        ["program", "total(model)", "total(paper)", "unit_histogram"],
    )
    for name, (total, _histogram) in sorted(paper.PAPER_TABLE3.items()):
        program = PROGRAMS[name]
        table.add_row(name, len(program), total, str(program.unit_counts()))
    return table


TABLE3_CLAIMS = (
    Claim("uop_totals", "every program's µop count equals the paper's",
          _each(lambda r: r[1] == r[2])),
    Claim("unit_mix", "every program's per-unit µop mix equals the paper's",
          _each(lambda r: ast.literal_eval(r[3])
                == paper.PAPER_TABLE3[r[0]][1])),
)


# -- Table IV: area -------------------------------------------------------------------
def table4_area(scale: str) -> Table:
    table = Table(
        "Table IV — area comparison (µm², FreePDK45)",
        ["configuration", "total_um2", "vs_baseline_pct", "paper_pct"],
    )
    table.add_row("baseline RTA (one set)", area.baseline_rta_area_um2(),
                  0.0, 0.0)
    no_sqrt = area.ttaplus_area_report(with_sqrt=False)
    table.add_row("TTA+ without SQRT", no_sqrt.total_um2,
                  no_sqrt.vs_baseline_pct, paper.TTAPLUS_AREA_NO_SQRT_PCT)
    with_sqrt = area.ttaplus_area_report(with_sqrt=True)
    table.add_row("TTA+ with SQRT", with_sqrt.total_um2,
                  with_sqrt.vs_baseline_pct, paper.TTAPLUS_AREA_WITH_SQRT_PCT)
    tta = area.tta_area_report()
    table.add_row("TTA (modified Ray-Box)", tta.total_um2,
                  tta.vs_baseline_pct, "<1")
    return table


TABLE4_CLAIMS = (
    Claim("ttaplus_no_sqrt", "TTA+ without SQRT is -10.8 ± 0.1% vs the RTA",
          _named([("TTA+ without SQRT",)],
                 lambda r: abs(r[2] - paper.TTAPLUS_AREA_NO_SQRT_PCT) <= 0.1)),
    Claim("ttaplus_with_sqrt", "TTA+ with SQRT is +36.4 ± 0.1% vs the RTA",
          _named([("TTA+ with SQRT",)],
                 lambda r: abs(r[2] - paper.TTAPLUS_AREA_WITH_SQRT_PCT)
                 <= 0.1)),
    Claim("tta_under_one_pct", "TTA adds under 1% to the RTA's area",
          _named([("TTA (modified Ray-Box)",)], lambda r: 0 < r[2] < 1.0)),
    Claim("tta_ray_box_delta",
          "TTA's modified Ray-Box unit is +1.8 ± 0.05% of that unit",
          _named([("TTA (modified Ray-Box)",)],
                 lambda r: abs(area.tta_ray_box_overhead_pct()
                               - paper.TTA_RAY_BOX_AREA_INCREASE_PCT)
                 <= 0.05)),
)


# -- Extension: spatial indexes ---------------------------------------------------------
def ext_spatial(scale: str) -> Table:
    """R-Tree range queries and k-d tree kNN on TTA/TTA+: structures the
    paper's introduction names but does not evaluate (§II-C generality)."""
    n_items, n_queries = params(scale)["spatial"]
    table = Table(
        "Extension — spatial indexes on TTA/TTA+ (speedup vs GPU)",
        ["workload", "tta", "ttaplus", "simt_eff(gpu)", "dram(gpu)",
         "dram(tta)"],
    )
    for name, kind, workload in (
            ("rtree-range", "rtree",
             dict(n_rects=n_items, n_queries=n_queries, seed=7)),
            ("kdtree-knn", "knn",
             dict(n_points=n_items, n_queries=n_queries, k=8, seed=8))):
        base, tta, tp = (_run(kind, workload, platform)
                         for platform in ("gpu", "tta", "ttaplus"))
        table.add_row(name, tta.speedup_over(base), tp.speedup_over(base),
                      base.simt_efficiency, base.dram_utilization,
                      tta.dram_utilization)
    return table


EXT_SPATIAL_CLAIMS = (
    Claim("tta_wins", "TTA beats the GPU on both indexes",
          _each(lambda r: r[1] > 1.0)),
    Claim("tta_raises_dram", "TTA raises DRAM utilization on both indexes",
          _each(lambda r: r[5] > r[4])),
)


# -- Extension: B+Tree range scans (negative control) -----------------------------------
def ext_rangescan(scale: str) -> Table:
    """TTA accelerates the descent to the first qualifying leaf; the
    leaf-chain scan itself streams on the SIMT cores, so the speedup
    dilutes toward 1x as the range widens.

    There is no runner kind for range scans, so the launches run here
    directly rather than through the execution service.
    """
    from repro.kernels.range_scan import (
        RangeScanKernelArgs,
        build_range_scan_jobs,
        range_scan_accel_kernel,
        range_scan_baseline_kernel,
    )
    from repro.memsys.memory_image import AddressSpace
    from repro.rta.rta import make_rta_factory
    from repro.trees import BPlusTree

    n_keys, n_ranges = params(scale)["rangescan"]
    rng = random.Random(11)
    keys = sorted(rng.sample(range(n_keys * 4), n_keys))
    tree = BPlusTree.bulk_load(keys, seed=11)
    space = AddressSpace()
    space.place_tree(tree.nodes())
    cfg = scaled_config_for(len(tree.nodes()) * 64)
    table = Table(
        "Extension — B+Tree range scans (descent offloaded to TTA)",
        ["range_width", "avg_results", "gpu_cycles", "tta_speedup"],
    )
    for width in (8, 128, 2048):
        ranges = []
        for _ in range(n_ranges):
            lo = rng.randrange(n_keys * 4)
            ranges.append((lo, lo + width))
        avg = sum(len(tree.range_scan(lo, hi))
                  for lo, hi in ranges[:32]) / 32

        def args():
            return RangeScanKernelArgs(
                tree=tree, ranges=ranges,
                query_buf=space.alloc(8 * n_ranges, align=128),
                result_buf=space.alloc(4 * n_ranges, align=128))

        base = GPU(cfg).launch(range_scan_baseline_kernel, n_ranges,
                               args=args())
        accel_args = args()
        accel_args.jobs = build_range_scan_jobs(tree, ranges)
        accel = GPU(cfg, accelerator_factory=make_rta_factory(
            tta=True)).launch(range_scan_accel_kernel, n_ranges,
                              args=accel_args)
        table.add_row(width, avg, base.cycles, base.cycles / accel.cycles)
    return table


EXT_RANGESCAN_CLAIMS = (
    Claim("near_parity",
          "offloading only the descent stays within 0.7-1.6x at every "
          "width",
          _each(lambda r: 0.7 < r[3] < 1.6)),
    Claim("dilutes_with_width",
          "the widest range gains no more than the narrowest (+0.05)",
          lambda t: [] if t.rows[-1][3] <= t.rows[0][3] + 0.05
          else [t.rows[-1], t.rows[0]]),
)


# -- Ablation: TTA+ design knobs --------------------------------------------------------
def ablation_ttaplus(scale: str) -> Table:
    """The knobs §V-A/§V-C2 defer to future work, swept on the B-Tree:
    parallel OP-unit sets, interconnect cost, and treelet prefetch."""
    nk, nq = params(scale)["btree_main"]
    base = _btree_run("btree", nk, nq, "gpu")
    table = Table(
        "Ablation — TTA+ OP-unit sets, interconnect, prefetch (B-Tree)",
        ["knob", "value", "cycles", "speedup_vs_gpu"],
    )

    def add(knob, value, **knobs):
        run = _btree_run("btree", nk, nq, "ttaplus",
                         ttaplus_knobs=knobs or None)
        table.add_row(knob, value, run.cycles, base.cycles / run.cycles)

    for sets in (1, 2, 4):
        add("op_unit_sets", sets,
            copies={unit: sets for unit in OP_UNIT_LATENCIES})
    add("interconnect", "default")
    add("interconnect", "perfect_icnt", perfect_icnt=True)
    for depth in (0, 1, 2):
        add("prefetch_depth", depth, prefetch_depth=depth)
    return table


ABLATION_TTAPLUS_CLAIMS = (
    Claim("more_sets_never_hurt", "4 OP-unit sets take no more cycles than 1",
          _pair(("op_unit_sets", 4), ("op_unit_sets", 1),
                lambda four, one: four[2] <= one[2])),
    Claim("free_icnt_helps",
          "a perfect interconnect takes no more cycles than the default",
          _pair(("interconnect", "perfect_icnt"), ("interconnect", "default"),
                lambda free, default: free[2] <= default[2])),
    Claim("prefetch_hides_latency",
          "prefetch depth 1 takes at most 1.02x the cycles of depth 0",
          _pair(("prefetch_depth", 1), ("prefetch_depth", 0),
                lambda one, zero: one[2] <= zero[2] * 1.02)),
)


# -- the registry ---------------------------------------------------------------------
EXPERIMENTS: Dict[str, Experiment] = {
    "fig01": Experiment(
        fig01_motivation,
        "SIMT efficiency and DRAM bandwidth utilization (motivation)",
        FIG01_CLAIMS),
    "fig06": Experiment(fig06_roofline,
                        "roofline placement of tree-traversal workloads",
                        FIG06_CLAIMS),
    "fig12": Experiment(fig12_speedup,
                        "speedups of TTA/TTA+ over the baselines",
                        FIG12_CLAIMS, key=2),
    "fig13": Experiment(fig13_dram, "DRAM bandwidth utilization per platform",
                        FIG13_CLAIMS),
    "fig14": Experiment(
        fig14_sensitivity,
        "TTA sensitivity: warp buffer size, intersection latency",
        FIG14_CLAIMS, key=3),
    "fig15": Experiment(fig15_unit_util,
                        "TTA intersection-unit concurrency (avg/peak)",
                        FIG15_CLAIMS, key=2),
    "fig16": Experiment(fig16_lumibench,
                        "LumiBench + WKND_PT on TTA+ vs baseline RTA",
                        FIG16_CLAIMS),
    "fig17": Experiment(fig17_limit_study,
                        "WKND_PT limit study (perfect RT / perfect memory)",
                        FIG17_CLAIMS),
    "fig18": Experiment(fig18_opunits,
                        "TTA+ OP-unit utilization and intersection latency",
                        FIG18_CLAIMS, key=3),
    "fig19": Experiment(fig19_energy, "energy normalized to the baseline GPU",
                        FIG19_CLAIMS, key=2),
    "fig20": Experiment(fig20_instructions,
                        "dynamic instruction breakdown (91% eliminated)",
                        FIG20_CLAIMS, key=2),
    "nbody_fusion": Experiment(nbody_fusion,
                               "N-Body kernel-fusion optimization (§V-A)",
                               NBODY_FUSION_CLAIMS),
    "table1": Experiment(table1_opunits, "TTA+ OP-unit latencies (Table I)",
                         TABLE1_CLAIMS),
    "table3": Experiment(table3_uops,
                         "µops per intersection test (Table III)",
                         TABLE3_CLAIMS),
    "table4": Experiment(table4_area,
                         "area of baseline RTA vs TTA+ and TTA (Table IV)",
                         TABLE4_CLAIMS),
    "ext_spatial": Experiment(
        ext_spatial, "extension: R-Tree range and k-d kNN on TTA/TTA+",
        EXT_SPATIAL_CLAIMS),
    "ext_rangescan": Experiment(
        ext_rangescan,
        "extension: B+Tree range scans, a negative control",
        EXT_RANGESCAN_CLAIMS),
    "ablation_ttaplus": Experiment(
        ablation_ttaplus,
        "ablation: TTA+ OP-unit sets, interconnect, prefetch",
        ABLATION_TTAPLUS_CLAIMS, key=2),
}
