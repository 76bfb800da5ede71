"""Platform runners: execute one workload on one hardware design point.

Platforms:

=============  =====================================================
``gpu``        baseline GPU, traversal on the SIMT cores (no accel)
``rta``        unmodified RTA (ray workloads / RTNN only)
``tta``        the fixed-function extension (Query-Key, Point-to-Point)
``ttaplus``    the modular µop design (naive port)
``ttaplus_opt``TTA+ with the programmability-enabled optimization
               (*RTNN leaf offload, *WKND_PT Ray-Sphere, *SHIP_SH SATO)
=============  =====================================================

Every run *verifies functional results against the workload's golden
reference* before returning timing — a run that computes wrong answers
never produces a data point.
"""

from dataclasses import dataclass, field as dc_field
from typing import Any, Dict, Optional

from repro.core.ttaplus import make_ttaplus_factory
from repro.energy.model import EnergyBreakdown, energy_report
from repro.errors import ConfigurationError
from repro.gpu import GPU, GPUConfig, KernelStats
from repro.gpu.config import DEFAULT_CONFIG
from repro.kernels.btree_search import (
    btree_accel_kernel,
    btree_baseline_kernel,
)
from repro.kernels.nbody_walk import nbody_accel_kernel, nbody_baseline_kernel
from repro.kernels.radius_search import (
    radius_accel_kernel,
    radius_baseline_kernel,
)
from repro.kernels.ray_trace import rt_accel_kernel, rt_baseline_kernel
from repro.obs import EMPTY_METRICS
from repro.rta.rta import make_rta_factory
from repro.workloads.btree_workload import BTreeWorkload, verify_results
from repro.workloads.lumibench import LumiWorkload
from repro.workloads.nbody import NBodyWorkload
from repro.workloads.rtnn import RTNNWorkload
from repro.workloads.wknd import WKNDWorkload


@dataclass
class RunResult:
    """One (workload, platform) data point."""

    workload: str
    platform: str
    stats: KernelStats
    energy: EnergyBreakdown
    notes: Dict[str, Any] = dc_field(default_factory=dict)

    @property
    def cycles(self) -> float:
        return self.stats.cycles

    @property
    def simt_efficiency(self) -> float:
        return self.stats.simt_efficiency

    @property
    def dram_utilization(self) -> float:
        return self.stats.dram_utilization

    @property
    def metrics(self):
        """The launch's :class:`repro.obs.MetricsSnapshot`.

        Results unpickled from a cache entry written before the metrics
        registry existed fall back to the shared empty snapshot.
        """
        snapshot = getattr(self.stats, "metrics", None)
        return snapshot if snapshot is not None else EMPTY_METRICS

    def metric(self, name: str, default: float = 0.0) -> float:
        """One scalar from the metrics registry (``repro.obs``)."""
        return self.metrics.get(name, default)

    def speedup_over(self, baseline: "RunResult") -> float:
        return baseline.cycles / self.cycles if self.cycles else 0.0


def scaled_config_for(data_bytes: int,
                      base: GPUConfig = DEFAULT_CONFIG,
                      pressure: float = 10.0) -> GPUConfig:
    """Shrink caches so a scaled workload pressures them like the paper's.

    The paper's largest trees (4M keys, ~32MB) exceed the 3MB L2 by
    ~10x; ``pressure`` sets the target data:L2 ratio for the scaled
    workload.  Sizes are clamped to valid cache geometries.
    """
    if data_bytes <= 0:
        raise ConfigurationError("data_bytes must be positive")
    line = base.line_size
    l2_floor = 16 * base.l2_assoc * line          # 16 sets minimum
    l2_size = max(l2_floor, int(data_bytes / pressure))
    l2_size = min(l2_size, base.l2_size)
    # Round to a whole number of sets.
    set_bytes = base.l2_assoc * line
    l2_size = (l2_size // set_bytes) * set_bytes
    l1_size = max(4 * line, min(base.l1_size, l2_size // 4))
    l1_size = (l1_size // line) * line
    return base.with_overrides(l1_size=l1_size, l2_size=l2_size)


# -- B-Tree family -------------------------------------------------------------------
def run_btree(workload: BTreeWorkload, platform: str,
              config: Optional[GPUConfig] = None,
              verify: bool = True,
              tta_latency_overrides: Optional[Dict[str, int]] = None
              ) -> RunResult:
    """``tta_latency_overrides`` adjusts fixed-function intersection
    latencies on the ``tta`` platform (Fig. 14's sensitivity knob)."""
    config = config if config is not None else scaled_config_for(
        workload.image.size_bytes)
    name = f"{workload.variant}/{workload.n_queries}q"
    if tta_latency_overrides and platform != "tta":
        raise ConfigurationError(
            "tta_latency_overrides only applies to the tta platform"
        )
    if platform == "gpu":
        gpu = GPU(config)
        args = workload.kernel_args()
        stats = gpu.launch(btree_baseline_kernel, workload.n_queries,
                           args=args)
    elif platform in ("tta", "ttaplus"):
        factory = (make_rta_factory(
                       tta=True, latency_overrides=tta_latency_overrides)
                   if platform == "tta" else make_ttaplus_factory())
        gpu = GPU(config, accelerator_factory=factory)
        args = workload.kernel_args(jobs=workload.jobs(platform))
        stats = gpu.launch(btree_accel_kernel, workload.n_queries, args=args)
    else:
        raise ConfigurationError(
            f"B-Tree runs on gpu/tta/ttaplus, not {platform!r}"
        )
    if verify:
        verify_results(workload, args.results)
    return RunResult(name, platform, stats, energy_report(stats, config))


# -- N-Body ---------------------------------------------------------------------------
def run_nbody(workload: NBodyWorkload, platform: str,
              config: Optional[GPUConfig] = None,
              fused_post_insts: int = 0, verify: bool = True) -> RunResult:
    config = config if config is not None else scaled_config_for(
        workload.image.size_bytes)
    name = f"nbody{workload.dims}d/{workload.n_bodies}"
    if platform == "gpu":
        gpu = GPU(config)
        args = workload.kernel_args(fused_post_insts=fused_post_insts)
        stats = gpu.launch(nbody_baseline_kernel, workload.n_bodies,
                           args=args)
    elif platform in ("tta", "ttaplus"):
        factory = (make_rta_factory(tta=True) if platform == "tta"
                   else make_ttaplus_factory())
        gpu = GPU(config, accelerator_factory=factory)
        jobs, interactions = workload.jobs(platform)
        args = workload.kernel_args(jobs=jobs, interactions=interactions,
                                    fused_post_insts=fused_post_insts)
        stats = gpu.launch(nbody_accel_kernel, workload.n_bodies, args=args)
    else:
        raise ConfigurationError(
            f"N-Body runs on gpu/tta/ttaplus, not {platform!r}"
        )
    if verify:
        _verify_nbody(workload, args.results)
    return RunResult(name, platform, stats, energy_report(stats, config),
                     notes={"fused_post_insts": fused_post_insts})


def _verify_nbody(workload: NBodyWorkload, results: Dict[int, Any]) -> None:
    """Sampled bodies must match a fresh scalar walk component for
    component (the kernels read the array walk; see ``force_on``)."""
    assert len(results) == workload.n_bodies
    tree = workload.tree
    for tid in range(0, workload.n_bodies, max(1, workload.n_bodies // 16)):
        expected = tree.force_on(tree.bodies[tid]).acceleration
        got = results[tid]
        assert got == expected, (
            f"body {tid}: force mismatch ({got!r} != {expected!r})"
        )


# -- RTNN radius search ------------------------------------------------------------
_RTNN_PLATFORMS = ("gpu", "rta", "tta", "ttaplus", "ttaplus_opt")


def run_rtnn(workload: RTNNWorkload, platform: str,
             config: Optional[GPUConfig] = None,
             verify: bool = True) -> RunResult:
    config = config if config is not None else scaled_config_for(
        workload.image.size_bytes)
    name = f"rtnn/{len(workload.points)}pts"
    if platform not in _RTNN_PLATFORMS:
        raise ConfigurationError(
            f"RTNN platform must be one of {_RTNN_PLATFORMS}"
        )
    if platform == "gpu":
        gpu = GPU(config)
        args = workload.kernel_args()
        stats = gpu.launch(radius_baseline_kernel, workload.n_queries,
                           args=args)
    else:
        factory = {
            "rta": make_rta_factory(tta=False),
            "tta": make_rta_factory(tta=True),
            "ttaplus": make_ttaplus_factory(),
            "ttaplus_opt": make_ttaplus_factory(),
        }[platform]
        gpu = GPU(config, accelerator_factory=factory)
        args = workload.kernel_args(jobs=workload.jobs(platform))
        stats = gpu.launch(radius_accel_kernel, workload.n_queries,
                           args=args)
    if verify:
        _verify_rtnn(workload, args.results)
    return RunResult(name, platform, stats, energy_report(stats, config))


def _verify_rtnn(workload: RTNNWorkload, results: Dict[int, Any]) -> None:
    assert len(results) == workload.n_queries
    step = max(1, workload.n_queries // 8)
    for tid in range(0, workload.n_queries, step):
        expected = workload.golden(workload.queries[tid])
        assert tuple(sorted(results[tid])) == expected, (
            f"query {tid}: neighbor set mismatch"
        )


# -- R-Tree range queries (spatial-index extension) -----------------------------------
def run_rtree(workload, platform: str,
              config: Optional[GPUConfig] = None,
              verify: bool = True) -> RunResult:
    from repro.kernels.rtree_query import (
        rtree_accel_kernel,
        rtree_baseline_kernel,
    )

    config = config if config is not None else scaled_config_for(
        workload.image.size_bytes)
    name = f"rtree/{workload.n_queries}q"
    if platform == "gpu":
        gpu = GPU(config)
        args = workload.kernel_args()
        stats = gpu.launch(rtree_baseline_kernel, workload.n_queries,
                           args=args)
    elif platform in ("tta", "ttaplus"):
        factory = (make_rta_factory(tta=True) if platform == "tta"
                   else make_ttaplus_factory())
        gpu = GPU(config, accelerator_factory=factory)
        args = workload.kernel_args(jobs=workload.jobs(platform))
        stats = gpu.launch(rtree_accel_kernel, workload.n_queries, args=args)
    else:
        raise ConfigurationError(
            f"R-Tree runs on gpu/tta/ttaplus, not {platform!r}"
        )
    if verify:
        step = max(1, workload.n_queries // 8)
        for tid in range(0, workload.n_queries, step):
            expected = workload.golden(workload.windows[tid])
            assert tuple(sorted(args.results[tid])) == expected, (
                f"query {tid}: range-query result mismatch"
            )
    return RunResult(name, platform, stats, energy_report(stats, config))


# -- kNN search (k-d tree extension) ---------------------------------------------------
def run_knn(workload, platform: str,
            config: Optional[GPUConfig] = None,
            verify: bool = True) -> RunResult:
    from repro.kernels.knn_search import knn_accel_kernel, knn_baseline_kernel

    config = config if config is not None else scaled_config_for(
        workload.image.size_bytes)
    name = f"knn{workload.k}/{workload.n_queries}q"
    if platform == "gpu":
        gpu = GPU(config)
        args = workload.kernel_args()
        stats = gpu.launch(knn_baseline_kernel, workload.n_queries,
                           args=args)
    elif platform in ("tta", "ttaplus"):
        factory = (make_rta_factory(tta=True) if platform == "tta"
                   else make_ttaplus_factory())
        gpu = GPU(config, accelerator_factory=factory)
        args = workload.kernel_args(jobs=workload.jobs(platform))
        stats = gpu.launch(knn_accel_kernel, workload.n_queries, args=args)
    else:
        raise ConfigurationError(
            f"kNN runs on gpu/tta/ttaplus, not {platform!r}"
        )
    if verify:
        step = max(1, workload.n_queries // 8)
        for tid in range(0, workload.n_queries, step):
            got = args.results[tid]
            expected = workload.golden(workload.queries[tid])
            # Distance ties may order differently; compare distances.
            q = workload.queries[tid]
            pts = workload.tree.points
            got_d = sorted((pts[i] - q).length_squared() for i in got)
            exp_d = sorted((pts[i] - q).length_squared() for i in expected)
            assert all(abs(a - b) < 1e-9 for a, b in zip(got_d, exp_d)), (
                f"query {tid}: kNN distances mismatch"
            )
    return RunResult(name, platform, stats, energy_report(stats, config))


# -- ray tracing (LumiBench + WKND) ---------------------------------------------------
def run_lumibench(workload: LumiWorkload, platform: str,
                  config: Optional[GPUConfig] = None) -> RunResult:
    config = config if config is not None else DEFAULT_CONFIG
    sato = False
    if platform == "gpu":
        gpu = GPU(config)
        args = workload.kernel_args(flavor="rta")  # visits reused
        stats = gpu.launch(rt_baseline_kernel, workload.n_rays, args=args)
        return RunResult(workload.name, platform, stats,
                         energy_report(stats, config))
    if platform == "rta":
        factory, flavor = make_rta_factory(tta=False), "rta"
    elif platform == "ttaplus":
        factory, flavor = make_ttaplus_factory(), "ttaplus"
    elif platform == "ttaplus_opt":
        factory, flavor = make_ttaplus_factory(), "ttaplus"
        sato = True
    else:
        raise ConfigurationError(
            f"LumiBench runs on gpu/rta/ttaplus/ttaplus_opt, not {platform!r}"
        )
    gpu = GPU(config, accelerator_factory=factory)
    args = workload.kernel_args(flavor=flavor, sato=sato)
    stats = gpu.launch(rt_accel_kernel, workload.n_rays, args=args)
    return RunResult(workload.name + ("*" if sato else ""), platform, stats,
                     energy_report(stats, config))


def run_wknd(workload: WKNDWorkload, platform: str,
             config: Optional[GPUConfig] = None,
             perfect_node_fetch: bool = False,
             perfect_mem: bool = False) -> RunResult:
    """WKND_PT: sphere geometry; platform selects the leaf-test path.

    ``perfect_node_fetch`` / ``perfect_mem`` implement the Fig. 17 limit
    study (Perf. RT and Perf. Mem).
    """
    config = config if config is not None else DEFAULT_CONFIG
    if perfect_mem:
        config = config.with_overrides(
            l1_latency=0, l2_latency=0, dram_latency=0,
            dram_bytes_per_cycle=1e9, l2_bytes_per_cycle=1e9)
    if platform == "rta":
        factory, flavor = make_rta_factory(tta=False), "rta"
    elif platform == "ttaplus":
        factory = make_ttaplus_factory(perfect_node_fetch=perfect_node_fetch)
        flavor = "ttaplus"
    elif platform == "ttaplus_opt":
        factory = make_ttaplus_factory(perfect_node_fetch=perfect_node_fetch)
        flavor = "ttaplus_opt"
    else:
        raise ConfigurationError(
            f"WKND_PT runs on rta/ttaplus/ttaplus_opt, not {platform!r}"
        )
    gpu = GPU(config, accelerator_factory=factory)
    args = workload.kernel_args(flavor=flavor)
    stats = gpu.launch(rt_accel_kernel, workload.n_rays, args=args)
    name = "*WKND_PT" if platform == "ttaplus_opt" else "WKND_PT"
    return RunResult(name, platform, stats, energy_report(stats, config),
                     notes={"perfect_node_fetch": perfect_node_fetch,
                            "perfect_mem": perfect_mem})


# -- spec execution (repro.exec worker entry point) -----------------------------------
#
# The execution service ships :class:`repro.exec.spec.RunSpec` objects
# — pure data — to worker processes; this section turns a spec back
# into (workload, config, runner call).  Workload construction is
# memoized per process so a worker executing several points of the same
# sweep builds each tree once, mirroring the old in-process cache in
# ``harness.experiments``.

def _workload_factories() -> Dict[str, Any]:
    from repro.workloads import (
        make_btree_workload,
        make_knn_workload,
        make_lumibench_workload,
        make_nbody_workload,
        make_rtnn_workload,
        make_rtree_workload,
        make_wknd_workload,
    )

    return {
        "btree": make_btree_workload,
        "nbody": make_nbody_workload,
        "rtnn": make_rtnn_workload,
        "wknd": make_wknd_workload,
        "lumi": make_lumibench_workload,
        "rtree": make_rtree_workload,
        "knn": make_knn_workload,
    }


_SPEC_RUNNERS: Dict[str, Any] = {}
_WORKLOAD_CACHE: Dict[Any, Any] = {}


def build_workload(kind: str, params: Dict[str, Any]):
    """Construct (or reuse) the workload a spec describes."""
    factories = _workload_factories()
    if kind not in factories:
        raise ConfigurationError(
            f"no workload factory for kind {kind!r}; "
            f"known: {sorted(factories)}"
        )
    key = (kind, tuple(sorted(params.items())))
    if key not in _WORKLOAD_CACHE:
        _WORKLOAD_CACHE[key] = factories[kind](**params)
    return _WORKLOAD_CACHE[key]


def clear_workload_cache() -> None:
    _WORKLOAD_CACHE.clear()


def resolve_config(policy: Optional[Dict[str, Any]],
                   workload) -> Optional[GPUConfig]:
    """Turn a spec's config *policy* into a concrete :class:`GPUConfig`.

    ``None`` defers to the runner's own default (the scaled policy for
    the CUDA workloads, ``DEFAULT_CONFIG`` for ray tracing).  Policies
    are resolved here — next to the built workload — because the scaled
    policy depends on the workload's memory footprint.
    """
    if policy is None:
        return None
    policy = dict(policy)
    name = policy.pop("policy", "scaled")
    overrides = policy.pop("overrides", None) or {}
    if name == "scaled":
        pressure = policy.pop("pressure", 10.0)
        config = scaled_config_for(workload.image.size_bytes,
                                   pressure=pressure)
    elif name == "default":
        config = DEFAULT_CONFIG
    else:
        raise ConfigurationError(
            f"unknown config policy {name!r} (scaled/default)"
        )
    if policy:
        raise ConfigurationError(
            f"unrecognized config policy fields: {sorted(policy)}"
        )
    return config.with_overrides(**overrides) if overrides else config


def execute_spec(spec) -> RunResult:
    """Execute one :class:`repro.exec.spec.RunSpec` end to end.

    This is the function worker processes run.  Verification against
    golden references happens inside the ``run_*`` runner exactly as on
    the serial path — a parallel run can never return an unverified
    data point.
    """
    if not _SPEC_RUNNERS:
        _SPEC_RUNNERS.update({
            "btree": run_btree,
            "nbody": run_nbody,
            "rtnn": run_rtnn,
            "wknd": run_wknd,
            "lumi": run_lumibench,
            "rtree": run_rtree,
            "knn": run_knn,
        })
    workload = build_workload(spec.kind, spec.workload)
    config = resolve_config(spec.config, workload)
    return _SPEC_RUNNERS[spec.kind](workload, spec.platform, config=config,
                                    **spec.run_kwargs)
