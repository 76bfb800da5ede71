"""Paper-reported values: printed beside the measured ones in the figure
tables, and read by the tables' claims (:mod:`repro.harness.experiments`).

Values marked "(read)" are approximate readings of the paper's figures
(the paper publishes figures, not tables, for most results); headline
numbers come from the abstract and §V text.
"""

# -- headline claims (§ abstract, §V) ---------------------------------------
HEADLINES = {
    "btree_speedup_max": 5.4,          # "up to 5.4x speedup for B-Tree search"
    "btree_family_speedup_geomean": 2.4,
    "nbody_speedup_range": (1.1, 1.7),
    "nbody_fused_speedup": 1.9,        # merged traversal+post kernels, TTA+
    "rtnn_tta_speedup_max": 1.4,       # shader -> TTA point-to-point
    "rtnn_ttaplus_opt_speedup_max": 1.4,
    "lumibench_ttaplus_slowdown": 0.92,  # 8% mean slowdown
    "wknd_opt_improvement": 1.22,      # *WKND_PT over naive TTA+ port
    "instruction_reduction": 0.91,     # dynamic instructions eliminated
    "tta_instruction_share": 0.02,     # TTA insns of total dynamic insns
    "energy_reduction_range": (0.15, 0.62),
    "ray_tracing_individual_speedup": 1.2,
}

# -- Fig. 1 (read): SIMT efficiency / DRAM bandwidth utilization -----------------
FIG1_SIMT_EFFICIENCY = {
    "btree": 0.35, "bstar": 0.35, "bplus": 0.55,
    "nbody2d": 0.85, "nbody3d": 0.85,
}
FIG1_DRAM_UTIL_GPU = {
    "btree": 0.20, "bstar": 0.20, "bplus": 0.25,
    "nbody2d": 0.05, "nbody3d": 0.07,
}
FIG1_DRAM_UTIL_TTA = {
    "btree": 0.45, "bstar": 0.45, "bplus": 0.50,
    "nbody2d": 0.12, "nbody3d": 0.15,
}

# -- Fig. 12 (read): per-application speedups over the baseline ---------------------
FIG12_SPEEDUP_TTA = {
    "btree": (1.5, 5.4), "bstar": (1.5, 5.0), "bplus": (1.2, 3.0),
    "nbody2d": (1.3, 1.7), "nbody3d": (1.1, 1.4),
}
FIG12_RT_SPEEDUP_OVER_RTA = {
    "rtnn_tta": (1.1, 1.4),
    "rtnn_ttaplus_naive": (0.7, 1.0),   # slowdown
    "rtnn_ttaplus_opt": (1.0, 1.4),
}

# -- Fig. 14 (text): sensitivity --------------------------------------------------
FIG14 = {
    "saturation_warps": 8,
    "btree_speedup_at_10x_latency": 2.25,
    "bstar_speedup_at_10x_latency": 2.45,
}

# -- Fig. 18 (text): TTA+ latency -------------------------------------------------
FIG18_RAYBOX_LATENCY_FACTOR = 10.0   # "increasing by nearly 10x"

# -- Fig. 19 (text) -----------------------------------------------------------------
FIG19_BTREE_ENERGY_SAVINGS = (0.15, 0.62)
FIG19_RT_OPT_ENERGY_SAVINGS = (0.19, 0.29)

# -- Table I: OP-unit latencies (cycles) ------------------------------------------
PAPER_TABLE1 = {
    "vec3_addsub": 4, "mul": 4, "rcp": 4, "cross": 5, "dot": 5,
    "vec3_cmp": 1, "minmax": 1, "maxmin": 1, "logical": 1, "sqrt": 11,
    "rxform": 4,
}

# -- Table III: program -> (total µops, per-unit histogram) ----------------------
PAPER_TABLE3 = {
    "btree_inner": (12, {"minmax": 3, "maxmin": 3, "vec3_cmp": 3,
                         "logical": 3}),
    "btree_leaf": (3, {"vec3_cmp": 3}),
    "nbody_inner": (3, {"vec3_addsub": 1, "dot": 1, "vec3_cmp": 1}),
    "nbody_leaf": (5, {"mul": 3, "sqrt": 1, "rxform": 1}),
    "raybox": (19, {"vec3_addsub": 2, "mul": 6, "rcp": 3, "minmax": 3,
                    "maxmin": 3, "vec3_cmp": 1, "logical": 1}),
    "rtnn_leaf": (5, {"vec3_addsub": 1, "mul": 1, "dot": 1, "vec3_cmp": 1,
                      "logical": 1}),
    "raysphere": (18, {"vec3_addsub": 5, "mul": 5, "sqrt": 1, "rcp": 1,
                       "dot": 3, "vec3_cmp": 2, "logical": 1}),
    "raytri": (17, {"vec3_addsub": 3, "mul": 3, "rcp": 1, "cross": 2,
                    "dot": 4, "vec3_cmp": 2, "logical": 2}),
}

# -- §V-C1 / Table IV ------------------------------------------------------------
TTA_RAY_BOX_AREA_INCREASE_PCT = 1.8
TTA_RAY_BOX_POWER_INCREASE_PCT = 0.7
TTAPLUS_AREA_NO_SQRT_PCT = -10.8
TTAPLUS_AREA_WITH_SQRT_PCT = 36.4
