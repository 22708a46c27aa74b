"""Metric definitions shared by the runner and the tracer.

END_TO_END and PER_LAYER must match BENCHMARK.json.  Each per-layer
metric names the end-to-end metric it should move and the workload on
which it should move it, written down before any optimisation (the
per-layer -> end-to-end -> workload map); the traced report prints it
next to the value.  `_s` per-layer metrics are self time: span time
minus the time of child spans.
"""

END_TO_END = {
    # name: (unit, better)
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "verdict_p50_s": ("s", "lower"),
    "verdict_tail_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "decided_frac": ("ratio", "higher"),
    "sound_frac": ("ratio", "higher"),
}

_CLI_P50 = "verdict_p50_s on cli-cold"
_CLI_WALL_TAIL = "wall_s, verdict_tail_s on cli-cold"
_REG_BUILD = ("verdict_tail_s, peak_rss_mb on regular-sweep"
              " (and the regular member slice of cli-cold)")
_REG_WALL = "wall_s on regular-sweep"
_GEN_WALL = "wall_s on general-enumerate"
_PREP = "wall_s on regular-sweep (query preparation), general-enumerate"

PER_LAYER = {
    # name: (unit, better, should move)
    "cli.self_s": ("s", "lower", _CLI_P50),
    "cli.commands": ("count", "lower", _CLI_P50),
    "grammar.parse_s": ("s", "lower", _CLI_P50),
    "grammar.normalize_s": ("s", "lower", _CLI_P50),
    "grammar.transitions_from_calls": ("count", "lower", _CLI_WALL_TAIL),
    "grammar.transitions_from_s": ("s", "lower", _CLI_WALL_TAIL),
    "vector.vec_constructed": ("count", "lower", "wall_s on general-enumerate, cli-cold"),
    "membership.oracle_s": ("s", "lower", _CLI_WALL_TAIL),
    "membership.oracle_calls": ("count", "lower", _CLI_WALL_TAIL),
    "membership.oracle_vectors": ("count", "lower", _CLI_WALL_TAIL),
    "membership.regular_build_s": ("s", "lower", _REG_BUILD),
    "membership.regular_builds": ("count", "lower", _REG_BUILD),
    "membership.regular_query_s": ("s", "lower", _REG_WALL),
    "membership.regular_queries": ("count", "lower", _REG_WALL),
    "membership.regular_hits": ("count", "higher", _REG_WALL),
    "membership.general_build_s": ("s", "lower", _GEN_WALL),
    "membership.general_query_s": ("s", "lower", _GEN_WALL),
    "membership.general_hits": ("count", "higher", _GEN_WALL),
    "runs.enumerate_runs_s": ("s", "lower", _GEN_WALL),
    "runs.runs_found": ("count", "higher", _GEN_WALL),
    "runs.enumerate_capped": ("count", "lower", _GEN_WALL),
    "runs.simple_cycles_s": ("s", "lower", _GEN_WALL),
    "runs.simple_cycles_found": ("count", "higher", _GEN_WALL),
    "runs.is_run_calls": ("count", "lower", _GEN_WALL),
    "runs.order_s": ("s", "lower", _GEN_WALL),
    "decomposition.decompose_s": ("s", "lower", "verdict_tail_s on general-enumerate"),
    "decomposition.cycle_terms": ("count", "higher", "verdict_tail_s on general-enumerate"),
    "intlinalg.independence_checks": ("count", "lower", _PREP),
    "intlinalg.independence_s": ("s", "lower", _PREP),
    "intlinalg.nonneg_solves": ("count", "lower", _GEN_WALL),
    "intlinalg.nonneg_solve_hits": ("count", "higher", _GEN_WALL),
    "intlinalg.determinants": ("count", "lower", _GEN_WALL),
    "windows.sweep_s": ("s", "lower", _REG_WALL),
    "windows.points": ("count", "lower", _REG_WALL),
    "bundles.two_letter_s": ("s", "lower", _GEN_WALL),
    "bundles.bundles_found": ("count", "higher", _GEN_WALL),
    "semilinear.linear_member_calls": ("count", "lower", _GEN_WALL),
    "trace.overhead_s": ("s", "lower", "nothing: traced minus untraced median wall_s"),
}
