"""What each workload is for, where each layer metric should show, and the
known defects the timed operations stay clear of.

``BENCHMARK.json`` has a fixed set of keys, so the longer reasoning lives
here; ``run.py`` prints it beside the numbers it explains.
"""

WORKLOADS = {
    "sp_solve": {
        "ops": "for n in 400, 800: gen sp-profile --ties, solve --trace, verify",
        "why": "The paper's polynomial domain: complete narcissistic single-peaked "
               "profiles solved greedily.",
        "loads": "formats (parse and serialize, about 85% of solve), instances, "
                 "model, stability.find_blocking_pairs",
        "bypasses": "greedy is about 2% of solve; structure and the exhaustive "
                    "search are not called",
    },
    "axis_check": {
        "ops": "check --order on: tied n=150 on the true axis (yes); strict n=150 "
               "with one adjacent axis swap (no, with witnesses); four tied n=28 "
               "with the middle axis pair swapped (exact tie-resolution search), "
               "each drawn until its ties have at most 4096 resolutions, so the "
               "single-crossing oracle can check its verdict",
        "why": "The Theta(n^3) crossing checks; inputs mix yes and no answers, so "
               "a fast path that falls back to the scan on no pays for it here.",
        "loads": "structure (is_single_peaked_wrt, is_tssc_wrt, is_sc_wrt)",
        "bypasses": "parse is small at n=150; greedy and stability are not called",
    },
    "is2sr_search": {
        "ops": "for n in 9, 10: three degree-3 graphs (edge probability 0.4) with "
               "independence number alpha = 4 and 4 (n=9) or 12 (n=10) independent "
               "sets of that size, reduced at k = alpha and alpha + 1; each "
               "reduction gets solve --algorithm brute and enumerate. Search time "
               "differs from graph to graph, so a run averages over three; "
               "yes-instance solve, which stops at the first stable matching and "
               "varies most, runs on six more graphs. The traced run takes the "
               "first graph",
        "why": "The NP-hard side: existence with early exit and exhaustive "
               "enumeration use the same search in two ways.",
        "loads": "stability._StableSearch through exists_stable_matching and "
                 "enumerate_stable_matchings, plus output printing",
        "bypasses": "about 620 preference entries per profile, so parse is noise; "
                    "yes-instance existence ends in <= 0.1 s and is the no-change "
                    "control for search work",
        "sizes": "enumeration at k = alpha prints (k!)^2 matchings per independent "
                 "set of size k (2,304 and 6,912 here); unconditioned graphs reach "
                 "alpha = 6 and 0.5-1M matchings, minutes per operation, so alpha and "
                 "the set count are fixed to keep every run's work the same",
    },
}

# Per-layer metric prefix -> the report metric and workload it should move.
# The report prints <command>_p50_s for every command a workload runs.
LAYER_TARGETS = {
    "cli.startup_s": "solve_p50_s on is2sr_search yes instances",
    "cli.residual_s": "enumerate_p50_s on is2sr_search",
    "instances.gen_narcissistic_sp_s": "gen_p50_s on sp_solve; setup_s on axis_check",
    "formats.serialize_profile_s": "gen_p50_s on sp_solve",
    "formats.parse_profile_s": "solve_p50_s and verify_p50_s on sp_solve; "
                               "little change elsewhere",
    "formats.parse_profile_entries_per_s": "solve_p50_s and verify_p50_s on sp_solve",
    "formats.parse_profile_slope": "solve_p50_s and verify_p50_s on sp_solve",
    "model.bytes_per_entry": "peak_rss_mb on sp_solve",
    "greedy.greedy_solve_s": "solve_p50_s on sp_solve (predicted effect below the bound)",
    "greedy.rounds": "solve_p50_s on sp_solve (exact count)",
    "stability.find_blocking_pairs_s": "verify_p50_s on sp_solve",
    "stability.exists_stable_matching_s": "solve_p50_s on is2sr_search",
    "stability.enumerate_stable_matchings_s": "enumerate_p50_s on is2sr_search",
    "stability.matchings_found": "enumerate_p50_s on is2sr_search (exact count)",
    "structure.order_free_s": "check_p50_s on axis_check",
    "structure.is_single_peaked_wrt_s": "check_p50_s on axis_check",
    "structure.is_tssc_wrt_s": "check_p50_s on axis_check",
    "structure.is_sc_wrt_s": "check_p50_s on axis_check",
    "structure.peak_traced_mb": "peak_rss_mb on axis_check",
    "reduction.independent_set_to_sr_s": "setup_s on is2sr_search",
    "trace.overhead_s": "none: median over the is2sr_search operations of the "
                        "command's wall time through replay.py minus its plain "
                        "wall time",
}

# Fixing either turns a fast crash into real, sometimes exponential, work
# that would read as a slowdown, so a benchmark change should add these
# inputs together with the fix.
KNOWN_DEFECTS = [
    "check --order on a tied profile with a swapped axis: the exact "
    "tie-resolution search recurses about n + 2 frames per voter and dies "
    "with RecursionError (exit 1, traceback) from about n = 30 (seen at "
    "n = 32; every n from 50 to 80). axis_check keeps its tied swapped "
    "inputs at n = 28. With a deep stack the search takes 4.7 s at n = 40 "
    "and 232 s at n = 60.",
    "solve --algorithm brute on the 2,400-agent path profile "
    "(pref i: i | i+1 | i-1) dies with RecursionError: the search recurses "
    "once per decision. is2sr_search profiles have at most 170 agents.",
]
