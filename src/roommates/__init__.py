"""Stable roommate matching with weak preferences and structured domains.

The package models agents with ranked tie groups over the agents they
find acceptable, decides stability questions exactly, recognizes the
classic restricted domains (single-peaked, single-crossing and its
tie-sensitive refinement, worst-restricted), solves structured instances
greedily, and builds the reductions connecting stability to independent
set and domain recognition to betweenness.

Importing the package loads none of its modules: each public name is
imported from its home module on first access (PEP 562), so a command
compiles and runs only the modules it uses.
"""

from importlib import import_module as _import_module

# Each public name, listed under the module that defines it.
_HOMES = {
    "coloring": ("EdgeColoring", "Graph", "check_degree_cap", "misra_gries_edge_coloring"),
    "errors": (
        "AsymmetricAcceptability", "BudgetExceeded", "DegreeTooHigh", "DuplicateInOrder",
        "InternalInvariantViolation", "KOutOfRange", "NoMutualPair", "NotComplete",
        "NotIndependent", "NotNarcissistic", "ParseError", "RoommatesError",
        "TieGroupTooLarge", "TiesUnsupported", "TooManyAgents", "UnknownFixture",
        "WrongSize",
    ),
    "formats": (
        "parse_betweenness", "parse_graph", "parse_matching", "parse_order",
        "parse_profile", "parse_roles", "serialize_betweenness", "serialize_graph",
        "serialize_matching", "serialize_order", "serialize_profile", "serialize_roles",
    ),
    "greedy": ("SolveTrace", "find_mutual_most_acceptable_pair", "greedy_solve"),
    "instances": (
        "FIXTURE_NAMES", "GeneratorConfig", "fixture", "gen_degree3_graph",
        "gen_narcissistic_sp",
    ),
    "model": (
        "AgentId", "Matching", "PreferenceOrder", "Profile", "WitnessOrder",
        "build_profile", "most_acceptable_set", "restrict",
    ),
    "reduction": (
        "BetweennessInstance", "ReducedInstance", "betweenness_to_sc_instance",
        "betweenness_to_sp_instance", "independent_set_to_matching",
        "independent_set_to_sr", "selector_gadget", "sr_matching_to_independent_set",
        "vertex_gadget",
    ),
    "search": ("DEFAULT_SEARCH_BUDGET",),
    "stability": (
        "BlockingPair", "BlockingReason", "check_matching", "enumerate_stable_matchings",
        "exists_stable_matching", "find_blocking_pairs", "is_perfect", "is_stable",
    ),
    "structure": (
        "PropertyReport", "Verdict", "break_ties_fixed", "find_single_peaked_order",
        "find_tssc_order", "has_ties", "is_complete", "is_narcissistic", "is_sc_wrt",
        "is_single_peaked_wrt", "is_trivially_crossing", "is_tssc_wrt",
        "is_worst_restricted", "property_report",
    ),
}
_HOME_OF = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME_OF)


def __getattr__(name: str):
    if name not in _HOME_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_HOME_OF[name]}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
