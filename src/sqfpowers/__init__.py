"""Matching invariants, squarefree powers of edge ideals, and Betti tables.

The package works with finite simple graphs on vertex sets {1, ..., n} and
squarefree monomial ideals encoded as bitmasks.  It computes matching
invariants (including induced and restricted variants), the squarefree powers
of edge ideals, multigraded Betti numbers over finite prime fields, linear
resolution / linear relatedness / linear quotients verdicts, a forest
classification against three explicit templates, and ships an executable
registry of theorem checks plus a CLI (``sqfpowers``).

``import sqfpowers`` runs no submodule.  The package ``__getattr__`` (PEP 562)
serves each exported name and each submodule name through ``_lazy_module``,
which registers the submodule at once but runs its body only on first
attribute use; so a caller, the CLI included, pays only for what it touches.
"""

import importlib.util
import sys
from types import ModuleType

__version__ = "0.1.0"

# every exported name and the submodule that defines it
_EXPORTS = {
    name: module
    for module, names in (
        ("defaults", "DEFAULT_CHARACTERISTIC"),
        (
            "betti",
            """
            BettiTable LinearQuotientsResult SyzygyWitnessReport
            first_syzygy_witness gf_rank has_linear_resolution
            is_linearly_related_combinatorial is_linearly_related_homological
            lcm_lattice linear_quotients_order multigraded_betti
            projective_dimension regularity render_betti_diagram
            """,
        ),
        (
            "checks",
            """
            CHECKS Check CheckContext CheckReport run_check_on_instance run_checks
            summarize theorem_failures
            """,
        ),
        (
            "edge_ideals",
            """
            ForestClassification TemplateMatch classify_forest colon_square_by_edge
            edge_ideal is_generated_in_degree l_degree_hypothesis l_ideal
            l_ideal_shape lambda_number sqfree_power_via_matchings
            """,
        ),
        (
            "families",
            """
            all_forests all_graphs all_trees disjoint_edges_graph random_graphs
            random_squarefree_ideals resolve_family tree_canonical_form
            """,
        ),
        (
            "graphs",
            """
            BUILTIN_GRAPH_NAMES MAX_VERTICES Graph builtin_graph complement
            complete_graph connected_components cycle_graph disjoint_union
            induced_subgraph is_chordal is_connected is_forest is_tree
            parse_edge_list parse_graph6 parse_graphs path_graph remove_edge
            remove_vertices star_graph to_graph6
            """,
        ),
        (
            "ideals",
            """
            MonomialIdeal colon_by_monomial colon_ideal format_ideal ideal_sum
            intersect minimalize monomial monomial_divides
            monomial_str monomial_vars parse_ideal ratliff_check restrict
            sqfree_power
            """,
        ),
        (
            "matchings",
            """
            enumerate_maximal_matchings greedy_matching_extension
            has_perfect_matching induced_matching_number
            is_equimatchable is_gap_free matching_number
            matching_number_within restricted_matching_number
            tree_perfect_matching_criterion
            """,
        ),
        ("memo", "BudgetExceeded time_budget"),
    )
    for name in names.split()
}

__all__ = list(_EXPORTS)


def _lazy_module(name: str) -> ModuleType:
    """The submodule *name*, registered in sys.modules and on the package at
    once, its body run on first attribute use; one already there as it is."""
    fullname = f"{__name__}.{name}"
    module = sys.modules.get(fullname)
    if module is None:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[fullname] = module
        spec.loader.exec_module(module)
        globals()[name] = module
    return module


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is not None:
        return getattr(_lazy_module(module), name)
    if name in _EXPORTS.values():  # sqfpowers.betti and the like, unimported
        return _lazy_module(name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
