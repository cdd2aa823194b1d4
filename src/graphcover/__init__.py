"""Exact and approximate solvers for cover-or-pay graph covering problems.

Two problems on edge- and node-weighted graphs, each charging a solution
``w(F) + w(V(F))`` plus a penalty for every demand it leaves unserved:

* edge domination — every edge must share an end node with a chosen edge
  or pay its penalty; solved exactly on rooted trees
  (:func:`solve_eds_tree`) and within a certified factor on general graphs
  (:func:`solve_eds_general`);
* multicut — every demand pair must be separated by the chosen edges or
  pay its penalty; solved within factor 2 on rooted trees
  (:func:`solve_multicut_tree`).

Everything computes in exact rational arithmetic; solvers emit dual
certificates checked by independent verifiers, and brute-force oracles
cover small instances for ground truth.
"""

from .certificates import (
    Certificate,
    eds_general_certificate,
    eds_tree_certificate,
    multicut_certificate,
    parse_certificate,
    serialize_certificate,
    verify_certificate,
)
from .eds_general import (
    Star,
    build_edge_cover_instance,
    edge_cover_to_facility_location,
    greedy_facility_location,
    harmonic,
    solve_eds_general,
)
from .eds_tree import (
    EdsDual,
    solve_eds_tree,
    verify_eds_optimality,
)
from .instances import (
    Demand,
    EdgeCoverInstance,
    EdsInstance,
    FacilityLocationInstance,
    Graph,
    InstanceError,
    MulticutInstance,
    ParseError,
    RootedTree,
    SetCoverInstance,
    Solution,
    edge_neighborhoods,
    eds_solution,
    gen_instance,
    multicut_solution,
    parse_instance,
    problem_kind,
    reduce_to_eds,
    serialize_instance,
)
from .lp import (
    INFEASIBLE,
    LinearConstraint,
    LpFormatError,
    LpModel,
    LpResult,
    OPTIMAL,
    UNBOUNDED,
    simplex_solve,
)
from .multicut_tree import (
    MulticutDual,
    deletion_phase,
    increase_iteration,
    reduce_prize_collecting,
    relaxable_set,
    solve_multicut_tree,
    verify_multicut,
)
from .oracle import (
    OracleCapError,
    brute_force_cover,
    brute_force_eds,
    brute_force_facility_location,
    brute_force_multicut,
)
from .rationals import INF, Rat, ext_min, ext_sum, fmt_rat, is_inf, parse_rat
from .relaxations import (
    build_eds_dual,
    build_multicut_dual,
    build_relaxation,
    complete_eds_dual,
    extract_relaxation_point,
    relaxation_value,
)
from .reporting import CheckReport

__all__ = [
    "Certificate",
    "CheckReport",
    "Demand",
    "EdgeCoverInstance",
    "EdsDual",
    "EdsInstance",
    "FacilityLocationInstance",
    "Graph",
    "INF",
    "INFEASIBLE",
    "InstanceError",
    "LinearConstraint",
    "LpFormatError",
    "LpModel",
    "LpResult",
    "MulticutDual",
    "MulticutInstance",
    "OPTIMAL",
    "OracleCapError",
    "ParseError",
    "Rat",
    "RootedTree",
    "SetCoverInstance",
    "Solution",
    "Star",
    "UNBOUNDED",
    "brute_force_cover",
    "brute_force_eds",
    "brute_force_facility_location",
    "brute_force_multicut",
    "build_edge_cover_instance",
    "build_eds_dual",
    "build_multicut_dual",
    "build_relaxation",
    "complete_eds_dual",
    "deletion_phase",
    "edge_cover_to_facility_location",
    "edge_neighborhoods",
    "eds_general_certificate",
    "eds_solution",
    "eds_tree_certificate",
    "ext_min",
    "ext_sum",
    "extract_relaxation_point",
    "fmt_rat",
    "gen_instance",
    "greedy_facility_location",
    "harmonic",
    "increase_iteration",
    "is_inf",
    "multicut_certificate",
    "multicut_solution",
    "parse_certificate",
    "parse_instance",
    "parse_rat",
    "problem_kind",
    "reduce_prize_collecting",
    "reduce_to_eds",
    "relaxable_set",
    "relaxation_value",
    "serialize_certificate",
    "serialize_instance",
    "simplex_solve",
    "solve_eds_general",
    "solve_eds_tree",
    "solve_multicut_tree",
    "verify_certificate",
    "verify_eds_optimality",
    "verify_multicut",
]
