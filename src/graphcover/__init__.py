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
from .eds_general import solve_eds_general
from .eds_tree import solve_eds_tree, verify_eds_optimality
from .instances import (
    Demand,
    EdsInstance,
    FacilityLocationInstance,
    Graph,
    InstanceError,
    MulticutInstance,
    ParseError,
    RootedTree,
    SetCoverInstance,
    Solution,
    eds_solution,
    gen_instance,
    multicut_solution,
    parse_instance,
    reduce_to_eds,
    serialize_instance,
)
from .lp import LpFormatError, LpModel, simplex_solve
from .multicut_tree import solve_multicut_tree
from .oracle import (
    OracleCapError,
    brute_force_cover,
    brute_force_eds,
    brute_force_facility_location,
    brute_force_multicut,
)
from .rationals import INF, Rat
from .relaxations import build_relaxation, complete_eds_dual, relaxation_value, relaxation_values

__all__ = [
    "Certificate",
    "Demand",
    "EdsInstance",
    "FacilityLocationInstance",
    "Graph",
    "INF",
    "InstanceError",
    "LpFormatError",
    "LpModel",
    "MulticutInstance",
    "OracleCapError",
    "ParseError",
    "Rat",
    "RootedTree",
    "SetCoverInstance",
    "Solution",
    "brute_force_cover",
    "brute_force_eds",
    "brute_force_facility_location",
    "brute_force_multicut",
    "build_relaxation",
    "complete_eds_dual",
    "eds_general_certificate",
    "eds_solution",
    "eds_tree_certificate",
    "gen_instance",
    "multicut_certificate",
    "multicut_solution",
    "parse_certificate",
    "parse_instance",
    "reduce_to_eds",
    "relaxation_value",
    "relaxation_values",
    "serialize_certificate",
    "serialize_instance",
    "simplex_solve",
    "solve_eds_general",
    "solve_eds_tree",
    "solve_multicut_tree",
    "verify_certificate",
    "verify_eds_optimality",
]
