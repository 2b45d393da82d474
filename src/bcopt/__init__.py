"""Budgeted matching and budgeted matroid intersection: an efficient
(1-eps)-approximation scheme built on representative sets, plus the exact
oracles and checkers used to validate it at small scale.

All arithmetic is exact: it runs on integers scaled once per instance,
with fractions.Fraction only at the API and report boundary.  Identical
inputs produce identical outputs, bit for bit.
"""

from .driver import EptasRun, approximate, eptas_run
from .errors import CapacityError, DegenerateAlpha, InputError, InvariantError
from .exchange import exset_matching, exset_matroid_intersection
from .generate import corpus_bi, corpus_bm, random_bi, random_bm
from .graphs import Graph, greedy_matching
from .lagrangian import (
    LagrangianCertificate,
    lagrangian_search,
    non_profitable_solve,
    patch_intersection,
    patch_matching,
    relaxation_solve,
    residual_tail,
)
from .matroids import (
    AxiomReport,
    ExplicitMatroid,
    GraphicMatroid,
    LinearMatroid,
    Matroid,
    PartitionMatroid,
    UniformMatroid,
    axiom_check,
    min_cost_basis,
)
from .model import (
    BCInstance,
    Element,
    MatchingConstraint,
    MatroidIntersectionConstraint,
    ProfitClassing,
    SchemeParams,
    Solution,
    class_count_of,
    feasible,
    low_profit_ids,
    profit_classes,
    q_of,
    scheme_params,
)
from .oracles import (
    OracleReport,
    brute_force_opt,
    check_exchange_set,
    check_representative,
    iter_solutions,
    max_weight_common_independent,
    max_weight_matching,
    mi_extreme_chain,
)
from .repset import RepSetResult, repset, two_approx
from .serialize import (
    canonical_json,
    dump_instance,
    format_rational,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    parse_rational,
    solution_to_dict,
)

__version__ = "0.1.0"

__all__ = [
    "AxiomReport",
    "BCInstance",
    "CapacityError",
    "DegenerateAlpha",
    "Element",
    "EptasRun",
    "ExplicitMatroid",
    "Graph",
    "GraphicMatroid",
    "InputError",
    "InvariantError",
    "LagrangianCertificate",
    "LinearMatroid",
    "MatchingConstraint",
    "Matroid",
    "MatroidIntersectionConstraint",
    "OracleReport",
    "PartitionMatroid",
    "ProfitClassing",
    "RepSetResult",
    "SchemeParams",
    "Solution",
    "UniformMatroid",
    "approximate",
    "axiom_check",
    "brute_force_opt",
    "canonical_json",
    "check_exchange_set",
    "check_representative",
    "class_count_of",
    "corpus_bi",
    "corpus_bm",
    "dump_instance",
    "eptas_run",
    "exset_matching",
    "exset_matroid_intersection",
    "feasible",
    "format_rational",
    "greedy_matching",
    "instance_from_dict",
    "instance_to_dict",
    "iter_solutions",
    "lagrangian_search",
    "load_instance",
    "low_profit_ids",
    "max_weight_common_independent",
    "max_weight_matching",
    "mi_extreme_chain",
    "min_cost_basis",
    "non_profitable_solve",
    "parse_rational",
    "patch_intersection",
    "patch_matching",
    "profit_classes",
    "q_of",
    "random_bi",
    "random_bm",
    "relaxation_solve",
    "repset",
    "residual_tail",
    "scheme_params",
    "solution_to_dict",
    "two_approx",
]
