"""Exact parameterized solvers for partial vertex cover variants.

Decide whether a graph has a vertex set of bounded total cost covering edges
of at least a target total profit, in several flavors: unit costs on bipartite
graphs, bounded-degree graphs, parameterization by the profit target, a single
fractionally-taken vertex, and a matching-size constraint on the covered
edges. Brute-force oracles back every solver, and a gadget generator turns
multicolored-clique questions into equivalent cover instances.
"""

from .branching import solve_epvcbd, solve_wpvc_bounded_degree, solve_wpvc_by_L
from .errors import (FormatError, InputError, NotBipartiteError, OracleScaleError,
                     PvckitError, VariantError)
from .fractional import SectionMap, expand, rebalance_sections, solve_wpvcbfd
from .formats import parse_mcq, parse_wpvc, write_mcq, write_wpvc
from .graph import (LEFT, RIGHT, Bipartition, Graph, Matching, NotBipartite,
                    bipartition, coverage, edge_subgraph, make_graph, max_matching,
                    min_vertex_cover, weighted_degree, weighted_degrees)
from .instance import (CoverSolution, SolveReport, Variant, WpvcInstance, infer_variant,
                       make_instance, make_solution, prune_unaffordable, residual,
                       validate)
from .oracle import (McqVerdict, oracle_fractional, oracle_mcq, oracle_pvcbm,
                     oracle_wpvc)
from .pvcbm import solve_pvcbm
from .reduction import (McqInstance, ReductionCheck, ReductionOutput, gadget_budget,
                        gadget_target, make_mcq, pendantize, reduce_mcq_to_wpvcbd,
                        verify_reduction)

__version__ = "0.1.0"
