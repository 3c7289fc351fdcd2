"""Solvers for entropy-regularized transport plans that factor over a graph.

The plan over many marginals is represented through edge kernels and
per-node/per-edge scaling factors; coordinate ascent on the concave dual
updates one factor at a time, with projections computed by message passing
on the marginal graph.
"""

import os as _os

# Honor the thread cap before any numerical library configures its pools.
_threads = _os.environ.get("GTOP_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        _os.environ.setdefault(_var, _threads)
del _os, _threads

from .errors import (ConfigError, GtopError, Infeasible, InvalidInput,
                     NumericalFailure, SizeBoundExceeded, TopologyMismatch,
                     VerificationFailure)
from .functions import (Blockwise, Box, CompositeFunction, Congestion, Equality,
                        Linear, MarginalFunction, QuadraticDistance, SubgradientBand,
                        Zero, inclusion_residual, stack_rows)
from .model import (CHAIN, GENERAL, OD_CYCLE, SPECIES_HUB, DualPotentials,
                    EdgeKernel, GraphTopology, ProblemSpec, ScaledArray,
                    build_kernel, dual_objective, total_mass)
from .projections import ChainEngine, DenseEngine, make_engine
from .solver import SolveReport, SolverConfig, residuals, solve
from .builders import (FlowEdge, FlowNetwork, MFGSetup, build_congestion,
                       build_flow_cost_matrix, build_flow_problem,
                       build_mfg_chain_problem, build_mfg_cost_matrix,
                       build_mfg_problem, edge_utilization, embed_od_matrix,
                       grid_points)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
