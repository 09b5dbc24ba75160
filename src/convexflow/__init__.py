"""convexflow: convex network flows, their conic form, and fixed edge fees.

Flow sets are exposed as membership / support / gauge oracles, composed
through a calculus of downward-closed sets, lifted to perspective cones,
and solved by dual decomposition; the fixed-fee extension is handled by
relaxation over clipped cones with rounding and a-priori gap bounds.
"""

from .calculus import (aggregate, intersection, lift, minkowski_sum,
                       nonneg_matrix_image, scale)
from .conic import ClippedCone, ConicInstance, FlowCone, conic_rewrite
from .errors import (ConvexFlowError, EnumerationBudgetError,
                     InfeasibleProblemError, SchemaError, UnboundedProblemError)
from .fees import (BruteForceResult, GapBounds, RoundedSolution,
                   brute_force_optimum, gap_bounds, q_membership,
                   round_relaxation)
from .model import (Edge, Instance, LinearUtility, QuadraticUtility,
                    ThresholdUtility, from_document, loads, dumps, net_flow,
                    node_degrees, to_document)
from .sets import (CappedConcaveEdge, FlowSet, HalfLineEdge, LinearTickEdge,
                   PiecewiseLinearGain, ProductMarketEdge, RationalGain,
                   Support)
from .solver import (DualState, SolveReport, SolverOptions, VerifyResult,
                     dual_value_and_gradient, minimize_dual, recover_primal,
                     report_to_document, solve, solve_conic, verify_optimality)

__version__ = "0.1.0"
