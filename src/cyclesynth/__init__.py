"""Policy synthesis for labeled MDPs: almost-sure satisfaction of a
Rabin-automaton specification with minimum expected cost per cycle
between visits to an optimizing proposition."""

from .acpc import (
    AcpcGainBias,
    CycleProblem,
    PolicyIterationResult,
    PolicyIterationStatus,
    acpc_evaluate,
    acpc_optimality_check,
    block_policy_iteration,
    brute_force_acpc,
    cycle_cost,
    first_return_kernel,
    policy_iteration,
    split_kernel,
)
from .amec import Amec, accepting_amecs, almost_sure_reach_set, maximal_end_components, reach_policy
from .dra import Dra, RabinPair
from .mdp import (
    LabeledMdp,
    StationaryPolicy,
    ValidationReport,
    is_communicating,
    is_proper,
    validate,
)
from .product import ExecutablePolicy, ProductMdp, build_product, project_policy
from .sim import SimReport, simulate, simulate_executable, simulate_product
from .synth import SynthesisResult, synthesize

__version__ = "0.1.0"

__all__ = [
    "AcpcGainBias", "Amec", "CycleProblem", "Dra",
    "ExecutablePolicy", "LabeledMdp", "PolicyIterationResult",
    "PolicyIterationStatus", "ProductMdp", "RabinPair", "SimReport",
    "StationaryPolicy", "SynthesisResult", "ValidationReport",
    "accepting_amecs", "acpc_evaluate",
    "acpc_optimality_check", "almost_sure_reach_set", "block_policy_iteration",
    "brute_force_acpc",
    "build_product", "cycle_cost", "first_return_kernel",
    "is_communicating", "is_proper", "maximal_end_components",
    "policy_iteration", "project_policy", "reach_policy", "simulate",
    "simulate_executable", "simulate_product", "split_kernel", "synthesize",
    "validate",
]
