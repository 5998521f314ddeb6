"""Passivation of passive-short systems via projective quadratic inequalities.

The toolkit synthesizes 2x2 input/output transformations that passivize
equilibrium-independent passive-short systems, transports their steady-state
relations to monotone ones, analyzes LTI systems through transfer functions,
simulates diffusively-coupled networks, and predicts network steady states by
solving the associated dual convex optimization problems.
"""

from .errors import ToolkitError
from .lti import (
    FrequencyIndices,
    RationalTF,
    RealPolynomial,
    eips_indices,
    is_stable,
    lambda_search,
    linf_norm,
    loop_mu,
    tf_passivity_indices,
    transformed_tf,
)
from .network import (
    AgentODE,
    ControllerSpec,
    Graph,
    IntegratorConfig,
    NetworkSpec,
    SimResult,
    apply_network_transform,
    predict_and_verify,
    simulate,
    solve_ofp,
    solve_opp,
    spec_from_json,
    transform_agent,
)
from .pqi import (
    PQI,
    PassivityIndices,
    boundary_rays,
    discriminant,
    is_nontrivial,
    pullback,
)
from .relations import (
    CursivityReport,
    IntegralFunction,
    PlanarRelation,
    compose_via_stages,
    integral_function,
    is_cursive,
    is_maximal_monotone,
    legendre,
    transform_relation,
)
from .transforms import (
    ElementaryDecomposition,
    PassivationReport,
    Transform2,
    decompose,
    find_equilibria,
    mapping_transform,
    passivize,
    verify_passivation,
)

__version__ = "0.1.0"

__all__ = [
    "AgentODE",
    "ControllerSpec",
    "CursivityReport",
    "ElementaryDecomposition",
    "FrequencyIndices",
    "Graph",
    "IntegralFunction",
    "IntegratorConfig",
    "NetworkSpec",
    "PQI",
    "PassivationReport",
    "PassivityIndices",
    "PlanarRelation",
    "RationalTF",
    "RealPolynomial",
    "SimResult",
    "ToolkitError",
    "Transform2",
    "apply_network_transform",
    "boundary_rays",
    "compose_via_stages",
    "decompose",
    "discriminant",
    "eips_indices",
    "find_equilibria",
    "integral_function",
    "is_cursive",
    "is_maximal_monotone",
    "is_nontrivial",
    "is_stable",
    "lambda_search",
    "legendre",
    "linf_norm",
    "loop_mu",
    "mapping_transform",
    "passivize",
    "predict_and_verify",
    "pullback",
    "simulate",
    "solve_ofp",
    "solve_opp",
    "spec_from_json",
    "tf_passivity_indices",
    "transform_agent",
    "transform_relation",
    "transformed_tf",
    "verify_passivation",
]
