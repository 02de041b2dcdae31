"""lipext: Lipschitz extension of finite map data on a convex-analysis core.

Modules
-------
geometry          vectors, balls, V-polytopes, simplex weights
solvers           active-set QP (simplex QPs included), Chebyshev center;
                  its tolerance TOL and iteration caps are module constants
convex_sets       projection, Caratheodory, Radon, separation, Minkowski sums
helly             family intersection checks, common points, Jung's bound
convex_functions  convex expression trees: conjugates, convolutions, averages
monotone          operator graphs, Fitzpatrick functions, resolvents
extension         the extension algorithms themselves
gen               deterministic dataset generators
cli               batch front-end (`lipext` entry point)
"""

__version__ = "0.1.0"

from .geometry import Ball, Polytope, SimplexWeights, convex_combination, dot, norm
from .solvers import minimize_quadratic_over_simplex
from .convex_sets import (
    CaratheodoryCertificate,
    Hyperplane,
    caratheodory,
    distance,
    minkowski_sum,
    project,
    radon_partition,
    separate,
)
from .helly import (
    BodyFamily,
    IntersectionReport,
    check_k_intersection,
    common_point,
    helly_verify,
    jung_ball,
    jung_bound_check,
)
from .monotone import (
    OperatorGraph,
    autoconjugacy_check,
    firm_to_nonexpansive,
    firmly_nonexpansive_check,
    fitzpatrick_conj_eval,
    fitzpatrick_eval,
    graph_of_resolvent,
    is_monotone,
    nonexpansive_to_firm,
    psi_conj_eval,
    psi_eval,
    resolvent_eval,
    resolvent_of_graph,
)
from .extension import (
    ExtensionModel,
    FiniteMapData,
    Modulus,
    affine_majorant,
    concave_majorant,
    empirical_modulus,
    extend_coordinatewise,
    extend_mcshane,
    extend_minimax,
    extend_project_domain,
    extend_proxavg,
    lipschitz_constant,
    linear_modulus,
    tietze_extend,
    uniform_extend,
)
