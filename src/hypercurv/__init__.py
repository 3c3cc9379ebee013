"""Concave-discounted transport distance and Ricci-type curvature on
hypergraphs: exact W1 and stepwise-discounted W_h solvers, idleness
curvatures with their limits, the closed-form catalog, and diameter/size
bounds."""

__version__ = "0.1.0"

from .bounds import (
    CollapseMap,
    bonnet_myers_bound,
    collapse_map,
    collapse_plan,
    gamma_sets,
    pushforward_measure,
    vertex_count_bound,
    wh_line_lower_bound,
)
from .cost import AssumptionReport, ConcaveCost
from .curvature import (
    CatalogValues,
    CurvaturePoint,
    catalog,
    catalog_instance,
    hlly,
    idleness_band,
    lly,
    orc_alpha,
    orc_alpha_h,
    sweep,
)
from .hypergraph import (
    Hypergraph,
    ValidationReport,
    clique_expansion,
    degree,
    diameter,
    generate,
    graph_distance,
    parse_hypergraph,
)
from .measure import (
    ProbMeasure,
    SignedDelta,
    common_denominator,
    dirac,
    lazy_random_walk,
)
from .transport import (
    TransportPlan,
    TransportStep,
    WhResult,
    normalize_plan,
    plan_cost,
    plan_coupling,
    wh_bounds,
    wh_exact,
    wh_heuristic,
)
from .wasserstein import Coupling, w1, within_edge_w1

__all__ = [
    "AssumptionReport", "CatalogValues", "CollapseMap", "ConcaveCost",
    "Coupling", "CurvaturePoint", "Hypergraph", "ProbMeasure",
    "SignedDelta", "TransportPlan", "TransportStep", "ValidationReport",
    "WhResult", "bonnet_myers_bound", "catalog", "catalog_instance",
    "clique_expansion", "collapse_map", "collapse_plan",
    "common_denominator", "degree", "diameter", "dirac", "gamma_sets",
    "generate", "graph_distance", "hlly", "idleness_band",
    "lazy_random_walk", "lly", "normalize_plan", "orc_alpha",
    "orc_alpha_h", "parse_hypergraph", "plan_cost", "plan_coupling",
    "pushforward_measure", "sweep", "vertex_count_bound", "w1",
    "wh_bounds", "wh_exact", "wh_heuristic", "wh_line_lower_bound",
    "within_edge_w1",
]
