"""Coarse Ricci curvatures of hypergraphs and their idleness limits.

Four quantities per vertex pair: the idleness-alpha curvature from W1
(exact rational), its alpha -> 1 limit (exact, certified by concavity),
the discounted-transport analogue from W_h (float), and the liminf-type
limit of the latter (reported as an extrapolated estimate with
diagnostics, never asserted to be the true liminf).  `sweep` evaluates
both curvatures over pairs x idleness values in one pass.

The catalog reproduces the closed forms for complete graphs, cycles and
the three line-graph configurations; it is the oracle the solvers are
verified against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .cost import ConcaveCost
from .errors import (BadParams, InfiniteDerivativeAtZero, OutOfCatalogRange,
                     SameVertex)
from .hypergraph import Hypergraph, degree, generate, graph_distance
from .measure import lazy_random_walk
from .transport import WhResult, wh_exact, wh_heuristic
# w1 stays bound here for perfbench/tracer.py, which patches curvature.w1
from .wasserstein import w1, walk_w1  # noqa: F401


def orc_alpha(H: Hypergraph, x: str, y: str, alpha) -> Fraction:
    """Idleness-alpha curvature 1 - W1(m_x, m_y)/d(x, y), exact.

    W1 is a value only (see `walk_w1`): one kernel solve on the two walks
    as integer vectors, with no measure objects and no coupling."""
    if x == y:
        raise SameVertex("curvature needs two distinct vertices")
    return 1 - walk_w1(H, x, y, alpha) / graph_distance(H, x, y)


def orc_alpha_h(H: Hypergraph, h: ConcaveCost, x: str, y: str, alpha,
                details: bool = False, **solver_opts):
    """Discounted-transport curvature 1 - W_h(m_x, m_y)/(h(1) d(x, y)).

    Uses the exact solver; if the state budget runs out the returned value
    is the solver's upper bound and the attached result is flagged
    "heuristic-upper-bound".
    """
    if x == y:
        raise SameVertex("curvature needs two distinct vertices")
    alpha = Fraction(alpha)
    mu = lazy_random_walk(H, x, alpha)
    nu = lazy_random_walk(H, y, alpha)
    res = wh_exact(H, h, mu, nu, **solver_opts)
    d = graph_distance(H, x, y)
    val = 1.0 - res.value / (h.h1 * d)
    return (val, res) if details else val


@dataclass(frozen=True)
class CurvaturePoint:
    """Both curvatures of one pair at one idleness; wh is the W_h result."""

    x: str
    y: str
    alpha: Fraction
    d: int
    w1: Fraction
    kappa: Fraction
    kappa_h: float
    wh: WhResult


def sweep(H: Hypergraph, h: ConcaveCost, pairs, alphas,
          heuristic: bool = False, **solver_opts) -> list[CurvaturePoint]:
    """orc_alpha and orc_alpha_h over sorted(pairs) x sorted(alphas).

    Each point's exact W1 is a value only, solved as in orc_alpha; W_h
    runs on the two walks as measures.  W_h comes from wh_exact with
    solver_opts, or from wh_heuristic when heuristic is set; wh_heuristic
    takes no options, so passing both raises BadParams.
    """
    if heuristic and solver_opts:
        raise BadParams(f"heuristic takes no options: {sorted(solver_opts)}")
    alphas = sorted(Fraction(a) for a in alphas)
    points = []
    for x, y in sorted(pairs):
        if x == y:
            raise SameVertex("curvature needs two distinct vertices")
        d = graph_distance(H, x, y)
        for a in alphas:
            w1_val = walk_w1(H, x, y, a)
            mu = lazy_random_walk(H, x, a)
            nu = lazy_random_walk(H, y, a)
            if heuristic:
                res = wh_heuristic(H, h, mu, nu)
            else:
                res = wh_exact(H, h, mu, nu, **solver_opts)
            points.append(CurvaturePoint(
                x, y, a, d, w1_val, 1 - w1_val / d,
                1.0 - res.value / (h.h1 * d), res))
    return points


def lly(H: Hypergraph, x: str, y: str) -> Fraction:
    """Limit of orc_alpha/(1-alpha) as alpha -> 1, exact.

    kappa(alpha) = orc_alpha(H, x, y, alpha) is concave in alpha (Lin-Lu-Yau,
    Tohoku Math. J. 2011, Lemma 2.1) with kappa(1) = 0, so the ratio is
    minus the slope of the chord from alpha to 1, nondecreasing in alpha.
    Equal ratios at alpha_k < alpha_{k+1} make alpha_k, alpha_{k+1} and 1
    collinear on the concave curve: kappa is linear on [alpha_k, 1] and the
    ratio is the limit.  The loop starts at alpha_0 = 1/(max(d_x, d_y) + 1),
    d the neighbour count, and halves the distance to 1 each step.  It
    terminates: W1 is the maximum of finitely many functions linear in
    alpha (one per vertex of the Kantorovich dual polytope), so kappa has
    finitely many linear pieces.  An adjacent pair takes one solve:
    kappa is linear on [alpha_0, 1] there (Bourne-Cushing-Liu-Muench-
    Peyerimhoff, SIAM J. Discrete Math. 2018, applied to the 2-section,
    whose walk and metric are those of H), so the ratio at alpha_0 is the
    limit.
    """
    alpha = Fraction(1, max(degree(H, x), degree(H, y)) + 1)
    prev = None
    while True:
        val = orc_alpha(H, x, y, alpha) / (1 - alpha)
        if val == prev or graph_distance(H, x, y) == 1:
            return val
        prev, alpha = val, (1 + alpha) / 2


@dataclass(frozen=True)
class HllyDiagnostics:
    alphas: tuple
    ratios: tuple
    statuses: tuple
    converged: bool


HLLY_GRID = tuple(1 - Fraction(1, 2 ** k) for k in range(3, 11))


def hlly(H: Hypergraph, h: ConcaveCost, x: str, y: str, **solver_opts):
    """Estimate of liminf of orc_alpha_h/(1-alpha) as alpha -> 1.

    Returns (estimate, diagnostics): the estimate is the Aitken
    extrapolation of the ratio sequence on the fixed dyadic grid
    HLLY_GRID, alpha = 1 - 2^-k for k = 3..10; the diagnostics hold the
    grid, the ratios, their solver statuses and a convergence flag.  The
    true limit is only a liminf; the estimate is never asserted to equal
    it.
    """
    ratios = []
    statuses = []
    for alpha in HLLY_GRID:
        val, res = orc_alpha_h(H, h, x, y, alpha, details=True, **solver_opts)
        ratios.append(val / float(1 - alpha))
        statuses.append(res.optimality)
    est = _aitken(ratios)
    converged = (len(ratios) >= 2 and
                 abs(ratios[-1] - ratios[-2]) <= 1e-3 * max(1.0, abs(ratios[-1])))
    diag = HllyDiagnostics(HLLY_GRID, tuple(ratios), tuple(statuses),
                           converged)
    return est, diag


def _aitken(r):
    if len(r) < 3:
        return r[-1]
    d2 = r[-1] - 2 * r[-2] + r[-3]
    if abs(d2) < 1e-12:
        return r[-1]
    return r[-1] - (r[-1] - r[-2]) ** 2 / d2


def idleness_band(h: ConcaveCost, alpha, d: int):
    """Two-sided band on the discounted curvature at idleness alpha:
    -2 h'(0)(1-alpha)/(h(1) d) below, 2(1-alpha)/d above."""
    alpha = Fraction(alpha)
    if not math.isfinite(h.hp0):
        raise InfiniteDerivativeAtZero(
            "the lower band needs a finite slope at 0")
    lo = -2 * h.hp0 * float(1 - alpha) / (h.h1 * d)
    hi = 2 * float(1 - alpha) / d
    return lo, hi


# ---------------------------------------------------------------------------
# closed-form catalog
# ---------------------------------------------------------------------------

CATALOG_FAMILIES = ("complete", "cycle", "line_ends", "line_end_next",
                    "line_both_next")


@dataclass(frozen=True)
class CatalogValues:
    """Closed-form curvature data for one catalog instance.

    kappa_alpha / kappa_h_alpha are at the requested idleness (None when no
    alpha was given); kappa / kappa_h are the idleness -> 1 limits.
    wh_alpha is the closed-form W_h(m_x, m_y) backing kappa_h_alpha.
    """

    kappa_alpha: Fraction | None
    kappa: Fraction
    kappa_h_alpha: float | None
    kappa_h: float
    wh_alpha: float | None


def catalog(family: str, n_or_d: int, h: ConcaveCost,
            alpha=None) -> CatalogValues:
    """Evaluate the closed forms for the named instance.

    complete(n>=2) and cycle(n>=2) take the vertex count; the line families
    take the pair distance d >= 1.  Raises OutOfCatalogRange outside the
    stated ranges.
    """
    if family not in CATALOG_FAMILIES:
        raise OutOfCatalogRange(f"unknown catalog family {family!r}")
    m = n_or_d
    a = None if alpha is None else Fraction(alpha)
    if a is not None and not 0 <= a <= 1:
        raise OutOfCatalogRange(f"alpha = {a} outside [0, 1]")

    if family == "complete":
        if m < 2:
            raise OutOfCatalogRange("complete graph needs n >= 2")
        return _complete_values(m, h, a)
    if family == "cycle":
        if m < 2:
            raise OutOfCatalogRange("cycle graph needs n >= 2")
        if m <= 3:
            return _complete_values(m, h, a)
        if m <= 5:
            return _small_cycle_values(m, h, a)
        return _large_cycle_values(h, a)
    if m < 1:
        raise OutOfCatalogRange("line configurations need d >= 1")
    if family == "line_ends":
        if m == 1:
            return _complete_values(2, h, a)
        return _line_ends_values(m, h, a)
    if family == "line_end_next":
        return _line_end_next_values(m, h, a)
    # line_both_next
    if m == 1:
        return _large_cycle_values(h, a)
    return _line_both_next_values(m, h, a)


def catalog_instance(family: str, n_or_d: int):
    """(hypergraph, x, y) realizing a catalog entry, for solver checks."""
    m = n_or_d
    if family == "complete":
        return generate("complete", m), "v0", "v1"
    if family == "cycle":
        H = generate("cycle", m)
        return H, "v0", "v1"
    if family == "line_ends":
        return generate("path", m), "v0", f"v{m}"
    if family == "line_end_next":
        return generate("path", m + 1), "v0", f"v{m}"
    if family == "line_both_next":
        return generate("path", m + 2), "v1", f"v{m + 1}"
    raise OutOfCatalogRange(f"unknown catalog family {family!r}")


def _ratio(num: float, h: ConcaveCost) -> float:
    return num / h.h1


def _complete_values(n, h, a):
    kappa = Fraction(n, n - 1)
    kappa_h = float(kappa) * h.hp1 / h.h1
    if a is None:
        return CatalogValues(None, kappa, None, kappa_h, None)
    lam = abs(a - (1 - a) / (n - 1))
    wh = h.eval(lam)
    return CatalogValues(1 - lam, kappa, _ratio(h.h1 - wh, h), kappa_h, wh)


def _small_cycle_values(n, h, a):
    # On the 5-cycle the "send everything toward y" route is only optimal
    # for idleness >= 1/3; below that the cheaper transport swaps the two
    # endpoint parcels sideways (verified exhaustively), so the 5-cycle
    # entries take the minimum of the two routes.
    kappa = Fraction(6 - n, 2)
    kappa_h = (3 * h.hp1 - (n - 3) * h.hp0) / (2 * h.h1)
    if a is None:
        return CatalogValues(None, kappa, None, kappa_h, None)
    b = 1 - a
    lam = abs(a - b / 2)
    wh = h.eval(lam) + (n - 3) * h.eval(b / 2)
    ka = 1 - lam - (n - 3) * b / 2
    if n == 5 and a < b / 2:
        wh = min(wh, 2 * h.eval(b / 2 - a) + 2 * h.eval(a))
        ka = max(ka, a)
    return CatalogValues(ka, kappa, _ratio(h.h1 - wh, h), kappa_h, wh)


def _large_cycle_values(h, a):
    kappa_h = (h.hp1 - h.hp0) / h.h1
    if a is None:
        return CatalogValues(None, Fraction(0), None, kappa_h, None)
    b = 1 - a
    wh = h.eval(a) + 2 * h.eval(b / 2)
    return CatalogValues(Fraction(0), Fraction(0),
                         (h.h1 - wh) / h.h1, kappa_h, wh)


def _line_ends_values(d, h, a):
    kappa = Fraction(2, d)
    kappa_h = 2 * h.hp1 / (d * h.h1)
    if a is None:
        return CatalogValues(None, kappa, None, kappa_h, None)
    b = 1 - a
    wh = 2 * h.eval(a) + (d - 2) * h.h1
    return CatalogValues(2 * b / d, kappa,
                         2 * (h.h1 - h.eval(a)) / (d * h.h1), kappa_h, wh)


def _line_end_next_values(d, h, a):
    kappa = Fraction(1, 1) if d == 1 else Fraction(1, d)
    kappa_h = (3 * h.hp1 - h.hp0) / (2 * d * h.h1)
    if a is None:
        return CatalogValues(None, kappa, None, kappa_h, None)
    b = 1 - a
    if d == 1:
        lam = abs(a - b / 2)
        wh = h.eval(lam) + h.eval(b / 2)
        ka = 1 - lam - b / 2
    else:
        wh = h.eval(a) + (d - 2) * h.h1 + h.eval(a + b / 2) + h.eval(b / 2)
        ka = b / d
    return CatalogValues(ka, kappa, (d * h.h1 - wh) / (d * h.h1),
                         kappa_h, wh)


def _line_both_next_values(d, h, a):
    kappa_h = (h.hp1 - h.hp0) / (d * h.h1)
    if a is None:
        return CatalogValues(None, Fraction(0), None, kappa_h, None)
    b = 1 - a
    wh = 2 * h.eval(a + b / 2) + (d - 2) * h.h1 + 2 * h.eval(b / 2)
    return CatalogValues(Fraction(0), Fraction(0),
                         (d * h.h1 - wh) / (d * h.h1), kappa_h, wh)
