"""Diameter and size bounds from positive curvature, and the line-graph
comparison machinery behind them.

The key device is a 1-Lipschitz collapse of the hypergraph onto the line
0..d(x,y): pushing any transport plan through it gives a line-graph plan
that is never more expensive, so line graphs minimize the discounted
transport cost at fixed endpoint distance.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

from .cost import ConcaveCost
from .errors import Hp1ZeroWarning, NonpositiveKappa, PairTooClose, SameVertex
from .hypergraph import Hypergraph, generate
from .measure import ProbMeasure
from .transport import TransportPlan, TransportStep


@dataclass(frozen=True)
class CollapseMap:
    """1-Lipschitz assignment of vertices to positions 0..d(x,y)."""

    assignment: dict
    partition: tuple  # (V1, V2, V3) label tuples

    def __call__(self, v: str) -> int:
        return self.assignment[v]


def collapse_map(H: Hypergraph, x: str, y: str) -> CollapseMap:
    """Collapse onto the line through x and y.

    Vertices nearer to x than d/2 keep their distance from x, vertices
    nearer to y mirror theirs, everything else pins to floor(d/2).  The
    1-Lipschitz property is checked exhaustively.
    """
    xid, yid = H.vertex_id(x), H.vertex_id(y)
    d = H.distance_id(xid, yid)
    if d < 2:
        raise PairTooClose(f"collapse needs d(x, y) >= 2, got {d}")
    mat = H.distance_matrix()
    assignment = {}
    v1, v2, v3 = [], [], []
    for v in range(H.n):
        label = H.label(v)
        if 2 * mat[v][xid] < d:
            assignment[label] = mat[v][xid]
            v1.append(label)
        elif 2 * mat[v][yid] < d:
            assignment[label] = d - mat[v][yid]
            v2.append(label)
        else:
            assignment[label] = d // 2
            v3.append(label)
    for a in range(H.n):
        for b in range(a + 1, H.n):
            la, lb = H.label(a), H.label(b)
            if abs(assignment[la] - assignment[lb]) > mat[a][b]:
                raise AssertionError(
                    f"collapse not 1-Lipschitz on ({la}, {lb})")
    return CollapseMap(assignment, (tuple(v1), tuple(v2), tuple(v3)))


def pushforward_measure(m: ProbMeasure, cmap: CollapseMap) -> ProbMeasure:
    w = {}
    for v, p in m.weights.items():
        label = f"v{cmap(v)}"
        w[label] = w.get(label, Fraction(0)) + p
    return ProbMeasure(w)


def collapse_plan(H: Hypergraph, plan: TransportPlan, cmap: CollapseMap):
    """Push a plan through the collapse map.

    Returns (line graph, pushed plan).  Every step's image lies inside one
    line edge, cancelling moves drop out, so the pushed cost never exceeds
    the original.
    """
    d = max(cmap.assignment.values())
    line = generate("path", d)
    steps = []
    for step in plan.steps:
        moves = {}
        for a, b, m in step.moves:
            fa, fb = cmap(a), cmap(b)
            if fa != fb:
                key = (f"v{fa}", f"v{fb}")
                moves[key] = moves.get(key, Fraction(0)) + m
        if not moves:
            continue
        lo = min(min(int(a[1:]), int(b[1:])) for a, b in moves)
        steps.append(TransportStep(lo, tuple((a, b, m) for (a, b), m
                                             in sorted(moves.items()))))
    pushed = TransportPlan(pushforward_measure(plan.start, cmap),
                           pushforward_measure(plan.end, cmap),
                           tuple(steps))
    return line, pushed


def wh_line_lower_bound(h: ConcaveCost, alpha, d: int) -> float:
    """Lower bound on W_h(m_x, m_y) for any pair at distance d >= 2: the
    cost of the end-to-end line-graph transport 2h(alpha) + (d-2)h(1)."""
    if d < 2:
        raise PairTooClose("the line lower bound needs d >= 2")
    alpha = Fraction(alpha)
    return 2 * h.eval(alpha) + (d - 2) * h.h1


def _slope_ratio(h: ConcaveCost):
    """h'(1)/h(1), exact for the linear family."""
    if h.is_linear:
        return Fraction(1)
    return h.hp1 / h.h1


def bonnet_myers_bound(h: ConcaveCost, kappa, kind: str) -> int:
    """Diameter bound from a positive curvature lower bound.

    graph_lly: floor(2/kappa) (h is ignored).  hypergraph_hlly:
    floor((h'(1)/h(1)) * 2/kappa); when h'(1) = 0 the bound is vacuous (a
    positive lower bound cannot actually hold) and 0 is returned with a
    warning.
    """
    kappa = _as_number(kappa)
    if not kappa > 0:
        raise NonpositiveKappa(f"need kappa > 0, got {kappa}")
    if kind == "graph_lly":
        return int(math.floor(Fraction(2) / Fraction(kappa))) \
            if isinstance(kappa, Fraction) else _float_floor(2 / kappa)
    if kind != "hypergraph_hlly":
        raise ValueError(f"unknown bound kind {kind!r}")
    if h.hp1 == 0:
        warnings.warn("h'(1) = 0 makes the diameter bound vacuous",
                      Hp1ZeroWarning)
        return 0
    ratio = _slope_ratio(h)
    if isinstance(kappa, Fraction) and isinstance(ratio, Fraction):
        return int(math.floor(ratio * 2 / kappa))
    return _float_floor(float(ratio) * 2 / float(kappa))


def _float_floor(x: float) -> int:
    # analytic equality cases land exactly on integers; keep rounding noise
    # from flooring them one short
    return math.floor(x + 1e-9)


def vertex_count_bound(h: ConcaveCost, kappa, max_degree: int) -> int:
    """Vertex-count bound: 1 + sum_j max_degree^j * prod_i (1 - kappa*i/2)
    with j up to floor(2h'(1)/(h(1) kappa)); negative factors clamp to 0."""
    kappa = _as_number(kappa)
    if not kappa > 0:
        raise NonpositiveKappa(f"need kappa > 0, got {kappa}")
    ratio = _slope_ratio(h)
    if isinstance(kappa, Fraction) and isinstance(ratio, Fraction):
        jmax = int(math.floor(ratio * 2 / kappa))
        one = Fraction(1)
    else:
        jmax = _float_floor(float(ratio) * 2 / float(kappa))
        kappa = float(kappa)
        one = 1.0
    total = one
    for j in range(1, jmax + 1):
        term = one * max_degree ** j
        for i in range(1, j):
            factor = one - kappa * i / 2
            if factor <= 0:
                term = 0 * one
                break
            term *= factor
        total += term
    return int(math.floor(total))


def _as_number(kappa):
    if isinstance(kappa, (int, Fraction)):
        return Fraction(kappa)
    if isinstance(kappa, str):
        return Fraction(kappa)
    return float(kappa)


def gamma_sets(H: Hypergraph, x: str, y: str):
    """Neighbors of y one step farther from x (gamma+) and one step nearer
    (gamma-)."""
    if x == y:
        raise SameVertex("gamma sets need two distinct vertices")
    xid, yid = H.vertex_id(x), H.vertex_id(y)
    d = H.distance_id(xid, yid)
    plus, minus = set(), set()
    for v in H.neighbors(yid):
        dv = H.distance_id(xid, v)
        if dv == d + 1:
            plus.add(H.label(v))
        elif dv == d - 1:
            minus.add(H.label(v))
    return plus, minus
