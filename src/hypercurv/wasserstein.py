"""Exact L1-Wasserstein distance on the hypergraph metric.

The distance between two exact-rational measures is computed by scaling
both to a common integer grid and solving the resulting integer
transportation problem (see `hypercurv.kernels`), so values and optimal
couplings are exact rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import kernels
from .errors import SupportOutsideEdge
from .hypergraph import Hypergraph
from .measure import ProbMeasure, SignedDelta, common_denominator


@dataclass(frozen=True)
class Coupling:
    """Joint distribution on vertex pairs with prescribed marginals."""

    entries: dict
    mu: ProbMeasure
    nu: ProbMeasure

    def check(self):
        rows = {}
        cols = {}
        for (x, y), p in self.entries.items():
            if p < 0:
                raise ValueError(f"negative coupling entry at {(x, y)}")
            rows[x] = rows.get(x, Fraction(0)) + p
            cols[y] = cols.get(y, Fraction(0)) + p
        if rows != self.mu.weights or cols != self.nu.weights:
            raise ValueError("coupling marginals do not match")
        return self

    def cost(self, H: Hypergraph) -> Fraction:
        total = Fraction(0)
        for (x, y), p in self.entries.items():
            total += H.distance_id(H.vertex_id(x), H.vertex_id(y)) * p
        return total


def w1_units(H: Hypergraph, start_units, goal_units, denominator):
    """(W1 * denominator, f) between two integer-quantized measures.

    Both measures are integer vectors indexed by vertex id summing to the
    same total; the first result is the exact integer transport cost.
    `f` is an integer Kantorovich potential indexed by vertex id: the
    c-transform ``f[v] = min_j (d(v, j) - pot_t[j])`` of the kernel's sink
    potentials.  It is 1-Lipschitz in the hyperedge-hop metric and
    ``sum(f[v] * (start_units[v] - goal_units[v]))`` equals the cost, so
    by Kantorovich-Rubinstein duality ``sum(f * (xi - goal_units))`` is a
    lower bound on ``W1 * denominator`` for every other measure xi.
    """
    sup_ids, sup_amt, dem_ids, dem_amt = [], [], [], []
    for v in range(len(start_units)):
        d = start_units[v] - goal_units[v]
        if d > 0:
            sup_ids.append(v)
            sup_amt.append(d)
        elif d < 0:
            dem_ids.append(v)
            dem_amt.append(-d)
    if not sup_ids:
        return 0, [0] * len(start_units)
    mat = H.distance_matrix()
    costs = [mat[i][j] for i in sup_ids for j in dem_ids]
    total, pot_t = kernels.transport_value(sup_amt, dem_amt, costs,
                                           len(sup_ids), len(dem_ids))
    sinks = tuple(zip(dem_ids, pot_t))
    f = [min([row[j] - p for j, p in sinks]) for row in mat]
    return total, f


def w1(H: Hypergraph, mu: ProbMeasure, nu: ProbMeasure):
    """Exact (value, optimal coupling).

    Mass shared by both measures stays in place; the surplus is routed by
    the integer min-cost-flow kernel.  Tie-breaking is deterministic
    (lexicographic by vertex id), so the coupling is reproducible.
    """
    mu.check_support(H)
    nu.check_support(H)
    entries = {}
    for v, p in mu.weights.items():
        q = nu[v]
        if q > 0:
            entries[(v, v)] = min(p, q)
    sup_ids, sup_amt, dem_ids, dem_amt = [], [], [], []
    D = common_denominator([mu, nu])
    for v in sorted(set(mu.weights) | set(nu.weights), key=H.vertex_id):
        d = mu[v] - nu[v]
        if d > 0:
            sup_ids.append(H.vertex_id(v))
            sup_amt.append(int(d * D))
        elif d < 0:
            dem_ids.append(H.vertex_id(v))
            dem_amt.append(int(-d * D))
    if not sup_ids:
        return Fraction(0), Coupling(entries, mu, nu)
    mat = H.distance_matrix()
    costs = [mat[i][j] for i in sup_ids for j in dem_ids]
    total, flows = kernels.transport_plan(sup_amt, dem_amt, costs,
                                          len(sup_ids), len(dem_ids))
    for i, j, f in flows:
        x, y = H.label(sup_ids[i]), H.label(dem_ids[j])
        entries[(x, y)] = entries.get((x, y), Fraction(0)) + Fraction(f, D)
    return Fraction(total, D), Coupling(entries, mu, nu)


def within_edge_w1(delta: SignedDelta, edge) -> Fraction:
    """W1 of a difference supported inside one hyperedge.

    All distinct vertices of a hyperedge are at distance exactly 1, so the
    value is half the L1 norm of the difference.
    """
    edge = set(edge)
    if not delta.support <= edge:
        raise SupportOutsideEdge(
            f"delta support {sorted(delta.support - edge)} escapes the hyperedge")
    return delta.half_l1()
