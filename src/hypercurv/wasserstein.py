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
from .measure import (ProbMeasure, SignedDelta, common_denominator, quantize,
                      walk_units)


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


def _split(start_units, goal_units):
    """Ascending vertex ids and amounts of start's surplus over goal and of
    its deficit: (supply ids, supply amounts, demand ids, demand amounts)."""
    sup_ids, sup_amt, dem_ids, dem_amt = [], [], [], []
    for v, (s, g) in enumerate(zip(start_units, goal_units)):
        d = s - g
        if d > 0:
            sup_ids.append(v)
            sup_amt.append(d)
        elif d < 0:
            dem_ids.append(v)
            dem_amt.append(-d)
    return sup_ids, sup_amt, dem_ids, dem_amt


def _instance(H: Hypergraph, start_units, goal_units):
    """(supply ids, demand ids, kernel arguments) of W1 between two
    measures in grid units, or None when they are equal.  The arguments
    are the supplies, the demands, the row-major hop distances from supply
    to demand vertices and the two counts, as the kernels take them."""
    sup_ids, sup_amt, dem_ids, dem_amt = _split(start_units, goal_units)
    if not sup_ids:
        return None
    mat = H.distance_matrix()
    costs = [mat[i][j] for i in sup_ids for j in dem_ids]
    return sup_ids, dem_ids, (sup_amt, dem_amt, costs, len(sup_ids),
                              len(dem_ids))


def _c_transform(H: Hypergraph, dem_ids, pot_t):
    """f[v] = min_j (d(v, j) - pot_t[j]) over the demand vertices j."""
    sinks = tuple(zip(dem_ids, pot_t))
    return [min([row[j] - p for j, p in sinks]) for row in H.distance_matrix()]


def walk_w1(H: Hypergraph, x: str, y: str, alpha) -> Fraction:
    """W1 between the idleness-alpha walks from x and from y, as a value
    only: one value-only kernel solve on their integer vectors
    (`walk_units`), with no measure objects, no potential and no coupling.
    Equal to w1's value on lazy_random_walk's measures, and raises what
    they raise."""
    D, start, goal = walk_units(H, x, y, alpha)
    inst = _instance(H, start, goal)
    return Fraction(kernels.transport_value(*inst[2])[0] if inst else 0, D)


def w1_units(H: Hypergraph, start_units, goal_units):
    """(W1 * D, f) between two measures quantized to the grid 1/D.

    Both measures are integer vectors indexed by vertex id summing to the
    same total D; the first result is the exact integer transport cost.
    `f` is an integer Kantorovich potential indexed by vertex id: the
    c-transform ``f[v] = min_j (d(v, j) - pot_t[j])`` of the kernel's sink
    potentials.  It is 1-Lipschitz in the hyperedge-hop metric and
    ``sum(f[v] * (start_units[v] - goal_units[v]))`` equals the cost, so
    by Kantorovich-Rubinstein duality ``sum(f * (xi - goal_units))`` is a
    lower bound on ``W1 * D`` for every other measure xi.
    """
    inst = _instance(H, start_units, goal_units)
    if inst is None:
        return 0, [0] * len(start_units)
    _, dem_ids, args = inst
    total, pot_t = kernels.transport_value(*args)
    return total, _c_transform(H, dem_ids, pot_t)


def w1_primal_dual(H: Hypergraph, start_units, goal_units):
    """(W1 * D, flows, f) between two measures quantized to the grid 1/D,
    from one kernel solve.

    `flows` holds the off-diagonal entries (x id, y id, units) of an
    optimal coupling, ascending by (x, y); the mass both measures share
    stays in place and is not listed.  `f` is the potential of `w1_units`,
    from the same solve.
    """
    inst = _instance(H, start_units, goal_units)
    if inst is None:
        return 0, [], [0] * len(start_units)
    sup_ids, dem_ids, args = inst
    total, flows, pot_t = kernels.transport_plan(*args)
    return (total, [(sup_ids[i], dem_ids[j], f) for i, j, f in flows],
            _c_transform(H, dem_ids, pot_t))


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
    D = common_denominator([mu, nu])
    total, flows, _ = w1_primal_dual(H, quantize(H, mu, D),
                                     quantize(H, nu, D))
    # supply and demand vertices are disjoint and each pair flows once,
    # so no entry is written twice
    for x, y, f in flows:
        entries[(H.label(x), H.label(y))] = Fraction(f, D)
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
