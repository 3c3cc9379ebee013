"""Integer transportation kernel, in pure Python.

Successive shortest augmenting paths with Johnson potentials on the
bipartite supply/demand graph.  Everything is integer arithmetic, so the
result is exact.  Costs must be nonnegative, which keeps every reduced
cost nonnegative and Dijkstra valid from the first phase on.

Each phase is a Dijkstra over the residual graph whose queue is a
`heapq` of single ints ``dist * (n_src + n_snk) + node``, sources
numbered before sinks.  Popping the smallest key settles nodes in
``(dist, side, index)`` order and relaxation is by strict ``<``, so ties
are broken by lowest index (sources before sinks) and the returned flow
is deterministic.  A phase stops popping once the smallest key's distance
exceeds ``d*``, the distance of the nearest sink with unmet demand; the
nodes beyond it cannot change the augmenting path, and their potentials
rise by ``d*``, which is what a full Dijkstra would give them.  The path
ends at the *lowest-index* deficit sink at ``d*``, not the first one
popped: a lower-index sink can reach ``d*`` later through a back edge of
zero reduced cost.  So the phase also stops as soon as it settles the
lowest-index sink that still has unmet demand: no lower-index sink can
follow, every node below ``d*`` is already settled, and the rest rise by
``d*`` either way.  A phase with ``d* = 0`` adds 0 to every potential, so
its potential update is skipped.  Each sink keeps the set of sources
whose flow it receives, so settling a sink visits its back edges only.

The final potentials are an optimal dual certificate: every pair obeys
``pot_t[j] - pot_s[i] <= c_ij`` with equality wherever flow runs, so
``sum(pot_t * demands) - sum(pot_s * supplies)`` equals the total cost.
`transport_value` returns the sink potentials alongside the cost, which
lets callers build a Kantorovich potential without a second solve.
"""

from __future__ import annotations

from heapq import heappop, heappush
from operator import mul

BACKEND = "python"
INF = 1 << 62


def _solve(supplies, demands, costs, n_src, n_snk):
    """(total, flow, pot_s, pot_t): flat flow matrix and final potentials."""
    remaining = sum(supplies)
    if remaining != sum(demands):
        raise ValueError("supplies and demands must balance")
    if costs and min(costs) < 0:
        raise ValueError("costs must be nonnegative")

    n = n_src + n_snk
    rows = [costs[i * n_snk:(i + 1) * n_snk] for i in range(n_src)]
    flow = [0] * (n_src * n_snk)
    back = [set() for _ in range(n_snk)]  # sources with flow into sink j
    rem_s = list(supplies)
    rem_d = list(demands)
    pot_s = [0] * n_src
    pot_t = [0] * n_snk
    j_low = 0  # the lowest-index sink with unmet demand

    while remaining > 0:
        while not rem_d[j_low]:
            j_low += 1
        dist_s = [INF] * n_src
        dist_t = [INF] * n_snk
        par_t = [-1] * n_snk
        par_s = [-1] * n_src
        heap = []
        for i in range(n_src):
            if rem_s[i] > 0:
                dist_s[i] = 0
                heap.append(i)  # key 0 * n + i: ascending, so a heap
        d_star = INF
        j_star = n_snk

        # a label above d_star is never popped and its node's potential
        # rises by d_star either way, so it is neither stored nor pushed;
        # a node already settled can never improve (reduced costs >= 0)
        while heap:
            d, v = divmod(heappop(heap), n)
            if d > d_star:
                break
            if v < n_src:
                if d != dist_s[v]:
                    continue
                off = d + pot_s[v]
                for j, c in enumerate(rows[v]):
                    nd = off + c - pot_t[j]
                    if nd < dist_t[j] and nd <= d_star:
                        dist_t[j] = nd
                        par_t[j] = v
                        heappush(heap, nd * n + n_src + j)
            else:
                j = v - n_src
                if d != dist_t[j]:
                    continue
                if rem_d[j] > 0:
                    d_star = d
                    if j < j_star:
                        j_star = j
                    if j == j_low:
                        break
                off = d + pot_t[j]
                for i in back[j]:
                    nd = off - costs[i * n_snk + j] - pot_s[i]
                    if nd < dist_s[i] and nd <= d_star:
                        dist_s[i] = nd
                        par_s[i] = j
                        heappush(heap, nd * n + i)
        if d_star == INF:
            raise ValueError("infeasible transportation instance")

        # bottleneck along the alternating path ending at j_star
        bott = rem_d[j_star]
        j = j_star
        while True:
            i = par_t[j]
            prev_j = par_s[i]
            if prev_j < 0:
                if rem_s[i] < bott:
                    bott = rem_s[i]
                break
            if flow[i * n_snk + prev_j] < bott:
                bott = flow[i * n_snk + prev_j]
            j = prev_j

        j = j_star
        while True:
            i = par_t[j]
            flow[i * n_snk + j] += bott
            back[j].add(i)
            prev_j = par_s[i]
            if prev_j < 0:
                rem_s[i] -= bott
                break
            k = i * n_snk + prev_j
            flow[k] -= bott
            if not flow[k]:
                back[prev_j].discard(i)
            j = prev_j
        rem_d[j_star] -= bott
        remaining -= bott

        if d_star:
            pot_s = [p + (x if x < d_star else d_star)
                     for p, x in zip(pot_s, dist_s)]
            pot_t = [p + (x if x < d_star else d_star)
                     for p, x in zip(pot_t, dist_t)]

    return sum(map(mul, flow, costs)), flow, pot_s, pot_t


def transport_plan(supplies, demands, costs, n_src, n_snk):
    """Min-cost transport of integer supplies onto integer demands.

    `costs` is a row-major flattened n_src x n_snk nonnegative integer
    matrix.  Returns (total_cost, flows) with flows a list of (i, j, amount).
    """
    total, flow, _, _ = _solve(supplies, demands, costs, n_src, n_snk)
    flows = [(*divmod(k, n_snk), f) for k, f in enumerate(flow) if f > 0]
    return total, flows


def transport_value(supplies, demands, costs, n_src, n_snk):
    """(total_cost, pot_t): the cost and the optimal sink potentials."""
    total, _, _, pot_t = _solve(supplies, demands, costs, n_src, n_snk)
    return total, pot_t
