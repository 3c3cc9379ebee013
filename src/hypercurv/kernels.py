"""Integer transportation kernel, in pure Python.

Successive shortest augmenting paths with Johnson potentials on the
bipartite supply/demand graph.  Everything is integer arithmetic, so the
result is exact.  Costs must be nonnegative, which keeps every reduced
cost nonnegative and Dijkstra valid from the first phase on; supplies and
demands must be nonnegative and balance, and the lengths must match the
counts.  Anything else raises `ValueError`, and every instance that
passes is feasible, since every source reaches every sink.

Each phase is one Dijkstra over the residual graph that settles nodes in
``(dist, side, index)`` order, sources before sinks, relaxes by strict
``<`` and so breaks ties by lowest index; the returned flow is
deterministic.  A phase ends at ``d*``, the distance of the nearest sink
with unmet demand, on the *lowest-index* such sink ``j_star``: a
lower-index sink can reach ``d*`` after the first one popped, through a
back edge of zero reduced cost.  It stops as soon as it settles the
lowest-index sink that still has unmet demand, or pops a distance above
``d*``; every node not settled by then has a label of at least ``d*``,
and its potential rises by ``d*`` whatever a full Dijkstra would have
labelled it.  Each sink keeps the set of sources whose flow it receives,
so settling a sink visits its back edges only.

A phase runs in two stages.

1. The nodes at distance 0.  An edge is tight when its reduced cost is
   0; an edge carrying flow is tight both ways.  A node is at distance 0
   exactly when a path of tight edges reaches it from a source with
   supply left, and the full Dijkstra pops all such nodes first, in
   ``(side, index)`` order, each sink's parent being the first source
   popped with a tight edge to it.  Stage 1 pops the same nodes in the
   same order from a heap of node numbers, but follows tight edges only:
   a source scans its list of tight sinks, built the first time it is
   popped and kept until the potentials move, and a sink its back edges.
   If it settles a sink with unmet demand, the phase ends there with
   ``d* = 0`` and the same ``j_star`` and parents as the full Dijkstra,
   and leaves every potential as it is.
2. Otherwise the sources settled at 0 relax their other edges, in the
   order they were popped, and the heap Dijkstra goes on from there.  A
   sink at 0 keeps its label, and the full Dijkstra has relaxed the same
   edges in the same order by the time it pops a positive distance, so
   every label and parent is the same when the heap takes over.  A label
   above ``d*`` is neither stored nor pushed.

The potentials rise by ``min(dist, d*)`` after a phase with ``d* > 0``,
which drops the tight lists.  With all potentials 0 only a zero cost is
tight, so the first phase runs stage 1 only if some cost is 0; without
stage 1, stage 2 starts from the sources with supply left.

A label is the reduced length of a simple path from a source with supply
left: its forward costs minus its backward ones, plus that source's
potential, which is still 0, minus the end's, which is nonnegative.  So
no label exceeds ``sum(costs)``, and ``sum(costs) + 1`` stands for "not
labelled"; a fixed sentinel would be reached by large enough costs.

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


def _solve(supplies, demands, costs, n_src, n_snk):
    """(total, flow, pot_s, pot_t): flat flow matrix and final potentials."""
    if (len(supplies) != n_src or len(demands) != n_snk
            or len(costs) != n_src * n_snk):
        raise ValueError("need n_src supplies, n_snk demands and "
                         "n_src * n_snk costs")
    if min(0, *supplies, *demands, *costs) < 0:
        raise ValueError("supplies, demands and costs must be nonnegative")
    remaining = sum(supplies)
    if remaining != sum(demands):
        raise ValueError("supplies and demands must balance")

    n = n_src + n_snk
    inf = sum(costs) + 1  # above every label; see the module docstring
    rows = [costs[i * n_snk:(i + 1) * n_snk] for i in range(n_src)]
    flow = [0] * (n_src * n_snk)
    back = [set() for _ in range(n_snk)]  # sources with flow into sink j
    rem_s = list(supplies)
    rem_d = list(demands)
    pot_s = [0] * n_src
    pot_t = [0] * n_snk
    # per-source tight sinks, valid until the potentials move; with all
    # potentials 0 only a zero cost is tight
    tight = {} if 0 in costs else None
    j_low = 0  # the lowest-index sink with unmet demand

    while remaining > 0:
        while not rem_d[j_low]:
            j_low += 1
        dist_s = [inf] * n_src
        dist_t = [inf] * n_snk
        par_t = [-1] * n_snk
        par_s = [-1] * n_src
        done = []  # the sources settled at distance 0, in pop order
        for i in range(n_src):
            if rem_s[i] > 0:
                dist_s[i] = 0
                done.append(i)
        d_star = inf
        j_star = n_snk

        if tight is not None:
            # stage 1: the nodes at distance 0, over tight edges alone, in
            # the full Dijkstra's (side, index) pop order; the sources with
            # supply left, ascending, already form a heap
            heap, done = done, []
            while heap:
                v = heappop(heap)
                if v < n_src:
                    done.append(v)
                    sinks = tight.get(v)
                    if sinks is None:
                        sinks = tight[v] = []
                        p = pot_s[v]
                        for j, c in enumerate(rows[v]):
                            if c + p == pot_t[j]:
                                sinks.append(j)
                    for j in sinks:
                        if dist_t[j]:
                            dist_t[j] = 0
                            par_t[j] = v
                            heappush(heap, n_src + j)
                else:
                    j = v - n_src
                    if rem_d[j]:
                        d_star = 0
                        if j < j_star:
                            j_star = j
                        if j == j_low:
                            break
                    for i in back[j]:
                        if dist_s[i]:
                            dist_s[i] = 0
                            par_s[i] = j
                            heappush(heap, i)

        if d_star:
            # stage 2: the loose edges of the sources at 0, in their pop
            # order, then the rest of the Dijkstra from there
            heap = []
            for i in done:
                off = pot_s[i]
                for j, c in enumerate(rows[i]):
                    nd = off + c - pot_t[j]
                    if nd < dist_t[j]:
                        dist_t[j] = nd
                        par_t[j] = i
                        heappush(heap, nd * n + n_src + j)

            # a label above d_star is never popped and its node's potential
            # rises by d_star either way, so it is neither stored nor
            # pushed; a settled node can never improve (reduced costs >= 0)
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
            tight = {}

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
