"""Integer transportation kernel, in pure Python.

Successive shortest augmenting paths with Johnson potentials on the
bipartite supply/demand graph.  Everything is integer arithmetic, so the
result is exact; ties are broken by lowest index (sources scanned before
sinks) which makes the returned flow deterministic.

The final potentials are an optimal dual certificate: every pair obeys
``pot_t[j] - pot_s[i] <= c_ij`` with equality wherever flow runs, so
``sum(pot_t * demands) - sum(pot_s * supplies)`` equals the total cost.
`transport_value` returns the sink potentials alongside the cost, which
lets callers build a Kantorovich potential without a second solve.
"""

from __future__ import annotations

BACKEND = "python"
INF = 1 << 62


def _solve(supplies, demands, costs, n_src, n_snk):
    """(total, flow, pot_s, pot_t): flat flow matrix and final potentials."""
    if sum(supplies) != sum(demands):
        raise ValueError("supplies and demands must balance")
    flow = [0] * (n_src * n_snk)
    rem_s = list(supplies)
    rem_d = list(demands)
    pot_s = [0] * n_src
    pot_t = [0] * n_snk
    remaining = sum(rem_s)

    while remaining > 0:
        dist_s = [INF] * n_src
        dist_t = [INF] * n_snk
        par_t = [-1] * n_snk
        par_s = [-1] * n_src
        done_s = [False] * n_src
        done_t = [False] * n_snk
        for i in range(n_src):
            if rem_s[i] > 0:
                dist_s[i] = 0

        while True:
            best = INF
            side = -1
            idx = -1
            for i in range(n_src):
                if not done_s[i] and dist_s[i] < best:
                    best, side, idx = dist_s[i], 0, i
            for j in range(n_snk):
                if not done_t[j] and dist_t[j] < best:
                    best, side, idx = dist_t[j], 1, j
            if idx < 0:
                break
            if side == 0:
                done_s[idx] = True
                base = idx * n_snk
                for j in range(n_snk):
                    if not done_t[j]:
                        nd = dist_s[idx] + costs[base + j] + pot_s[idx] - pot_t[j]
                        if nd < dist_t[j]:
                            dist_t[j] = nd
                            par_t[j] = idx
            else:
                done_t[idx] = True
                for i in range(n_src):
                    if not done_s[i] and flow[i * n_snk + idx] > 0:
                        nd = dist_t[idx] - costs[i * n_snk + idx] + pot_t[idx] - pot_s[i]
                        if nd < dist_s[i]:
                            dist_s[i] = nd
                            par_s[i] = idx

        j_star = -1
        best = INF
        for j in range(n_snk):
            if rem_d[j] > 0 and dist_t[j] < best:
                best = dist_t[j]
                j_star = j
        if j_star < 0:
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
            prev_j = par_s[i]
            if prev_j < 0:
                rem_s[i] -= bott
                break
            flow[i * n_snk + prev_j] -= bott
            j = prev_j
        rem_d[j_star] -= bott
        remaining -= bott

        d_star = dist_t[j_star]
        for i in range(n_src):
            pot_s[i] += dist_s[i] if dist_s[i] < d_star else d_star
        for j in range(n_snk):
            pot_t[j] += dist_t[j] if dist_t[j] < d_star else d_star

    total = 0
    for k, f in enumerate(flow):
        if f > 0:
            total += f * costs[k]
    return total, flow, pot_s, pot_t


def transport_plan(supplies, demands, costs, n_src, n_snk):
    """Min-cost transport of integer supplies onto integer demands.

    `costs` is a row-major flattened n_src x n_snk integer matrix.
    Returns (total_cost, flows) with flows a list of (i, j, amount).
    """
    total, flow, _, _ = _solve(supplies, demands, costs, n_src, n_snk)
    flows = [(*divmod(k, n_snk), f) for k, f in enumerate(flow) if f > 0]
    return total, flows


def transport_value(supplies, demands, costs, n_src, n_snk):
    """(total_cost, pot_t): the cost and the optimal sink potentials."""
    total, _, _, pot_t = _solve(supplies, demands, costs, n_src, n_snk)
    return total, pot_t
