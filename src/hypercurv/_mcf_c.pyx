# cython: boundscheck=False, wraparound=False, cdivision=True
"""Compiled integer transportation kernel.

Same successive-shortest-path algorithm and tie-breaking as
`hypercurv._mcf_py`; the two backends must return identical flows and
identical final potentials (`transport_value` returns the sink ones).
"""

from libc.stdlib cimport free, malloc

cdef long long INF = <long long>1 << 62


cdef long long _solve(long long* sup, long long* dem, long long* cost,
                      long long* flow, long long* pot_s, long long* pot_t,
                      int n_src, int n_snk) except? -1:
    cdef long long* dist_s = NULL
    cdef long long* dist_t = NULL
    cdef int* par_s = NULL
    cdef int* par_t = NULL
    cdef char* done_s = NULL
    cdef char* done_t = NULL
    cdef long long remaining = 0, best, nd, bott, d_star, total
    cdef int i, j, idx, side, j_star, prev_j

    for i in range(n_src):
        remaining += sup[i]

    dist_s = <long long*>malloc(n_src * sizeof(long long))
    dist_t = <long long*>malloc(n_snk * sizeof(long long))
    par_s = <int*>malloc(n_src * sizeof(int))
    par_t = <int*>malloc(n_snk * sizeof(int))
    done_s = <char*>malloc(n_src)
    done_t = <char*>malloc(n_snk)
    if (dist_s == NULL or dist_t == NULL or par_s == NULL or par_t == NULL
            or done_s == NULL or done_t == NULL):
        free(dist_s); free(dist_t)
        free(par_s); free(par_t); free(done_s); free(done_t)
        raise MemoryError()

    for i in range(n_src):
        pot_s[i] = 0
    for j in range(n_snk):
        pot_t[j] = 0
    for i in range(n_src * n_snk):
        flow[i] = 0

    try:
        while remaining > 0:
            for i in range(n_src):
                dist_s[i] = 0 if sup[i] > 0 else INF
                par_s[i] = -1
                done_s[i] = 0
            for j in range(n_snk):
                dist_t[j] = INF
                par_t[j] = -1
                done_t[j] = 0

            while True:
                best = INF
                side = -1
                idx = -1
                for i in range(n_src):
                    if not done_s[i] and dist_s[i] < best:
                        best = dist_s[i]; side = 0; idx = i
                for j in range(n_snk):
                    if not done_t[j] and dist_t[j] < best:
                        best = dist_t[j]; side = 1; idx = j
                if idx < 0:
                    break
                if side == 0:
                    done_s[idx] = 1
                    for j in range(n_snk):
                        if not done_t[j]:
                            nd = dist_s[idx] + cost[idx * n_snk + j] + pot_s[idx] - pot_t[j]
                            if nd < dist_t[j]:
                                dist_t[j] = nd
                                par_t[j] = idx
                else:
                    done_t[idx] = 1
                    for i in range(n_src):
                        if not done_s[i] and flow[i * n_snk + idx] > 0:
                            nd = dist_t[idx] - cost[i * n_snk + idx] + pot_t[idx] - pot_s[i]
                            if nd < dist_s[i]:
                                dist_s[i] = nd
                                par_s[i] = idx

            j_star = -1
            best = INF
            for j in range(n_snk):
                if dem[j] > 0 and dist_t[j] < best:
                    best = dist_t[j]
                    j_star = j
            if j_star < 0:
                raise ValueError("infeasible transportation instance")

            bott = dem[j_star]
            j = j_star
            while True:
                i = par_t[j]
                prev_j = par_s[i]
                if prev_j < 0:
                    if sup[i] < bott:
                        bott = sup[i]
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
                    sup[i] -= bott
                    break
                flow[i * n_snk + prev_j] -= bott
                j = prev_j
            dem[j_star] -= bott
            remaining -= bott

            d_star = dist_t[j_star]
            for i in range(n_src):
                pot_s[i] += dist_s[i] if dist_s[i] < d_star else d_star
            for j in range(n_snk):
                pot_t[j] += dist_t[j] if dist_t[j] < d_star else d_star

        total = 0
        for i in range(n_src):
            for j in range(n_snk):
                if flow[i * n_snk + j] > 0:
                    total += flow[i * n_snk + j] * cost[i * n_snk + j]
        return total
    finally:
        free(dist_s); free(dist_t)
        free(par_s); free(par_t); free(done_s); free(done_t)


cdef _run(object supplies, object demands, object costs, int n_src, int n_snk,
          bint want_flows):
    cdef long long* sup = <long long*>malloc(n_src * sizeof(long long))
    cdef long long* dem = <long long*>malloc(n_snk * sizeof(long long))
    cdef long long* cst = <long long*>malloc(n_src * n_snk * sizeof(long long))
    cdef long long* flw = <long long*>malloc(n_src * n_snk * sizeof(long long))
    cdef long long* pot_s = <long long*>malloc(n_src * sizeof(long long))
    cdef long long* pot_t = <long long*>malloc(n_snk * sizeof(long long))
    cdef long long total, check = 0
    cdef int i, j
    if (sup == NULL or dem == NULL or cst == NULL or flw == NULL
            or pot_s == NULL or pot_t == NULL):
        free(sup); free(dem); free(cst); free(flw); free(pot_s); free(pot_t)
        raise MemoryError()
    try:
        for i in range(n_src):
            sup[i] = supplies[i]
            check += sup[i]
        for j in range(n_snk):
            dem[j] = demands[j]
            check -= dem[j]
        if check != 0:
            raise ValueError("supplies and demands must balance")
        for i in range(n_src * n_snk):
            cst[i] = costs[i]
        total = _solve(sup, dem, cst, flw, pot_s, pot_t, n_src, n_snk)
        if not want_flows:
            pots = []
            for j in range(n_snk):
                pots.append(pot_t[j])
            return total, pots
        flows = []
        for i in range(n_src):
            for j in range(n_snk):
                if flw[i * n_snk + j] > 0:
                    flows.append((i, j, flw[i * n_snk + j]))
        return total, flows
    finally:
        free(sup); free(dem); free(cst); free(flw); free(pot_s); free(pot_t)


def transport_plan(supplies, demands, costs, int n_src, int n_snk):
    """Min-cost transport; see the pure-Python twin for the contract."""
    return _run(supplies, demands, costs, n_src, n_snk, True)


def transport_value(supplies, demands, costs, int n_src, int n_snk):
    """(total_cost, pot_t); see the pure-Python twin for the contract."""
    return _run(supplies, demands, costs, n_src, n_snk, False)
