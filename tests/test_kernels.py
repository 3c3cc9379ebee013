"""The transport kernel's values and dual certificate, and its identity
with the linear-scan kernel it replaced."""

import math
import random

import pytest

from hypercurv import kernels

INF = math.inf


def _reference_solve(supplies, demands, costs, n_src, n_snk):
    """The linear-scan kernel the heap-ordered one replaced, kept verbatim
    but for its sentinel, now `math.inf`: every phase runs a full Dijkstra
    over all nodes."""
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


def random_instance(rng, max_side=6, max_supply=30, max_cost=9, shape=None,
                    min_cost=0):
    ns, nt = shape or (rng.randint(1, max_side), rng.randint(1, max_side))
    supplies = [rng.randint(0, max_supply) for _ in range(ns)]
    if sum(supplies) == 0:
        supplies[0] = 1
    total = sum(supplies)
    cuts = sorted(rng.randint(0, total) for _ in range(nt - 1))
    demands = [b - a for a, b in zip([0] + cuts, cuts + [total])]
    costs = [rng.randint(min_cost, max_cost) for _ in range(ns * nt)]
    return supplies, demands, costs, ns, nt


def assert_certificate(sup, dem, costs, ns, nt):
    """The final potentials are feasible, tight on every used arc and reach
    the primal cost (strong duality)."""
    total, flow, pot_s, pot_t = kernels._solve(sup, dem, costs, ns, nt)
    for i in range(ns):
        for j in range(nt):
            c = costs[i * nt + j]
            assert pot_t[j] - pot_s[i] <= c
            if flow[i * nt + j] > 0:
                assert pot_t[j] - pot_s[i] == c
    dual = (sum(p * d for p, d in zip(pot_t, dem))
            - sum(p * s for p, s in zip(pot_s, sup)))
    assert dual == total


def assert_same_as_reference(sup, dem, costs, ns, nt):
    """Cost, flow and both potentials equal the linear-scan kernel's."""
    assert (kernels._solve(sup, dem, costs, ns, nt)
            == _reference_solve(sup, dem, costs, ns, nt))


class TestPureKernel:
    def test_single_cell(self):
        total, _ = kernels.transport_value([5], [5], [3], 1, 1)
        assert total == 15

    def test_prefers_cheap_route(self):
        # two sources, one demands from the cheaper
        total, flows = kernels.transport_plan([2, 2], [1, 3],
                                                [0, 5, 5, 0], 2, 2)
        assert total == 5  # 1 unit must cross at cost 5
        assert (0, 0, 1) in flows

    def test_balance_required(self):
        with pytest.raises(ValueError):
            total, _ = kernels.transport_value([2], [1], [1], 1, 1)

    def test_negative_cost_rejected(self):
        # the early exit needs nonnegative reduced costs from the first phase
        with pytest.raises(ValueError, match="nonnegative"):
            kernels.transport_value([1, 1], [1, 1], [0, 1, -1, 0], 2, 2)

    @pytest.mark.parametrize("args", [
        ([2, -1], [1], [1, 1], 2, 1),  # balances, but ships no supply
        ([1], [2, -1], [1, 1], 1, 2),
    ])
    def test_negative_supply_or_demand_rejected(self, args):
        with pytest.raises(ValueError, match="nonnegative"):
            kernels._solve(*args)

    @pytest.mark.parametrize("args", [
        ([1, 1], [2], [1, 1], 3, 1),  # too few supplies
        ([1, 1, 1], [3], [1, 1], 2, 1),  # too many supplies
        ([2], [1, 1], [1, 1], 1, 3),  # too few demands
        ([1, 1], [1, 1], [1, 1, 1], 2, 2),  # costs too short
        ([1, 1], [1, 1], [1, 1, 1, 1, 1], 2, 2),  # costs too long
    ])
    def test_shape_mismatch_rejected(self, args):
        with pytest.raises(ValueError, match="need n_src supplies"):
            kernels._solve(*args)

    @pytest.mark.parametrize("big", [1 << 62, 1 << 70])
    def test_huge_costs(self, big):
        # a distance as large as any fixed sentinel stays a distance
        assert kernels.transport_value([1], [1], [big], 1, 1) == (big, [big])
        # the second phase reroutes source 0 through a back edge, with
        # labels up to 2 * big
        sup, dem = [1, 1], [1, 1]
        costs = [big, 2 * big,
                 big, 3 * big]
        assert kernels._solve(sup, dem, costs, 2, 2) == (
            3 * big, [0, 1, 1, 0], [0, 0], [big, 2 * big])
        assert_certificate(sup, dem, costs, 2, 2)
        assert_same_as_reference(sup, dem, costs, 2, 2)

    def test_brute_force_tiny(self):
        # exhaustive check on 2x2 instances against direct enumeration
        rng = random.Random(3)
        for _ in range(200):
            s = [rng.randint(0, 4), rng.randint(0, 4)]
            tot = sum(s)
            d0 = rng.randint(0, tot)
            d = [d0, tot - d0]
            c = [rng.randint(0, 5) for _ in range(4)]
            got, _ = kernels.transport_value(s, d, c, 2, 2)
            best = None
            for f00 in range(0, min(s[0], d[0]) + 1):
                f01 = s[0] - f00
                f10 = d[0] - f00
                f11 = s[1] - f10
                if min(f01, f10, f11) < 0 or f01 > d[1]:
                    continue
                cost = f00 * c[0] + f01 * c[1] + f10 * c[2] + f11 * c[3]
                best = cost if best is None else min(best, cost)
            assert got == best

    def test_dual_certificate(self):
        rng = random.Random(2718)
        for _ in range(300):
            assert_certificate(*random_instance(rng))

    def test_value_potentials_c_transform(self):
        # transport_value's sink potentials alone certify the optimum: with
        # the c-transform g_i = min_j (c_ij - pot_t[j]) on the sources the
        # dual objective equals the returned cost
        rng = random.Random(1618)
        for _ in range(300):
            sup, dem, costs, ns, nt = random_instance(rng)
            total, pot_t = kernels.transport_value(sup, dem, costs, ns, nt)
            assert total == kernels.transport_plan(sup, dem, costs, ns, nt)[0]
            g = [min(costs[i * nt + j] - pot_t[j] for j in range(nt))
                 for i in range(ns)]
            dual = (sum(gi * s for gi, s in zip(g, sup))
                    + sum(p * d for p, d in zip(pot_t, dem)))
            assert dual == total


class TestAgainstReference:
    """Each phase settles the same nodes in the same order as the linear
    scan up to the deficit sink it stops at: first the nodes at distance 0
    over the tight edges, then, if no deficit sink is among them, the loose
    edges of the sources already settled, in the same order, and the rest
    by the heap.  So it must find the same augmenting paths and return the
    same flow and potentials."""

    def test_seeded_instances(self):
        # every shape from 1x1 to 10x10 with costs in 0..4, then every
        # shape up to 16x16 (the largest curvature instances have about
        # 240 cells) with hop-like costs in 1..4; small costs make ties
        # frequent, and random_instance draws zero supplies and demands
        rng = random.Random(10)
        for ns in range(1, 11):
            for nt in range(1, 11):
                for _ in range(30):
                    assert_same_as_reference(*random_instance(
                        rng, max_supply=12, max_cost=4, shape=(ns, nt)))
        rng = random.Random(16)
        for ns in range(1, 17):
            for nt in range(1, 17):
                for _ in range(8):
                    assert_same_as_reference(*random_instance(
                        rng, max_supply=12, max_cost=4, shape=(ns, nt),
                        min_cost=1))

    def test_zero_cost_in_first_phase(self):
        # With all potentials 0 only a zero cost is tight, so the first
        # phase searches the tight graph only because of the two zeros:
        # it reaches sink 1 from source 0 and sink 0 from source 1, and
        # ends at sink 0, the lowest index, with no potential update.  The
        # second phase reuses source 0's tight list and ends at sink 1.
        sup, dem = [2, 1], [1, 2]
        costs = [1, 0,
                 0, 1]
        assert kernels._solve(sup, dem, costs, 2, 2) == (
            0, [0, 2, 1, 0], [0, 0], [0, 0])
        assert_same_as_reference(sup, dem, costs, 2, 2)

    def test_resumed_phase_relaxes_in_pop_order(self):
        # The first phase sends source 0's unit to sink 1 at d* = 2 and
        # prices both sinks at 2.  In the second phase source 1 reaches
        # sink 1 at 0, whose back edge reaches source 0 at 0, so the
        # sources settle at 0 in the order 1, 0; no sink short of demand
        # is at 0, so the phase goes on to sink 0, which both sources
        # reach at 1.  Source 1 settled first, so it is sink 0's parent
        # and the flow runs 1 -> 0; relaxing by index would make it 0 and
        # move source 0's unit instead, at the same cost.
        sup, dem = [1, 1], [1, 1]
        costs = [3, 2,
                 3, 2]
        assert kernels._solve(sup, dem, costs, 2, 2) == (
            5, [0, 1, 1, 0], [0, 0], [3, 2])
        assert_same_as_reference(sup, dem, costs, 2, 2)

    def test_potential_update_drops_tight_lists(self):
        # Sources 0 and 1 are tight only to sink 2 while the potentials
        # are 0.  The second phase reaches sink 0 at d* = 1 and raises
        # the potentials of sinks 0 and 1 to 1, which makes source 1
        # tight to sink 0.  The third phase must see that edge and end at
        # sink 0 from source 1; source 1's old list, [2], would route the
        # unit through source 0 instead.
        sup, dem = [2, 2], [2, 1, 1]
        costs = [1, 1, 0,
                 1, 3, 0]
        assert kernels._solve(sup, dem, costs, 2, 3) == (
            3, [0, 1, 1, 2, 0, 0], [0, 0], [1, 1, 0])
        assert_same_as_reference(sup, dem, costs, 2, 3)

    def test_lowest_index_deficit_sink(self):
        # In the third phase sources 1 and 2 have supply left and sinks 0
        # and 1 demand.  Sink 1 is popped first at d* = 0.  Sink 0 reaches
        # d* = 0 only afterwards, through the zero-reduced-cost back edge
        # from sink 2 to source 0 and then the arc from source 0.  The
        # path must end at sink 0, the lower index; ending it at the first
        # deficit sink popped gives another optimal flow of the same cost.
        sup, dem = [2, 1, 2], [2, 2, 1]
        costs = [1, 1, 0,
                 2, 1, 0,
                 2, 2, 2]
        total, flow, _, pot_t = kernels._solve(sup, dem, costs, 3, 3)
        assert (total, flow, pot_t) == (6, [2, 0, 0, 0, 0, 1, 0, 2, 0],
                                         [2, 2, 1])
        assert_same_as_reference(sup, dem, costs, 3, 3)

    def test_stops_at_lowest_deficit_sink(self):
        # In the second phase source 0 reaches sink 0 at 1, the back edge
        # of sink 0 reaches source 1 at 1, and source 1 reaches sinks 1
        # and 2 at 1.  Sink 1 is then the lowest-index sink with unmet
        # demand, so the phase stops there with d* = 1 while sink 2, also
        # short, is still on the heap at 1.  Its potential rises by d*
        # all the same, and the third phase prices sink 2 with it.
        sup, dem = [2, 1], [1, 1, 1]
        costs = [1, 2, 2,
                 0, 0, 0]
        assert kernels._solve(sup, dem, costs, 2, 3) == (
            3, [1, 0, 1, 0, 1, 0], [0, 2], [1, 2, 2])
        assert_same_as_reference(sup, dem, costs, 2, 3)

    def test_run_of_zero_distance_phases(self):
        # Phases two to four each reach their lowest-index short sink at
        # d* = 0 (sink 1, sink 1, then sink 2, the last two through the
        # back edge of sink 0), so none of them moves a potential; the
        # phases before and after the run have d* = 1.
        sup, dem = [3, 3], [2, 2, 2]
        costs = [1, 1, 1,
                 1, 3, 2]
        assert kernels._solve(sup, dem, costs, 2, 3) == (
            7, [0, 2, 1, 2, 0, 1], [1, 0], [1, 2, 2])
        assert_same_as_reference(sup, dem, costs, 2, 3)
