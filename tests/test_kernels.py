"""The transport kernel's values and dual certificate."""

import random

import pytest

from hypercurv import kernels


def random_instance(rng, max_side=6, max_supply=30, max_cost=9):
    ns = rng.randint(1, max_side)
    nt = rng.randint(1, max_side)
    supplies = [rng.randint(0, max_supply) for _ in range(ns)]
    if sum(supplies) == 0:
        supplies[0] = 1
    total = sum(supplies)
    cuts = sorted(rng.randint(0, total) for _ in range(nt - 1))
    demands = [b - a for a, b in zip([0] + cuts, cuts + [total])]
    costs = [rng.randint(0, max_cost) for _ in range(ns * nt)]
    return supplies, demands, costs, ns, nt


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
        # the final potentials are feasible, tight on every used arc and
        # reach the primal cost (strong duality)
        rng = random.Random(2718)
        for _ in range(300):
            sup, dem, costs, ns, nt = random_instance(rng)
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
