"""Stepwise-transport plans, bounds, the exact solver and normalization."""

import functools
import hashlib
import heapq
import itertools
import math
import random
import types
from fractions import Fraction

import pytest

from hypercurv import (
    ConcaveCost,
    Hypergraph,
    ProbMeasure,
    common_denominator,
    TransportPlan,
    TransportStep,
    dirac,
    generate,
    lazy_random_walk,
    normalize_plan,
    plan_cost,
    plan_coupling,
    w1,
    wh_bounds,
    wh_exact,
    wh_heuristic,
)
from hypercurv.curvature import catalog, catalog_instance, orc_alpha_h
from hypercurv.errors import (
    EndpointMismatch,
    NegativeIntermediateMass,
    NotAssociated,
    StepLeavesHyperedge,
)
from hypercurv import cli, kernels, transport
from hypercurv.measure import quantize
from hypercurv.transport import (
    COST_TOL,
    _compositions,
    _envelope,
    _exhaustive,
    _imbalance,
    _merge_pass,
    _open_groups,
    _parcel_path,
    _cut_bound,
    _push_bound,
    _put,
    _search,
    _step_prices,
    _steps_cost,
    _step_kernels,
    _structured,
    _t_groups,
    _two_paths,
    _zeroed_terms,
)
from hypercurv.wasserstein import w1_units

from conftest import (
    grid9_spread_plan,
    ladder_route_a,
    ladder_route_b,
    ladder_walks,
    random_hypergraph,
    random_measure,
)

H_LOG = ConcaveCost("log", a=1)
H_LIN = ConcaveCost("linear", a=1)
H_TRUNC = ConcaveCost("truncation", a=Fraction(1, 2))


class TestPlanCost:
    @pytest.mark.parametrize("d,alpha", [(3, Fraction(9, 10)),
                                         (4, Fraction(3, 4)),
                                         (5, Fraction(7, 8))])
    def test_ladder_route_a_formula(self, d, alpha):
        H = generate("ladder", d)
        plan = ladder_route_a(H, d, alpha)
        b = 1 - alpha
        for h in (H_LOG, H_TRUNC):
            want = (d * h.eval(b / 2) + 2 * h.eval(alpha)
                    + (d - 2) * h.eval(1 - b / 2))
            assert plan_cost(H, h, plan) == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("d,alpha", [(3, Fraction(9, 10)),
                                         (4, Fraction(3, 4))])
    def test_ladder_route_b_formula(self, d, alpha):
        H = generate("ladder", d)
        plan = ladder_route_b(H, d, alpha)
        b = 1 - alpha
        for h in (H_LOG, H_TRUNC):
            want = (2 * h.eval(b / 2) + 2 * h.eval(1 - b / 2)
                    + (d - 2) * h.h1)
            assert plan_cost(H, h, plan) == pytest.approx(want, abs=1e-12)

    def test_empty_plan(self):
        H = generate("complete", 3)
        mu = dirac(H, "v0")
        plan = TransportPlan(mu, mu, ())
        assert plan_cost(H, H_LOG, plan) == 0.0

    def test_step_leaves_hyperedge(self):
        H = generate("path", 2)
        plan = TransportPlan(dirac(H, "v0"), dirac(H, "v2"),
                             (TransportStep(0, (("v0", "v2", Fraction(1)),)),))
        with pytest.raises(StepLeavesHyperedge):
            plan_cost(H, H_LOG, plan)

    @pytest.mark.parametrize("move", [("v0", "v1", Fraction(0)),
                                      ("v0", "v0", Fraction(1))])
    def test_malformed_move(self, move):
        # a move of no mass, or from a vertex to itself, is refused even
        # inside its hyperedge
        H = generate("path", 2)
        mu = dirac(H, "v0")
        plan = TransportPlan(mu, mu, (TransportStep(0, (move,)),))
        with pytest.raises(StepLeavesHyperedge) as exc:
            plan_cost(H, H_LOG, plan)
        assert "malformed move" in str(exc.value)

    def test_negative_intermediate(self):
        H = generate("path", 2)
        plan = TransportPlan(
            dirac(H, "v0"), dirac(H, "v2"),
            (TransportStep(1, (("v1", "v2", Fraction(1)),)),
             TransportStep(0, (("v0", "v1", Fraction(1)),))))
        with pytest.raises(NegativeIntermediateMass):
            plan_cost(H, H_LOG, plan)

    def test_endpoint_mismatch(self):
        H = generate("path", 2)
        plan = TransportPlan(dirac(H, "v0"), dirac(H, "v2"),
                             (TransportStep(0, (("v0", "v1", Fraction(1)),)),))
        with pytest.raises(EndpointMismatch):
            plan_cost(H, H_LOG, plan)

    def test_cancelling_moves_cost_net_mass(self):
        # a step may shuffle mass both ways; only the net difference costs
        H = generate("complete", 3)
        mu = lazy_random_walk(H, "v0", Fraction(1, 2))
        plan = TransportPlan(mu, mu, (TransportStep(
            0, (("v0", "v1", Fraction(1, 4)), ("v1", "v0", Fraction(1, 4)))),))
        assert plan_cost(H, H_LOG, plan) == 0.0

    def test_relay_costs_what_arrives(self):
        # a -> b and b -> c in one step move m from a to c: h(m), not h(2m)
        H = Hypergraph(["a", "b", "c"], [("a", "b", "c")])
        m = Fraction(1, 2)
        plan = TransportPlan(
            ProbMeasure({"a": m, "b": m}), ProbMeasure({"b": m, "c": m}),
            (TransportStep(0, (("a", "b", m), ("b", "c", m))),))
        assert plan.steps[0].moved_mass == m
        for h in (H_LOG, H_TRUNC):
            assert plan_cost(H, h, plan) == h.eval(m)


class TestBounds:
    def test_dirac_pair_tight(self):
        H = generate("cycle", 6)
        lo, hi = wh_bounds(H, H_LOG, dirac(H, "v0"), dirac(H, "v3"))
        assert lo == pytest.approx(3 * H_LOG.h1, abs=1e-12)
        assert hi == pytest.approx(3 * H_LOG.h1, abs=1e-12)

    def test_equal_measures(self):
        H = generate("cycle", 6)
        m = lazy_random_walk(H, "v0", Fraction(1, 3))
        assert wh_bounds(H, H_LOG, m, m) == (0.0, 0.0)

    def test_k3_bracket(self):
        H = generate("complete", 3)
        mu = lazy_random_walk(H, "v0", Fraction(1, 2))
        nu = lazy_random_walk(H, "v1", Fraction(1, 2))
        lo, hi = wh_bounds(H, H_LOG, mu, nu)
        wh = wh_exact(H, H_LOG, mu, nu).value
        assert lo == pytest.approx(math.log(2) / 4, abs=1e-12)
        assert lo <= wh <= hi <= H_LOG.hp0 * 0.25 + 1e-12

    def test_power_family_still_bracketed(self):
        H = generate("cycle", 5)
        h = ConcaveCost("power", a=Fraction(1, 2))
        mu = lazy_random_walk(H, "v0", Fraction(1, 2))
        nu = lazy_random_walk(H, "v1", Fraction(1, 2))
        lo, hi = wh_bounds(H, h, mu, nu)
        assert math.isfinite(hi)
        wh = wh_exact(H, h, mu, nu).value
        assert lo - 1e-12 <= wh <= hi + 1e-12


class TestExact:
    def test_k3_log_closed_form(self):
        H = generate("complete", 3)
        mu = lazy_random_walk(H, "v0", Fraction(1, 2))
        nu = lazy_random_walk(H, "v1", Fraction(1, 2))
        res = wh_exact(H, H_LOG, mu, nu)
        assert res.value == pytest.approx(math.log(5 / 4), abs=1e-12)
        assert res.optimality == "exact"

    def test_dirac_path_two_full_steps(self):
        H = generate("path", 2)
        res = wh_exact(H, H_LOG, dirac(H, "v0"), dirac(H, "v2"))
        assert res.value == pytest.approx(2 * H_LOG.h1, abs=1e-12)
        assert len(res.plan.steps) == 2
        assert all(s.moved_mass == 1 for s in res.plan.steps)

    def test_ladder_route_b_selected(self):
        H = generate("ladder", 3)
        mu, nu = ladder_walks(H, 3, Fraction(9, 10))
        res = wh_exact(H, H_TRUNC, mu, nu)
        assert res.value == pytest.approx(1.6, abs=1e-9)

    def test_plan_revalidates(self):
        rng = random.Random(41)
        for _ in range(15):
            H = random_hypergraph(rng)
            mu = random_measure(rng, H)
            nu = random_measure(rng, H)
            res = wh_exact(H, H_LOG, mu, nu)
            assert plan_cost(H, H_LOG, res.plan) == pytest.approx(
                res.value, abs=1e-12)
            assert res.plan.start == mu and res.plan.end == nu

    def test_linear_equals_scaled_w1(self):
        rng = random.Random(42)
        h = ConcaveCost("linear", a=Fraction(3, 2))
        for _ in range(15):
            H = random_hypergraph(rng)
            mu = random_measure(rng, H)
            nu = random_measure(rng, H)
            val = w1(H, mu, nu)[0]
            res = wh_exact(H, h, mu, nu)
            assert res.value == pytest.approx(1.5 * float(val), abs=1e-12)

    def test_symmetry(self, rng):
        for _ in range(10):
            H = random_hypergraph(rng)
            mu = random_measure(rng, H)
            nu = random_measure(rng, H)
            a = wh_exact(H, H_LOG, mu, nu).value
            b = wh_exact(H, H_LOG, nu, mu).value
            assert a == pytest.approx(b, abs=1e-12)

    def test_triangle_at_shared_denominator(self, rng):
        from hypercurv import common_denominator

        for _ in range(8):
            H = random_hypergraph(rng)
            a = random_measure(rng, H)
            b = random_measure(rng, H)
            c = random_measure(rng, H)
            D = common_denominator([a, b, c])

            def on_grid(m, n):
                return _search(H, H_LOG, m, n, D, 300_000, False).value

            ab, bc, ac = on_grid(a, b), on_grid(b, c), on_grid(a, c)
            assert ac <= ab + bc + 1e-9

    def test_identity_of_indiscernibles(self, rng):
        H = random_hypergraph(rng)
        mu = random_measure(rng, H)
        res = wh_exact(H, H_LOG, mu, mu)
        assert res.value == 0.0 and res.plan.steps == ()
        nu = random_measure(rng, H)
        if nu != mu:
            assert wh_exact(H, H_LOG, mu, nu).value > 0

    def test_grid_stability_refine(self):
        # doubling the quantization grid must not change the optimum
        for alpha in (Fraction(1, 4), Fraction(3, 4)):
            for H, x, y in [(generate("complete", 4), "v0", "v1"),
                            (generate("cycle", 6), "v0", "v1"),
                            (generate("path", 3), "v0", "v3")]:
                mu = lazy_random_walk(H, x, alpha)
                nu = lazy_random_walk(H, y, alpha)
                D = common_denominator([mu, nu])
                v1_ = wh_exact(H, H_LOG, mu, nu).value
                v2_ = _search(H, H_LOG, mu, nu, 2 * D, 300_000, False).value
                assert v1_ == pytest.approx(v2_, abs=1e-9)

    def test_unpruned_matches_default(self, rng, monkeypatch):
        monkeypatch.setattr(transport, "FULL_ENUM_LIMIT", 0)
        for _ in range(12):
            H = random_hypergraph(rng)
            mu = random_measure(rng, H, max_denominator=8)
            nu = random_measure(rng, H, max_denominator=8)
            full = wh_exact(H, H_LOG, mu, nu, unpruned=True)
            fast = wh_exact(H, H_LOG, mu, nu)
            assert full.value == pytest.approx(fast.value, abs=1e-12)

    def test_structured_family_matches_ground_truth(self, monkeypatch):
        # the step family used beyond the exhaustive-enumeration threshold
        # must reproduce exhaustive optima across cost families
        monkeypatch.setattr(transport, "FULL_ENUM_LIMIT", 0)
        rng = random.Random(314159)
        costs = [H_LOG, H_TRUNC, ConcaveCost("trunc_log_combo", a=Fraction(1, 2)),
                 ConcaveCost("power", a=Fraction(1, 2))]
        for trial in range(40):
            H = random_hypergraph(rng)
            mu = random_measure(rng, H, max_denominator=8)
            nu = random_measure(rng, H, max_denominator=8)
            h = costs[trial % len(costs)]
            full = wh_exact(H, h, mu, nu, unpruned=True)
            fast = wh_exact(H, h, mu, nu)
            assert fast.value == pytest.approx(full.value, abs=1e-9)

    def test_budget_exhaustion_flagged(self):
        H = generate("grid9")
        mu = lazy_random_walk(H, "x", Fraction(9, 10))
        nu = lazy_random_walk(H, "y", Fraction(9, 10))
        res = wh_exact(H, H_LOG, mu, nu, max_states=5)
        assert res.optimality == "heuristic-upper-bound"
        assert plan_cost(H, H_LOG, res.plan) == pytest.approx(res.value,
                                                              abs=1e-12)
        assert res.value >= res.lower_bound - 1e-12
        # the open states' keys certify more than h(1) * W1, and no more
        # than the optimum (TestDualBound.test_grid9_values_pinned)
        assert H_LOG.h1 * float(w1(H, mu, nu)[0]) < res.lower_bound \
            <= 0.6970609473203428

    def test_budget_lower_bound_below_optimum(self):
        # grid9 x,y at 1/4 is exact after 223 expansions; every smaller
        # budget certifies a bound between h(1) * W1 and the optimum.  The
        # greedy seed is optimal here, so the pinned values, the least
        # open keys, show that the bound does not just trail the incumbent.
        H = generate("grid9")
        mu = lazy_random_walk(H, "x", Fraction(1, 4))
        nu = lazy_random_walk(H, "y", Fraction(1, 4))
        optimum = 0.5784946823875035
        floor = H_LOG.h1 * float(w1(H, mu, nu)[0])
        pinned = {5: 0.5346484794158003, 50: 0.5550320214455002,
                  150: 0.5714258312214225}
        bounds = []
        for budget in (1, 5, 50, 150, 200, 222):
            res = wh_exact(H, H_LOG, mu, nu, max_states=budget)
            assert res.optimality == "heuristic-upper-bound"
            # only the states actually expanded are counted
            assert res.states_expanded == budget
            assert floor < res.lower_bound <= optimum <= res.value + 1e-12
            if budget in pinned:
                assert res.lower_bound == pytest.approx(pinned[budget],
                                                        abs=1e-12)
            bounds.append(res.lower_bound)
        assert bounds == sorted(bounds)
        res = wh_exact(H, H_LOG, mu, nu, max_states=223)
        assert res.optimality == "exact"
        assert res.states_expanded == 223
        assert res.lower_bound == floor

    def test_budget_exhaustion_after_goal_pushed(self, monkeypatch):
        # The step into the goal is tight for the envelope bound (inside a
        # hyperedge W1 is the moved mass m <= 1, and envelope(m) = h(m)), so
        # the goal is popped right after it is pushed.  Half the envelope is
        # still admissible and leaves states to expand in between (the
        # cut bound, built on the envelope, halves with it): on
        # grid9 x,y at 1/8 the goal is pushed by expansion 1,185 and popped
        # at 12,110, so a budget of 1,500 runs out with the goal on the heap.
        envelope = transport._envelope
        monkeypatch.setattr(transport, "_envelope",
                            lambda h1, price, w, D:
                            0.5 * envelope(h1, price, w, D))
        H = generate("grid9")
        mu = lazy_random_walk(H, "x", Fraction(1, 8))
        nu = lazy_random_walk(H, "y", Fraction(1, 8))
        greedy = wh_heuristic(H, H_LOG, mu, nu).value
        res = wh_exact(H, H_LOG, mu, nu, max_states=1500)
        assert res.optimality == "heuristic-upper-bound"
        assert plan_cost(H, H_LOG, res.plan) == pytest.approx(res.value,
                                                              abs=1e-12)
        assert res.value <= greedy
        # the searched plan to the pushed goal, not the greedy seed
        assert res.value < greedy - 1e-12

    def test_small_scale_cost_same_search(self):
        # The search's slacks and heap-key rounding scale with h(1), so log
        # at a = 1e-12 runs the search of log at a = 1: same status, same
        # expansions, value times a.
        H = generate("grid9")
        mu = lazy_random_walk(H, "x", Fraction(1, 2))
        nu = lazy_random_walk(H, "y", Fraction(1, 2))
        a = Fraction(1, 10**12)
        unit = wh_exact(H, H_LOG, mu, nu)
        tiny = wh_exact(H, ConcaveCost("log", a=a), mu, nu)
        assert unit.optimality == tiny.optimality == "exact"
        assert tiny.value / float(a) == pytest.approx(unit.value, rel=1e-12)
        assert tiny.states_expanded == unit.states_expanded


class TestEnvelope:
    """The search's envelope, priced in grid units, against its rational
    definition int(w)*h(1) + h(w - int(w)) at w = units / D."""

    @pytest.mark.parametrize("h", [
        H_LIN, H_LOG, H_TRUNC,
        ConcaveCost("trunc_log_combo", a=Fraction(1, 4)),
        ConcaveCost("power", a=Fraction(1, 2)),
        ConcaveCost("tabulated", points=[(0, 0.0), (Fraction(1, 4), 0.4),
                                         (Fraction(1, 2), 0.65), (1, 1.0)]),
    ])
    def test_units_match_fraction_form(self, h):
        for D in (4, 6, 192, 2048):
            price = _step_prices(h, D)
            for w in range(3 * D + 1):
                whole = int(Fraction(w, D))
                want = whole * h.h1 + h.eval(Fraction(w, D) - whole)
                assert repr(_envelope(h.h1, price, w, D)) == repr(want)


def _never(moved, t):
    return False


def _reference_structured(cur, goal, hi):
    """The whole structured family of one key, unpruned, in generation
    order, each tuple once: the oracle of _structured's pruned stream."""
    out, seen = [], set()
    k = len(cur)
    idx = range(k)
    pos = [i for i in idx if cur[i] > 0]
    deficits = [i for i in idx if goal[i] > cur[i]]
    fill_t = [hi[i] * (goal[i] - cur[i]) for i in idx]

    def add(new, moved, t):
        tup = tuple(new)
        if tup not in seen:
            seen.add(tup)
            out.append((tup, moved, t))

    # batching: sources drain to 0 or to goal, targets fill to goal, the
    # rest piles on one residual vertex
    for r in range(1, len(pos) + 1):
        for S in itertools.combinations(pos, r):
            opts = [sorted({0, goal[s]} if 0 < goal[s] < cur[s] else {0})
                    for s in S]
            fill_cand = [t for t in deficits if t not in S]
            for drains in itertools.product(*opts):
                freed = sum(cur[s] - dv for s, dv in zip(S, drains))
                if freed <= 0:
                    continue
                t_drain = sum(hi[s] * (dv - cur[s])
                              for s, dv in zip(S, drains))
                for nfill in range(len(fill_cand) + 1):
                    for T in itertools.combinations(fill_cand, nfill):
                        need = sum(goal[t] - cur[t] for t in T)
                        if need > freed:
                            continue
                        rest = freed - need
                        t_fill = t_drain + sum(fill_t[t] for t in T)
                        residuals = [None] if rest == 0 else \
                            [t for t in idx if t not in S and t not in T]
                        for resid in residuals:
                            if rest == 0 and not T:
                                continue
                            new = list(cur)
                            for s, dv in zip(S, drains):
                                new[s] = dv
                            for t in T:
                                new[t] = goal[t]
                            if resid is not None:
                                new[resid] += rest
                            add(new, freed, t_fill + (
                                0 if resid is None else hi[resid] * rest))
    # fan-out: one source fills targets exactly to goal
    for s in pos:
        cand = [t for t in deficits if t != s]
        for r in range(1, len(cand) + 1):
            for T in itertools.combinations(cand, r):
                need = sum(goal[t] - cur[t] for t in T)
                if 0 < need <= cur[s]:
                    new = list(cur)
                    for t in T:
                        new[t] = goal[t]
                    new[s] = cur[s] - need
                    add(new, need,
                        sum(fill_t[t] for t in T) - hi[s] * need)
    return out


def _reference_exhaustive(cur, hi):
    """Every composition of cur's mass but cur, with its moved and t, in
    the order of _exhaustive: ascending t, then the values on the high
    vertices, then those on the low ones, each lexicographically."""
    out = []
    for new in _spread(sum(cur), len(cur)):
        if new != cur:
            out.append((new, sum(c - n for c, n in zip(cur, new) if c > n),
                        sum(f * (n - c) for c, n, f in zip(cur, new, hi))))
    return sorted(out, key=lambda c: (
        c[2], [n for n, f in zip(c[0], hi) if f],
        [n for n, f in zip(c[0], hi) if not f]))


def _family(cur, goal, hi, unpruned):
    """Every successor of one key, in generation order, from the reference
    enumerations: the structured family or every composition, as
    _t_groups picks."""
    if _t_groups(cur, hi, unpruned) is None:
        return _reference_structured(cur, goal, hi)
    return _reference_exhaustive(cur, hi)


def _monotone_dear(rng, M):
    """A random test of (moved, t), nondecreasing in both: a concave price
    of moved plus a random staircase in t, or thresholds on each."""
    if rng.random() < 0.3:
        m_cut, t_cut = rng.randint(0, M + 1), rng.randint(-M, M + 1)
        return lambda moved, t: moved >= m_cut or t >= t_cut
    rise = dict(zip(range(-M, M + 1), itertools.accumulate(
        rng.random() for _ in range(2 * M + 1))))
    scale = rng.uniform(0.1, 2) * rise[M]
    limit = rng.uniform(0, 1.2) * (rise[M] + scale)
    return lambda moved, t: (scale * math.log1p(moved / M) + rise[t]
                             >= limit)


class TestDualBound:
    """The Kantorovich potential behind wh_exact's kernel-free child bound."""

    @staticmethod
    def _instances(seed, count):
        rng = random.Random(seed)
        for _ in range(count):
            H = random_hypergraph(rng)
            mu = random_measure(rng, H, max_denominator=8)
            nu = random_measure(rng, H, max_denominator=8)
            D = common_denominator([mu, nu])
            yield H, quantize(H, mu, D), quantize(H, nu, D), D

    def test_potential_is_1_lipschitz_and_tight(self):
        for H, start, goal, D in self._instances(577, 40):
            units, f = w1_units(H, start, goal)
            mat = H.distance_matrix()
            for u in range(H.n):
                for v in range(H.n):
                    assert f[u] - f[v] <= mat[u][v]
            assert sum(fv * (s - g) for fv, s, g in zip(f, start, goal)) \
                == units
            assert Fraction(units, D) == w1(
                H, ProbMeasure({H.label(v): Fraction(s, D)
                                for v, s in enumerate(start) if s}),
                ProbMeasure({H.label(v): Fraction(g, D)
                             for v, g in enumerate(goal) if g}))[0]

    @pytest.mark.parametrize("unpruned", [True, False])
    def test_child_bound_sandwich(self, unpruned, monkeypatch):
        # w1u - moved <= w1u + <f, delta> <= W1(child) for every successor,
        # exhaustive (grouped by t) and structured alike
        monkeypatch.setattr(transport, "FULL_ENUM_LIMIT", 0)
        for H, start, goal, _ in self._instances(578, 30):
            w1u, f = w1_units(H, start, goal)
            for edge in H.edges:
                cur = tuple(start[v] for v in edge)
                base = min(f[v] for v in edge)
                hi = tuple(f[v] - base for v in edge)
                assert set(hi) <= {0, 1}
                goal_e = tuple(goal[v] for v in edge)
                for new, moved, t in _family(cur, goal_e, hi, unpruned):
                    dot = sum(f[v] * (n - c) for v, c, n in zip(edge, cur, new))
                    assert dot == t
                    child = list(start)
                    for v, n in zip(edge, new):
                        child[v] = n
                    assert w1u - moved <= w1u + t \
                        <= w1_units(H, child, goal)[0]

    def test_grouped_enumeration_is_complete(self):
        # skipping nothing, the t-grouped order yields every composition
        # but the current one exactly once; a dear that drops every t >= 1
        # removes exactly the compositions with t >= 1
        cur = (3, 0, 2, 1)
        hi = (0, 1, 1, 0)
        every = {c for c, _ in _compositions(sum(cur), cur, sum(cur))} - {cur}
        ts = _t_groups(cur, hi, True)
        out = [new for new, _, _ in _exhaustive(cur, hi, ts, _never)]
        assert len(out) == len(set(out)) and set(out) == every
        kept = {new for new, _, t in _exhaustive(
            cur, hi, ts, lambda moved, t: t >= 1)}
        assert kept == {c for c in every if c[1] + c[2] - 2 < 1}

    def test_stream_asks_dear_per_range(self):
        # dear is nondecreasing in moved and in t, so the stream bounds a
        # whole run of t groups with one question: a 2-vertex edge with
        # 2,049 groups, one child kept, asks dear a few dozen times where
        # asking once per group took 2,049
        cur, hi, w = (1500, 548), (1, 0), 700
        asked = []

        def dear(moved, t):
            asked.append((moved, t))
            return (math.sqrt(moved) + math.sqrt(max(w + t, 0))
                    >= math.sqrt(w) + 1e-9)

        ts = _t_groups(cur, hi, False)
        out = list(_exhaustive(cur, hi, ts, dear))
        assert out == [((800, 1248), 700, -700)]
        assert len(ts) == 2049
        assert len(asked) <= 60
        # a structured key's stream caps moved for all its children with
        # one bisection at the least t any child has: with every child
        # dear it asks about the cap alone, not about each child
        cur, goal, hi = (5, 0, 4, 1, 3), (1, 4, 0, 5, 3), (0, 1, 1, 0, 1)
        assert _t_groups(cur, hi, False) is None
        asked.clear()
        assert list(_structured(cur, goal, hi,
                                lambda moved, t: dear(0, w))) == []
        assert 0 < len(asked) <= math.ceil(math.log2(sum(cur) + 1)) + 1 \
            < len(_reference_structured(cur, goal, hi))

    def test_open_groups_match_per_t_filter(self):
        # the range skip keeps exactly the groups a per-t test keeps, on
        # contiguous t ranges and on sparse t values alike
        for n in range(300):
            rng = random.Random(n)
            lo, hi = -rng.randint(0, 40), rng.randint(0, 40)
            ts = range(lo, hi + 1)
            if n % 2:
                ts = sorted(rng.sample(ts, rng.randint(0, len(ts))))
            dear = _monotone_dear(rng, max(-lo, hi, 1))
            assert _open_groups(ts, dear) == [
                i for i, t in enumerate(ts) if not dear(abs(t), t)]

    def test_capped_compositions_filter_uncapped(self):
        rng = random.Random(812)
        for _ in range(300):
            ref = tuple(rng.randint(0, 5) for _ in range(rng.randint(0, 4)))
            total = rng.randint(0, 9) if ref else 0
            full = list(_compositions(total, ref, sum(ref)))
            if ref:
                assert len(full) == math.comb(total + len(ref) - 1,
                                              len(ref) - 1)
            for comp, took in full:
                assert sum(comp) == total
                assert took == sum(max(r - c, 0) for r, c in zip(ref, comp))
            for cap in range(-1, sum(ref) + 2):
                assert list(_compositions(total, ref, cap)) == [
                    c for c in full if c[1] <= cap]

    @staticmethod
    def _units(rng, n, D):
        """A random measure on n vertices in units of 1/D."""
        out = [0] * n
        for _ in range(D):
            out[rng.randrange(n)] += 1
        return out

    def test_every_potential_bounds_w1(self):
        # the search's bundle test: a potential taken at any state with the
        # same goal is 1-Lipschitz, so <p, xi - goal> <= W1(xi) for all xi
        rng = random.Random(579)
        for H, start, goal, D in self._instances(579, 30):
            pots = [w1_units(H, start, goal)[1]]
            pots += [w1_units(H, self._units(rng, H.n, D), goal)[1]
                     for _ in range(3)]
            for _ in range(8):
                xi = self._units(rng, H.n, D)
                units = w1_units(H, xi, goal)[0]
                for p in pots:
                    assert sum(pv * (x - g)
                               for pv, x, g in zip(p, xi, goal)) <= units

    def test_grid9_kernel_calls_pinned(self, monkeypatch):
        # a popped state that a bundle potential prunes costs no W1 solve,
        # and the start's one solve also gives the greedy seed its flows:
        # under log at 1/4, 225 kernel solves where pricing every pop makes
        # 561.  Before the private-vertex bound the two searches expanded
        # 2,224 and 6,156 states.
        calls = []
        solve = kernels._solve

        def counted(*args):
            calls.append(args)
            return solve(*args)

        monkeypatch.setattr(kernels, "_solve", counted)
        H = generate("grid9")
        for h, alpha, expanded, solves in [
                (H_LOG, Fraction(1, 4), 223, 225),
                (H_TRUNC, Fraction(1, 2), 176, 176)]:
            calls.clear()
            mu = lazy_random_walk(H, "x", alpha)
            nu = lazy_random_walk(H, "y", alpha)
            res = wh_exact(H, h, mu, nu)
            assert res.optimality == "exact"
            assert res.states_expanded == expanded
            assert len(calls) == solves

    @pytest.mark.parametrize("alpha,value", [
        (Fraction(1, 8), 0.5149524668774486),
        (Fraction(1, 4), 0.5784946823875035),
        (Fraction(1, 2), 0.6590961868185703),
        (Fraction(9, 10), 0.6970609473203428),
    ])
    def test_grid9_values_pinned(self, alpha, value):
        H = generate("grid9")
        mu = lazy_random_walk(H, "x", alpha)
        nu = lazy_random_walk(H, "y", alpha)
        res = wh_exact(H, H_LOG, mu, nu)
        assert res.optimality == "exact"
        assert res.value == pytest.approx(value, abs=COST_TOL)


class TestStructuredStream:
    """The pruned streams that serve every visit of wh_exact, against the
    reference enumerations of whole families."""

    @staticmethod
    def _keys(seed, count):
        # k = 2..5 and masses up to 16 reach both the exhaustive branch and
        # the structured family; every third key is enumerated unpruned
        rng = random.Random(seed)
        for n in range(count):
            k = rng.randint(2, 5)
            cur = [0] * k
            for _ in range(rng.randint(1, 16)):
                cur[rng.randrange(k)] += 1
            goal = [0] * k
            for _ in range(rng.randint(0, sum(cur))):
                goal[rng.randrange(k)] += 1
            hi = [rng.randint(0, 1) for _ in range(k)]
            hi[rng.randrange(k)] = 0
            yield tuple(cur), tuple(goal), tuple(hi), n % 3 == 0

    def test_stream_matches_reference(self):
        # a key's stream keeps exactly the children of its reference family
        # below a cut, in generation order, structured and exhaustive keys
        # alike; the cut falls as t rises, as the search's does
        h = H_LOG
        branches = set()
        for cur, goal, hi, unpruned in self._keys(808, 150):
            M = sum(cur)
            full = _family(cur, goal, hi, unpruned)
            k = len(cur)
            grouped = unpruned or math.comb(M + k - 1, k - 1) \
                <= transport.FULL_ENUM_LIMIT
            branches.add(grouped)
            ts = _t_groups(cur, hi, unpruned)
            assert (ts is not None) == grouped
            for new, moved, t in full:
                assert moved == sum(c - n for c, n in zip(cur, new) if c > n)
                assert t == sum(f * (n - c) for c, n, f in zip(cur, new, hi))
            rng = random.Random(M)
            offset = dict(zip(range(-M, M + 1), itertools.accumulate(
                rng.random() / M for _ in range(2 * M + 1))))
            limit = rng.uniform(0.5, 1.5)

            def dear(moved, t):
                return h.eval(Fraction(moved, M)) + offset[t] >= limit

            cut = [c for c in full if not dear(c[1], c[2])]
            if grouped:
                assert set(t for _, _, t in full) <= set(ts)
                assert list(_exhaustive(cur, hi, ts, dear)) == cut
            else:
                assert list(_structured(cur, goal, hi, dear)) == cut
        assert branches == {True, False}

    def test_stream_keeps_what_dear_keeps(self):
        # for any dear nondecreasing in moved and in t, the structured
        # stream of every key, and the exhaustive stream of every key that
        # _t_groups groups, keep exactly the children of the reference
        # family that dear keeps, in generation order
        branches = set()
        for n, (cur, goal, hi, unpruned) in enumerate(self._keys(809, 150)):
            dear = _monotone_dear(random.Random(n), sum(cur))
            family = _reference_structured(cur, goal, hi)
            assert list(_structured(cur, goal, hi, dear)) == [
                c for c in family if not dear(c[1], c[2])]
            assert list(_structured(cur, goal, hi, _never)) == family
            ts = _t_groups(cur, hi, unpruned)
            branches.add((ts is not None, unpruned))
            if ts is not None:
                full = _reference_exhaustive(cur, hi)
                assert list(_exhaustive(cur, hi, ts, dear)) == [
                    c for c in full if not dear(c[1], c[2])]
        assert branches == {(True, True), (True, False), (False, False)}

    def test_all_dear_asks_only_for_the_cap(self):
        # with every child dear, the structured stream asks dear only while
        # it bisects for the cap on moved: at most ceil(log2(M + 1)) + 1
        # times, however large the family
        sizes = []
        for cur, goal, hi, _ in self._keys(810, 150):
            for dear in (lambda moved, t: True, lambda moved, t: moved >= 1):
                asked = []

                def counted(moved, t, dear=dear):
                    asked.append((moved, t))
                    return dear(moved, t)

                assert list(_structured(cur, goal, hi, counted)) == []
                assert len(asked) <= math.ceil(math.log2(sum(cur) + 1)) + 1
            sizes.append(len(_reference_structured(cur, goal, hi)))
        assert max(sizes) > 2 * (math.ceil(math.log2(17)) + 1)

    def test_large_masses_stream(self):
        # a mass of 2**20 grid units bisects in about 21 questions and
        # keeps what a cut on moved keeps
        cur, goal, hi = (2**20, 0, 3, 0), (0, 2**19, 0, 5), (0, 1, 1, 0)
        family = _reference_structured(cur, goal, hi)
        assert list(_structured(cur, goal, hi, _never)) == family
        for cut in (1, 5, 2**19, 2**19 + 6, 2**20, 2**20 + 4):
            assert list(_structured(cur, goal, hi,
                                    lambda moved, t: moved >= cut)) == [
                c for c in family if c[1] < cut]

    def test_every_visit_streams(self, monkeypatch):
        # the enumeration picks the stream: every visit of a structured key
        # streams _structured, repeat visits included, and an instance
        # whose edges never hold more than FULL_ENUM_LIMIT compositions
        # streams _exhaustive only
        structured, named, grouped = [], [], []
        stream, t_groups = transport._structured, transport._t_groups

        def structured_stream(cur, goal, hi, dear):
            structured.append((cur, hi))
            return stream(cur, goal, hi, dear)

        def groups(cur, hi, unpruned):
            ts = t_groups(cur, hi, unpruned)
            (named if ts is None else grouped).append((cur, hi))
            return ts

        monkeypatch.setattr(transport, "_structured", structured_stream)
        monkeypatch.setattr(transport, "_t_groups", groups)
        H = generate("grid9")
        mu = lazy_random_walk(H, "x", Fraction(1, 8))
        nu = lazy_random_walk(H, "y", Fraction(1, 8))
        assert wh_exact(H, H_LOG, mu, nu).optimality == "exact"
        assert structured == named
        assert len(structured) > len(set(structured))
        # with D <= 6 an edge of five vertices holds at most 210
        # compositions, so every key streams _exhaustive
        structured.clear()
        grouped.clear()
        rng = random.Random(1717)
        for _ in range(40):
            H = random_hypergraph(rng, max_edge_size=5)
            D = rng.choice((4, 6))
            mu, nu = (ProbMeasure({H.label(v): Fraction(u, D) for v, u
                                   in enumerate(TestDualBound._units(
                                       rng, H.n, D)) if u})
                      for _ in range(2))
            wh_exact(H, H_LOG, mu, nu)
        assert structured == []
        assert len(grouped) > len(set(grouped))


class TestPushRule:
    """wh_exact pushes a child by one rule, so the streams only skip."""

    @staticmethod
    def _instances(seed):
        # selfcheck's generators under log, truncation(1/2) and power(1/2)
        # in turn, without end
        rng = random.Random(seed)
        costs = (H_LOG, H_TRUNC, ConcaveCost("power", a=Fraction(1, 2)))
        for n in itertools.count():
            H = cli._random_hypergraph(rng)
            yield (H, costs[n % 3], cli._random_measure(rng, H),
                   cli._random_measure(rng, H))

    def test_keep_everything_dear_changes_nothing(self, monkeypatch):
        # handing both streams a dear that keeps every child, and pushing
        # with the child's own L_k alone rather than never below dear's
        # bound, leaves the result, states_expanded, plan and the pushed
        # heap entries, in order, as they are; the streams do skip: they
        # yield fewer children as is than when they keep everything
        pushed, streamed = [], [0]
        exhaustive, structured = transport._exhaustive, transport._structured
        push_bound = transport._push_bound

        def own_bound(env, D, terms, own, w, bound):
            return _cut_bound(env, D, _put(env, terms, own), w)

        def push(heap, item):
            pushed.append(item)
            heapq.heappush(heap, item)

        def counted(children):
            for child in children:
                streamed[0] += 1
                yield child

        def run(H, h, mu, nu, keep_all):
            pick = (lambda dear: _never) if keep_all else (lambda dear: dear)
            monkeypatch.setattr(
                transport, "_exhaustive", lambda cur, hi, ts, dear: counted(
                    exhaustive(cur, hi, ts, pick(dear))))
            monkeypatch.setattr(
                transport, "_structured", lambda cur, goal, hi, dear: counted(
                    structured(cur, goal, hi, pick(dear))))
            monkeypatch.setattr(transport, "_push_bound",
                                own_bound if keep_all else push_bound)
            pushed.clear()
            streamed[0] = 0
            res = wh_exact(H, h, mu, nu)
            return (_record(res), list(pushed)), streamed[0]

        def skips(H, h, mu, nu):
            as_is, kept = run(H, h, mu, nu, False)
            if not as_is[0][3]:
                # nothing expanded, so no stream ran and dear was never
                # asked: keeping everything would change nothing
                assert (kept, as_is[1]) == (0, [])
                return False
            keep_all, every = run(H, h, mu, nu, True)
            assert as_is == keep_all
            return kept < every

        monkeypatch.setattr(transport, "heapq", types.SimpleNamespace(
            heappush=push, heappop=heapq.heappop))
        # a certified seed returns before any stream runs, so instances
        # are drawn until 300 of them skip, 4,000 at most: seed 2100
        # draws 2,699, of which 300 are searched
        skipped = 0
        for H, h, mu, nu in itertools.islice(self._instances(2100), 4000):
            skipped += skips(H, h, mu, nu)
            if skipped == 300:
                break
        assert skipped == 300
        # grid9 x,y under log is searched, and skips, at every idleness
        H = generate("grid9")
        for alpha in (Fraction(1, 8), Fraction(1, 4), Fraction(1, 2)):
            assert skips(H, H_LOG, lazy_random_walk(H, "x", alpha),
                         lazy_random_walk(H, "y", alpha))


COSTS = (H_LOG, H_TRUNC, H_LIN, ConcaveCost("power", a=Fraction(1, 2)),
         ConcaveCost("trunc_log_combo", a=Fraction(1, 2)),
         ConcaveCost("tabulated", points=[(0, 0), (Fraction(1, 4), 0.4),
                                          (Fraction(1, 2), 0.6), (1, 0.8)]))


def _spread(total, k):
    """Every k-tuple of non-negative integers summing to total."""
    if k == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _spread(total - first, k - 1):
            yield (first,) + rest


def _distances_to(H, h, goal, D):
    """The cheapest plan cost to goal from every state on the grid of
    1/D: Dijkstra from goal over every redistribution of every
    hyperedge, with no bound at all.  A step reversed moves the same
    mass, so distances from goal are distances to it."""
    price = [h.eval(Fraction(m, D)) for m in range(D + 1)]
    dist, done = {goal: 0.0}, set()
    heap = [(0.0, goal)]
    while heap:
        d, state = heapq.heappop(heap)
        if state in done:
            continue
        done.add(state)
        for edge in H.edges:
            cur = [state[v] for v in edge]
            for new in _spread(sum(cur), len(edge)):
                moved = sum(max(n - c, 0) for n, c in zip(new, cur))
                if not moved:
                    continue
                child = list(state)
                for v, n in zip(edge, new):
                    child[v] = n
                child = tuple(child)
                if d + price[moved] < dist.get(child, math.inf):
                    dist[child] = d + price[moved]
                    heapq.heappush(heap, (dist[child], child))
    return dist


def _private_groups(H):
    # per edge, its private vertices (those in no other edge) as singleton
    # groups: L_e from the private vertices alone, which the cut groups
    # never fall below
    return [tuple((v,) for v in e if len(H.incidence[v]) == 1)
            for e in H.edges]


def _as_measure(H, units, D):
    return ProbMeasure({H.label(v): Fraction(u, D)
                        for v, u in enumerate(units) if u})


def _admissible_counts(instances):
    """Check the bounds the search prunes on against the plain Dijkstra
    over the grid, on (H, h, D, start, goal) instances.

    lb(L(state), W1(state)) never exceeds the cheapest plan from the
    state, nor does the bound each child on edge k is tested with: L_k set
    to 0 (dear) or to the child's own L_k (push, see _push_bound), with
    the dual bound W1 + t; and dear's bound never exceeds the push bound,
    so a child dear drops fails the push rule.  Children are checked from
    the start and six sampled states.  Returns four counts: states where W1
    exceeds one unit of mass and the cap D - L* binds, states where the
    bound beats the envelope, children whose own L_k makes the push bound
    the larger, and states where the cut groups beat the private
    vertices."""
    capped = stronger = raised = beats_private = 0
    for H, h, D, start, goal in instances:
        tol = COST_TOL * h.h1
        env = functools.cache(
            lambda w: _envelope(h.h1, _step_prices(h, D), w, D))
        dist = _distances_to(H, h, goal, D)
        groups = H.cut_groups()
        private = _private_groups(H)
        rng = random.Random(D)
        sample = {start, *rng.sample(sorted(dist), 6)}
        for state in sorted(dist):
            w1u, f = w1_units(H, state, goal)
            L = [_imbalance(state, goal, grp) for grp in groups]
            zeroed = _zeroed_terms(env, L)
            terms = _put(env, zeroed[0], L[0])
            total, top, _ = terms
            lb = _cut_bound(env, D, terms, w1u)
            assert lb <= dist[state] + tol
            capped += w1u > D and w1u - total > D - top > 0
            stronger += lb > env(w1u) + tol
            P = [_imbalance(state, goal, grp) for grp in private]
            beats_private += lb > _cut_bound(
                env, D, _put(env, _zeroed_terms(env, P)[0], P[0]), w1u) + tol
            if state not in sample:
                continue
            for k, edge in enumerate(H.edges):
                cur = [state[v] for v in edge]
                for new in _spread(sum(cur), len(edge)):
                    child = list(state)
                    for v, n in zip(edge, new):
                        child[v] = n
                    child = tuple(child)
                    w = max(w1u + sum(f[v] * (child[v] - state[v])
                                      for v in edge), 0)
                    dear = _cut_bound(env, D, zeroed[k], w)
                    push = _push_bound(env, D, zeroed[k],
                                       _imbalance(child, goal, groups[k]), w,
                                       dear)
                    assert dear <= push <= dist[child] + tol
                    raised += push > dear
    return capped, stronger, raised, beats_private


class TestPrivateBound:
    """The bound wh_exact prunes on, from the imbalance L_e each hyperedge
    must carry across its cut (see _imbalance and _cut_bound)."""

    @staticmethod
    def _instances(seed, count):
        # hypergraphs of up to six vertices, D = 2..4; half the goals and
        # starts sit on two vertices, which puts mass two or more hops apart
        rng = random.Random(seed)
        for n in range(count):
            H = random_hypergraph(rng, max_vertices=6)
            D = rng.randint(2, 4)
            if n % 2:
                ends = []
                for _ in range(2):
                    units = [0] * H.n
                    a, b = rng.sample(range(H.n), 2)
                    units[a] = rng.randint(0, D)
                    units[b] = D - units[a]
                    ends.append(tuple(units))
            else:
                ends = [tuple(TestDualBound._units(rng, H.n, D))
                        for _ in range(2)]
            yield H, COSTS[n % len(COSTS)], D, ends[0], ends[1]

    def test_admissible(self):
        # see _admissible_counts; 200 instances reach 50 states where the
        # cap binds (150 reached 37 once the cut groups raised sum(L))
        capped, stronger, raised, _ = _admissible_counts(
            self._instances(9000, 200))
        assert capped >= 50 and stronger >= 400 and raised >= 2000

    def test_terms_match_their_definition(self):
        # (sum, largest, envelope summed over all but one largest) of L
        # with one entry set to 0, and with that entry set to c
        rng = random.Random(9001)
        env = functools.cache(lambda w: _envelope(
            H_LOG.h1, _step_prices(H_LOG, 12), w, 12))
        for _ in range(300):
            L = [rng.choice((0, rng.randint(0, 12)))
                 for _ in range(rng.randint(1, 6))]
            zeroed = _zeroed_terms(env, L)
            for k in range(len(L)):
                c = rng.randint(0, 12)
                for value, terms in ((0, zeroed[k]),
                                     (c, _put(env, zeroed[k], c))):
                    M = L[:k] + [value] + L[k + 1:]
                    total, top, rest = terms
                    assert (total, top) == (sum(M), max(M))
                    assert rest == pytest.approx(
                        sum(map(env, M)) - env(max(M)), abs=1e-12)

    def test_dear_is_monotone(self, monkeypatch):
        # every dear the search hands to a stream (the exhaustive one
        # skips groups through _open_groups, the structured one is handed
        # dear itself) is nondecreasing in moved and in t, on a grid over
        # [0, D] x [-D, D]
        grid_of, seen = [None], []
        open_groups, structured = transport._open_groups, transport._structured

        def check(dear):
            moved_range, t_range = grid_of[0]
            grid = [[dear(moved, t) for t in t_range] for moved in moved_range]
            for row, nxt in zip(grid, grid[1:]):
                assert all(a <= b for a, b in zip(row, nxt))
            for row in grid:
                assert row == sorted(row)
            seen.append(any(map(any, grid)) and not all(map(all, grid)))

        def spy(ts, dear):
            check(dear)
            return open_groups(ts, dear)

        def structured_spy(cur, goal, hi, dear):
            check(dear)
            return structured(cur, goal, hi, dear)

        monkeypatch.setattr(transport, "_open_groups", spy)
        monkeypatch.setattr(transport, "_structured", structured_spy)
        H = generate("grid9")
        mu = lazy_random_walk(H, "x", Fraction(1, 4))
        nu = lazy_random_walk(H, "y", Fraction(1, 4))
        D = common_denominator([mu, nu])
        grid_of[0] = range(0, D + 1, D // 12), range(-D, D + 1, D // 12)
        wh_exact(H, H_LOG, mu, nu)
        for H, h, D, start, goal in self._instances(9002, 60):
            mu, nu = _as_measure(H, start, D), _as_measure(H, goal, D)
            D = common_denominator([mu, nu])
            grid_of[0] = range(D + 1), range(-D, D + 1)
            wh_exact(H, h, mu, nu)
        assert sum(seen) >= 100

    def test_matches_unpruned_and_oracle(self):
        # values and statuses of 1,200 instances over all six cost
        # families match the exhaustive enumeration (unpruned=True), and
        # every fourth the plain Dijkstra over the grid, within
        # COST_TOL * h(1)
        for n, (H, h, D, start, goal) in enumerate(
                self._instances(9003, 1200)):
            mu, nu = _as_measure(H, start, D), _as_measure(H, goal, D)
            fast = wh_exact(H, h, mu, nu)
            full = wh_exact(H, h, mu, nu, unpruned=True)
            assert fast.optimality == full.optimality == "exact"
            tol = COST_TOL * h.h1
            assert fast.value == pytest.approx(full.value, abs=tol)
            if n % 4 == 0:
                D_grid = fast.quantization
                goal_grid = tuple(u * D_grid // D for u in goal)
                start_grid = tuple(u * D_grid // D for u in start)
                dist = _distances_to(H, h, goal_grid, D_grid)
                assert fast.value == pytest.approx(dist[start_grid], abs=tol)


class TestCertificate:
    """A greedy seed that meets the start's cut bound at the start's own
    W1 is returned unsearched: exact, with no expansion."""

    def test_linear_always_certified(self):
        # under linear h the seed costs h(1) * W1, which the bound equals,
        # so every solve that moves mass is certified
        rng = random.Random(2200)
        moved = 0
        for _ in range(200):
            H = cli._random_hypergraph(rng)
            mu, nu = cli._random_measure(rng, H), cli._random_measure(rng, H)
            if mu == nu:
                continue
            moved += 1
            res = wh_exact(H, H_LIN, mu, nu)
            assert (res.states_expanded, res.optimality) == (0, "exact")
            tol = COST_TOL * H_LIN.h1
            assert res.value == pytest.approx(
                H_LIN.h1 * float(w1(H, mu, nu)[0]), abs=tol)
            assert plan_cost(H, H_LIN, res.plan) == pytest.approx(
                res.value, abs=tol)
        assert moved >= 150

    def test_certified_match_oracle(self, monkeypatch):
        # certified results under log and truncation equal the plain
        # Dijkstra over the grid, the structured family in force on every
        # other instance
        default = transport.FULL_ENUM_LIMIT
        certified = [0, 0]
        rng = random.Random(2300)
        for n in range(300):
            H = random_hypergraph(rng, max_vertices=6)
            D = rng.randint(2, 4)
            start, goal = (tuple(TestDualBound._units(rng, H.n, D))
                           for _ in range(2))
            if start == goal:
                continue
            structured = n % 2
            monkeypatch.setattr(transport, "FULL_ENUM_LIMIT",
                                0 if structured else default)
            h = (H_LOG, H_TRUNC)[n // 2 % 2]
            res = wh_exact(H, h, _as_measure(H, start, D),
                           _as_measure(H, goal, D))
            if res.states_expanded:
                continue
            certified[structured] += 1
            assert res.optimality == "exact"
            dist = _distances_to(H, h, goal, D)
            assert res.value == pytest.approx(dist[start],
                                              abs=COST_TOL * h.h1)
        assert min(certified) >= 100


class TestCutBound:
    """L_e read from the components of the hypergraph without e (see
    Hypergraph.cut_groups), which on a cut sees more than the private
    vertices of e."""

    @staticmethod
    def _tree(rng):
        # each hyperedge after the first shares one vertex with the ones
        # before it and brings one or two new vertices: every hyperedge is
        # a cut
        labels, edges = ["u0"], []
        for _ in range(rng.randint(2, 3)):
            new = [f"u{len(labels) + i}" for i in range(rng.randint(1, 2))]
            edges.append({rng.choice(labels), *new})
            labels += new
        return Hypergraph(labels, edges)

    @classmethod
    def _instances(cls, seed, count):
        # hypertrees and paths of two to five edges, D = 2..4
        rng = random.Random(seed)
        for n in range(count):
            H = (cls._tree(rng) if n % 2
                 else generate("path", rng.randint(2, 5)))
            D = rng.randint(2, 4)
            start, goal = (tuple(TestDualBound._units(rng, H.n, D))
                           for _ in range(2))
            yield H, COSTS[n % len(COSTS)], D, start, goal

    def test_admissible_on_trees(self):
        # where the groups are more than the private vertices the bounds
        # stay below the cheapest plan, and the cut form binds
        _, _, raised, beats_private = _admissible_counts(
            self._instances(2400, 60))
        assert raised >= 1500 and beats_private >= 800

    def test_never_below_private(self):
        # a private vertex is a group of its own, so L_e only grows; on
        # grid9 the groups are the private corners and L_e is unchanged
        rng = random.Random(2401)
        grid9 = generate("grid9")
        assert list(grid9.cut_groups()) == _private_groups(grid9)
        for n in range(300):
            H = (grid9, random_hypergraph(rng), self._tree(rng))[n % 3]
            D = rng.randint(1, 6)
            state, goal = (tuple(TestDualBound._units(rng, H.n, D))
                           for _ in range(2))
            for groups, private in zip(H.cut_groups(), _private_groups(H)):
                cut = _imbalance(state, goal, groups)
                old = _imbalance(state, goal, private)
                assert cut >= old
                if H is grid9:
                    assert cut == old

    def test_any_group_left_out(self):
        # the left-out component's imbalance is minus the others' sum, so
        # leaving out any one component gives the same L_e
        rng = random.Random(2402)
        for n in range(200):
            H = random_hypergraph(rng) if n % 2 else self._tree(rng)
            D = rng.randint(1, 6)
            state, goal = (tuple(TestDualBound._units(rng, H.n, D))
                           for _ in range(2))
            for groups in H.cut_groups():
                rest = tuple(sorted(set(range(H.n)).difference(*groups)))
                comps = list(groups) + [rest]
                want = _imbalance(state, goal, groups)
                for i in range(len(comps)):
                    assert _imbalance(state, goal,
                                      comps[:i] + comps[i + 1:]) == want

    def test_groups_built_only_past_the_private_vertices(self):
        # the certificate reads the private vertices first, so a seed they
        # certify leaves the cut groups unbuilt; on the four-edge path
        # v1,v4 under log at alpha = 1/4 only the cut groups certify
        H = generate("path", 4)
        mu = lazy_random_walk(H, "v1", Fraction(1, 4))
        nu = lazy_random_walk(H, "v4", Fraction(1, 4))
        assert wh_exact(H, H_LIN, mu, nu).states_expanded == 0
        assert H._cut_groups is None
        res = wh_exact(H, H_LOG, mu, nu)
        assert (res.states_expanded, res.optimality) == (0, "exact")
        assert H._cut_groups is not None

    @pytest.mark.parametrize("h", [H_LOG, H_TRUNC])
    def test_line_families_certified(self, h):
        # on a path every hyperedge is a cut and the bound is tight: every
        # line-family catalog instance is certified unsearched, on its
        # closed form
        for family in ("line_ends", "line_end_next", "line_both_next"):
            for d in (1, 2, 3):
                H, x, y = catalog_instance(family, d)
                for alpha in (Fraction(0), Fraction(1, 4), Fraction(1, 2),
                              Fraction(3, 4)):
                    val, res = orc_alpha_h(H, h, x, y, alpha, details=True)
                    assert (res.states_expanded, res.optimality) == (
                        0, "exact"), (family, d, alpha)
                    want = catalog(family, d, h, alpha).kappa_h_alpha
                    assert val == pytest.approx(want, abs=1e-12)


def _record(res):
    return (repr(res.value), res.optimality, repr(res.lower_bound),
            res.states_expanded, res.quantization,
            hashlib.sha256(res.plan.to_json().encode()).hexdigest()[:16])


class TestGolden:
    """wh_exact outputs recorded before the search reused successor tables.
    Pushing children in another order breaks ties differently, which shows
    in the plan, the expansion count or both.  The expansion counts were
    recorded again when the search began to prune on the private-vertex
    bound, which changed no other field, once more when the start's
    bound began to certify the greedy seed: 17 small seeds went from one
    expansion to none, with every other field as it was, and again when
    the bound began to read the cut groups of each hyperedge: seeds 95,
    152 and 185 went from 3, 10 and 1 expansions to none, with every
    other field as it was."""

    # the record, then the number of pushed states and a sha256 prefix of
    # their sequence
    @pytest.mark.parametrize("h,alpha,want", [
        (H_LOG, Fraction(1, 8),
         ("0.5149524668774486", "exact", "0.38989528906496923",
          40, 192, "ab28de9d089487a4", 238, "798a74d997d48f8f")),
        (H_LOG, Fraction(1, 2),
         ("0.6590961868185703", "exact", "0.5198603854199589",
          262, 48, "616f275d4c14ab51", 647, "e89914bab8770b0c")),
        (H_TRUNC, Fraction(1, 2),
         ("0.7499999999999999", "exact", "0.375",
          176, 48, "85e07f2e613343b6", 242, "066f76adadd5204e")),
    ])
    def test_grid9(self, h, alpha, want, monkeypatch):
        pushed = []

        def push(heap, item):
            pushed.append(item[3])
            heapq.heappush(heap, item)

        monkeypatch.setattr(transport, "heapq", types.SimpleNamespace(
            heappush=push, heappop=heapq.heappop))
        H = generate("grid9")
        mu = lazy_random_walk(H, "x", alpha)
        nu = lazy_random_walk(H, "y", alpha)
        assert _record(wh_exact(H, h, mu, nu)) + (
            len(pushed),
            hashlib.sha256(repr(pushed).encode()).hexdigest()[:16]) == want

    # seed -> record: the first 30 seeds whose search expanded at least
    # four states before the private-vertex bound, and 877, the one seed
    # below 1500 whose plan changes when a visit pushes the survivors of
    # its structured family in reverse
    SMALL = {
        4: ("0.8517522107365838", "exact", "0.6931471805599453", 0, 4,
            "c8b66fd1cd0707e8"),
        92: ("1.0479685558493548", "exact", "0.9241962407465937", 0, 6,
             "9569edc22b0492d7"),
        95: ("1.1666666666666667", "exact", "0.6666666666666666", 0, 6,
             "58588602a5b352d2"),
        97: ("1.0", "exact", "0.625", 8, 4,
             "ce200fdc997e5b78"),
        120: ("0.6359887667199967", "exact", "0.5198603854199589", 0, 12,
              "a602819f61ce2ecf"),
        129: ("1.25", "exact", "0.875", 6, 4,
              "cb3989f433697ffe"),
        152: ("1.229046441878052", "exact", "1.0397207708399179", 0, 4,
              "bf367eb0e54ca4ab"),
        171: ("1.0", "exact", "0.5", 0, 4,
              "513a6895588c4f03"),
        185: ("0.8333333333333333", "exact", "0.4166666666666667", 0, 6,
              "ab0bbf32de618a56"),
        193: ("0.8333333333333333", "exact", "0.4166666666666667", 0, 6,
              "092f74a6b341fa95"),
        214: ("0.8517522107365838", "exact", "0.6931471805599453", 9, 4,
              "47969ea88257ba12"),
        227: ("1.0", "exact", "0.625", 0, 12,
              "b86e64423d4e2b12"),
        232: ("1.1169614273363062", "exact", "1.0397207708399179", 0, 6,
              "0023c78aa4c10f29"),
        235: ("1.0", "exact", "0.5", 0, 4,
              "1aa10e1ae2b1eff7"),
        267: ("1.1666666666666665", "exact", "0.6666666666666666", 152, 12,
              "7af986b993117cb3"),
        320: ("1.005902890563842", "exact", "0.8664339756999316", 7, 4,
              "e0e2f06181112e67"),
        340: ("0.6931471805599453", "exact", "0.5776226504666211", 6, 6,
              "ca184f942672dd39"),
        362: ("0.8517522107365838", "exact", "0.6931471805599453", 6, 4,
              "58eaaf2544a2205c"),
        375: ("1.0", "exact", "0.5", 0, 4,
              "9280accb72b8e3a2"),
        386: ("0.7827593392496324", "exact", "0.6931471805599453", 0, 12,
              "c2beaf54ee36f027"),
        412: ("0.9808292530117262", "exact", "0.8086717106532696", 16, 6,
              "26b82617e7832f1b"),
        421: ("0.75", "exact", "0.4166666666666667", 80, 12,
              "8157c3e61d257aa1"),
        425: ("1.0833333333333333", "exact", "0.5833333333333334", 0, 12,
              "603be362d34a4f66"),
        444: ("0.8109302162163288", "exact", "0.6931471805599453", 0, 6,
              "732b8b729a27ff9e"),
        456: ("0.8109302162163288", "exact", "0.6931471805599453", 0, 4,
              "014d608ac5b8e94c"),
        462: ("0.8191269834205073", "exact", "0.6931471805599453", 11, 6,
              "1ac9e89ae048f160"),
        478: ("0.6931471805599453", "exact", "0.5776226504666211", 0, 12,
              "500cc2564539357a"),
        485: ("1.0", "exact", "0.5", 0, 4,
              "182337e92fb39f1a"),
        487: ("0.75", "exact", "0.375", 0, 12,
              "cb41ae8330c4ed1b"),
        503: ("1.0", "exact", "0.5", 0, 6,
              "187f7e76d744e10a"),
        877: ("0.9999999999999999", "exact", "0.5833333333333334", 1096, 12,
              "6d7d110a90d47db2"),
    }

    def test_small_instances(self, monkeypatch):
        # odd seeds use truncation, and seeds 2, 3 mod 4 the structured family
        default = transport.FULL_ENUM_LIMIT
        for seed, want in self.SMALL.items():
            rng = random.Random(seed)
            H = random_hypergraph(rng, max_edge_size=5)
            D = rng.choice((4, 6))
            mu = random_measure(rng, H, max_denominator=D, max_support=H.n)
            nu = random_measure(rng, H, max_denominator=D, max_support=H.n)
            monkeypatch.setattr(transport, "FULL_ENUM_LIMIT",
                                0 if (seed // 2) % 2 else default)
            h = (H_LOG, H_TRUNC)[seed % 2]
            assert _record(wh_exact(H, h, mu, nu)) == want, seed


def _reference_hops(H, src):
    """The breadth-first tree the seed's routes were once read from, kept
    verbatim: vertex -> (previous vertex, edge index), chosen
    lexicographically."""
    parent = {src: None}
    frontier = [src]
    while frontier:
        nxt = []
        for v in sorted(frontier):
            for k in H.incidence[v]:
                for w in H.edges[k]:
                    if w not in parent:
                        parent[w] = (v, k)
                        nxt.append(w)
        frontier = nxt
    return parent


class TestHeuristic:
    def test_routes_match_bfs_tree(self):
        # walking back from the destination by distances takes the hops of
        # the breadth-first tree, on every pair of 3,000 random hypergraphs
        rng = random.Random(1718)
        pairs = 0
        for _ in range(3000):
            H = random_hypergraph(rng, max_vertices=9, max_edges=6,
                                  max_edge_size=4)
            for src in range(H.n):
                tree = _reference_hops(H, src)
                for dst in range(H.n):
                    hops, v = [], dst
                    while v != src:
                        pv, k = tree[v]
                        hops.append((pv, v, k))
                        v = pv
                    assert _parcel_path(H, src, dst) == hops[::-1]
                    pairs += 1
        assert pairs > 80_000

    def test_lower_bound_respected(self, rng):
        for _ in range(15):
            H = random_hypergraph(rng)
            mu = random_measure(rng, H)
            nu = random_measure(rng, H)
            res = wh_heuristic(H, H_LOG, mu, nu)
            assert res.value >= res.lower_bound - 1e-12
            assert res.optimality == "heuristic-upper-bound"

    def test_matches_exact_on_k3(self):
        H = generate("complete", 3)
        mu = lazy_random_walk(H, "v0", Fraction(1, 2))
        nu = lazy_random_walk(H, "v1", Fraction(1, 2))
        res = wh_heuristic(H, H_LOG, mu, nu)
        assert res.value == pytest.approx(math.log(5 / 4), abs=1e-9)

    def test_grid9_beats_spread_plan(self):
        H = generate("grid9")
        alpha = Fraction(9, 10)
        mu, nu = (lazy_random_walk(H, v, alpha) for v in ("x", "y"))
        res = wh_heuristic(H, H_LOG, mu, nu)
        spread = plan_cost(H, H_LOG, grid9_spread_plan(H, alpha))
        assert res.value <= spread + 1e-12

    def test_plan_revalidates(self, rng):
        for _ in range(10):
            H = random_hypergraph(rng)
            mu = random_measure(rng, H)
            nu = random_measure(rng, H)
            for h in (H_LOG, H_TRUNC):
                res = wh_heuristic(H, h, mu, nu)
                # the seed's value is the plan_cost of its plan, bit for bit
                assert plan_cost(H, h, res.plan) == res.value

    def test_merge_pass_keeps_plans_feasible(self):
        # folding the last step into the first, or the first into the
        # last, is cheaper under a concave h, but either way a vertex sends
        # mass it does not hold yet, so no merge is made; two steps that
        # do not depend on each other are merged
        price = _step_prices(H_LOG, 4)
        chain = [(0, (("a", "b", 2),)), (1, (("b", "c", 2),)),
                 (0, (("c", "d", 2),))]
        assert _steps_cost({"a": 2}, chain[::2], price) is None
        assert _merge_pass({"a": 2}, chain, price, 0.0) == (
            chain, price(2) + price(2) + price(2))
        apart = [(0, (("a", "b", 1),)), (0, (("c", "d", 1),))]
        assert _merge_pass({"a": 1, "c": 1}, apart, price, 0.0) == (
            [(0, (("a", "b", 1), ("c", "d", 1)))], price(2))

    def test_scale_invariant(self):
        # merges are accepted on a drop relative to h(1), so log at
        # a = 1e-12 merges as log at a = 1 does
        H = generate("grid9")
        mu = lazy_random_walk(H, "x", Fraction(1, 2))
        nu = lazy_random_walk(H, "y", Fraction(1, 2))
        a = Fraction(1, 10**12)
        unit = wh_heuristic(H, H_LOG, mu, nu)
        tiny = wh_heuristic(H, ConcaveCost("log", a=a), mu, nu)
        assert tiny.plan == unit.plan
        assert tiny.value / float(a) == pytest.approx(unit.value, rel=1e-12)


class TestSeedGolden:
    """wh_heuristic outputs (value and lower_bound reprs, plan sha256)
    recorded when the seed was still priced in Fractions by plan_cost: the
    grid-unit seed must reproduce them bit for bit."""

    @staticmethod
    def _record(res):
        return (repr(res.value), repr(res.lower_bound),
                hashlib.sha256(res.plan.to_json().encode()).hexdigest()[:16])

    @pytest.mark.parametrize("h,alpha,want", [
        (H_LOG, Fraction(1, 8),
         ("0.516315848273977", "0.38989528906496923", "3b65ad3af5820de4")),
        (H_LOG, Fraction(1, 4),
         ("0.5784946823875035", "0.4332169878499658", "c68e9e1ed4fe1aac")),
        (H_LOG, Fraction(1, 2),
         ("0.6590961868185703", "0.5198603854199589", "616f275d4c14ab51")),
        (H_LOG, Fraction(9, 10),
         ("0.6970609473203428", "0.658489821531948", "6d3908b5ca170988")),
        (H_TRUNC, Fraction(1, 8),
         ("0.5625", "0.28125", "3b65ad3af5820de4")),
        (H_TRUNC, Fraction(1, 4),
         ("0.625", "0.3125", "c68e9e1ed4fe1aac")),
        (H_TRUNC, Fraction(1, 2),
         ("0.7499999999999999", "0.375", "85e07f2e613343b6")),
        (H_TRUNC, Fraction(9, 10),
         ("0.5625", "0.475", "6d3908b5ca170988")),
    ])
    def test_grid9(self, h, alpha, want):
        H = generate("grid9")
        mu = lazy_random_walk(H, "x", alpha)
        nu = lazy_random_walk(H, "y", alpha)
        assert self._record(wh_heuristic(H, h, mu, nu)) == want

    # seed -> record: the first 30 seeds whose plan has three or more steps
    SMALL = {
        3: ("1.0", "0.5", "374b15c7f0825433"),
        4: ("1.2094266550083996", "1.0397207708399179", "3c4c0da801cdb91e"),
        9: ("1.0", "0.5", "d3deea5c3f853df9"),
        10: ("0.9162907318741551", "0.7509094456066073", "4c52c9a61147114f"),
        12: ("0.8109302162163288", "0.6642660480366143", "276c6c1509d3a17b"),
        17: ("0.6666666666666666", "0.3333333333333333", "62a5e994d2926447"),
        22: ("0.45733693881500453", "0.34657359027997264", "b8e9624b199d2a7d"),
        24: ("0.8178506590609026", "0.6931471805599453", "81dbfbaff4412a6d"),
        33: ("0.75", "0.375", "74a71d81c632ff93"),
        34: ("0.9236708391717776", "0.7509094456066073", "c21615c65cc1eafe"),
        35: ("1.1666666666666665", "0.9166666666666666", "8e1147faa10010d7"),
        37: ("1.3333333333333333", "0.75", "595ae212b6c20013"),
        41: ("1.25", "1.0", "d5b06c4a541e9a9a"),
        44: ("0.4587096226269767", "0.34657359027997264", "983509d793b9dd9b"),
        47: ("1.1666666666666665", "0.5833333333333334", "deafd5b746587492"),
        50: ("0.5218754599525756", "0.4043358553266348", "cf3a1ae660ee9d1a"),
        52: ("0.4587096226269767", "0.34657359027997264", "a813d502746e826c"),
        56: ("0.9597943129104786", "0.7509094456066073", "76bc53538812cc9a"),
        60: ("1.0340737675305385", "0.8664339756999316", "43f4540b6f6724a0"),
        63: ("1.0", "0.625", "e27c6d6771e6a0bb"),
        68: ("1.1882244473577968", "1.0397207708399179", "af1fd869337cee34"),
        73: ("1.25", "0.625", "487262fe003085b9"),
        78: ("1.0986122886681096", "0.9241962407465937", "d579cc65b2d0f5ee"),
        81: ("1.1666666666666665", "0.75", "3d8ec48194536619"),
        85: ("0.75", "0.375", "ad59c759fad9a55d"),
        96: ("0.6566080539227324", "0.5198603854199589", "5501a8a7b2dd9b21"),
        101: ("0.8333333333333333", "0.625", "af01f1cfb4446968"),
        105: ("0.75", "0.5625", "2ff69de8be9bc00b"),
        109: ("0.9166666666666666", "0.4583333333333333", "4730f91885299a86"),
        110: ("0.9013650816574794", "0.7509094456066073", "44f3b4324e8c6ebe"),
    }

    def test_small_instances(self):
        # even seeds use log, odd seeds truncation
        for seed, want in self.SMALL.items():
            rng = random.Random(seed)
            H = random_hypergraph(rng, max_vertices=9, max_edges=6,
                                  max_edge_size=3)
            mu = random_measure(rng, H, max_denominator=12, max_support=H.n)
            nu = random_measure(rng, H, max_denominator=12, max_support=H.n)
            h = (H_LOG, H_TRUNC)[seed % 2]
            res = wh_heuristic(H, h, mu, nu)
            assert len(res.plan.steps) >= 3
            assert self._record(res) == want, seed


class TestSandwich:
    def test_random_suite(self):
        rng = random.Random(2024)
        for trial in range(60):
            H = random_hypergraph(rng)
            mu = random_measure(rng, H)
            nu = random_measure(rng, H)
            val = float(w1(H, mu, nu)[0])
            res = wh_exact(H, H_LOG, mu, nu)
            heur = wh_heuristic(H, H_LOG, mu, nu)
            assert H_LOG.h1 * val - 1e-12 <= res.value
            assert res.value <= H_LOG.hp0 * val + 1e-12
            assert res.value <= heur.value + 1e-12


class TestPlanJson:
    def test_round_trip_bit_exact(self):
        H = generate("ladder", 3)
        plan = ladder_route_b(H, 3, Fraction(9, 10))
        text = plan.to_json()
        again = TransportPlan.from_json(text)
        assert again == plan
        assert '"1/20"' in text
        assert plan_cost(H, H_TRUNC, again) == plan_cost(H, H_TRUNC, plan)


def _random_route_plan(rng, H, mu, nu):
    """Units of mass paired at random, each sent along a random shortest
    path; moves with the same hop index on the same hyperedge share a step,
    so a vertex may send and receive in one step."""
    D = common_denominator([mu, nu])
    units = lambda m: [v for v, p in sorted(m.weights.items())
                       for _ in range(int(p * D))]
    targets = units(nu)
    rng.shuffle(targets)
    steps = {}
    for x, y in zip(units(mu), targets):
        u, yid, hop = H.vertex_id(x), H.vertex_id(y), 0
        while u != yid:
            v = rng.choice([w for w in H.neighbors(u)
                            if H.distance_id(w, yid) < H.distance_id(u, yid)])
            e = next(k for k, ed in enumerate(H.edges) if u in ed and v in ed)
            moves = steps.setdefault((hop, e), {})
            arc = (H.label(u), H.label(v))
            moves[arc] = moves.get(arc, Fraction(0)) + Fraction(1, D)
            u, hop = v, hop + 1
    return TransportPlan(mu, nu, tuple(
        TransportStep(e, tuple((a, b, m) for (a, b), m in sorted(mv.items())))
        for (_, e), mv in sorted(steps.items())))


class TestNormalize:
    def test_identity_on_single_path_plan(self):
        H = generate("path", 2)
        res = wh_exact(H, H_LOG, dirac(H, "v0"), dirac(H, "v2"))
        coup = plan_coupling(H, res.plan)
        out = normalize_plan(H, H_LOG, res.plan, coup)
        assert out == res.plan

    def _split_plan_c4(self):
        H = generate("cycle", 4)
        mu, nu = dirac(H, "v0"), dirac(H, "v2")
        half = Fraction(1, 2)
        e = lambda a, b: H.edges.index(tuple(sorted((H.vertex_id(a),
                                                     H.vertex_id(b)))))
        plan = TransportPlan(mu, nu, (
            TransportStep(e("v0", "v1"), (("v0", "v1", half),)),
            TransportStep(e("v0", "v3"), (("v0", "v3", half),)),
            TransportStep(e("v1", "v2"), (("v1", "v2", half),)),
            TransportStep(e("v3", "v2"), (("v3", "v2", half),)),
        ))
        return H, plan

    def test_parallel_split_collapses(self):
        H, plan = self._split_plan_c4()
        coup = plan_coupling(H, plan)
        assert coup.entries == {("v0", "v2"): Fraction(1)}
        out = normalize_plan(H, H_LOG, plan, coup)
        cost_in = plan_cost(H, H_LOG, plan)
        cost_out = plan_cost(H, H_LOG, out)
        assert cost_out <= cost_in + 1e-12
        assert cost_out == pytest.approx(2 * H_LOG.h1, abs=1e-12)
        assert len(out.steps) == 2

    def test_endpoint_choice_on_asymmetric_split(self):
        # routes of length 2 and 3 around a 5-cycle; the cheaper endpoint
        # of the exchange family keeps the short route
        H = generate("cycle", 5)
        mu, nu = dirac(H, "v0"), dirac(H, "v2")
        half = Fraction(1, 2)
        e = lambda a, b: H.edges.index(tuple(sorted((H.vertex_id(a),
                                                     H.vertex_id(b)))))
        plan = TransportPlan(mu, nu, (
            TransportStep(e("v0", "v1"), (("v0", "v1", half),)),
            TransportStep(e("v0", "v4"), (("v0", "v4", half),)),
            TransportStep(e("v1", "v2"), (("v1", "v2", half),)),
            TransportStep(e("v4", "v3"), (("v4", "v3", half),)),
            TransportStep(e("v3", "v2"), (("v3", "v2", half),)),
        ))
        coup = plan_coupling(H, plan)
        out = normalize_plan(H, H_LOG, plan, coup)
        # endpoints cost 2h(1) (short route) vs 3h(1) (long route)
        assert plan_cost(H, H_LOG, out) == pytest.approx(2 * H_LOG.h1,
                                                         abs=1e-12)
        assert len(out.steps) == 2

    def test_transport_path_mass_bound(self):
        H, plan = self._split_plan_c4()
        coup = plan_coupling(H, plan)
        out = normalize_plan(H, H_LOG, plan, coup)
        kernels = _step_kernels(H, out)
        # the unique path of the single coupled pair carries at least its mass
        for pi in kernels:
            assert max(pi.values()) >= Fraction(1)

    def test_idempotent(self):
        H, plan = self._split_plan_c4()
        coup = plan_coupling(H, plan)
        out = normalize_plan(H, H_LOG, plan, coup)
        again = normalize_plan(H, H_LOG, out, plan_coupling(H, out))
        assert again == out

    def test_never_raises_plan_cost(self):
        # solver plans already route every coupled pair on one path, so
        # random-route plans are added to exercise the rewiring itself
        rng = random.Random(2025)
        rewired = 0
        for trial in range(1000):
            H = random_hypergraph(rng)
            mu, nu = random_measure(rng, H), random_measure(rng, H)
            h = (H_LOG, H_TRUNC)[trial % 2]
            plans = [_random_route_plan(rng, H, mu, nu)]
            if trial < 40:
                plans += [wh_exact(H, h, mu, nu).plan,
                          wh_heuristic(H, h, mu, nu).plan]
            for plan in plans:
                out = normalize_plan(H, h, plan, plan_coupling(H, plan))
                assert (plan_cost(H, h, out)
                        <= plan_cost(H, h, plan) + COST_TOL), (trial, plan)
                kernels = _step_kernels(H, out)
                for x, y in plan_coupling(H, out).entries:
                    assert len(_two_paths(kernels, x, y)) == 1, (trial, plan)
                rewired += out != plan
        assert rewired > 100

    def test_netted_step_keeps_single_paths(self):
        # step 0 sends a -> b and b -> c; netting makes it a -> c and re-pairs
        # a with w and b with z, and b's split route to z must still collapse
        H = Hypergraph(list("abcpqzw"), [("a", "b", "c"), ("b", "p", "q"),
                                         ("p", "z"), ("q", "z"), ("c", "w")])
        e = lambda *vs: H.edges.index(tuple(sorted(H.vertex_id(v)
                                                   for v in vs)))
        half, quarter = Fraction(1, 2), Fraction(1, 4)
        plan = TransportPlan(
            ProbMeasure({"a": half, "b": half}),
            ProbMeasure({"z": half, "w": half}), (
                TransportStep(e("a", "b", "c"),
                              (("a", "b", half), ("b", "c", half))),
                TransportStep(e("b", "p", "q"),
                              (("b", "p", quarter), ("b", "q", quarter))),
                TransportStep(e("p", "z"), (("p", "z", quarter),)),
                TransportStep(e("q", "z"), (("q", "z", quarter),)),
                TransportStep(e("c", "w"), (("c", "w", half),)),
            ))
        for h in (H_LOG, H_TRUNC):
            out = normalize_plan(H, h, plan, plan_coupling(H, plan))
            # four steps of mass 1/2, below 3h(1/2) + 2h(1/4) for the log
            assert plan_cost(H, h, out) == pytest.approx(4 * h.eval(half),
                                                         abs=COST_TOL)
            coup = plan_coupling(H, out)
            assert coup.entries == {("a", "w"): half, ("b", "z"): half}
            kernels = _step_kernels(H, out)
            for x, y in coup.entries:
                assert len(_two_paths(kernels, x, y)) == 1

    def test_not_associated(self):
        H, plan = self._split_plan_c4()
        from hypercurv import Coupling

        wrong = Coupling({("v0", "v1"): Fraction(1)}, plan.start, plan.end)
        with pytest.raises(NotAssociated):
            normalize_plan(H, H_LOG, plan, wrong)
