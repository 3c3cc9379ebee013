"""Stepwise-transport plans, bounds, the exact solver and normalization."""

import math
import random
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
from hypercurv.errors import (
    EndpointMismatch,
    NegativeIntermediateMass,
    NotAssociated,
    StepLeavesHyperedge,
)
from hypercurv import transport
from hypercurv.transport import (
    COST_TOL,
    _compositions,
    _edge_successors,
    _quantize,
    _search,
    _step_kernels,
    _two_paths,
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

    def test_budget_exhaustion_after_goal_pushed(self, monkeypatch):
        # The step into the goal is tight for the envelope bound (inside a
        # hyperedge W1 is the moved mass m <= 1, and envelope(m) = h(m)), so
        # the goal is popped right after it is pushed.  Half the envelope is
        # still admissible and leaves states to expand in between: on grid9
        # x,y at 1/8 the goal is pushed by expansion 1,185 and popped at
        # 15,985, so a budget of 1,500 runs out with the goal on the heap.
        envelope = transport._envelope
        monkeypatch.setattr(transport, "_envelope",
                            lambda h, w: 0.5 * envelope(h, w))
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
            yield H, _quantize(H, mu, D), _quantize(H, nu, D), D

    def test_potential_is_1_lipschitz_and_tight(self):
        for H, start, goal, D in self._instances(577, 40):
            units, f = w1_units(H, start, goal, D)
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
        for H, start, goal, D in self._instances(578, 30):
            w1u, f = w1_units(H, start, goal, D)
            for edge in H.edges:
                cur = tuple(start[v] for v in edge)
                base = min(f[v] for v in edge)
                hi = tuple(f[v] - base for v in edge)
                assert set(hi) <= {0, 1}
                goal_e = tuple(goal[v] for v in edge)
                for new, moved, t in _edge_successors(
                        cur, goal_e, hi, unpruned, lambda t: False):
                    dot = sum(f[v] * (n - c) for v, c, n in zip(edge, cur, new))
                    assert dot == t
                    child = list(start)
                    for v, n in zip(edge, new):
                        child[v] = n
                    assert w1u - moved <= w1u + t \
                        <= w1_units(H, child, goal, D)[0]

    def test_grouped_enumeration_is_complete(self):
        # skipping nothing, the t-grouped order yields every composition
        # but the current one exactly once; skipping a group removes
        # exactly the compositions with that t
        cur = (3, 0, 2, 1)
        hi = (0, 1, 1, 0)
        every = set(_compositions(sum(cur), 4)) - {cur}
        out = [new for new, _, _ in _edge_successors(
            cur, cur, hi, True, lambda t: False)]
        assert len(out) == len(set(out)) and set(out) == every
        kept = {new for new, _, t in _edge_successors(
            cur, cur, hi, True, lambda t: t == -1)}
        assert kept == {c for c in every if c[1] + c[2] - 2 != -1}

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


class TestHeuristic:
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
