"""Collapse machinery, line lower bound, diameter and size bounds."""

import math
import random
from fractions import Fraction

import pytest

from hypercurv import (
    ConcaveCost,
    bonnet_myers_bound,
    catalog,
    catalog_instance,
    collapse_map,
    collapse_plan,
    diameter,
    gamma_sets,
    generate,
    graph_distance,
    hlly,
    lazy_random_walk,
    plan_cost,
    pushforward_measure,
    vertex_count_bound,
    wh_exact,
    wh_line_lower_bound,
)
from hypercurv.errors import (
    BadParams,
    Hp1ZeroWarning,
    NonpositiveKappa,
    PairTooClose,
    SameVertex,
)

from conftest import random_hypergraph

H_LOG = ConcaveCost("log", a=1)
H_LIN = ConcaveCost("linear", a=1)
H_TRUNC = ConcaveCost("truncation", a=Fraction(1, 2))


class TestCollapseMap:
    def test_line_identity(self):
        H = generate("path", 4)
        cm = collapse_map(H, "v0", "v4")
        assert cm.assignment == {f"v{i}": i for i in range(5)}
        # the exact midpoint of an even-length line is the middle class
        assert cm.partition[2] == ("v2",)
        cm5 = collapse_map(generate("path", 5), "v0", "v5")
        assert cm5.assignment == {f"v{i}": i for i in range(6)}
        assert cm5.partition[2] == ()

    def test_pair_too_close(self):
        H = generate("complete", 4)
        with pytest.raises(PairTooClose):
            collapse_map(H, "v0", "v1")

    def test_ladder_all_pairs_lipschitz(self):
        H = generate("ladder", 4)
        cm = collapse_map(H, "b0", "b4")
        mat = H.distance_matrix()
        for a in range(H.n):
            for b in range(H.n):
                fa = cm(H.label(a))
                fb = cm(H.label(b))
                assert abs(fa - fb) <= mat[a][b]
        assert cm("b0") == 0 and cm("b4") == 4

    def test_c6_antipodal_splits_cleanly(self):
        # every vertex is within distance < 3/2 of an endpoint: no middle class
        H = generate("cycle", 6)
        cm = collapse_map(H, "v0", "v3")
        assert cm.partition[2] == ()
        assert cm("v0") == 0 and cm("v3") == 3

    def test_c7_has_middle_class(self):
        H = generate("cycle", 7)
        cm = collapse_map(H, "v0", "v3")
        assert cm.partition[2] != ()
        for v in cm.partition[2]:
            assert cm(v) == 1  # floor(3/2)


class TestCollapsePlan:
    def test_contraction_on_solver_plans(self):
        rng = random.Random(55)
        checked = 0
        while checked < 8:
            H = random_hypergraph(rng)
            xs = [H.label(0), H.label(H.n - 1)]
            if graph_distance(H, xs[0], xs[1]) < 2:
                continue
            alpha = Fraction(rng.randint(0, 3), 4)
            mu = lazy_random_walk(H, xs[0], alpha)
            nu = lazy_random_walk(H, xs[1], alpha)
            res = wh_exact(H, H_LOG, mu, nu)
            cm = collapse_map(H, xs[0], xs[1])
            line, pushed = collapse_plan(H, res.plan, cm)
            assert pushed.start == pushforward_measure(mu, cm)
            assert pushed.end == pushforward_measure(nu, cm)
            ok_cost = plan_cost(line, H_LOG, pushed)
            assert ok_cost <= res.value + 1e-12
            checked += 1


class TestLineLowerBound:
    def test_examples(self):
        assert wh_line_lower_bound(H_LOG, 1, 2) == pytest.approx(
            2 * H_LOG.h1, abs=1e-12)
        assert wh_line_lower_bound(H_LIN, Fraction(9, 10), 3) == pytest.approx(
            2.8, abs=1e-12)
        assert wh_line_lower_bound(H_LOG, Fraction(1, 2), 2) == pytest.approx(
            2 * math.log(1.5), abs=1e-12)

    def test_d_too_small(self):
        with pytest.raises(PairTooClose):
            wh_line_lower_bound(H_LOG, Fraction(1, 2), 1)

    def test_holds_on_random_pairs(self):
        rng = random.Random(56)
        alphas = [Fraction(0), Fraction(1, 4), Fraction(1, 2),
                  Fraction(3, 4), Fraction(15, 16)]
        checked = 0
        while checked < 6:
            H = random_hypergraph(rng)
            x, y = H.label(0), H.label(H.n - 1)
            d = graph_distance(H, x, y)
            if d < 2:
                continue
            for alpha in alphas:
                mu = lazy_random_walk(H, x, alpha)
                nu = lazy_random_walk(H, y, alpha)
                got = wh_exact(H, H_LOG, mu, nu).value
                assert got >= wh_line_lower_bound(H_LOG, alpha, d) - 1e-9
            checked += 1


class TestBonnetMyers:
    def test_complete_graph_equality_linear(self):
        # kappa(K_3) = 3/2 with linear h: bound 1 equals the diameter
        H = generate("complete", 3)
        bound = bonnet_myers_bound(H_LIN, Fraction(3, 2), "hypergraph_hlly")
        assert bound == 1 == diameter(H)

    def test_k2_graph_kind(self):
        assert bonnet_myers_bound(H_LOG, Fraction(2), "graph_lly") == 1

    def test_vacuous_when_top_slope_zero(self):
        with pytest.warns(Hp1ZeroWarning):
            bound = bonnet_myers_bound(H_TRUNC, Fraction(1, 2),
                                       "hypergraph_hlly")
        assert bound == 0

    def test_nonpositive_kappa(self):
        with pytest.raises(NonpositiveKappa):
            bonnet_myers_bound(H_LOG, 0, "graph_lly")
        with pytest.raises(NonpositiveKappa):
            bonnet_myers_bound(H_LOG, Fraction(-1, 2), "hypergraph_hlly")
        for kind in ("graph_lly", "hypergraph_hlly"):
            with pytest.raises(NonpositiveKappa):
                bonnet_myers_bound(H_LOG, math.nan, kind)

    def test_dominates_diameter_on_catalog(self):
        # where the closed-form limit is positive, the bound caps the diameter
        cases = [("complete", n) for n in (2, 3, 4, 5)]
        cases += [("line_ends", d) for d in (2, 3)]
        for family, m in cases:
            H, x, y = catalog_instance(family, m)
            kappa_h = catalog(family, m, H_LOG).kappa_h
            if kappa_h <= 0:
                continue
            bound = bonnet_myers_bound(H_LOG, kappa_h, "hypergraph_hlly")
            assert bound >= diameter(H)


class TestVertexCount:
    def test_k3_data(self):
        assert vertex_count_bound(H_LIN, Fraction(3, 2), 2) == 3

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_kn_data(self, n):
        assert vertex_count_bound(H_LIN, Fraction(n, n - 1), n - 1) == n

    def test_k2_trivial(self):
        assert vertex_count_bound(H_LIN, 2, 1) == 2

    def test_negative_factors_clamp(self):
        # huge slope ratio forces long products; factors floor at zero
        h = ConcaveCost("trunc_log_combo", a=Fraction(1, 100))
        bound = vertex_count_bound(h, Fraction(1, 10), 3)
        assert bound >= 1

    @pytest.mark.parametrize("h, kappa", [
        (H_LOG, Fraction(1, 1000)), (H_LIN, 0.001)])
    def test_beyond_floats_is_bad_params(self, h, kappa):
        # the float path (non-linear h or a float kappa) cannot hold
        # 3 ** j from j = 647 on; jmax is 1,442 and 2,000 here
        with pytest.raises(BadParams, match="outside the range of floats"):
            vertex_count_bound(h, kappa, 3)

    def test_nonpositive_kappa(self):
        with pytest.raises(NonpositiveKappa):
            vertex_count_bound(H_LIN, 0, 3)
        with pytest.raises(NonpositiveKappa):
            vertex_count_bound(H_LOG, math.nan, 3)


class TestGammaSets:
    def test_path_interior(self):
        H = generate("path", 4)
        plus, minus = gamma_sets(H, "v0", "v2")
        assert plus == {"v3"} and minus == {"v1"}

    def test_complete_adjacent(self):
        H = generate("complete", 4)
        plus, minus = gamma_sets(H, "v0", "v1")
        assert plus == set() and minus == {"v0"}

    def test_c6_adjacent(self):
        H = generate("cycle", 6)
        plus, minus = gamma_sets(H, "v0", "v1")
        assert len(plus) == 1 and len(minus) == 1

    def test_same_vertex(self):
        H = generate("cycle", 6)
        with pytest.raises(SameVertex):
            gamma_sets(H, "v0", "v0")

    def test_size_bound_inequality_on_catalog(self):
        # hlly estimate <= (1/d)(1 + (|g-| - |g+|)/deg(y)) + slack
        for family, m in [("complete", 3), ("complete", 4),
                          ("line_ends", 2), ("line_end_next", 1),
                          ("cycle", 6)]:
            H, x, y = catalog_instance(family, m)
            est, _ = hlly(H, H_LOG, x, y)
            plus, minus = gamma_sets(H, x, y)
            d = graph_distance(H, x, y)
            dy = len(H.neighbors(H.vertex_id(y)))
            cap = (1 + (len(minus) - len(plus)) / dy) / d
            assert est <= cap + 1e-3
