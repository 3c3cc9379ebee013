"""Curvature values against the closed-form catalog, plus the bands and
shape properties that hold on random instances."""

import math
import random
from fractions import Fraction

import pytest

from hypercurv import (
    ConcaveCost,
    Hypergraph,
    catalog,
    catalog_instance,
    curvature,
    degree,
    generate,
    graph_distance,
    hlly,
    idleness_band,
    lazy_random_walk,
    lly,
    orc_alpha,
    orc_alpha_h,
    sweep,
    wh_exact,
    wh_heuristic,
)
from hypercurv.errors import (
    AlphaOutOfRange,
    BadParams,
    InfiniteDerivativeAtZero,
    NotConnected,
    OutOfCatalogRange,
    SameVertex,
    UnknownVertex,
)
from hypercurv.wasserstein import w1, walk_w1

from conftest import random_hypergraph

H_LOG = ConcaveCost("log", a=1)
H_LIN = ConcaveCost("linear", a=1)
H_TRUNC = ConcaveCost("truncation", a=Fraction(1, 2))
ALPHAS = [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)]


class TestOrcAlpha:
    def test_k4_idle_zero(self):
        H = generate("complete", 4)
        assert orc_alpha(H, "v0", "v1", 0) == Fraction(2, 3)

    def test_c6_adjacent_half(self):
        H = generate("cycle", 6)
        assert orc_alpha(H, "v0", "v1", Fraction(1, 2)) == 0

    def test_interior_line_pair_zero(self):
        H, x, y = catalog_instance("line_both_next", 2)
        for a in ALPHAS:
            assert orc_alpha(H, x, y, a) == 0

    def test_same_vertex(self):
        H = generate("complete", 3)
        with pytest.raises(SameVertex):
            orc_alpha(H, "v0", "v0", Fraction(1, 2))

    def test_matches_coupling_oracle_on_every_pair(self):
        # the value path equals 1 - W1/d from the measures and w1's
        # coupling solve
        for H, x, y in _lly_pairs():
            d = graph_distance(H, x, y)
            for a in (Fraction(0), Fraction(1, 7), Fraction(1, 4),
                      Fraction(1, 2), Fraction(5, 6), Fraction(1)):
                val, _ = w1(H, lazy_random_walk(H, x, a),
                            lazy_random_walk(H, y, a))
                assert orc_alpha(H, x, y, a) == 1 - val / d, (H.edges, x, y, a)

    @pytest.mark.parametrize("x,y,alpha,error,message", [
        ("a", "b", Fraction(-1, 2), AlphaOutOfRange,
         "alpha = -1/2 outside [0, 1]"),
        ("a", "b", Fraction(3, 2), AlphaOutOfRange,
         "alpha = 3/2 outside [0, 1]"),
        ("nx", "b", Fraction(1, 2), UnknownVertex, "unknown vertex 'nx'"),
        ("a", "ny", Fraction(1, 2), UnknownVertex, "unknown vertex 'ny'"),
        ("nx", "ny", Fraction(1, 2), UnknownVertex, "unknown vertex 'nx'"),
        ("z", "a", Fraction(1, 2), UnknownVertex,
         "vertex 'z' has no neighbors"),
        ("a", "z", Fraction(1, 2), UnknownVertex,
         "vertex 'z' has no neighbors"),
        ("z", "a", Fraction(1), NotConnected,
         "distances undefined on a disconnected hypergraph"),
        ("a", "a", Fraction(1, 2), SameVertex,
         "curvature needs two distinct vertices"),
    ])
    def test_errors(self, x, y, alpha, error, message):
        # the walks are checked for x before y, as lazy_random_walk checks
        # each; z has no neighbours
        H = Hypergraph(["a", "b", "c", "z"], [{"a", "b"}, {"b", "c"}],
                       strict=False)
        with pytest.raises(error) as exc:
            orc_alpha(H, x, y, alpha)
        assert str(exc.value) == message
        if x != y:
            with pytest.raises(error) as exc:
                walk_w1(H, x, y, alpha)
            assert str(exc.value) == message


class TestOrcAlphaH:
    def test_same_vertex(self):
        H = generate("complete", 3)
        with pytest.raises(SameVertex) as exc:
            orc_alpha_h(H, H_LOG, "v0", "v0", Fraction(1, 2))
        assert str(exc.value) == "curvature needs two distinct vertices"

    def test_idleness_one_vanishes(self):
        for H, x, y in [(generate("complete", 4), "v0", "v1"),
                        (generate("grid9"), "x", "y")]:
            assert orc_alpha_h(H, H_LOG, x, y, 1) == pytest.approx(0.0,
                                                                   abs=1e-12)

    def test_k3_idle_zero_log(self):
        H = generate("complete", 3)
        got = orc_alpha_h(H, H_LOG, "v0", "v1", 0)
        want = (math.log(2) - math.log(3 / 2)) / math.log(2)
        assert got == pytest.approx(want, abs=1e-9)
        assert got == pytest.approx(0.415037, abs=1e-6)

    def test_c6_truncation_idle_zero(self):
        H = generate("cycle", 6)
        got = orc_alpha_h(H, H_TRUNC, "v0", "v1", 0)
        assert got == pytest.approx(-1.0, abs=1e-9)


class TestLly:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_complete(self, n):
        H = generate("complete", n)
        assert lly(H, "v0", "v1") == Fraction(n, n - 1)

    @pytest.mark.parametrize("n", [6, 7, 8])
    def test_large_cycle(self, n):
        H = generate("cycle", n)
        assert lly(H, "v0", "v1") == 0

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_small_cycle(self, n):
        H = generate("cycle", n)
        assert lly(H, "v0", "v1") == Fraction(6 - n, 2)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_line_ends(self, d):
        H, x, y = catalog_instance("line_ends", d)
        assert lly(H, x, y) == Fraction(2, d)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_line_end_next(self, d):
        H, x, y = catalog_instance("line_end_next", d)
        assert lly(H, x, y) == Fraction(1, d)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_line_both_next(self, d):
        H, x, y = catalog_instance("line_both_next", d)
        assert lly(H, x, y) == 0

    def test_matches_dyadic_reference_on_every_pair(self):
        for H, x, y in _lly_pairs():
            eps = Fraction(1, 2 ** 16)
            assert lly(H, x, y) == orc_alpha(H, x, y, 1 - eps) / eps, (
                H.edges, x, y)

    def test_adjacent_pairs_take_one_solve(self, monkeypatch):
        solves = _count_solves(monkeypatch)
        checked = 0
        for H, x, y in _lly_pairs():
            if graph_distance(H, x, y) == 1:
                solves.clear()
                lly(H, x, y)
                a0 = Fraction(1, max(degree(H, x), degree(H, y)) + 1)
                assert solves == [a0], (H.edges, x, y)
                checked += 1
        assert checked > 200

    @pytest.mark.parametrize("edges,x,y,first,limit", [
        (["u2 u3 u8", "u0 u2 u4 u6", "u0 u3 u4 u5 u8", "u0 u4 u5 u6 u8",
          "u0 u1 u3", "u2 u3 u7"], "u3", "u6", Fraction(59, 70),
         Fraction(6, 7)),
        (["u0 u4 u7", "u0 u5", "u3 u8", "u1 u2 u3 u5 u7", "u3 u6"],
         "u4", "u5", Fraction(13, 20), Fraction(7, 10)),
    ])
    def test_distance_two_needs_a_third_solve(self, monkeypatch, edges, x, y,
                                              first, limit):
        # one solve at alpha_0 is not the limit off the adjacent pairs
        H = Hypergraph([f"u{i}" for i in range(9)],
                       [set(e.split()) for e in edges])
        a0 = Fraction(1, max(degree(H, x), degree(H, y)) + 1)
        assert graph_distance(H, x, y) == 2
        assert orc_alpha(H, x, y, a0) / (1 - a0) == first
        solves = _count_solves(monkeypatch)
        assert lly(H, x, y) == limit
        assert solves == [a0, (1 + a0) / 2, (3 + a0) / 4]


def _lly_pairs():
    """Every pair of the catalog graphs, grid9 and seeded random
    hypergraphs."""
    graphs = [generate("complete", n) for n in (2, 3, 4, 5, 6)]
    graphs += [generate("cycle", n) for n in (3, 4, 5, 6, 7, 8)]
    graphs += [generate("path", n) for n in (2, 3, 4, 5)]
    graphs.append(generate("grid9"))
    rng = random.Random(81)
    graphs += [random_hypergraph(rng, max_vertices=9, max_edges=6,
                                 max_edge_size=5) for _ in range(100)]
    for H in graphs:
        for a in range(H.n):
            for b in range(a + 1, H.n):
                yield H, H.label(a), H.label(b)


def _count_solves(monkeypatch):
    """Record the alpha of every orc_alpha call lly makes."""
    alphas = []

    def counted(H, x, y, alpha):
        alphas.append(alpha)
        return orc_alpha(H, x, y, alpha)

    monkeypatch.setattr(curvature, "orc_alpha", counted)
    return alphas


class TestHlly:
    def test_linear_family_reproduces_lly_ratios(self):
        H = generate("complete", 4)
        est, diag = hlly(H, H_LIN, "v0", "v1")
        want = lly(H, "v0", "v1")
        for r in diag.ratios:
            assert r == pytest.approx(float(want), abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_complete_log(self, n):
        H = generate("complete", n)
        est, diag = hlly(H, H_LOG, "v0", "v1")
        want = (n / (n - 1)) * H_LOG.hp1 / H_LOG.h1
        assert est == pytest.approx(want, rel=1e-3)
        assert diag.converged

    def test_large_cycle_log_value(self):
        H = generate("cycle", 6)
        est, _ = hlly(H, H_LOG, "v0", "v1")
        assert est == pytest.approx((0.5 - 1.0) / math.log(2), rel=1e-3)
        assert est == pytest.approx(-0.721348, abs=1e-4)

    def test_complete_three_work_pinned(self, monkeypatch):
        # the greedy seed prices its one step from the search's memo, and
        # the start's cut bound certifies the seed at that same
        # price, so the eight solves (D up to 2,048) evaluate h once each.
        # Searching from the seed took 319 evaluations with a range of too
        # dear t groups skipped whole, and 4,080 with every t group tested
        # on its own (327 with a memo of the seed's own)
        h = ConcaveCost("log", a=1)  # its shape check evaluates h too
        calls = []
        plain = ConcaveCost.eval

        def counted(cost, lam):
            calls.append(lam)
            return plain(cost, lam)

        monkeypatch.setattr(ConcaveCost, "eval", counted)
        H, x, y = catalog_instance("complete", 3)
        est, diag = hlly(H, h, x, y)
        assert repr(est) == "1.0820220550146913"
        assert set(diag.statuses) == {"exact"}
        assert len(calls) == 8

    def test_strictly_concave_h_is_negative_on_interior_line(self):
        H, x, y = catalog_instance("line_both_next", 1)
        for h in (H_LOG, H_TRUNC):
            est, _ = hlly(H, h, x, y)
            assert est < 0
        est, _ = hlly(H, H_LIN, x, y)
        assert est == pytest.approx(0.0, abs=1e-12)


class TestCatalog:
    def test_complete_two(self):
        vals = catalog("complete", 2, H_LIN)
        assert vals.kappa == 2
        assert vals.kappa_h == pytest.approx(2.0, abs=1e-15)

    def test_cycle_five_idle_zero(self):
        # the swapped route wins below idleness 1/3: the single-route
        # formula (h1 - 3h(1/2))/h1 underestimates the curvature
        vals = catalog("cycle", 5, H_LOG, 0)
        want = (H_LOG.h1 - 2 * H_LOG.eval(Fraction(1, 2))) / H_LOG.h1
        single = (H_LOG.h1 - 3 * H_LOG.eval(Fraction(1, 2))) / H_LOG.h1
        assert vals.kappa_h_alpha == pytest.approx(want, abs=1e-15)
        assert vals.kappa_h_alpha > single
        assert vals.kappa_alpha == 0

    def test_cycle_five_matches_single_route_above_third(self):
        for a in (Fraction(1, 2), Fraction(3, 4)):
            vals = catalog("cycle", 5, H_LOG, a)
            b = 1 - a
            want = (H_LOG.h1 - H_LOG.eval(abs(a - b / 2))
                    - 2 * H_LOG.eval(b / 2)) / H_LOG.h1
            assert vals.kappa_h_alpha == pytest.approx(want, abs=1e-15)

    def test_line_both_next_limit(self):
        for d in (1, 2, 3):
            vals = catalog("line_both_next", d, H_LOG)
            want = (H_LOG.hp1 - H_LOG.hp0) / (d * H_LOG.h1)
            assert vals.kappa_h == pytest.approx(want, abs=1e-15)

    def test_out_of_range(self):
        with pytest.raises(OutOfCatalogRange):
            catalog("complete", 1, H_LOG)
        with pytest.raises(OutOfCatalogRange):
            catalog("line_ends", 0, H_LOG)
        with pytest.raises(OutOfCatalogRange):
            catalog("star", 3, H_LOG)

    def test_cycle_two_is_k2(self):
        a = Fraction(1, 4)
        c2 = catalog("cycle", 2, H_LOG, a)
        k2 = catalog("complete", 2, H_LOG, a)
        assert c2 == k2

    @pytest.mark.parametrize("h", [
        H_LIN, H_LOG, H_TRUNC,
        ConcaveCost("trunc_log_combo", a=Fraction(1, 2)),
        ConcaveCost("power", a=Fraction(1, 2))])
    def test_cycle_three_is_k3(self, h):
        for a in (None, 0, Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
            assert catalog("cycle", 3, h, a) == catalog("complete", 3, h, a)


class TestSolverVsCatalog:
    @pytest.mark.parametrize("family,sizes", [
        ("complete", [2, 3, 4, 5]),
        ("cycle", [3, 4, 5, 6, 7]),
        ("line_ends", [1, 2, 3]),
        ("line_end_next", [1, 2]),
        ("line_both_next", [1, 2]),
    ])
    def test_kappa_h_matches(self, family, sizes):
        for m in sizes:
            H, x, y = catalog_instance(family, m)
            for h in (H_LIN, H_LOG, H_TRUNC):
                for a in ALPHAS:
                    got = orc_alpha_h(H, h, x, y, a)
                    want = catalog(family, m, h, a).kappa_h_alpha
                    assert got == pytest.approx(want, abs=1e-9), (
                        family, m, h.family, a)

    def test_kappa_matches_exactly(self):
        for family, m in [("complete", 4), ("cycle", 5), ("cycle", 7),
                          ("line_ends", 3), ("line_end_next", 2),
                          ("line_both_next", 2)]:
            H, x, y = catalog_instance(family, m)
            for a in ALPHAS:
                assert orc_alpha(H, x, y, a) == catalog(family, m, H_LIN,
                                                        a).kappa_alpha


class TestInequalities:
    def test_discounted_below_plain(self):
        rng = random.Random(77)
        for _ in range(10):
            H = random_hypergraph(rng)
            x, y = H.label(0), H.label(H.n - 1)
            if x == y:
                continue
            for a in ALPHAS:
                kh = orc_alpha_h(H, H_LOG, x, y, a)
                k = orc_alpha(H, x, y, a)
                assert kh <= float(k) + 1e-9

    def test_idleness_band(self):
        rng = random.Random(78)
        for _ in range(8):
            H = random_hypergraph(rng)
            x, y = H.label(0), H.label(H.n - 1)
            d = graph_distance(H, x, y)
            if d == 0:
                continue
            for a in ALPHAS:
                lo, hi = idleness_band(H_LOG, a, d)
                kh = orc_alpha_h(H, H_LOG, x, y, a)
                assert lo - 1e-9 <= kh <= hi + 1e-9

    def test_band_needs_finite_slope(self):
        h = ConcaveCost("power", a=Fraction(1, 2))
        with pytest.raises(InfiniteDerivativeAtZero):
            idleness_band(h, Fraction(1, 2), 2)

    def test_plain_curvature_band(self):
        # |kappa(alpha)| <= 2(1-alpha)/d
        rng = random.Random(79)
        for _ in range(10):
            H = random_hypergraph(rng)
            x, y = H.label(0), H.label(H.n - 1)
            d = graph_distance(H, x, y)
            if d == 0:
                continue
            for a in ALPHAS:
                k = orc_alpha(H, x, y, a)
                assert abs(k) <= Fraction(2) * (1 - a) / d

    def test_midpoint_concavity_exact(self):
        rng = random.Random(80)
        H = generate("cycle", 5)
        for _ in range(20):
            a1 = Fraction(rng.randint(0, 16), 16)
            a2 = Fraction(rng.randint(0, 16), 16)
            mid = orc_alpha(H, "v0", "v1", (a1 + a2) / 2)
            assert mid >= (orc_alpha(H, "v0", "v1", a1)
                           + orc_alpha(H, "v0", "v1", a2)) / 2


class TestAdjacentInfimum:
    @pytest.mark.parametrize("maker", [
        lambda: generate("path", 3),
        lambda: generate("cycle", 5),
        lambda: generate("complete", 4),
    ])
    def test_lly_min_is_adjacent(self, maker):
        H = maker()
        vals = {}
        for a in range(H.n):
            for b in range(a + 1, H.n):
                vals[(a, b)] = lly(H, H.label(a), H.label(b))
        overall = min(vals.values())
        adjacent = min(v for (a, b), v in vals.items()
                       if H.distance_id(a, b) == 1)
        assert overall == adjacent

    def test_hlly_min_is_adjacent_on_path(self):
        H = generate("path", 3)
        vals = {}
        for a in range(H.n):
            for b in range(a + 1, H.n):
                est, _ = hlly(H, H_LOG, H.label(a), H.label(b))
                vals[(a, b)] = est
        overall = min(vals.values())
        adjacent = min(v for (a, b), v in vals.items()
                       if H.distance_id(a, b) == 1)
        assert overall == pytest.approx(adjacent, abs=1e-9)


class TestSweep:
    def test_points_and_limits(self):
        H = generate("cycle", 6)
        points = sweep(H, H_LOG, [("v0", "v1")], ALPHAS)
        assert [p.alpha for p in points] == ALPHAS
        assert all(p.wh.optimality == "exact" for p in points)
        for p in points:
            assert p.d == 1
            assert p.kappa == 1 - p.w1 == orc_alpha(H, "v0", "v1", p.alpha)
            assert p.kappa_h == orc_alpha_h(H, H_LOG, "v0", "v1", p.alpha)
            assert p.kappa_h <= float(p.kappa) + 1e-9
        assert lly(H, "v0", "v1") == 0
        est, _ = hlly(H, H_LOG, "v0", "v1")
        assert est == pytest.approx((H_LOG.hp1 - H_LOG.hp0) / H_LOG.h1,
                                    rel=1e-3)

    def test_sorted_pairs_by_sorted_alphas(self):
        H = generate("path", 3)
        points = sweep(H, H_LIN, [("v2", "v0"), ("v0", "v1")],
                       ["1/2", Fraction(1, 4)])
        assert [(p.x, p.y, p.alpha) for p in points] == [
            ("v0", "v1", Fraction(1, 4)), ("v0", "v1", Fraction(1, 2)),
            ("v2", "v0", Fraction(1, 4)), ("v2", "v0", Fraction(1, 2))]
        assert points[2].d == 2

    def test_solver_choice(self):
        H = generate("grid9")
        a = Fraction(1, 2)
        mu = lazy_random_walk(H, "x", a)
        nu = lazy_random_walk(H, "y", a)
        (heur,) = sweep(H, H_LOG, [("x", "y")], [a], heuristic=True)
        assert heur.wh == wh_heuristic(H, H_LOG, mu, nu)
        with pytest.raises(BadParams):
            sweep(H, H_LOG, [("x", "y")], [a], heuristic=True, max_states=1)
        (capped,) = sweep(H, H_LOG, [("x", "y")], [a], max_states=5)
        assert capped.wh == wh_exact(H, H_LOG, mu, nu, max_states=5)
        assert capped.wh.optimality == "heuristic-upper-bound"

    def test_same_vertex(self):
        with pytest.raises(SameVertex):
            sweep(generate("complete", 3), H_LOG, [("v0", "v0")], ALPHAS)
