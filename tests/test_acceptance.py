"""Acceptance criteria.

One test per criterion; each prints a single verdict line (run pytest with
-s or -rP to see them).  Tolerances are pinned here and nowhere else.

Criterion 1 note: the closed-form oracle for the 5-cycle takes the cheaper
of the two transport routes below idleness 1/3 (the single-route formula is
not optimal there; see the corrected-oracle assertions, which also pin the
strict gap).
"""

import random
from fractions import Fraction

import pytest

from hypercurv import (
    ConcaveCost,
    bonnet_myers_bound,
    catalog,
    catalog_instance,
    collapse_map,
    common_denominator,
    diameter,
    generate,
    graph_distance,
    hlly,
    idleness_band,
    lazy_random_walk,
    lly,
    orc_alpha,
    orc_alpha_h,
    plan_cost,
    vertex_count_bound,
    w1,
    wh_exact,
    wh_heuristic,
    wh_line_lower_bound,
)
from hypercurv.transport import _search

from conftest import (
    grid9_batched_plan,
    grid9_spread_plan,
    ladder_route_a,
    ladder_route_b,
    ladder_walks,
    random_hypergraph,
    random_measure,
)

H_LIN = ConcaveCost("linear", a=1)
H_LOG = ConcaveCost("log", a=1)
H_TRUNC = ConcaveCost("truncation", a=Fraction(1, 2))
COSTS = (H_LIN, H_LOG, H_TRUNC)
ALPHAS = (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))

CATALOG_GRID = (
    [("complete", n) for n in range(2, 7)]
    + [("cycle", n) for n in range(2, 9)]
    + [("line_ends", d) for d in range(1, 6)]
    + [("line_end_next", d) for d in range(1, 6)]
    + [("line_both_next", d) for d in range(1, 6)]
)


def _verdict(num, name):
    print(f"ACCEPTANCE {num} {name}: PASS")


def test_criterion_1_catalog_equivalence():
    checked = 0
    for family, m in CATALOG_GRID:
        H, x, y = catalog_instance(family, m)
        for h in COSTS:
            for a in ALPHAS:
                got = orc_alpha_h(H, h, x, y, a)
                want = catalog(family, m, h, a).kappa_h_alpha
                assert got == pytest.approx(want, abs=1e-9), (family, m,
                                                              h.family, a)
                checked += 1
    # corrected 5-cycle points: the solver beats the single-route form
    H, x, y = catalog_instance("cycle", 5)
    for h in (H_LOG, H_TRUNC):
        for a in (Fraction(0), Fraction(1, 4)):
            b = 1 - a
            single = (h.h1 - h.eval(abs(a - b / 2)) - 2 * h.eval(b / 2)) / h.h1
            assert orc_alpha_h(H, h, x, y, a) > single + 1e-12
    assert checked == len(CATALOG_GRID) * len(COSTS) * len(ALPHAS)
    _verdict(1, f"catalog equivalence ({checked} points, tol 1e-9)")


def test_criterion_2_lly_exactness():
    for n in range(2, 7):
        assert lly(generate("complete", n), "v0", "v1") == Fraction(n, n - 1)
    for n in (6, 7, 8):
        assert lly(generate("cycle", n), "v0", "v1") == 0
    for n in (3, 4, 5):
        assert lly(generate("cycle", n), "v0", "v1") == Fraction(6 - n, 2)
    for d in range(2, 6):
        H, x, y = catalog_instance("line_ends", d)
        assert lly(H, x, y) == Fraction(2, d)
    for d in range(1, 6):
        H, x, y = catalog_instance("line_end_next", d)
        assert lly(H, x, y) == Fraction(1, d)
        H, x, y = catalog_instance("line_both_next", d)
        assert lly(H, x, y) == 0
    _verdict(2, "lly exact rationals, no tolerance")


def test_criterion_3_hlly_limits():
    instances = ([("complete", n) for n in (2, 3, 4)]
                 + [("cycle", n) for n in (6, 7)]
                 + [("line_ends", 2), ("line_end_next", 1),
                    ("line_end_next", 2), ("line_both_next", 1),
                    ("line_both_next", 2)])
    for family, m in instances:
        H, x, y = catalog_instance(family, m)
        for h in (H_LOG, H_TRUNC):
            est, diag = hlly(H, h, x, y)  # grid 1 - 2^-k, k = 3..10
            want = catalog(family, m, h).kappa_h
            assert abs(est - want) <= 1e-3 * max(1.0, abs(want)), (
                family, m, h.family, est, want)
            assert diag.alphas[-1] == 1 - Fraction(1, 1024)
    _verdict(3, "hlly estimates match closed forms (rel 1e-3 at 1-2^-10)")


def test_criterion_4_ladder_route_selection():
    d, alpha = 3, Fraction(9, 10)
    H = generate("ladder", d)
    mu, nu = ladder_walks(H, d, alpha)
    res = wh_exact(H, H_TRUNC, mu, nu)
    cost_b = plan_cost(H, H_TRUNC, ladder_route_b(H, d, alpha))
    cost_a = plan_cost(H, H_TRUNC, ladder_route_a(H, d, alpha))
    assert res.value == pytest.approx(1.6, abs=1e-9)
    assert cost_b == pytest.approx(1.6, abs=1e-9)
    assert cost_a == pytest.approx(1.65, abs=1e-9)
    assert res.value <= cost_b + 1e-9 <= cost_a + 1e-9
    # route-comparison inequality for the truncation cost at this idleness
    b = 1 - alpha
    lhs = 2 * (H_TRUNC.eval(1 - b / 2) - H_TRUNC.eval(alpha))
    rhs = (d - 2) * (H_TRUNC.eval(b / 2) + H_TRUNC.eval(1 - b / 2)
                     - H_TRUNC.h1)
    assert lhs <= rhs + 1e-12
    _verdict(4, "ladder picks the convoy route (1.6 vs 1.65, tol 1e-9)")


def test_criterion_5_grid_hypergraph():
    H = generate("grid9")
    alpha = Fraction(9, 10)
    mu = lazy_random_walk(H, "x", alpha)
    nu = lazy_random_walk(H, "y", alpha)
    batched = plan_cost(H, H_LOG, grid9_batched_plan(H, alpha))
    spread = plan_cost(H, H_LOG, grid9_spread_plan(H, alpha))
    heur = wh_heuristic(H, H_LOG, mu, nu)
    assert heur.value <= spread
    res = wh_exact(H, H_LOG, mu, nu, max_states=20_000)
    assert res.optimality == "exact"
    assert res.value <= batched + 1e-12
    assert res.value <= spread + 1e-12
    _verdict(5, "grid hypergraph heuristic <= alternative plan; exact value "
                f"{res.value:.6f} <= both reference plans")


def test_criterion_6_sandwich_and_metric():
    rng = random.Random(60657)
    lin = ConcaveCost("linear", a=Fraction(3, 2))
    for trial in range(200):
        H = random_hypergraph(rng, max_vertices=7, max_edges=4)
        mu = random_measure(rng, H)
        nu = random_measure(rng, H)
        val = float(w1(H, mu, nu)[0])
        res = wh_exact(H, H_LOG, mu, nu)
        back = wh_exact(H, H_LOG, nu, mu)
        assert H_LOG.h1 * val - 1e-12 <= res.value <= H_LOG.hp0 * val + 1e-12
        assert abs(res.value - back.value) <= 1e-12
        linres = wh_exact(H, lin, mu, nu)
        assert abs(linres.value - 1.5 * val) <= 1e-12
        if trial % 4 == 0:
            rho = random_measure(rng, H)
            D = common_denominator([mu, nu, rho])

            def on_grid(m, n):
                return _search(H, H_LOG, m, n, D, 300_000, False).value

            ab, bc, ac = on_grid(mu, rho), on_grid(rho, nu), on_grid(mu, nu)
            assert ac <= ab + bc + 1e-9
    _verdict(6, "sandwich + symmetry(1e-12) + triangle(1e-9) on 200 instances")


def test_criterion_7_curvature_inequalities():
    rng = random.Random(70707)
    # catalog grid: discounted curvature never exceeds the plain one,
    # and both respect their idleness bands
    for family, m in CATALOG_GRID:
        H, x, y = catalog_instance(family, m)
        d = graph_distance(H, x, y)
        for a in ALPHAS:
            k = orc_alpha(H, x, y, a)
            assert abs(k) <= Fraction(2) * (1 - a) / d
            for h in (H_LOG, H_TRUNC):
                kh = catalog(family, m, h, a).kappa_h_alpha
                assert kh <= float(k) + 1e-9
                lo, hi = idleness_band(h, a, d)
                assert lo - 1e-9 <= kh <= hi + 1e-9
    # random suite, solver-side
    for _ in range(25):
        H = random_hypergraph(rng)
        x, y = H.label(0), H.label(H.n - 1)
        for a in (Fraction(0), Fraction(1, 2), Fraction(3, 4)):
            k = orc_alpha(H, x, y, a)
            kh = orc_alpha_h(H, H_LOG, x, y, a)
            d = graph_distance(H, x, y)
            assert kh <= float(k) + 1e-9
            assert abs(k) <= Fraction(2) * (1 - a) / d
            lo, hi = idleness_band(H_LOG, a, d)
            assert lo - 1e-9 <= kh <= hi + 1e-9
    # exact midpoint concavity of the plain curvature in the idleness
    for _ in range(40):
        H = random_hypergraph(rng, max_vertices=6)
        x, y = H.label(0), H.label(H.n - 1)
        a1 = Fraction(rng.randint(0, 16), 16)
        a2 = Fraction(rng.randint(0, 16), 16)
        mid = orc_alpha(H, x, y, (a1 + a2) / 2)
        assert mid >= (orc_alpha(H, x, y, a1) + orc_alpha(H, x, y, a2)) / 2
    _verdict(7, "curvature inequalities (bands, ordering, exact concavity)")


def test_criterion_8_bounds():
    for n in range(2, 7):
        kappa = Fraction(n, n - 1)
        assert bonnet_myers_bound(H_LIN, kappa, "hypergraph_hlly") == 1 \
            == diameter(generate("complete", n))
        assert vertex_count_bound(H_LIN, kappa, n - 1) == n
    # line lower bound on random pairs at distance >= 2
    rng = random.Random(80808)
    checked = 0
    while checked < 10:
        H = random_hypergraph(rng)
        x, y = H.label(0), H.label(H.n - 1)
        d = graph_distance(H, x, y)
        if d < 2:
            continue
        for a in (Fraction(0), Fraction(1, 4), Fraction(1, 2),
                  Fraction(3, 4), Fraction(15, 16)):
            mu = lazy_random_walk(H, x, a)
            nu = lazy_random_walk(H, y, a)
            got = wh_exact(H, H_LOG, mu, nu).value
            assert got >= wh_line_lower_bound(H_LOG, a, d) - 1e-9
        checked += 1
    # collapse maps are 1-Lipschitz (checked exhaustively at construction)
    for family, m in CATALOG_GRID:
        H, x, y = catalog_instance(family, m)
        if graph_distance(H, x, y) >= 2:
            collapse_map(H, x, y)
    _verdict(8, "diameter/vertex bounds, line lower bound, collapse maps")


def test_criterion_9_refine_stability():
    for family, m in CATALOG_GRID:
        H, x, y = catalog_instance(family, m)
        for h in COSTS:
            for a in ALPHAS:
                mu = lazy_random_walk(H, x, a)
                nu = lazy_random_walk(H, y, a)
                D = common_denominator([mu, nu])
                v1_ = wh_exact(H, h, mu, nu).value
                v2_ = _search(H, h, mu, nu, 2 * D, 300_000, False).value
                assert v1_ == pytest.approx(v2_, abs=1e-9), (family, m,
                                                             h.family, a)
    _verdict(9, "grid D vs grid 2D agree (tol 1e-9) on the catalog grid")
