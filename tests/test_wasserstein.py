"""Exact W1: examples, coupling validity, metric and duality properties."""

import random
from fractions import Fraction

import pytest

from hypercurv import (
    ProbMeasure,
    SignedDelta,
    dirac,
    generate,
    graph_distance,
    common_denominator,
    lazy_random_walk,
    w1,
    within_edge_w1,
)
from hypercurv.errors import SupportOutsideEdge, SupportOutsideVertexSet
from hypercurv.measure import quantize
from hypercurv.wasserstein import w1_units

from conftest import random_hypergraph, random_measure


class TestExamples:
    def test_dirac_pair_is_distance(self):
        H = generate("cycle", 6)
        for y in ["v1", "v2", "v3"]:
            val, coup = w1(H, dirac(H, "v0"), dirac(H, y))
            assert val == graph_distance(H, "v0", y)
            coup.check()

    def test_k3_half(self):
        H = generate("complete", 3)
        mu = lazy_random_walk(H, "v0", Fraction(1, 2))
        nu = lazy_random_walk(H, "v1", Fraction(1, 2))
        val, _ = w1(H, mu, nu)
        assert val == Fraction(1, 4)

    def test_c6_adjacent_alpha_zero(self):
        H = generate("cycle", 6)
        mu = lazy_random_walk(H, "v0", 0)
        nu = lazy_random_walk(H, "v1", 0)
        val, _ = w1(H, mu, nu)
        assert val == 1

    def test_support_outside(self):
        H = generate("complete", 3)
        rogue = ProbMeasure({"w": Fraction(1)})
        with pytest.raises(SupportOutsideVertexSet):
            w1(H, rogue, dirac(H, "v0"))


class TestCoupling:
    def test_marginals_and_cost(self):
        rng = random.Random(21)
        for _ in range(25):
            H = random_hypergraph(rng)
            mu = random_measure(rng, H)
            nu = random_measure(rng, H)
            val, coup = w1(H, mu, nu)
            coup.check()
            assert coup.cost(H) == val
            assert all(p >= 0 for p in coup.entries.values())

    def test_symmetry(self):
        rng = random.Random(22)
        for _ in range(20):
            H = random_hypergraph(rng)
            mu = random_measure(rng, H)
            nu = random_measure(rng, H)
            assert w1(H, mu, nu)[0] == w1(H, nu, mu)[0]

    def test_triangle_and_identity(self):
        rng = random.Random(23)
        for _ in range(15):
            H = random_hypergraph(rng)
            a = random_measure(rng, H)
            b = random_measure(rng, H)
            c = random_measure(rng, H)
            ab = w1(H, a, b)[0]
            bc = w1(H, b, c)[0]
            ac = w1(H, a, c)[0]
            assert ac <= ab + bc
            assert w1(H, a, a)[0] == 0
            if a != b:
                assert ab > 0

    def test_deterministic(self):
        rng = random.Random(24)
        H = random_hypergraph(rng)
        mu = random_measure(rng, H)
        nu = random_measure(rng, H)
        first = w1(H, mu, nu)
        for _ in range(3):
            val, coup = w1(H, mu, nu)
            assert val == first[0]
            assert coup.entries == first[1].entries


class TestDuality:
    def test_lipschitz_functions_lower_bound(self):
        # sum f d(mu - nu) <= W1 for every 1-Lipschitz f; BFS potentials
        rng = random.Random(25)
        for _ in range(15):
            H = random_hypergraph(rng)
            mu = random_measure(rng, H)
            nu = random_measure(rng, H)
            val, _ = w1(H, mu, nu)
            mat = H.distance_matrix()
            for _ in range(5):
                root = rng.randrange(H.n)
                sign = rng.choice([1, -1])
                f = {H.label(v): sign * mat[root][v] for v in range(H.n)}
                gap = sum(f[v] * p for v, p in mu.weights.items())
                gap -= sum(f[v] * p for v, p in nu.weights.items())
                assert gap <= val

    def test_units_form_matches_w1(self):
        # w1 and w1_units share the quantizer and the supply/demand split
        rng = random.Random(52)
        for _ in range(50):
            H = random_hypergraph(rng)
            mu = random_measure(rng, H)
            nu = random_measure(rng, H)
            D = common_denominator([mu, nu])
            val, coup = w1(H, mu, nu)
            coup.check()
            units, _ = w1_units(H, quantize(H, mu, D), quantize(H, nu, D))
            assert val * D == units


class TestWithinEdge:
    def test_examples(self):
        assert within_edge_w1(
            SignedDelta({"u": Fraction(1, 2), "v": Fraction(-1, 2)}),
            {"u", "v"}) == Fraction(1, 2)
        assert within_edge_w1(SignedDelta({}), {"u", "v"}) == 0
        assert within_edge_w1(
            SignedDelta({"u": Fraction(1, 4), "v": Fraction(1, 4),
                         "w": Fraction(-1, 2)}),
            {"u", "v", "w"}) == Fraction(1, 2)

    def test_support_escapes(self):
        with pytest.raises(SupportOutsideEdge):
            within_edge_w1(
                SignedDelta({"u": Fraction(1, 2), "z": Fraction(-1, 2)}),
                {"u", "v"})

    def test_agrees_with_solver_exhaustive(self):
        # single hyperedge of up to 5 vertices, denominators up to 12
        from hypercurv import Hypergraph

        for size in (3, 4, 5):
            labels = [f"w{i}" for i in range(size)]
            H = Hypergraph(labels, [set(labels)])
            rng = random.Random(size)
            for _ in range(40):
                D = rng.choice([4, 6, 8, 12])
                mu = random_measure(rng, H, max_denominator=D)
                nu = random_measure(rng, H, max_denominator=D)
                delta = mu.minus(nu)
                direct = within_edge_w1(delta, set(labels))
                solved, _ = w1(H, mu, nu)
                assert direct == solved


class TestPiecewiseLinearInIdleness:
    def test_at_most_three_pieces_on_graphs(self):
        # sample 50 idleness values, count slope changes of the exact curve
        for H, x, y in [
            (generate("cycle", 5), "v0", "v1"),
            (generate("complete", 4), "v0", "v1"),
            (generate("path", 4), "v0", "v3"),
            (generate("path", 3), "v0", "v2"),
        ]:
            xs = [Fraction(k, 50) for k in range(51)]
            ys = []
            for a in xs:
                mu = lazy_random_walk(H, x, a)
                nu = lazy_random_walk(H, y, a)
                ys.append(w1(H, mu, nu)[0])
            slopes = [(y2 - y1) / (x2 - x1)
                      for (x1, y1), (x2, y2) in zip(zip(xs, ys), zip(xs[1:], ys[1:]))]
            changes = sum(1 for s1, s2 in zip(slopes, slopes[1:]) if s1 != s2)
            assert changes <= 2
