"""Exact measures, the lazy walk, and the quantization grid."""

import random
from fractions import Fraction

import pytest

from hypercurv import (
    ProbMeasure,
    SignedDelta,
    common_denominator,
    dirac,
    generate,
    lazy_random_walk,
)
from hypercurv.errors import AlphaOutOfRange, UnknownVertex
from hypercurv.measure import quantize, walk_units

from conftest import random_hypergraph, random_measure


class TestDirac:
    def test_unit_mass(self):
        H = generate("complete", 3)
        m = dirac(H, "v0")
        assert m.weights == {"v0": Fraction(1)}
        assert m.support == {"v0"}
        assert sum(m.weights.values()) == 1

    def test_unknown_vertex(self):
        H = generate("complete", 3)
        with pytest.raises(UnknownVertex):
            dirac(H, "w")


class TestLazyWalk:
    def test_alpha_one_is_dirac(self):
        H = generate("cycle", 5)
        assert lazy_random_walk(H, "v0", 1) == dirac(H, "v0")

    def test_grid9_center(self):
        H = generate("grid9")
        m = lazy_random_walk(H, "x", Fraction(3, 4))
        assert m["x"] == Fraction(3, 4)
        nbrs = {v for v in m.support if v != "x"}
        assert len(nbrs) == 8
        assert all(m[v] == Fraction(1, 32) for v in nbrs)

    def test_grid9_corner(self):
        H = generate("grid9")
        m = lazy_random_walk(H, "y", Fraction(3, 4))
        assert m["y"] == Fraction(3, 4)
        others = {v: p for v, p in m.weights.items() if v != "y"}
        assert len(others) == 3
        assert all(p == Fraction(1, 12) for p in others.values())

    def test_mass_exact_for_random_alpha(self):
        rng = random.Random(11)
        H = generate("grid9")
        for _ in range(25):
            alpha = Fraction(rng.randint(0, 97), 97)
            m = lazy_random_walk(H, "x", alpha)
            assert sum(m.weights.values()) == 1

    def test_support_is_ball_or_point(self):
        H = generate("cycle", 6)
        m = lazy_random_walk(H, "v0", Fraction(1, 3))
        assert m.support == {"v0", "v1", "v5"}
        assert lazy_random_walk(H, "v0", 1).support == {"v0"}
        assert lazy_random_walk(H, "v0", 0).support == {"v1", "v5"}

    def test_alpha_out_of_range(self):
        H = generate("cycle", 6)
        with pytest.raises(AlphaOutOfRange):
            lazy_random_walk(H, "v0", Fraction(5, 4))


def _listed_walk(H, x, alpha):
    """The lazy walk as it was written before it was built from integer
    masses, kept as the reference for its weights and key order."""
    alpha = Fraction(alpha)
    if alpha == 1:
        return dirac(H, x)
    nbrs = H.neighbors(H.vertex_id(x))
    share = (1 - alpha) / len(nbrs)
    w = {H.label(v): share for v in nbrs}
    if alpha > 0:
        w[x] = alpha
    return ProbMeasure(w)


WALK_ALPHAS = [Fraction(0), Fraction(1, 7), Fraction(1, 4), Fraction(1, 2),
               Fraction(5, 6), Fraction(1)]


def _walk_graphs():
    rng = random.Random(29)
    return ([generate("grid9"), generate("cycle", 5), generate("path", 3)]
            + [random_hypergraph(rng) for _ in range(20)])


class TestWalkUnits:
    def test_weights_and_key_order_unchanged(self):
        for H in _walk_graphs():
            for x in H.vertices:
                for a in WALK_ALPHAS:
                    got = list(lazy_random_walk(H, x, a).weights.items())
                    want = list(_listed_walk(H, x, a).weights.items())
                    assert got == want, (H.edges, x, a)

    def test_grid_is_common_denominator(self):
        # the integer walks are the quantized measures on the grid that
        # common_denominator picks for the two walks
        for H in _walk_graphs():
            for x in H.vertices:
                for y in H.vertices:
                    for a in WALK_ALPHAS:
                        mu = lazy_random_walk(H, x, a)
                        nu = lazy_random_walk(H, y, a)
                        D, start, goal = walk_units(H, x, y, a)
                        assert D == common_denominator([mu, nu])
                        assert tuple(start) == quantize(H, mu, D)
                        assert tuple(goal) == quantize(H, nu, D)


class TestCommonDenominator:
    def test_dirac(self):
        H = generate("complete", 3)
        assert common_denominator([dirac(H, "v0")]) == 1

    def test_k3_half(self):
        H = generate("complete", 3)
        m = lazy_random_walk(H, "v0", Fraction(1, 2))
        assert common_denominator([m]) == 4

    def test_grid9_three_quarters(self):
        H = generate("grid9")
        mx = lazy_random_walk(H, "x", Fraction(3, 4))
        my = lazy_random_walk(H, "y", Fraction(3, 4))
        assert common_denominator([mx, my]) == 96


class TestQuantize:
    def test_matches_fraction_scaling(self):
        # p.numerator * (D // p.denominator) is int(p * D) on every grid
        # that refines the measure's own
        rng = random.Random(91)
        for _ in range(60):
            H = random_hypergraph(rng)
            m = random_measure(rng, H)
            for D in (common_denominator([m]) * k for k in (1, 2, 5, 12)):
                units = quantize(H, m, D)
                assert units == tuple(int(m[H.label(v)] * D)
                                      for v in range(H.n))
                assert sum(units) == D


class TestSignedDelta:
    def test_difference_sums_to_zero(self):
        rng = random.Random(12)
        for _ in range(20):
            H = random_hypergraph(rng)
            a = random_measure(rng, H)
            b = random_measure(rng, H)
            delta = a.minus(b)
            assert sum(delta.deltas.values(), Fraction(0)) == 0

    def test_nonzero_sum_rejected(self):
        with pytest.raises(ValueError):
            SignedDelta({"a": Fraction(1, 2)})

    def test_half_l1(self):
        d = SignedDelta({"a": Fraction(1, 4), "b": Fraction(1, 4),
                         "c": Fraction(-1, 2)})
        assert d.half_l1() == Fraction(1, 2)


class TestProbMeasure:
    def test_zero_entries_dropped(self):
        m = ProbMeasure({"a": Fraction(1), "b": Fraction(0)})
        assert "b" not in m.weights

    def test_bad_total_rejected(self):
        with pytest.raises(ValueError):
            ProbMeasure({"a": Fraction(1, 2)})

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ProbMeasure({"a": Fraction(3, 2), "b": Fraction(-1, 2)})

    def test_json_round_trip(self):
        m = ProbMeasure({"a": Fraction(1, 3), "b": Fraction(2, 3)})
        assert ProbMeasure.from_json(m.to_json()) == m
        assert '"1/3"' in m.to_json()
