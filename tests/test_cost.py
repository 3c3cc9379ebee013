"""Discount function families: evaluation, constants, shape checks."""

import math
import random
from fractions import Fraction

import pytest

from hypercurv import ConcaveCost
from hypercurv.errors import BadParams, LambdaOutOfRange, NotConcave


class TestEval:
    def test_linear(self):
        h = ConcaveCost("linear", a=2)
        assert h.eval(Fraction(1, 2)) == 1.0
        assert h.eval(0) == 0.0

    def test_log_at_one(self):
        h = ConcaveCost("log", a=1)
        assert h.eval(1) == pytest.approx(math.log(2), abs=1e-15)

    def test_truncation(self):
        h = ConcaveCost("truncation", a=Fraction(1, 2))
        assert h.eval(Fraction(9, 10)) == 0.5
        assert h.eval(Fraction(1, 4)) == 0.25

    def test_combo(self):
        h = ConcaveCost("trunc_log_combo", a=Fraction(1, 2))
        assert h.eval(Fraction(1, 4)) == 0.25
        assert h.eval(1) == pytest.approx(0.5 + math.log(1.5), abs=1e-15)

    def test_power(self):
        h = ConcaveCost("power", a=Fraction(1, 2))
        assert h.eval(Fraction(1, 4)) == pytest.approx(0.5, abs=1e-15)

    def test_domain(self):
        h = ConcaveCost("linear", a=1)
        with pytest.raises(LambdaOutOfRange):
            h.eval(Fraction(3, 2))
        with pytest.raises(LambdaOutOfRange):
            h.eval(Fraction(-1, 2))


class TestConstants:
    def test_linear(self):
        h = ConcaveCost("linear", a=Fraction(3, 2))
        assert h.constants() == (1.5, 1.5, 1.5)

    def test_log(self):
        h = ConcaveCost("log", a=1)
        h1, hp0, hp1 = h.constants()
        assert h1 == pytest.approx(math.log(2), abs=1e-15)
        assert hp0 == 1.0
        assert hp1 == 0.5

    def test_truncation(self):
        h = ConcaveCost("truncation", a=Fraction(1, 2))
        assert h.constants() == (0.5, 1.0, 0.0)

    def test_power_infinite_slope(self):
        h = ConcaveCost("power", a=Fraction(1, 2))
        h1, hp0, hp1 = h.constants()
        assert h1 == 1.0
        assert math.isinf(hp0)
        assert hp1 == 0.5

    def test_slope_ordering(self):
        # h'(1) <= h(1) <= h'(0), equal only for the linear family
        for h in [ConcaveCost("log", a=2), ConcaveCost("truncation", a=Fraction(1, 3)),
                  ConcaveCost("trunc_log_combo", a=Fraction(1, 2))]:
            assert h.hp1 <= h.h1 <= h.hp0
            if not h.is_linear:
                assert h.hp1 < h.h1 < h.hp0
        lin = ConcaveCost("linear", a=1)
        assert lin.hp1 == lin.h1 == lin.hp0

    def test_tabulated_against_analytic(self):
        # tabulate the log cost finely; difference quotients must recover
        # its slopes within the reported error
        pts = [(Fraction(k, 4096), math.log1p(k / 4096)) for k in range(4097)]
        h = ConcaveCost("tabulated", points=pts)
        assert h.h1 == pytest.approx(math.log(2), abs=1e-12)
        assert h.hp0 == pytest.approx(1.0, abs=1e-3)
        assert h.hp1 == pytest.approx(0.5, abs=1e-3)
        assert h.derivative_error < 1e-2

    @pytest.mark.parametrize("family,kwargs,spec", [
        ("tabulated", {"points": [(0, 0.0), (1, 0.0)]},
         '{"family":"tabulated","points":[[0,0],[1,0]]}'),
        ("linear", {"a": Fraction(1, 10 ** 400)},
         '{"family":"linear","a":"1e-400"}'),
        ("truncation", {"a": Fraction(1, 10 ** 400)},
         '{"family":"truncation","a":"1e-400"}'),
        ("log", {"a": Fraction(10 ** 400)}, '{"family":"log","a":"1e400"}')])
    def test_degenerate_costs_rejected(self, family, kwargs, spec):
        # h(1) = 0 in floats, or an a that overflows a float, would divide by
        # zero or overflow downstream; every accepted cost has h(1) > 0
        with pytest.raises(ValueError):
            ConcaveCost(family, **kwargs)
        with pytest.raises(BadParams):
            ConcaveCost.from_json(spec)


class TestAssumption:
    def test_linear_all_pass(self):
        assert ConcaveCost("linear", a=1).check_assumption().ok

    def test_power_fails_slope_at_zero(self):
        rep = ConcaveCost("power", a=Fraction(1, 2)).check_assumption()
        assert not rep.hp0_finite_positive
        assert rep.monotone and rep.concave and rep.zero_at_zero
        assert not rep.ok

    def test_decreasing_tabulated_rejected(self):
        pts = [(Fraction(0), 0.0), (Fraction(1, 2), 0.6), (Fraction(1), 0.2)]
        with pytest.raises(NotConcave):
            ConcaveCost("tabulated", points=pts)

    @pytest.mark.parametrize("pts", [
        # decreasing on the last segment only, between two k/256 samples
        [(0, 0.0), (Fraction(511, 512), 1.0), (1, 0.999)],
        # a convex kink inside the first k/256 cell
        [(0, 0.0), (Fraction(1, 1000), 0.0), (Fraction(1, 500), 0.01),
         (1, 1.0)],
        # h(0) = 0.5 at the first sample, though eval(0) is 0.0 for every cost
        [(0, 0.5), (1, 1.0)]])
    def test_tabulated_tested_at_breakpoints(self, pts):
        with pytest.raises(NotConcave):
            ConcaveCost("tabulated", points=pts)

    @pytest.mark.parametrize("pts", [
        [(0, 0.0), (Fraction(1, 2), math.nan), (1, 1.0)],
        [(0, 0.0), (Fraction(1, 2), math.inf), (1, 1.0)],
        [(0, 0.0), (Fraction(1, 2), 0.6), (Fraction(1, 2), 0.7), (1, 1.0)]])
    def test_malformed_tabulated_rejected(self, pts):
        with pytest.raises(ValueError):
            ConcaveCost("tabulated", points=pts)

    def test_convex_power_rejected(self):
        with pytest.raises(ValueError):
            ConcaveCost("power", a=2)


class TestShapeProperties:
    @pytest.mark.parametrize("family,a", [
        ("linear", Fraction(1)), ("log", Fraction(1)),
        ("truncation", Fraction(1, 2)), ("trunc_log_combo", Fraction(1, 2)),
        ("power", Fraction(1, 2)),
    ])
    def test_chord_bound(self, family, a):
        h = ConcaveCost(family, a=a)
        for k in range(257):
            c = Fraction(k, 256)
            assert h.eval(c) >= float(c) * h.h1 - 1e-12

    @pytest.mark.parametrize("family,a", [
        ("linear", Fraction(1)), ("log", Fraction(1)),
        ("truncation", Fraction(1, 2)), ("trunc_log_combo", Fraction(1, 2)),
    ])
    def test_tangent_bound(self, family, a):
        h = ConcaveCost(family, a=a)
        for k in range(257):
            c = Fraction(k, 256)
            assert h.eval(c) <= h.hp0 * float(c) + 1e-12

    def test_midpoint_concavity_random(self):
        rng = random.Random(31)
        hs = [ConcaveCost("log", a=1), ConcaveCost("truncation", a=Fraction(1, 2)),
              ConcaveCost("power", a=Fraction(1, 3))]
        for _ in range(1000):
            a = Fraction(rng.randint(0, 256), 256)
            b = Fraction(rng.randint(0, 256), 256)
            for h in hs:
                mid = h.eval((a + b) / 2)
                assert mid >= (h.eval(a) + h.eval(b)) / 2 - 1e-12


class TestSerialization:
    def test_round_trip(self):
        for h in [ConcaveCost("log", a=1), ConcaveCost("truncation", a=Fraction(1, 2)),
                  ConcaveCost("power", a=Fraction(1, 2))]:
            again = ConcaveCost.from_json(h.to_json())
            assert again.family == h.family
            assert again.a == h.a

    def test_spec_strings(self):
        h = ConcaveCost.from_json('{"family":"log","a":"1"}')
        assert h.family == "log" and h.a == 1
        h = ConcaveCost.from_json('{"family":"truncation","a":"1/2"}')
        assert h.a == Fraction(1, 2)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            ConcaveCost("cubic", a=1)
