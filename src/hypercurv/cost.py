"""Concave discount functions for batched transport.

A discount function h maps the mass moved in one step to its cost.  It
must vanish at 0 and be monotone nondecreasing, continuous and concave on
[0, 1]; the derived constants h(1), h'(0) (slope at 0, possibly infinite)
and h'(1) (left slope at 1) drive every curvature bound.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

from .errors import BadParams, LambdaOutOfRange, NotConcave

FAMILIES = ("linear", "log", "truncation", "trunc_log_combo", "power", "tabulated")

_GRID = [Fraction(k, 256) for k in range(257)]


@dataclass(frozen=True)
class AssumptionReport:
    zero_at_zero: bool
    monotone: bool
    concave: bool
    hp0_finite_positive: bool

    @property
    def ok(self) -> bool:
        return all((self.zero_at_zero, self.monotone, self.concave,
                    self.hp0_finite_positive))


class ConcaveCost:
    """One of the built-in discount families, or a tabulated function.

    Every cost has h(1) > 0.  Built-ins (parameter a > 0 rational, within
    the range of positive floats):
      linear           a*t
      log              a*log(1+t)
      truncation       min(a, t)
      trunc_log_combo  min(a, t) + log(1 + max(t - a, 0))
      power            t**a with 0 < a < 1  (slope at 0 is infinite)

    A tabulated cost interpolates sample points piecewise-linearly, so its
    one-sided slopes h'(0) and h'(1) are those of its first and last
    segments.
    """

    def __init__(self, family: str, a=None, points=None):
        if family not in FAMILIES:
            raise ValueError(f"unknown cost family {family!r}")
        self.family = family
        self.a = None if a is None else Fraction(a)
        self.points = None
        if family == "tabulated":
            if not points:
                raise ValueError("tabulated cost needs sample points")
            self.points = sorted((Fraction(x), float(y)) for x, y in points)
            if self.points[0][0] != 0 or self.points[-1][0] != 1:
                raise ValueError("tabulated cost must cover [0, 1]")
            if not all(math.isfinite(y) for _, y in self.points):
                raise ValueError("tabulated samples must be finite")
            if any(p[0] == q[0] for p, q in zip(self.points, self.points[1:])):
                raise ValueError("tabulated sample points must be distinct")
        elif self.a is None or self.a <= 0:
            raise ValueError("parameter a must be a positive rational")
        elif self.a > sys.float_info.max or float(self.a) == 0:
            raise ValueError("parameter a is outside the range of floats")
        if family == "power" and not 0 < self.a < 1:
            raise ValueError("power family needs 0 < a < 1")
        self._check_shape()
        self.h1, self.hp0, self.hp1 = self._constants()
        if not self.h1 > 0:
            raise ValueError("h(1) must be positive")

    # -- evaluation ------------------------------------------------------------

    def __call__(self, lam) -> float:
        return self.eval(lam)

    def eval(self, lam) -> float:
        """h(lam) as a float; exact 0.0 at lam = 0."""
        lam = Fraction(lam)
        if not 0 <= lam <= 1:
            raise LambdaOutOfRange(f"lambda = {lam} outside [0, 1]")
        if lam == 0:
            return 0.0
        a, x = self.a, float(lam)
        if self.family == "linear":
            return float(a) * x
        if self.family == "log":
            return float(a) * math.log1p(x)
        if self.family == "truncation":
            return min(float(a), x)
        if self.family == "trunc_log_combo":
            fa = float(a)
            return min(fa, x) + math.log1p(max(x - fa, 0.0))
        if self.family == "power":
            return x ** float(a)
        return self._interp(lam)

    def _interp(self, lam: Fraction) -> float:
        pts = self.points
        lo, hi = 0, len(pts) - 1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if pts[mid][0] <= lam:
                lo = mid
            else:
                hi = mid
        (x0, y0), (x1, y1) = pts[lo], pts[hi]
        if lam == x0:
            return y0
        t = float((lam - x0) / (x1 - x0))
        return y0 + t * (y1 - y0)

    # -- derived constants -------------------------------------------------------

    def _constants(self):
        a = self.a
        if self.family == "linear":
            return float(a), float(a), float(a)
        if self.family == "log":
            return float(a) * math.log(2), float(a), float(a) / 2
        if self.family == "truncation":
            if a >= 1:
                return 1.0, 1.0, 1.0
            return float(a), 1.0, 0.0
        if self.family == "trunc_log_combo":
            if a >= 1:
                return 1.0, 1.0, 1.0
            return float(a) + math.log(2 - float(a)), 1.0, 1.0 / (2 - float(a))
        if self.family == "power":
            return 1.0, math.inf, float(a)
        # piecewise linear, so the one-sided slopes at 0 and 1 are those of
        # the end segments, each rounded once from its exact rational value
        pts = self.points
        try:
            hp0, hp1 = (float((Fraction(y1) - Fraction(y0)) / (x1 - x0))
                        for (x0, y0), (x1, y1) in (pts[:2], pts[-2:]))
        except OverflowError:
            raise ValueError(
                "tabulated slope outside the range of floats") from None
        return self.eval(1), hp0, hp1

    def constants(self):
        """(h(1), h'(0), h'(1)); h'(0) may be math.inf."""
        return self.h1, self.hp0, self.hp1

    @property
    def is_linear(self) -> bool:
        """Whether h coincides with a linear function on [0, 1]."""
        if self.family == "linear":
            return True
        if self.family in ("truncation", "trunc_log_combo"):
            return self.a >= 1
        return False

    # -- validation ---------------------------------------------------------------

    def _shape(self):
        """(h(0) == 0, monotone, concave), tested on sample points.

        A tabulated cost is tested on its own breakpoints, which is exact
        for a piecewise-linear function: it is monotone iff its samples
        are, and concave iff no sample lies below the chord of its
        neighbours.  Built-in families are tested on the k/256 grid.
        """
        samples = self.points or [(x, self.eval(x)) for x in _GRID]
        pts = [(float(x), y) for x, y in samples]
        ys = [y for _, y in pts]
        # float rounding scales with the values compared, so both slacks
        # do, and a cost whose values are all tiny is still tested: a step
        # may drop by a few ulps of its start, a chord by 1e-12 of its ends
        monotone = all(v >= u - 1e-15 * abs(u) for u, v in zip(ys, ys[1:]))
        concave = all(y1 >= y0 + (y2 - y0) * (x1 - x0) / (x2 - x0)
                      - 1e-12 * max(abs(y0), abs(y2))
                      for (x0, y0), (x1, y1), (x2, y2)
                      in zip(pts, pts[1:], pts[2:]))
        return ys[0] == 0.0, monotone, concave

    def _check_shape(self):
        zero, monotone, concave = self._shape()
        if not zero:
            raise NotConcave("h(0) must be 0")
        if not monotone:
            raise NotConcave("h must be monotone nondecreasing")
        if not concave:
            raise NotConcave("h must be concave")

    def check_assumption(self) -> AssumptionReport:
        """Report which of the standing conditions on h hold.

        The power family is usable wherever h'(0) is not needed, so a
        failing hp0 flag here is a gate, not a construction error.
        """
        zero, monotone, concave = self._shape()
        return AssumptionReport(
            zero_at_zero=zero,
            monotone=monotone,
            concave=concave,
            hp0_finite_positive=0 < self.hp0 < math.inf,
        )

    # -- serialization ---------------------------------------------------------------

    def to_json(self) -> str:
        if self.family == "tabulated":
            return json.dumps({"family": "tabulated",
                               "points": [[str(x), y] for x, y in self.points]})
        return json.dumps({"family": self.family, "a": str(self.a)})

    @classmethod
    def from_json(cls, text: str) -> "ConcaveCost":
        """Parse a spec; any malformed spec raises BadParams."""
        try:
            spec = json.loads(text)
            if not isinstance(spec, dict):
                raise TypeError("a cost spec must be a JSON object")
            family = spec["family"]
            if family == "tabulated":
                return cls("tabulated", points=[(Fraction(x), float(y))
                                                for x, y in spec["points"]])
            return cls(family, a=Fraction(spec["a"]))
        except KeyError as exc:
            raise BadParams(f"cost spec has no {exc} field") from None
        except (ValueError, TypeError, ZeroDivisionError) as exc:
            raise BadParams(f"bad cost spec: {exc}") from None

    def __repr__(self):
        if self.family == "tabulated":
            return f"ConcaveCost(tabulated, {len(self.points)} points)"
        return f"ConcaveCost({self.family}, a={self.a})"
