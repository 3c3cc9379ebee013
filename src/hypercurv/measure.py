"""Exact-rational probability measures on hypergraph vertices.

All mass arithmetic is done with ``fractions.Fraction``; floating point
only ever enters through the concave cost function.  Measures are value
objects: operations return new instances.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import lcm

from .errors import AlphaOutOfRange, SupportOutsideVertexSet, UnknownVertex
from .hypergraph import Hypergraph


class ProbMeasure:
    """Sparse exact-rational distribution: vertex label -> weight in (0, 1]."""

    __slots__ = ("weights",)

    def __init__(self, weights):
        w = {v: Fraction(p) for v, p in dict(weights).items() if p != 0}
        if any(p < 0 for p in w.values()):
            raise ValueError("negative weight in probability measure")
        if sum(w.values(), Fraction(0)) != 1:
            raise ValueError("weights must sum to exactly 1")
        self.weights = w

    def __getitem__(self, v) -> Fraction:
        return self.weights.get(v, Fraction(0))

    def __eq__(self, other):
        return isinstance(other, ProbMeasure) and self.weights == other.weights

    def __hash__(self):
        return hash(frozenset(self.weights.items()))

    def __repr__(self):
        inner = ", ".join(f"{v}: {p}" for v, p in sorted(self.weights.items()))
        return f"ProbMeasure({{{inner}}})"

    @property
    def support(self) -> set[str]:
        return set(self.weights)

    def check_support(self, H: Hypergraph):
        for v in self.weights:
            if v not in H.vertices:
                raise SupportOutsideVertexSet(f"vertex {v!r} not in the hypergraph")
        return self

    def minus(self, other: "ProbMeasure") -> "SignedDelta":
        deltas = dict(self.weights)
        for v, p in other.weights.items():
            deltas[v] = deltas.get(v, Fraction(0)) - p
        return SignedDelta(deltas)

    def to_json(self) -> str:
        return json.dumps({v: str(p) for v, p in sorted(self.weights.items())})

    @classmethod
    def from_json(cls, text: str) -> "ProbMeasure":
        return cls({v: Fraction(p) for v, p in json.loads(text).items()})


class SignedDelta:
    """Difference of two measures: vertex -> rational, summing to 0."""

    __slots__ = ("deltas",)

    def __init__(self, deltas):
        d = {v: Fraction(p) for v, p in dict(deltas).items() if p != 0}
        if sum(d.values(), Fraction(0)) != 0:
            raise ValueError("signed delta must sum to exactly 0")
        self.deltas = d

    def __getitem__(self, v) -> Fraction:
        return self.deltas.get(v, Fraction(0))

    def __eq__(self, other):
        return isinstance(other, SignedDelta) and self.deltas == other.deltas

    @property
    def support(self) -> set[str]:
        return set(self.deltas)

    def half_l1(self) -> Fraction:
        return sum((abs(p) for p in self.deltas.values()), Fraction(0)) / 2


def dirac(H: Hypergraph, x: str) -> ProbMeasure:
    """Unit mass at x."""
    H.vertex_id(x)
    return ProbMeasure({x: Fraction(1)})


def _walk(H: Hypergraph, x: str, alpha):
    """The idleness-alpha walk from x as (vertex ids, integer masses,
    denominator): the weights are the masses over the denominator, the
    lcm of their own denominators, in lazy_random_walk's key order."""
    alpha = Fraction(alpha)
    if not 0 <= alpha <= 1:
        raise AlphaOutOfRange(f"alpha = {alpha} outside [0, 1]")
    xid = H.vertex_id(x)
    if alpha == 1:
        return (xid,), (1,), 1
    nbrs = H.neighbors(xid)
    if not nbrs:
        raise UnknownVertex(f"vertex {x!r} has no neighbors")
    share = (1 - alpha) / len(nbrs)
    den = lcm(share.denominator, alpha.denominator)
    masses = [share.numerator * (den // share.denominator)] * len(nbrs)
    if not alpha:
        return nbrs, masses, den
    return ((*nbrs, xid),
            masses + [alpha.numerator * (den // alpha.denominator)], den)


def lazy_random_walk(H: Hypergraph, x: str, alpha) -> ProbMeasure:
    """One step of the idleness-alpha walk from x: stay with probability
    alpha, otherwise jump uniformly to one of the d_x neighbors."""
    ids, masses, den = _walk(H, x, alpha)
    return ProbMeasure({H.label(v): Fraction(m, den)
                        for v, m in zip(ids, masses)})


def walk_units(H: Hypergraph, x: str, y: str, alpha):
    """(D, mu units, nu units): the idleness-alpha walks from x and from y
    as integer vectors by vertex id on the grid of 1/D, D the
    common_denominator of the two walks.  Raises what lazy_random_walk
    raises, for x before y."""
    walks = _walk(H, x, alpha), _walk(H, y, alpha)
    D = lcm(walks[0][2], walks[1][2])
    vectors = []
    for ids, masses, den in walks:
        units = [0] * H.n
        for v, m in zip(ids, masses):
            units[v] = m * (D // den)
        vectors.append(units)
    return D, *vectors


def common_denominator(measures) -> int:
    """lcm of all weight denominators (the mass quantization grid)."""
    measures = list(measures)
    if not measures:
        raise ValueError("need at least one measure")
    dens = [p.denominator for m in measures for p in m.weights.values()]
    return lcm(*dens) if dens else 1


def quantize(H: Hypergraph, m: ProbMeasure, D: int) -> tuple:
    """m in units of 1/D by vertex id; D is a multiple of its denominators."""
    units = [0] * H.n
    for v, p in m.weights.items():
        units[H.vertex_id(v)] = p.numerator * (D // p.denominator)
    return tuple(units)
