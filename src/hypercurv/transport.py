"""The concave-discounted stepwise transport distance.

A transport plan is a sequence of steps, each redistributing mass inside a
single hyperedge; a step moving total mass m costs h(m).  The distance is
the minimal total cost over all plans joining two measures.  Masses are
exact rationals throughout; floating point enters only through h.

The exact solver searches measures in units of 1/D, where D is the lcm of
the endpoint denominators, and loses no optimum by it.  Fix a plan's
hyperedge sequence e_1..e_I.  Its plans are the flows of a time-expanded
network with a node (v, i) per vertex and step, arcs (v, i-1) -> (w, i)
for v, w in e_i (moves) or v = w (stays), supply mu on layer 0 and demand
nu on layer I.  Charge step i by h(sum of its move flows): the sum bounds
the step's moved mass and h is nondecreasing, so this never undercuts the
plan cost, and netting the moves (a -> b -> c becomes a -> c) makes the
two equal.  The charge is concave and the flows form a bounded polytope,
so the minimum is at a vertex.  Node-arc incidence matrices are totally
unimodular, so with supplies and demands in units of 1/D every vertex has
flows in units of 1/D (Schrijver, Theory of Linear and Integer
Programming, 1986, ch. 19).  Hence every plan is matched, at no higher
cost, by a grid plan with the same sequence.  Every grid step costs at
least h(1/D) >= h(1)/D > 0 by concavity, so only finitely many grid plans
lie below any cost and the minimum is attained.

The search prices successors by Kantorovich-Rubinstein duality: the exact
W1 solve of an expanded state also yields a 1-Lipschitz potential f with
<f, state - goal> = W1, so <f, child - goal> bounds a child's W1 from
below with no further kernel call.  Any potential of the same goal bounds
every state so, which lets a popped state be priced out of the search by
the potentials already seen (a bundle, the piecewise-linear minorant of
Kelley's cutting-plane method, J. SIAM 1960) before its own W1 solve.

A second bound reads the hyperedges.  Removing a hyperedge e splits the
hypergraph into components, and every other hyperedge lies inside one of
them, so only steps on e move mass between them.  A step moving m on e
lowers the components' total excess against the goal by at most m, so the
steps on e move at least L_e, that total (see Hypergraph.cut_groups and
_imbalance).  Concavity of h then prices every edge's share of W1 from
below (see _cut_bound).  The search prunes on it but orders by the
envelope of W1 alone, so it stays a branch-and-bound test on an admissible
bound (Hart, Nilsson and Raphael, IEEE Trans. SSC 1968) and drops no
cheaper plan.  At the start the same bound can certify the greedy seed,
which then ends the branch and bound before it expands anything (Land and
Doig, Econometrica 1960).
"""

from __future__ import annotations

import bisect
import functools
import heapq
import itertools
import json
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .cost import ConcaveCost
from .errors import (
    EndpointMismatch,
    NegativeIntermediateMass,
    NotAssociated,
    StepLeavesHyperedge,
)
from .hypergraph import Hypergraph
from .measure import ProbMeasure, common_denominator, quantize
from .wasserstein import Coupling, w1, w1_flows, w1_primal_dual, w1_units

COST_TOL = 1e-12
# wh_exact enumerates a hyperedge of three or more vertices exhaustively
# while its mass has at most this many compositions over them, and uses the
# structured successor family beyond (see _structured).
FULL_ENUM_LIMIT = 512


@dataclass(frozen=True)
class TransportStep:
    """One redistribution inside a hyperedge.

    moves hold (from, to, mass) with both endpoints inside the hyperedge.
    moved_mass is the total gain of the vertices whose holding grows, i.e.
    half the L1 norm of the step's net change: a relay a -> b -> c moves
    only what reaches c.  It equals the sum of move masses whenever no
    vertex both sends and receives.  plan_cost charges h(moved_mass).
    """

    edge: int
    moves: tuple

    @property
    def moved_mass(self) -> Fraction:
        net = {}
        for a, b, m in self.moves:
            net[a] = net.get(a, Fraction(0)) - m
            net[b] = net.get(b, Fraction(0)) + m
        return sum((d for d in net.values() if d > 0), Fraction(0))


@dataclass(frozen=True)
class TransportPlan:
    start: ProbMeasure
    end: ProbMeasure
    steps: tuple

    def to_json(self) -> str:
        return json.dumps({
            "start": {v: str(p) for v, p in sorted(self.start.weights.items())},
            "end": {v: str(p) for v, p in sorted(self.end.weights.items())},
            "steps": [{"edge": s.edge,
                       "moves": [[a, b, str(m)] for a, b, m in s.moves]}
                      for s in self.steps],
        })

    @classmethod
    def from_json(cls, text: str) -> "TransportPlan":
        raw = json.loads(text)
        return cls(
            start=ProbMeasure({v: Fraction(p) for v, p in raw["start"].items()}),
            end=ProbMeasure({v: Fraction(p) for v, p in raw["end"].items()}),
            steps=tuple(TransportStep(s["edge"],
                                      tuple((a, b, Fraction(m))
                                            for a, b, m in s["moves"]))
                        for s in raw["steps"]),
        )


@dataclass(frozen=True)
class WhResult:
    value: float
    plan: TransportPlan
    optimality: str  # "exact" | "heuristic-upper-bound"
    lower_bound: float
    states_expanded: int
    quantization: int


def _holdings(H: Hypergraph, plan: TransportPlan):
    """The holdings (vertex -> mass) before the first step and after each
    step, validating every step."""
    cur = dict(plan.start.weights)
    out = [cur]
    for n, step in enumerate(plan.steps):
        edge_labels = {H.label(v) for v in H.edges[step.edge]}
        outflow = {}
        for a, b, m in step.moves:
            if m <= 0 or a == b:
                raise StepLeavesHyperedge(
                    f"step {n}: malformed move ({a!r} -> {b!r}, {m})")
            if a not in edge_labels or b not in edge_labels:
                raise StepLeavesHyperedge(
                    f"step {n}: move {a!r} -> {b!r} leaves hyperedge {step.edge}")
            outflow[a] = outflow.get(a, Fraction(0)) + m
        for a, sent in outflow.items():
            if sent > cur.get(a, Fraction(0)):
                raise NegativeIntermediateMass(
                    f"step {n}: vertex {a!r} sends {sent} but holds "
                    f"{cur.get(a, Fraction(0))}")
        nxt = dict(cur)
        for a, b, m in step.moves:
            nxt[a] -= m
            nxt[b] = nxt.get(b, Fraction(0)) + m
        cur = {v: p for v, p in nxt.items() if p != 0}
        out.append(cur)
    return out


def plan_cost(H: Hypergraph, h: ConcaveCost, plan: TransportPlan) -> float:
    """Re-validate a plan and recompute its cost from scratch."""
    if _holdings(H, plan)[-1] != plan.end.weights:
        raise EndpointMismatch("plan does not end at the declared measure")
    total = 0.0
    for step in plan.steps:
        total += h.eval(step.moved_mass)
    return total


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------


def wh_bounds(H: Hypergraph, h: ConcaveCost, mu: ProbMeasure, nu: ProbMeasure):
    """Rigorous bracket: h(1)*W1 below, a decomposed-coupling plan above.

    The upper bound walks every parcel of a W1-optimal coupling along a
    shortest path one hop at a time (cost d(x,y)*h(mass) per parcel); when
    h'(0) is finite the coarser h'(0)*W1 bound is intersected in.
    """
    val, coupling = w1(H, mu, nu)
    lower = h.h1 * float(val)
    upper = 0.0
    for (x, y), p in coupling.entries.items():
        if x != y:
            d = H.distance_id(H.vertex_id(x), H.vertex_id(y))
            upper += d * h.eval(p)
    if math.isfinite(h.hp0):
        upper = min(upper, h.hp0 * float(val))
    return lower, max(lower, upper)


# ---------------------------------------------------------------------------
# exact search
# ---------------------------------------------------------------------------


def _step_prices(h: ConcaveCost, D: int):
    """price(m) = h(m / D), memoized: the search's one call site of h."""
    return functools.cache(lambda m: h.eval(Fraction(m, D)))


def _envelope(h1: float, price, w: int, D: int) -> float:
    """Cheapest way to pay for total W1 movement w / D: as few full-mass
    steps as possible plus one fractional step (concavity makes batching
    best), priced in units by h1 = h(1) and the step prices of price."""
    if w <= 0:
        return 0.0
    whole, frac = divmod(w, D)
    out = whole * h1
    if frac:
        out += price(frac)
    return out


def _imbalance(state, goal, groups):
    """L_e of an edge whose cut groups are `groups` (see
    Hypergraph.cut_groups): the larger of the groups' summed excess and
    summed deficit against the goal, in grid units."""
    return _larger_side(_group_sums(state, goal, groups))


def _group_sums(state, goal, groups):
    """Per cut group, its summed state - goal.  A one-vertex group, as
    every grid9 group is, is read without the inner loop."""
    sums = []
    for grp in groups:
        if len(grp) == 1:
            v, = grp
            sums.append(state[v] - goal[v])
        else:
            d = 0
            for v in grp:
                d += state[v] - goal[v]
            sums.append(d)
    return sums


def _larger_side(sums):
    """The larger of the summed excess and summed deficit of the group
    sums of _group_sums: the edge's L_e."""
    excess = deficit = 0
    for d in sums:
        if d > 0:
            excess += d
        else:
            deficit -= d
    return max(excess, deficit)


def _zeroed_terms(env, L):
    """Per edge k, the terms (sum, top, rest) of the imbalances L with
    L[k] set to 0: top is their largest and rest is the envelope summed
    over all of them but one top (see _cut_bound)."""
    total = sum(L)
    env_sum = sum(map(env, L))
    second, first = sorted([0] + L)[-2:]
    out = []
    for x in L:
        top = second if x == first else first
        out.append((total - x, top, env_sum - env(x) - env(top)))
    return out


def _put(env, terms, c):
    """The terms of _zeroed_terms with the zeroed imbalance set to c."""
    total, top, rest = terms
    if c > top:
        return total + c, c, rest + env(top)
    return total + c, top, rest + env(c)


def _cut_bound(env, D, terms, w):
    """A lower bound on the cost of every plan that moves at least w units
    of W1 and at least L_e units on each edge e, from the terms (sum, top,
    rest) of the imbalances L (see _zeroed_terms and wh_exact).

    The steps on e move M_e >= L_e units at one unit of mass (D) at most
    each, so they cost at least env(M_e), and sum(M_e) >= w.  env is
    concave on [0, D], so the extra mass max(w - sum(L), 0) is cheapest
    on the edge of largest L_e, up to D - top, where concavity ends.
    """
    total, top, rest = terms
    extra = min(max(w - total, 0), D - top)
    return max(env(w), rest + env(top + extra))


def _push_bound(env, D, terms, own, w, bound):
    """The bound the push rule tests a child with: the cut bound at W1 =
    w with the visited edge's L_k = own, from that edge's terms with L_k
    = 0 (see _zeroed_terms), and never below `bound`, the bound at L_k =
    0 that dear tests with, _cut_bound(env, D, terms, w).  In exact
    arithmetic the bound at own is never the smaller, but _put's float
    sums can leave it an ulp short, so the larger of the two is taken; at
    own = 0 they are one float and `bound` alone is returned."""
    if own:
        return max(bound, _cut_bound(env, D, _put(env, terms, own), w))
    return bound


def _delta_to_moves(labels, delta_units, D):
    """Minimal-displacement moves for an integer delta on one edge."""
    srcs = [[labels[i], -d] for i, d in enumerate(delta_units) if d < 0]
    dsts = [[labels[i], d] for i, d in enumerate(delta_units) if d > 0]
    moves = []
    si = di = 0
    while si < len(srcs) and di < len(dsts):
        take = min(srcs[si][1], dsts[di][1])
        moves.append((srcs[si][0], dsts[di][0], Fraction(take, D)))
        srcs[si][1] -= take
        dsts[di][1] -= take
        if srcs[si][1] == 0:
            si += 1
        if dsts[di][1] == 0:
            di += 1
    return tuple(moves)


def _compositions(total, ref, cap):
    """Every len(ref)-tuple of non-negative integers summing to total that
    takes at most cap from ref, each with what it takes: the sum of
    max(r - c, 0)."""
    if not ref:
        if total == 0 <= cap:
            yield (), 0
        return
    r0, rest_ref = ref[0], ref[1:]
    if not rest_ref:
        took = r0 - total if total < r0 else 0
        if took <= cap:
            yield (total,), took
        return
    rest = sum(rest_ref)
    if r0 + rest - total > cap:
        return  # every composition takes at least sum(ref) - total
    # the rest gives up at least rest - (total - first), so a first value
    # outside [r0 - cap, total - rest + cap] takes more than cap
    for first in range(max(r0 - cap, 0), min(total - rest + cap, total) + 1):
        took = r0 - first if first < r0 else 0
        for tail, took_rest in _compositions(total - first, rest_ref,
                                             cap - took):
            yield (first,) + tail, took + took_rest


def _most_taken(total, ref):
    """The most any composition of total over ref takes from ref: all of
    it but what stays on the vertex holding least, total at most."""
    return sum(ref) - min(min(ref), total) if ref else 0


def _t_groups(cur, hi, unpruned):
    """The t values, ascending, of the groups in which an edge's successors
    are enumerated exhaustively (see _exhaustive), or None for the
    structured family (see _structured)."""
    k, M = len(cur), sum(cur)
    if k == 2 or unpruned or math.comb(M + k - 1, k - 1) <= FULL_ENUM_LIMIT:
        if 0 < sum(hi) < k:
            on_high = sum(itertools.compress(cur, hi))
            return range(-on_high, M - on_high + 1)
        return range(1)
    return None


def _open_groups(ts, dear):
    """Indices, ascending, of the groups of ts (ascending t) with
    dear(|t|, t) false; a group whose cheapest possible child, which moves
    |t|, is dear holds no child that is not.

    dear is nondecreasing in both arguments.  A run of negative t has
    children that move at least |last t| with t at least the first t, so
    the run is skipped whole when dear(|last t|, first t) holds and
    bisected otherwise; from t >= 0 on, dear(t, t) is nondecreasing, so
    the first dear group ends the scan.
    """
    found = []

    def scan(lo, hi):
        if dear(-ts[hi - 1], ts[lo]):
            return
        if hi - lo == 1:
            found.append(lo)
            return
        mid = (lo + hi) // 2
        scan(lo, mid)
        scan(mid, hi)

    zero = bisect.bisect_left(ts, 0)
    if zero:
        scan(0, zero)
    for i in range(zero, len(ts)):
        if dear(ts[i], ts[i]):
            break
        found.append(i)
    return found


def _last_kept(dear, t, lo, hi):
    """The largest moved in [lo, hi] that dear(moved, t) keeps, by
    bisection, or lo if it keeps none above lo; dear(lo, t) is not asked."""
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if dear(mid, t):
            hi = mid - 1
        else:
            lo = mid
    return lo


def _exhaustive(cur, hi, ts, dear):
    """(new values, moved, t) of every composition of cur's mass but cur
    itself that dear(moved, t) keeps, group by group in the ascending t of
    ts (see _t_groups), each group in the order of _compositions.

    `hi` flags the edge's high-potential vertices (potential one above the
    edge minimum) and t = sum(hi * (new - cur)) is the net mass a child
    moves onto them; the dual bound of a child depends on t alone, and
    moved >= |t|.  `dear` must be nondecreasing in both arguments, as the
    search's test is: it adds the step price of moved to the cut bound at
    W1 + t, and both are nondecreasing.  Only the groups
    _open_groups keeps are enumerated, and group t only up to its cap:
    the largest moved in [|t|, the most the group can move] that
    dear(moved, t) keeps (see _last_kept).  Each child is then dropped
    exactly when dear drops it, and whole ranges of children are dropped
    untried.  The search pushes none of them, so dear only skips.
    """
    k = len(cur)
    high = [i for i in range(k) if hi[i]]
    low = [i for i in range(k) if not hi[i]]
    cur_high = tuple([cur[i] for i in high])
    cur_low = tuple([cur[i] for i in low])
    on_high, on_low = sum(cur_high), sum(cur_low)
    order = high + low
    place = [order.index(i) for i in range(k)]
    for i in _open_groups(ts, dear):
        t = ts[i]
        cap = _last_kept(dear, t, abs(t),
                         _most_taken(on_high + t, cur_high)
                         + _most_taken(on_low - t, cur_low))
        # the bottom gives up at least max(t, 0)
        for top, took_top in _compositions(on_high + t, cur_high,
                                           cap - max(t, 0)):
            for bottom, took_bottom in _compositions(on_low - t, cur_low,
                                                     cap - took_top):
                moved = took_top + took_bottom
                # nothing taken means nothing moved: the current values
                if moved:
                    stacked = top + bottom
                    yield tuple(map(stacked.__getitem__, place)), moved, t


def _structured(cur, goal, hi, dear):
    """(new values, moved, t) of every child of the structured family that
    `dear(moved, t)` keeps, in generation order, each tuple once.

    A hyperedge of three or more vertices whose mass has more than
    FULL_ENUM_LIMIT compositions uses this family instead of the
    exhaustive enumeration, unless unpruned (see _t_groups).  Sources
    drain to 0 or to their goal value, targets fill to their goal value,
    and one vertex absorbs the balance; or one source fills targets
    exactly to goal and keeps the rest.  The family contains every step
    of the worked optimal plans; the unpruned flag restores ground truth.
    moved and t are as in _exhaustive.

    `dear` must be nondecreasing in both arguments, as the search's test
    is (see _exhaustive), and three bounds drop dear children untried.
    New values are at least 0, so every child has t >= t_low =
    -sum(hi * cur).  _last_kept finds cap, the largest m with
    dear(m, t_low) false, and a child that moves more than cap is dear,
    as dear(moved, t) >= dear(cap + 1, t_low).  A source s frees at least
    least[s] (all of cur[s], or what lies above its goal value), so a
    source set whose least[s] sum past cap is skipped.  A batch frees
    `freed` with drain t_drain, and filling targets and piling the rest
    add hi * gain >= 0 to t, so each of its children has moved = freed
    and t >= t_drain: the batch is skipped when dear(freed, t_drain).
    Each remaining child is tested on its own.  moved and t are fixed by
    a child's values, so a tuple that recurs recurs with the same pair:
    a dear tuple is dropped at every occurrence, and a kept tuple is
    kept at its first.  The stream is thus the whole family filtered by
    dear, in the same order.  As in _exhaustive, dear only skips.

    The loop invariants are listed once per visit: each source's drains
    (new value, freed, t added), and the nonempty target sets in
    combinations order with the mass each needs and the t its filling
    adds.  A source set reads the target sets outside it, and a fan-out
    source those without it, so both walk them in the order a fresh
    combinations call over the remaining targets would.
    """
    k = len(cur)
    idx = range(k)
    t_low = -sum(map(operator.mul, hi, cur))
    cap = _last_kept(dear, t_low, 0, sum(cur))
    if not cap:
        return
    seen = set()
    pos = [i for i in idx if cur[i] > 0]
    deficits = [i for i in idx if goal[i] > cur[i]]
    # the least each source frees: down to its goal value, or all of it
    least = [cur[i] - goal[i] if 0 < goal[i] < cur[i] else cur[i]
             for i in idx]
    # per source, its drains (new value, freed, what it adds to t): to
    # zero, and to its goal value where that lies between
    drains_of = {}
    for s in pos:
        drains_of[s] = [(0, cur[s], -hi[s] * cur[s])]
        if 0 < goal[s] < cur[s]:
            drains_of[s].append((goal[s], cur[s] - goal[s],
                                 hi[s] * (goal[s] - cur[s])))
    # the nonempty target sets, in combinations order, each with the mass
    # filling it to goal needs and what that adds to t
    fills = []
    for r in range(1, len(deficits) + 1):
        for T in itertools.combinations(deficits, r):
            need = fill = 0
            for t in T:
                need += goal[t] - cur[t]
                fill += hi[t] * (goal[t] - cur[t])
            fills.append((T, need, fill))
    # batching moves: a source set drains to zero or to its goal value; the
    # freed mass fills chosen targets exactly to goal, any remainder piles
    # on one residual vertex
    for r in range(1, len(pos) + 1):
        for S in itertools.combinations(pos, r):
            freed_least = 0
            for s in S:
                freed_least += least[s]
            if freed_least > cap:
                continue
            # the target sets outside S, the empty one first
            in_S = set(S)
            open_fills = [((), 0, 0)] + [f for f in fills
                                         if in_S.isdisjoint(f[0])]
            for drains in itertools.product(*[drains_of[s] for s in S]):
                freed = t_drain = 0
                for _, f, dt in drains:
                    freed += f
                    t_drain += dt
                if freed > cap:
                    continue
                if dear(freed, t_drain):
                    continue
                for T, need, fill in open_fills:
                    if need > freed:
                        continue
                    rest = freed - need
                    t_fill = t_drain + fill
                    residuals = [None] if rest == 0 else \
                        [t for t in idx if t not in S and t not in T]
                    for resid in residuals:
                        t_child = t_fill + (
                            0 if resid is None else hi[resid] * rest)
                        if dear(freed, t_child):
                            continue
                        new = list(cur)
                        for s, (dv, _, _) in zip(S, drains):
                            new[s] = dv
                        for t in T:
                            new[t] = goal[t]
                        if resid is not None:
                            new[resid] += rest
                        tup = tuple(new)
                        if tup not in seen:
                            seen.add(tup)
                            yield tup, freed, t_child
    # fan-out: one source fills targets exactly to goal, keeping the rest
    fan = [f for f in fills if f[1] <= cap]
    for s in pos:
        for T, need, fill in fan:
            if need <= cur[s] and s not in T:
                t_child = fill - hi[s] * need
                if dear(need, t_child):
                    continue
                new = list(cur)
                for t in T:
                    new[t] = goal[t]
                new[s] = cur[s] - need
                tup = tuple(new)
                if tup not in seen:
                    seen.add(tup)
                    yield tup, need, t_child


def wh_exact(H: Hypergraph, h: ConcaveCost, mu: ProbMeasure, nu: ProbMeasure,
             *, max_states: int = 300_000,
             unpruned: bool = False) -> WhResult:
    """Best-first search for the cheapest stepwise transport.

    Nodes are measures in units of 1/D, D = lcm(endpoint denominators),
    which holds an optimal plan (see the module docstring); a successor
    redistributes one hyperedge's mass.  The admissible, consistent
    heuristic is the concave envelope of the remaining W1 (floor(W1)
    full-mass steps plus one fractional step), priced in grid units from
    h(1) and the memoized step prices h(m / D).  Cost comparisons allow a
    slack of COST_TOL * h(1) and heap keys are rounded relative to h(1),
    so h and any positive multiple of h run the same search.  The greedy
    construction of wh_heuristic seeds the incumbent so the search only
    explores strictly cheaper plans; one kernel solve of the start's W1
    gives both the seed's flows and the start's potential.

    The certificate.  Before anything else is set up, the seed is compared
    with lb(L, W1) of the start, the cut bound below at the start's own
    imbalances and W1.  It is first read from the private vertices alone,
    which give no larger L and need no search of the hypergraph, and from
    the cut groups only if that leaves the seed open; the cut groups are
    built on first use and kept by the hypergraph.  That bound holds for
    every plan from the start, so a seed within the slack of it is
    optimal within the slack.  It is returned at once as exact, with
    lower_bound h(1) * W1 and states_expanded = 0, whatever max_states
    is.  A search run to its end would return the same value, plan and
    lower bound: no plan it could find is cheaper than the seed by more
    than the slack, so the incumbent, and with it the plan, never
    changes.  The bound reads no successor family, so a certified result
    is exact even where the structured family is in force.  Under linear
    h every seed that moves mass is certified: it costs h(1) * W1, which
    the bound reaches.

    When the goal is popped, or the frontier drains without reaching it,
    the incumbent is optimal, and lower_bound is h(1) * W1.  Once max_states
    states are expanded, the next state to expand ends the search instead:
    the best plan found so far is returned with optimality
    "heuristic-upper-bound" and states_expanded = max_states.  Every
    cheaper plan then passes an open state (the one popped last,
    unexpanded, or one on the heap) whose key bounds it from below, so
    lower_bound is the least open key, capped by the incumbent, less the
    slack, and never below h(1) * W1.  unpruned=True enumerates every
    successor of every hyperedge instead of the structured family (see
    _structured).

    W1 is evaluated lazily.  An expanded state keeps the Kantorovich
    potential f of its exact W1 (see `w1_units`), and a child differing by
    delta on one edge is pushed with the dual bound
    envelope(max(W1 + <f, delta>, 0)), never weaker than the step-size
    bound envelope(max(W1 - moved, 0)); its exact W1 is computed only when
    it is popped.  f takes two adjacent values on a hyperedge, so
    <f, delta> = t, the net mass moved onto the higher vertices, and
    moved >= |t|.  One rule pushes: a child is pushed exactly when
    g + h(moved) + lb(max(W1 + t, 0)) is below the incumbent, less the
    slack, and the child is neither closed nor reached before at no
    higher cost, where lb is the cut bound below at the child's own
    imbalances, taken never below dear's (see _push_bound).  The
    enumerations are handed dear(moved, t), the same sum with the visited
    edge's L_k set to 0, and the incumbent only falls: so they only skip,
    and nothing they skip is pushed.  h(m / D) and lb are nondecreasing, so
    dear is nondecreasing in both moved and t, and the successors are
    found on that contract: the exhaustive enumeration skips untried a
    whole range of t groups whose cheapest possible child is too dear and
    enumerates each open group only up to the first moved mass that is
    too dear, and the structured family caps moved once for all its
    children.

    A visit prices each bound once.  Within a visit of edge k, dear's
    bound depends on the integer W1 + t alone, so the visit keeps it in
    one dict by that integer, and dear and the push rule read it there.
    The push rule takes a child's own L_k from the expansion's cut group
    sums (see _group_sums) plus the edge's delta, and builds the child's
    tuple only once the rule passes.  On grid9 x,y under log at alpha =
    1/8, 1/4 and 1/2 the three solves call _cut_bound 19,623 times for
    30,692 dear questions, and 4,470 of the 7,195 children the streams
    yield fail the push rule unbuilt.

    Which enumeration serves a key (an edge's local values, local goal
    and potential pattern) is named by _t_groups, and either one streams
    on every visit and keeps nothing between visits.  An exhaustive key
    streams _exhaustive: each open group is capped on moved by
    bisection, and the compositions are cut at the cap.  A structured
    key streams _structured: one bisection at the least t any child can
    have caps moved for the whole family, source sets that must free
    more than the cap are skipped untried, and the rest is tested by
    batch and by child.  On grid9 x,y under log at alpha = 1/8, 1/4 and
    1/2, 1,574 of the 2,100 key visits (75%) are structured; an instance
    whose edges never hold more than FULL_ENUM_LIMIT compositions uses no
    structured key.

    A popped child is tested before its W1 solve against the bundle: the
    distinct potentials of this call's solves, the one that last pruned
    a state tried first.  Each is 1-Lipschitz, so b = <p, state - goal>
    <= W1, and as the envelope is nondecreasing, g + envelope(b) reaching
    the incumbent means the exact test prunes the state too; it is
    dropped with no kernel call.  The bundle drops only what that test
    drops, so expansions, values, plans and push order are those of a
    search that solves W1 at every pop, with a subsequence of its solves.

    The cut bound lb.  Removing hyperedge e leaves the components of the
    hypergraph without e; for a component C let d_C be the sum of
    state_v - goal_v over its vertices v, in grid units, so the d_C sum
    to 0, and let L_e be their total excess sum d_C+.  Every other
    hyperedge lies inside one component, so a step on it changes no d_C:
    only steps on e do, and a step moving m on e lowers sum d_C+ by at
    most m.  It is 0 at the goal, so the steps on e move M_e >= L_e in
    total.  Hypergraph.cut_groups lists the components but one largest,
    and _imbalance takes max(sum d+, sum d-) over them: the left-out d
    is minus the sum of the others, so this is L_e whichever component
    is left out.  A vertex in e alone is a component of its own, so L_e
    is never below the larger of the excess and deficit of e's private
    vertices, and equals it where the hypergraph without e is private
    singletons and one component, as at every grid9 hyperedge; on a
    path every hyperedge is a cut.  A step changes W1 by at most the
    mass it moves, so sum M_e >= W1, and it moves at most D units, so
    the steps on e cost at least envelope(M_e).  The envelope is concave
    on [0, D], so the increment envelope(x + R) - envelope(x) is
    nonincreasing in x and extra mass is cheapest on the edge of largest
    L_e.  With L* = max L_e and R = min(max(w - sum L, 0), D - L*),

        lb(L, w) = max(envelope(w),
                       sum envelope(L_e) - envelope(L*) + envelope(L* + R))

    bounds from below every plan from a state with imbalances L and
    W1 >= w.  The cap D - L* keeps the argument where the envelope is
    concave; without it the formula overestimates once W1 exceeds one
    unit of mass.  lb is nondecreasing in w, and once the sums of an
    expansion are known (see _zeroed_terms) it costs O(1).  It certifies at
    one site, prunes at three and orders nothing, so heap keys, push order
    and the visit rule are those of the envelope:

    1. The start is tested with lb(L, W1) against the seed: the
       certificate above.
    2. dear for a visit of edge k uses L with L_k set to 0, as a step on
       k changes no other edge's L_j and can lower L_k; dear keeps its
       monotone contract, so more groups are skipped untried.
    3. The push rule tests every child with its own L_k, or with dear's
       bound where rounding leaves that an ulp larger (see _push_bound).
    4. A popped state is tested with lb(L, b) against the bundle and with
       lb(L, W1) after its solve.

    Where no edge has a cut imbalance, lb is the envelope and each test
    is the one above.  On grid9 x,y under log at alpha = 1/4 the search
    expands 223 states and makes 225 kernel solves with the bound, and
    2,224 and 2,226 without it.  On the four-edge path, v1,v4 under log
    at alpha = 1/4 is certified unsearched.
    """
    return _search(H, h, mu, nu, common_denominator([mu, nu]), max_states,
                   unpruned)


def _search(H, h, mu, nu, D, max_states, unpruned):
    """wh_exact on the grid of 1/D; D is a multiple of every endpoint
    denominator."""
    mu.check_support(H)
    nu.check_support(H)
    start = quantize(H, mu, D)
    goal = quantize(H, nu, D)
    # one solve prices the start and gives the seed its flows
    lower_units, flows, f_start = w1_primal_dual(H, start, goal)
    h1 = h.h1
    lower = h1 * (lower_units / D)
    if start == goal:
        plan = TransportPlan(mu, nu, ())
        return WhResult(0.0, plan, "exact", 0.0, 0, D)

    # Costs scale with h(1), and so do the comparison slacks and the
    # rounding of the heap keys: h and a*h get the same search.
    tol, slack = COST_TOL * h1, 1e-15 * h1
    # the one memo of step prices, shared by the seed and the search
    cost_of = _step_prices(h, D)
    greedy_plan, incumbent_g = _seed(H, mu, nu, D, start, flows, cost_of,
                                     tol)

    edge_lists = [tuple(e) for e in H.edges]
    env_of = functools.cache(lambda w: _envelope(h1, cost_of, w, D))
    # the certificate: the start's cut bound at its own W1 bounds every
    # plan, so a seed that meets it is optimal unsearched.  The private
    # vertices, each a cut group of its own, are read first: they give
    # no larger L, so a seed they certify the cut groups certify too, and
    # the cut groups are only built for a seed they leave open.
    def certified(groups):
        imbalances = [_imbalance(start, goal, grp) for grp in groups]
        terms = _put(env_of, _zeroed_terms(env_of, imbalances)[0],
                     imbalances[0])
        return _cut_bound(env_of, D, terms, lower_units) >= incumbent_g - tol

    private = [tuple([(v,) for v in e if len(H.incidence[v]) == 1])
               for e in edge_lists]
    if certified(private) or certified(H.cut_groups()):
        return WhResult(incumbent_g, greedy_plan, "exact", lower, 0, D)
    groups = H.cut_groups()
    # per edge k, (position in k, index in groups[k]) of each of its
    # vertices that a cut group of k holds: where a step on k moves L_k
    slots = [tuple((i, j) for i, v in enumerate(edge)
                   for j, grp in enumerate(groups[k]) if v in grp)
             for k, edge in enumerate(edge_lists)]

    goal_by_edge = [tuple(goal[v] for v in e) for e in edge_lists]
    g_best = {start: 0.0}
    parents = {start: None}
    closed = set()
    counter = itertools.count()
    f0 = env_of(lower_units)
    heap = [(round(f0 / h1, 12), 0.0, next(counter), start, 0.0, True,
             lower_units, f_start)]
    # the distinct potentials of this call's W1 solves, the one that last
    # pruned a state first
    bundle = [f_start]
    expanded = 0
    exhausted = False

    while heap:
        f, _negg, _, state, g, evaluated, w1u, pot = heapq.heappop(heap)
        if state in closed:
            continue
        if g > g_best.get(state, math.inf) + slack:
            continue
        if state == goal:
            break
        # the cut group sums and imbalances, and per edge k the terms of
        # the imbalances with L_k = 0
        sums = [_group_sums(state, goal, grp) for grp in groups]
        imbalances = list(map(_larger_side, sums))
        zeroed = _zeroed_terms(env_of, imbalances)
        if not evaluated:
            terms = _put(env_of, zeroed[0], imbalances[0])
            # every potential is 1-Lipschitz, so <p, state - goal> <= W1
            diff = [s - q for s, q in zip(state, goal)]
            cut = next((i for i, p in enumerate(bundle)
                        if g + _cut_bound(
                            env_of, D, terms,
                            sum(map(operator.mul, p, diff)))
                        >= incumbent_g - tol), None)
            if cut is not None:
                if cut:
                    bundle.insert(0, bundle.pop(cut))
                continue
            true_units, pot = w1_units(H, state, goal)
            if pot not in bundle:
                bundle.append(pot)
            if (g + _cut_bound(env_of, D, terms, true_units)
                    >= incumbent_g - tol):
                continue
            ft = g + env_of(true_units)
            if round(ft / h1, 12) > f:
                heapq.heappush(heap, (round(ft / h1, 12), -g, next(counter),
                                      state, g, True, true_units, pot))
                continue
            w1u = true_units
        if expanded >= max_states:
            # Every plan cheaper than the incumbent passes an open state:
            # this one, unexpanded, or one on the heap.  Keys are in units
            # of h(1) and bound the plans through their states from below.
            open_key = min(f, heap[0][0]) if heap else f
            lower = max(lower, min(incumbent_g, h1 * open_key) - tol)
            exhausted = True
            break
        closed.add(state)
        expanded += 1

        # the bound of a visit of edge k with its cut imbalance set to 0.
        # It depends on W1 + t alone, so a visit prices each once in
        # `bounds`, for dear and the push rule alike.
        def priced(t):
            b = bounds.get(w1u + t)
            if b is None:
                b = bounds[w1u + t] = _cut_bound(env_of, D, terms_k,
                                                 max(w1u + t, 0))
            return b

        # the test of a visit of edge k
        def dear(moved, t):
            return g + cost_of(moved) + priced(t) >= incumbent_g - tol

        for k, edge in enumerate(edge_lists):
            cur = tuple([state[v] for v in edge])
            if not any(cur):
                continue  # no mass on the edge, so no successor
            base = min([pot[v] for v in edge])
            hi = tuple([pot[v] - base for v in edge])
            ts = _t_groups(cur, hi, unpruned)
            terms_k, sums_k, slots_k, bounds = zeroed[k], sums[k], slots[k], {}
            children = (_structured(cur, goal_by_edge[k], hi, dear)
                        if ts is None else _exhaustive(cur, hi, ts, dear))
            for new_vals, moved, t in children:
                # the push rule: dear's bound with the child's own L_k,
                # read from the group sums before the child is built
                moved_sums = list(sums_k)
                for i, j in slots_k:
                    moved_sums[j] += new_vals[i] - cur[i]
                w = max(w1u + t, 0)
                g2 = g + cost_of(moved)
                if g2 + _push_bound(env_of, D, terms_k,
                                    _larger_side(moved_sums), w,
                                    priced(t)) >= incumbent_g - tol:
                    continue
                child = list(state)
                for v, nv in zip(edge, new_vals):
                    child[v] = nv
                child = tuple(child)
                if child in closed:
                    continue
                if g2 >= g_best.get(child, math.inf) - slack:
                    continue
                g_best[child] = g2
                parents[child] = (state, k, edge, cur, new_vals)
                if child == goal:
                    incumbent_g = g2
                heapq.heappush(heap, (round((g2 + env_of(w)) / h1, 12), -g2,
                                      next(counter), child, g2, False, 0,
                                      None))

    # Pushing the goal makes it the incumbent, so incumbent_g is the best
    # plan found.  It is optimal (within the per-comparison tolerance, and
    # up to the structured successor family unless unpruned) once the goal
    # is popped or the frontier drains without it; a pushed goal is left
    # unpopped only when the state budget ran out.
    plan = (_reconstruct(H, mu, nu, parents, goal, D) if goal in parents
            else greedy_plan)
    status = "heuristic-upper-bound" if exhausted else "exact"
    return WhResult(incumbent_g, plan, status, lower, expanded, D)


def _reconstruct(H, mu, nu, parents, goal, D):
    steps = []
    node = goal
    while parents[node] is not None:
        prev, k, edge, cur, new_vals = parents[node]
        labels = [H.label(v) for v in edge]
        delta = [nv - cv for cv, nv in zip(cur, new_vals)]
        steps.append(TransportStep(k, _delta_to_moves(labels, delta, D)))
        node = prev
    steps.reverse()
    return TransportPlan(mu, nu, tuple(steps))


# ---------------------------------------------------------------------------
# heuristic construction
# ---------------------------------------------------------------------------


def _parcel_path(H, src: int, dst: int):
    """Hops (from id, to id, edge) of a shortest route from src to dst,
    chosen lexicographically for reproducible routes: walking back from
    dst, each hop comes from the lowest-id neighbour one hop nearer src,
    over that neighbour's first incident edge that holds the vertex."""
    dist = H.distance_matrix()[src]
    hops = []
    v = dst
    while v != src:
        pv = next(u for u in H.neighbors(v) if dist[u] == dist[v] - 1)
        hops.append((pv, v, next(k for k in H.incidence[pv]
                                 if v in H.edges[k])))
        v = pv
    hops.reverse()
    return hops


def wh_heuristic(H: Hypergraph, h: ConcaveCost, mu: ProbMeasure,
                 nu: ProbMeasure) -> WhResult:
    """Upper-bound plan: route the parcels of a W1-optimal coupling along
    shortest hyperedge paths, batch hops that share a hyperedge, then merge
    steps greedily while the cost strictly drops.  The plan is built and
    priced in units of 1/D, D = lcm(endpoint denominators), by the step
    prices h(m / D); its value is its plan_cost."""
    mu.check_support(H)
    nu.check_support(H)
    D = common_denominator([mu, nu])
    start = quantize(H, mu, D)
    total, flows = w1_flows(H, start, quantize(H, nu, D))
    plan, value = _seed(H, mu, nu, D, start, flows, _step_prices(h, D),
                        COST_TOL * h.h1)
    return WhResult(value, plan, "heuristic-upper-bound",
                    h.h1 * float(Fraction(total, D)), 0, D)


def _seed(H, mu, nu, D, start, flows, price, tol):
    """(plan, plan_cost) of wh_heuristic from the W1 flows (x id, y id,
    units) from start to nu on the grid of 1/D, priced by the step prices
    `price` (see _step_prices) with merges kept when cheaper by more than
    tol."""
    if not flows:
        return TransportPlan(mu, nu, ()), 0.0

    pending = []  # per parcel: list of hops (from_id, to_id, edge)
    masses = []
    for x, y, units in flows:
        pending.append(_parcel_path(H, x, y))
        masses.append(units)

    pos = [0] * len(pending)
    steps = []  # (edge, moves): moves are (from, to, units), sorted
    while True:
        by_edge = {}
        for i, path in enumerate(pending):
            if pos[i] < len(path):
                a, b, k = path[pos[i]]
                by_edge.setdefault(k, []).append(i)
        if not by_edge:
            break
        k = max(by_edge, key=lambda e: (sum(masses[i] for i in by_edge[e]), -e))
        combined = {}
        for i in by_edge[k]:
            a, b, _ = pending[i][pos[i]]
            key = (H.label(a), H.label(b))
            combined[key] = combined.get(key, 0) + masses[i]
            pos[i] += 1
        steps.append((k, tuple((a, b, m)
                               for (a, b), m in sorted(combined.items()))))

    holdings = {H.label(v): u for v, u in enumerate(start) if u}
    steps, value = _merge_pass(holdings, steps, price, tol)
    plan = TransportPlan(mu, nu, tuple(
        TransportStep(k, tuple((a, b, Fraction(m, D)) for a, b, m in moves))
        for k, moves in steps))
    return plan, value


def _steps_cost(start, steps, price):
    """plan_cost of (edge, moves) steps in grid units from the holdings
    start (label -> units), or None once a vertex sends more than it
    holds."""
    cur = dict(start)
    total = 0.0
    for _edge, moves in steps:
        sent, net = {}, {}
        for a, b, m in moves:
            sent[a] = sent.get(a, 0) + m
            net[a] = net.get(a, 0) - m
            net[b] = net.get(b, 0) + m
        if any(m > cur.get(a, 0) for a, m in sent.items()):
            return None
        for v, d in net.items():
            cur[v] = cur.get(v, 0) + d
        total += price(sum([d for d in net.values() if d > 0]))
    return total


def _merge_pass(start, steps, price, tol):
    """Fold one step into another on the same hyperedge whenever the plan
    stays feasible and cheaper by more than tol; repeat to a fixed point.
    Returns the steps and their cost (see _steps_cost)."""
    best_cost = _steps_cost(start, steps, price)
    improved = True
    while improved:
        improved = False
        for i in range(len(steps)):
            for j in range(len(steps)):
                if i == j or steps[i][0] != steps[j][0]:
                    continue
                merged = {}
                for a, b, m in steps[j][1] + steps[i][1]:
                    merged[(a, b)] = merged.get((a, b), 0) + m
                new_j = (steps[j][0], tuple((a, b, m) for (a, b), m
                                            in sorted(merged.items())))
                cand = [new_j if n == j else s
                        for n, s in enumerate(steps) if n != i]
                c = _steps_cost(start, cand, price)
                if c is not None and c < best_cost - tol:
                    steps, best_cost, improved = cand, c, True
                    break
            if improved:
                break
    return steps, best_cost


# ---------------------------------------------------------------------------
# plan normalization (unique transport paths)
# ---------------------------------------------------------------------------


def _step_kernels(H, plan):
    """Per-step couplings (stay mass on the diagonal plus the moves)."""
    kernels = []
    for prev, step in zip(_holdings(H, plan), plan.steps):
        pi = {}
        sent = {}
        for a, b, m in step.moves:
            pi[(a, b)] = pi.get((a, b), Fraction(0)) + m
            sent[a] = sent.get(a, Fraction(0)) + m
        for v, p in prev.items():
            stay = p - sent.get(v, Fraction(0))
            if stay > 0:
                pi[(v, v)] = pi.get((v, v), Fraction(0)) + stay
        kernels.append(pi)
    return kernels


def _glue(kernels, start: ProbMeasure):
    """Glue step couplings: a pair has mass iff positive arcs join it."""
    glued = {(v, v): p for v, p in start.weights.items()}
    for pi in kernels:
        rows = {}
        for (a, b), m in pi.items():
            rows.setdefault(a, []).append((b, m))
        nxt = {}
        for (x, y), g in glued.items():
            total = sum(m for _, m in rows[y])
            for b, m in rows[y]:
                nxt[(x, b)] = nxt.get((x, b), Fraction(0)) + g * m / total
        glued = {k: v for k, v in nxt.items() if v != 0}
    return glued


def plan_coupling(H: Hypergraph, plan: TransportPlan) -> Coupling:
    """Gluing of the plan's step couplings: the end-to-end coupling."""
    return Coupling(_glue(_step_kernels(H, plan), plan.start), plan.start,
                    plan.end)


def _two_paths(kernels, x, y):
    """Up to two distinct arc-paths x -> y through the step couplings."""
    found = []

    def dfs(layer, v, acc):
        if len(found) >= 2:
            return
        if layer == len(kernels):
            if v == y:
                found.append(tuple(acc))
            return
        for (a, b), m in sorted(kernels[layer].items()):
            if a == v and m > 0:
                acc.append((a, b))
                dfs(layer + 1, b, acc)
                acc.pop()
                if len(found) >= 2:
                    return

    dfs(0, x, [])
    return found


def _net_moves(pi):
    """Reroute a -> b -> c as a -> c (b keeps its own mass) until no vertex
    of the step coupling pi both sends and receives; the marginals stay."""
    while True:
        hop = next(((a, b, c) for (a, b) in sorted(pi) if a != b
                    for (b2, c) in sorted(pi) if b2 == b != c), None)
        if hop is None:
            return
        a, b, c = hop
        m = min(pi[(a, b)], pi[(b, c)])
        for arc, dm in (((a, b), -m), ((b, c), -m), ((a, c), m), ((b, b), m)):
            pi[arc] = pi.get(arc, Fraction(0)) + dm
            if pi[arc] == 0:
                del pi[arc]


def normalize_plan(H: Hypergraph, h: ConcaveCost, plan: TransportPlan,
                   coupling: Coupling) -> TransportPlan:
    """Rewire a plan so every coupled pair follows a single transport path.

    Each step is first netted (a -> b -> c inside one step becomes a -> c)
    until no vertex both sends and receives, so that its sum of moves is
    the half-L1 moved mass plan_cost charges.  The sum of moves is an upper
    bound on that mass and its h is concave in the one-parameter exchange
    between two paths of a pair, so the cheaper endpoint of the exchange
    interval is taken.  An exchange only deletes arcs, so the steps stay
    netted and each round removes an arc; the rounds end when every pair
    of the current gluing has one path, without ever increasing the cost.
    Netting and exchanges re-pair mass, so the result's own coupling
    (plan_coupling of it) may differ from the given one.
    """
    kernels = _step_kernels(H, plan)
    if _glue(kernels, plan.start) != coupling.entries:
        raise NotAssociated("plan steps do not glue to the given coupling")
    for pi in kernels:
        _net_moves(pi)
    edges = [s.edge for s in plan.steps]

    while True:
        target = None
        for x, y in sorted(_glue(kernels, plan.start)):
            paths = _two_paths(kernels, x, y)
            if len(paths) >= 2:
                target = paths
                break
        if target is None:
            break
        p1, p2 = target
        diff = [i for i in range(len(kernels)) if p1[i] != p2[i]]
        t1 = min(kernels[i][p1[i]] for i in diff)
        t2 = min(kernels[i][p2[i]] for i in diff)

        def cost_at(s):
            total = 0.0
            for i, pi in enumerate(kernels):
                mass = sum(m for (a, b), m in pi.items() if a != b)
                if i in diff:
                    if p1[i][0] != p1[i][1]:
                        mass -= s
                    if p2[i][0] != p2[i][1]:
                        mass += s
                total += h.eval(mass) if mass > 0 else 0.0
            return total

        s_star = (t1 if cost_at(t1) <= cost_at(-t2) + COST_TOL * h.h1
                  else -t2)
        for i in diff:
            pi = kernels[i]
            pi[p1[i]] = pi.get(p1[i], Fraction(0)) - s_star
            pi[p2[i]] = pi.get(p2[i], Fraction(0)) + s_star
            for key in (p1[i], p2[i]):
                if pi[key] == 0:
                    del pi[key]

    steps = []
    for pi, k in zip(kernels, edges):
        moves = tuple((a, b, m) for (a, b), m in sorted(pi.items())
                      if a != b and m > 0)
        if moves:
            steps.append(TransportStep(k, moves))
    return TransportPlan(plan.start, plan.end, tuple(steps))
