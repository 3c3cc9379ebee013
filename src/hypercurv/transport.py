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
below with no further kernel call.
"""

from __future__ import annotations

import heapq
import itertools
import json
import math
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
from .measure import ProbMeasure, common_denominator
from .wasserstein import Coupling, w1, w1_units

COST_TOL = 1e-12
# wh_exact enumerates a hyperedge of three or more vertices exhaustively
# while its mass has at most this many compositions over them, and uses the
# structured successor family beyond (see _edge_successors).
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


def _envelope(h: ConcaveCost, w: Fraction) -> float:
    """Cheapest way to pay for total W1 movement w: as few full-mass steps
    as possible plus one fractional step (concavity makes batching best)."""
    if w <= 0:
        return 0.0
    whole = int(w)
    frac = w - whole
    out = whole * h.h1
    if frac:
        out += h.eval(frac)
    return out


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


def _compositions(total, k):
    """Every k-tuple of non-negative integers summing to total."""
    if k == 0:
        if total == 0:
            yield ()
        return
    if k == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, k - 1):
            yield (first,) + rest


def _edge_successors(cur, goal, hi, unpruned, skip):
    """New value tuples for one edge, with the mass moved and its t.

    `hi` flags the edge's high-potential vertices (potential one above the
    edge minimum) and t = sum(hi * (new - cur)) is the net mass a
    successor moves onto them; the dual bound of a successor depends on t
    alone, and ``moved >= |t|``.

    2-vertex edges (complete on graphs), edges whose composition count is
    at most FULL_ENUM_LIMIT, and every edge under `unpruned` are enumerated
    exhaustively, grouped by t so that a whole group is dropped when
    `skip(t)` is true; an edge whose potentials are all equal has the one
    group t = 0.  Larger hyperedges use a structured family: sources drain
    to 0 or to their goal value, targets fill to their goal value, one
    vertex absorbs the balance.  That family contains every step of the
    worked optimal plans; the unpruned flag restores ground truth.
    """
    k = len(cur)
    M = sum(cur)
    if M == 0:
        return
    if k == 2 or unpruned or math.comb(M + k - 1, k - 1) <= FULL_ENUM_LIMIT:
        high = [i for i in range(k) if hi[i]]
        low = [i for i in range(k) if not hi[i]]
        on_high = sum(cur[i] for i in high)
        order = high + low
        place = [order.index(i) for i in range(k)]
        ts = range(-on_high, M - on_high + 1) if high and low else (0,)
        for t in ts:
            if skip(t):
                continue
            for top in _compositions(on_high + t, len(high)):
                for bottom in _compositions(M - on_high - t, len(low)):
                    stacked = top + bottom
                    comp = tuple(stacked[p] for p in place)
                    if comp != cur:
                        moved = sum(c - n for c, n in zip(cur, comp) if c > n)
                        yield comp, moved, t
        return

    def with_t(new, moved):
        return new, moved, sum(n - c for n, c, f in zip(new, cur, hi) if f)

    seen = set()
    idx = range(k)
    pos = [i for i in idx if cur[i] > 0]
    deficits = [i for i in idx if goal[i] > cur[i]]
    # batching moves: a source set drains to zero or to its goal value; the
    # freed mass fills chosen targets exactly to goal, any remainder piles
    # on one residual vertex
    for r in range(1, len(pos) + 1):
        for S in itertools.combinations(pos, r):
            opts = []
            for s in S:
                o = {0}
                if 0 < goal[s] < cur[s]:
                    o.add(goal[s])
                opts.append(sorted(o))
            fill_cand = [t for t in deficits if t not in S]
            for drains in itertools.product(*opts):
                freed = sum(cur[s] - dv for s, dv in zip(S, drains))
                if freed <= 0:
                    continue
                for nfill in range(len(fill_cand) + 1):
                    for T in itertools.combinations(fill_cand, nfill):
                        need = sum(goal[t] - cur[t] for t in T)
                        if need > freed:
                            continue
                        rest = freed - need
                        residuals = [None] if rest == 0 else \
                            [t for t in idx if t not in S and t not in T]
                        for resid in residuals:
                            if rest == 0 and not T:
                                continue
                            new = list(cur)
                            for s, dv in zip(S, drains):
                                new[s] = dv
                            for t in T:
                                new[t] = goal[t]
                            if resid is not None:
                                new[resid] += rest
                            tup = tuple(new)
                            if tup not in seen:
                                seen.add(tup)
                                yield with_t(tup, freed)
    # fan-out: one source fills targets exactly to goal, keeping the rest
    for s in pos:
        cand = [t for t in deficits if t != s]
        for r in range(1, len(cand) + 1):
            for T in itertools.combinations(cand, r):
                need = sum(goal[t] - cur[t] for t in T)
                if 0 < need <= cur[s]:
                    new = list(cur)
                    for t in T:
                        new[t] = goal[t]
                    new[s] = cur[s] - need
                    tup = tuple(new)
                    if tup not in seen:
                        seen.add(tup)
                        yield with_t(tup, need)


def _quantize(H, m: ProbMeasure, D: int):
    units = [0] * H.n
    for v, p in m.weights.items():
        units[H.vertex_id(v)] = int(p * D)
    return tuple(units)


def wh_exact(H: Hypergraph, h: ConcaveCost, mu: ProbMeasure, nu: ProbMeasure,
             *, max_states: int = 300_000,
             unpruned: bool = False) -> WhResult:
    """Best-first search for the cheapest stepwise transport.

    Nodes are measures in units of 1/D, D = lcm(endpoint denominators),
    which holds an optimal plan (see the module docstring); a successor
    redistributes one hyperedge's mass.  The admissible, consistent
    heuristic is the concave envelope of the remaining W1 (floor(W1)
    full-mass steps plus one fractional step).  The greedy construction
    of wh_heuristic seeds the incumbent so the search only explores
    strictly cheaper plans; when the goal is popped, or the frontier
    drains without reaching it, the incumbent is optimal.  Once more than
    max_states states are expanded the best plan found so far is returned
    with optimality "heuristic-upper-bound".
    unpruned=True enumerates every successor of every hyperedge instead of
    the structured family (see _edge_successors).

    W1 is evaluated lazily.  An expanded state keeps the Kantorovich
    potential f of its exact W1 (see `w1_units`), and a child differing by
    delta on one edge is pushed with the dual bound
    envelope(max(W1 + <f, delta>, 0)), never weaker than the step-size
    bound envelope(max(W1 - moved, 0)); its exact W1 is computed only when
    it is popped.  f takes two adjacent values on a hyperedge, so
    <f, delta> = t, the net mass moved onto the higher vertices, and
    moved >= |t|.  Exhaustive enumeration runs group by group in t and
    skips a group outright once g + h(|t|) + envelope(max(W1 + t, 0))
    reaches the incumbent; the structured family tests each child.
    """
    return _search(H, h, mu, nu, common_denominator([mu, nu]), max_states,
                   unpruned)


def _search(H, h, mu, nu, D, max_states, unpruned):
    """wh_exact on the grid of 1/D; D is a multiple of every endpoint
    denominator."""
    mu.check_support(H)
    nu.check_support(H)
    start = _quantize(H, mu, D)
    goal = _quantize(H, nu, D)
    lower_units, f_start = w1_units(H, start, goal, D)
    lower = h.h1 * float(Fraction(lower_units, D))
    if start == goal:
        plan = TransportPlan(mu, nu, ())
        return WhResult(0.0, plan, "exact", 0.0, 0, D)

    greedy = wh_heuristic(H, h, mu, nu)
    incumbent_g = greedy.value

    edge_lists = [tuple(e) for e in H.edges]
    goal_by_edge = [tuple(goal[v] for v in e) for e in edge_lists]
    step_cost = {}

    def cost_of(m_units):
        c = step_cost.get(m_units)
        if c is None:
            c = h.eval(Fraction(m_units, D))
            step_cost[m_units] = c
        return c

    env_memo = {}

    def env_of(w_units):
        e = env_memo.get(w_units)
        if e is None:
            e = _envelope(h, Fraction(w_units, D))
            env_memo[w_units] = e
        return e

    g_best = {start: 0.0}
    parents = {start: None}
    closed = set()
    counter = itertools.count()
    f0 = env_of(lower_units)
    heap = [(round(f0, 12), 0.0, next(counter), start, 0.0, True,
             lower_units, f_start)]
    expanded = 0
    exhausted = False

    while heap:
        f, _negg, _, state, g, evaluated, w1u, pot = heapq.heappop(heap)
        if state in closed:
            continue
        if g > g_best.get(state, math.inf) + 1e-15:
            continue
        if state == goal:
            break
        if not evaluated:
            true_units, pot = w1_units(H, state, goal, D)
            ft = g + env_of(true_units)
            if ft >= incumbent_g - COST_TOL:
                continue
            if round(ft, 12) > f:
                heapq.heappush(heap, (round(ft, 12), -g, next(counter),
                                      state, g, True, true_units, pot))
                continue
            w1u = true_units
        closed.add(state)
        expanded += 1
        if expanded > max_states:
            exhausted = True
            break

        def skip(t):
            return (g + cost_of(abs(t)) + env_of(max(w1u + t, 0))
                    >= incumbent_g - COST_TOL)

        for k, edge in enumerate(edge_lists):
            cur = tuple(state[v] for v in edge)
            base = min(pot[v] for v in edge)
            hi = tuple(pot[v] - base for v in edge)
            for new_vals, moved, t in _edge_successors(
                    cur, goal_by_edge[k], hi, unpruned, skip):
                g2 = g + cost_of(moved)
                bound = env_of(max(w1u + t, 0))
                if g2 + bound >= incumbent_g - COST_TOL:
                    continue
                child = list(state)
                for v, nv in zip(edge, new_vals):
                    child[v] = nv
                child = tuple(child)
                if child in closed:
                    continue
                if g2 >= g_best.get(child, math.inf) - 1e-15:
                    continue
                g_best[child] = g2
                parents[child] = (state, k, edge, cur, new_vals)
                if child == goal:
                    incumbent_g = g2
                heapq.heappush(heap, (round(g2 + bound, 12), -g2,
                                      next(counter), child, g2, False, 0,
                                      None))

    # Pushing the goal makes it the incumbent, so incumbent_g is the best
    # plan found.  It is optimal (within the per-comparison tolerance, and
    # up to the structured successor family unless unpruned) once the goal
    # is popped or the frontier drains without it; a pushed goal is left
    # unpopped only when the state budget ran out.
    plan = (_reconstruct(H, mu, nu, parents, goal, D) if goal in parents
            else greedy.plan)
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


def _shortest_hops(H: Hypergraph, src: int):
    """BFS tree from src: vertex -> (previous vertex, edge index), chosen
    lexicographically for reproducible routes."""
    parent = {src: None}
    frontier = [src]
    while frontier:
        nxt = []
        for v in sorted(frontier):
            for k in H.incidence[v]:
                for w in H.edges[k]:
                    if w not in parent:
                        parent[w] = (v, k)
                        nxt.append(w)
        frontier = nxt
    return parent


def _parcel_path(H, src: int, dst: int, tree):
    hops = []
    v = dst
    while v != src:
        pv, k = tree[v]
        hops.append((pv, v, k))
        v = pv
    hops.reverse()
    return hops


def wh_heuristic(H: Hypergraph, h: ConcaveCost, mu: ProbMeasure,
                 nu: ProbMeasure) -> WhResult:
    """Upper-bound plan: route the parcels of a W1-optimal coupling along
    shortest hyperedge paths, batch hops that share a hyperedge, then merge
    steps greedily while the cost strictly drops."""
    val, coupling = w1(H, mu, nu)
    lower = h.h1 * float(val)
    if not any(x != y for (x, y) in coupling.entries):
        plan = TransportPlan(mu, nu, ())
        return WhResult(0.0, plan, "heuristic-upper-bound", lower, 0,
                        common_denominator([mu, nu]))

    trees = {}
    pending = []  # per parcel: list of hops (from_id, to_id, edge)
    masses = []
    for (x, y), p in sorted(coupling.entries.items(),
                            key=lambda kv: (H.vertex_id(kv[0][0]),
                                            H.vertex_id(kv[0][1]))):
        if x == y:
            continue
        xid, yid = H.vertex_id(x), H.vertex_id(y)
        if xid not in trees:
            trees[xid] = _shortest_hops(H, xid)
        pending.append(_parcel_path(H, xid, yid, trees[xid]))
        masses.append(p)

    pos = [0] * len(pending)
    steps = []
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
            combined[key] = combined.get(key, Fraction(0)) + masses[i]
            pos[i] += 1
        moves = tuple((a, b, m) for (a, b), m in sorted(combined.items()))
        steps.append(TransportStep(k, moves))

    plan, value = _merge_pass(H, h, TransportPlan(mu, nu, tuple(steps)))
    return WhResult(value, plan, "heuristic-upper-bound", lower, 0,
                    common_denominator([mu, nu]))


def _merge_pass(H, h, plan):
    """Fold one step into another on the same hyperedge whenever the plan
    stays feasible and strictly cheaper; repeat to a fixed point.  Returns
    the plan and its plan_cost."""
    best_cost = plan_cost(H, h, plan)
    improved = True
    while improved:
        improved = False
        steps = list(plan.steps)
        for i in range(len(steps)):
            for j in range(len(steps)):
                if i == j or steps[i].edge != steps[j].edge:
                    continue
                merged = {}
                for a, b, m in steps[j].moves + steps[i].moves:
                    merged[(a, b)] = merged.get((a, b), Fraction(0)) + m
                new_j = TransportStep(steps[j].edge,
                                      tuple((a, b, m) for (a, b), m
                                            in sorted(merged.items()) if m > 0))
                cand = [new_j if n == j else s
                        for n, s in enumerate(steps) if n != i]
                cand_plan = TransportPlan(plan.start, plan.end, tuple(cand))
                try:
                    c = plan_cost(H, h, cand_plan)
                except (StepLeavesHyperedge, NegativeIntermediateMass,
                        EndpointMismatch):
                    continue
                if c < best_cost - COST_TOL:
                    plan, best_cost, improved = cand_plan, c, True
                    break
            if improved:
                break
    return plan, best_cost


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

        s_star = t1 if cost_at(t1) <= cost_at(-t2) + COST_TOL else -t2
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
