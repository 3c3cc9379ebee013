"""The benchmark's workloads: seeded inputs, the solves, and their checks.

A workload builds a list of operations from its seed.  Each operation is
one user-level solve (a CLI call, or one orc_alpha, orc_alpha_h, wh_exact,
lly or hlly call) plus a check of its output against a reference.  Every
call goes through a module attribute at call time, so a tracer that patches
those attributes sees it.
"""

import contextlib
import io
import json
import os
import random
import time
from fractions import Fraction
from functools import partial

from hypercurv import (cli, curvature, hypergraph, measure, transport,
                       wasserstein)
from hypercurv.cost import ConcaveCost
from hypercurv.errors import HypercurvError

HERE = os.path.dirname(os.path.abspath(__file__))
TOL = 1e-9
H_SPEC = '{"family": "log", "a": "1"}'
H_LOG = ConcaveCost("log", a=1)
H_LIN = ConcaveCost("linear", a=1)


class Op:
    """One solve: `call()` returns its output, `check(out, outs)` says
    whether the output is right (`outs` maps key -> output of the same
    run, for checks that relate two solves)."""

    __slots__ = ("key", "call", "check")

    def __init__(self, key, call, check):
        self.key, self.call, self.check = key, call, check


class Failure:
    """Output of an operation that raised."""

    def __init__(self, exc):
        self.exc = exc


class SetupClock:
    """Time spent in the hypergraph layer while inputs are built."""

    def __init__(self):
        self.seconds = 0.0

    @contextlib.contextmanager
    def timing(self):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.seconds += time.perf_counter() - t0


def _attr_call(mod, name, *args, **kwargs):
    return getattr(mod, name)(*args, **kwargs)


def _references():
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# grid9-wh: the paper's headline instance through the CLI
# ---------------------------------------------------------------------------

GRID9_ALPHAS = ("1/8", "1/4", "1/2")


def relabel_grid9(text, seed):
    """grid9 with vertex labels, hyperedge order and in-edge order shuffled.

    Values are invariant under relabelling; the vertex ids the solver sees,
    and so its tie-breaking, change with the seed.  Returns the new .hg
    text and the old -> new label map."""
    rng = random.Random(seed)
    lines = [line.split("#", 1)[0].split() for line in text.splitlines()]
    lines = [ln for ln in lines if ln]
    labels = sorted({v for ln in lines for v in ln})
    new = [f"n{i}" for i in range(len(labels))]
    rng.shuffle(new)
    names = dict(zip(labels, new))
    rng.shuffle(lines)
    out = []
    for ln in lines:
        ln = [names[v] for v in ln]
        rng.shuffle(ln)
        out.append(" ".join(ln))
    return "\n".join(out) + "\n", names


def grid9_argv(path, pair, alpha):
    """`hypercurv curvature` on one pair at one idleness, as JSON."""
    return ["curvature", path, "--h", H_SPEC, "--pair", pair,
            "--alpha", alpha, "--format", "json"]


def run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _check_grid9_row(ref, out, _outs):
    code, text = out
    if code != 0:
        return False
    rows = json.loads(text)
    if len(rows) != 1:
        return False
    row = rows[0]
    return (Fraction(row["w1"]) == Fraction(ref["w1"])
            and Fraction(row["kappa"]) == Fraction(ref["kappa"])
            and row["wh_status"] == ref["wh_status"]
            and abs(float(row["wh"]) - ref["wh"]) <= TOL
            and abs(float(row["kappa_h"]) - ref["kappa_h"]) <= TOL)


def grid9_ops(root, outdir, seed, clock):
    with open(os.path.join(root, "src", "hypercurv", "data", "grid9.hg"),
              encoding="utf-8") as fh:
        text, names = relabel_grid9(fh.read(), seed)
    path = os.path.join(outdir, f"grid9-s{seed}.hg")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    with clock.timing():
        hypergraph.parse_hypergraph(text).distance_matrix()
    pair = f"{names['x']},{names['y']}"
    refs = _references()["grid9-wh"]
    ops = []
    for a in GRID9_ALPHAS:
        ops.append(Op(("cli", a), partial(run_cli, grid9_argv(path, pair, a)),
                      partial(_check_grid9_row, refs[a])))
    return ops


# ---------------------------------------------------------------------------
# w1-allpairs: exact orc_alpha on every pair, lly on adjacent pairs
# ---------------------------------------------------------------------------

ALLPAIRS_ALPHAS = (Fraction(0), Fraction(1, 4), Fraction(1, 2))
ALLPAIRS_VERTICES = 50
ALLPAIRS_EXTRA_EDGES = 15
ALLPAIRS_INSTANCES = 4  # generator seeds with recorded references
_SIZES = (6, 5, 4, 3, 2)


def allpairs_hypergraph(instance, clock):
    """Connected simple hypergraph with hyperedges of 2..6 vertices.

    The hyperedge sizes follow a fixed cycle so that the amount of work is
    nearly the same for every instance; only membership is random."""
    rng = random.Random(instance)
    n = ALLPAIRS_VERTICES
    labels = [f"w{i}" for i in range(n)]
    order = labels[:]
    rng.shuffle(order)
    edges = []
    placed = [order[0]]
    i = 0
    while len(placed) < n:
        new = order[len(placed):len(placed) + _SIZES[i % len(_SIZES)] - 1]
        edges.append(set(new) | {rng.choice(placed)})
        placed += new
        i += 1
    extra = 0
    while extra < ALLPAIRS_EXTRA_EDGES:
        e = set(rng.sample(labels, _SIZES[extra % len(_SIZES)]))
        if any(e <= o or o <= e for o in edges):
            continue
        edges.append(e)
        extra += 1
    with clock.timing():
        H = hypergraph.Hypergraph(labels, edges)
        H.distance_matrix()
    return H


def allpairs_calls(H):
    """(key, call) of every solve, in a fixed order."""
    calls = []
    for a in range(H.n):
        for b in range(a + 1, H.n):
            x, y = H.label(a), H.label(b)
            for alpha in ALLPAIRS_ALPHAS:
                calls.append((("orc", x, y, str(alpha)),
                              partial(_attr_call, curvature, "orc_alpha",
                                      H, x, y, alpha)))
    for a in range(H.n):
        for b in range(a + 1, H.n):
            if H.distance_id(a, b) == 1:
                x, y = H.label(a), H.label(b)
                calls.append((("lly", x, y),
                              partial(_attr_call, curvature, "lly", H, x, y)))
    return calls


def allpairs_ops(root, outdir, seed, clock):
    instance = seed % ALLPAIRS_INSTANCES
    H = allpairs_hypergraph(instance, clock)
    calls = allpairs_calls(H)
    refs = _references()["w1-allpairs"][str(instance)].split()
    if len(refs) != len(calls):
        raise ValueError("reference count does not match the workload")
    return [Op(key, call, partial(_check_equal, Fraction(ref)))
            for (key, call), ref in zip(calls, refs)]


# ---------------------------------------------------------------------------
# small-batch: many small searches with independent oracles
# ---------------------------------------------------------------------------

SMALL_INSTANCES = 800
CATALOG_GRID = ([("complete", n) for n in (3, 4, 5)]
                + [("cycle", n) for n in (3, 4, 5, 6)]
                + [(fam, d) for fam in ("line_ends", "line_end_next",
                                        "line_both_next") for d in (1, 2, 3)])
CATALOG_ALPHAS = (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))
HLLY_INSTANCES = (("complete", 3), ("cycle", 4), ("cycle", 6),
                  ("line_ends", 2), ("line_end_next", 1),
                  ("line_both_next", 2))


def small_hypergraph(rng, clock):
    """Connected simple hypergraph on 3..7 vertices, hyperedges of 2..4."""
    while True:
        n = rng.randint(3, 7)
        labels = [f"u{i}" for i in range(n)]
        edges = []
        for _ in range(rng.randint(2, 5)):
            e = set(rng.sample(labels, rng.randint(2, min(4, n))))
            if not any(e <= o or o <= e for o in edges):
                edges.append(e)
        with clock.timing():
            H = hypergraph.Hypergraph(labels, edges, strict=False)
            if H.validation_report().ok:
                H.distance_matrix()
                return H


def small_measure(rng, H, D):
    k = rng.randint(1, min(4, H.n))
    verts = rng.sample(list(H.vertices), k)
    cuts = sorted(rng.randint(0, D) for _ in range(k - 1))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [D])]
    return measure.ProbMeasure({v: Fraction(p, D)
                                for v, p in zip(verts, parts) if p})


class SmallPair:
    """A small instance: hypergraph and two measures, with its W1 kept
    once computed (the checks of three solves use it)."""

    def __init__(self, H, mu, nu):
        self.H, self.mu, self.nu = H, mu, nu
        self._w1 = None

    def w1(self):
        if self._w1 is None:
            self._w1 = float(wasserstein.w1(self.H, self.mu, self.nu)[0])
        return self._w1


def _plan_ok(H, h, res, mu, nu):
    """Status exact and the plan re-validates to the reported value."""
    if res.optimality != "exact":
        return False
    plan = res.plan
    if plan.start != mu or plan.end != nu:
        return False
    try:
        cost = transport.plan_cost(H, h, plan)
    except (HypercurvError, ValueError):
        return False
    return abs(cost - res.value) <= TOL


def _check_sandwich(p, res, _outs):
    w = p.w1()
    return (_plan_ok(p.H, H_LOG, res, p.mu, p.nu)
            and H_LOG.h1 * w - TOL <= res.value <= H_LOG.hp0 * w + TOL)


def _check_back(p, fwd_key, res, outs):
    """Sandwich of nu -> mu, and symmetry with mu -> nu."""
    w = p.w1()
    fwd = outs[fwd_key]
    return (_plan_ok(p.H, H_LOG, res, p.nu, p.mu)
            and H_LOG.h1 * w - TOL <= res.value <= H_LOG.hp0 * w + TOL
            and (isinstance(fwd, Failure)
                 or abs(fwd.value - res.value) <= TOL))


def _check_linear(p, res, _outs):
    return (_plan_ok(p.H, H_LIN, res, p.mu, p.nu)
            and abs(res.value - p.w1()) <= TOL)


def _check_equal(want, out, _outs):
    return isinstance(out, Fraction) and out == want


def _check_catalog_kappa_h(H, x, y, alpha, want, out, _outs):
    val, res = out
    mu = measure.lazy_random_walk(H, x, alpha)
    nu = measure.lazy_random_walk(H, y, alpha)
    return _plan_ok(H, H_LOG, res, mu, nu) and abs(val - want) <= TOL


def _check_hlly(family, m, out, _outs):
    """Every point exact and on the closed form of the catalog."""
    _est, diag = out
    if any(s != "exact" for s in diag.statuses):
        return False
    for alpha, ratio in zip(diag.alphas, diag.ratios):
        want = curvature.catalog(family, m, H_LOG, alpha).kappa_h_alpha
        if abs(ratio * float(1 - alpha) - want) > TOL:
            return False
    return True


def small_ops(root, outdir, seed, clock):
    rng = random.Random(seed)
    ops = []
    for i in range(SMALL_INSTANCES):
        H = small_hypergraph(rng, clock)
        D = rng.choice((4, 6))
        p = SmallPair(H, small_measure(rng, H, D), small_measure(rng, H, D))
        fwd = ("wh", i, "fwd")
        ops += [
            Op(fwd, partial(_attr_call, transport, "wh_exact",
                            H, H_LOG, p.mu, p.nu),
               partial(_check_sandwich, p)),
            Op(("wh", i, "back"), partial(_attr_call, transport, "wh_exact",
                                          H, H_LOG, p.nu, p.mu),
               partial(_check_back, p, fwd)),
            Op(("wh", i, "lin"), partial(_attr_call, transport, "wh_exact",
                                         H, H_LIN, p.mu, p.nu),
               partial(_check_linear, p)),
        ]
    for family, m in CATALOG_GRID:
        with clock.timing():
            H, x, y = curvature.catalog_instance(family, m)
            H.distance_matrix()
        for a in CATALOG_ALPHAS:
            want = curvature.catalog(family, m, H_LOG, a)
            key = ("cat", family, m, str(a))
            ops += [
                Op(key + ("kappa",),
                   partial(_attr_call, curvature, "orc_alpha", H, x, y, a),
                   partial(_check_equal, want.kappa_alpha)),
                Op(key + ("kappa_h",),
                   partial(_attr_call, curvature, "orc_alpha_h",
                           H, H_LOG, x, y, a, details=True),
                   partial(_check_catalog_kappa_h, H, x, y, a,
                           want.kappa_h_alpha)),
            ]
    for family, m in HLLY_INSTANCES:
        with clock.timing():
            H, x, y = curvature.catalog_instance(family, m)
            H.distance_matrix()
        ops.append(Op(("hlly", family, m),
                      partial(_attr_call, curvature, "hlly", H, H_LOG, x, y),
                      partial(_check_hlly, family, m)))
    return ops


WORKLOADS = {
    "grid9-wh": grid9_ops,
    "w1-allpairs": allpairs_ops,
    "small-batch": small_ops,
}


def run_ops(ops):
    """Run every operation once, in order, in this process and thread.

    Returns (outputs by key, per-operation seconds, total seconds).  An
    operation that raises yields a Failure; its time still counts."""
    outs = {}
    lat = []
    now = time.perf_counter
    t_start = now()
    for op in ops:
        t0 = now()
        try:
            out = op.call()
        except Exception as exc:  # counted as a failed operation
            out = Failure(exc)
        lat.append(now() - t0)
        outs[op.key] = out
    return outs, lat, now() - t_start


def failed_keys(ops, outs):
    """Keys of the operations whose output misses its reference."""
    bad = []
    for op in ops:
        out = outs[op.key]
        try:
            ok = not isinstance(out, Failure) and op.check(out, outs)
        except Exception:  # a malformed output fails its check
            ok = False
        if not ok:
            bad.append(op.key)
    return bad
