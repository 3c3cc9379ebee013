"""Command-line front end.

Every numeric flag that carries mass or idleness takes exact "p/q"
strings; output is a table by default, or JSON/CSV with identical numeric
content.  Domain errors exit 1 with one machine-parsable line; usage
errors exit 2.
"""

from __future__ import annotations

import argparse
import csv
import json
import random
import sys
from fractions import Fraction

from . import __version__
from .bounds import bonnet_myers_bound, vertex_count_bound
from .cost import ConcaveCost
from .curvature import (
    CATALOG_FAMILIES,
    catalog,
    catalog_instance,
    hlly,
    lly,
    orc_alpha,
    orc_alpha_h,
    sweep,
)
from .errors import BadParams, HypercurvError
from .hypergraph import Hypergraph, graph_distance, parse_hypergraph
from .measure import ProbMeasure, lazy_random_walk
from .transport import plan_cost, wh_exact, wh_heuristic
from .wasserstein import w1

CSV_COLUMNS = ["x", "y", "alpha", "d", "w1", "wh", "wh_status", "kappa", "kappa_h"]


def _fraction(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}")


def _alpha_list(text):
    alphas = [_fraction(t) for t in text.split(",") if t]
    if not alphas:
        raise argparse.ArgumentTypeError(f"no idleness given: {text!r}")
    return alphas


def _pair(text):
    labels = tuple(t.strip() for t in text.split(","))
    if len(labels) != 2 or not all(labels):
        raise argparse.ArgumentTypeError(f"expected two labels x,y: {text!r}")
    return labels


def _positive_int(text):
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"not a positive integer: {text!r}")
    return int(text)


def _load(path, allow_nonsimple=False) -> Hypergraph:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise BadParams(f"{path} is not UTF-8 text ({exc.reason} at byte "
                        f"{exc.start})") from None
    return parse_hypergraph(text, strict=not allow_nonsimple)


def _pairs(H: Hypergraph, args):
    if args.pair:
        return [args.pair]
    return [(H.label(a), H.label(b)) for a in range(H.n)
            for b in range(a + 1, H.n)
            if args.pairs != "adjacent" or H.distance_id(a, b) == 1]


def _emit(rows, fmt, stream=None):
    stream = stream or sys.stdout
    if fmt == "json":
        json.dump(rows, stream, indent=2)
        stream.write("\n")
        return
    if fmt == "csv":
        cols = list(rows[0]) if rows else CSV_COLUMNS
        writer = csv.DictWriter(stream, fieldnames=cols)
        writer.writeheader()
        writer.writerows(rows)
        return
    if not rows:
        return
    cols = list(rows[0])
    cells = [[str(r.get(c, "")) for c in cols] for r in rows]
    widths = [max(len(c), *(len(row[i]) for row in cells))
              for i, c in enumerate(cols)]
    stream.write("  ".join(c.ljust(w) for c, w in zip(cols, widths)).rstrip() + "\n")
    for row in cells:
        stream.write("  ".join(v.ljust(w) for v, w in zip(row, widths)).rstrip() + "\n")


def _solver_opts(args):
    return {k: getattr(args, k) for k in ("max_states", "unpruned")
            if getattr(args, k) is not None}


# -- subcommands ---------------------------------------------------------------


def cmd_validate(args):
    H = _load(args.file, allow_nonsimple=True)
    rep = H.validation_report()
    rows = [{"connected": rep.connected, "simple": rep.simple,
             "vertices": H.n, "hyperedges": len(H.edges)}]
    _emit(rows, args.format)
    for v in rep.violations:
        print(f"violation: {v}")
    if rep.violations and not args.allow_nonsimple:
        return 1
    return 0


def cmd_dist(args):
    H = _load(args.file)
    rows = [{"x": x, "y": y, "d": graph_distance(H, x, y)}
            for x, y in _pairs(H, args)]
    _emit(rows, args.format)
    return 0


def cmd_w1(args):
    H = _load(args.file)
    rows = []
    for x, y in _pairs(H, args):
        for a in args.alpha:
            mu = lazy_random_walk(H, x, a)
            nu = lazy_random_walk(H, y, a)
            val, _ = w1(H, mu, nu)
            rows.append({"x": x, "y": y, "alpha": str(a),
                         "d": graph_distance(H, x, y), "w1": str(val)})
    _emit(rows, args.format)
    return 0


def cmd_wh(args):
    H = _load(args.file)
    h = ConcaveCost.from_json(args.h)
    rows = []
    for x, y in _pairs(H, args):
        for a in args.alpha:
            mu = lazy_random_walk(H, x, a)
            nu = lazy_random_walk(H, y, a)
            if args.heuristic:
                res = wh_heuristic(H, h, mu, nu)
            else:
                res = wh_exact(H, h, mu, nu, **_solver_opts(args))
            check = plan_cost(H, h, res.plan)
            if abs(check - res.value) > 1e-9:
                raise HypercurvError("plan failed to re-validate")
            row = {"x": x, "y": y, "alpha": str(a), "wh": repr(res.value),
                   "wh_status": res.optimality,
                   "lower_bound": repr(res.lower_bound),
                   "states": res.states_expanded, "D": res.quantization}
            if args.emit_plan:
                row["plan"] = json.loads(res.plan.to_json())
            rows.append(row)
    _emit(rows, "json" if args.emit_plan else args.format)
    return 0


def _emit_sweep(args, alphas):
    H = _load(args.file)
    h = ConcaveCost.from_json(args.h)
    points = sweep(H, h, _pairs(H, args), alphas, heuristic=args.heuristic,
                   **_solver_opts(args))
    rows = [{"x": p.x, "y": p.y, "alpha": str(p.alpha), "d": p.d,
             "w1": str(p.w1), "wh": repr(p.wh.value),
             "wh_status": p.wh.optimality, "kappa": str(p.kappa),
             "kappa_h": repr(p.kappa_h)} for p in points]
    _emit(rows, args.format)
    return 0


def cmd_curvature(args):
    return _emit_sweep(args, args.alpha)


def cmd_limit(args):
    H = _load(args.file)
    h = ConcaveCost.from_json(args.h) if args.h else None
    rows = []
    for x, y in sorted(_pairs(H, args)):
        row = {"x": x, "y": y, "lly": str(lly(H, x, y))}
        if h is not None:
            est, diag = hlly(H, h, x, y, **_solver_opts(args))
            row["hlly_estimate"] = repr(est)
            row["converged"] = diag.converged
        rows.append(row)
    _emit(rows, args.format)
    return 0


def _bounds_kappa(args, h):
    """Curvature lower bound for the bound formulas, with its provenance.

    An explicit --kappa is taken as a proven bound; the convenience modes
    chain a closed-form catalog value or a solver hlly estimate instead and
    label the result accordingly (estimates make the bound an estimate)."""
    if args.kappa is not None:
        return args.kappa, "given"
    if args.catalog:
        size = args.n if args.n is not None else args.d
        kappa = catalog(args.catalog, size, h).kappa_h
        return kappa, "catalog-closed-form"
    if args.file:
        H = _load(args.file)
        kappa = min(hlly(H, h, x, y, **_solver_opts(args))[0]
                    for x, y in _pairs(H, args))
        return kappa, "hlly-estimate"
    raise HypercurvError("bounds needs --kappa, --catalog or --file")


def cmd_bounds(args):
    h = ConcaveCost.from_json(args.h)
    kappa, source = _bounds_kappa(args, h)
    diam = bonnet_myers_bound(h, kappa, args.kind)
    rows = [{"kind": args.kind, "kappa": str(kappa), "kappa_source": source,
             "diam_bound": diam}]
    if args.max_degree is not None:
        rows[0]["vertex_bound"] = vertex_count_bound(h, kappa, args.max_degree)
    _emit(rows, args.format)
    if args.format == "table":
        label = "" if source == "given" else f" ({source})"
        msg = f"diam <= {diam}{label}"
        if args.max_degree is not None:
            msg += f", |V| <= {rows[0]['vertex_bound']}"
        print(msg)
    return 0


def cmd_catalog_verify(args):
    h = ConcaveCost.from_json(args.h)
    size = args.n if args.n is not None else args.d
    H, x, y = catalog_instance(args.family, size)
    alphas = args.alpha or [Fraction(0), Fraction(1, 4), Fraction(1, 2),
                            Fraction(3, 4)]
    failures = 0
    for a in alphas:
        want = catalog(args.family, size, h, a)
        got_k = orc_alpha(H, x, y, a)
        ok_k = got_k == want.kappa_alpha
        got_kh = orc_alpha_h(H, h, x, y, a, **_solver_opts(args))
        ok_kh = abs(got_kh - want.kappa_h_alpha) <= 1e-9
        failures += (not ok_k) + (not ok_kh)
        print(f"{'PASS' if ok_k else 'FAIL'} kappa({a}; {args.family} {size}) "
              f"= {got_k} vs {want.kappa_alpha}")
        print(f"{'PASS' if ok_kh else 'FAIL'} kappa_h({a}) = {got_kh!r} "
              f"vs {want.kappa_h_alpha!r}")
    want_lim = catalog(args.family, size, h).kappa
    got_lim = lly(H, x, y)
    ok = got_lim == want_lim
    failures += not ok
    print(f"{'PASS' if ok else 'FAIL'} lly = {got_lim} vs {want_lim}")
    return 1 if failures else 0


def cmd_sweep(args):
    return _emit_sweep(args, args.alpha or [Fraction(k, args.grid)
                                            for k in range(args.grid + 1)])


def cmd_selfcheck(args):
    """Random sandwich/symmetry/linearity spot checks (seeded)."""
    rng = random.Random(args.seed)
    h_log = ConcaveCost("log", a=1)
    h_lin = ConcaveCost("linear", a=1)
    failures = 0
    for trial in range(args.trials):
        H = _random_hypergraph(rng)
        mu = _random_measure(rng, H)
        nu = _random_measure(rng, H)
        val, _ = w1(H, mu, nu)
        res = wh_exact(H, h_log, mu, nu)
        back = wh_exact(H, h_log, nu, mu)
        lin = wh_exact(H, h_lin, mu, nu)
        ok = (h_log.h1 * float(val) - 1e-12 <= res.value
              <= h_log.hp0 * float(val) + 1e-12
              and abs(res.value - back.value) <= 1e-12
              and abs(lin.value - float(val)) <= 1e-12)
        if not ok:
            failures += 1
            print(f"FAIL trial {trial}: w1={val} wh={res.value} "
                  f"back={back.value} lin={lin.value}")
    print(f"selfcheck: {args.trials - failures}/{args.trials} trials passed "
          f"(seed {args.seed})")
    return 1 if failures else 0


def _random_hypergraph(rng):
    while True:
        n = rng.randint(3, 6)
        labels = [f"u{i}" for i in range(n)]
        edges = []
        for _ in range(rng.randint(2, 4)):
            size = rng.randint(2, min(4, n))
            edges.append(set(rng.sample(labels, size)))
        uniq = []
        for e in edges:
            if not any(e <= o or o <= e for o in uniq if o is not e):
                uniq.append(e)
        try:
            return Hypergraph(labels, uniq)
        except HypercurvError:
            continue


def _random_measure(rng, H):
    D = rng.choice([4, 6, 8, 12])
    k = rng.randint(1, min(4, H.n))
    verts = rng.sample(list(H.vertices), k)
    cuts = sorted(rng.randint(0, D) for _ in range(k - 1))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [D])]
    w = {}
    for v, p in zip(verts, parts):
        if p:
            w[v] = Fraction(p, D)
    if not w:
        w = {verts[0]: Fraction(1)}
    return ProbMeasure(w)


# -- parser ---------------------------------------------------------------------


def build_parser():
    p = argparse.ArgumentParser(prog="hypercurv", description=__doc__)
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def add_solver(sp):
        sp.add_argument("--max-states", type=_positive_int, dest="max_states",
                        help="expansion budget; past it the best plan found "
                             "is reported as heuristic-upper-bound "
                             "(default 300000)")
        sp.add_argument("--unpruned", action="store_true", default=None,
                        help="enumerate every successor on every hyperedge "
                             "(slow ground truth)")

    def add_size(sp, required):
        size = sp.add_mutually_exclusive_group(required=required)
        size.add_argument("--n", type=int, help="vertex count of the instance")
        size.add_argument("--d", type=int, help="pair distance of the instance")

    def add_common(sp, with_h=True, with_alpha=True, with_solver=True,
                   h_required=True, alpha_required=True, with_heuristic=True):
        sp.add_argument("file", help="hypergraph .hg file")
        if with_h:
            sp.add_argument("--h", required=h_required,
                            help='cost spec, e.g. {"family":"log","a":"1"}')
        grp = sp.add_mutually_exclusive_group()
        grp.add_argument("--pair", type=_pair, help="x,y vertex labels")
        grp.add_argument("--pairs", choices=["all", "adjacent"])
        if with_alpha:
            sp.add_argument("--alpha", type=_alpha_list,
                            required=alpha_required,
                            help="comma-separated idleness rationals p/q")
        if with_solver:
            add_solver(sp)
        if with_solver and with_heuristic:
            sp.add_argument("--heuristic", action="store_true")
        sp.add_argument("--format", choices=["table", "json", "csv"],
                        default="table")

    sp = sub.add_parser("validate", help="parse and validate a .hg file")
    sp.add_argument("file")
    sp.add_argument("--allow-nonsimple", action="store_true")
    sp.add_argument("--format", choices=["table", "json", "csv"], default="table")
    sp.set_defaults(func=cmd_validate)

    sp = sub.add_parser("dist", help="graph distances")
    add_common(sp, with_h=False, with_alpha=False, with_solver=False)
    sp.set_defaults(func=cmd_dist)

    sp = sub.add_parser("w1", help="exact W1 between lazy walks")
    add_common(sp, with_h=False, with_solver=False)
    sp.set_defaults(func=cmd_w1)

    sp = sub.add_parser("wh", help="discounted stepwise transport distance")
    add_common(sp)
    sp.add_argument("--emit-plan", action="store_true")
    sp.set_defaults(func=cmd_wh)

    sp = sub.add_parser("curvature", help="curvature report rows")
    add_common(sp)
    sp.set_defaults(func=cmd_curvature)

    sp = sub.add_parser("limit", help="idleness->1 limits (exact lly, hlly estimate)")
    add_common(sp, with_alpha=False, h_required=False, with_heuristic=False)
    sp.set_defaults(func=cmd_limit)

    sp = sub.add_parser("bounds", help="diameter and vertex-count bounds")
    sp.add_argument("--h", required=True)
    src = sp.add_mutually_exclusive_group(required=True)
    src.add_argument("--kappa", type=_fraction,
                     help="proven curvature lower bound")
    src.add_argument("--catalog", choices=CATALOG_FAMILIES,
                     help="take kappa from a closed-form catalog entry")
    src.add_argument("--file", help="estimate kappa by hlly on this .hg file")
    add_size(sp, required=False)
    sp.add_argument("--pair", type=_pair,
                    help="x,y (with --file; default adjacent pairs)")
    sp.add_argument("--max-degree", type=_positive_int, dest="max_degree")
    sp.add_argument("--kind", choices=["graph_lly", "hypergraph_hlly"],
                    default="hypergraph_hlly")
    add_solver(sp)
    sp.add_argument("--format", choices=["table", "json", "csv"], default="table")
    sp.set_defaults(func=cmd_bounds, pairs="adjacent")

    sp = sub.add_parser("catalog", help="closed-form catalog utilities")
    catsub = sp.add_subparsers(dest="catalog_command", required=True)
    spv = catsub.add_parser("verify", help="solver vs closed forms")
    spv.add_argument("--family", choices=CATALOG_FAMILIES, required=True)
    add_size(spv, required=True)
    spv.add_argument("--h", required=True)
    spv.add_argument("--alpha", type=_alpha_list, default=[])
    add_solver(spv)
    spv.set_defaults(func=cmd_catalog_verify)

    sp = sub.add_parser("sweep", help="alpha-grid curvature data")
    add_common(sp, alpha_required=False)
    sp.add_argument("--grid", type=_positive_int, default=16,
                    help="use alpha = k/grid when --alpha absent")
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("selfcheck", help="seeded random property spot checks")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--trials", type=_positive_int, default=25)
    sp.set_defaults(func=cmd_selfcheck)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "heuristic", False) and _solver_opts(args):
        parser.error("--heuristic takes no solver options")
    if args.command == "bounds" and (args.catalog is None) != (
            args.n is None and args.d is None):
        parser.error("--n or --d goes with --catalog, and only with it")
    try:
        return args.func(args)
    except HypercurvError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        kind = type(exc).__name__.removesuffix("Error")
        print(f"error: {kind}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
