#!/usr/bin/env python3
"""Self-test of the benchmark's output checks: wrong results must count.

A few operations of each workload are run three times with a fault
injected at the solver binding the workload calls: a perturbed value, a
status other than "exact", and a raised exception.  Every faulty
operation must count as failed, and the same operations must pass with
no fault injected.  Exits 0 when all cases hold.

    python3 perfbench/selftest.py
"""

import contextlib
import dataclasses
import os
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUTDIR = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402
from hypercurv import cli, curvature, transport  # noqa: E402


@contextlib.contextmanager
def patched(mod, name, fault):
    orig = getattr(mod, name)
    setattr(mod, name, fault(orig))
    try:
        yield
    finally:
        setattr(mod, name, orig)


def perturb_result(orig):
    def fn(*args, **kwargs):
        res = orig(*args, **kwargs)
        return dataclasses.replace(res, value=res.value + 1e-6)
    return fn


def downgrade_status(orig):
    def fn(*args, **kwargs):
        res = orig(*args, **kwargs)
        return dataclasses.replace(res, optimality="heuristic-upper-bound")
    return fn


def perturb_rational(orig):
    def fn(*args, **kwargs):
        return orig(*args, **kwargs) + Fraction(1, 10 ** 12)
    return fn


def raise_error(_orig):
    def fn(*args, **kwargs):
        raise RuntimeError("injected fault")
    return fn


def failures(ops):
    outs, _lat, _wall = workloads.run_ops(ops)
    return len(workloads.failed_keys(ops, outs))


def main():
    os.makedirs(OUTDIR, exist_ok=True)
    clock = workloads.SetupClock()
    cases = [
        ("small-batch", workloads.small_ops(ROOT, OUTDIR, 0, clock)[:9],
         transport, "wh_exact",
         (perturb_result, downgrade_status, raise_error)),
        ("w1-allpairs", workloads.allpairs_ops(ROOT, OUTDIR, 0, clock)[:6],
         curvature, "orc_alpha", (perturb_rational, raise_error)),
        ("grid9-wh", workloads.grid9_ops(ROOT, OUTDIR, 0, clock)[:1],
         cli, "wh_exact", (perturb_result, downgrade_status, raise_error)),
    ]
    ok = True
    for name, ops, mod, attr, faults in cases:
        clean = failures(ops)
        print(f"{name}: no fault, {clean}/{len(ops)} failed")
        ok &= clean == 0
        for fault in faults:
            with patched(mod, attr, fault):
                got = failures(ops)
            print(f"{name}: {fault.__name__} at {mod.__name__}.{attr}, "
                  f"{got}/{len(ops)} failed")
            ok &= got == len(ops)
    print("selftest:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
