#!/usr/bin/env python3
"""Write reference.json: the values the workloads are checked against.

The grid9-wh values come from `hypercurv curvature` on the packaged grid9
file (they do not depend on the relabelling a seed applies); the
w1-allpairs values are the exact orc_alpha and lly rationals of each
recorded instance, in the order workloads.allpairs_calls() runs them.
Recording freezes what the program computes now, so rerun it only for a
change that is meant to alter these values.

    python3 perfbench/record.py
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402


def main():
    path = os.path.join(ROOT, "src", "hypercurv", "data", "grid9.hg")
    grid9 = {}
    for a in workloads.GRID9_ALPHAS:
        code, text = workloads.run_cli(workloads.grid9_argv(path, "x,y", a))
        if code != 0:
            raise SystemExit(f"grid9 at alpha {a} exited {code}")
        row = json.loads(text)[0]
        grid9[a] = {"w1": row["w1"], "kappa": row["kappa"],
                    "wh_status": row["wh_status"], "wh": float(row["wh"]),
                    "kappa_h": float(row["kappa_h"])}
        print(f"grid9-wh {a}: {grid9[a]}", flush=True)
    allpairs = {}
    for instance in range(workloads.ALLPAIRS_INSTANCES):
        H = workloads.allpairs_hypergraph(instance, workloads.SetupClock())
        allpairs[str(instance)] = " ".join(
            str(call()) for _key, call in workloads.allpairs_calls(H))
        print(f"w1-allpairs instance {instance}: recorded", flush=True)
    with open(os.path.join(HERE, "reference.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"grid9-wh": grid9, "w1-allpairs": allpairs}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
