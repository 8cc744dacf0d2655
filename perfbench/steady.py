"""Steadiness check: two sets of runs of the same code, compared.

    python3 perfbench/steady.py

Each set runs every workload once per seed (seeds 1-10), untraced, then
traced runs on the first TRACED_RUNS seeds.  For each end-to-end metric on
each workload it prints each set's median and quartiles, the quartile
distance as a share of the median ("spread"), and whether the sets agree:
every spread within the metric's bound from BENCHMARK.json, and the second
set's median within the bound of the first set's, in either direction.
Every run must be correct, and ``iterations``, the failed share and every
per-layer count must match exactly, seed by seed.  It also prints the
tracing overhead: traced against untraced ``solve_s`` on the same seeds.
Raw results go to perfbench/results/.  Exits 1 when anything disagrees.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time

import run as bench

RESULTS_DIR = os.path.join(bench.HERE, "results")
SETS = 2
SEEDS = range(1, 11)
TRACED_RUNS = 2


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main() -> int:
    seconds = bench.SPEC["run_seconds"]
    sets = []
    for s in range(SETS):
        plain = {w: {} for w in bench.WORKLOADS}
        traced = {w: {} for w in bench.WORKLOADS}
        for seed in SEEDS:
            for w in bench.WORKLOADS:
                plain[w][seed] = bench.run(w, seed, seconds, 0)
                m = plain[w][seed]["metrics"]
                print(f"set {s + 1} {w} seed {seed}: " + ", ".join(
                    f"{k} {v['value']:.5g}" for k, v in m.items()),
                    flush=True)
        for seed in SEEDS[:TRACED_RUNS]:
            for w in bench.WORKLOADS:
                traced[w][seed] = bench.run(w, seed, seconds, 1)
        sets.append({"plain": plain, "traced": traced})

    os.makedirs(RESULTS_DIR, exist_ok=True)
    out = os.path.join(RESULTS_DIR,
                       time.strftime("steady-%Y%m%d-%H%M%S.json"))
    with open(out, "w") as fh:
        json.dump(sets, fh, indent=1)
    print(f"\n{SETS} sets x {len(SEEDS)} runs, run_seconds={seconds}; "
          f"raw results in {os.path.relpath(out, bench.ROOT)}")
    ok = report(sets, bench.SPEC)
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


def report(sets, spec) -> bool:
    """Print the comparison of the sets; True when they agree."""
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    counts = [k for k, u in bench.LAYER_UNITS.items() if u == "count"]
    ok = True
    for w in sets[0]["plain"]:
        print(f"\n{w}")
        for name, m in e2e.items():
            bound = m["bound"]
            stats = [quartiles([r["metrics"][name]["value"]
                                for r in st["plain"][w].values()])
                     for st in sets]
            base = stats[0][1]
            cells = []
            fine = True
            for q1, med, q3 in stats:
                spread = (q3 - q1) / med
                shift = (med - base) / base
                fine &= abs(shift) <= bound and spread <= bound
                wide = "" if spread <= bound / 3 else " (>1/3 bound)"
                cells.append(f"median {med:.5g} [{q1:.5g}, {q3:.5g}] "
                             f"spread {spread:.3f}{wide} shift {shift:+.3f}")
            ok &= fine
            print(f"  {name:12s} bound {bound:.2f} | " + " | ".join(cells)
                  + ("" if fine else "  DISAGREE"))
        for seed in sets[0]["plain"][w]:
            outcome = {(st["plain"][w][seed]["metrics"]["iterations"]
                        ["value"],
                        st["plain"][w][seed]["failed"]
                        / st["plain"][w][seed]["attempted"]) for st in sets}
            if len(outcome) != 1:
                ok = False
                print(f"  seed {seed}: iterations / failed share "
                      f"differ between sets: {sorted(outcome)}")
        shares = {r["failed"] / r["attempted"]
                  for st in sets for r in st["plain"][w].values()}
        ok &= len(shares) == 1
        print(f"  failed share of each run: {sorted(shares)}")
        wrong = sum(not r["correct"] for st in sets for kind in st.values()
                    for r in kind[w].values())
        ok &= wrong == 0
        print(f"  runs not correct: {wrong}")
        for seed in sets[0]["traced"][w]:
            layers = [st["traced"][w][seed]["metrics"] for st in sets]
            same = all(lay[k] == layers[0][k]
                       for lay in layers for k in counts)
            ok &= same
            print(f"  seed {seed}: per-layer counts "
                  f"{'identical' if same else 'DIFFER'} between sets: "
                  + ", ".join(f"{k} {layers[0][k]['value']}" for k in counts))
            traced = [st["traced"][w][seed]["detail"]["solve_s"]
                      for st in sets]
            plain = [st["plain"][w][seed]["metrics"]["solve_s"]["value"]
                     for st in sets]
            over = statistics.median(t / b for t, b in zip(traced, plain))
            print(f"  seed {seed}: tracing overhead on solve_s "
                  f"{over - 1.0:+.1%}")
    return ok


if __name__ == "__main__":
    sys.exit(main())
