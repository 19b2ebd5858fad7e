#!/usr/bin/env python3
"""Compares two sets of perfbench result records (the ledger diff).

    python3 perfbench/diff.py BASE.json [BASE.json ...] --vs NEW.json [...]
        [--allow METRIC ...]

Each side is one or more full records written by perfbench/run.py for one
workload (usually one per seed). Records of different workloads, sizes,
ISAs, build types, compilers or nproc are never compared.

* Deterministic counters (output tuples, shuffle_mb_per_query, dedup checks
  and owned, transform calls, replication rates, spill raw bytes and runs,
  ...) must match exactly, seed by seed, unless named with --allow (a
  change that moves one says why).
* Timed end-to-end metrics are compared by median against the bound in
  run.py's END_TO_END. When either side's spread (interquartile range over
  median) exceeds the bound the metric is "unresolved", unless every new
  run beats every base run. A gain is reported only when the new side wins
  at least 9/10 of ten or more seed pairs and the medians differ by more
  than the base spread. With a single run on a side there is no spread,
  and only a regression beyond the bound is reported.
* Timed per-layer metrics are printed for attribution, without a verdict.

Exit status: 0 when nothing regressed, 1 on a regression or an unexplained
deterministic change, 2 when the records cannot be compared.
"""

import argparse
import json
import math
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (metric definitions)

STAMP_KEYS = ("workload", "size", "isa", "build_type", "compiler", "nproc")


def spread(values):
    """Interquartile range over median; 0 for fewer than two values."""
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / med if med else 0.0


def is_deterministic(name):
    return (name in run.DETERMINISTIC_END_TO_END or
            any(name.startswith(p) for p in run.DETERMINISTIC_PREFIXES))


def compatible(records):
    """None when all records share STAMP_KEYS, else a reason."""
    first = records[0]["stamp"]
    for r in records[1:]:
        for key in STAMP_KEYS:
            if r["stamp"].get(key) != first.get(key):
                return (f"stamp {key} differs: {first.get(key)!r} vs "
                        f"{r['stamp'].get(key)!r}")
    return None


def deterministic_mismatches(base, new, allow):
    """(metric, seed, base value, new value) for every unexplained change."""
    by_seed = {r["stamp"]["seed"]: r for r in base}
    out = []
    for r in new:
        b = by_seed.get(r["stamp"]["seed"])
        if b is None:
            continue
        for section in ("end_to_end", "per_layer"):
            for name, value in r[section].items():
                if not is_deterministic(name) or name in allow:
                    continue
                old = b[section].get(name)
                # Means over different query counts may differ in the
                # last bits; anything beyond that is a real change.
                if old is None or not math.isclose(old, value, rel_tol=1e-9):
                    out.append((name, r["stamp"]["seed"], old, value))
    return out


def verdict(name, base_vals, new_vals, base_seeds, new_seeds):
    unit, better, bound = run.END_TO_END[name]
    sign = 1.0 if better == "lower" else -1.0
    bm, nm = statistics.median(base_vals), statistics.median(new_vals)
    change = (nm - bm) / bm if bm else 0.0
    worse = sign * change
    sb, sn = spread(base_vals), spread(new_vals)
    all_better = all(sign * (n - b) < 0 for n in new_vals for b in base_vals)
    pairs = [(base_seeds[s], new_seeds[s])
             for s in base_seeds if s in new_seeds]
    wins = sum(1 for b, n in pairs if sign * (n - b) < 0)
    if min(len(base_vals), len(new_vals)) < 2:
        word = "REGRESSION" if worse > bound else "within bound (no spread)"
    elif sb > bound or sn > bound:
        word = "better (every run)" if all_better else "unresolved"
    elif worse > bound:
        word = "REGRESSION"
    elif -worse > sb and len(pairs) >= 10 and wins >= 0.9 * len(pairs):
        word = "better"
    else:
        word = "within bound"
    line = (f"{name:30s} {bm:12.6g} -> {nm:12.6g} {unit:8s} "
            f"{100 * change:+7.2f}% (bound {100 * bound:.0f}%, spread "
            f"{100 * sb:.1f}%/{100 * sn:.1f}%, wins {wins}/{len(pairs)}) "
            f"{word}")
    return word, line


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("base", nargs="+")
    p.add_argument("--vs", nargs="+", required=True, dest="new")
    p.add_argument("--allow", nargs="*", default=[],
                   help="deterministic metrics the change is expected to move")
    args = p.parse_args(argv)
    base = [json.loads(Path(f).read_text()) for f in args.base]
    new = [json.loads(Path(f).read_text()) for f in args.new]
    reason = compatible(base + new)
    if reason is not None:
        print(f"perfbench diff: not comparable: {reason}")
        return 2

    bad = False
    mism = deterministic_mismatches(base, new, set(args.allow))
    print(f"== {base[0]['stamp']['workload']}: {len(base)} base run(s), "
          f"{len(new)} new run(s)")
    print(f"-- deterministic counters: {len(mism)} unexplained change(s)")
    for name, seed, old, value in mism:
        print(f"   CHANGED {name} (seed {seed}): {old!r} -> {value!r}")
        bad = True

    print("-- end-to-end (median base -> new)")
    for name in run.END_TO_END:
        if name in run.DETERMINISTIC_END_TO_END:
            continue
        bv = [r["end_to_end"][name] for r in base]
        nv = [r["end_to_end"][name] for r in new]
        bs = {r["stamp"]["seed"]: r["end_to_end"][name] for r in base}
        ns = {r["stamp"]["seed"]: r["end_to_end"][name] for r in new}
        word, line = verdict(name, bv, nv, bs, ns)
        print("   " + line)
        bad = bad or word == "REGRESSION"

    print("-- per-layer timings (median base -> new; attribution only)")
    for name in run.PER_LAYER:
        if is_deterministic(name):
            continue
        bv = [r["per_layer"][name] for r in base if name in r["per_layer"]]
        nv = [r["per_layer"][name] for r in new if name in r["per_layer"]]
        if not bv or not nv:
            continue
        bm, nm = statistics.median(bv), statistics.median(nv)
        if bm == 0 and nm == 0:
            continue
        change = f"{100 * (nm - bm) / bm:+7.2f}%" if bm else "    new"
        print(f"   {name:40s} {bm:12.6g} -> {nm:12.6g} {change}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
