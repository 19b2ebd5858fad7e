#!/usr/bin/env python3
"""Runs one mwsj benchmark workload and prints its metrics.

    python3 perfbench/run.py --workload roads-overlap-join --seed 1 \
        --seconds 20 --trace 0

Builds perfbench/ (the library from src/ plus the mwsj_perfbench program)
in Release mode under $CARGO_TARGET_DIR (default .bench_build), runs it,
and prints every metric by name and unit. The last stdout line is
one JSON object: {"correct", "attempted", "failed", "metrics"}; with
--trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones (span self times computed here from its trace).
The full record -- run stamp, every metric, span table -- is written to
--out, by default <build>/perfbench/results/<workload>-seed<N>-trace<T>.json,
which perfbench/diff.py compares. Exit status is 0 only when every query's
output checked out.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"

WORKLOADS = ("roads-overlap-join", "sparse-spill-shuffle",
             "catalog-service-mix")

# name -> (unit, better, bound): the end-to-end metrics, taken from the
# untraced timed phase. ok_frac is 1 - failed_frac: a bound relative to
# the parent's value needs a non-zero base. failed_frac itself is kept in
# the full record.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "query_s_p50": ("s", "lower", 0.24),
    "query_s_tail": ("s", "lower", 0.24),
    "queries_per_s": ("1/s", "higher", 0.24),
    "cpu_s_per_query": ("s", "lower", 0.2),
    "peak_rss_mb": ("MB", "lower", 0.24),
    "shuffle_mb_per_query": ("MB", "lower", 0.05),
    "modeled_cluster_s_per_query": ("s", "lower", 0.05),
    "ok_frac": ("fraction", "higher", 0.01),
}

ALGOS = ("crep", "crepl", "cascade", "knnmr")
ROUNDS = {"crep": 2, "crepl": 2, "cascade": 2, "knnmr": 3}

# Library span name -> per-layer self-time metric (seconds per traced
# query, summed over threads).
SPAN_METRICS = {
    "map_chunk": "mapreduce.map_chunk_self_s",
    "shuffle_merge": "mapreduce.shuffle_merge_self_s",
    "reduce_task": "mapreduce.reduce_task_self_s",
    "local_join": "localjoin.local_join_self_s",
    "grid_build": "grid.grid_build_self_s",
    "sort_tuples": "core.sort_tuples_self_s",
}


def per_layer_metrics():
    """name -> (unit, better) of every per-layer metric, in report order."""
    m = {
        "datagen.generate_s": ("s", "lower"),
        "io.read_csv_s": ("s", "lower"),
        "io.read_mb_per_s": ("MB/s", "higher"),
        "core.catalog_put_s": ("s", "lower"),
        "grid.build_s": ("s", "lower"),
    }
    for a in ALGOS[:3] + ("batch",):
        m[f"grid.project_calls_per_input.{a}"] = ("calls/input", "lower")
        m[f"grid.split_calls_per_input.{a}"] = ("calls/input", "lower")
        m[f"grid.replicate_calls_per_input.{a}"] = ("calls/input", "lower")
    for a in ALGOS:
        for r in range(1, ROUNDS[a] + 1):
            m[f"grid.replication_rate.{a}.r{r}"] = ("records/input", "lower")
    for a in ALGOS:
        m[f"mapreduce.map_s.{a}"] = ("s", "lower")
        m[f"mapreduce.shuffle_s.{a}"] = ("s", "lower")
        m[f"mapreduce.reduce_s.{a}"] = ("s", "lower")
        m[f"mapreduce.map_chunk_s_max.{a}"] = ("s", "lower")
        m[f"mapreduce.reducer_s_max.{a}"] = ("s", "lower")
        m[f"mapreduce.reducer_records_skew.{a}"] = ("ratio", "lower")
        m[f"mapreduce.shuffle_records.{a}"] = ("count", "lower")
        m[f"mapreduce.spill_runs.{a}"] = ("count", "lower")
        m[f"mapreduce.spill_raw_mb.{a}"] = ("MB", "lower")
        m[f"mapreduce.spill_stored_mb.{a}"] = ("MB", "lower")
        m[f"mapreduce.spill_compression.{a}"] = ("ratio", "higher")
        m[f"mapreduce.merge_width_max.{a}"] = ("count", "lower")
        m[f"mapreduce.peak_inbox_mb.{a}"] = ("MB", "lower")
        m[f"mapreduce.peak_shuffle_mb.{a}"] = ("MB", "lower")
    for a in ("crep", "crepl", "batch"):
        m[f"core.dedup_tuple_checks.{a}"] = ("count", "lower")
        m[f"core.dedup_owned.{a}"] = ("count", "higher")
        m[f"core.dedup_owned_ratio.{a}"] = ("ratio", "higher")
    m["core.marked_fraction.crep"] = ("fraction", "lower")
    m["core.marked_fraction.crepl"] = ("fraction", "lower")
    for a in ALGOS:
        m[f"core.output_tuples.{a}"] = ("count", "higher")
    m["core.catalog_hit_rate"] = ("fraction", "higher")
    m["core.scheduler_wait_s"] = ("s", "lower")
    m["queries.knn_point_replication"] = ("copies/point", "lower")
    m["queries.knn_candidates_per_point"] = ("count", "lower")
    m["queries.knn_s"] = ("s", "lower")
    for name in SPAN_METRICS.values():
        m[name] = ("s", "lower")
    m["trace.overhead_ratio"] = ("ratio", "lower")
    return m


PER_LAYER = per_layer_metrics()

# Per-layer metrics that are pure functions of the seed and the code: a
# change must leave them exactly equal unless it says why (diff.py).
DETERMINISTIC_PREFIXES = (
    "core.output_tuples.", "core.dedup_tuple_checks.", "core.dedup_owned.",
    "core.dedup_owned_ratio.", "core.marked_fraction.",
    "grid.project_calls_per_input.", "grid.split_calls_per_input.",
    "grid.replicate_calls_per_input.", "grid.replication_rate.",
    "mapreduce.shuffle_records.", "mapreduce.spill_raw_mb.",
    "mapreduce.spill_runs.", "mapreduce.peak_inbox_mb.",
    "queries.knn_point_replication", "queries.knn_candidates_per_point",
)
DETERMINISTIC_END_TO_END = ("shuffle_mb_per_query",)


def span_table(events, window=None):
    """Per span name: count, total and self seconds.

    `events` are Chrome trace events ("B"/"E" pairs nested per tid, "i"
    instants ignored). A span's self time is its duration minus the
    durations of its direct children on the same thread. With `window`
    = (begin_us, end_us), only spans lying inside it are counted.
    """
    table = {}
    stacks = {}
    for ev in events:
        ph = ev.get("ph")
        tid = ev.get("tid", 0)
        stack = stacks.setdefault(tid, [])
        if ph == "B":
            stack.append([ev["name"], float(ev["ts"]), 0.0])
        elif ph == "E":
            if not stack:
                raise ValueError(f"unbalanced end event on tid {tid}")
            name, begin, child_us = stack.pop()
            end = float(ev["ts"])
            dur = end - begin
            if stack:
                stack[-1][2] += dur
            if window is not None and not (window[0] <= begin and
                                           end <= window[1]):
                continue
            row = table.setdefault(
                name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            row["count"] += 1
            row["total_s"] += dur * 1e-6
            row["self_s"] += (dur - child_us) * 1e-6
    for tid, stack in stacks.items():
        if stack:
            raise ValueError(f"unclosed span {stack[-1][0]!r} on tid {tid}")
    return table


def span_window(events, name):
    """(begin_us, end_us) of the first span called `name`."""
    open_at = {}
    for ev in events:
        tid = ev.get("tid", 0)
        stack = open_at.setdefault(tid, [])
        if ev.get("ph") == "B":
            stack.append((ev["name"], float(ev["ts"])))
        elif ev.get("ph") == "E" and stack:
            n, begin = stack.pop()
            if n == name:
                return begin, float(ev["ts"])
    return None


def git_commit():
    """HEAD's commit id, read from .git without running git; or None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    """sha256 over the sources the benchmark builds (src/ and perfbench/)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def child_env(out_dir):
    """The environment for the build and the benchmark program: temporary
    files, the compiler's among them, stay inside the build directory."""
    tmp = out_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    return dict(os.environ, TMPDIR=str(tmp))


def build(out_dir):
    """Configures (once) and builds mwsj_perfbench; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"library sources missing: {ROOT / 'src'}")
    env = child_env(out_dir)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (out_dir / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(out_dir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr,
                       env=env, timeout=300)
    subprocess.run(["cmake", "--build", str(out_dir), "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr,
                   env=env, timeout=850)
    return out_dir / "mwsj_perfbench"


def run_program(binary, args, out_dir, trace_path):
    work = out_dir / "work"
    work.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--size", args.size,
           "--work-dir", str(work)]
    if trace_path is not None:
        cmd += ["--trace-out", str(trace_path)]
    if args.wrong_expectation:
        cmd.append("--wrong-expectation")
    # Generous but below the 180 s a run may take; subprocess.run kills and
    # reaps the program on timeout.
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, env=child_env(out_dir), timeout=170)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if not lines:
        raise RuntimeError(f"program printed nothing (exit {proc.returncode})")
    return json.loads(lines[-1]), proc.returncode


def add_trace_metrics(record, trace_path):
    events = json.loads(trace_path.read_text())["traceEvents"]
    window = span_window(events, "timed_phase")
    if window is None:
        raise RuntimeError("trace has no timed_phase span")
    record["spans"] = span_table(events)
    timed = span_table(events, window)
    record["spans_timed_phase"] = timed
    n = record["counts"].get("traced_queries", 0)
    for span, metric in SPAN_METRICS.items():
        self_s = timed.get(span, {}).get("self_s", 0.0)
        record["per_layer"][metric] = self_s / n if n else 0.0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: small inputs, for the self-test")
    p.add_argument("--out", help="where to write the full result record")
    p.add_argument("--wrong-expectation", action="store_true",
                   help="self-test: expect a wrong output, so checks fail")
    args = p.parse_args(argv)

    out_dir = build_dir()
    try:
        binary = build(out_dir)
    except (RuntimeError, OSError, subprocess.SubprocessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    trace_path = out_dir / f"trace-{args.workload}.json" if args.trace else None
    try:
        record, code = run_program(binary, args, out_dir, trace_path)
        if trace_path is not None and code == 0:
            add_trace_metrics(record, trace_path)
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        print(f"perfbench: run failed: {e}", file=sys.stderr)
        return 1
    finally:
        if trace_path is not None and trace_path.exists():
            trace_path.unlink()

    record["stamp"]["commit"] = git_commit()
    record["stamp"]["source_digest"] = source_digest()
    record["stamp"]["trace"] = args.trace
    wanted = PER_LAYER if args.trace else END_TO_END
    source = record["per_layer"] if args.trace else record["end_to_end"]
    missing = [name for name in wanted if name not in source]
    correct = code == 0 and record["failed"] == 0 and not missing
    metrics = {name: {"value": source.get(name, 0.0), "unit": wanted[name][0]}
               for name in wanted}

    out = Path(args.out) if args.out else (
        out_dir / "results" /
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    print(f"# stamp {json.dumps(record['stamp'], sort_keys=True)}")
    print(f"# {record['counts'].get('queries', 0):.0f} timed queries; tail is "
          f"p{100 * record['stamp']['tail_percentile']:.0f}; "
          f"failed_frac {record['end_to_end'].get('failed_frac', 1.0):g}")
    for msg in record.get("failures", []):
        print(f"# FAILED: {msg}")
    for name in missing:
        print(f"# MISSING metric: {name}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
