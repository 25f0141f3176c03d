#!/usr/bin/env python3
"""End-to-end benchmark runner for the adaptidx server.

Builds bench/e2e (Release, into build-e2e/) from the checkout it sits in,
runs workloads through the adaptidx_bench binary, prints every metric as
`workload metric value unit`, and exits non-zero on any wrong answer.

  run.py                                  every workload once
  run.py --workload W --seed N --seconds S --trace 0|1
                                          one run; the last stdout line is
                                          the JSON result BENCHMARK.json names
  run.py agree [--runs N] [--out F]       two sets of N runs per workload:
                                          medians, spreads, bound check
  run.py trace [--runs N]                 traced run per workload, with its
                                          overhead against untraced runs
  run.py compare NEW.json [--baseline F]  NEW (from `agree --out`) against a
                                          baseline; refused across hosts

See README.md for the workloads, metrics and bounds.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, "build-e2e")
BINARY = os.path.join(BUILD, "adaptidx_bench")
DATA_ROOT = os.path.join(BUILD, "tmp")
BASELINE = os.path.join(HERE, "baseline.json")
RUN_TIMEOUT_S = 170  # one benchmark run must end within 180 s
BUILD_TIMEOUT_S = 840
# An untraced run is this many processes, each measuring a share of the
# run's seconds after one set-up; every metric is the median over them. So
# setup_s and peak_rss_mb are those of fresh processes, as a user's
# start-up would be.
PROCESSES = 3


class BenchError(Exception):
    pass


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures (once) and builds the benchmark; output goes to a log."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise BenchError("adaptidx sources not found at %s" % ROOT)
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "adaptidx_bench",
                  "-j", str(os.cpu_count() or 1)])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    with open(log_path, "a") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=max(1, deadline - time.monotonic())
                                    ).returncode
            except subprocess.TimeoutExpired:
                rc = -1
            if rc != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                raise BenchError("build failed: %s" % " ".join(cmd))


def run_process(workload, seed, seconds, extra, deadline):
    """Runs one workload in its own process; returns its JSON result."""
    os.makedirs(DATA_ROOT, exist_ok=True)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--data-root", DATA_ROOT] + extra
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("%s timed out" % workload)
    finally:
        # The binary removes its data root on every return path; this covers
        # a crash or a kill.
        shutil.rmtree(os.path.join(DATA_ROOT, "adaptidx_e2e_%d" % proc.pid),
                      ignore_errors=True)
    lines = out.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise BenchError("%s exited with %d" % (workload, proc.returncode))
    result = json.loads(lines[-1])
    result["exit_code"] = proc.returncode
    return result


def run_once(workload, seed, seconds, trace):
    """One benchmark run. Untraced: PROCESSES processes on seeds derived from
    `seed`, combined by median. Traced: the first of those processes alone,
    with both passes, so its pass 1 is the same TCP run as an untraced
    process."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    if trace:
        return run_process(workload, seed * PROCESSES, seconds / PROCESSES, [
            "--trace", os.path.join(BUILD, "trace-%s.json" % workload)], deadline)
    parts = [run_process(workload, seed * PROCESSES + i, seconds / PROCESSES, [],
                         deadline)
             for i in range(PROCESSES)]
    combined = dict(parts[0])
    for key in ("attempted", "failed", "wrong", "exit_code"):
        combined[key] = (max if key == "exit_code" else sum)(p[key] for p in parts)
    combined["host"]["fdatasync_us"] = statistics.median(
        p["host"]["fdatasync_us"] for p in parts)
    combined["metrics"] = {
        name: [statistics.median(p["metrics"][name][0] for p in parts), unit]
        for name, (_, unit) in parts[0]["metrics"].items()}
    combined["metrics"]["failed_frac"][0] = (
        combined["failed"] / max(1, combined["attempted"]))
    return combined


def fingerprint(result):
    h = result["host"]
    return (h["nproc"], h["cpu"], h["kernel_tier"])


def same_host(results):
    """Hosts match on nproc, CPU and kernel tier, and every fdatasync probe
    lies within 4x of their median: the probe varies 2x from run to run on
    one disk, while page-cache-backed, NVMe and networked storage differ by
    far more."""
    if len({fingerprint(r) for r in results}) > 1:
        return False
    syncs = [r["host"]["fdatasync_us"] for r in results]
    mid = statistics.median(syncs)
    return all(mid / 4 <= x <= mid * 4 for x in syncs)


def print_lines(result, trace):
    w = result["workload"]
    groups = ["metrics"] + (["layers"] if trace else [])
    for g in groups:
        for name, (value, unit) in result[g].items():
            print("%s %s %.6g %s" % (w, name, value, unit))
    h = result["host"]
    print("%s host nproc=%d kernel_tier=%s fdatasync_us=%.1f flush_policy=%s "
          "cpu=%s" % (w, h["nproc"], h["kernel_tier"], h["fdatasync_us"],
                      result["flush_policy"], h["cpu"]))


def single_run_mode(args):
    s = spec()
    names = [m["name"] for m in s["per_layer" if args.trace else "end_to_end"]]
    build()
    result = run_once(args.workload, args.seed, args.seconds, args.trace)
    print_lines(result, args.trace)
    source = result["layers"] if args.trace else result["metrics"]
    missing = [n for n in names if n not in source]
    if missing:
        raise BenchError("metrics missing from the run: %s" % missing)
    correct = result["wrong"] == 0 and result["exit_code"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": source[n][0], "unit": source[n][1]}
                    for n in names},
    }))
    return 0 if correct else 1


def all_mode(_args):
    s = spec()
    build()
    ok = True
    for w in s["workloads"]:
        result = run_once(w["name"], 1, s["run_seconds"], False)
        print_lines(result, False)
        ok = ok and result["exit_code"] == 0 and result["wrong"] == 0
    return 0 if ok else 1


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else float("inf")


def worse_by(metric, old, new):
    """How much worse `new` is than `old`, as a share of `old`."""
    if old == 0:
        return 0.0
    change = (new - old) / old
    return change if metric["better"] == "lower" else -change


def checked_run(workload, seed, seconds):
    r = run_once(workload, seed, seconds, False)
    if r["wrong"] or r["exit_code"]:
        raise BenchError("%s seed %d: wrong answers" % (workload, seed))
    sys.stderr.write("  %s seed %d done\n" % (workload, seed))
    return r


def agree_mode(args):
    s = spec()
    build()
    workloads = args.workloads or [w["name"] for w in s["workloads"]]
    seconds = args.seconds or s["run_seconds"]
    metrics = s["end_to_end"]
    # Two sets on disjoint seeds, interleaved so drift hits both alike.
    sets = ({w: [] for w in workloads}, {w: [] for w in workloads})
    for i in range(args.runs):
        for which, seed in ((0, 1 + i), (1, 1001 + i)):
            for w in workloads:
                sets[which][w].append(checked_run(w, seed, seconds))
    every = [r for runs in sets for rs in runs.values() for r in rs]
    if not same_host(every):
        raise BenchError("runs came from different host fingerprints")

    def values(w, name, which=(0, 1)):
        return [r["metrics"][name][0] for k in which for r in sets[k][w]]

    ok = True
    print("%-14s %-18s %12s %7s %12s %7s %8s %6s  verdict" % (
        "workload", "metric", "median A", "iqr A", "median B", "iqr B",
        "worse B", "bound"))
    for w in workloads:
        for m in metrics:
            va, vb = values(w, m["name"], (0,)), values(w, m["name"], (1,))
            sa, sb = spread(va), spread(vb)
            worse = worse_by(m, statistics.median(va), statistics.median(vb))
            gated = m["name"] != "setup_s"  # its spread is not held to the bound
            verdict = "ok"
            if (gated and max(sa, sb) > m["bound"]) or worse > m["bound"]:
                verdict = "FAIL"
            elif gated and max(sa, sb) > m["bound"] / 3:
                verdict = "ok (spread above bound/3)"
            ok = ok and verdict != "FAIL"
            print("%-14s %-18s %12.4g %6.1f%% %12.4g %6.1f%% %7.1f%% %5.0f%%  %s" % (
                w, m["name"], statistics.median(va), 100 * sa,
                statistics.median(vb), 100 * sb, 100 * worse,
                100 * m["bound"], verdict))
    if args.out:
        with open(args.out, "w") as f:
            json.dump({
                "host": every[0]["host"], "seconds": seconds, "runs": args.runs,
                "values": {w: {m["name"]: values(w, m["name"]) for m in metrics}
                           for w in workloads},
                "medians": {w: {m["name"]: statistics.median(values(w, m["name"]))
                                for m in metrics} for w in workloads},
                "spreads": {w: {m["name"]: spread(values(w, m["name"]))
                                for m in metrics} for w in workloads},
            }, f, indent=1, sort_keys=True)
    return 0 if ok else 1


def trace_mode(args):
    s = spec()
    build()
    workloads = args.workloads or [w["name"] for w in s["workloads"]]
    seconds = args.seconds or s["run_seconds"]
    for w in workloads:
        untraced = [run_once(w, seed, seconds, False)["metrics"]["ops_per_s"][0]
                    for seed in range(1, args.runs + 1)]
        traced = run_once(w, 1, seconds, True)
        print_lines(traced, True)
        base = statistics.median(untraced)
        pass1 = traced["layers"]["trace.pass1_ops_per_s"][0]
        print("%s trace_overhead_frac %.4f ratio  (pass-1 %.1f vs untraced "
              "median %.1f ops/s over %d runs)" % (w, 1 - pass1 / base, pass1,
                                                   base, len(untraced)))
        print("%s trace_file %s" % (w, os.path.join(BUILD, "trace-%s.json" % w)))
    return 0


def compare_mode(args):
    s = spec()
    with open(args.new) as f:
        new = json.load(f)
    with open(args.baseline) as f:
        base = json.load(f)
    fake = [{"host": new["host"]}, {"host": base["host"]}]
    if not same_host(fake):
        raise BenchError("host fingerprints differ; refusing to compare "
                         "(%s vs %s)" % (new["host"], base["host"]))
    if new["seconds"] != base["seconds"]:
        # Round counts scale with the seconds, and adaptive state with them.
        raise BenchError("runs of %s s and %s s are not comparable"
                         % (new["seconds"], base["seconds"]))
    ok = True
    for w, metrics in base["medians"].items():
        for m in s["end_to_end"]:
            if m["name"] not in metrics or w not in new["medians"]:
                continue
            worse = worse_by(m, metrics[m["name"]], new["medians"][w][m["name"]])
            verdict = "ok" if worse <= m["bound"] else "REGRESSED"
            ok = ok and verdict == "ok"
            print("%-14s %-18s %12.4g -> %12.4g  worse %6.1f%% (bound %.0f%%) %s"
                  % (w, m["name"], metrics[m["name"]],
                     new["medians"][w][m["name"]], 100 * worse,
                     100 * m["bound"], verdict))
    return 0 if ok else 1


def main():
    argv = sys.argv[1:]
    mode = argv[0] if argv and not argv[0].startswith("-") else None
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    if mode in ("agree", "trace"):
        argv = argv[1:]
        p.add_argument("--runs", type=int, default=5 if mode == "agree" else 3)
        p.add_argument("--seconds", type=int)
        p.add_argument("--workloads", nargs="*")
        if mode == "agree":
            p.add_argument("--out")
        handler = agree_mode if mode == "agree" else trace_mode
    elif mode == "compare":
        argv = argv[1:]
        p.add_argument("new")
        p.add_argument("--baseline", default=BASELINE)
        handler = compare_mode
    elif argv:
        p.add_argument("--workload", required=True)
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--seconds", type=int, required=True)
        p.add_argument("--trace", type=int, choices=(0, 1), default=0)
        handler = single_run_mode
    else:
        handler = all_mode
    args = p.parse_args(argv)
    try:
        return handler(args)
    except BenchError as e:
        sys.stderr.write("run.py: %s\n" % e)
        return 2


if __name__ == "__main__":
    sys.exit(main())
