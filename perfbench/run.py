#!/usr/bin/env python3
"""Run one measurement of the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first call configures and builds the
benchmark driver and orinsim_serve from this checkout's sources into
.bench_build/ (later calls rebuild incrementally); then the driver measures
one workload of BENCHMARK.json (its shape is fixed in perfbench/driver/main.cpp).
With --trace 0 the result line carries every end-to-end metric, with
--trace 1 every per-layer metric of the traced run. perfbench/per_layer.json
records which end-to-end metric each per-layer metric should move, and on
which workload. The full report (generator health, sample counts, the TTFT
decomposition, tracing overhead, host and build record) is written to
.bench_out/<workload>-seed<n>-trace<t>.json and summarized on stdout.

The last stdout line is the JSON result:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(ROOT, ".bench_out")
BUILD_TYPE = "Release"
DRIVER_TIMEOUT_S = 170
# OpenMP threads of the driver and of the orinsim_serve it starts: one core of
# the four is left to the load generator and the daemon's connection threads.
# With four spinning OpenMP workers the latencies measured the scheduler's
# contention more than the stack: on a 4-vCPU Xeon VM, chat_prefix itl_p50
# over five seeds of 20 s had an IQR/median of 0.20 with four threads and
# 0.08 with three.
OMP_THREADS = "3"


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures once, then builds the two targets the benchmark runs."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench_driver", "orinsim_serve",
                  "-j", str(os.cpu_count() or 1)])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed: " + " ".join(cmd))
    driver = os.path.join(BUILD, "perfbench_driver")
    serve = os.path.join(BUILD, "orinsim", "src", "server", "orinsim_serve")
    return driver, serve


def cpu_record():
    model, flags = "unknown", []
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                key, _, value = line.partition(":")
                key = key.strip()
                if key == "model name" and model == "unknown":
                    model = value.strip()
                elif key == "flags" and not flags:
                    flags = value.split()
    except OSError:
        pass
    return model, flags


def git_sha():
    # The ceiling keeps git from reporting an enclosing repository when the
    # checkout itself is not one.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, env=env)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "per_layer.json")) as f:
        per_layer_map = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    if opts.workload not in workloads:
        fail(f"unknown workload {opts.workload!r}; known: {workloads}")
    if opts.seconds <= 0:
        fail("--seconds must be positive")
    if sorted(per_layer_map) != sorted(m["name"] for m in bench["per_layer"]):
        fail("perfbench/per_layer.json and BENCHMARK.json name different per-layer metrics")

    started = time.monotonic()
    driver, serve = build()
    build_s = time.monotonic() - started

    cmd = [driver, f"--workload={opts.workload}", f"--seed={opts.seed}",
           f"--seconds={opts.seconds}", f"--trace={opts.trace}", f"--serve-bin={serve}"]
    env = dict(os.environ, OMP_NUM_THREADS=OMP_THREADS)
    try:
        run = subprocess.run(cmd, capture_output=True, text=True, timeout=DRIVER_TIMEOUT_S,
                             cwd=ROOT, env=env)
    except subprocess.TimeoutExpired:
        fail(f"driver exceeded {DRIVER_TIMEOUT_S} s")
    sys.stderr.write(run.stderr)
    lines = [l for l in run.stdout.splitlines() if l.startswith("PERFBENCH_REPORT ")]
    if run.returncode != 0 or not lines:
        fail(f"driver failed with exit code {run.returncode}")
    report = json.loads(lines[-1].split(" ", 1)[1])

    details = report.get("details", {})
    served_flags = details.get("served_flags")
    model, flags = cpu_record()
    report["host"] = {
        "cpu_model": model,
        "cpu_flags": flags,
        "nproc": os.cpu_count(),
        "kernels": report.pop("kernels"),
        "kernels_env": os.environ.get("ORINSIM_KERNELS", ""),
        "omp_num_threads": OMP_THREADS,
        "build_type": BUILD_TYPE,
        "git_sha": git_sha(),
        "seed": opts.seed,
        "served_command": " ".join(["orinsim_serve", *served_flags]) if served_flags else None,
        "build_s": round(build_s, 3),
    }

    # The driver's "correct" already requires matching outputs and a healthy
    # load generator (see "outputs_match" and "generator_valid").
    correct = bool(report["correct"])
    if opts.trace:
        source, specs = report.get("per_layer", {}), bench["per_layer"]
    else:
        source, specs = report["e2e"], bench["end_to_end"]
    metrics = {}
    for spec in specs:
        value = source.get(spec["name"])
        if not isinstance(value, (int, float)):
            correct = False  # a metric with no samples: the run measured nothing
            value = 0.0
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}

    os.makedirs(OUT, exist_ok=True)
    out_path = os.path.join(OUT, f"{opts.workload}-seed{opts.seed}-trace{opts.trace}.json")
    with open(out_path, "w") as f:
        json.dump(report, f, indent=1)

    print(f"workload {opts.workload} seed {opts.seed} trace {opts.trace}: "
          f"{'correct' if correct else 'NOT CORRECT'}; report in {os.path.relpath(out_path, ROOT)}")
    for problem in report.get("problems", []):
        print(f"  problem: {problem}")
    for key in ("generator", "traced_generator"):
        g = details.get(key)
        if g:
            print(f"  {key}: lateness p50 {g['lateness_p50_ms']:.3f} ms, "
                  f"p99 {g['lateness_p99_ms']:.3f} ms; offered {g['offered_rps']:.2f} rps, "
                  f"achieved {g['achieved_rps']:.2f} rps; "
                  f"{'valid' if g['valid'] else 'INVALID: ' + g['reason']}")
    failed_frac = report["e2e"].get("failed_frac")
    print(f"  failed_frac {failed_frac} (ratio; {report['failed']} of {report['attempted']})")
    if "decomposition" in details:
        d = details["decomposition"]
        print(f"  ttft decomposition: parts {d['parts_sum_ms']:.3f} ms of ttft_p50 "
              f"{d['ttft_p50_ms']:.3f} ms (coverage {d['coverage']:.3f})")
    if "tracing_overhead" in details:
        o = details["tracing_overhead"]
        print("  tracing overhead (traced / untraced): " +
              ", ".join(f"{k} {v:.3f}" for k, v in o.items() if isinstance(v, (int, float))))
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")

    result = {"correct": correct, "attempted": int(report["attempted"]),
              "failed": int(report["failed"]), "metrics": metrics}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
