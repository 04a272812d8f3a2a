#!/usr/bin/env python3
"""Build POSE from this checkout and run one benchmark workload.

Run from the repository root:

    python3 perfbench/run.py --workload enum-suite --seed 1 --seconds 10 --trace 0

The first run configures and builds the library, the posec worker and the
benchmark binary (Release) into .bench_build/perfbench; later runs only
re-check the build. The benchmark's report goes to stdout; its last line is
one JSON object with the keys correct, attempted, failed and metrics.
Build output goes to stderr.

    python3 perfbench/run.py --self-test

runs every workload briefly, traced and untraced, checks that every
metric named in BENCHMARK.json prints with its unit and that outputs are
correct, then runs the negative control (one golden entry perturbed) and
checks that it fails.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["enum-suite", "enum-wide", "prob-compile", "sweep-store"]
RUN_TIMEOUT_S = 170


def log(*args):
    print("perfbench:", *args, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configures (once) and builds; returns (bench, posec) paths."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("no POSE source tree next to " + HERE)
    bdir = build_dir()
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", bdir, "--target", "pose_perfbench",
                    "posec", "-j", "4"], stdout=sys.stderr, check=True)
    return (os.path.join(bdir, "pose_perfbench"),
            os.path.join(bdir, "pose", "tools", "posec"))


def run_bench(bench, posec, workload, seed, seconds, trace, perturb,
               capture):
    """Runs one workload in its own process group; returns (code, stdout)."""
    work = os.path.join(build_dir(), "work-%d" % os.getpid())
    traces = os.path.join(os.path.dirname(build_dir()), "perfbench-traces")
    os.makedirs(traces, exist_ok=True)
    cmd = [bench, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--goldens", os.path.join(HERE, "goldens.txt"),
           "--posec", posec, "--workdir", work,
           "--trace-file", os.path.join(traces, workload + ".csv")]
    if perturb:
        cmd.append("--perturb-golden")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE if capture else None,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log("%s timed out after %d s" % (workload, RUN_TIMEOUT_S))
        return 1, ""
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return proc.returncode, out or ""


def last_json(out):
    lines = [l for l in out.splitlines() if l.strip()]
    return json.loads(lines[-1]) if lines else None


def self_test(bench, posec):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expect = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for w in WORKLOADS:
        for trace in (False, True):
            code, out = run_bench(bench, posec, w, 1, 1, trace, False, True)
            res = last_json(out) if code == 0 else None
            what = "%s trace=%d" % (w, trace)
            if res is None:
                problems.append(what + ": exit %d, no result" % code)
                continue
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != expect[trace]:
                problems.append(what + ": metrics/units differ from "
                                "BENCHMARK.json: %s" % sorted(
                                    set(got.items()) ^
                                    set(expect[trace].items())))
            if not res["correct"] or res["failed"] != 0:
                problems.append(what + ": outputs incorrect")
            log("self-test %s: %d metrics, %d/%d failed" % (
                what, len(got), res["failed"], res["attempted"]))
        code, out = run_bench(bench, posec, w, 1, 1, False, True, True)
        res = last_json(out) if code == 0 else None
        if res is None or res["correct"] or res["failed"] == 0:
            problems.append(w + ": perturbed golden was not detected")
        else:
            log("self-test %s control: failed_frac %.4f" % (
                w, res["failed"] / res["attempted"]))
    for p in problems:
        log("SELF-TEST PROBLEM:", p)
    print("self-test %s" % ("passed" if not problems else "FAILED"))
    return 0 if not problems else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--perturb-golden", action="store_true",
                    help="negative control: one golden entry made wrong")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload is required")
    try:
        bench, posec = build()
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        log("build failed:", e)
        return 2
    if args.self_test:
        return self_test(bench, posec)
    code, _ = run_bench(bench, posec, args.workload, args.seed,
                         args.seconds, args.trace == 1, args.perturb_golden,
                         False)
    return code


if __name__ == "__main__":
    sys.exit(main())
