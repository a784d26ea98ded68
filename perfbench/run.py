#!/usr/bin/env python3
"""The repository benchmark, as one command.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds snoop_serve, design_space and the perfbench binary from the
sources of this checkout (into $CARGO_TARGET_DIR, default .bench_build),
prints a run header, and runs one workload of BENCHMARK.json:

  --trace 0  drives the real binaries as child processes and prints
             every end-to-end metric;
  --trace 1  replays the same seeded inputs in process under per-layer
             spans and prints every per-layer metric.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The generator's own test runs
with `ctest --test-dir .bench_build/perfbench`.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TYPE = "RelWithDebInfo"
OPTIMISED = ("Release", "RelWithDebInfo", "MinSizeRel")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def run_build(cmd):
    # Build chatter goes to stderr: stdout carries the results.
    subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)


def build(build_root, jobs):
    repo = os.path.join(build_root, "repo")
    bench = os.path.join(build_root, "perfbench")
    if not os.path.exists(os.path.join(repo, "CMakeCache.txt")):
        run_build(["cmake", "-S", ROOT, "-B", repo,
                   f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    run_build(["cmake", "--build", repo, f"-j{jobs}", "--target",
               "snoop_serve_tool", "design_space"])
    if not os.path.exists(os.path.join(bench, "CMakeCache.txt")):
        run_build(["cmake", "-S", HERE, "-B", bench,
                   f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}",
                   f"-DSNOOP_REPO_BUILD={repo}"])
    run_build(["cmake", "--build", bench, f"-j{jobs}"])
    return repo, bench


def cache_value(cache_path, key):
    with open(cache_path) as f:
        for line in f:
            name, _, value = line.strip().partition("=")
            if name.split(":")[0] == key:
                return value
    return ""


def first_line(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True,
                             check=True, cwd=ROOT).stdout
        return out.splitlines()[0].strip() if out else "unknown"
    except (OSError, subprocess.CalledProcessError):
        return None


def header(repo, jobs):
    cache = os.path.join(repo, "CMakeCache.txt")
    build_type = cache_value(cache, "CMAKE_BUILD_TYPE") or "(none)"
    flags = cache_value(cache, f"CMAKE_CXX_FLAGS_{build_type.upper()}")
    compiler = first_line([cache_value(cache, "CMAKE_CXX_COMPILER"),
                           "--version"]) or "unknown"
    commit = first_line(["git", "rev-parse", "HEAD"]) \
        or "unknown (not a git checkout)"
    print(f"perfbench: nproc={jobs} build_type={build_type} "
          f"flags='{flags}'")
    print(f"perfbench: compiler={compiler}")
    print(f"perfbench: commit={commit}")
    if build_type not in OPTIMISED or "-O" not in flags:
        print("perfbench: WARNING " + "!" * 40)
        print("perfbench: WARNING the repository build is NOT optimised; "
              "these numbers mean nothing")
        print("perfbench: WARNING " + "!" * 40)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    needed = ["CMakeLists.txt", "src", "tools/snoop_serve.cc",
              "examples/design_space.cc", "BENCHMARK.json"]
    missing = [p for p in needed if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        log("not inside a checkout of the repository; missing: "
            + ", ".join(missing))
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        manifest = json.load(f)
    names = [w["name"] for w in manifest["workloads"]]
    if args.workload not in names:
        log(f"unknown workload '{args.workload}' (one of {', '.join(names)})")
        return 2

    jobs = len(os.sched_getaffinity(0))
    build_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR")
                              or ".bench_build")
    try:
        repo, bench = build(build_root, jobs)
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 1
    work = os.path.join(build_root, "work")
    os.makedirs(work, exist_ok=True)

    header(repo, jobs)
    sys.stdout.flush()
    cmd = [os.path.join(bench, "perfbench"),
           f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}",
           f"--serve={os.path.join(repo, 'tools', 'snoop_serve')}",
           f"--design-space={os.path.join(repo, 'examples', 'design_space')}",
           f"--work-dir={work}"]
    # Its own process group, so a timeout also stops the binaries
    # perfbench is running.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(f"perfbench did not finish within {RUN_TIMEOUT_S} s")
        return 1
    lines = out.rstrip("\n").split("\n")
    if proc.returncode != 0:
        print("\n".join(lines))
        log(f"perfbench exited with {proc.returncode}")
        return 1

    # The result must carry exactly the metrics BENCHMARK.json names.
    result = json.loads(lines[-1])
    listed = manifest["per_layer" if args.trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in listed}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        print("\n".join(lines[:-1]))
        log("metrics differ from BENCHMARK.json: missing "
            f"{sorted(set(want) - set(got))}, extra "
            f"{sorted(set(got) - set(want))}, units "
            f"{sorted(k for k in want if k in got and got[k] != want[k])}")
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
