#!/usr/bin/env python3
"""The repository benchmark: one workload per call, one JSON line out.

    python3 perfbench/run.py --workload paper_sync|islands_mc|genome_scan|all
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. The first call configures and builds
perfbench/CMakeLists.txt (the library from src/ plus the runner) into
the build directory, $CARGO_TARGET_DIR or .bench_build; later calls
only re-check the build. Inputs are made from --seed; the costly ones
(the genome panel, the exhaustive reference optima) are cached under
the build directory.

With --trace 0 the result carries the end-to-end metrics; with
--trace 1, the per-layer metrics of a traced run (which also writes a
Chrome trace-event file next to the raw report). A readable table with
every metric's base and sample count goes to standard error; the last
line of standard output is the JSON result. Any failure to build or
run exits non-zero without printing a result.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import metrics  # noqa: E402

WORKLOADS = ("paper_sync", "islands_mc", "genome_scan")
RUN_TIMEOUT_S = 175
# Cached genome panels kept (newest first); each is ~25 MB.
KEEP_PANELS = 12


def log(message):
    print(message, file=sys.stderr, flush=True)


def repo_root():
    return Path(__file__).resolve().parent.parent


def build(root, build_dir, deadline):
    """Configure once, then build; returns the runner's path."""
    source = root / "perfbench"
    if not (root / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"no library sources under {root / 'src'}")
    binary_dir = build_dir / "perfbench"
    if not (binary_dir / "CMakeCache.txt").is_file():
        command = ["cmake", "-S", str(source), "-B", str(binary_dir),
                   "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            command += ["-G", "Ninja"]
        run_checked(command, deadline)
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    run_checked(["cmake", "--build", str(binary_dir), "-j", jobs], deadline)
    runner = binary_dir / "perfbench_runner"
    if not runner.is_file():
        raise RuntimeError(f"build produced no {runner}")
    return runner


def run_checked(command, deadline):
    timeout = max(1.0, deadline - time.monotonic())
    result = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr,
                            timeout=timeout, check=False)
    if result.returncode != 0:
        raise RuntimeError(f"{command[0]} exited with {result.returncode}")


def evict_panels(cache_dir, keep_seed):
    panels = sorted(cache_dir.glob("genome_scan-*.pgs"),
                    key=lambda path: path.stat().st_mtime, reverse=True)
    for panel in panels[KEEP_PANELS:]:
        if panel.name != f"genome_scan-{keep_seed}.pgs":
            panel.unlink(missing_ok=True)
            Path(str(panel) + ".truth").unlink(missing_ok=True)


def run_workload(runner, build_dir, workload, seed, seconds, trace, deadline):
    cache_dir = build_dir / "perfbench-cache"
    out_dir = build_dir / "perfbench-out"
    command = [str(runner), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--cache", str(cache_dir), "--out", str(out_dir)]
    timeout = max(1.0, deadline - time.monotonic())
    result = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr,
                            timeout=timeout, check=False, text=True)
    if result.returncode != 0:
        raise RuntimeError(f"{workload} runner exited with {result.returncode}")
    raw_path = Path(result.stdout.strip().splitlines()[-1])
    with open(raw_path) as handle:
        raw = json.load(handle)
    if workload == "genome_scan":
        evict_panels(cache_dir, seed)
    summary = metrics.summarize(raw)
    summary["machine"] = raw["machine"]
    summary["threads"] = raw["threads"]
    summary["gates"] = raw["gates"]
    summary["trace_file"] = raw.get("trace_file", "")
    summary_path = raw_path.with_name(raw_path.name.replace(".raw.json", ".summary.json"))
    with open(summary_path, "w") as handle:
        json.dump(summary, handle, indent=2)
    print_table(workload, seed, summary)
    return summary


def print_table(workload, seed, summary):
    machine = summary["machine"]
    log(f"== {workload} seed {seed}: correct={summary['correct']} "
        f"attempted={summary['attempted']} failed={summary['failed']}")
    log(f"   machine: {machine['cpu']}, {machine['cores']} cores, simd "
        f"{machine['simd_active']} (detected {machine['simd_detected']}), "
        f"gcc {machine['compiler']}; threads {summary['threads']}")
    for gate in summary["gates"]:
        log(f"   gate {gate['name']}: {'pass' if gate['passed'] else 'FAIL'}"
            f" ({gate['detail']})")
    for name, entry in summary["metrics"].items():
        extra = {k: v for k, v in entry.items() if k not in ("value", "unit")}
        note = f"  {extra}" if extra else ""
        log(f"   {name:36s} {entry['value']:.6g} {entry['unit']}{note}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    started = time.monotonic()
    root = repo_root()
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = Path.cwd() / build_dir
    try:
        # The first build may take most of the first run's allowance.
        runner = build(root, build_dir, started + 850)
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {}
        for workload in workloads:
            deadline = time.monotonic() + RUN_TIMEOUT_S
            summary = run_workload(runner, build_dir, workload, args.seed,
                                   args.seconds, args.trace, deadline)
            results[workload] = metrics.result_line(summary)
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.TimeoutExpired) as error:
        log(f"perfbench: {error}")
        return 1
    if args.workload == "all":
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
