#!/usr/bin/env python3
"""The repository benchmark: paper-scale FALCON key recovery (README.md here).

One run of one workload; the last line of stdout is the result object:

    python3 bench/paper/run.py --workload f512 --seed 7 --seconds 20 --trace 0

The full set -- every workload in a fixed order, --repeat runs each on
seeds seed, seed+1, ... -- with median, quartiles and n per metric:

    python3 bench/paper/run.py [--seed N] [--repeat R] [--trace 1]

Builds bench_paper from the repository sources (bench/paper/CMakeLists.txt)
into --build-dir first. Each run is a fresh bench_paper process pinned to
a fixed CPU set and killed, with its fleet workers, after three times its
expected duration. Exits non-zero on any failed check.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
PACKAGE = ROOT / "bench" / "paper"

# Fixed order; cpus pins the process tree (fleet256: coordinator + two
# workers); setup_s (with the 1 s warm-up) and op_s are the expected
# durations on a 4-core Xeon, which size the timeout.
WORKLOADS = {
    "f512": {"cpus": 1, "setup_s": 2.5, "op_s": 11.0},
    "paper16": {"cpus": 1, "setup_s": 1.5, "op_s": 14.0},
    "extend25": {"cpus": 1, "setup_s": 1.5, "op_s": 17.0},
    "fleet256": {"cpus": 3, "setup_s": 2.0, "op_s": 6.0},
}
# A traced run does the operation twice (untraced reference, then the
# span decomposition) plus the layer probes.
TRACE_FACTOR = 2.5
TIMEOUT_FACTOR = 3.0
TIMEOUT_CAP_S = 170.0
# paper16's split of recover_s: the capture, and the median re-attack.
PHASES = ("capture_s", "reattack_s")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def cmake_cache(build_dir):
    cache = {}
    path = build_dir / "CMakeCache.txt"
    if not path.exists():
        return cache
    for line in path.read_text(encoding="utf-8", errors="replace").splitlines():
        if line.startswith(("#", "//")) or "=" not in line or ":" not in line.split("=", 1)[0]:
            continue
        key, value = line.split("=", 1)
        cache[key.split(":", 1)[0]] = value
    return cache


def configure(build_dir):
    """Configures the benchmark package; False when CMake failed."""
    if not (build_dir / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(PACKAGE), "-B", str(build_dir)]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
    else:
        cmd = ["cmake", str(build_dir)]  # an existing tree keeps its settings
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def build(build_dir):
    """Builds bench_paper; returns its path, or None when the build failed."""
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", str(build_dir), "--target", "bench_paper", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    for candidate in (build_dir / "bench_paper", build_dir / "bench" / "paper" / "bench_paper"):
        if candidate.exists():
            return candidate
    return None


def build_refusal(cache):
    """Why this build must not be timed, or None."""
    if cache.get("CMAKE_BUILD_TYPE", "").lower() == "debug":
        return "Debug build"
    flags = " ".join(v for k, v in cache.items() if k.startswith("CMAKE_") and "FLAGS" in k)
    if cache.get("FD_SANITIZE") or "-fsanitize" in flags:
        return "sanitizer build"
    return None


def host_info(cache, kernel):
    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "cpa_kernel": kernel,
        "FD_CPA_KERNEL": os.environ.get("FD_CPA_KERNEL", ""),
        "build_type": cache.get("CMAKE_BUILD_TYPE") or "RelWithDebInfo",
        "FD_OBS": cache.get("FD_OBS", "ON"),
        "FD_SANITIZE": cache.get("FD_SANITIZE", ""),
    }


def pinned_cpus(count):
    allowed = sorted(os.sched_getaffinity(0))
    return allowed[-count:]


def stop_group(proc):
    """SIGKILLs the run's process group (bench_paper and any fleet worker),
    reaps bench_paper and waits, up to 10 s, until the group is gone: the
    workers, orphaned, are reaped by init."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        return
    proc.wait()
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_once(binary, workload, seed, seconds, trace_dir, work_root):
    """One bench_paper process; returns its sample object, or an error
    string when it timed out, crashed or printed no result."""
    spec = WORKLOADS[workload]
    op_s = spec["op_s"] * TRACE_FACTOR if trace_dir else seconds + spec["op_s"]
    expected = spec["setup_s"] + op_s
    timeout = min(TIMEOUT_FACTOR * expected, TIMEOUT_CAP_S)
    work_root.mkdir(parents=True, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{workload}-", dir=work_root)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--work-dir", work_dir]
    if trace_dir:
        cmd += ["--trace", str(trace_dir)]
    cpus = pinned_cpus(spec["cpus"])
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True,
                            preexec_fn=lambda: os.sched_setaffinity(0, cpus))
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        out = None
    finally:
        stop_group(proc)  # no worker may outlive the run
        shutil.rmtree(work_dir, ignore_errors=True)
    if out is None:
        return f"timed out after {timeout:.0f} s"
    lines = out.strip().splitlines()
    try:
        samples = json.loads(lines[-1])
    except (IndexError, ValueError):
        return f"bench_paper exited {proc.returncode} without a result"
    if proc.returncode not in (0, 1):
        return f"bench_paper exited {proc.returncode}"
    return samples


def run_metrics(samples, names, traced):
    """The run's value of each named metric that it measured."""
    if traced:
        layers = samples["layers"]
        return {n: layers[n] for n in names if n in layers}
    values = {}
    for name in names:
        v = samples.get(name)
        if isinstance(v, list):
            if v:
                values[name] = statistics.median(v)
        elif isinstance(v, (int, float)) and v > 0:
            values[name] = v
    return values


def one_run(binary, args, spec, workload, seed, cache):
    """Runs and checks one workload; returns (result object, host info,
    phase medians)."""
    traced = bool(args.trace)
    metric_spec = spec["per_layer"] if traced else spec["end_to_end"]
    names = [m["name"] for m in metric_spec]
    trace_dir = args.out_dir / f"{workload}-seed{seed}" if traced else None
    samples = run_once(binary, workload, seed, args.seconds, trace_dir,
                       args.build_dir / "tmp")
    if isinstance(samples, str):
        log(f"{workload} seed {seed}: {samples}")
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}, None, {}
    for err in samples["errors"]:
        log(f"{workload} seed {seed}: {err}")
    values = run_metrics(samples, names, traced)
    missing = [n for n in names if n not in values]
    for n in missing:
        log(f"{workload} seed {seed}: no value for {n}")
    units = {m["name"]: m["unit"] for m in metric_spec}
    result = {
        "correct": not samples["errors"] and not missing,
        "attempted": samples["attempted"],
        "failed": samples["failed"],
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in values.items()},
    }
    if traced:
        log(f"{workload} seed {seed}: spans and layers in {trace_dir}")
    phases = {p: statistics.median(samples[p]) for p in PHASES if samples.get(p)}
    return result, host_info(cache, samples["kernel"]), phases


def tail_percentile(n):
    """Highest whole percentile with at least ten samples beyond it."""
    if n < 20:
        return None
    return int(100 * (1 - 10 / n))


def summarize(workload, runs, units):
    """Prints each metric over the passing runs; a run failing any check
    counts in fail_rate instead. `runs` holds (result, phases) pairs."""
    print(f"== {workload} ==")
    passing = [{**{n: m["value"] for n, m in r["metrics"].items()}, **phases}
               for r, phases in runs if r["correct"]]
    for name, unit in units.items():
        vals = [p[name] for p in passing if name in p]
        if not vals:
            continue
        q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [vals[0]] * 3
        tail = tail_percentile(len(vals))
        tail_txt = ""
        if tail is not None:
            tail_txt = f"  p{tail} {statistics.quantiles(vals, n=100)[tail - 1]:.6g}"
        print(f"  {name:<32} median {statistics.median(vals):.6g} {unit}"
              f"  p25 {q[0]:.6g}  p75 {q[2]:.6g}  n {len(vals)}{tail_txt}")
    failed = len(runs) - len(passing)
    print(f"  {'fail_rate':<32} {failed}/{len(runs)} runs")
    return failed == 0


def main():
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1, help="runs per workload (full set)")
    parser.add_argument("--build-dir", type=Path, default=ROOT / ".bench_build" / "paper")
    parser.add_argument("--out-dir", type=Path, help="trace output (default: BUILD_DIR/out)")
    args = parser.parse_args()
    args.build_dir = args.build_dir.resolve()
    args.out_dir = (args.out_dir or args.build_dir / "out").resolve()

    if not configure(args.build_dir):
        log("run.py: benchmark configure failed")
        return 2
    cache = cmake_cache(args.build_dir)
    refusal = build_refusal(cache)
    if refusal:
        log(f"run.py: refusing to time a {refusal}")
        return 2
    binary = build(args.build_dir)
    if binary is None:
        log("run.py: benchmark build failed")
        return 2

    metric_spec = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in metric_spec}
    units.update({p: "s" for p in PHASES})
    if args.workload:
        result, host, phases = one_run(binary, args, spec, args.workload, args.seed, cache)
        if host:
            print("host " + json.dumps(host, sort_keys=True))
        for name, m in result["metrics"].items():
            print(f"{args.workload} {name} {m['value']:.6g} {m['unit']}")
        for name, v in phases.items():
            print(f"{args.workload} {name} {v:.6g} s")
        print(json.dumps(result))
        return 0 if result["correct"] else 1

    ok = True
    records = args.out_dir / "results.jsonl"
    records.parent.mkdir(parents=True, exist_ok=True)
    with open(records, "a", encoding="utf-8") as rec:
        for workload in WORKLOADS:
            runs = []
            for r in range(args.repeat):
                seed = args.seed + r
                result, host, phases = one_run(binary, args, spec, workload, seed, cache)
                runs.append((result, phases))
                rec.write(json.dumps({"workload": workload, "seed": seed, "trace": args.trace,
                                      "host": host, "phases": phases, **result}) + "\n")
            ok = summarize(workload, runs, units) and ok
    print(f"results appended to {records}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
