#!/usr/bin/env python3
"""Benchmark regression gate.

Runs the fast bench_* executables with --json, merges their JSONL
measurements, and compares wall times against the committed baseline
(BENCH_10.json at the repo root):

    tools/fd_bench.py                  # compare against the baseline
    tools/fd_bench.py --update         # rewrite the baseline in place
    tools/fd_bench.py --build-dir b2   # non-default build tree

Exit status is nonzero when any metric regresses by more than
--threshold (default 20%) over the baseline. Noise control: every bench
runs --repeat times (default 3) and the minimum wall time per metric is
used; metrics faster than --floor-ms (default 1 ms) are reported but
never fail the gate, since at that scale scheduler jitter exceeds the
threshold. New metrics (absent from the baseline) and metrics the
current build no longer emits are reported as informational only --
update the baseline to adopt them.

Stdlib only; no third-party packages.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

# (executable, positional args) -- sized so the whole suite stays in
# single-digit seconds; the baseline pins these exact shapes.
BENCHES = [
    ("bench_cpa_kernel", ["4000"]),
    ("bench_tracestore", ["4"]),
    # Distinguisher backend matrix: profiling cost + the budget sweep
    # across cpa/template/lr (also emits the mtd rows fd-report renders).
    ("bench_template_attack", []),
    # Parallel surfaces incl. the process fleet over pipes and TCP
    # loopback (small shape: logn 3, 160 traces keeps the suite fast).
    ("bench_parallel_scaling", ["3", "160"]),
    # NTRUSolve and keygen at FALCON-256 (the forge and set-up layer).
    ("bench_ntru_solve", ["8"]),
]


def run_bench(build_dir, name, args, repeat):
    """Return {metric_key: {"wall_ms": min_ms, "params": str}}."""
    exe = os.path.join(build_dir, "bench", name)
    if not os.path.exists(exe):
        sys.exit(f"fd_bench: missing {exe} (build the tree first)")
    merged = {}
    for _ in range(repeat):
        with tempfile.NamedTemporaryFile(suffix=".jsonl", delete=False) as tmp:
            json_path = tmp.name
        try:
            proc = subprocess.run(
                [exe, *args, "--json", json_path],
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
                text=True,
            )
            if proc.returncode != 0:
                sys.exit(f"fd_bench: {name} failed:\n{proc.stderr}")
            with open(json_path, encoding="utf-8") as f:
                for line in f:
                    line = line.strip()
                    if not line:
                        continue
                    row = json.loads(line)
                    if row.get("ev") != "bench":
                        continue
                    key = f'{row["bench"]}.{row["name"]}'
                    wall = float(row["wall_ms"])
                    prev = merged.get(key)
                    if prev is None or wall < prev["wall_ms"]:
                        merged[key] = {"wall_ms": wall, "params": row.get("params", "")}
        finally:
            os.unlink(json_path)
    return merged


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build-dir", default="build")
    parser.add_argument("--baseline", default=None, help="default: <repo>/BENCH_10.json")
    parser.add_argument("--update", action="store_true", help="rewrite the baseline")
    parser.add_argument("--threshold", type=float, default=0.20)
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--floor-ms", type=float, default=1.0)
    opts = parser.parse_args()

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    baseline_path = opts.baseline or os.path.join(repo, "BENCH_10.json")
    build_dir = (
        opts.build_dir
        if os.path.isabs(opts.build_dir)
        else os.path.join(repo, opts.build_dir)
    )

    current = {}
    for name, args in BENCHES:
        current.update(run_bench(build_dir, name, args, opts.repeat))
    if not current:
        sys.exit("fd_bench: no measurements collected")

    if opts.update:
        doc = {
            "schema": 1,
            "threshold": opts.threshold,
            "benches": {k: current[k] for k in sorted(current)},
        }
        with open(baseline_path, "w", encoding="utf-8") as f:
            json.dump(doc, f, indent=2)
            f.write("\n")
        print(f"fd_bench: wrote {len(current)} baselines to {baseline_path}")
        return 0

    if not os.path.exists(baseline_path):
        sys.exit(f"fd_bench: no baseline at {baseline_path}; run with --update first")
    with open(baseline_path, encoding="utf-8") as f:
        baseline = json.load(f)["benches"]

    regressions = []
    width = max(len(k) for k in sorted(set(current) | set(baseline)))
    print(f'{"metric":<{width}} {"base_ms":>10} {"now_ms":>10} {"delta":>8}')
    for key in sorted(set(current) | set(baseline)):
        now = current.get(key)
        base = baseline.get(key)
        if base is None:
            print(f'{key:<{width}} {"-":>10} {now["wall_ms"]:>10.3f}      new')
            continue
        if now is None:
            print(f'{key:<{width}} {base["wall_ms"]:>10.3f} {"-":>10}     gone')
            continue
        ratio = now["wall_ms"] / base["wall_ms"] if base["wall_ms"] > 0 else 1.0
        mark = ""
        if ratio > 1.0 + opts.threshold:
            if base["wall_ms"] >= opts.floor_ms:
                mark = "  REGRESSED"
                regressions.append(key)
            else:
                mark = "  (noisy, under floor)"
        print(
            f'{key:<{width}} {base["wall_ms"]:>10.3f} {now["wall_ms"]:>10.3f} '
            f"{100.0 * (ratio - 1.0):>+7.1f}%{mark}"
        )

    if regressions:
        print(
            f"\nfd_bench: {len(regressions)} metric(s) regressed more than "
            f"{opts.threshold:.0%}: {', '.join(regressions)}"
        )
        return 1
    print("\nfd_bench: no regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
