#!/usr/bin/env python3
"""Performance-ledger benchmark entry point.

    python3 perfledger/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the hifi library and the ledger runner from the checkout's
sources (Release, into $CARGO_TARGET_DIR or .bench_build), runs one
workload and prints every metric with its unit, the environment block,
and as the last line the JSON result
{"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics of BENCHMARK.json.  --trace 1
runs the workload twice with the same seed: untraced, then traced
(telemetry session on, benchmark spans written as a Chrome trace and
validated with hifi_trace_check), and reports the per-layer metrics
plus the tracing overhead between the two runs.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_BUDGET_S = 170  # every ledger run after the build, together

# Default workload seed.  Seed 20261017 is held out: it confirms a later
# claim on inputs not used while the change was written (README.md).
DEFAULT_SEED = 1

# Span-name prefixes each workload's trace must contain.
TRACE_PREFIXES = {
    "campaign_inram": "core.,fab.,scope.,image.,re.",
    "service_budget_faults": "service.,core.,fab.,scope.,image.,re.",
    "yield_mc": "circuit.,yield.",
}


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfledger"


def build(bdir):
    """Configure (once) and build the runner; build logs go to stderr."""
    if not (bdir / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(bdir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(bdir), "-j", "4",
                    "--target", "hifi_ledger", "hifi_trace_check"],
                   check=True, stdout=sys.stderr)


def source_identity():
    """Git commit when the checkout is a repository, and always a
    digest of the library sources (checkouts need not be repos)."""
    try:
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True,
                                timeout=10).stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        commit = "none"
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return commit, digest.hexdigest()[:16]


def run_ledger(bdir, args, trace, workdir, deadline, trace_out=None):
    cmd = [str(bdir / "hifi_ledger"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", "1" if trace else "0", "--workdir", str(workdir)]
    if trace_out:
        cmd += ["--trace-out", str(trace_out)]
    env = dict(os.environ, TMPDIR=str(workdir))
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"hifi_ledger printed no result (exit {proc.returncode})")
    return json.loads(lines[-1]), proc.returncode


def complete_metrics(result, expected, zero_fill):
    """Check the ledger's metrics against BENCHMARK.json.  With
    zero_fill, a layer the workload does not run reads 0."""
    metrics = result["metrics"]
    want = {m["name"]: m["unit"] for m in expected}
    extra = sorted(set(metrics) - set(want))
    missing = sorted(set(want) - set(metrics))
    if extra or (missing and not zero_fill):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: "
                           f"missing {missing}, extra {extra}")
    for name, unit in want.items():
        metrics.setdefault(name, {"value": 0.0, "unit": unit})
        if metrics[name]["unit"] != unit:
            raise RuntimeError(f"{name}: unit {metrics[name]['unit']} != {unit}")
    result["metrics"] = {name: metrics[name] for name in want}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        log(f"unknown workload {args.workload}")
        return 2

    bdir = build_dir()
    try:
        build(bdir)
    except (OSError, subprocess.CalledProcessError) as err:
        log(f"build failed: {err}")
        return 2
    commit, src_digest = source_identity()

    (bdir / "runs").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                    dir=bdir / "runs"))
    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        result, code = run_ledger(bdir, args, False, workdir, deadline)
        if args.trace:
            untraced = result
            trace_out = bdir / "traces" / f"{args.workload}.trace.json"
            trace_out.parent.mkdir(exist_ok=True)
            result, traced_code = run_ledger(bdir, args, True, workdir,
                                             deadline, trace_out)
            result["correct"] = result["correct"] and untraced["correct"]
            code = code or traced_code
            check = subprocess.run(
                [str(bdir / "hifi_trace_check"), str(trace_out),
                 "--require-prefixes", TRACE_PREFIXES[args.workload]],
                stdout=sys.stderr, timeout=60)
            if check.returncode != 0:
                log("trace check failed")
                result["correct"] = False
                code = code or 1
            base = untraced["window_runs_per_min"]
            result["metrics"]["trace.overhead_pct"] = {
                "value": 100.0 * (base / result["window_runs_per_min"] - 1.0),
                "unit": "%"}
            complete_metrics(result, spec["per_layer"], zero_fill=True)
            flagged = result["metrics"]["core.unattributed_flagged"]["value"]
            if flagged:
                log(f"WARNING: {flagged:.0f} pipeline run(s) with "
                    "core.unattributed_ms above 5% of their wall time")
        else:
            complete_metrics(result, spec["end_to_end"], zero_fill=False)
    except (OSError, RuntimeError, KeyError, ValueError,
            subprocess.SubprocessError) as err:
        log(f"benchmark failed: {err}")
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = dict(result["env"], git_commit=commit, src_digest=src_digest)
    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds:g}  trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    for name, m in result["metrics"].items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    for key in ("run_tail", "dim_err_mean_nm", "degraded_frac", "bitline_recall",
                "clean_reports_missing_bitlines", "peak_rss_scope"):
        if key in result:
            print(f"  ({key}: {json.dumps(result[key])})")
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": result["metrics"]}))
    return code


if __name__ == "__main__":
    sys.exit(main())
