"""The repository benchmark: one workload, one seed, one JSON line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload analogs --seed 1 --seconds 16 \\
        --trace 0

Workloads: ``analogs``, ``unit-weight``, ``stream`` and ``jobs``
(``perfbench/workloads.py``; why each exists is in ``BENCHMARK.json``
and ``perfbench/design.json``).  With ``--trace 0`` the last line of
standard output carries the end-to-end metrics of ``BENCHMARK.json``;
with ``--trace 1`` its per-layer metrics.  The line before it is a
diagnostics document: raw (unnormalised) seconds beside each
normalised one, the probe reference, sample counts, p90/p50 and the
reason for every failed op.

Process hygiene: each measurement runs in a fresh interpreter with one
client thread, BLAS/OpenMP pinned to one thread, every ``REPRO_*``
variable unset (so defaults are measured) and a fresh work directory
under ``.perfbench/`` in the checkout, removed at exit.  ``setup_s`` is
the median of ``SETUP_RUNS`` fresh processes.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 3
#: The whole command must end within this many seconds.
TOTAL_BUDGET_S = 170.0
#: A run holds at least this many ops, so ten lie beyond p90.
MIN_OPS = 100
WORKLOADS = ("analogs", "unit-weight", "stream", "jobs")
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS")


def child_env(workdir: Path) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env.update({k: "1" for k in _THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    # Keep git (run by the program's provenance manifest) from looking
    # for a repository above the checkout.
    env["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
    env["TMPDIR"] = str(workdir)
    env["XDG_CACHE_HOME"] = str(workdir / "cache")
    env["REPRO_GRAPH_CACHE"] = str(workdir / "graph-cache")
    return env


def run_child(args: list[str], env: dict[str, str], deadline: float
              ) -> dict:
    """Run one workload process to completion; its last stdout line
    is its JSON result."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError("time budget exhausted")
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), *args], cwd=ROOT,
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"workload process timed out: {args}")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"workload process failed "
                           f"(exit {proc.returncode}):\n{err[-4000:]}")
    return json.loads(lines[-1])


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="repository benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + TOTAL_BUDGET_S

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}; "
              "run from a full checkout", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    design = json.loads((HERE / "design.json").read_text())
    seed = design["default_seed"] if args.seed is None else args.seed
    seconds = bench["run_seconds"] if args.seconds is None \
        else args.seconds
    spec = bench["per_layer"] if args.trace else bench["end_to_end"]

    (ROOT / ".perfbench").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-",
                                    dir=ROOT / ".perfbench"))
    try:
        env = child_env(workdir)
        common = ["--workload", args.workload, "--seed", str(seed),
                  "--nominal", repr(design["probe_nominal_s"])]
        main_args = [*common, "--seconds", repr(seconds),
                     "--trace", str(args.trace), "--role", "main",
                     "--workdir", str(workdir / "main"),
                     "--min-ops", str(MIN_OPS)]
        if args.trace:
            main_args += ["--spans-out", str(
                ROOT / ".perfbench" / "spans"
                / f"{args.workload}-seed{seed}.jsonl")]
        doc = run_child(main_args, env, deadline)
        setups = [doc]
        if not args.trace:
            for k in range(1, SETUP_RUNS):
                setups.append(run_child(
                    [*common, "--seconds", "0", "--role", "setup",
                     "--workdir", str(workdir / f"setup{k}")],
                    env, deadline))
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    norm, raw = doc["normalised"], doc["raw"]
    if args.trace:
        values = doc["layers"]
    else:
        values = {
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "modeled_s": doc["modeled_s"],
            "peak_rss_mb": doc["peak_rss_mb"],
            **norm,
        }
    missing = [m["name"] for m in spec if m["name"] not in values]
    if missing:
        print(f"perfbench: metrics not produced: {missing}",
              file=sys.stderr)
        return 1
    n = doc["samples"]
    diagnostics = {
        "workload": args.workload, "seed": seed, "seconds": seconds,
        "trace": args.trace, "samples": n,
        "beyond_p90": n - -(-9 * n // 10),
        "p90_over_p50": norm["latency_p90_s"] / norm["latency_p50_s"],
        "failed_frac": doc["failed"] / doc["attempted"],
        "probe_ref_s": doc["probe_ref_s"],
        "probe_nominal_s": design["probe_nominal_s"],
        "raw": {**raw,
                "setup_s": statistics.median(s["setup_raw_s"]
                                             for s in setups)},
        "setup_runs_s": [s["setup_s"] for s in setups],
        "failures": doc["reasons"],
    }
    print(json.dumps({"diagnostics": diagnostics}))
    print(json.dumps({
        "correct": doc["failed"] == 0,
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]],
                                "unit": m["unit"]} for m in spec},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
