"""Steadiness study: repeated runs of run.py, summarized per metric.

    python3 perfbench/study.py --first-seed 100

Runs every workload RUNS times, one after another, on seeds first-seed,
first-seed + 1, ..., each run as long as BENCHMARK.json's ``run_seconds``,
and prints for each end-to-end metric (normalized, and raw from run.py's
stderr) the median, the quartiles from ``statistics.quantiles(values, n=4)``
and their spread (q3 - q1) / median.  The full table is also written to
``perfbench_out/study-<first seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

RUNS = 10
SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]


def one_run(workload: str, seed: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", "0"],
        capture_output=True, text=True, check=True, cwd=HERE.parent,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    raw_line = next(l for l in proc.stderr.splitlines() if l.startswith("perfbench raw "))
    return result, json.loads(raw_line[len("perfbench raw "):])


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first-seed", type=int, default=100)
    args = parser.parse_args()
    table = {}
    for wl in workloads.WORKLOADS:
        norm: dict[str, list[float]] = {}
        raw: dict[str, list[float]] = {}
        failed = []
        for seed in range(args.first_seed, args.first_seed + RUNS):
            t0 = time.perf_counter()
            result, raw_figs = one_run(wl, seed)
            raw.setdefault("run_wall_s", []).append(time.perf_counter() - t0)
            failed.append((result["failed"], result["attempted"], result["correct"]))
            for name, m in result["metrics"].items():
                norm.setdefault(name, []).append(m["value"])
            for name in ("setup_s", "op_s_p50", "op_s_tail", "sim_ms_per_s", "probe_s_p50",
                         "setup_probe_s_p50"):
                raw.setdefault(name, []).append(raw_figs[name])
            print(f"{wl} seed {seed}: " + " ".join(
                f"{k}={v[-1]:.4g}" for k, v in norm.items()), flush=True)
        table[wl] = {"normalized": {k: summarize(v) for k, v in norm.items()},
                     "raw": {k: summarize(v) for k, v in raw.items()},
                     "runs": failed, "per_run": {"normalized": norm, "raw": raw}}
        for kind in ("normalized", "raw"):
            for name, s in table[wl][kind].items():
                print(f"{wl:14s} {kind:10s} {name:13s} median {s['median']:.5g} "
                      f"q1 {s['q1']:.5g} q3 {s['q3']:.5g} spread {s['spread']:.4f}")
    out = HERE.parent / "perfbench_out" / f"study-{args.first_seed}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(table, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
