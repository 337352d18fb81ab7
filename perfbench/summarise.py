"""Run every workload over a range of seeds and summarise the figures.

    python3 perfbench/summarise.py [--out FILE]

Runs ``run.py`` once per workload and seed 1-10 with ``--trace 0``, then
once per workload with ``--trace 1`` on seed 1, one process at a time,
from the current directory (the root of a source checkout).  For each
end-to-end metric it reports the median, the quartiles and the spread
(interquartile distance over median) across seeds; per-layer figures come
from the traced runs.  With ``--out`` the summary is written as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEEDS = range(1, 11)
TRACE_SEED = 1


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """The run's result object and the description of its inputs."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.exit(f"{' '.join(cmd)} failed:\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    prefix = "# workload inputs: "
    inputs = next(json.loads(x[len(prefix):]) for x in lines if x.startswith(prefix))
    return json.loads(lines[-1]), inputs


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out")
    args = parser.parse_args()
    bench = json.loads(Path("BENCHMARK.json").read_text())
    summary = {"seeds": [SEEDS[0], SEEDS[-1]], "trace_seed": TRACE_SEED,
               "run_seconds": bench["run_seconds"], "workloads": {}}
    for wl in (w["name"] for w in bench["workloads"]):
        values: dict[str, list[float]] = {}
        for seed in SEEDS:
            result, inputs = run_once(wl, seed, bench["run_seconds"], 0)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(wl, seed, {k: round(v[-1], 4) for k, v in values.items()},
                  flush=True)
        traced, _ = run_once(wl, TRACE_SEED, bench["run_seconds"], 1)
        summary["workloads"][wl] = {
            "inputs": inputs,
            "end_to_end": {name: spread(v) for name, v in values.items()},
            "per_layer": {name: m["value"] for name, m in traced["metrics"].items()},
        }
        for name, v in values.items():
            s = summary["workloads"][wl]["end_to_end"][name]
            print(f"  {name:24s} median {s['median']:12.5g} spread {s['spread']:.3f}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")


if __name__ == "__main__":
    main()
