"""Run the benchmark on several seeds and report each metric's spread.

    python3 bench/spread.py --workload braid-audit --seeds 1-10 [--out FILE]

Each seed is one run of `run.py` in its own process, for the
`run_seconds` that BENCHMARK.json fixes.  For every metric
the report gives the median over the runs and the distance between the
first and third quartile as a share of the median; each job's median
latency per run, the unscaled metrics and the run's speed scale are
summarised the same way, so the file can serve as a recorded baseline.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summary(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / med if med else 0.0, "values": values}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", default="1-10", help="inclusive range such as 1-10")
    ap.add_argument("--out", help="write the summary as JSON to this file")
    args = ap.parse_args()
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = str(bench["run_seconds"])
    result = {"seconds": seconds, "workloads": {}}
    for name in args.workload:
        metrics: dict[str, list[float]] = {}
        jobs: dict[str, list[float]] = {}
        unscaled: dict[str, list[float]] = {}
        scale: list[float] = []
        failed = 0
        for seed in seeds(args.seeds):
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", seconds, "--trace", "0"],
                capture_output=True, text=True, check=True)
            lines = done.stdout.splitlines()
            for line in lines:
                if line.startswith("# job "):
                    jid, ms = line.split()[2:4]
                    jobs.setdefault(jid, []).append(float(ms))
                elif line.startswith("# workload"):
                    result["machine"] = line[2:]
                elif line.startswith("# times scaled by "):
                    words = line.replace(",", "").split()
                    scale.append(float(words[4]))
                    for i in range(words.index("unscaled:") + 1, len(words), 3):
                        unscaled.setdefault(words[i], []).append(float(words[i + 1]))
            last = json.loads(lines[-1])
            failed += last["failed"]
            for key, m in last["metrics"].items():
                metrics.setdefault(key, []).append(m["value"])
            print(f"{name} seed {seed}: " + " ".join(
                f"{k}={m['value']:.4g}" for k, m in last["metrics"].items()), flush=True)
        table = {k: summary(v) for k, v in metrics.items()}
        result["workloads"][name] = {
            "failed": failed, "metrics": table,
            "scale": summary(scale),
            "unscaled": {k: summary(v) for k, v in unscaled.items()},
            "job_ms": {j: summary(v) for j, v in sorted(jobs.items())}}
        for k, s in table.items():
            verdict = "ok" if s["iqr_share"] <= bounds[k] else "OVER"
            print(f"{name} {k}: median {s['median']:.4g} iqr/median {s['iqr_share']:.3f} "
                  f"bound {bounds[k]} {verdict}")
        for k, v in unscaled.items():
            s = summary(v)
            print(f"{name} unscaled {k}: median {s['median']:.4g} "
                  f"iqr/median {s['iqr_share']:.3f}")
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
