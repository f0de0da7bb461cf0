"""Run the benchmark over several seeds and summarize each end-to-end
metric as median and quartiles, optionally appending the summary to
``trajectory.json`` as a new point.

    python3 perfbench/summarize.py --label seed --seeds 1-10 [--append]

Runs execute one at a time, from the repository root, with
``run_seconds`` from BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(bench: dict, workload: str, seed: int) -> dict:
    proc = subprocess.run(
        bench["command"] + ["--workload", workload, "--seed", str(seed),
                            "--seconds", str(bench["run_seconds"]), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    lines = proc.stdout.splitlines()
    return {"result": json.loads(lines[-1]), "env": json.loads(lines[-3][len("# env "):])}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", nargs="*")
    ap.add_argument("--append", action="store_true")
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    point = {"label": args.label, "seeds": args.seeds, "workloads": {}}
    for name in names:
        runs = []
        for seed in _seeds(args.seeds):
            runs.append(_run(bench, name, seed))
            print(name, seed, json.dumps(runs[-1]["result"]), flush=True)
        point["env"] = runs[-1]["env"]
        summary = {
            "attempted": sum(r["result"]["attempted"] for r in runs),
            "failed": sum(r["result"]["failed"] for r in runs),
        }
        for m in bench["end_to_end"]:
            values = [r["result"]["metrics"][m["name"]]["value"] for r in runs]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            summary[m["name"]] = {"median": statistics.median(values), "q1": q1, "q3": q3,
                                  "spread": (q3 - q1) / statistics.median(values), "unit": m["unit"]}
        point["workloads"][name] = summary
    print(json.dumps(point, indent=2))
    if args.append:
        path = HERE / "trajectory.json"
        points = json.loads(path.read_text()) if path.exists() else []
        points.append(point)
        path.write_text(json.dumps(points, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
