"""Record a baseline: run every workload once per seed, then once traced,
and write the median and quartiles of each end-to-end metric and the
traced per-layer metrics to a JSON file.

    python3 perfbench/baseline.py --seeds 1-10 --label <commit> --out perfbench/baseline.json

Runs are sequential, each in its own process, with BENCHMARK.json's
``run_seconds``.  The spread of a metric is the distance between its
quartiles (``statistics.quantiles(values, n=4)``) as a share of its median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def bench(name: str, seed: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(BENCHMARK["run_seconds"]),
           "--trace", str(trace)]
    done = subprocess.run(cmd, capture_output=True, text=True, check=True)
    detail, result = done.stdout.strip().splitlines()[-2:]
    return json.loads(result), json.loads(detail)


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "values": values}


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--label", required=True, help="what was measured, e.g. a commit")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    record = {"label": args.label, "run_seconds": BENCHMARK["run_seconds"],
              "seeds": args.seeds, "workloads": {}}
    for w in BENCHMARK["workloads"]:
        runs = [bench(w["name"], s, 0) for s in args.seeds]
        traced, traced_detail = bench(w["name"], args.seeds[0], 1)
        attempted = sum(r["attempted"] for r, _ in runs)
        failed = sum(r["failed"] for r, _ in runs)
        record["workloads"][w["name"]] = {
            "why": w["why"],
            "env": runs[0][1]["env"],
            "correct": all(r["correct"] for r, _ in runs) and traced["correct"],
            "attempted": attempted, "failed": failed,
            "fail_ratio": failed / attempted,
            "errors": [d["errors"] for _, d in runs],
            "op_s_tail": [d["op_s_tail"] for _, d in runs],
            "end_to_end": {
                m["name"]: {"unit": m["unit"],
                            **summary([r["metrics"][m["name"]]["value"] for r, _ in runs])}
                for m in BENCHMARK["end_to_end"]},
            "per_layer": {"seed": args.seeds[0], "ops": traced_detail["ops"],
                          "report_mismatches": traced_detail["report_mismatches"],
                          "metrics": traced["metrics"]},
        }
        print(w["name"], {k: round(v["spread"], 4) for k, v in
                          record["workloads"][w["name"]]["end_to_end"].items()},
              file=sys.stderr)
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
