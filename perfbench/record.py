"""Record a baseline: every workload over several seeds, plus one traced run each.

    python3 perfbench/record.py --seeds 1-10 --out perfbench/baseline.json

Each run is ``run.py`` in a fresh process, for ``run_seconds`` from
``BENCHMARK.json``. For each workload it runs once per seed untraced and once
traced (on the first seed), then writes per end-to-end metric the median, the
quartiles and their spread (interquartile range over median), the output
fingerprint of every seed, and the traced per-layer breakdown with each
layer's share of ``wall_s``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))


def run(workload, seed, seconds, trace):
    """One run; returns its result object and its details line."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        check=True, stdout=subprocess.PIPE, text=True)
    *_, info, result = proc.stdout.splitlines()
    return json.loads(result), json.loads(info)


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        seconds = json.load(f)["run_seconds"]

    record = {"seeds": args.seeds, "seconds": seconds, "workloads": {}}
    for name in WORKLOADS:
        values, prints, rows, failed = {}, {}, 0, 0
        for seed in args.seeds:
            result, info = run(name, seed, seconds, 0)
            prints[seed] = info["fingerprint"]
            rows, failed = rows + result["attempted"], failed + result["failed"]
            for metric, entry in result["metrics"].items():
                values.setdefault(metric, (entry["unit"], []))[1].append(entry["value"])
            print(name, seed, {m: v["value"] for m, v in result["metrics"].items()},
                  flush=True)
        traced, _ = run(name, args.seeds[0], seconds, 1)
        e2e = {}
        for metric, (unit, vals) in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            e2e[metric] = {"unit": unit, "median": statistics.median(vals), "q1": q1,
                           "q3": q3, "spread": (q3 - q1) / statistics.median(vals),
                           "values": vals}
        layers = {m: v["value"] for m, v in traced["metrics"].items()}
        record["workloads"][name] = {
            "why": WORKLOADS[name]["why"],
            "input": info["env"]["input"],
            "rows": rows,
            "fail_frac": failed / rows,
            "end_to_end": e2e,
            "fingerprints": prints,
            "traced_seed": args.seeds[0],
            "layer_share_of_wall_s": {m.split(".")[0]: v for m, v in layers.items()
                                      if m.endswith(".share")},
            "per_layer": layers,
        }
    record["env"] = {k: v for k, v in info["env"].items() if k not in ("seed", "input")}
    with open(args.out, "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    for name, entry in record["workloads"].items():
        for metric, stats in entry["end_to_end"].items():
            print(f"{name} {metric}: median {stats['median']:.6g} {stats['unit']}, "
                  f"spread {stats['spread']:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
