"""Benchmark of the dks library: one seeded workload, end to end or traced.

    python3 perfbench/run.py --workload admm-sweep --seed 1 --seconds 50 --trace 0

Run from the root of a checkout. The workload's input graph is generated from
the seed once, in its own process, and kept under ``perfbench/_work`` under a
name that changes with the graph spec and the generator. This process then
runs the workload through ``dks.cli.main`` with BLAS pinned to one thread and
checks every output. With ``--trace 0`` it reports the end-to-end metrics,
with ``--trace 1`` the per-layer metrics of a traced call. Human-readable
lines come first, then one JSON line of run details (per-call times, output
fingerprint, environment); the last line is one JSON object with
``correct``, ``attempted``, ``failed`` (output rows) and ``metrics``.
"""

from __future__ import annotations

import os
import sys

# BLAS reads these when numpy is first imported, which happens below
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")
sys.path.insert(0, SRC)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402

from workloads import WORKLOADS  # noqa: E402


def input_path(name: str, seed: int) -> str:
    """Where a workload's generated input is kept; a changed spec or generator gets a new file."""
    digest = hashlib.sha256(json.dumps(WORKLOADS[name]["graph"], sort_keys=True).encode())
    with open(os.path.join(HERE, "gen.py"), "rb") as f:
        digest.update(f.read())
    return os.path.join(WORK, f"{name}-{seed}-{digest.hexdigest()[:16]}.txt")


def baseline_fingerprint(name: str, seed: int):
    """The output fingerprint ``baseline.json`` recorded for this seed, if any."""
    try:
        with open(os.path.join(HERE, "baseline.json")) as f:
            return json.load(f)["workloads"][name]["fingerprints"].get(str(seed))
    except (OSError, KeyError, ValueError):
        return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "dks", "cli.py")):
        print(f"error: no dks sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 1
    os.makedirs(WORK, exist_ok=True)
    graph = input_path(args.workload, args.seed)
    if not (os.path.isfile(graph) and os.path.isfile(graph + ".sizes.json")):
        try:
            subprocess.run([sys.executable, os.path.join(HERE, "gen.py"),
                            "--workload", args.workload, "--seed", str(args.seed),
                            "--out", graph], check=True, stdout=subprocess.DEVNULL)
        except subprocess.CalledProcessError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1

    import measure
    info, result = measure.run(args.workload, graph, args.seed, args.seconds, args.trace,
                               SRC, WORK)
    expected = baseline_fingerprint(args.workload, args.seed)
    info["baseline_match"] = None if expected is None else info["fingerprint"] == expected

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"calls {info['calls']}  rows {result['attempted']}  failed {result['failed']}  "
          f"fail_frac {info['fail_frac']}")
    moved = {None: "no baseline for this seed", True: "same as the baseline",
             False: "DIFFERS from the baseline"}[info["baseline_match"]]
    print(f"output sha256 {info['fingerprint']} ({moved})")
    print("call wall_s " + " ".join(f"{t:.4f}" for t in info["wall_s_each"]))
    if info["setup_s_each"]:
        print("load setup_s " + " ".join(f"{t:.4f}" for t in info["setup_s_each"]))
    if info["bound_ratio_mean"] is not None:
        print(f"bound_ratio_mean {info['bound_ratio_mean']!r}")
    for problem in info["problems"]:
        print(f"CHECK FAILED: {problem}")
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']!r} {metric['unit']}")
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
