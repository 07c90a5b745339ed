"""Seeded sparse graph generator for the benchmark workloads.

Erdős–Rényi edges are drawn by sampling random vertex pairs and deduplicating
their ``lo * n + hi`` keys, so memory stays linear in the edge count (the
library's own ``generate_planted`` enumerates all n^2 pairs, which is
gigabytes at n = 20000). A planted clique is optional. The same (spec, seed)
always gives the same bytes.

Run as a script to write one workload's input file:

    python3 perfbench/gen.py --workload admm-sweep --seed 1 --out graph.txt

It prints the input sizes as one JSON line.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import zlib

import numpy as np

from workloads import WORKLOADS


def er_keys(rng, n: int, m: int) -> np.ndarray:
    """``m`` distinct pair keys ``lo * n + hi`` (lo < hi), uniformly at random."""
    keys = np.empty(0, dtype=np.int64)
    while keys.size < m:
        draw = int(1.1 * (m - keys.size)) + 16
        u = rng.integers(0, n, draw, dtype=np.int64)
        v = rng.integers(0, n, draw, dtype=np.int64)
        keep = u != v
        lo, hi = np.minimum(u, v)[keep], np.maximum(u, v)[keep]
        keys = np.union1d(keys, lo * n + hi)
    return np.sort(rng.choice(keys, m, replace=False))


def clique_keys(rng, n: int, size: int) -> np.ndarray:
    """All pair keys of a clique on ``size`` random vertices."""
    members = np.sort(rng.choice(n, size, replace=False))
    i, j = np.triu_indices(size, 1)
    return members[i] * n + members[j]


def make_graph(spec: dict, seed: int):
    """The seeded generator and edge arrays ``(rng, u, v)`` for one spec.

    ``u < v`` holds for every pair, sorted by key. Orientation and line order
    are left to :func:`edge_list_text`, which keeps drawing from ``rng``.
    """
    rng = np.random.default_rng([seed, zlib.crc32(spec["name"].encode())])
    n = spec["n"]
    keys = er_keys(rng, n, spec["m"])
    if spec.get("clique"):
        keys = np.union1d(keys, clique_keys(rng, n, spec["clique"]))
    return rng, keys // n, keys % n


def edge_list_text(spec: dict, seed: int):
    """The input file's text and its sizes.

    Lines are shuffled and each pair gets a random orientation.
    """
    rng, u, v = make_graph(spec, seed)
    m = u.size
    flip = rng.random(m) < 0.5
    a, b = np.where(flip, v, u), np.where(flip, u, v)
    order = rng.permutation(m)
    lines = [f"{x} {y}" for x, y in zip(a[order].tolist(), b[order].tolist())]
    header = f"# perfbench {spec['name']} seed={seed} n={spec['n']} pairs={m}"
    text = header + "\n" + "\n".join(lines) + "\n"
    return text, {"n": spec["n"], "pairs": int(m), "lines": text.count("\n")}


def write_input(spec: dict, seed: int, path: str) -> dict:
    """Write the input file and its sizes to ``<path>.sizes.json``; returns the sizes.

    Both are written to temporary names first, so a reader never sees a
    partial file.
    """
    text, sizes = edge_list_text(spec, seed)
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp + ".json", "w") as f:
        json.dump(sizes, f)
    os.replace(tmp + ".json", path + ".sizes.json")
    with open(tmp, "w") as f:
        f.write(text)
    os.replace(tmp, path)
    return sizes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    sizes = write_input(WORKLOADS[args.workload]["graph"], args.seed, args.out)
    print(json.dumps(sizes))
    return 0


if __name__ == "__main__":
    sys.exit(main())
