"""The benchmark's fixed workloads: one generated graph and one CLI call each.

Each workload puts most of its time into one layer that later changes are
expected to optimise and almost none into the others, so every such change has
one workload that shows its gain and one that must show no change.
"""

WORKLOADS = {
    "admm-sweep": {
        "why": "ADMM relaxation solves dominate (edge scans and capped-simplex prox); "
               "the k grid straddles the planted clique, covering integral and fractional regimes",
        "graph": {"name": "admm-sweep", "n": 3000, "m": 45000, "clique": 30},
        "argv": ["sweep", "--k-list", "20,30,40",
                 "--methods", "ladmm-project,ladmm-fw,greedy,tpm,rank1",
                 "--threads", "1", "--no-timing"],
        "ks": [20, 30, 40],
        # methods that must find the planted clique at k = its size
        "clique_methods": ["ladmm-fw"],
    },
    "spectral-sweep": {
        "why": "power iterations for the spectral pair dominate (top_two_singular per rank1 row "
               "and per sweep); no ADMM at all",
        "graph": {"name": "spectral-sweep", "n": 10000, "m": 100000, "clique": 50},
        "argv": ["sweep", "--k-min", "10", "--k-max", "200", "--k-step", "20",
                 "--methods", "greedy,tpm,rank1", "--threads", "1", "--no-timing"],
        "ks": list(range(10, 201, 20)),
        "clique_methods": ["greedy", "tpm", "rank1"],
    },
}
