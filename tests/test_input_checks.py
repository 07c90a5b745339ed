"""Input checks of the library entry points, each called once with input it must refuse."""

import numpy as np
import pytest

from dks.baselines import top_two_singular, truncated_power_method
from dks.graph import Graph, incidence_norm_sq_upper, load_edge_list
from dks.oracles import brute_force_dks
from dks.prox import CappedSimplexParams, prox_capped_simplex, shrinkage
from dks.rounding import frank_wolfe_refine
from dks.solver import solve_lovasz_relaxation


def k4k2():
    return Graph.from_edges(6, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (4, 5)])


def edgeless():
    return Graph.from_edges(3, [])


def path(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


NAN_START = np.array([np.nan, 1.0, 1.0, 1.0, 0.0, 0.0])

CASES = [
    ("tpm-nan-x0", lambda: truncated_power_method(k4k2(), 4, NAN_START),
     ValueError, "x0 must be finite"),
    ("fw-nan-x0", lambda: frank_wolfe_refine(k4k2(), 4, NAN_START),
     ValueError, "x0 must be finite"),
    ("spectral-pair-edgeless", lambda: top_two_singular(edgeless()),
     ValueError, "graph has no edges"),
    ("lambda-hat-edgeless", lambda: incidence_norm_sq_upper(edgeless()),
     ValueError, "graph has no edges"),
    ("relaxation-edgeless", lambda: solve_lovasz_relaxation(edgeless(), 2),
     ValueError, "graph has no edges"),
    ("from-edges-weights-length", lambda: Graph.from_edges(3, [(0, 1)], weights=[1.0, 2.0]),
     ValueError, "weights length must match edge count"),
    ("from-edges-ids-length", lambda: Graph.from_edges(3, [(0, 1)], original_ids=[7, 8]),
     ValueError, "original_ids length must equal n"),
    ("load-int-source", lambda: load_edge_list(42),
     TypeError, "source must be a path"),
    ("brute-k-below-2", lambda: brute_force_dks(k4k2(), 1),
     ValueError, r"k must lie in \[2, 6\]"),
    ("brute-k-above-n", lambda: brute_force_dks(k4k2(), 7),
     ValueError, r"k must lie in \[2, 6\]"),
    # 4,498,500 subsets, under the subset limit, but 4.0e13 multiply-adds (about 21 minutes)
    ("brute-work-past-limit", lambda: brute_force_dks(path(3000), 2998),
     ValueError, r"C\(3000, 2998\) \* 3000\^2 = 40486500000000 multiply-adds exceeds"),
    ("params-degrees-matrix", lambda: CappedSimplexParams(np.ones((3, 3)), 2.0, np.ones(3)),
     ValueError, "degrees must be a vector"),
    ("params-degrees-scalar", lambda: CappedSimplexParams(5.0, 2.0, np.ones(1)),
     ValueError, "degrees must be a vector"),
    ("params-degrees-short", lambda: CappedSimplexParams(np.ones(2), 2.0, np.ones(2)),
     ValueError, "degrees must be a vector"),
    ("params-degrees-nan", lambda: CappedSimplexParams(np.array([1.0, np.nan, 1.0]), 2.0,
                                                          np.ones(3)),
     ValueError, "degrees must be finite"),
    ("prox-v-length", lambda: prox_capped_simplex(np.ones(3),
                                                  CappedSimplexParams(np.ones(4), 2.0, np.ones(4))),
     ValueError, "v must match the degree vector length"),
    ("shrinkage-length", lambda: shrinkage(np.ones(3), np.ones(4), 1.0),
     ValueError, "v and w must have the same length"),
]


@pytest.mark.parametrize("call, exc, match", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_refused(call, exc, match):
    with pytest.raises(exc, match=match):
        call()
