"""Benchmark workloads: fixed experiment configs generated from a seed.

The three workloads load different layers of dyadlab:

  dense      commutator-sweep (full SVD, p = q = 2) and compactness-profile
             (duality ascent, p < q): `normest` and `operators`
  canonical  weights-check, bloom-verify, bmo-compute: whole-family
             reductions on the canonical grid, mostly `DyadicCube` lists
  stopping   jn-verify, sparse-dominate: the same cube layers used cube
             by cube (`oscillation`, `sparse.cz_augment`)

Every config uses L = 1, mu = power(beta = 0.3), lambda = logsmooth
(amplitude 0.6, 3 modes) and the symbols `log` (log_abs) and `holder`
(abs_power 0.25).  The workload seed is the lambda logsmooth seed and
picks the two random symbols of sparse-dominate; the program sees only
the generated configs.
"""

from __future__ import annotations

# Seed at which the committed reference outputs were generated.
RECORDED_SEED = 0

HILBERT = {"variant": "hilbert"}
RIESZ_1 = {"variant": "riesz", "j": 1}

# workload -> [(experiment, d, m, p, q, kernel)], in the order one pass runs them.
WORKLOADS = {
    "dense": [
        ("commutator-sweep", 1, 10, 2.0, 2.0, HILBERT),
        ("commutator-sweep", 2, 5, 2.0, 2.0, RIESZ_1),
        ("compactness-profile", 1, 10, 2.0, 3.0, HILBERT),
    ],
    "canonical": [
        ("weights-check", 2, 8, 2.0, 2.0, None),
        ("bloom-verify", 2, 8, 2.0, 4.0, None),
        ("bmo-compute", 2, 9, 2.0, 4.0, None),
    ],
    "stopping": [
        ("jn-verify", 2, 7, 2.0, 2.0, None),
        ("sparse-dominate", 2, 7, 2.0, 2.0, None),
    ],
}

WHY = {
    "dense": "dense commutators and the norm solve: full SVD (p=q=2) and the matvec-bound "
             "duality ascent (p<q); normest and operators take about 95% of the time",
    "canonical": "whole-family reductions on the canonical grid, d=2 m=8-9: DyadicCube "
                 "lists, apq_characteristic and an 87k-row CSV write",
    "stopping": "the same cube layers cube by cube, d=2 m=7: 22k per-cube oscillation "
                "calls and CZ stopping-time families (sparse.cz_augment)",
}

SYMBOLS = [
    {"id": "log", "terms": [{"kind": "log_abs"}]},
    {"id": "holder", "terms": [{"kind": "abs_power", "exponent": 0.25}]},
]


def random_symbol_seeds(seed: int) -> list:
    return [1000 + 2 * seed, 1001 + 2 * seed]


def configs(workload: str, seed: int) -> list:
    """(name, config dict) pairs, in the order one pass runs them."""
    out = []
    for experiment, d, m, p, q, kernel in WORKLOADS[workload]:
        cfg = {
            "schema": 1,
            "experiment": experiment,
            "domain": {"d": d, "m": m, "L": 1.0},
            "exponents": {"p": p, "q": q},
            "weights": {
                "mu": {"kind": "power", "beta": 0.3},
                "lambda": {"kind": "logsmooth", "amplitude": 0.6, "modes": 3,
                           "seed": seed},
            },
            "symbols": [dict(s) for s in SYMBOLS],
        }
        if kernel is not None:
            cfg["kernel"] = dict(kernel)
        if experiment == "sparse-dominate":
            cfg["seeds"] = random_symbol_seeds(seed)
        out.append((f"{experiment}-d{d}", cfg))
    return out
