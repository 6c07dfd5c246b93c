"""Peak memory of two checks that free what no later line reads.

check_proof forgets each parsed diagram after its last use and sweeps
its OBDD and SDD stores as they grow, so a check holds about the
diagrams live at once rather than every node it ever parsed.  Measured
with `tracemalloc` (Python 3.11): checking `obdd_refute_eq(64, 3)` peaked
at 8.56 MB when the store kept every node and at 1.67 MB with sweeps;
checking the treewidth refutation of the z lifting of the 2x2 vertex
cover grid peaked at 15.95 MB and at 3.46 MB.
"""

import tracemalloc

from kcproof.proofs import check_proof
from kcproof.refute import obdd_refute_eq, treewidth_refute
from kcproof.zoo import eq_formula, grid_family, lift_Z, vc_formula

EQ_PEAK_BUDGET_MB = 3.0
GRID_PEAK_BUDGET_MB = 6.0


def check_peak_mb(phi, proof):
    tracemalloc.start()
    try:
        verdict = check_proof(phi, proof)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert verdict.accepted, verdict.reason
    return peak / 2 ** 20


def test_eq_check_peak_stays_within_budget():
    proof = obdd_refute_eq(64, 3)
    phi = lift_Z(eq_formula(64, 3)).result
    assert check_peak_mb(phi, proof) <= EQ_PEAK_BUDGET_MB


def test_grid_check_peak_stays_within_budget():
    base = vc_formula(grid_family(2, 2))
    proof, _ = treewidth_refute(base)
    assert check_peak_mb(lift_Z(base).result, proof) <= GRID_PEAK_BUDGET_MB
