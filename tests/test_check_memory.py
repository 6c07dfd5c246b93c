"""Peak memory of one OBDD check, pinned against a budget.

The check's memory should grow with the diagrams in the proof, not with
the number of apply steps run: the store keeps whole-operation results
only, and no clause sets are built for a join-only proof.  With an apply
memo kept for the store's life, and a clause set per line, the
`tracemalloc` peak of this check was 16.0 MB; without them it is 8.5 MB
(Python 3.11).
"""

import tracemalloc

from kcproof.proofs import check_proof
from kcproof.refute import obdd_refute_eq
from kcproof.zoo import eq_formula, lift_Z

PEAK_BUDGET_MB = 12.0


def test_eq_check_peak_stays_within_budget():
    proof = obdd_refute_eq(64, 3)
    phi = lift_Z(eq_formula(64, 3)).result
    tracemalloc.start()
    try:
        verdict = check_proof(phi, proof)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert verdict.accepted
    assert peak / 2 ** 20 <= PEAK_BUDGET_MB
