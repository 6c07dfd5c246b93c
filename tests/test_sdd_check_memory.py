"""Peak memory of one SDD check, pinned against a budget.

Init lines and joins with an init premise are decided by restricting
the diagrams the proof already holds, so the check builds no clause
diagram and no product, and its memory grows with the proof's diagrams.
With the clause conjoined by apply, the `tracemalloc` peak of this check
was 2.14 MB; by conditioning it is 0.60 MB (Python 3.11).
"""

import tracemalloc

from kcproof.proofs import check_proof
from kcproof.refute import treewidth_refute
from kcproof.zoo import lift_Z, path, vc_formula

PEAK_BUDGET_MB = 1.2


def test_treewidth_check_peak_stays_within_budget():
    phi = vc_formula(path(8))
    proof, _ = treewidth_refute(phi)
    lifted = lift_Z(phi).result
    tracemalloc.start()
    try:
        verdict = check_proof(lifted, proof)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert verdict.accepted
    assert peak / 2 ** 20 <= PEAK_BUDGET_MB
