"""Peak memory of checking a proof through twenty vtree moves.

Every move line gives the proof a new vtree, and the checker a new SDD
store.  check_proof forgets each store after the last line that reads
one of its structures, so a move chain's check holds about one store
rather than one per vtree.  The proof is the Tseitin fold of
test_move_check, built with Proof.add_move, move and rebind, read back
from its text.  Measured with `tracemalloc` (Python 3.11), its check
peaked at 6.37 MB while the checker kept every store to the end, and at
1.61 MB once it forgets them.
"""

import tracemalloc

from kcproof.proofs import check_proof, parse_proof, proof_to_text
from test_move_check import MOVES, tseitin_move_proof

PEAK_BUDGET_MB = 3.5


def test_move_chain_check_peak_stays_within_budget():
    phi, proof = tseitin_move_proof()
    proof = parse_proof(proof_to_text(proof))
    assert len(proof.structures) > MOVES // 2
    tracemalloc.start()
    try:
        verdict = check_proof(phi, proof)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert verdict.accepted, verdict.reason
    assert peak / 2 ** 20 <= PEAK_BUDGET_MB
