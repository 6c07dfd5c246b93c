"""d-SDNNF variable masks are as wide as the variables a circuit or vtree
holds, not as wide as their largest name: a short proof naming a huge
variable costs time and memory bounded by its length.  The payload
writer leaves the vtree line to the file writer."""

import tracemalloc

from kcproof.cnf import cnf
from kcproof.dsdnnf import (Circuit, circuit_to_lines, circuit_to_text,
                            dsdnnf_count, parse_circuit)
from kcproof.proofs import check_proof, diagram_payload, parse_proof
from kcproof.structure import right_linear_vtree

PHI_CONTRA = cnf(1, [(1,), (-1,)])


def contra_proof(far):
    """The three-line d-SDNNF refutation of (x1) and (not x1) on a vtree
    with a second leaf named far."""
    return ("p kcp dsdnnf join\n"
            "s 1 vtree (x1 x%d)\n"
            "d 1 1 g 0 LIT 1;root 0\n"
            "d 2 1 g 0 LIT -1;root 0\n"
            "d 3 1 g 0 FALSE;root 0\n"
            "L 1 init 0 1\nL 2 init 1 2\nL 3 join 1 2 3\n" % far)


def test_a_far_leaf_is_checked_within_a_small_peak():
    text = contra_proof(100000000)
    tracemalloc.start()
    try:
        verdict = check_proof(PHI_CONTRA, parse_proof(text))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert verdict.accepted, verdict.reason
    # a mask with bit 10**8 alone would take 12.5 MB
    assert peak < 2 * 1024 * 1024


def test_a_far_leaf_proof_checks_like_a_near_one():
    for far in (2, 1000000000):
        assert check_proof(PHI_CONTRA, parse_proof(contra_proof(far))).accepted


def test_counts_over_far_variables():
    c = parse_circuit("g 0 LIT 1\ng 1 LIT -1000000000\ng 2 AND 0 1\n"
                      "g 3 LIT 7\ng 4 LIT -7\ng 5 OR 3 4\ng 6 AND 2 5\n"
                      "root 6\n")
    assert dsdnnf_count(c, {1, 7, 1000000000}) == 2
    assert dsdnnf_count(c, (1, 7, 7, 1000000000, 5)) == 4


def test_the_payload_writer_writes_no_vtree_line():
    d = Circuit(right_linear_vtree((1, 2)))
    d.root = d.mk_and(d.mk_lit(1), d.mk_lit(-2))
    assert circuit_to_lines(d) == ["g 0 LIT 1", "g 1 LIT -2",
                                   "g 2 AND 0 1", "root 2"]
    assert diagram_payload(d) == "g 0 LIT 1;g 1 LIT -2;g 2 AND 0 1;root 2"
    assert circuit_to_text(d) == ("vtree (x1 x2)\ng 0 LIT 1\ng 1 LIT -2\n"
                                  "g 2 AND 0 1\nroot 2\n")
