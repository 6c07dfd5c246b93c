"""Hostile inputs that no other test reaches.

An SDD payload that names an undefined node, vtree text that is not a
vtree, a d-SDNNF and-gate whose children share a variable, blank and
comment statements inside a payload, and malformed DIMACS.  A proof
input must name the failing line and the exact reason; a DIMACS input
must raise `CnfError` with the exact message.
"""

import pytest

from kcproof.cnf import CnfError, cnf, parse_dimacs
from kcproof.proofs import ProofError, check_proof, parse_proof

CONTRA = cnf(1, [(1,), (-1,)])


def rejection(fmt, structure, payload, phi):
    text = "p kcp %s join\ns 1 %s\nd 1 1 %s\nL 1 init 0 1\n" \
        % (fmt, structure, payload)
    verdict = check_proof(phi, parse_proof(text))
    return verdict.accepted, verdict.failing_line, verdict.reason


def test_sdd_reference_to_an_undefined_node():
    assert rejection("sdd", "vtree (x1 x2)",
                     "a 1 L lit 1;s 2 - (1 9);root 2", cnf(2, [(1,)])) \
        == (False, 1, "malformed: reference to undefined node '9'")


def test_dsdnnf_and_gate_that_is_not_decomposable():
    assert rejection("dsdnnf", "vtree (x1 x2)",
                     "g 0 LIT 1;g 1 LIT 2;g 2 AND 0 1;g 3 AND 2 0;root 3",
                     cnf(2, [(1,)])) \
        == (False, 1, "malformed: and-gate 3 is not decomposable")


@pytest.mark.parametrize("vtree, message", [
    (")", "unexpected ')' in vtree text"),
    ("xq", "bad leaf token 'xq'"),
])
def test_bad_vtree_text(vtree, message):
    with pytest.raises(ProofError) as caught:
        parse_proof("p kcp sdd join\ns 1 vtree %s\n" % vtree)
    assert str(caught.value) == "bad structure payload: " + message


@pytest.mark.parametrize("fmt, structure, x1, not_x1, false", [
    ("obdd", "order x1", "n 2 1 F T;;root 2", "n 2 1 T F;root 2",
     "root F"),
    ("dsdnnf", "vtree x1", "g 0 LIT 1;;c a note;root 0", "g 0 LIT -1;root 0",
     "g 0 FALSE;root 0"),
])
def test_blank_and_comment_statements_are_skipped(fmt, structure, x1,
                                                  not_x1, false):
    text = ("p kcp %s join\ns 1 %s\nd 1 1 %s\nd 2 1 %s\nd 3 1 %s\n"
            "L 1 init 0 1\nL 2 init 1 2\nL 3 join 1 2 3\n"
            % (fmt, structure, x1, not_x1, false))
    verdict = check_proof(CONTRA, parse_proof(text))
    assert verdict.accepted, verdict.reason


@pytest.mark.parametrize("text, message", [
    ("p cnf x 2\n", "line 1: malformed header 'p cnf x 2'"),
    ("p cnf 2\n", "line 1: malformed header 'p cnf 2'"),
    ("p cnf -1 2\n", "line 1: negative counts in header"),
    ("p cnf 1 1\n1 y 0\n", "line 2: bad token 'y'"),
    ("c only\nc comments\n", "missing DIMACS header"),
])
def test_malformed_dimacs(text, message):
    with pytest.raises(CnfError) as caught:
        parse_dimacs(text)
    assert str(caught.value) == message
