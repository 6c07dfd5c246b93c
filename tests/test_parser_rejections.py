"""Parser rejections in the trusted base that no other test reaches.

Three ways an SDD payload's decision statement can be malformed, three
ways a d-SDNNF payload can be, each checked as a verdict at line 1 that
names the exact reason, and three ways the proof file itself can be,
each raised by `parse_proof`.
"""

import pytest

from kcproof.cnf import cnf
from kcproof.proofs import ProofError, check_proof, parse_proof

PHI = cnf(3, [(1, 2), (-1, 2)])


def verdict_of(fmt, payload):
    text = ("p kcp %s join\ns 1 vtree ((x1 x2) x3)\nd 1 1 %s\n"
            "L 1 init 0 1\n" % (fmt, payload))
    verdict = check_proof(PHI, parse_proof(text))
    return verdict.accepted, verdict.failing_line, verdict.reason


# on the vtree ((x1 x2) x3): x1 sits at LL, x2 at LR and x3 at R
@pytest.mark.parametrize("payload, message", [
    ("a 1 LL lit 1;s 1 L (1 1);root 1", "node label '1' reused"),
    ("s 1 L );root 1", "decision node with no elements in 's 1 L )'"),
    ("a 1 LL lit 1;a 2 LL lit -1;s 3 L (1 2);root 3",
     "sub of '3' not at the right child"),
])
def test_malformed_sdd_decision(payload, message):
    assert verdict_of("sdd", payload) == (False, 1, "malformed: " + message)


@pytest.mark.parametrize("payload, message", [
    ("g 0 LIT 1;root 9", "bad root line 'root 9'"),
    ("g 0 LIT 1;h 1;root 0", "unrecognized line 'h 1'"),
    ("g 0 TRUE 1;root 0", "bad constant line 'g 0 TRUE 1'"),
])
def test_malformed_dsdnnf_payload(payload, message):
    assert verdict_of("dsdnnf", payload) == (False, 1, "malformed: " + message)


HEADER = "p kcp sdd join,move\ns 1 vtree ((x1 x2) x3)\n"
INIT = "d 1 1 a 1 - true;root 1\nL 1 init 0 1\n"


@pytest.mark.parametrize("body, message", [
    ("d 1 1\nL 1 init 0 1\n", "malformed diagram statement 'd 1 1'"),
    ("d 1 1 a 1 - true;root 1\nd 1 1 a 2 - false;root 2\nL 1 init 0 1\n",
     "diagram id 1 reused"),
    (INIT + "L 2 move 1 1 - l 9 1\n", "line 2 names unknown structure 9"),
])
def test_malformed_proof_file(body, message):
    with pytest.raises(ProofError) as caught:
        parse_proof(HEADER + body)
    assert str(caught.value) == message
