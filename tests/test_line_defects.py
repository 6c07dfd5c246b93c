"""Proof lines with exactly one defect each, and the exact ProofError
message the parser gives for them.  The lines follow a header, two
structure statements and one diagram statement that are all well formed,
so the defect on the line is the only thing wrong with the file."""

import pytest

from kcproof.proofs import ProofError, parse_proof

HEAD = ("p kcp sdd join,reorder,move\n"
        "s 1 vtree (x1 x2)\n"
        "s 2 vtree (x2 x1)\n"
        "d 1 1 T\n"
        "L 1 init 0 1\n")

DEFECTS = [
    # line count: one field too few or too many
    ("L 2 init 0", "malformed proof line 'L 2 init 0'"),
    ("L 2 join 1 1", "malformed proof line 'L 2 join 1 1'"),
    ("L 2 join 1 1 1 1", "malformed proof line 'L 2 join 1 1 1 1'"),
    ("L 2 weaken 1", "malformed proof line 'L 2 weaken 1'"),
    ("L 2 move 1 1 - l 2", "malformed proof line 'L 2 move 1 1 - l 2'"),
    ("L 2 move 1 1 - l 2 1 1",
     "malformed proof line 'L 2 move 1 1 - l 2 1 1'"),
    ("L 2 reorder 1 2", "malformed proof line 'L 2 reorder 1 2'"),
    ("L 2 frobnicate 1 1", "malformed proof line 'L 2 frobnicate 1 1'"),
    ("L 2", "malformed proof line 'L 2'"),
    # one unreadable field
    ("L 2 init x 1", "bad clause index 'x'"),
    ("L 2 init 0 y", "bad diagram id 'y'"),
    ("L 2 join a 1 1", "bad line reference 'a'"),
    ("L 2 join 1 b 1", "bad line reference 'b'"),
    ("L 2 join 1 1 c", "bad diagram id 'c'"),
    ("L 2 weaken r 1", "bad line reference 'r'"),
    ("L 2 move q 1 - l 2 1", "bad line reference 'q'"),
    ("L 2 move 1 v - l 2 1", "bad variable 'v'"),
    ("L 2 move 1 1 LX l 2 1", "bad move path: bad path 'LX'"),
    ("L 2 move 1 1 - u 2 1", "bad move direction 'u'"),
    ("L 2 move 1 1 - l s 1", "bad structure id 's'"),
    ("L 2 move 1 1 - l 2 d", "bad diagram id 'd'"),
    ("L 2 reorder z 2 1", "bad line reference 'z'"),
    ("L 2 reorder 1 s 1", "bad structure id 's'"),
    ("L 2 reorder 1 2 d", "bad diagram id 'd'"),
    ("L 2 reorder 1 2 1 cert 1 e", "bad diagram id 'e'"),
    # the cert tail of a reorder line
    ("L 2 reorder 1 2 1 cert",
     "malformed reorder statement 'L 2 reorder 1 2 1 cert'"),
    ("L 2 reorder 1 2 1 kert 1",
     "malformed reorder statement 'L 2 reorder 1 2 1 kert 1'"),
    # the line number
    ("L x init 0 1", "bad line number 'x'"),
    ("L 3 init 0 1", "line number 3 out of sequence (expected 2)"),
]


@pytest.mark.parametrize("line, message", DEFECTS)
def test_one_defect_one_message(line, message):
    with pytest.raises(ProofError) as info:
        parse_proof(HEAD + line + "\n")
    assert str(info.value) == message


@pytest.mark.parametrize("line", [
    "L 2 init 0 1",
    "L 2 join 1 1 1",
    "L 2 move 1 1 - l 2 1",
    "L 2 move 1 2 LR r 1 1",
    "L 2 reorder 1 2 1",
    "L 2 reorder 1 2 1 cert 1 1",
])
def test_the_defect_free_lines_parse(line):
    proof = parse_proof(HEAD + line + "\n")
    assert len(proof.lines) == 2


def test_weaken_parses_once_the_header_allows_it():
    text = HEAD.replace("join,reorder,move", "join,weaken")
    text += "L 2 weaken 1 1\n"
    assert parse_proof(text).lines[1].refs == (1,)
