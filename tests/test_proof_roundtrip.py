"""Writing and reading the proof format are inverse to each other.

Random proofs use every rule in every format, with random line
references, variables, move paths and directions, clause indices, and
the structure and diagram ids (certificate lists included) that the
parser demands exist.  Payloads are opaque to the format, so they are
random text; nothing here is checked, only written and read back."""

from hypothesis import given, settings
from hypothesis import strategies as st

from kcproof.proofs import (FORMATS, LINE_FIELDS, RULES, Proof, ProofLine,
                            ProofSystem, parse_proof, proof_to_text)
from kcproof.structure import vtree_leaf, vtree_node


@st.composite
def vtrees(draw, variables):
    if len(variables) == 1:
        return vtree_leaf(variables[0])
    split = draw(st.integers(1, len(variables) - 1))
    return vtree_node(draw(vtrees(variables[:split])),
                      draw(vtrees(variables[split:])))


@st.composite
def structures(draw, fmt):
    variables = draw(st.lists(st.integers(1, 40), min_size=1, max_size=6,
                              unique=True))
    return tuple(variables) if fmt == "obdd" else draw(vtrees(variables))


PAYLOADS = st.text(alphabet="gLITANDORrot 0123456789-;", min_size=1,
                   max_size=30).map(str.strip).filter(bool)
NUMBERS = st.integers(-3, 60)


@st.composite
def proofs(draw):
    fmt = draw(st.sampled_from(FORMATS))
    rules = draw(st.sets(st.sampled_from(RULES)))
    if fmt != "obdd" and {"reorder", "weaken"} <= rules:
        rules.discard("weaken")
    proof = Proof(ProofSystem(fmt, rules))
    sids = [proof.add_structure(draw(structures(fmt)))
            for _ in range(draw(st.integers(1, 3)))]
    dids = [proof.add_diagram(draw(st.sampled_from(sids)), draw(PAYLOADS))
            for _ in range(draw(st.integers(1, 4)))]
    sid, did = st.sampled_from(sids), st.sampled_from(dids)
    for _ in range(draw(st.integers(0, 8))):
        rule = draw(st.sampled_from(sorted(LINE_FIELDS)))
        if rule == "init":
            proof.add_init(draw(NUMBERS), draw(did))
        elif rule == "join":
            proof.add_join(draw(NUMBERS), draw(NUMBERS), draw(did))
        elif rule == "weaken":
            proof.add_weaken(draw(NUMBERS), draw(did))
        elif rule == "move":
            proof.add_move(draw(NUMBERS), draw(NUMBERS),
                           draw(st.text(alphabet="LR", max_size=5)),
                           draw(st.sampled_from("lr")), draw(sid), draw(did))
        else:
            proof.add_reorder(draw(NUMBERS), draw(sid), draw(did),
                              draw(st.lists(did, max_size=3)))
    return proof


@settings(max_examples=200, deadline=None)
@given(proofs())
def test_text_round_trip(proof):
    text = proof_to_text(proof)
    parsed = parse_proof(text)
    assert proof_to_text(parsed) == text
    assert parsed.system == proof.system
    assert parsed.structures == proof.structures
    assert parsed.diagrams == proof.diagrams
    assert parsed.lines == proof.lines


def test_a_line_of_each_rule():
    assert set(LINE_FIELDS) == {"init"} | set(RULES)
    proof = Proof(ProofSystem("obdd", RULES))
    sid = proof.add_structure((2, 1))
    did = proof.add_diagram(sid, "root T")
    proof.add_init(0, did)
    proof.add_join(1, 1, did)
    proof.add_weaken(2, did)
    proof.add_move(3, 2, "", "r", sid, did)
    proof.add_move(4, 2, "RL", "l", sid, did)
    proof.add_reorder(5, sid, did)
    proof.add_reorder(6, sid, did, (did, did))
    text = proof_to_text(proof)
    assert text.splitlines()[3:] == [
        "L 1 init 0 1",
        "L 2 join 1 1 1",
        "L 3 weaken 2 1",
        "L 4 move 3 2 - r 1 1",
        "L 5 move 4 2 RL l 1 1",
        "L 6 reorder 5 1 1",
        "L 7 reorder 6 1 1 cert 1 1",
    ]
    assert parse_proof(text).lines[6] == ProofLine(
        n=7, rule="reorder", diagram_id=1, refs=(6,), structure_id=1,
        cert_ids=(1, 1))
