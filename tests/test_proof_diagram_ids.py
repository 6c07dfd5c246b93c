"""The parser keeps each payload once; Proof.add_diagram still interns.

parse_proof stores every diagram payload in Proof.diagrams alone, and
builds no (structure, payload) -> id table: only Proof.add_diagram reads
one, and it builds the table when the proof it extends was parsed.
"""

from kcproof.proofs import parse_proof, proof_to_text
from kcproof.refute import obdd_refute_eq


def test_a_parsed_proof_builds_no_payload_table():
    proof = parse_proof(proof_to_text(obdd_refute_eq(8, 1)))
    assert proof.diagrams
    assert proof._diagram_ids == {}


def test_extending_a_parsed_proof_interns_as_a_built_one_does():
    built = obdd_refute_eq(8, 1)
    proof = parse_proof(proof_to_text(built))
    for did, (sid, payload) in built.diagrams.items():
        assert proof.add_diagram(sid, payload) == did
    assert len(proof.diagrams) == len(built.diagrams)
    sid, payload = built.diagrams[1]
    new = proof.add_diagram(sid, payload + ";")
    assert new == len(built.diagrams) + 1
    assert proof.add_diagram(sid, payload + ";") == new


def test_of_equal_diagrams_in_a_file_the_last_id_is_kept():
    text = "\n".join((
        "p kcp obdd join",
        "s 1 order x1",
        "d 1 1 n 1 x1 F T;root 1",
        "d 2 1 n 1 x1 F T;root 1",
        "L 1 init 0 1",
    )) + "\n"
    proof = parse_proof(text)
    assert proof.add_diagram(1, "n 1 x1 F T;root 1") == 2
    assert proof.add_diagram(1, "root F") == 3
