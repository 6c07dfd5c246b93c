"""Each format names one kind of structure: obdd proofs use variable
orders, sdd and dsdnnf proofs use vtrees.  Building a proof, producing
one, and reading one all refuse the other kind and unknown formats with
a package error; and a d-SDNNF payload may not bring a vtree of its own,
since its structure statement already fixes the vtree it is checked on."""

import pytest

from kcproof.cnf import cnf
from kcproof.proofs import (BACKENDS, Proof, ProofError, ProofSystem,
                            check_proof, parse_proof, proof_to_text)
from kcproof.refute import RefuteError, naive_conjoin_refute
from kcproof.structure import right_linear_vtree

CONTRA = cnf(1, [(1,), (-1,)])
ORDER = (1,)
VTREE = right_linear_vtree((1,))


@pytest.mark.parametrize("fmt, kind", [
    ("obdd", "order"), ("sdd", "vtree"), ("dsdnnf", "vtree")])
def test_each_backend_names_its_structure(fmt, kind):
    backend = BACKENDS[fmt]
    value = ORDER if kind == "order" else VTREE
    assert backend.structure_kind == kind
    assert isinstance(value, backend.structure_type)
    assert backend.parse_structure(backend.structure_text(value)) == value


class TestAddStructure:
    @pytest.mark.parametrize("fmt, value", [
        ("obdd", VTREE), ("sdd", ORDER), ("dsdnnf", ORDER),
        ("obdd", [1]), ("sdd", "x1")])
    def test_the_other_kind_is_refused(self, fmt, value):
        proof = Proof(ProofSystem(fmt, ("join",)))
        with pytest.raises(ProofError, match="%s proofs use" % fmt):
            proof.add_structure(value)
        assert proof.structures == {}

    @pytest.mark.parametrize("fmt, value", [
        ("obdd", ORDER), ("sdd", VTREE), ("dsdnnf", VTREE)])
    def test_the_own_kind_is_interned(self, fmt, value):
        proof = Proof(ProofSystem(fmt, ("join",)))
        assert proof.add_structure(value) == proof.add_structure(value) == 1

    def test_an_unknown_format(self):
        with pytest.raises(ProofError, match="unknown diagram format"):
            Proof(ProofSystem("bdd", ("join",)))


class TestNaiveConjoinRefute:
    @pytest.mark.parametrize("structure, fmt", [
        (VTREE, "obdd"), (ORDER, "sdd"), (ORDER, "dsdnnf"), ([1], None),
        ([1], "sdd")])
    def test_the_other_kind_is_refused(self, structure, fmt):
        with pytest.raises(RefuteError, match="proofs use"):
            naive_conjoin_refute(CONTRA, structure, fmt)

    @pytest.mark.parametrize("structure", [ORDER, VTREE])
    def test_an_unknown_format(self, structure):
        with pytest.raises(RefuteError, match="unknown diagram format 'bdd'"):
            naive_conjoin_refute(CONTRA, structure, "bdd")

    @pytest.mark.parametrize("structure, fmt, expected", [
        (ORDER, None, "obdd"), (VTREE, None, "sdd"), (VTREE, "dsdnnf",
                                                       "dsdnnf")])
    def test_the_format_follows_the_structure(self, structure, fmt, expected):
        proof = naive_conjoin_refute(CONTRA, structure, fmt)
        assert proof.system.format == expected
        assert check_proof(CONTRA, proof).accepted


class TestStructureStatements:
    @pytest.mark.parametrize("fmt, statement, message", [
        ("obdd", "s 1 vtree x1", "vtree structure in an obdd proof"),
        ("sdd", "s 1 order x1", "order structure in a sdd proof"),
        ("dsdnnf", "s 1 order x1", "order structure in a dsdnnf proof"),
        ("sdd", "s 1 tree x1", "malformed structure statement 's 1 tree x1'"),
        ("obdd", "s 1 order x1 y", "bad structure payload: bad order token"
                                   " 'y'"),
        ("sdd", "s 1 vtree (x1", "bad structure payload: unexpected end of"
                                 " vtree text"),
    ])
    def test_messages(self, fmt, statement, message):
        with pytest.raises(ProofError) as info:
            parse_proof("p kcp %s join\n%s\n" % (fmt, statement))
        assert str(info.value) == message

    @pytest.mark.parametrize("structure, fmt", [
        (ORDER, "obdd"), (VTREE, "sdd"), (VTREE, "dsdnnf")])
    def test_written_kind_reads_back(self, structure, fmt):
        text = proof_to_text(naive_conjoin_refute(CONTRA, structure, fmt))
        kind = BACKENDS[fmt].structure_kind
        assert text.splitlines()[1] == "s 1 %s x1" % kind
        assert proof_to_text(parse_proof(text)) == text


class TestEmbeddedVtree:
    """A payload's own `vtree` piece used to be parsed and then silently
    replaced by the structure statement's vtree."""

    def _with_own_vtree(self, piece):
        text = proof_to_text(naive_conjoin_refute(CONTRA, VTREE, "dsdnnf"))
        lines = []
        for line in text.splitlines():
            if line.startswith("d "):
                _, did, sid, payload = line.split(None, 3)
                line = "d %s %s %s;%s" % (did, sid, piece, payload)
            lines.append(line)
        return "\n".join(lines) + "\n"

    def test_the_honest_proof_is_accepted(self):
        text = proof_to_text(naive_conjoin_refute(CONTRA, VTREE, "dsdnnf"))
        assert "vtree" not in text.split("\n", 2)[2]
        assert check_proof(CONTRA, parse_proof(text)).accepted

    @pytest.mark.parametrize("piece", ["vtree (x2 (x1 x7))", "vtree x1"])
    def test_a_payload_with_its_own_vtree_is_malformed(self, piece):
        verdict = check_proof(CONTRA, parse_proof(self._with_own_vtree(piece)))
        assert not verdict.accepted
        assert verdict.failing_line == 1
        assert verdict.reason \
            == "malformed: payload carries a vtree of its own"
