"""Tests for the diagram proof checker, resolution, and restriction.

The independent oracle throughout is truth-table brute force on the CNF
side: a checker verdict is compared against formula_mask /
brute_force_models, never against the machinery being tested.
"""

import pytest
from hypothesis import given, settings, strategies as st

from kcproof.cnf import (
    brute_force_models,
    cnf,
    formula_mask,
    restrict_cnf,
)
from kcproof.structure import (
    move,
    order_move_of_vtree_move,
    parse_vtree,
    right_linear_vtree,
    single_variable_move,
)
from kcproof.obdd import (
    ObddStore,
    obdd_apply,
    obdd_const,
    obdd_from_clause,
    obdd_move_var,
    obdd_negate,
    migrate,
)
from kcproof.sdd import SddStore, rebind, sdd_apply, sdd_from_clause
from kcproof.dsdnnf import Circuit, clause_circuit, dsdnnf_conjoin
from kcproof.proofs import (
    Proof,
    ProofError,
    ProofSystem,
    check_proof,
    diagram_payload,
    parse_proof,
    proof_to_text,
)
from kcproof.refute import restrict_proof, track_clause_sets
from kcproof.resolution import (
    ResolutionProof,
    check_resolution,
    parse_resolution,
    resolution_to_obddw,
    resolution_to_text,
)

PHI_UNSAT_2 = cnf(2, [(1, 2), (-1,), (-2,)])
PHI_CONTRA = cnf(1, [(1,), (-1,)])


def obdd_naive_proof(phi, order, rules=("join",)):
    """Init every clause, then left-fold joins over one order."""
    proof = Proof(ProofSystem("obdd", frozenset(rules)))
    sid = proof.add_structure(tuple(order))
    store = ObddStore(tuple(order))
    acc = None
    acc_line = None
    for index, clause in enumerate(phi.clauses):
        ref = obdd_from_clause(store, clause)
        n = proof.add_init(index, proof.add_diagram(sid, diagram_payload(ref)))
        if acc is None:
            acc, acc_line = ref, n
        else:
            acc = obdd_apply("and", acc, ref)
            acc_line = proof.add_join(
                acc_line, n, proof.add_diagram(sid, diagram_payload(acc)))
    return proof


def sdd_naive_proof(phi, tree):
    proof = Proof(ProofSystem("sdd", frozenset(("join",))))
    sid = proof.add_structure(tree)
    store = SddStore(tree)
    acc = None
    acc_line = None
    for index, clause in enumerate(phi.clauses):
        ref = sdd_from_clause(store, clause)
        n = proof.add_init(index, proof.add_diagram(sid, diagram_payload(ref)))
        if acc is None:
            acc, acc_line = ref, n
        else:
            acc = sdd_apply("and", acc, ref)
            acc_line = proof.add_join(
                acc_line, n, proof.add_diagram(sid, diagram_payload(acc)))
    return proof


def dsdnnf_naive_proof(phi, tree):
    proof = Proof(ProofSystem("dsdnnf", frozenset(("join",))))
    sid = proof.add_structure(tree)
    acc = None
    acc_line = None
    for index, clause in enumerate(phi.clauses):
        circuit = clause_circuit(clause, tree)
        n = proof.add_init(
            index, proof.add_diagram(sid, diagram_payload(circuit)))
        if acc is None:
            acc, acc_line = circuit, n
        else:
            acc = dsdnnf_conjoin(acc, circuit, tree)
            acc_line = proof.add_join(
                acc_line, n, proof.add_diagram(sid, diagram_payload(acc)))
    return proof


class TestProofSystem:
    def test_valid_systems(self):
        ProofSystem("obdd", frozenset(("join", "weaken", "reorder", "move")))
        ProofSystem("sdd", frozenset(("join", "reorder")))
        ProofSystem("dsdnnf", frozenset())

    def test_unknown_format_rejected(self):
        with pytest.raises(ProofError):
            ProofSystem("zdd", frozenset(("join",)))

    def test_unknown_rule_rejected(self):
        with pytest.raises(ProofError):
            ProofSystem("obdd", frozenset(("join", "resolve")))

    def test_reorder_with_weaken_only_for_obdd(self):
        with pytest.raises(ProofError):
            ProofSystem("sdd", frozenset(("join", "weaken", "reorder")))
        with pytest.raises(ProofError):
            ProofSystem("dsdnnf", frozenset(("join", "weaken", "reorder")))
        ProofSystem("obdd", frozenset(("join", "weaken", "reorder")))


class TestSerialization:
    def test_round_trip_text_is_stable(self):
        proof = obdd_naive_proof(PHI_UNSAT_2, (1, 2))
        text = proof_to_text(proof)
        again = proof_to_text(parse_proof(text))
        assert text == again

    def test_comments_and_blanks_are_skipped(self):
        proof = obdd_naive_proof(PHI_CONTRA, (1,))
        lines = proof_to_text(proof).splitlines()
        lines.insert(1, "c a remark")
        lines.insert(0, "")
        parsed = parse_proof("\n".join(lines))
        assert check_proof(PHI_CONTRA, parsed).accepted

    def test_missing_header_rejected(self):
        with pytest.raises(ProofError):
            parse_proof("s 1 order x1\n")

    def test_unknown_format_in_header_rejected(self):
        with pytest.raises(ProofError):
            parse_proof("p kcp zdd join\n")

    def test_vtree_structure_in_obdd_proof_rejected(self):
        with pytest.raises(ProofError):
            parse_proof("p kcp obdd join\ns 1 vtree (x1 x2)\n")

    def test_order_structure_in_sdd_proof_rejected(self):
        with pytest.raises(ProofError):
            parse_proof("p kcp sdd join\ns 1 order x1 x2\n")

    def test_duplicate_structure_id_rejected(self):
        with pytest.raises(ProofError):
            parse_proof("p kcp obdd join\ns 1 order x1\ns 1 order x2\n")

    def test_line_numbering_must_be_sequential(self):
        text = ("p kcp obdd join\ns 1 order x1\nd 1 1 root F\n"
                "L 2 init 0 1\n")
        with pytest.raises(ProofError):
            parse_proof(text)

    def test_line_with_unknown_diagram_rejected(self):
        text = "p kcp obdd join\ns 1 order x1\nL 1 init 0 7\n"
        with pytest.raises(ProofError):
            parse_proof(text)

    def test_reorder_cert_keyword_needs_ids(self):
        text = ("p kcp obdd join,weaken,reorder\ns 1 order x1\n"
                "d 1 1 root F\nL 1 reorder 1 1 1 cert\n")
        with pytest.raises(ProofError):
            parse_proof(text)

    def test_bad_move_direction_rejected(self):
        text = ("p kcp obdd join,move\ns 1 order x1 x2\nd 1 1 root F\n"
                "L 1 move 1 1 - up 1 1\n")
        with pytest.raises(ProofError):
            parse_proof(text)

    def test_empty_rule_list_round_trips(self):
        proof = Proof(ProofSystem("obdd", frozenset()))
        sid = proof.add_structure((1,))
        store = ObddStore((1,))
        phi = cnf(1, [()])
        did = proof.add_diagram(
            sid, diagram_payload(obdd_from_clause(store, ())))
        proof.add_init(0, did)
        parsed = parse_proof(proof_to_text(proof))
        assert parsed.system.rules == frozenset()
        assert check_proof(phi, parsed).accepted


class TestCheckBasics:
    def test_contradiction_accepted_three_lines(self):
        proof = obdd_naive_proof(PHI_CONTRA, (1,))
        verdict = check_proof(PHI_CONTRA, proof)
        assert verdict.accepted
        assert verdict.failing_line is None
        assert verdict.reason is None
        assert verdict.stats["lines"] == 3

    def test_stats_values(self):
        proof = obdd_naive_proof(PHI_UNSAT_2, (1, 2))
        stats = check_proof(PHI_UNSAT_2, proof).stats
        # sizes with terminals: (x1 or x2)->4, not-x1->3, and->4,
        # not-x2->3, false->1
        assert stats == {"lines": 5, "max_diagram_size": 4,
                         "total_nodes": 15}

    def test_verdict_json_shape(self):
        verdict = check_proof(PHI_CONTRA, obdd_naive_proof(PHI_CONTRA, (1,)))
        data = verdict.to_json()
        assert sorted(data) == ["accepted", "failing_line", "reason", "stats"]
        assert sorted(data["stats"]) == [
            "lines", "max_diagram_size", "total_nodes"]

    def test_empty_proof_rejected(self):
        proof = Proof(ProofSystem("obdd", frozenset(("join",))))
        verdict = check_proof(PHI_CONTRA, proof)
        assert not verdict.accepted
        assert verdict.reason == "empty proof"

    def test_satisfiable_conjunction_rejected_at_final_line(self):
        phi = cnf(2, [(1, 2), (-1, 2)])
        proof = obdd_naive_proof(phi, (1, 2))
        verdict = check_proof(phi, proof)
        assert not verdict.accepted
        assert verdict.failing_line == len(proof.lines)
        assert verdict.reason == "final line is not the constant-false diagram"

    def test_init_clause_index_out_of_range(self):
        proof = Proof(ProofSystem("obdd", frozenset(("join",))))
        sid = proof.add_structure((1,))
        store = ObddStore((1,))
        did = proof.add_diagram(
            sid, diagram_payload(obdd_from_clause(store, (1,))))
        proof.add_init(5, did)
        verdict = check_proof(PHI_CONTRA, proof)
        assert not verdict.accepted
        assert verdict.failing_line == 1
        assert verdict.reason == "init clause index out of range"

    def test_init_wrong_diagram_rejected(self):
        proof = Proof(ProofSystem("obdd", frozenset(("join",))))
        sid = proof.add_structure((1,))
        store = ObddStore((1,))
        did = proof.add_diagram(
            sid, diagram_payload(obdd_from_clause(store, (-1,))))
        proof.add_init(0, did)
        verdict = check_proof(PHI_CONTRA, proof)
        assert verdict.reason == "init diagram does not match clause 0"

    def test_tampered_join_rejected(self):
        proof = Proof(ProofSystem("obdd", frozenset(("join",))))
        sid = proof.add_structure((1,))
        store = ObddStore((1,))
        pos = obdd_from_clause(store, (1,))
        neg = obdd_from_clause(store, (-1,))
        l1 = proof.add_init(0, proof.add_diagram(sid, diagram_payload(pos)))
        l2 = proof.add_init(1, proof.add_diagram(sid, diagram_payload(neg)))
        # claim the join is constant true instead of constant false
        proof.add_join(l1, l2, proof.add_diagram(
            sid, diagram_payload(obdd_const(store, True))))
        verdict = check_proof(PHI_CONTRA, proof)
        assert not verdict.accepted
        assert verdict.failing_line == 3
        assert verdict.reason == "join mismatch"

    def test_join_forward_reference_rejected(self):
        proof = Proof(ProofSystem("obdd", frozenset(("join",))))
        sid = proof.add_structure((1,))
        store = ObddStore((1,))
        l1 = proof.add_init(0, proof.add_diagram(
            sid, diagram_payload(obdd_from_clause(store, (1,)))))
        proof.add_join(l1, 2, proof.add_diagram(
            sid, diagram_payload(obdd_const(store, False))))
        verdict = check_proof(PHI_CONTRA, proof)
        assert verdict.reason == "join reference out of range"

    def test_rule_not_in_header_rejected(self):
        proof = Proof(ProofSystem("obdd", frozenset(("join",))))
        sid = proof.add_structure((1,))
        store = ObddStore((1,))
        l1 = proof.add_init(0, proof.add_diagram(
            sid, diagram_payload(obdd_from_clause(store, (1,)))))
        proof.add_weaken(l1, proof.add_diagram(
            sid, diagram_payload(obdd_const(store, True))))
        verdict = check_proof(PHI_CONTRA, proof)
        assert verdict.reason == "rule weaken not allowed by the proof header"

    def test_corrupt_payload_rejected_as_malformed(self):
        proof = obdd_naive_proof(PHI_CONTRA, (1,))
        text = proof_to_text(proof).replace("root F", "root Q", 1)
        verdict = check_proof(PHI_CONTRA, parse_proof(text))
        assert not verdict.accepted
        assert verdict.reason.startswith("malformed:")

    def test_sdd_contradiction_accepted(self):
        tree = right_linear_vtree((1, 2))
        proof = sdd_naive_proof(PHI_UNSAT_2, tree)
        assert check_proof(PHI_UNSAT_2, proof).accepted

    def test_dsdnnf_contradiction_accepted(self):
        tree = right_linear_vtree((1, 2))
        proof = dsdnnf_naive_proof(PHI_UNSAT_2, tree)
        assert check_proof(PHI_UNSAT_2, proof).accepted

    def test_dsdnnf_resource_cap_verdict(self):
        tree = right_linear_vtree((1, 2))
        proof = dsdnnf_naive_proof(PHI_UNSAT_2, tree)
        verdict = check_proof(PHI_UNSAT_2, proof, cap=1)
        assert not verdict.accepted
        assert verdict.resource
        assert verdict.reason.startswith("resource cap exceeded")


class TestWeaken:
    def test_weaken_accepted(self):
        phi = PHI_UNSAT_2
        proof = Proof(ProofSystem("obdd", frozenset(("join", "weaken"))))
        sid = proof.add_structure((1, 2))
        store = ObddStore((1, 2))
        c0 = obdd_from_clause(store, (1, 2))
        c1 = obdd_from_clause(store, (-1,))
        c2 = obdd_from_clause(store, (-2,))
        l1 = proof.add_init(0, proof.add_diagram(sid, diagram_payload(c0)))
        l2 = proof.add_init(1, proof.add_diagram(sid, diagram_payload(c1)))
        j1 = obdd_apply("and", c0, c1)
        l3 = proof.add_join(l1, l2, proof.add_diagram(
            sid, diagram_payload(j1)))
        # weaken (not-x1 and x2) to the clause (x2)
        x2 = obdd_from_clause(store, (2,))
        l4 = proof.add_weaken(l3, proof.add_diagram(
            sid, diagram_payload(x2)))
        l5 = proof.add_init(2, proof.add_diagram(sid, diagram_payload(c2)))
        bot = obdd_apply("and", x2, c2)
        proof.add_join(l4, l5, proof.add_diagram(sid, diagram_payload(bot)))
        assert check_proof(phi, proof).accepted

    def test_unsound_weaken_rejected(self):
        proof = Proof(ProofSystem("obdd", frozenset(("join", "weaken"))))
        sid = proof.add_structure((1, 2))
        store = ObddStore((1, 2))
        c0 = obdd_from_clause(store, (1, 2))
        l1 = proof.add_init(0, proof.add_diagram(sid, diagram_payload(c0)))
        narrower = obdd_from_clause(store, (1,))
        proof.add_weaken(l1, proof.add_diagram(
            sid, diagram_payload(narrower)))
        verdict = check_proof(PHI_UNSAT_2, proof)
        assert verdict.failing_line == 2
        assert verdict.reason == "weakening does not hold"


def reorder_probe(phi, candidate_psi):
    """Naive proof of phi over (1..n), then a reorder line claiming the
    conjunction equals candidate_psi compiled over the reversed order."""
    n = phi.num_vars
    proof = obdd_naive_proof(phi, tuple(range(1, n + 1)),
                             rules=("join", "reorder"))
    last = len(proof.lines)
    new_order = tuple(range(n, 0, -1))
    sid = proof.add_structure(new_order)
    store = ObddStore(new_order)
    acc = obdd_const(store, True)
    for clause in candidate_psi.clauses:
        acc = obdd_apply("and", acc, obdd_from_clause(store, clause))
    proof.add_reorder(last, sid, proof.add_diagram(
        sid, diagram_payload(acc)))
    return proof


class TestReorderWeakeningFree:
    def test_honest_reorder_accepted(self):
        phi = PHI_UNSAT_2
        proof = reorder_probe(phi, phi)
        assert check_proof(phi, proof).accepted

    def test_equal_count_wrong_function_rejected(self):
        # (x1 or x2) and (x1 or not-x2) both have three models over two
        # variables, so only the clause-entailment certificate separates
        # them.
        phi = cnf(2, [(1, 2)])
        psi = cnf(2, [(1, -2)])
        proof = reorder_probe(phi, psi)
        verdict = check_proof(phi, proof)
        assert not verdict.accepted
        assert verdict.reason == "reorder result does not entail clause 0"

    def test_wrong_count_rejected(self):
        phi = cnf(2, [(1, 2)])
        psi = cnf(2, [(1,)])
        proof = reorder_probe(phi, psi)
        verdict = check_proof(phi, proof)
        assert verdict.reason == "reorder model counts differ"

    def test_unchanged_structure_rejected(self):
        phi = PHI_CONTRA
        proof = obdd_naive_proof(phi, (1,), rules=("join", "reorder"))
        last = len(proof.lines)
        sid = proof.add_structure((1,))
        store = ObddStore((1,))
        proof.add_reorder(last, sid, proof.add_diagram(
            sid, diagram_payload(obdd_const(store, False))))
        verdict = check_proof(phi, proof)
        assert verdict.reason == "reorder does not change the structure"

    def test_different_leaves_rejected(self):
        phi = cnf(2, [(1,), (-1,)])
        proof = obdd_naive_proof(phi, (1, 2), rules=("join", "reorder"))
        last = len(proof.lines)
        sid = proof.add_structure((1, 3))
        store = ObddStore((1, 3))
        proof.add_reorder(last, sid, proof.add_diagram(
            sid, diagram_payload(obdd_const(store, False))))
        verdict = check_proof(phi, proof)
        assert verdict.reason == "reorder structure has different leaves"

    def test_certs_not_allowed_without_weakening(self):
        phi = PHI_CONTRA
        proof = obdd_naive_proof(phi, (1,), rules=("join", "reorder"))
        last = len(proof.lines)
        sid = proof.add_structure((1, 2))
        # pad leaves so the structure genuinely changes
        phi2 = cnf(2, [(1,), (-1,)])
        proof2 = obdd_naive_proof(phi2, (1, 2), rules=("join", "reorder"))
        last = len(proof2.lines)
        sid = proof2.add_structure((2, 1))
        store = ObddStore((2, 1))
        did = proof2.add_diagram(
            sid, diagram_payload(obdd_const(store, False)))
        proof2.add_reorder(last, sid, did, cert_ids=(did,))
        verdict = check_proof(phi2, proof2)
        assert verdict.reason == \
            "reorder certificates only apply with weakening"

    def test_sdd_reorder_between_vtrees(self):
        phi = PHI_UNSAT_2
        left = parse_vtree("(x1 x2)")
        right = parse_vtree("(x2 x1)")
        proof = Proof(ProofSystem("sdd", frozenset(("join", "reorder"))))
        s1 = proof.add_structure(left)
        s2 = proof.add_structure(right)
        st1, st2 = SddStore(left), SddStore(right)
        c0 = sdd_from_clause(st1, (1, 2))
        l1 = proof.add_init(0, proof.add_diagram(s1, diagram_payload(c0)))
        c0r = sdd_from_clause(st2, (1, 2))
        l2 = proof.add_reorder(l1, s2, proof.add_diagram(
            s2, diagram_payload(c0r)))
        c1 = sdd_from_clause(st2, (-1,))
        l3 = proof.add_init(1, proof.add_diagram(s2, diagram_payload(c1)))
        j1 = sdd_apply("and", c0r, c1)
        l4 = proof.add_join(l2, l3, proof.add_diagram(
            s2, diagram_payload(j1)))
        c2 = sdd_from_clause(st2, (-2,))
        l5 = proof.add_init(2, proof.add_diagram(s2, diagram_payload(c2)))
        bot = sdd_apply("and", j1, c2)
        proof.add_join(l4, l5, proof.add_diagram(s2, diagram_payload(bot)))
        assert check_proof(phi, proof).accepted


class TestReorderWithWeakening:
    def build(self, cert_diagram):
        phi = cnf(3, [(1, 2), (-1,), (-2,)])
        proof = Proof(ProofSystem(
            "obdd", frozenset(("join", "weaken", "reorder"))))
        so = proof.add_structure((1, 2, 3))
        smid = proof.add_structure((3, 1, 2))
        sn = proof.add_structure((3, 2, 1))
        store_old = ObddStore((1, 2, 3))
        store_mid = ObddStore((3, 1, 2))
        d = obdd_from_clause(store_old, (1, 2))
        l1 = proof.add_init(0, proof.add_diagram(so, diagram_payload(d)))
        mid = migrate(store_mid, d)
        fin = obdd_move_var(mid, 1, 2)
        assert fin.store.order == (3, 2, 1)
        cert = proof.add_diagram(smid, diagram_payload(cert_diagram(mid)))
        l2 = proof.add_reorder(l1, sn, proof.add_diagram(
            sn, diagram_payload(fin)), cert_ids=(cert,))
        c1 = obdd_from_clause(fin.store, (-1,))
        l3 = proof.add_init(1, proof.add_diagram(sn, diagram_payload(c1)))
        j1 = obdd_apply("and", fin, c1)
        l4 = proof.add_join(l2, l3, proof.add_diagram(
            sn, diagram_payload(j1)))
        c2 = obdd_from_clause(fin.store, (-2,))
        l5 = proof.add_init(2, proof.add_diagram(sn, diagram_payload(c2)))
        bot = obdd_apply("and", j1, c2)
        proof.add_join(l4, l5, proof.add_diagram(sn, diagram_payload(bot)))
        return phi, proof

    def test_certificate_chain_accepted(self):
        # (1,2,3) -> (3,1,2) moves x3 to the front; (3,1,2) -> (3,2,1)
        # moves x1 to the back: each hop is a single-variable move.
        phi, proof = self.build(lambda mid: mid)
        assert check_proof(phi, proof).accepted

    def test_broken_chain_rejected(self):
        phi, proof = self.build(obdd_negate)
        verdict = check_proof(phi, proof)
        assert verdict.failing_line == 2
        assert verdict.reason == "reorder certificate chain broken at step 1"

    def test_non_adjacent_jump_without_cert_rejected(self):
        # (1,2,3) -> (3,2,1) is not a single-variable move, so an empty
        # certificate chain cannot bridge it.
        phi = cnf(3, [(1, 2), (-1,), (-2,)])
        proof = Proof(ProofSystem(
            "obdd", frozenset(("join", "weaken", "reorder"))))
        so = proof.add_structure((1, 2, 3))
        sn = proof.add_structure((3, 2, 1))
        store_old = ObddStore((1, 2, 3))
        store_new = ObddStore((3, 2, 1))
        d = obdd_from_clause(store_old, (1, 2))
        l1 = proof.add_init(0, proof.add_diagram(so, diagram_payload(d)))
        proof.add_reorder(l1, sn, proof.add_diagram(
            sn, diagram_payload(obdd_from_clause(store_new, (1, 2)))))
        verdict = check_proof(phi, proof)
        assert verdict.reason == \
            "reorder certificate chain broken at step 1"


def obdd_move_probe(result_builder):
    """Proof skeleton: init x1 over (1,2,3), move x1 inward, join with
    not-x1 to the false diagram; result_builder supplies the moved
    diagram from (honest, store_new)."""
    phi = cnf(3, [(1,), (-1,)])
    proof = Proof(ProofSystem("obdd", frozenset(("join", "move"))))
    s1 = proof.add_structure((1, 2, 3))
    s2 = proof.add_structure((2, 1, 3))
    store_old = ObddStore((1, 2, 3))
    store_new = ObddStore((2, 1, 3))
    d = obdd_from_clause(store_old, (1,))
    l1 = proof.add_init(0, proof.add_diagram(s1, diagram_payload(d)))
    honest = migrate(store_new, d)
    moved = result_builder(honest, store_new)
    l2 = proof.add_move(l1, 1, "R", "l", s2, proof.add_diagram(
        s2, diagram_payload(moved)))
    neg = obdd_from_clause(store_new, (-1,))
    l3 = proof.add_init(1, proof.add_diagram(s2, diagram_payload(neg)))
    bot = obdd_apply("and", moved, neg)
    proof.add_join(l2, l3, proof.add_diagram(s2, diagram_payload(bot)))
    return phi, proof


class TestMove:
    def test_honest_obdd_move_accepted(self):
        phi, proof = obdd_move_probe(lambda honest, store: honest)
        assert check_proof(phi, proof).accepted

    def test_dishonest_move_rejected(self):
        phi, proof = obdd_move_probe(
            lambda honest, store: obdd_const(store, True))
        verdict = check_proof(phi, proof)
        assert verdict.failing_line == 2
        assert verdict.reason == "move count equations fail"

    def test_wrong_target_structure_rejected(self):
        phi = cnf(3, [(1,), (-1,)])
        proof = Proof(ProofSystem("obdd", frozenset(("join", "move"))))
        s1 = proof.add_structure((1, 2, 3))
        s3 = proof.add_structure((2, 3, 1))
        store_old = ObddStore((1, 2, 3))
        store_wrong = ObddStore((2, 3, 1))
        d = obdd_from_clause(store_old, (1,))
        l1 = proof.add_init(0, proof.add_diagram(s1, diagram_payload(d)))
        proof.add_move(l1, 1, "R", "l", s3, proof.add_diagram(
            s3, diagram_payload(migrate(store_wrong, d))))
        verdict = check_proof(phi, proof)
        assert verdict.reason == "move structure mismatch"

    def test_invalid_move_path_rejected(self):
        phi = cnf(2, [(1,), (-1,)])
        proof = Proof(ProofSystem("obdd", frozenset(("join", "move"))))
        s1 = proof.add_structure((1, 2))
        s2 = proof.add_structure((2, 1))
        store_old = ObddStore((1, 2))
        store_new = ObddStore((2, 1))
        d = obdd_from_clause(store_old, (1,))
        l1 = proof.add_init(0, proof.add_diagram(s1, diagram_payload(d)))
        # after removing x1 only the leaf x2 remains; path RR is invalid
        proof.add_move(l1, 1, "RR", "l", s2, proof.add_diagram(
            s2, diagram_payload(migrate(store_new, d))))
        verdict = check_proof(phi, proof)
        assert verdict.reason.startswith("invalid move:")

    def test_sdd_move_accepted(self):
        tree = parse_vtree("(x1 (x2 x3))")
        new_tree = move(tree, 1, "R", "l")
        phi = cnf(3, [(1,), (-1,)])
        proof = Proof(ProofSystem("sdd", frozenset(("join", "move"))))
        s1 = proof.add_structure(tree)
        s2 = proof.add_structure(new_tree)
        store_old = SddStore(tree)
        store_new = SddStore(new_tree)
        d = sdd_from_clause(store_old, (1,))
        l1 = proof.add_init(0, proof.add_diagram(s1, diagram_payload(d)))
        moved = rebind(store_new, d)
        l2 = proof.add_move(l1, 1, "R", "l", s2, proof.add_diagram(
            s2, diagram_payload(moved)))
        neg = sdd_from_clause(store_new, (-1,))
        l3 = proof.add_init(1, proof.add_diagram(s2, diagram_payload(neg)))
        bot = sdd_apply("and", moved, neg)
        proof.add_join(l2, l3, proof.add_diagram(s2, diagram_payload(bot)))
        assert check_proof(phi, proof).accepted

    def test_dsdnnf_move_accepted(self):
        tree = parse_vtree("(x1 (x2 x3))")
        new_tree = move(tree, 1, "R", "l")
        phi = cnf(3, [(1,), (-1,)])
        proof = Proof(ProofSystem("dsdnnf", frozenset(("join", "move"))))
        s1 = proof.add_structure(tree)
        s2 = proof.add_structure(new_tree)
        d = clause_circuit((1,), tree)
        l1 = proof.add_init(0, proof.add_diagram(s1, diagram_payload(d)))
        moved = clause_circuit((1,), new_tree)
        l2 = proof.add_move(l1, 1, "R", "l", s2, proof.add_diagram(
            s2, diagram_payload(moved)))
        neg = clause_circuit((-1,), new_tree)
        l3 = proof.add_init(1, proof.add_diagram(s2, diagram_payload(neg)))
        bot = dsdnnf_conjoin(moved, neg, new_tree)
        proof.add_join(l2, l3, proof.add_diagram(s2, diagram_payload(bot)))
        assert check_proof(phi, proof).accepted


class TestTrackClauseSets:
    def test_fold_proof_sets(self):
        proof = obdd_naive_proof(PHI_UNSAT_2, (1, 2))
        sets = track_clause_sets(PHI_UNSAT_2, proof)
        assert sets == {
            1: frozenset({0}),
            2: frozenset({1}),
            3: frozenset({0, 1}),
            4: frozenset({2}),
            5: frozenset({0, 1, 2}),
        }

    def test_move_and_reorder_keep_sets(self):
        phi, proof = obdd_move_probe(lambda honest, store: honest)
        sets = track_clause_sets(phi, proof)
        assert sets[2] == frozenset({0})
        assert sets[4] == frozenset({0, 1})

    def test_weaken_raises(self):
        proof = Proof(ProofSystem("obdd", frozenset(("join", "weaken"))))
        sid = proof.add_structure((1,))
        store = ObddStore((1,))
        l1 = proof.add_init(0, proof.add_diagram(
            sid, diagram_payload(obdd_from_clause(store, (1,)))))
        proof.add_weaken(l1, proof.add_diagram(
            sid, diagram_payload(obdd_const(store, True))))
        with pytest.raises(ProofError):
            track_clause_sets(PHI_CONTRA, proof)


RES_PHI = cnf(2, [(1, 2), (-1, 2), (-2,)])
RES_STEPS = ResolutionProof((
    ("input", 0), ("input", 1), ("input", 2),
    ("res", 1, 2, 1), ("res", 4, 3, 2)))


class TestResolution:
    def test_contradiction_accepted(self):
        r = ResolutionProof((("input", 0), ("input", 1), ("res", 1, 2, 1)))
        verdict = check_resolution(PHI_CONTRA, r)
        assert verdict.accepted
        assert verdict.stats["lines"] == 3

    def test_three_clause_chain_accepted(self):
        assert check_resolution(RES_PHI, RES_STEPS).accepted

    def test_wrong_pivot_rejected(self):
        r = ResolutionProof((("input", 0), ("input", 1), ("res", 1, 2, 2)))
        verdict = check_resolution(PHI_CONTRA, r)
        assert not verdict.accepted
        assert verdict.failing_line == 3
        assert verdict.reason == "pivot does not occur with opposite signs"

    def test_dangling_reference_rejected(self):
        r = ResolutionProof((("input", 0), ("res", 1, 5, 1)))
        verdict = check_resolution(PHI_CONTRA, r)
        assert verdict.reason == "resolution reference out of range"

    def test_input_index_out_of_range(self):
        r = ResolutionProof((("input", 9),))
        verdict = check_resolution(PHI_CONTRA, r)
        assert verdict.reason == "input clause index out of range"

    def test_non_empty_final_clause_rejected(self):
        r = ResolutionProof((("input", 0), ("input", 1), ("res", 1, 2, 1)))
        verdict = check_resolution(RES_PHI, r)
        assert not verdict.accepted
        assert verdict.reason == "final clause is not empty"

    def test_tautological_resolvent_keeps_other_polarity(self):
        # resolving (x1 or x2) with (not-x1 or not-x2) on x1 leaves the
        # tautology (x2 or not-x2), not the empty clause
        phi = cnf(2, [(1, 2), (-1, -2)])
        r = ResolutionProof((("input", 0), ("input", 1), ("res", 1, 2, 1)))
        verdict = check_resolution(phi, r)
        assert not verdict.accepted
        assert verdict.reason == "final clause is not empty"

    def test_round_trip(self):
        text = resolution_to_text(RES_STEPS)
        assert parse_resolution(text) == RES_STEPS

    def test_parse_rejects_bad_step(self):
        with pytest.raises(ProofError):
            parse_resolution("r 1 input 0\nr 2 res 1 1\n")

    def test_parse_rejects_out_of_sequence(self):
        with pytest.raises(ProofError):
            parse_resolution("r 2 input 0\n")


class TestResolutionToObddw:
    def test_translation_accepted(self):
        proof = resolution_to_obddw(RES_PHI, RES_STEPS)
        assert proof.system.rules == frozenset(("join", "weaken"))
        verdict = check_proof(RES_PHI, proof)
        assert verdict.accepted
        # 3 inputs + 2 resolution steps at two lines each
        assert len(proof.lines) == 7

    def test_line_bound(self):
        proof = resolution_to_obddw(RES_PHI, RES_STEPS)
        inputs = sum(1 for s in RES_STEPS.steps if s[0] == "input")
        assert len(proof.lines) <= 3 * len(RES_STEPS.steps) + inputs

    def test_invalid_resolution_raises(self):
        bad = ResolutionProof((("input", 0),))
        with pytest.raises(ProofError):
            resolution_to_obddw(RES_PHI, bad)

    def test_custom_order_respected(self):
        proof = resolution_to_obddw(RES_PHI, RES_STEPS, order=(2, 1))
        assert proof.structures[1] == (2, 1)
        assert check_proof(RES_PHI, proof).accepted


class TestRestrictProof:
    def test_empty_assignment_is_identity_modulo_text(self):
        proof = obdd_naive_proof(PHI_UNSAT_2, (1, 2))
        restricted = restrict_proof(PHI_UNSAT_2, proof, {})
        assert proof_to_text(restricted) == proof_to_text(proof)

    def test_satisfied_clause_lines_dropped(self):
        proof = obdd_naive_proof(PHI_UNSAT_2, (1, 2))
        phi_r = restrict_cnf(PHI_UNSAT_2, {1: 0})
        # x1=0 satisfies (not-x1): five lines shrink to three
        restricted = restrict_proof(PHI_UNSAT_2, proof, {1: 0})
        assert len(restricted.lines) == 3
        assert check_proof(phi_r, restricted).accepted

    def test_falsified_clause_becomes_empty_init(self):
        proof = obdd_naive_proof(PHI_CONTRA, (1,))
        phi_r = restrict_cnf(PHI_CONTRA, {1: 0})
        restricted = restrict_proof(PHI_CONTRA, proof, {1: 0})
        assert check_proof(phi_r, restricted).accepted
        assert restricted.lines[0].rule == "init"

    def test_tail_after_collapsed_final_join_is_cut(self):
        proof = obdd_naive_proof(PHI_CONTRA, (1,))
        restricted = restrict_proof(PHI_CONTRA, proof, {1: 1})
        # x1=1 satisfies the first clause; only the falsified second
        # clause's init survives, and it already is the false diagram
        assert len(restricted.lines) == 1
        phi_r = restrict_cnf(PHI_CONTRA, {1: 1})
        assert check_proof(phi_r, restricted).accepted

    def test_weakening_proof_rejected(self):
        proof = resolution_to_obddw(RES_PHI, RES_STEPS)
        with pytest.raises(ProofError):
            restrict_proof(RES_PHI, proof, {1: 0})

    def test_move_lines_survive_restriction(self):
        phi, proof = obdd_move_probe(lambda honest, store: honest)
        phi_r = restrict_cnf(phi, {2: 1})
        restricted = restrict_proof(phi, proof, {2: 1})
        assert check_proof(phi_r, restricted).accepted


# ------------------------------------------------------------ property tests

def small_formulas():
    clause = st.lists(
        st.sampled_from([1, -1, 2, -2, 3, -3]),
        min_size=1, max_size=3).map(
            lambda lits: tuple(sorted(set(lits), key=lambda l: (abs(l), l < 0))))
    tautology_free = clause.filter(
        lambda c: not any(-l in c for l in c))
    return st.lists(tautology_free, min_size=1, max_size=5).map(
        lambda cs: cnf(3, cs))


@settings(max_examples=120, deadline=None)
@given(small_formulas(), st.sampled_from(["obdd", "sdd", "dsdnnf"]))
def test_naive_proof_verdict_matches_brute_force(phi, fmt):
    if fmt == "obdd":
        proof = obdd_naive_proof(phi, (1, 2, 3))
    elif fmt == "sdd":
        proof = sdd_naive_proof(phi, right_linear_vtree((1, 2, 3)))
    else:
        proof = dsdnnf_naive_proof(phi, right_linear_vtree((1, 2, 3)))
    verdict = check_proof(phi, parse_proof(proof_to_text(proof)))
    assert verdict.accepted == (brute_force_models(phi) == 0)


@settings(max_examples=100, deadline=None)
@given(small_formulas(), small_formulas())
def test_reorder_check_equals_brute_force_equivalence(phi, psi):
    proof = reorder_probe(phi, psi)
    verdict = check_proof(phi, proof)
    phi_models = formula_mask(phi)
    psi_models = formula_mask(psi)
    reorder_line = len(proof.lines)
    if phi_models != psi_models:
        assert not verdict.accepted
        assert verdict.failing_line == reorder_line
    elif phi_models == 0:
        assert verdict.accepted
    else:
        # sound reorder of a satisfiable conjunction: only the final
        # falseness requirement can fail
        assert not verdict.accepted
        assert verdict.failing_line == reorder_line
        assert verdict.reason == "final line is not the constant-false diagram"


@settings(max_examples=80, deadline=None)
@given(small_formulas(),
       st.integers(min_value=1, max_value=3),
       st.integers(min_value=0, max_value=2),
       st.booleans())
def test_move_rule_accepts_honest_rejects_dishonest(phi, x, pos, honest):
    order = (1, 2, 3)
    new_order = single_variable_move(order, x, pos)
    if new_order == order:
        return
    # translate the order move into a w-path on the right-linear tree
    rest = [v for v in order if v != x]
    if pos < len(rest):
        w_path, direction = "R" * pos, "l"
    else:
        w_path, direction = "R" * (len(rest) - 1), "r"
    assert order_move_of_vtree_move(
        right_linear_vtree(order), x, w_path, direction) == new_order

    store_old = ObddStore(order)
    acc = obdd_const(store_old, True)
    for clause in phi.clauses:
        acc = obdd_apply("and", acc, obdd_from_clause(store_old, clause))
    proof = Proof(ProofSystem("obdd", frozenset(("join", "move"))))
    s_old = proof.add_structure(order)
    lead = None
    for index, clause in enumerate(phi.clauses):
        ref = obdd_from_clause(store_old, clause)
        n = proof.add_init(index, proof.add_diagram(
            s_old, diagram_payload(ref)))
        if lead is None:
            lead = n
        else:
            partial = obdd_const(store_old, True)
            for c2 in phi.clauses[:index + 1]:
                partial = obdd_apply(
                    "and", partial, obdd_from_clause(store_old, c2))
            lead = proof.add_join(lead, n, proof.add_diagram(
                s_old, diagram_payload(partial)))
    s_new = proof.add_structure(new_order)
    store_new = ObddStore(new_order)
    if honest:
        moved = migrate(store_new, obdd_move_var(acc, x, pos))
    else:
        moved = obdd_negate(migrate(store_new, obdd_move_var(acc, x, pos)))
    proof.add_move(lead, x, w_path, direction, s_new, proof.add_diagram(
        s_new, diagram_payload(moved)))
    verdict = check_proof(phi, proof)
    move_line = len(proof.lines)
    if honest:
        assert verdict.accepted or (
            verdict.failing_line == move_line
            and verdict.reason
            == "final line is not the constant-false diagram")
    else:
        # the negation changes the function unless acc was self-dual,
        # which cannot happen: counts differ or the halves mismatch
        assert not verdict.accepted
        assert verdict.failing_line == move_line


def proof_texts_corpus():
    corpus = []
    corpus.append((PHI_CONTRA, proof_to_text(
        obdd_naive_proof(PHI_CONTRA, (1,)))))
    corpus.append((PHI_UNSAT_2, proof_to_text(
        obdd_naive_proof(PHI_UNSAT_2, (1, 2)))))
    phi, proof = obdd_move_probe(lambda honest, store: honest)
    corpus.append((phi, proof_to_text(proof)))
    return corpus


MUTATION_CORPUS = proof_texts_corpus()
MUTATION_TOKENS = ["0", "1", "2", "3", "F", "T", "x1", "x2", "join",
                   "weaken", "init", "move", "reorder", "-", "l", "r"]


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=len(MUTATION_CORPUS) - 1),
       st.data())
def test_single_token_mutations_never_break_soundness(corpus_index, data):
    phi, text = MUTATION_CORPUS[corpus_index]
    lines = text.splitlines()
    line_index = data.draw(
        st.integers(min_value=0, max_value=len(lines) - 1))
    tokens = lines[line_index].split()
    token_index = data.draw(
        st.integers(min_value=0, max_value=len(tokens) - 1))
    replacement = data.draw(st.sampled_from(MUTATION_TOKENS))
    if tokens[token_index] == replacement:
        return
    tokens[token_index] = replacement
    mutated = "\n".join(
        lines[:line_index] + [" ".join(tokens)] + lines[line_index + 1:])
    try:
        proof = parse_proof(mutated)
    except ProofError:
        return
    verdict = check_proof(phi, proof)
    if verdict.accepted:
        # a mutation may leave the proof valid, but the formula it
        # refutes is fixed and must actually be unsatisfiable
        assert brute_force_models(phi) == 0


@settings(max_examples=60, deadline=None)
@given(small_formulas(), st.dictionaries(
    st.integers(min_value=1, max_value=3), st.integers(0, 1), max_size=2))
def test_restrict_proof_checks_against_restricted_formula(phi, assignment):
    proof = obdd_naive_proof(phi, (1, 2, 3))
    verdict = check_proof(phi, proof)
    if not verdict.accepted:
        return
    try:
        restricted = restrict_proof(phi, proof, assignment)
    except ProofError:
        # every line restricted to constant true: impossible for an
        # accepted refutation, whose final line restricts to false
        raise
    phi_r = restrict_cnf(phi, assignment)
    assert check_proof(phi_r, restricted).accepted
