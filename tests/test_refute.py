"""Tests for the refutation producers and the representation extraction."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from kcproof.cnf import CapExceeded, cnf
from kcproof.structure import right_linear_vtree
from kcproof.obdd import (ObddStore, obdd_apply, obdd_from_clause,
                          obdd_restrict)
from kcproof.sdd import SddStore, sdd_restrict, sdd_size
from kcproof.dsdnnf import clause_circuit, dsdnnf_conjoin, dsdnnf_restrict
from kcproof.zoo import (LiftedFormula, eq_formula, grid_family, lift_C,
                         lift_Z, path, vc_formula)
from kcproof.proofs import (Proof, ProofSystem, check_proof, diagram_payload,
                            parse_proof, proof_to_text)
from kcproof.refute import (RefuteError, compilation_to_refutation,
                            extract_representation, naive_conjoin_refute,
                            obdd_refute_eq, resolution_refute_lifted,
                            treewidth_refute)
from kcproof.resolution import check_resolution
from oracles import (all_models, dsdnnf_is_unsat, obdd_is_unsat,
                     obdd_total_size, sdd_compile_cnf, sdd_is_unsat)

PHI_CONTRA = cnf(1, [(1,), (-1,)])
PHI_TWO_MODELS = cnf(2, [(1, 2), (-1, -2)])


def full_order(formula):
    return tuple(range(1, formula.num_vars + 1))


def is_model(fmt, diagram, assignment):
    if fmt == "obdd":
        return not obdd_is_unsat(obdd_restrict(diagram, assignment))
    if fmt == "sdd":
        return not sdd_is_unsat(sdd_restrict(diagram, assignment))
    return not dsdnnf_is_unsat(dsdnnf_restrict(diagram, assignment))


def diagram_models(fmt, diagram, num_vars):
    found = set()
    for row in range(2 ** num_vars):
        assignment = {v: (row >> (v - 1)) & 1 for v in range(1, num_vars + 1)}
        if is_model(fmt, diagram, assignment):
            found.add(tuple(assignment[v] for v in range(1, num_vars + 1)))
    return found


def base_models(formula):
    return {tuple(model[v] for v in range(1, formula.num_vars + 1))
            for model in all_models(formula)}


def obdd_fold_trace(formula, store):
    trace = []
    acc = None
    for index, clause in enumerate(formula.clauses):
        ref = obdd_from_clause(store, clause)
        trace.append(("init", index, ref))
        if acc is None:
            acc = ref
        else:
            acc = obdd_apply("and", acc, ref)
            trace.append(("join", len(trace) - 2, len(trace) - 1, acc))
    return acc, trace


def random_small_cnf(rng, max_vars=4, max_clauses=4):
    n = rng.randint(2, max_vars)
    m = rng.randint(1, max_clauses)
    clauses = []
    for _ in range(m):
        width = rng.randint(1, min(3, n))
        chosen = rng.sample(range(1, n + 1), width)
        clauses.append(tuple(v if rng.random() < 0.5 else -v
                             for v in chosen))
    return cnf(n, clauses)


class TestNaiveConjoinRefute:
    def test_contradiction_three_lines(self):
        proof = naive_conjoin_refute(PHI_CONTRA, (1,))
        assert [line.rule for line in proof.lines] == ["init", "init", "join"]
        assert check_proof(PHI_CONTRA, proof).accepted

    def test_satisfiable_input_reported_by_checker(self):
        phi = cnf(1, [(1,)])
        proof = naive_conjoin_refute(phi, (1,))
        assert len(proof.lines) == 1
        verdict = check_proof(phi, proof)
        assert not verdict.accepted
        assert verdict.reason == "final line is not the constant-false diagram"

    def test_lifted_contradiction_sdd_fifteen_lines(self):
        lifted = lift_Z(PHI_CONTRA)
        tree = right_linear_vtree(full_order(lifted.result))
        proof = naive_conjoin_refute(lifted.result, tree)
        assert proof.system.format == "sdd"
        assert len(proof.lines) == 15
        rules = [line.rule for line in proof.lines]
        assert rules.count("init") == 8 and rules.count("join") == 7
        assert check_proof(lifted.result, proof).accepted

    def test_serialized_round_trip_stays_accepted(self):
        lifted = lift_Z(PHI_CONTRA)
        tree = right_linear_vtree(full_order(lifted.result))
        proof = naive_conjoin_refute(lifted.result, tree)
        again = parse_proof(proof_to_text(proof))
        assert check_proof(lifted.result, again).accepted

    def test_dsdnnf_format(self):
        lifted = lift_Z(PHI_CONTRA)
        tree = right_linear_vtree(full_order(lifted.result))
        proof = naive_conjoin_refute(lifted.result, tree, fmt="dsdnnf")
        assert proof.system.format == "dsdnnf"
        assert check_proof(lifted.result, proof).accepted

    def test_structure_must_cover_the_formula(self):
        with pytest.raises(RefuteError):
            naive_conjoin_refute(PHI_TWO_MODELS, (1,))

    def test_order_fixes_the_format(self):
        with pytest.raises(RefuteError):
            naive_conjoin_refute(PHI_CONTRA, (1,), fmt="sdd")

    def test_vtree_rejects_obdd_format(self):
        with pytest.raises(RefuteError):
            naive_conjoin_refute(PHI_CONTRA, right_linear_vtree((1,)),
                                 fmt="obdd")

    def test_structure_must_be_order_or_vtree(self):
        with pytest.raises(RefuteError):
            naive_conjoin_refute(PHI_CONTRA, [1])

    def test_empty_formula_rejected(self):
        with pytest.raises(RefuteError):
            naive_conjoin_refute(cnf(1, []), (1,))


class TestResolutionRefuteLifted:
    def test_contradiction_seven_resolvents(self):
        lifted = lift_Z(PHI_CONTRA)
        proof = resolution_refute_lifted(lifted)
        assert sum(1 for step in proof.steps if step[0] == "res") == 7
        assert check_resolution(lifted.result, proof).accepted

    def test_single_clause_five_resolvents(self):
        lifted = lift_Z(cnf(2, [(1, 2)]))
        proof = resolution_refute_lifted(lifted)
        assert sum(1 for step in proof.steps if step[0] == "res") == 5
        assert check_resolution(lifted.result, proof).accepted

    def test_ten_clause_three_cnf_bound(self):
        rng = random.Random(11)
        clauses = []
        for _ in range(10):
            chosen = rng.sample(range(1, 9), 3)
            clauses.append(tuple(v if rng.random() < 0.5 else -v
                                 for v in chosen))
        lifted = lift_Z(cnf(8, clauses))
        proof = resolution_refute_lifted(lifted)
        resolvents = sum(1 for step in proof.steps if step[0] == "res")
        assert resolvents == sum(len(c) + 1 for c in clauses) + 11
        assert resolvents <= 10 * 4 + 11
        assert check_resolution(lifted.result, proof).accepted

    def test_tampered_lifting_rejected(self):
        lifted = lift_Z(PHI_CONTRA)
        wrong = LiftedFormula(base=lifted.base, result=PHI_CONTRA,
                              roles=lifted.roles)
        with pytest.raises(RefuteError):
            resolution_refute_lifted(wrong)

    def test_plain_formula_rejected(self):
        with pytest.raises(RefuteError):
            resolution_refute_lifted(PHI_CONTRA)


class TestCompilationToRefutation:
    def test_contradiction_sdd_trace(self):
        lifted = lift_Z(PHI_CONTRA)
        store = SddStore(right_linear_vtree(full_order(lifted.result)))
        _, trace = sdd_compile_cnf(lift_C(PHI_CONTRA), store)
        assert len(trace) == 3
        proof = compilation_to_refutation(trace, lifted)
        assert len(proof.lines) == 15
        assert check_proof(lifted.result, proof).accepted

    def test_vertex_cover_edge_final_line_false(self):
        phi = vc_formula(path(1))
        lifted = lift_Z(phi)
        store = SddStore(right_linear_vtree(full_order(lifted.result)))
        _, trace = sdd_compile_cnf(lift_C(phi), store)
        proof = compilation_to_refutation(trace, lifted)
        verdict = check_proof(lifted.result, proof)
        assert verdict.accepted
        assert proof.lines[-1].rule == "join"

    def test_obdd_trace(self):
        lifted = lift_Z(PHI_TWO_MODELS)
        store = ObddStore(full_order(lifted.result))
        _, trace = obdd_fold_trace(lift_C(PHI_TWO_MODELS), store)
        proof = compilation_to_refutation(trace, lifted)
        assert check_proof(lifted.result, proof).accepted

    def test_circuit_trace(self):
        lifted = lift_Z(PHI_CONTRA)
        tree = right_linear_vtree(full_order(lifted.result))
        control = lift_C(PHI_CONTRA)
        trace = []
        acc = None
        for index, clause in enumerate(control.clauses):
            ref = clause_circuit(clause, tree)
            trace.append(("init", index, ref))
            if acc is None:
                acc = ref
            else:
                acc = dsdnnf_conjoin(acc, ref, tree)
                trace.append(("join", len(trace) - 2, len(trace) - 1, acc))
        proof = compilation_to_refutation(trace, lifted)
        assert proof.system.format == "dsdnnf"
        assert check_proof(lifted.result, proof).accepted

    def test_wrong_final_diagram_rejected(self):
        lifted = lift_Z(PHI_CONTRA)
        store = SddStore(right_linear_vtree(full_order(lifted.result)))
        _, trace = sdd_compile_cnf(lift_C(PHI_CONTRA), store)
        with pytest.raises(RefuteError):
            compilation_to_refutation(trace[:-1], lifted)

    def test_empty_trace_rejected(self):
        with pytest.raises(RefuteError):
            compilation_to_refutation([], lift_Z(PHI_CONTRA))

    def test_init_outside_control_rejected(self):
        lifted = lift_Z(PHI_CONTRA)
        store = SddStore(right_linear_vtree(full_order(lifted.result)))
        _, trace = sdd_compile_cnf(lift_C(PHI_CONTRA), store)
        bad = [("init", lifted.result.num_clauses - 1, trace[0][-1])] \
            + trace[1:]
        with pytest.raises(RefuteError):
            compilation_to_refutation(bad, lifted)

    def test_structure_must_cover_chain_variables(self):
        control = lift_C(PHI_CONTRA)
        store = SddStore(right_linear_vtree(full_order(control)))
        _, trace = sdd_compile_cnf(control, store)
        with pytest.raises(RefuteError):
            compilation_to_refutation(trace, lift_Z(PHI_CONTRA))

    def test_total_size_within_documented_constant(self):
        rng = random.Random(23)
        for _ in range(12):
            phi = random_small_cnf(rng)
            lifted = lift_Z(phi)
            order = full_order(lifted.result)
            store = SddStore(right_linear_vtree(order))
            _, trace = sdd_compile_cnf(lift_C(phi), store)
            biggest = max(sdd_size(step[-1]) for step in trace)
            proof = compilation_to_refutation(trace, lifted)
            verdict = check_proof(lifted.result, proof)
            assert verdict.accepted
            assert verdict.stats["total_nodes"] <= \
                16 * phi.num_clauses * biggest


class TestTreewidthRefute:
    def test_vertex_cover_edge(self):
        phi = vc_formula(path(1))
        proof, info = treewidth_refute(phi)
        assert info["width"] == 1
        assert check_proof(lift_Z(phi).result, proof).accepted

    def test_vertex_cover_path_width_one(self):
        phi = vc_formula(path(3))
        proof, info = treewidth_refute(phi)
        assert info["width"] == 1
        assert check_proof(lift_Z(phi).result, proof).accepted

    def test_small_grid(self):
        phi = vc_formula(grid_family(1, 1))
        proof, info = treewidth_refute(phi)
        verdict = check_proof(lift_Z(phi).result, proof)
        assert verdict.accepted
        assert info["width"] == 2
        assert verdict.stats["max_diagram_size"] >= 1

    def test_larger_grid_size_recorded(self):
        phi = vc_formula(grid_family(2, 2))
        proof, info = treewidth_refute(phi)
        verdict = check_proof(lift_Z(phi).result, proof)
        assert verdict.accepted
        assert info["width"] == 3
        assert verdict.stats["max_diagram_size"] >= 1

    def test_unused_variable_still_works(self):
        phi = cnf(3, [(1,), (-1,)])
        proof, _ = treewidth_refute(phi)
        assert check_proof(lift_Z(phi).result, proof).accepted

    def test_empty_formula_rejected(self):
        with pytest.raises(RefuteError):
            treewidth_refute(cnf(1, []))


class TestObddRefuteEq:
    def test_smallest_instance(self):
        proof = obdd_refute_eq(2, 1)
        lifted = lift_Z(eq_formula(2, 1))
        verdict = check_proof(lifted.result, proof)
        assert verdict.accepted
        assert verdict.stats["lines"] == 35
        assert verdict.stats["max_diagram_size"] == 17

    def test_linear_size_trend(self):
        sizes = {}
        for n in (2, 4, 8, 16):
            proof = obdd_refute_eq(n, 0)
            lifted = lift_Z(eq_formula(n, 0))
            verdict = check_proof(lifted.result, proof)
            assert verdict.accepted
            sizes[n] = verdict.stats["max_diagram_size"]
        assert sizes == {2: 17, 4: 31, 8: 59, 16: 115}
        for n, size in sizes.items():
            assert size <= 9 * n

    def test_shift_invariance(self):
        shifted = check_proof(lift_Z(eq_formula(4, 2)).result,
                              obdd_refute_eq(4, 2))
        plain = check_proof(lift_Z(eq_formula(4, 0)).result,
                            obdd_refute_eq(4, 0))
        assert shifted.accepted and plain.accepted
        assert shifted.stats == plain.stats

    def test_rejects_bad_parameters(self):
        with pytest.raises(RefuteError):
            obdd_refute_eq(3, 0)
        with pytest.raises(RefuteError):
            obdd_refute_eq(4, 4)


def split_fold_proof(lifted, cut):
    """Obdd proof joining the fold of clauses [0, cut) with the fold of
    clauses [cut, end), so the final join splits the clause set there."""
    order = full_order(lifted.result)
    store = ObddStore(order)
    proof = Proof(ProofSystem("obdd", ("join",)))
    sid = proof.add_structure(order)

    def fold(indices):
        acc, acc_line = None, None
        for index in indices:
            d = obdd_from_clause(store, lifted.result.clauses[index])
            line = proof.add_init(
                index, proof.add_diagram(sid, diagram_payload(d)))
            if acc is None:
                acc, acc_line = d, line
            else:
                acc = obdd_apply("and", acc, d)
                acc_line = proof.add_join(
                    acc_line, line,
                    proof.add_diagram(sid, diagram_payload(acc)))
        return acc, acc_line

    total = lifted.result.num_clauses
    left, left_line = fold(range(cut))
    right, right_line = fold(range(cut, total))
    top = obdd_apply("and", left, right)
    proof.add_join(left_line, right_line,
                   proof.add_diagram(sid, diagram_payload(top)))
    return proof


class TestExtractRepresentation:
    def test_two_model_formula_split_proof(self):
        lifted = lift_Z(PHI_TWO_MODELS)
        proof = split_fold_proof(lifted, 5)
        assert check_proof(lifted.result, proof).accepted
        diagram = extract_representation(proof, lifted)
        assert diagram_models("obdd", diagram, 2) == {(0, 1), (1, 0)}

    def test_two_model_formula_naive_proof(self):
        lifted = lift_Z(PHI_TWO_MODELS)
        proof = naive_conjoin_refute(lifted.result, full_order(lifted.result))
        diagram = extract_representation(proof, lifted)
        assert diagram_models("obdd", diagram, 2) == {(0, 1), (1, 0)}

    def test_split_at_missing_control_implication(self):
        # the left side then misses the control implication of block 1
        # first, which is the case where shaving the controls to zero
        # would cut base literals out of the block's clauses
        lifted = lift_Z(PHI_TWO_MODELS)
        proof = split_fold_proof(lifted, 4)
        diagram = extract_representation(proof, lifted)
        assert diagram_models("obdd", diagram, 2) == {(0, 1), (1, 0)}

    def test_unsatisfiable_base_gives_bottom(self):
        lifted = lift_Z(PHI_CONTRA)
        proof = naive_conjoin_refute(lifted.result, full_order(lifted.result))
        diagram = extract_representation(proof, lifted)
        assert diagram_models("obdd", diagram, 1) == set()

    def test_sdd_proof(self):
        lifted = lift_Z(PHI_TWO_MODELS)
        tree = right_linear_vtree(full_order(lifted.result))
        proof = naive_conjoin_refute(lifted.result, tree)
        diagram = extract_representation(proof, lifted)
        assert diagram_models("sdd", diagram, 2) == {(0, 1), (1, 0)}

    def test_dsdnnf_proof(self):
        lifted = lift_Z(PHI_TWO_MODELS)
        tree = right_linear_vtree(full_order(lifted.result))
        proof = naive_conjoin_refute(lifted.result, tree, fmt="dsdnnf")
        diagram = extract_representation(proof, lifted)
        assert diagram_models("dsdnnf", diagram, 2) == {(0, 1), (1, 0)}

    def test_weakening_rule_rejected(self):
        lifted = lift_Z(PHI_CONTRA)
        proof = naive_conjoin_refute(lifted.result, full_order(lifted.result))
        proof.system = ProofSystem("obdd", ("join", "weaken"))
        with pytest.raises(RefuteError):
            extract_representation(proof, lifted)

    def test_rejected_proof_rejected(self):
        lifted = lift_Z(PHI_CONTRA)
        proof = naive_conjoin_refute(lifted.result, full_order(lifted.result))
        proof.lines = proof.lines[:-1]
        with pytest.raises(RefuteError):
            extract_representation(proof, lifted)

    def test_variable_cap(self):
        lifted = lift_Z(PHI_TWO_MODELS)
        proof = naive_conjoin_refute(lifted.result, full_order(lifted.result))
        with pytest.raises(CapExceeded):
            extract_representation(proof, lifted, var_cap=0)

    def test_final_move_line_is_walked_through(self):
        from kcproof.obdd import migrate
        lifted = lift_Z(PHI_TWO_MODELS)
        order = full_order(lifted.result)
        store = ObddStore(order)
        proof = Proof(ProofSystem("obdd", ("join", "move")))
        sid = proof.add_structure(order)
        acc, acc_line = None, None
        for index, clause in enumerate(lifted.result.clauses):
            d = obdd_from_clause(store, clause)
            line = proof.add_init(
                index, proof.add_diagram(sid, diagram_payload(d)))
            if acc is None:
                acc, acc_line = d, line
            else:
                acc = obdd_apply("and", acc, d)
                acc_line = proof.add_join(
                    acc_line, line,
                    proof.add_diagram(sid, diagram_payload(acc)))
        moved_order = (order[1], order[0]) + order[2:]
        moved_store = ObddStore(moved_order)
        moved = migrate(moved_store, acc)
        sid2 = proof.add_structure(moved_order)
        proof.add_move(acc_line, order[0], "R", "l", sid2,
                       proof.add_diagram(sid2, diagram_payload(moved)))
        assert check_proof(lifted.result, proof).accepted
        diagram = extract_representation(proof, lifted)
        assert diagram_models("obdd", diagram, 2) == {(0, 1), (1, 0)}

    def test_output_size_bound(self):
        # the two split sides are no larger than the biggest proof line,
        # so c * maxsize^2 * n^(2k^2) bounds the advertised product form
        rng = random.Random(5)
        for _ in range(8):
            phi = random_small_cnf(rng, max_vars=4, max_clauses=3)
            lifted = lift_Z(phi)
            proof = naive_conjoin_refute(
                lifted.result, full_order(lifted.result))
            verdict = check_proof(lifted.result, proof)
            assert verdict.accepted
            diagram = extract_representation(proof, lifted)
            k = max(len(clause) for clause in phi.clauses)
            biggest = verdict.stats["max_diagram_size"]
            limit = 4 * biggest * biggest * phi.num_vars ** (2 * k * k)
            assert obdd_total_size(diagram) <= limit


small_formulas = st.builds(
    lambda payload: cnf(3, [tuple(sorted(clause, key=abs))
                            for clause in payload]),
    st.lists(
        st.sets(st.sampled_from([1, -1, 2, -2, 3, -3]), min_size=1,
                max_size=3).filter(
                    lambda lits: not any(-l in lits for l in lits)),
        min_size=1, max_size=5).map(
            lambda cls: [tuple(c) for c in cls]))


@settings(deadline=None, max_examples=40)
@given(small_formulas)
def test_extraction_is_equivalent_to_the_base_formula(phi):
    lifted = lift_Z(phi)
    proof = naive_conjoin_refute(lifted.result, full_order(lifted.result))
    diagram = extract_representation(proof, lifted)
    assert diagram_models("obdd", diagram, phi.num_vars) == base_models(phi)


@settings(deadline=None, max_examples=25)
@given(small_formulas)
def test_producers_are_always_accepted(phi):
    lifted = lift_Z(phi)
    order = full_order(lifted.result)
    assert check_proof(lifted.result,
                       naive_conjoin_refute(lifted.result, order)).accepted
    tree = right_linear_vtree(order)
    assert check_proof(lifted.result,
                       naive_conjoin_refute(lifted.result, tree)).accepted
    assert check_resolution(lifted.result,
                            resolution_refute_lifted(lifted)).accepted
    store = SddStore(tree)
    _, trace = sdd_compile_cnf(lift_C(phi), store)
    assert check_proof(lifted.result,
                       compilation_to_refutation(trace, lifted)).accepted


@settings(deadline=None, max_examples=20)
@given(small_formulas, st.integers(min_value=1, max_value=10 ** 6))
def test_split_point_never_changes_the_extraction(phi, seed):
    lifted = lift_Z(phi)
    total = lifted.result.num_clauses
    cut = 1 + seed % (total - 1) if total > 1 else 1
    if total == 1:
        return
    proof = split_fold_proof(lifted, cut)
    assert check_proof(lifted.result, proof).accepted
    diagram = extract_representation(proof, lifted)
    assert diagram_models("obdd", diagram, phi.num_vars) == base_models(phi)
