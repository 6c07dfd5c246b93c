"""End-to-end acceptance suite.

Each test exercises one headline capability of the package at fixed
seeds and fixed tolerances, prints exactly one pass/fail line, and then
asserts.  The lines are replayed in the terminal summary by conftest.py.
"""

import random
import sys
import time

import conftest

sys.path.insert(0, "src")

from kcproof.cnf import (
    cnf,
    brute_force_models,
    restrict_cnf,
    is_minimally_unsat,
    kl_profile,
    primal_graph,
    tree_decomposition,
)
from kcproof.structure import (
    StructureError,
    move,
    node_table,
    remove_leaf,
    right_linear_vtree,
    vtree_from_decomposition,
    vtree_leaf,
    vtree_node,
)
from kcproof.obdd import (
    ObddStore,
    obdd_apply,
    obdd_from_clause,
    obdd_is_unsat,
    obdd_negate,
    obdd_restrict,
    obdd_size,
    obdd_truth_mask,
)
from kcproof.sdd import (
    SddStore,
    rebind,
    sdd_apply,
    sdd_from_clause,
    sdd_negate,
    sdd_size,
    sdd_truth_mask,
)
from kcproof.dsdnnf import (
    dsdnnf_count,
    sdd_to_dsdnnf,
    validate_deterministic,
    validate_structured,
)
from kcproof.zoo import (
    eq_formula,
    grid_family,
    lift_Z,
    path,
    seq_formula,
    vc_formula,
)
from kcproof.proofs import (
    Proof,
    ProofSystem,
    check_proof,
    diagram_payload,
)
from kcproof.refute import (
    extract_representation,
    naive_conjoin_refute,
    obdd_refute_eq,
    resolution_refute_lifted,
    restrict_proof,
    treewidth_refute,
)
from kcproof.resolution import check_resolution

PHI0 = cnf(1, [(1,), (-1,)])


def _finish(num, label, failures, started, budget):
    elapsed = time.time() - started
    if elapsed > budget:
        failures.append("took %.1fs, budget %.0fs" % (elapsed, budget))
    if failures:
        status = "FAIL (%s)" % "; ".join(failures)
    else:
        status = "PASS"
    line = "criterion %02d %-33s %6.1fs  %s" % (num, label, elapsed, status)
    print(line)
    conftest.acceptance_lines.append(line)
    assert not failures, line


def _random_cnf(rng, n, m, width):
    clauses = []
    for _ in range(m):
        w = rng.randint(1, min(width, n))
        chosen = rng.sample(range(1, n + 1), w)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in chosen))
    return cnf(n, clauses)


def _random_vtree(rng, variables):
    items = [vtree_leaf(v) for v in variables]
    rng.shuffle(items)
    while len(items) > 1:
        i = rng.randrange(len(items) - 1)
        items[i:i + 2] = [vtree_node(items[i], items[i + 1])]
    return items[0]


def _obdd_fold(store, phi):
    acc = obdd_from_clause(store, phi.clauses[0])
    for clause in phi.clauses[1:]:
        acc = obdd_apply("and", acc, obdd_from_clause(store, clause))
    return acc


def _sdd_fold(store, phi):
    acc = sdd_from_clause(store, phi.clauses[0])
    for clause in phi.clauses[1:]:
        acc = sdd_apply("and", acc, sdd_from_clause(store, clause))
    return acc


def test_01_majority_reference_shapes():
    started = time.time()
    failures = []
    try:
        majority = cnf(3, [(1, 2), (1, 3), (2, 3)])
        store = ObddStore((1, 2, 3))
        d = _obdd_fold(store, majority)
        if obdd_size(d) != 4:
            failures.append("obdd internal nodes %d, want 4" % obdd_size(d))
        tree = vtree_node(vtree_node(vtree_leaf(1), vtree_leaf(2)),
                          vtree_leaf(3))
        circuit = sdd_to_dsdnnf(_sdd_fold(SddStore(tree), majority))
        if not validate_structured(circuit, tree):
            failures.append("circuit is not structured by the vtree")
        if validate_deterministic(circuit, tree, 24) is not True:
            failures.append("circuit is not deterministic")
        count = dsdnnf_count(circuit, (1, 2, 3))
        if count != 4:
            failures.append("circuit model count %d, want 4" % count)
        if brute_force_models(majority) != 4:
            failures.append("brute force disagrees on the model count")
    except Exception as exc:
        failures.append("raised %r" % (exc,))
    _finish(1, "majority reference shapes", failures, started, 1.0)


def test_02_chain_lifting_minimally_unsat():
    started = time.time()
    failures = []
    try:
        rng = random.Random(200)
        for trial in range(200):
            n = rng.randint(1, 3)
            m = rng.randint(1, 4)
            phi = _random_cnf(rng, n, m, 3)
            lifted = lift_Z(phi)
            k, l = kl_profile(phi)
            if k > 3:
                failures.append("trial %d width profile %d" % (trial, k))
                break
            if lifted.result.num_vars > 12:
                failures.append("trial %d has %d lifted vars"
                                % (trial, lifted.result.num_vars))
                break
            if brute_force_models(lifted.result) != 0:
                failures.append("trial %d lifting is satisfiable" % trial)
                break
            if not is_minimally_unsat(lifted.result):
                failures.append("trial %d lifting is not minimal" % trial)
                break
            want = m + sum(len(c) + 1 for c in phi.clauses) + 2
            if lifted.result.num_clauses != want:
                failures.append("trial %d clause count %d, want %d"
                                % (trial, lifted.result.num_clauses, want))
                break
    except Exception as exc:
        failures.append("raised %r" % (exc,))
    _finish(2, "chain lifting minimally unsat", failures, started, 60.0)


def test_03_resolution_step_bound():
    started = time.time()
    failures = []
    try:
        lifted = lift_Z(PHI0)
        refutation = resolution_refute_lifted(lifted)
        res_steps = sum(1 for s in refutation.steps if s[0] == "res")
        if not check_resolution(lifted.result, refutation).accepted:
            failures.append("reference refutation rejected")
        if res_steps != 2 * (1 + 1) + 3:
            failures.append("reference refutation has %d resolvents, want 7"
                            % res_steps)
        rng = random.Random(300)
        for trial in range(60):
            m = rng.choice((1, 2, 5, 10, 20, 35, 50))
            n = rng.randint(1, 20)
            phi = _random_cnf(rng, n, m, 5)
            lifted = lift_Z(phi)
            refutation = resolution_refute_lifted(lifted)
            verdict = check_resolution(lifted.result, refutation)
            if not verdict.accepted:
                failures.append("trial %d rejected: %s"
                                % (trial, verdict.reason))
                break
            res_steps = sum(1 for s in refutation.steps if s[0] == "res")
            widest = max(len(c) for c in phi.clauses)
            bound = m * (widest + 1) + (m + 1)
            if res_steps > bound:
                failures.append("trial %d has %d resolvents, bound %d"
                                % (trial, res_steps, bound))
                break
    except Exception as exc:
        failures.append("raised %r" % (exc,))
    _finish(3, "resolution step bound", failures, started, 10.0)


def test_04_compile_and_lift_refutations():
    started = time.time()
    failures = []
    try:
        family = [
            ("contradiction", PHI0),
            ("vc edge", vc_formula(path(1))),
            ("vc path", vc_formula(path(3))),
            ("vc grid 1x1", vc_formula(grid_family(1, 1))),
            ("vc grid 2x2", vc_formula(grid_family(2, 2))),
        ]
        for label, phi in family:
            proof, _ = treewidth_refute(phi)
            verdict = check_proof(lift_Z(phi).result, proof)
            if not verdict.accepted:
                failures.append("%s rejected: %s" % (label, verdict.reason))
                continue
            peak = verdict.stats["max_diagram_size"]
            allowance = 4 * phi.num_clauses * peak
            if len(proof.lines) > allowance:
                failures.append("%s has %d lines, allowance %d"
                                % (label, len(proof.lines), allowance))
    except Exception as exc:
        failures.append("raised %r" % (exc,))
    _finish(4, "compile-and-lift refutations", failures, started, 30.0)


def test_05_representation_extraction():
    started = time.time()
    failures = []
    try:
        rng = random.Random(500)
        for trial in range(50):
            n = rng.randint(2, 5)
            m = rng.randint(1, (15 - n) // 2)
            phi = _random_cnf(rng, n, m, 2)
            lifted = lift_Z(phi)
            order = tuple(range(1, lifted.result.num_vars + 1))
            proof = naive_conjoin_refute(lifted.result, order)
            d = extract_representation(proof, lifted)
            for row in range(2 ** n):
                assignment = {v + 1: (row >> v) & 1 for v in range(n)}
                diagram_true = not obdd_is_unsat(obdd_restrict(d, assignment))
                formula_true = all(
                    any((lit > 0) == bool(assignment[abs(lit)]) for lit in c)
                    for c in phi.clauses)
                if diagram_true != formula_true:
                    failures.append("trial %d differs on row %d"
                                    % (trial, row))
                    break
            if failures:
                break
    except Exception as exc:
        failures.append("raised %r" % (exc,))
    _finish(5, "representation extraction", failures, started, 120.0)


def _sdd_move_proof(phi, tree, moved, x, w_path, direction, candidate):
    """Fold phi over tree, then claim candidate re-expresses the result
    over the moved vtree.  Returns whether the move line itself passed."""
    store = SddStore(tree)
    system = ProofSystem("sdd", ("join", "move"))
    proof = Proof(system)
    sid = proof.add_structure(tree)
    acc = sdd_from_clause(store, phi.clauses[0])
    proof.add_init(0, proof.add_diagram(sid, diagram_payload(acc)))
    prev = 1
    for index, clause in enumerate(phi.clauses[1:], start=1):
        dc = sdd_from_clause(store, clause)
        proof.add_init(index, proof.add_diagram(sid, diagram_payload(dc)))
        acc = sdd_apply("and", acc, dc)
        proof.add_join(prev, len(proof.lines),
                       proof.add_diagram(sid, diagram_payload(acc)))
        prev = len(proof.lines)
    new_sid = proof.add_structure(moved)
    proof.add_move(prev, x, w_path, direction, new_sid,
                   proof.add_diagram(new_sid, diagram_payload(candidate)))
    verdict = check_proof(phi, proof)
    if verdict.accepted:
        return True
    final = verdict.failing_line == len(proof.lines)
    return not (final and "move" in (verdict.reason or ""))


def test_06_move_verification_vs_brute_force():
    started = time.time()
    failures = []
    try:
        rng = random.Random(600)
        trials = 0
        while trials < 100 and not failures:
            n = rng.randint(2, 6)
            phi = _random_cnf(rng, n, rng.randint(1, 2 * n), 3)
            tree = _random_vtree(rng, list(range(1, n + 1)))
            d = _sdd_fold(SddStore(tree), phi)
            x = rng.randint(1, n)
            table = node_table(remove_leaf(tree, x))
            w_path = rng.choice(sorted(table))
            direction = rng.choice(("l", "r"))
            try:
                moved = move(tree, x, w_path, direction)
            except StructureError:
                continue
            if moved == tree:
                continue
            trials += 1
            target = SddStore(moved)
            honest = rebind(target, d)
            flip = rng.randint(1, n)
            lit = sdd_from_clause(
                target, (flip if rng.random() < 0.5 else -flip,))
            mutated = sdd_apply(
                "or",
                sdd_apply("and", honest, sdd_negate(lit)),
                sdd_apply("and", sdd_negate(honest), lit))
            for candidate, label, want in ((honest, "honest", True),
                                           (mutated, "mutated", False)):
                passed = _sdd_move_proof(
                    phi, tree, moved, x, w_path, direction, candidate)
                brute = (sdd_truth_mask(candidate, n)
                         == sdd_truth_mask(d, n))
                if passed != want:
                    failures.append("trial %d %s verdict %s"
                                    % (trials, label, passed))
                if passed != brute:
                    failures.append("trial %d %s disagrees with brute force"
                                    % (trials, label))
    except Exception as exc:
        failures.append("raised %r" % (exc,))
    _finish(6, "move verification vs brute force", failures, started, 60.0)


def _obdd_reorder_proof(phi, order1, order2, candidate):
    store = ObddStore(tuple(order1))
    system = ProofSystem("obdd", ("join", "reorder"))
    proof = Proof(system)
    sid = proof.add_structure(tuple(order1))
    acc = obdd_from_clause(store, phi.clauses[0])
    proof.add_init(0, proof.add_diagram(sid, diagram_payload(acc)))
    prev = 1
    for index, clause in enumerate(phi.clauses[1:], start=1):
        dc = obdd_from_clause(store, clause)
        proof.add_init(index, proof.add_diagram(sid, diagram_payload(dc)))
        acc = obdd_apply("and", acc, dc)
        proof.add_join(prev, len(proof.lines),
                       proof.add_diagram(sid, diagram_payload(acc)))
        prev = len(proof.lines)
    new_sid = proof.add_structure(tuple(order2))
    proof.add_reorder(prev, new_sid,
                      proof.add_diagram(new_sid, diagram_payload(candidate)))
    verdict = check_proof(phi, proof)
    if verdict.accepted:
        return True
    final = verdict.failing_line == len(proof.lines)
    return not (final and "reorder" in (verdict.reason or ""))


def test_07_reorder_check_without_weakening():
    started = time.time()
    failures = []
    try:
        rng = random.Random(700)
        trials = 0
        while trials < 100 and not failures:
            n = rng.randint(2, 8)
            phi = _random_cnf(rng, n, rng.randint(1, 2 * n), 3)
            order1 = list(range(1, n + 1))
            order2 = list(range(1, n + 1))
            rng.shuffle(order1)
            rng.shuffle(order2)
            if order1 == order2:
                continue
            trials += 1
            d = _obdd_fold(ObddStore(tuple(order1)), phi)
            target = ObddStore(tuple(order2))
            honest = _obdd_fold(target, phi)
            flip = rng.randint(1, n)
            lit = obdd_from_clause(
                target, (flip if rng.random() < 0.5 else -flip,))
            mutated = obdd_apply(
                "or",
                obdd_apply("and", honest, obdd_negate(lit)),
                obdd_apply("and", obdd_negate(honest), lit))
            for candidate, label in ((honest, "honest"),
                                     (mutated, "mutated")):
                passed = _obdd_reorder_proof(phi, order1, order2, candidate)
                brute = (obdd_truth_mask(candidate, n)
                         == obdd_truth_mask(d, n))
                if passed != brute:
                    failures.append("trial %d %s verdict %s, brute %s"
                                    % (trials, label, passed, brute))
    except Exception as exc:
        failures.append("raised %r" % (exc,))
    _finish(7, "reorder check without weakening", failures, started, 60.0)


def test_08_equality_pipeline_linear_sizes():
    started = time.time()
    failures = []
    try:
        for n in (2, 4, 8, 16):
            proof = obdd_refute_eq(n, 1)
            lifted = lift_Z(eq_formula(n, 1))
            verdict = check_proof(lifted.result, proof)
            if not verdict.accepted:
                failures.append("n=%d rejected: %s" % (n, verdict.reason))
                continue
            peak = verdict.stats["max_diagram_size"]
            if peak != 7 * n + 3:
                failures.append("n=%d peak size %d, envelope 7n+3 gives %d"
                                % (n, peak, 7 * n + 3))
    except Exception as exc:
        failures.append("raised %r" % (exc,))
    _finish(8, "equality pipeline linear sizes", failures, started, 60.0)


def test_09_decomposition_vs_random_orders():
    started = time.time()
    failures = []
    try:
        peaks = {}
        for length in (1, 2, 3):
            phi = vc_formula(grid_family(3, length))
            td = tree_decomposition(primal_graph(phi))
            tree = vtree_from_decomposition(td, phi)
            store = SddStore(tree)
            acc = sdd_from_clause(store, phi.clauses[0])
            peak = sdd_size(acc)
            for clause in phi.clauses[1:]:
                acc = sdd_apply("and", acc, sdd_from_clause(store, clause))
                peak = max(peak, sdd_size(acc))
            peaks[length] = peak
            envelope = 4 * phi.num_vars * 2 ** (length + 1)
            if peak > envelope:
                failures.append("length %d peak %d over envelope %d"
                                % (length, peak, envelope))
        phi = vc_formula(grid_family(3, 3))
        threshold = 2 * peaks[3]
        for seed in range(20):
            order = list(range(1, phi.num_vars + 1))
            random.Random(1000 + seed).shuffle(order)
            store = ObddStore(tuple(order))
            acc = obdd_from_clause(store, phi.clauses[0])
            peak = obdd_size(acc)
            for clause in phi.clauses[1:]:
                acc = obdd_apply("and", acc, obdd_from_clause(store, clause))
                peak = max(peak, obdd_size(acc))
                if peak >= threshold:
                    break
            if peak < threshold:
                failures.append("seed %d peak %d below threshold %d"
                                % (seed, peak, threshold))
    except Exception as exc:
        failures.append("raised %r" % (exc,))
    _finish(9, "decomposition vs random orders", failures, started, 300.0)


def _mutate(proof, phi, kind, rng):
    """Apply one structural mutation in place; returns the formula to
    check against (mutations may target the formula instead)."""
    if kind == "flip_literal":
        ci = rng.randrange(phi.num_clauses)
        clause = list(phi.clauses[ci])
        li = rng.randrange(len(clause))
        clause[li] = -clause[li]
        clauses = list(phi.clauses)
        clauses[ci] = tuple(sorted(set(clause), key=lambda t: (abs(t), t > 0)))
        return cnf(phi.num_vars, clauses)
    if kind == "drop_clause":
        clauses = list(phi.clauses)
        clauses.pop(rng.randrange(len(clauses)))
        if not clauses:
            return None
        for line in proof.lines:
            if line.rule == "init" and line.clause_index >= len(clauses):
                line.clause_index = rng.randrange(len(clauses))
        return cnf(phi.num_vars, clauses)
    if kind == "init_index":
        inits = [i for i, line in enumerate(proof.lines)
                 if line.rule == "init"]
        line = proof.lines[rng.choice(inits)]
        line.clause_index = (line.clause_index + 1) % phi.num_clauses
        return phi
    if kind == "join_ref":
        joins = [i for i, line in enumerate(proof.lines)
                 if line.rule == "join"]
        if not joins:
            return None
        line = proof.lines[rng.choice(joins)]
        line.refs = (line.refs[0], line.refs[0])
        return phi
    if kind == "swap_diagram":
        if len(proof.diagrams) < 2:
            return None
        a, b = rng.sample(sorted(proof.diagrams), 2)
        proof.diagrams[a], proof.diagrams[b] = \
            proof.diagrams[b], proof.diagrams[a]
        return phi
    if kind == "truncate":
        if len(proof.lines) < 2:
            return None
        proof.lines = proof.lines[:-1]
        return phi
    line = proof.lines[rng.randrange(len(proof.lines))]
    if line.rule == "init":
        line.rule = "join"
        line.refs = (max(1, line.n - 1), max(1, line.n - 1))
        line.clause_index = None
    else:
        line.rule = "init"
        line.clause_index = 0
        line.refs = ()
    return phi


def test_10_mutation_soundness():
    started = time.time()
    failures = []
    try:
        import copy

        pool = []
        for phi in (PHI0,
                    lift_Z(cnf(2, [(1,), (-1, 2), (-2,)])).result,
                    lift_Z(cnf(2, [(1, 2), (-1, -2)])).result):
            order = tuple(range(1, phi.num_vars + 1))
            pool.append((phi, naive_conjoin_refute(phi, order)))
            pool.append((phi, naive_conjoin_refute(
                phi, right_linear_vtree(order))))
        kinds = ("flip_literal", "drop_clause", "init_index", "join_ref",
                 "swap_diagram", "truncate", "rule")
        survivors = 0
        for trial in range(1000):
            phi, proof = pool[trial % len(pool)]
            mutated = copy.deepcopy(proof)
            target = _mutate(mutated, phi, kinds[trial % len(kinds)],
                             random.Random(trial))
            if target is None:
                continue
            verdict = check_proof(target, mutated)
            if verdict.accepted:
                survivors += 1
                if brute_force_models(target) > 0:
                    failures.append(
                        "trial %d accepts a satisfiable formula" % trial)
                    break
    except Exception as exc:
        failures.append("raised %r" % (exc,))
    _finish(10, "mutation soundness", failures, started, 300.0)


def test_11_selector_family_restriction():
    started = time.time()
    failures = []
    try:
        seq = seq_formula(2)
        if (seq.num_vars, seq.num_clauses) != (14, 36):
            failures.append("shape %d vars %d clauses, want 14 and 36"
                            % (seq.num_vars, seq.num_clauses))
        if brute_force_models(seq) != 0:
            failures.append("selector formula is satisfiable")
        proof = naive_conjoin_refute(seq, tuple(range(1, 15)))
        if not check_proof(seq, proof).accepted:
            failures.append("refutation of the selector formula rejected")
        for shift in (0, 1):
            assignment = {14: shift}
            restricted = restrict_cnf(seq, assignment)
            expected = lift_Z(eq_formula(2, shift)).result
            if list(restricted.clauses) != list(expected.clauses):
                failures.append("shift %d clauses differ" % shift)
                continue
            narrowed = restrict_proof(seq, proof, assignment)
            verdict = check_proof(restricted, narrowed)
            if not verdict.accepted:
                failures.append("shift %d rejected: %s"
                                % (shift, verdict.reason))
    except Exception as exc:
        failures.append("raised %r" % (exc,))
    _finish(11, "selector family restriction", failures, started, 30.0)
