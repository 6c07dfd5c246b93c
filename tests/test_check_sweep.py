"""Sweeping the checker's stores never changes what check_proof says.

check_proof forgets each parsed diagram after the last line that reads
it, and sweeps a store once the store holds COLLECT_FACTOR times the
nodes its last sweep kept, and at least COLLECT_FLOOR nodes.  With both
constants at 0 it sweeps every store after every line; with the floor
out of reach it never sweeps.  Every proof below, honest or mutated, gets
the same verdict, failing line, reason and stats all three ways: proofs
of random small CNFs from every producer in all three formats, an SDD
proof with move lines, an OBDD reorder line with a certificate chain,
and mutants of them.

The second group checks the stores after every sweep: every child of a
held node is held, the unique table and the node table name the same
nodes, every true_at and false_at node is held, and no cache, count or
embedding entry names a freed id.
"""

import math
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from kcproof import proofs
from kcproof.cnf import cnf
from kcproof.obdd import (ObddStore, obdd_apply, obdd_from_clause,
                          obdd_from_lines, obdd_to_lines)
from kcproof.proofs import (BACKENDS, Proof, ProofSystem, check_proof,
                            diagram_payload, parse_proof, proof_to_text)
from kcproof.refute import (compilation_to_refutation, fold_trace,
                            naive_conjoin_refute, obdd_refute_eq,
                            resolution_refute_lifted, treewidth_refute)
from kcproof.sdd import SddStore, rebind, sdd_apply, sdd_from_clause
from kcproof.structure import (StructureError, move, node_table, remove_leaf,
                               right_linear_vtree)
from kcproof.zoo import eq_formula, lift_C, lift_Z
from oracles import (obdd_move_var, obdd_total_size, resolution_to_obddw,
                     restrict_cnf, restrict_proof)

NEVER = (math.inf, 2)
DEFAULT = (proofs.COLLECT_FLOOR, proofs.COLLECT_FACTOR)
ALWAYS = (0, 0)


def verdict_with(phi, text, floor, factor):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(proofs, "COLLECT_FLOOR", floor)
        patch.setattr(proofs, "COLLECT_FACTOR", factor)
        return check_proof(phi, parse_proof(text)).to_json()


def assert_sweeps_change_nothing(phi, proof):
    """The verdict of proof with no sweep, which both sweeping runs match."""
    text = proof_to_text(proof)
    reference = verdict_with(phi, text, *NEVER)
    assert verdict_with(phi, text, *DEFAULT) == reference
    assert verdict_with(phi, text, *ALWAYS) == reference
    return reference


# -------------------------------------------------------------- producers

def natural(phi, fmt):
    order = tuple(range(1, phi.num_vars + 1))
    return order if fmt == "obdd" else right_linear_vtree(order)


def naive(fmt, of_base=False):
    def produce(lifted):
        phi = lifted.base if of_base else lifted.result
        return phi, naive_conjoin_refute(phi, natural(phi, fmt), fmt)
    return produce


def compile2ref(fmt):
    def produce(lifted):
        backend = BACKENDS[fmt]
        store = backend.store(natural(lifted.result, fmt))
        _, trace = fold_trace(backend, store, lift_C(lifted.base).clauses)
        return lifted.result, compilation_to_refutation(trace, lifted)
    return produce


def resolution(lifted):
    phi = lifted.result
    return phi, resolution_to_obddw(phi, resolution_refute_lifted(lifted))


def restricted(lifted):
    phi = lifted.result
    proof = naive_conjoin_refute(phi, natural(phi, "sdd"), "sdd")
    assignment = {1: 0}
    return restrict_cnf(phi, assignment), \
        restrict_proof(phi, proof, assignment)


def sdd_moves(lifted, seed=1, moves=3):
    """Fold half the clauses, move seeded leaves with a rebind each, then
    fold the rest."""
    phi = lifted.result
    tree = natural(phi, "sdd")
    proof = Proof(ProofSystem("sdd", ("join", "move")))
    store, sid = SddStore(tree), proof.add_structure(tree)
    rng = random.Random(seed)
    acc = acc_line = None

    def fold(indices):
        nonlocal acc, acc_line
        for index in indices:
            d = sdd_from_clause(store, phi.clauses[index])
            line = proof.add_init(index, proof.add_diagram(
                sid, diagram_payload(d)))
            if acc is None:
                acc, acc_line = d, line
                continue
            acc = sdd_apply("and", acc, d)
            acc_line = proof.add_join(acc_line, line, proof.add_diagram(
                sid, diagram_payload(acc)))

    split = phi.num_clauses // 2
    fold(range(split))
    done = 0
    while done < moves:
        x = rng.randint(1, phi.num_vars)
        w_path = rng.choice(sorted(node_table(remove_leaf(tree, x))))
        direction = rng.choice("lr")
        try:
            moved = move(tree, x, w_path, direction)
        except StructureError:
            continue
        if moved == tree:
            continue
        tree, store = moved, SddStore(moved)
        sid = proof.add_structure(tree)
        acc = rebind(store, acc)
        acc_line = proof.add_move(acc_line, x, w_path, direction, sid,
                                  proof.add_diagram(sid, diagram_payload(acc)))
        done += 1
    fold(range(split, phi.num_clauses))
    return phi, proof


def obdd_reorder_chain(lifted):
    """Fold half the clauses over 1..n, reorder the conjunction by two
    single-variable moves, the middle diagram as its certificate, then
    fold the rest over the new order."""
    phi = lifted.result
    n = phi.num_vars
    proof = Proof(ProofSystem("obdd", ("join", "weaken", "reorder")))
    order = tuple(range(1, n + 1))
    store, sid = ObddStore(order), proof.add_structure(order)
    acc = acc_line = None

    def fold(indices):
        nonlocal acc, acc_line
        for index in indices:
            d = obdd_from_clause(store, phi.clauses[index])
            line = proof.add_init(index, proof.add_diagram(
                sid, diagram_payload(d)))
            if acc is None:
                acc, acc_line = d, line
                continue
            acc = obdd_apply("and", acc, d)
            acc_line = proof.add_join(acc_line, line, proof.add_diagram(
                sid, diagram_payload(acc)))

    split = phi.num_clauses // 2
    fold(range(split))
    middle = obdd_move_var(acc, 1, n - 1)
    acc = obdd_move_var(middle, 2, n - 1)
    store = acc.store
    cert = proof.add_diagram(proof.add_structure(middle.store.order),
                             diagram_payload(middle))
    sid = proof.add_structure(store.order)
    acc_line = proof.add_reorder(acc_line, sid, proof.add_diagram(
        sid, diagram_payload(acc)), cert_ids=(cert,))
    fold(range(split, phi.num_clauses))
    return phi, proof


PRODUCERS = {
    "naive-obdd": naive("obdd"),
    "naive-sdd": naive("sdd"),
    "naive-dsdnnf": naive("dsdnnf"),
    "naive-base-obdd": naive("obdd", of_base=True),
    "naive-base-sdd": naive("sdd", of_base=True),
    "compile2ref-obdd": compile2ref("obdd"),
    "compile2ref-sdd": compile2ref("sdd"),
    "treewidth": lambda lifted: (lifted.result,
                                 treewidth_refute(lifted.base)[0]),
    "resolution": resolution,
    "restrict": restricted,
    "sdd-moves": sdd_moves,
    "obdd-reorder-chain": obdd_reorder_chain,
}

formulas = st.integers(min_value=2, max_value=4).flatmap(
    lambda n: st.builds(
        lambda clauses: cnf(n, clauses),
        st.lists(
            st.dictionaries(st.integers(1, n), st.sampled_from((1, -1)),
                            min_size=1, max_size=3).map(
                lambda signs: [var * sign for var, sign in signs.items()]),
            min_size=1, max_size=4)))


# ---------------------------------------------------------------- mutants

def relined(proof, lines):
    """A copy of proof with the given lines, numbered from 1."""
    out = parse_proof(proof_to_text(proof))
    out.lines = [replace(line, n=n) for n, line in enumerate(lines, 1)]
    return out


def dropped_line(proof, pick):
    k = pick % len(proof.lines)
    return relined(proof, proof.lines[:k] + proof.lines[k + 1:])


def altered_join(proof, pick):
    joins = [line for line in proof.lines if line.rule == "join"]
    if not joins:
        return None
    target = joins[pick % len(joins)]
    other = proof.lines[target.refs[0] - 1].diagram_id
    return relined(proof, [replace(line, diagram_id=other)
                           if line is target else line
                           for line in proof.lines])


def out_of_range_ref(proof, pick):
    referring = [line for line in proof.lines if line.refs]
    if not referring:
        return None
    target = referring[pick % len(referring)]
    bad = (0, target.n, len(proof.lines) + 1)[pick % 3]
    return relined(proof, [replace(line, refs=(bad,) + line.refs[1:])
                           if line is target else line
                           for line in proof.lines])


def shared_diagram(proof, pick):
    if len(proof.lines) < 2:
        return None
    k = 1 + pick % (len(proof.lines) - 1)
    j = pick % k
    did = proof.lines[j].diagram_id
    return relined(proof, [replace(line, diagram_id=did) if n == k else line
                           for n, line in enumerate(proof.lines)])


MUTANTS = {
    "dropped-line": dropped_line,
    "altered-join": altered_join,
    "out-of-range-ref": out_of_range_ref,
    "shared-diagram": shared_diagram,
}


# ------------------------------------------------------------------ tests

@pytest.mark.parametrize("producer", sorted(PRODUCERS))
@settings(deadline=None, max_examples=15)
@given(base=formulas)
def test_honest_proofs_get_one_verdict(producer, base):
    phi, proof = PRODUCERS[producer](lift_Z(base))
    assert_sweeps_change_nothing(phi, proof)


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
@pytest.mark.parametrize("producer", sorted(PRODUCERS))
@settings(deadline=None, max_examples=8)
@given(base=formulas, pick=st.integers(min_value=0, max_value=10 ** 6))
def test_mutants_get_one_verdict(producer, mutant, base, pick):
    phi, proof = PRODUCERS[producer](lift_Z(base))
    mutated = MUTANTS[mutant](proof, pick)
    if mutated is not None:
        assert_sweeps_change_nothing(phi, mutated)


@pytest.mark.parametrize("producer", sorted(PRODUCERS))
def test_every_payload_is_parsed_once(producer):
    """A diagram is forgotten only after the last line that reads it, so
    no payload is parsed a second time, however often the stores sweep."""
    phi, proof = PRODUCERS[producer](lift_Z(cnf(3, [(1, 2), (-1, 3)])))
    proof = parse_proof(proof_to_text(proof))
    backend = BACKENDS[proof.system.format]
    parsed = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(proofs, "COLLECT_FLOOR", 0)
        patch.setattr(proofs, "COLLECT_FACTOR", 0)
        patch.setattr(backend, "parse", lambda store, pieces, cap, parse=(
            backend.parse): parsed.append(pieces) or parse(store, pieces, cap))
        verdict = check_proof(phi, proof)
    # the base is satisfiable, so its own proofs fail at their last line
    assert verdict.failing_line in (None, len(proof.lines))
    read = {did for line in proof.lines
            for did in (line.diagram_id,) + line.cert_ids}
    assert len(parsed) == len(read)


def test_the_reorder_chain_is_accepted_and_its_mutants_rejected():
    phi, proof = obdd_reorder_chain(lift_Z(cnf(3, [(1, 2), (-1, 3)])))
    assert any(line.cert_ids for line in proof.lines)
    assert assert_sweeps_change_nothing(phi, proof)["accepted"]
    reorder = next(line for line in proof.lines if line.rule == "reorder")
    # with the line's own diagram as its certificate, the first step
    # spans both moves
    broken = relined(proof, [
        replace(line, cert_ids=(line.diagram_id,)) if line is reorder
        else line for line in proof.lines])
    verdict = assert_sweeps_change_nothing(phi, broken)
    assert (verdict["failing_line"], verdict["reason"]) == (
        reorder.n, "reorder certificate chain broken at step 1")


def test_the_eq_refutation_sweeps_by_default():
    phi = lift_Z(eq_formula(64, 3)).result
    proof = obdd_refute_eq(64, 3)
    swept = []
    collect = ObddStore.collect
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ObddStore, "collect",
                      lambda store, roots: swept.append(1)
                      or collect(store, roots))
        verdict = assert_sweeps_change_nothing(phi, proof)
    assert verdict["accepted"]
    assert swept


# -------------------------------------------------------- store invariants

def assert_obdd_store_sound(store):
    nodes = store.nodes
    held = {u for u in range(2, len(nodes)) if nodes[u] is not None}
    assert {u: nodes[u] for u in held} == \
        {u: key for key, u in store.unique.items()}
    for u in held:
        _, lo, hi = nodes[u]
        assert lo < 2 or lo in held
        assert hi < 2 or hi in held
    named = held | {store.FALSE, store.TRUE}
    for key, u in store.cache.items():
        assert {key[1], key[-1], u} <= named


def assert_sdd_store_sound(store):
    nodes = store.nodes
    held = {t for t in range(len(nodes)) if nodes[t] is not None}
    assert held == {t for t in range(len(nodes))
                    if store.node_path[t] is not None}
    assert {t: nodes[t] for t in held} == \
        {t: descriptor for descriptor, t in store.unique.items()}
    for t in held:
        if nodes[t][0] == "dec":
            for prime, sub in nodes[t][2]:
                assert {prime, sub} <= held
    assert set(store._true_at.values()) <= held
    assert set(store._false_at.values()) <= held
    for key, t in store.cache.items():
        assert {key[1], key[-1], t} <= held
    assert set(store.counts) <= held
    assert set(store._embedded.values()) <= held


def checked_sweeps(phi, proof, monkeypatch):
    """Check proof with a sweep after every line, asserting the store
    invariants after each; the number of sweeps run."""
    sweeps = []
    for cls, sound in ((ObddStore, assert_obdd_store_sound),
                       (SddStore, assert_sdd_store_sound)):
        def checked(store, roots, collect=cls.collect, sound=sound):
            roots = list(roots)
            collect(store, roots)
            sound(store)
            sweeps.append(store)
        monkeypatch.setattr(cls, "collect", checked)
    monkeypatch.setattr(proofs, "COLLECT_FLOOR", 0)
    monkeypatch.setattr(proofs, "COLLECT_FACTOR", 0)
    verdict = check_proof(phi, parse_proof(proof_to_text(proof)))
    assert verdict.accepted, verdict.reason
    return len(sweeps)


@pytest.mark.parametrize("producer", ["naive-obdd", "naive-sdd",
                                      "compile2ref-obdd", "compile2ref-sdd",
                                      "treewidth", "resolution", "sdd-moves",
                                      "obdd-reorder-chain"])
def test_every_sweep_leaves_a_sound_store(producer, monkeypatch):
    base = cnf(4, [(1, 2), (-2, 3), (-3, -4), (1, 4)])
    phi, proof = PRODUCERS[producer](lift_Z(base))
    assert checked_sweeps(phi, proof, monkeypatch) >= len(proof.lines)


def test_the_eq_refutation_sweeps_soundly(monkeypatch):
    phi = lift_Z(eq_formula(8, 3)).result
    proof = obdd_refute_eq(8, 3)
    assert checked_sweeps(phi, proof, monkeypatch) == len(proof.lines)


def test_a_sweep_keeps_the_roots_and_frees_the_rest():
    store = ObddStore((1, 2, 3))
    a = obdd_from_clause(store, (1, 2))
    b = obdd_from_clause(store, (-2, 3))
    both = obdd_apply("and", a, b)
    store.collect([both.node])
    assert store.nodes[a.node] is None
    assert store.nodes[both.node] is not None
    assert_obdd_store_sound(store)
    # ids are never reused: a rebuilt clause takes a fresh id
    again = obdd_from_clause(store, (1, 2))
    assert again.node == len(store.nodes) - 1 > a.node
    assert obdd_apply("and", again, b).node == both.node


def test_a_sweep_drops_the_results_it_frees():
    store = ObddStore((1, 2, 3))
    a = obdd_from_clause(store, (1, 2))
    b = obdd_from_clause(store, (-2, 3))
    both = obdd_apply("and", a, b)
    store.collect([a.node, b.node])
    assert store.nodes[both.node] is None
    assert_obdd_store_sound(store)
    assert store.nodes[obdd_apply("and", a, b).node] is not None


def test_an_sdd_sweep_drops_the_entries_it_frees():
    store = SddStore(right_linear_vtree((1, 2, 3, 4)))
    a = sdd_from_clause(store, (1, 2))
    b = sdd_from_clause(store, (-2, 3))
    both = sdd_apply("and", a, b)
    store.count(both.node)
    negated = store.negate(a.node)
    store.collect([a.node, b.node])
    assert store.nodes[both.node] is None
    assert store.nodes[negated] is None
    assert both.node not in store.counts
    assert_sdd_store_sound(store)
    again = sdd_apply("and", a, b)
    assert store.nodes[again.node] is not None
    assert store.count(again.node) == 8


# ------------------------------------------------- OBDD size from the parse

@settings(deadline=None, max_examples=60)
@given(base=formulas, extra=st.booleans())
def test_the_parsed_size_is_the_reachable_size(base, extra):
    order = tuple(range(1, base.num_vars + 1))
    store = ObddStore(order)
    d = BACKENDS["obdd"].true(store)
    for clause in base.clauses:
        d = obdd_apply("and", d, obdd_from_clause(store, clause))
    lines = obdd_to_lines(d)
    if extra:
        # a statement no other names, one for a held node under a new
        # label, and one that collapses onto its child
        lines[:0] = ["n dangling %d T F" % order[-1],
                     "n again %d F T" % order[-1],
                     "n same %d F F" % order[0]]
    fresh = ObddStore(order)
    parsed, size = obdd_from_lines(fresh, lines, sized=True)
    assert size == obdd_total_size(parsed)
    assert obdd_from_lines(fresh, lines).node == parsed.node
