"""Forgetting the checker's stores never changes what check_proof says.

check_proof forgets each store after the last line that reads one of its
structures: a line reads the structure of its own diagram, of each
in-range reference's diagram and of each certificate, and on a move or
reorder line its structure id.  Equal structures share one store only
while one of their ids is live, so a structure named again after a gap
gets a fresh store.  Every proof below, honest or mutated, gets the same
verdict, failing line, reason and stats as from a session that never
forgets a store: SDD and d-SDNNF move chains, an OBDD reorder line with a
certificate chain, two ids of one structure with a gap between their uses,
an early diagram that a late line reads, and mutants of them.

The last test counts, through weak references to every SDD store the
check builds, the stores still reachable after each line of a long move
chain.
"""

import random
import weakref
from dataclasses import replace

import pytest

from kcproof import proofs
from kcproof.cnf import cnf
from kcproof.proofs import (Proof, ProofSystem, check_proof, diagram_payload,
                            parse_proof, proof_to_text)
from kcproof.refute import fold_backend
from kcproof.sdd import SddStore, rebind
from kcproof.structure import (StructureError, move, node_table, remove_leaf,
                               right_linear_vtree)
from kcproof.zoo import lift_Z, random_regular, tseitin
from test_check_sweep import obdd_reorder_chain, relined


def verdicts(phi, proof):
    """The verdict of proof with store release, and with a session that
    forgets diagrams but never a store."""
    text = proof_to_text(proof)
    released = check_proof(phi, parse_proof(text)).to_json()
    release = proofs._Session.release
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(proofs._Session, "release",
                      lambda session, dids, sids: release(session, dids, ()))
        kept = check_proof(phi, parse_proof(text)).to_json()
    return released, kept


def assert_release_changes_nothing(phi, proof):
    released, kept = verdicts(phi, proof)
    assert released == kept
    return released


# ---------------------------------------------------------------- chains

def tseitin_phi(vertices):
    graph = random_regular(vertices, 3, 1)
    return tseitin(graph, [1] + [0] * (graph.n_vertices - 1))


class Chain:
    """A refutation built a step at a time: clauses folded into one
    accumulated diagram over the current vtree, and moves of that vtree,
    each into a fresh producer store with a rebind.  d-SDNNF diagrams are
    folded as SDDs and exported."""

    def __init__(self, fmt, phi):
        self.phi = phi
        self.backend, self.export = fold_backend(fmt)
        self.proof = Proof(ProofSystem(fmt, ("join", "move")))
        self.tree = right_linear_vtree(tuple(range(1, phi.num_vars + 1)))
        self.sid = self.proof.add_structure(self.tree)
        self.store = SddStore(self.tree)
        self.acc = self.acc_line = None

    def did(self, d):
        return self.proof.add_diagram(self.sid,
                                      diagram_payload(self.export(d)))

    def init(self, index):
        d = self.backend.clause(self.store, self.phi.clauses[index])
        return self.proof.add_init(index, self.did(d))

    def join(self, index, line):
        """Conjoin clause index, whose init is line, into the diagram."""
        d = self.backend.clause(self.store, self.phi.clauses[index])
        if self.acc is None:
            self.acc, self.acc_line = d, line
            return
        self.acc = self.backend.conjoin(self.store, self.acc, d)
        self.acc_line = self.proof.add_join(self.acc_line, line,
                                            self.did(self.acc))

    def fold(self, indices):
        for index in indices:
            self.join(index, self.init(index))

    def move(self, x, w_path, direction, sid=None):
        """Move leaf x; the new vtree is structure sid when one is given
        (a second name for an equal structure), else the proof's own."""
        self.tree = move(self.tree, x, w_path, direction)
        if sid is None:
            self.sid = self.proof.add_structure(self.tree)
        else:
            self.proof.structures[sid] = self.tree
            self.sid = sid
        self.store = SddStore(self.tree)
        self.acc = rebind(self.store, self.acc)
        self.acc_line = self.proof.add_move(
            self.acc_line, x, w_path, direction, self.sid, self.did(self.acc))

    def random_moves(self, count):
        rng = random.Random(1)
        done = 0
        while done < count:
            x = rng.randint(1, self.phi.num_vars)
            w_path = rng.choice(sorted(node_table(remove_leaf(self.tree, x))))
            direction = rng.choice("lr")
            try:
                if move(self.tree, x, w_path, direction) == self.tree:
                    continue
            except StructureError:
                continue
            self.move(x, w_path, direction)
            done += 1

    def move_to(self, target, sid=None):
        """One move that turns the current vtree into target."""
        tree = self.tree
        for x in sorted(tree.variables):
            for w_path in sorted(node_table(remove_leaf(tree, x))):
                for direction in "lr":
                    if move(tree, x, w_path, direction) == target:
                        return self.move(x, w_path, direction, sid)
        raise AssertionError("no single move reaches the target")

    def text_proof(self):
        return parse_proof(proof_to_text(self.proof))


def move_chain(fmt, phi, moves):
    """Fold half the clauses, make seeded moves, fold the rest."""
    chain = Chain(fmt, phi)
    split = phi.num_clauses // 2
    chain.fold(range(split))
    chain.random_moves(moves)
    chain.fold(range(split, phi.num_clauses))
    return chain.proof


def renamed_after_gap(phi):
    """The first vtree as structure 1, a moved vtree as structure 2, then
    the first vtree again as structure 3: no line reads 1 after the first
    move, so 3 gets a fresh store."""
    chain = Chain("sdd", phi)
    first = chain.tree
    third = phi.num_clauses // 3
    chain.fold(range(third))
    chain.random_moves(1)
    chain.fold(range(third, 2 * third))
    chain.move_to(first, sid=len(chain.proof.structures) + 1)
    chain.fold(range(2 * third, phi.num_clauses))
    return chain.text_proof()


def early_reference(phi):
    """The init line of clause 0 opens the proof, over the first vtree,
    and is joined only after two moves that lead back to that vtree, so
    its diagram and store stay live throughout."""
    chain = Chain("sdd", phi)
    first = chain.tree
    early = chain.init(0)
    half = phi.num_clauses // 2
    chain.fold(range(1, half))
    chain.random_moves(1)
    chain.move_to(first)
    chain.join(0, early)
    chain.fold(range(half, phi.num_clauses))
    return chain.proof


# --------------------------------------------------------------- mutants

def dropped_line(proof, k):
    return relined(proof, proof.lines[:k] + proof.lines[k + 1:])


def altered_move(proof):
    """The last move line's diagram replaced by the next line's, a
    different function over the same vtree."""
    k = max(k for k, line in enumerate(proof.lines) if line.rule == "move")
    other = proof.lines[k + 1].diagram_id
    return relined(proof, [replace(line, diagram_id=other) if j == k
                           else line for j, line in enumerate(proof.lines)])


def out_of_range_ref(proof, bad):
    k = next(k for k, line in enumerate(proof.lines) if line.rule == "move")
    return relined(proof, [replace(line, refs=(bad,)) if j == k else line
                           for j, line in enumerate(proof.lines)])


def mutants(proof):
    n = len(proof.lines)
    yield dropped_line(proof, 0)
    yield dropped_line(proof, n // 2)
    yield dropped_line(proof, n - 1)
    yield altered_move(proof)
    for bad in (0, n + 1):
        yield out_of_range_ref(proof, bad)


# ----------------------------------------------------------------- tests

CASES = {
    "sdd-moves": lambda phi: move_chain("sdd", phi, 4),
    "dsdnnf-moves": lambda phi: move_chain("dsdnnf", phi, 3),
    "renamed-after-gap": renamed_after_gap,
    "early-reference": early_reference,
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_honest_chains_and_their_mutants_get_one_verdict(case):
    phi = tseitin_phi(6)
    proof = CASES[case](phi)
    assert any(line.rule == "move" for line in proof.lines)
    assert assert_release_changes_nothing(phi, proof)["accepted"]
    for mutated in mutants(proof):
        assert not assert_release_changes_nothing(phi, mutated)["accepted"]


def test_a_structure_named_again_after_a_gap_gets_a_fresh_store():
    phi = tseitin_phi(6)
    proof = renamed_after_gap(phi)
    assert proof.structures[1] == proof.structures[3]
    built = []
    store = proofs.BACKENDS["sdd"].store
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(proofs.BACKENDS["sdd"], "store",
                      lambda tree: built.append(tree) or store(tree))
        released, kept = verdicts(phi, proof)
    assert released == kept and released["accepted"]
    # released, structure 3 gets a store of its own; kept, it shares the
    # store of structure 1
    assert built.count(proof.structures[1]) == 2 + 1


def test_the_obdd_reorder_chain_gets_one_verdict():
    phi, proof = obdd_reorder_chain(lift_Z(cnf(3, [(1, 2), (-1, 3)])))
    assert any(line.cert_ids for line in proof.lines)
    assert assert_release_changes_nothing(phi, proof)["accepted"]
    reorder = next(line for line in proof.lines if line.rule == "reorder")
    broken = relined(proof, [
        replace(line, cert_ids=(line.diagram_id,)) if line is reorder
        else line for line in proof.lines])
    verdict = assert_release_changes_nothing(phi, broken)
    assert (verdict["failing_line"], verdict["reason"]) == (
        reorder.n, "reorder certificate chain broken at step 1")
    for k in (reorder.n - 2, reorder.n - 1, reorder.n):
        assert not assert_release_changes_nothing(
            phi, dropped_line(proof, k))["accepted"]


def test_at_most_two_sdd_stores_are_reachable_after_any_line():
    phi = tseitin_phi(8)
    proof = parse_proof(proof_to_text(move_chain("sdd", phi, 12)))
    assert sum(line.rule == "move" for line in proof.lines) >= 10
    built = []
    reachable = []
    store = proofs.BACKENDS["sdd"].store
    release = proofs._Session.release

    def counted(session, dids, sids):
        release(session, dids, sids)
        reachable.append(sum(ref() is not None for ref in built))

    def watched(tree):
        made = store(tree)
        built.append(weakref.ref(made))
        return made

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(proofs.BACKENDS["sdd"], "store", watched)
        patch.setattr(proofs._Session, "release", counted)
        verdict = check_proof(phi, proof)
    assert verdict.accepted, verdict.reason
    assert len(built) > 10
    assert len(reachable) == len(proof.lines)
    assert max(reachable) <= 2


def test_a_line_naming_an_unknown_diagram_is_rejected_not_raised():
    """A proof built in memory may name a diagram it lacks: the last-use
    tables skip that diagram's structure, and the line is rejected."""
    phi = tseitin_phi(6)
    proof = move_chain("sdd", phi, 1)
    k = len(proof.lines) // 2
    proof.lines[k] = replace(proof.lines[k],
                             diagram_id=max(proof.diagrams) + 1)
    verdict = check_proof(phi, proof)
    assert verdict.failing_line == k + 1
    assert verdict.reason.startswith("malformed: KeyError")
