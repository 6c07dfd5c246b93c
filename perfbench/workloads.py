"""The four benchmark workloads: their inputs, their producers, and the
command-line path that must agree with the library path.

The seed never changes the cost of a workload, so that runs with different
seeds can be compared.  eq_obdd draws the shift of the equality, which the
producer's interleaved order makes isomorphic for every shift.  dsdnnf_fold
and sdd_moves rename the variables of a fixed instance by a seeded
permutation and order the vtree by the renamed variables, which gives the
same computation under other names.  The sdd_moves graph and moves are fixed
because other graphs and move sequences cost up to eight times more or less.
treewidth_sdd is fixed outright: renaming the grid's vertices changes how
the min-fill decomposition breaks ties, and with it the cost by up to a
fifth.  For every workload the seed also picks the mutants the checker must
reject.
"""

import contextlib
import io
import os
import random

from kcproof.cnf import cnf, parse_dimacs
from kcproof.proofs import (Proof, ProofSystem, check_proof, diagram_payload,
                            parse_proof, proof_to_text)
from kcproof.refute import (naive_conjoin_refute, obdd_refute_eq,
                            treewidth_refute)
from kcproof.sdd import SddStore, rebind, sdd_apply, sdd_from_clause
from kcproof.structure import (StructureError, move, node_table, remove_leaf,
                               right_linear_vtree)
from kcproof.zoo import (eq_formula, grid_family, lift_Z, path,
                         random_regular, tseitin, vc_formula)

EQ_N = 128
TSEITIN_GRAPH_SEED = 1
MOVE_SEED = 1
MOVES = 20


class Instance:
    """What one run works on: the formula the proof must refute, plus the
    producer's own input."""

    def __init__(self, phi, produce_input):
        self.phi = phi
        self.produce_input = produce_input


def _permutation(seed, num_vars):
    image = list(range(1, num_vars + 1))
    random.Random(seed).shuffle(image)
    return dict(zip(range(1, num_vars + 1), image))


def _rename(phi, perm):
    return cnf(phi.num_vars,
               [tuple(perm[abs(lit)] if lit > 0 else -perm[abs(lit)]
                      for lit in clause) for clause in phi.clauses])


def _right_linear(perm):
    return right_linear_vtree(tuple(perm[v] for v in sorted(perm)))


# ------------------------------------------------------------- generation

def _eq_obdd(seed):
    shift = seed % EQ_N
    return Instance(lift_Z(eq_formula(EQ_N, shift)).result, shift)


def _treewidth_sdd(seed):
    base = vc_formula(grid_family(2, 2))
    return Instance(lift_Z(base).result, base)


def _dsdnnf_fold(seed):
    phi = lift_Z(vc_formula(path(4))).result
    perm = _permutation(seed, phi.num_vars)
    return Instance(_rename(phi, perm), _right_linear(perm))


def _sdd_moves(seed):
    graph = random_regular(10, 3, TSEITIN_GRAPH_SEED)
    phi = tseitin(graph, [1] + [0] * (graph.n_vertices - 1))
    perm = _permutation(seed, phi.num_vars)
    return Instance(_rename(phi, perm), _right_linear(perm))


# -------------------------------------------------------------- producers

def _fold(proof, sid, store, clauses, start, acc, acc_line):
    for index, clause in enumerate(clauses, start=start):
        d = sdd_from_clause(store, clause)
        line = proof.add_init(index, proof.add_diagram(sid, diagram_payload(d)))
        if acc is None:
            acc, acc_line = d, line
        else:
            acc = sdd_apply("and", acc, d)
            acc_line = proof.add_join(
                acc_line, line, proof.add_diagram(sid, diagram_payload(acc)))
    return acc, acc_line


def move_proof(phi, tree):
    """Fold two thirds of the clauses, re-express the result over MOVES
    seeded single-variable moves of the vtree (a fresh store and a rebind
    each), then fold the rest of the clauses to false.  No producer in
    kcproof.refute emits move lines, so this one uses the Proof API."""
    proof = Proof(ProofSystem("sdd", ("join", "move")))
    store = SddStore(tree)
    sid = proof.add_structure(tree)
    split = 2 * phi.num_clauses // 3
    acc, acc_line = _fold(proof, sid, store, phi.clauses[:split], 0,
                          None, None)
    labels = tree.leaves_in_order()
    rng = random.Random(MOVE_SEED)
    moves = 0
    while moves < MOVES:
        # draws index the starting order, so renamed instances move alike
        x = labels[rng.randint(1, len(labels)) - 1]
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
        moves += 1
    _fold(proof, sid, store, phi.clauses[split:], split, acc, acc_line)
    return proof


WORKLOADS = {
    "eq_obdd": (_eq_obdd, lambda inst: obdd_refute_eq(EQ_N, inst.produce_input)),
    "treewidth_sdd": (_treewidth_sdd,
                      lambda inst: treewidth_refute(inst.produce_input)[0]),
    "dsdnnf_fold": (_dsdnnf_fold, lambda inst: naive_conjoin_refute(
        inst.phi, inst.produce_input, "dsdnnf")),
    "sdd_moves": (_sdd_moves, lambda inst: move_proof(inst.phi,
                                                      inst.produce_input)),
}


def generate(workload, seed):
    return WORKLOADS[workload][0](seed)


def produce(workload, instance):
    """Formula to proof text: the producer plus the text format."""
    return proof_to_text(WORKLOADS[workload][1](instance))


def check(phi, text):
    """Proof text to verdict: parsing plus replay."""
    proof = parse_proof(text)
    return proof, check_proof(phi, proof)


# ---------------------------------------------------- command-line agreement

def cli_agreement(directory):
    """Run dsdnnf_fold's unrenamed instance through ``kcp gen vc-path``,
    ``kcp lift z``, ``kcp refute --method naive --format dsdnnf`` and
    ``kcp check``, and through the library; return both proofs, both
    formulas, the check exit code and the library verdict."""
    from kcproof.cli import main  # only this check needs the command line

    base, lifted, proof_path = (os.path.join(directory, name) for name in
                                ("cli-base.cnf", "cli-lifted.cnf",
                                 "cli-proof.kcp"))
    codes = []
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(["gen", "vc-path", "--l", "4", "-o", base]))
        codes.append(main(["lift", "z", base, "-o", lifted]))
        codes.append(main(["refute", lifted, "--method", "naive",
                           "--format", "dsdnnf", "-o", proof_path]))
        codes.append(main(["check", lifted, proof_path]))
    with open(lifted) as handle:
        cli_phi = parse_dimacs(handle.read())
    with open(proof_path) as handle:
        cli_text = handle.read()
    phi = lift_Z(vc_formula(path(4))).result
    identity = {v: v for v in range(1, phi.num_vars + 1)}
    lib_text = proof_to_text(naive_conjoin_refute(
        phi, _right_linear(identity), "dsdnnf"))
    _, verdict = check(phi, lib_text)
    return {"codes": codes, "cli_text": cli_text, "lib_text": lib_text,
            "same_formula": cli_phi.clauses == phi.clauses
            and cli_phi.num_vars == phi.num_vars,
            "lib_accepted": verdict.accepted}
