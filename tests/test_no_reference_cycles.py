"""No producer, writer, parser or checker call leaves a reference cycle.

A nested function that calls itself holds itself through its closure, so
each call that defines one leaves a cycle behind, and that cycle keeps
whatever the function closes over, often a whole store, alive until the
cyclic collector runs.  With the collector off and `gc.DEBUG_SAVEALL`
set, one collection after the calls puts every unreachable object into
`gc.garbage`; no function of the package may be among them.
"""

import gc
import types

from kcproof.cnf import cnf
from kcproof.proofs import (Proof, ProofSystem, check_proof, diagram_payload,
                            parse_proof, proof_to_text)
from kcproof.refute import naive_conjoin_refute, obdd_refute_eq, \
    treewidth_refute
from kcproof.sdd import SddStore, rebind, sdd_apply, sdd_from_clause
from kcproof.structure import move, right_linear_vtree
from kcproof.zoo import eq_formula, lift_Z, path, vc_formula

# (x1 or x2) (not x1 or x2) (not x2 or x3) (not x3)
PHI = cnf(3, [(1, 2), (-1, 2), (-2, 3), (-3,)])
# single-leaf moves (x, w_path, direction) applied in turn to x1 x2 x3
MOVES = ((3, "L", "l"), (1, "R", "r"))


def move_proof():
    """The first two clauses folded, carried through MOVES by rebind, and
    joined with the last two clauses down to false."""
    tree = right_linear_vtree((1, 2, 3))
    proof = Proof(ProofSystem("sdd", ("join", "move")))
    store, sid = SddStore(tree), proof.add_structure(tree)
    acc = acc_line = None
    for index, clause in enumerate(PHI.clauses):
        if index == 2:
            for x, w_path, direction in MOVES:
                tree = move(tree, x, w_path, direction)
                store, sid = SddStore(tree), proof.add_structure(tree)
                acc = rebind(store, acc)
                acc_line = proof.add_move(
                    acc_line, x, w_path, direction, sid,
                    proof.add_diagram(sid, diagram_payload(acc)))
        d = sdd_from_clause(store, clause)
        line = proof.add_init(index, proof.add_diagram(sid,
                                                       diagram_payload(d)))
        if acc is None:
            acc, acc_line = d, line
            continue
        acc = sdd_apply("and", acc, d)
        acc_line = proof.add_join(acc_line, line,
                                  proof.add_diagram(sid, diagram_payload(acc)))
    # a vtree with another leaf set takes the node-by-node rebuild
    rebind(SddStore(right_linear_vtree((3, 4, 1, 2))), acc)
    return PHI, proof


def naive_fold(fmt):
    lifted = lift_Z(vc_formula(path(3))).result
    order = tuple(range(1, lifted.num_vars + 1))
    structure = order if fmt == "obdd" else right_linear_vtree(order)
    return lifted, naive_conjoin_refute(lifted, structure, fmt)


def treewidth():
    phi = vc_formula(path(3))
    return lift_Z(phi).result, treewidth_refute(phi)[0]


def equality():
    return lift_Z(eq_formula(4, 1)).result, obdd_refute_eq(4, 1)


PRODUCERS = [lambda fmt=fmt: naive_fold(fmt)
             for fmt in ("obdd", "sdd", "dsdnnf")] \
    + [treewidth, move_proof, equality]


def cyclic_garbage(calls):
    """Functions of the package among the unreachable objects the calls
    leave behind."""
    collecting, debug = gc.isenabled(), gc.get_debug()
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for call in calls:
            call()
        gc.collect()
        return sorted({obj.__qualname__ for obj in gc.garbage
                       if isinstance(obj, types.FunctionType)
                       and (obj.__module__ or "").startswith("kcproof")})
    finally:
        gc.set_debug(debug)
        gc.garbage.clear()
        if collecting:
            gc.enable()


def produce_write_parse_check(producer):
    phi, proof = producer()
    verdict = check_proof(phi, parse_proof(proof_to_text(proof)))
    assert verdict.accepted, verdict.reason


def test_no_call_leaves_a_function_in_a_cycle():
    calls = [lambda producer=producer: produce_write_parse_check(producer)
             for producer in PRODUCERS]
    assert cyclic_garbage(calls) == []
