"""The trusted base: what parsing and checking a proof runs.

For each format, accepted proofs that use every rule the format allows
are parsed and checked under a profile hook.  The functions entered must
lie in `kcproof.cnf`, `kcproof.structure`, `kcproof.proofs` and the
format's own diagram module, and never in a producer-only function.  A
checker-only import must load no producer or command-line module.
"""

import gc
import os
import subprocess
import sys

import pytest

import kcproof
from kcproof.cnf import cnf
from kcproof.proofs import (BACKENDS, Proof, ProofSystem, check_proof,
                            diagram_payload, parse_proof, proof_to_text)
from kcproof.refute import fold_backend, fold_trace
from kcproof.structure import vtree_leaf, vtree_node

PHI = cnf(3, [(1, 2), (-1, 2), (-2, 3), (-3,)])
TREE = vtree_node(vtree_node(vtree_leaf(1), vtree_leaf(2)), vtree_leaf(3))
# per format: the structure of the first lines, the move (x, w_path,
# direction) applied to it, and the structure a reorder line goes to
SETUPS = {
    "obdd": ((1, 2, 3), (1, "R", "l"), (3, 2, 1)),
    "sdd": (TREE, (3, "L", "l"),
            vtree_node(vtree_leaf(1), vtree_node(vtree_leaf(2),
                                                 vtree_leaf(3)))),
}
SETUPS["dsdnnf"] = SETUPS["sdd"]
# one move from the moved order (2, 1, 3) and one from (3, 2, 1)
CERT_ORDER = (2, 3, 1)
# every reorder line of an sdd or dsdnnf proof is checked without
# weakening, so those formats need two proofs to use every rule
RULE_SETS = {
    "obdd": (("join", "weaken", "move"), ("join", "reorder", "move"),
             ("join", "weaken", "reorder", "move")),
    "sdd": (("join", "weaken", "move"), ("join", "reorder", "move")),
}
RULE_SETS["dsdnnf"] = RULE_SETS["sdd"]

PRODUCER_ONLY = {"rebind", "insert_leaf", "sdd_to_dsdnnf", "clause_circuit",
                 "fold_clauses", "fold_trace", "diagram_payload",
                 "obdd_move_var"}


def proof_text(fmt, rules):
    """x1 or x2 and not x1 or x2 joined, weakened to x2 or x3 when the
    rules allow, moved, reordered when the rules allow, and joined with
    the two other clauses to false on the last structure."""
    start, (x, w_path, direction), target = SETUPS[fmt]
    moved, _ = BACKENDS[fmt].moved(start, x, w_path, direction)
    backend, export = fold_backend(fmt)
    proof = Proof(ProofSystem(fmt, rules))

    def diagram(structure, clauses):
        sid = proof.add_structure(structure)
        d, _ = fold_trace(backend, backend.store(structure), clauses)
        return sid, proof.add_diagram(sid, diagram_payload(export(d)))

    def init(j, structure):
        return proof.add_init(j, diagram(structure, [PHI.clauses[j]])[1])

    clauses = list(PHI.clauses[:2])
    line = proof.add_join(init(0, start), init(1, start),
                          diagram(start, clauses)[1])
    if "weaken" in rules:
        clauses = [(2, 3)]
        line = proof.add_weaken(line, diagram(start, clauses)[1])
    line = proof.add_move(line, x, w_path, direction,
                          *diagram(moved, clauses))
    end = moved
    if "reorder" in rules:
        certs = [diagram(CERT_ORDER, clauses)[1]] if "weaken" in rules \
            else []
        line = proof.add_reorder(line, *diagram(target, clauses), certs)
        end = target
    for j in (2, 3):
        clauses.append(PHI.clauses[j])
        line = proof.add_join(line, init(j, end), diagram(end, clauses)[1])
    return proof_to_text(proof)


def reached(text):
    """(module, function) of every Python function entered while the
    proof text is parsed and checked against PHI; the proof must be
    accepted."""
    entered = set()

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            entered.add((frame.f_globals.get("__name__"),
                         getattr(code, "co_qualname", code.co_name)))

    # no collection, so no finalizer of another test's garbage runs here
    collecting = gc.isenabled()
    gc.disable()
    sys.setprofile(hook)
    try:
        verdict = check_proof(PHI, parse_proof(text))
    finally:
        sys.setprofile(None)
        if collecting:
            gc.enable()
    assert verdict.accepted, verdict.reason
    return entered


@pytest.mark.parametrize("fmt", sorted(SETUPS))
def test_checking_enters_only_the_format_and_shared_modules(fmt):
    entered = set()
    rules_used = set()
    for rules in RULE_SETS[fmt]:
        text = proof_text(fmt, rules)
        rules_used |= {line.rule for line in parse_proof(text).lines}
        entered |= reached(text)
    assert rules_used == {"init", "join", "weaken", "move", "reorder"}
    allowed = {"kcproof.cnf", "kcproof.structure", "kcproof.proofs",
               "kcproof." + fmt}
    modules = {module for module, _ in entered}
    assert modules <= allowed
    assert "kcproof.proofs" in modules and "kcproof." + fmt in modules
    names = {name.rsplit(".", 1)[-1] for _, name in entered}
    assert not names & PRODUCER_ONLY


def test_a_checker_import_loads_no_producer_or_command_line_module():
    code = ("import sys, kcproof.proofs; print(sorted(m for m in sys.modules"
            " if m in ('kcproof.refute', 'kcproof.zoo', 'kcproof.cli')))")
    # the package this test imported, wherever it was found
    root = os.path.dirname(os.path.dirname(kcproof.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (root, os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"
