"""`kcproof.proofs` is the checker module.

Every function it defines is either entered while the trusted-base
proofs of `test_trusted_base.py` are parsed and checked, or is named on
one allow-list of writer, builder and producer-side code.  Producers,
proof transformations and the resolution format live in other modules,
and importing the checker loads none of them.
"""

import gc
import inspect
import os
import subprocess
import sys

import kcproof
import kcproof.proofs as proofs
from kcproof.proofs import check_proof, parse_proof
from test_trusted_base import PHI, RULE_SETS, proof_text

# functions of kcproof.proofs that parsing and checking never enter
NOT_ENTERED = {
    # the writer: proof text, payloads and structure text
    "_line_text", "proof_to_lines", "proof_to_text", "diagram_payload",
    "backend_of", "_Backend.structure_text", "_ObddBackend.structure_text",
    "_ObddBackend.lines", "_SddBackend.lines", "_DsdnnfBackend.lines",
    # the builders producers fill a proof with
    "Proof._append", "Proof.add_structure", "Proof.add_diagram",
    "Proof.add_init", "Proof.add_join", "Proof.add_weaken",
    "Proof.add_move", "Proof.add_reorder",
    # backend methods that only producers and the command line call
    "_ObddBackend.true", "_ObddBackend.rebase", "_SddBackend.clause",
    "_SddBackend.conjoin", "_SddBackend.rebase", "_DsdnnfBackend.true",
    "_DsdnnfBackend.clause", "_DsdnnfBackend.conjoin",
    "_DsdnnfBackend.rebase",
    # verdict reporting, read by the command line
    "Verdict.resource", "Verdict.to_json",
}


def defined_functions():
    """Code object -> qualified name of every function, method and nested
    function written in kcproof.proofs; comprehensions and generated
    dataclass methods are not counted."""
    found = {}

    def visit(code, name):
        if code.co_name.startswith("<"):
            return
        found[code] = name
        for const in code.co_consts:
            if inspect.iscode(const):
                visit(const, name + "." + const.co_name)

    for name, value in vars(proofs).items():
        members = [(name, value)]
        if inspect.isclass(value) and value.__module__ == proofs.__name__:
            members = [(name + "." + attr, member)
                       for attr, member in vars(value).items()]
        for qualname, member in members:
            if isinstance(member, property):
                member = member.fget
            if inspect.isfunction(member) \
                    and member.__code__.co_filename == proofs.__file__:
                visit(member.__code__, qualname)
    return found


def entered_code(text):
    """Code objects entered while the proof text is parsed and checked
    against PHI; the proof must be accepted."""
    entered = set()

    def hook(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

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


def test_every_checker_module_function_is_entered_or_allowed():
    entered = set()
    for fmt, rule_sets in RULE_SETS.items():
        for rules in rule_sets:
            entered |= entered_code(proof_text(fmt, rules))
    defined = defined_functions()
    not_entered = {name for code, name in defined.items()
                   if code not in entered}
    assert not_entered - NOT_ENTERED == set(), \
        "neither checker nor writer code"
    assert NOT_ENTERED - not_entered == set(), \
        "allowed but entered by a check, or not defined"


def test_a_checker_import_loads_no_producer_or_resolution_module():
    code = ("import sys, kcproof.proofs; print(sorted(m for m in sys.modules"
            " if m in ('kcproof.refute', 'kcproof.resolution',"
            " 'kcproof.zoo', 'kcproof.cli')))")
    # the package this test imported, wherever it was found
    root = os.path.dirname(os.path.dirname(kcproof.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (root, os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"
