"""One recursion per job in the SDD store, the d-SDNNF export and the
vtree builders, and the check cap that `kcp extract` honours.

Node and gate ids are part of every proof's bytes, so the order in which
the constants are built and the gates of a restricted d-SDNNF proof are
pinned.  Only the two d-SDNNF product loops, which release their
self-reference before they return, may be nested functions that call
themselves.
"""

import contextlib
import hashlib
import io
import types

import pytest

from kcproof import cli, dsdnnf, proofs, sdd, structure
from kcproof.proofs import check_proof, proof_to_text
from kcproof.refute import naive_conjoin_refute
from kcproof.sdd import (SddError, SddStore, drop_leaf, insert_leaf,
                         sdd_literal)
from kcproof.structure import right_linear_vtree, vtree_leaf, vtree_node
from kcproof.zoo import lift_Z, path, vc_formula
from oracles import restrict_cnf, restrict_proof

# restrict_proof of the d-SDNNF fold of lift_Z(vc-path 3), natural order
RESTRICTION = {1: 0, 5: 1}
RESTRICT_SHA256 = \
    "b0610b2f840bbe52d8b96e3ca48002c7f4e01cc6c2e9c7639b831341b982e6fc"
# self-calling nested functions allowed, by module
SELF_CALLING = {
    sdd: set(),
    dsdnnf: {"validate_deterministic.<locals>.pair_sat",
             "dsdnnf_conjoin.<locals>.prod"},
    structure: set(),
}


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_dsdnnf_restriction_gates():
    lifted = lift_Z(vc_formula(path(3))).result
    tree = right_linear_vtree(tuple(range(1, lifted.num_vars + 1)))
    proof = naive_conjoin_refute(lifted, tree, "dsdnnf")
    restricted = restrict_proof(lifted, proof, RESTRICTION)
    assert len(restricted.lines) == 23
    assert sha256(proof_to_text(restricted)) == RESTRICT_SHA256
    assert check_proof(restrict_cnf(lifted, RESTRICTION),
                       restricted).accepted


def test_constants_are_built_true_first():
    tree = vtree_node(vtree_node(vtree_leaf(1), vtree_leaf(2)),
                      vtree_leaf(3))
    store = SddStore(tree)
    false = store.false_at("")
    assert store.nodes == [
        ("true", "LL"), ("true", "LR"), ("false", "LL"),
        ("dec", "L", ((0, 1),)), ("false", "R"), ("false", "LR"),
        ("dec", "L", ((0, 5),)), ("dec", "", ((3, 4),))]
    assert false == 7 and store.true_at("") == 9
    assert store.nodes[8:] == [("true", "R"), ("dec", "", ((3, 8),))]
    assert store.true_at("L") == 3 and store.false_at("L") == 6


def test_leaf_frame_errors_name_the_wrong_vtree():
    full = SddStore(vtree_node(vtree_node(vtree_leaf(1), vtree_leaf(4)),
                               vtree_leaf(2)))
    wrong = SddStore(vtree_node(vtree_leaf(2), vtree_leaf(1)))
    with pytest.raises(SddError, match="^source vtree is not the target "
                                       "vtree without x4$"):
        insert_leaf(full, sdd_literal(wrong, 1), 4)
    with pytest.raises(SddError, match="^target vtree is not the source "
                                       "vtree without x4$"):
        drop_leaf(wrong, sdd_literal(full, 1), 4)


def functions(module):
    """The functions and methods the module defines."""
    for value in vars(module).values():
        candidates = vars(value).values() if isinstance(value, type) \
            else (value,)
        yield from (f for f in candidates
                    if isinstance(f, types.FunctionType)
                    and f.__module__ == module.__name__)


def nested_codes(code, qualname):
    """(qualified name, code) of each function nested in code, at any
    depth; the names are built here, as Python 3.10 code objects have no
    co_qualname."""
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            name = qualname + ".<locals>." + const.co_name
            yield name, const
            yield from nested_codes(const, name)


def test_no_other_nested_function_calls_itself():
    for module, allowed in SELF_CALLING.items():
        found = {name for function in functions(module)
                 for name, code in nested_codes(function.__code__,
                                                function.__qualname__)
                 if code.co_name in code.co_freevars}
        assert found == allowed, module.__name__


def test_extract_reads_its_lines_under_the_given_cap(tmp_path, monkeypatch):
    def run(*args):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            return cli.main([str(a) for a in args]), err.getvalue()

    base, lifted = tmp_path / "path.cnf", tmp_path / "path-z.cnf"
    proof = tmp_path / "dsd.kcp"
    assert run("gen", "vc-path", "--l", 3, "-o", base)[0] == 0
    assert run("lift", "z", base, "-o", lifted)[0] == 0
    assert run("refute", lifted, "--method", "naive", "--format", "dsdnnf",
               "-o", proof)[0] == 0
    caps = []
    validate = proofs.validate_deterministic
    monkeypatch.setattr(
        proofs, "validate_deterministic",
        lambda circuit, tree, cap: caps.append(cap) or validate(circuit,
                                                                tree, cap))
    assert run("extract", lifted, proof, "--cap", 1000,
               "-o", tmp_path / "d.txt") == (0, "")
    assert caps and set(caps) == {1000}
