"""Byte pins of producer outputs that no other test pins.

The producers and the command line fold clauses through the backend table
of kcproof.proofs.  Node ids, and with them every proof and diagram text,
depend on the order in which a fold builds its nodes, so each output below
is pinned by the SHA-256 of its text.
"""

import contextlib
import hashlib
import io
import os

import pytest

from kcproof import cli
from kcproof.cnf import restrict_cnf
from kcproof.dsdnnf import circuit_to_text
from kcproof.obdd import obdd_to_text
from kcproof.proofs import check_proof, proof_to_text
from kcproof.refute import (extract_representation, naive_conjoin_refute,
                            restrict_proof)
from kcproof.sdd import sdd_to_text
from kcproof.structure import right_linear_vtree
from kcproof.zoo import lift_Z, path, vc_formula

# naive_conjoin_refute(lift_Z(vc-path 4)): natural order, right-linear vtree
NAIVE_SHA256 = {
    "obdd": "117e3eb7576595f0e5915be156049e80c348dbd29c65fc70508e5521fd572bf9",
    "dsdnnf":
        "069eaaaa59881686901370032c55c912f19d6202f30c4f24dbd8da56c96f77e1",
}
# restrict_proof of the sdd fold of lift_Z(vc-path 3) by RESTRICTION
RESTRICTION = {1: 0, 5: 1}
RESTRICT_SHA256 = \
    "ba0ea56124bdd95b1988e3e7e00501132abb92290ff399ee54ed683ac04e7c8a"
# extract_representation of the naive fold of lift_Z(vc-path 3), as text
EXTRACT_SHA256 = {
    "obdd": "a696945db95dffbc8a3cb7b2a4b28756e131bb86ba904278ac098153715569a4",
    "sdd": "21bf5730427cb1400841ccc4eb3baebfd0c10d8a342a2e63477b2bfa8366aa3d",
    "dsdnnf":
        "291d0f53ba3797a2c9a7743499aae30c9a1c0f9cd2b11fda91193f3bed3e1806",
}
# stdout of `kcp refute --method compile2ref` on the z lifting of
# `kcp gen vc-tree --h 2`
COMPILE2REF_SHA256 = {
    "obdd": "c1f50137b53a3e481425df670c6df6c02565bfe882af300f6bcc0fff3aaf8250",
    "sdd": "dc5c666e41d710fd4be0a21d8e13578dd9f39104266aa26195a6193dde83f85c",
}
# stdout of `kcp compile --format F --vtree V` on `kcp gen vc-tree --h 2`
COMPILE_SHA256 = {
    ("obdd", "auto"):
        "92d44e581f0bbceb783420392d748493b85ac146dbfeec99bb289f5931cb5144",
    ("sdd", "auto"):
        "ea8a7da5fe9ac3a28c5bf78672e3e1dd3399b4e2f8149d89e127034f7b372d24",
    ("sdd", "right"):
        "0e8806c23602c99e75fc480c3a4776f3151b24a03ec3cfe68885cb04e69d4bf8",
    ("dsdnnf", "auto"):
        "f2f82ac14beaf401df45b5f85269a98b2f91be89804cc8fc01da5020e7b1dc06",
    ("dsdnnf", "right"):
        "6d1fa07c4c868262bd6e3eb1934e739ca132daeab845163ed395ae513bf5aeb2",
}
TO_TEXT = {"obdd": obdd_to_text, "sdd": sdd_to_text,
           "dsdnnf": circuit_to_text}


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def vc_path(length):
    lifted = lift_Z(vc_formula(path(length)))
    return lifted, tuple(range(1, lifted.result.num_vars + 1))


def run(*args):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(args))
    return code, out.getvalue()


@pytest.fixture(scope="module")
def vc_tree_files(tmp_path_factory):
    directory = tmp_path_factory.mktemp("pins")
    base = os.path.join(str(directory), "base.cnf")
    lifted = os.path.join(str(directory), "lifted.cnf")
    assert run("gen", "vc-tree", "--h", "2", "-o", base)[0] == 0
    assert run("lift", "z", base, "-o", lifted)[0] == 0
    return base, lifted


@pytest.mark.parametrize("fmt", sorted(NAIVE_SHA256))
def test_naive_fold_bytes(fmt):
    lifted, order = vc_path(4)
    structure = order if fmt == "obdd" else right_linear_vtree(order)
    proof = naive_conjoin_refute(lifted.result, structure, fmt)
    assert sha256(proof_to_text(proof)) == NAIVE_SHA256[fmt]


def test_restrict_proof_bytes():
    lifted, order = vc_path(3)
    proof = naive_conjoin_refute(lifted.result, right_linear_vtree(order))
    restricted = restrict_proof(lifted.result, proof, RESTRICTION)
    assert sha256(proof_to_text(restricted)) == RESTRICT_SHA256
    assert check_proof(restrict_cnf(lifted.result, RESTRICTION),
                       restricted).accepted


@pytest.mark.parametrize("fmt", sorted(EXTRACT_SHA256))
def test_extract_representation_text(fmt):
    lifted, order = vc_path(3)
    structure = order if fmt == "obdd" else right_linear_vtree(order)
    proof = naive_conjoin_refute(lifted.result, structure, fmt)
    diagram = extract_representation(proof, lifted)
    assert sha256(TO_TEXT[fmt](diagram)) == EXTRACT_SHA256[fmt]


@pytest.mark.parametrize("fmt", sorted(COMPILE2REF_SHA256))
def test_compile2ref_bytes(vc_tree_files, fmt):
    code, out = run("refute", vc_tree_files[1], "--method", "compile2ref",
                    "--format", fmt)
    assert code == 0
    assert sha256(out) == COMPILE2REF_SHA256[fmt]


@pytest.mark.parametrize("fmt,vtree", sorted(COMPILE_SHA256))
def test_compile_bytes(vc_tree_files, fmt, vtree):
    code, out = run("compile", vc_tree_files[0], "--format", fmt,
                    "--vtree", vtree)
    assert code == 0
    assert sha256(out) == COMPILE_SHA256[(fmt, vtree)]
