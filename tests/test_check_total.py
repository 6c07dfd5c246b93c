"""check_proof always returns a verdict.  An exception raised while a line
is checked rejects that line: RecursionError and MemoryError as a blown
resource cap (`kcp check` exits 3), anything else as malformed."""

import contextlib
import io

import pytest

from kcproof import cli
from kcproof.cnf import cnf, to_dimacs
from kcproof.proofs import BACKENDS, check_proof, proof_to_text
from kcproof.refute import naive_conjoin_refute
from kcproof.structure import right_linear_vtree

PHI = cnf(2, [(1, 2), (-1, 2), (1, -2), (-1, -2)])
# lines 1 and 2 init the first two clauses, line 3 joins them
FIRST_JOIN = 3


def proof():
    return naive_conjoin_refute(PHI, right_linear_vtree((1, 2)), "sdd")


def raising(exc):
    def method(*args):
        raise exc
    return method


def test_the_unpatched_proof_is_accepted():
    assert check_proof(PHI, proof()).accepted


@pytest.mark.parametrize("exc", [RecursionError, MemoryError])
def test_exhaustion_is_a_resource_verdict(monkeypatch, exc):
    monkeypatch.setattr(BACKENDS["sdd"], "join_ok", raising(exc("deep")))
    verdict = check_proof(PHI, proof())
    assert verdict.resource
    assert verdict.failing_line == FIRST_JOIN
    assert verdict.reason == "resource cap exceeded: %s" % exc.__name__


def test_any_other_exception_is_a_malformed_line(monkeypatch):
    monkeypatch.setattr(BACKENDS["sdd"], "equal",
                        raising(ValueError("bad payload")))
    verdict = check_proof(PHI, proof())
    assert not verdict.resource
    assert (verdict.failing_line, verdict.reason) \
        == (1, "malformed: ValueError: bad payload")


@pytest.mark.parametrize("exc, code", [(RecursionError, 3), (MemoryError, 3),
                                       (KeyError, 1)])
def test_kcp_check_exit_code(monkeypatch, tmp_path, exc, code):
    formula, text = tmp_path / "f.cnf", tmp_path / "p.kcp"
    formula.write_text(to_dimacs(PHI))
    text.write_text(proof_to_text(proof()))
    monkeypatch.setattr(BACKENDS["sdd"], "join_ok", raising(exc("x")))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["check", str(formula), str(text)]) == code
    assert out.getvalue().startswith("rejected at line %d: " % FIRST_JOIN)
