"""compilation_to_refutation checks every step of the trace it extends.

A step that is not the conjunction it names is refused with RefuteError
even when the trace's last diagram is the conjunction of the control
lifting, since a proof written from that trace would be rejected by the
checker.  A trace that leaves a control clause out, or has a step from
another store, is refused too.
"""

import pytest

from kcproof.cnf import cnf
from kcproof.proofs import BACKENDS
from kcproof.refute import RefuteError, compilation_to_refutation, fold_trace
from kcproof.structure import right_linear_vtree
from kcproof.zoo import lift_C, lift_Z

PHI = cnf(2, [(1, 2), (-1, 2), (-2,)])
LIFTED = lift_Z(PHI)
CONTROL = lift_C(PHI).clauses
ORDER = tuple(range(1, LIFTED.result.num_vars + 1))
STRUCTURES = {"obdd": ORDER, "sdd": right_linear_vtree(ORDER)}


def folded(fmt):
    backend = BACKENDS[fmt]
    store = backend.store(STRUCTURES[fmt])
    final, trace = fold_trace(backend, store, CONTROL)
    return backend, store, final, trace


@pytest.mark.parametrize("fmt", sorted(STRUCTURES))
def test_a_wrong_init_step_is_refused(fmt):
    backend, store, final, trace = folded(fmt)
    first_two = backend.conjoin(store, backend.clause(store, CONTROL[0]),
                                backend.clause(store, CONTROL[1]))
    bad = [("init", 0, first_two)] + trace[1:]
    assert backend.equal(bad[-1][-1], final)
    with pytest.raises(RefuteError):
        compilation_to_refutation(bad, LIFTED)


@pytest.mark.parametrize("fmt", sorted(STRUCTURES))
def test_a_wrong_join_step_is_refused(fmt):
    backend, store, final, trace = folded(fmt)
    assert [step[0] for step in trace] == \
        ["init", "init", "join", "init", "join"]
    bad = trace[:2] + [("join", 0, 1, final)] + trace[3:]
    assert backend.equal(bad[-1][-1], final)
    with pytest.raises(RefuteError):
        compilation_to_refutation(bad, LIFTED)


@pytest.mark.parametrize("fmt", sorted(STRUCTURES))
def test_a_trace_without_a_control_clause_is_refused(fmt):
    backend = BACKENDS[fmt]
    store = backend.store(STRUCTURES[fmt])
    for left_out in range(len(CONTROL)):
        kept = CONTROL[:left_out] + CONTROL[left_out + 1:]
        _, trace = fold_trace(backend, store, kept)
        renumbered = [("init", CONTROL.index(kept[step[1]]), step[2])
                      if step[0] == "init" else step for step in trace]
        with pytest.raises(RefuteError):
            compilation_to_refutation(renumbered, LIFTED)


@pytest.mark.parametrize("fmt", sorted(STRUCTURES))
def test_a_step_from_another_store_is_refused(fmt):
    backend, _, _, trace = folded(fmt)
    other = backend.store(STRUCTURES[fmt])
    bad = [("init", 0, backend.clause(other, CONTROL[0]))] + trace[1:]
    with pytest.raises(RefuteError):
        compilation_to_refutation(bad, LIFTED)
