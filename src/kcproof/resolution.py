"""Resolution refutations: their text format, their checker, and their
translation into OBDD proofs with join and weakening.

A resolution proof is a list of steps, each an input clause or the
resolvent of two earlier steps on a pivot variable; it refutes a formula
when its last clause is empty.  `resolution_to_obddw` turns one into a
proof that `kcproof.proofs.check_proof` checks.
"""

from dataclasses import dataclass
from typing import Tuple

from .obdd import ObddRef, ObddStore, obdd_apply, obdd_literal
from .proofs import (Proof, ProofError, ProofSystem, Verdict, _int,
                     diagram_payload)


@dataclass(frozen=True)
class ResolutionProof:
    """Steps are ("input", clause_index) or ("res", i, j, pivot) with
    1-based references to earlier steps and a positive pivot variable."""

    steps: Tuple[Tuple, ...]


def resolution_to_lines(r):
    out = []
    for n, step in enumerate(r.steps, start=1):
        if step[0] == "input":
            out.append("r %d input %d" % (n, step[1]))
        else:
            out.append("r %d res %d %d %d" % (n, step[1], step[2], step[3]))
    return out


def resolution_to_text(r):
    return "\n".join(resolution_to_lines(r)) + "\n"


def parse_resolution(text):
    steps = []
    expected_n = 1
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line == "c" or line.startswith("c "):
            continue
        parts = line.split()
        if parts[0] != "r":
            raise ProofError("unknown statement %r" % line)
        if len(parts) < 2:
            raise ProofError("malformed resolution step %r" % line)
        n = _int(parts[1], "step number")
        if n != expected_n:
            raise ProofError(
                "step number %d out of sequence (expected %d)"
                % (n, expected_n))
        expected_n += 1
        if len(parts) == 4 and parts[2] == "input":
            steps.append(("input", _int(parts[3], "clause index")))
        elif len(parts) == 6 and parts[2] == "res":
            steps.append(("res", _int(parts[3], "step reference"),
                          _int(parts[4], "step reference"),
                          _int(parts[5], "pivot")))
        else:
            raise ProofError("malformed resolution step %r" % line)
    return ResolutionProof(tuple(steps))


def _resolution_clauses(phi, r):
    """Clause of every step, or (step number, reason) on the first flaw."""
    clauses = []
    for n, step in enumerate(r.steps, start=1):
        if step[0] == "input":
            j = step[1]
            if not 0 <= j < len(phi.clauses):
                return None, (n, "input clause index out of range")
            clauses.append(phi.clauses[j])
        elif step[0] == "res":
            _, i, j, pivot = step
            if not (1 <= i < n and 1 <= j < n):
                return None, (n, "resolution reference out of range")
            if pivot <= 0:
                return None, (n, "pivot must be a positive variable")
            a, b = clauses[i - 1], clauses[j - 1]
            if pivot in a and -pivot in b:
                pass
            elif -pivot in a and pivot in b:
                a, b = b, a
            else:
                return None, (n, "pivot does not occur with opposite signs")
            merged = (set(a) - {pivot}) | (set(b) - {-pivot})
            clauses.append(tuple(sorted(merged, key=lambda l: (abs(l), l < 0))))
        else:
            return None, (n, "unknown step kind %r" % (step[0],))
    return clauses, None


def check_resolution(phi, r):
    """Verdict for a resolution derivation; accepted when it ends empty."""
    stats = {"lines": len(r.steps), "max_diagram_size": 0, "total_nodes": 0}
    if not r.steps:
        return Verdict(False, None, "empty resolution derivation", stats)
    clauses, failure = _resolution_clauses(phi, r)
    if failure is not None:
        return Verdict(False, failure[0], failure[1], stats)
    if clauses[-1]:
        return Verdict(False, len(r.steps), "final clause is not empty", stats)
    return Verdict(True, None, None, stats)


def _clause_obdd(store, clause):
    """Clause diagram tolerant of duplicate and clashing literals."""
    result = ObddRef(store, store.FALSE)
    for lit in sorted(set(clause), key=lambda l: (abs(l), l < 0)):
        result = obdd_apply("or", result, obdd_literal(store, lit))
    return result


def resolution_to_obddw(phi, r, order=None):
    """Translate a resolution refutation into a checkable obdd proof.

    Inputs become init lines; each resolution step becomes the join of
    its antecedent lines followed by a weakening to the resolvent's
    clause diagram, so the output has (inputs) + 2*(resolution steps)
    lines over the single given order (default: 1..num_vars).
    """
    verdict = check_resolution(phi, r)
    if not verdict.accepted:
        raise ProofError("resolution proof rejected: %s" % verdict.reason)
    clauses, _ = _resolution_clauses(phi, r)
    if order is None:
        order = tuple(range(1, phi.num_vars + 1))
    proof = Proof(ProofSystem("obdd", frozenset(("join", "weaken"))))
    sid = proof.add_structure(tuple(order))
    store = ObddStore(tuple(order))
    line_of = {}
    for n, step in enumerate(r.steps, start=1):
        if step[0] == "input":
            did = proof.add_diagram(
                sid, diagram_payload(_clause_obdd(store, clauses[n - 1])))
            line_of[n] = proof.add_init(step[1], did)
        else:
            _, i, j, _pivot = step
            joint = obdd_apply(
                "and",
                _clause_obdd(store, clauses[i - 1]),
                _clause_obdd(store, clauses[j - 1]))
            join_did = proof.add_diagram(sid, diagram_payload(joint))
            join_n = proof.add_join(line_of[i], line_of[j], join_did)
            weak_did = proof.add_diagram(
                sid, diagram_payload(_clause_obdd(store, clauses[n - 1])))
            line_of[n] = proof.add_weaken(join_n, weak_did)
    return proof
