"""Checking a proof in line ranges never changes what check_proof says.

check_proof splits a proof's lines into contiguous ranges, one per CPU
the process may run on, and checks each range after the first in a
forked child.  The earliest failing line wins and the stats sum the
lines before it.  Here the CPU set is patched to 2, 3 and 4 CPUs with
SPLIT_FLOOR at 1 byte, so that even small proofs split, and every proof
gets the verdict, failing line, reason and stats of a one-CPU check: proofs
of random small CNFs from every producer in all three formats, their
mutants, and the benchmark's two mutants of an OBDD, an SDD and a
d-SDNNF refutation, a join diagram altered in the first, a middle and
the last range, and in two ranges at once.
"""

import os
import random
import sys
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from kcproof import proofs
from kcproof.cnf import cnf
from kcproof.proofs import ProofSystem, check_proof, parse_proof, \
    proof_to_text
from kcproof.refute import naive_conjoin_refute, obdd_refute_eq, \
    treewidth_refute
from kcproof.zoo import eq_formula, lift_Z, path, vc_formula
from test_check_sweep import (MUTANTS, PRODUCERS, formulas, natural,
                              obdd_reorder_chain)

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench"))
import mutants  # noqa: E402  the benchmark's own mutants

CPUS = (2, 3, 4)


def checked(phi, proof, cpus):
    """The verdict of proof on cpus CPUs, and the number of forks made."""
    forks = []
    fork = os.fork
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(os, "sched_getaffinity",
                      lambda pid: set(range(cpus)))
        patch.setattr(os, "fork", lambda: forks.append(1) or fork())
        if cpus > 1:
            patch.setattr(proofs, "SPLIT_FLOOR", 1)
        ranges = proofs._ranges(proof)
        verdict = check_proof(phi, proof).to_json()
    return verdict, ranges, len(forks)


def assert_ranges_change_nothing(phi, proof):
    """The one-CPU verdict of proof, which every split check matches."""
    reference, ranges, forks = checked(phi, proof, 1)
    assert (len(ranges), forks) == (1, 0)
    for cpus in CPUS:
        verdict, ranges, forks = checked(phi, proof, cpus)
        assert verdict == reference, cpus
        assert len(ranges) <= cpus
        # a range after the failing one may never be forked for
        assert forks <= len(ranges) - 1
        if reference["accepted"]:
            assert forks == len(ranges) - 1
    return reference


@pytest.mark.parametrize("producer", sorted(PRODUCERS))
@settings(deadline=None, max_examples=10)
@given(base=formulas)
def test_honest_proofs_get_one_verdict(producer, base):
    phi, proof = PRODUCERS[producer](lift_Z(base))
    assert_ranges_change_nothing(phi, proof)


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
@pytest.mark.parametrize("producer", sorted(PRODUCERS))
@settings(deadline=None, max_examples=5)
@given(base=formulas, pick=st.integers(min_value=0, max_value=10 ** 6))
def test_mutants_get_one_verdict(producer, mutant, base, pick):
    phi, proof = PRODUCERS[producer](lift_Z(base))
    mutated = MUTANTS[mutant](proof, pick)
    if mutated is not None:
        assert_ranges_change_nothing(phi, mutated)


def obdd_reorder_counted(lifted):
    """The OBDD reorder chain without weakening or certificates: its
    reorder line is checked by model count and by the input clauses its
    premise conjoins, which a range after the first reads from the clause
    sets it primes from the lines before it."""
    phi, proof = obdd_reorder_chain(lifted)
    proof.system = ProofSystem("obdd", ("join", "reorder"))
    proof.lines = [replace(line, cert_ids=()) for line in proof.lines]
    return phi, proof


@pytest.mark.parametrize("mutant", [None] + sorted(MUTANTS))
@settings(deadline=None, max_examples=10)
@given(base=formulas, pick=st.integers(min_value=0, max_value=10 ** 6))
def test_counted_reorders_get_one_verdict(mutant, base, pick):
    phi, proof = obdd_reorder_counted(lift_Z(base))
    if mutant is not None:
        proof = MUTANTS[mutant](proof, pick)
    if proof is not None:
        assert_ranges_change_nothing(phi, proof)


def test_an_unsound_line_before_a_primed_range_wins():
    """A range after the first primes its clause sets from the lines
    before it.  An out-of-range reference there makes the priming raise,
    which ends that range's child without a result; the earlier range's
    rejection is the verdict."""
    phi, proof = obdd_reorder_counted(lift_Z(cnf(3, [(1, 2), (-1, 3)])))
    join = next(line for line in proof.lines if line.rule == "join")
    proof.lines[join.n - 1] = replace(
        join, refs=(len(proof.lines) + 1, join.refs[1]))
    ranges = ranges_of(proof, 4)
    assert ranges[0][1] >= join.n
    with pytest.raises(KeyError):
        proofs._check_range(phi, proof, 10 ** 7, *ranges[-1])
    verdict = assert_ranges_change_nothing(phi, proof)
    assert (verdict["failing_line"], verdict["reason"]) == (
        join.n, "join reference out of range")


# ------------------------------------------------- the benchmark's mutants

def eq_case():
    return lift_Z(eq_formula(16, 3)).result, obdd_refute_eq(16, 3)


def treewidth_case():
    base = vc_formula(path(6))
    return lift_Z(base).result, treewidth_refute(base)[0]


def dsdnnf_case():
    phi = lift_Z(vc_formula(path(3))).result
    return phi, naive_conjoin_refute(phi, natural(phi, "dsdnnf"), "dsdnnf")


CASES = {"obdd": eq_case, "sdd": treewidth_case, "dsdnnf": dsdnnf_case}


def altered(text, fmt, lines, seed=1):
    """The proof text with the diagram of one join line of each of the
    given lines' ranges altered the benchmark's way, and the line of each;
    the join chosen is the first in the range that first claims a diagram
    the alteration keeps well formed."""
    rows = text.splitlines()
    where, first_use = {}, {}
    for i, row in enumerate(rows):
        if row.startswith("d "):
            where[row.split(None, 2)[1]] = i
        elif row.startswith("L "):
            parts = row.split()
            first_use.setdefault(parts[-1], (int(parts[1]), parts[2]))
    rng = random.Random(seed)
    done = []
    for first, last in lines:
        for did, (n, rule) in sorted(first_use.items(),
                                     key=lambda item: item[1][0]):
            if rule != "join" or not first <= n <= last:
                continue
            _, _, sid, payload = rows[where[did]].split(None, 3)
            pieces = mutants.ALTER[fmt](payload.split(";"), rng)
            if pieces is not None:
                rows[where[did]] = "d %s %s %s" % (did, sid, ";".join(pieces))
                done.append(n)
                break
    assert len(done) == len(lines)
    return "\n".join(rows) + "\n", done


def ranges_of(proof, cpus):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        patch.setattr(proofs, "SPLIT_FLOOR", 1)
        return proofs._ranges(proof)


@pytest.mark.parametrize("fmt", sorted(CASES))
def test_the_honest_proof_and_its_dropped_last_line(fmt):
    phi, proof = CASES[fmt]()
    text = proof_to_text(proof)
    assert assert_ranges_change_nothing(phi, parse_proof(text))["accepted"]
    dropped, line, reason = mutants.drop_last(text)
    verdict = assert_ranges_change_nothing(phi, parse_proof(dropped))
    assert (verdict["failing_line"], verdict["reason"]) == (line, reason)


@pytest.mark.parametrize("where", ("first", "middle", "last"))
@pytest.mark.parametrize("fmt", sorted(CASES))
def test_an_altered_join_in_any_range(fmt, where):
    phi, proof = CASES[fmt]()
    text = proof_to_text(proof)
    ranges = ranges_of(parse_proof(text), 3)
    assert len(ranges) == 3
    target = ranges[("first", "middle", "last").index(where)]
    mutated, (line,) = altered(text, fmt, [target])
    verdict = assert_ranges_change_nothing(phi, parse_proof(mutated))
    assert (verdict["failing_line"], verdict["reason"]) == (
        line, mutants.JOIN_REASON)


@pytest.mark.parametrize("fmt", sorted(CASES))
def test_of_two_rejecting_ranges_the_earlier_line_wins(fmt):
    phi, proof = CASES[fmt]()
    text = proof_to_text(proof)
    ranges = ranges_of(parse_proof(text), 4)
    assert len(ranges) == 4
    mutated, lines = altered(text, fmt, [ranges[1], ranges[3]])
    verdict = assert_ranges_change_nothing(phi, parse_proof(mutated))
    assert (verdict["failing_line"], verdict["reason"]) == (
        lines[0], mutants.JOIN_REASON)
    # on 4 CPUs both ranges reject, each in a child of its own
    assert [proofs._check_range(phi, parse_proof(mutated), 10 ** 7, *r)[0]
            for r in (ranges[1], ranges[3])] == lines


def test_ranges_are_balanced_by_payload_bytes_and_cover_every_line():
    phi, proof = eq_case()
    proof = parse_proof(proof_to_text(proof))
    weights = [sum(len(proof.diagrams[did][1]) for did in (
        line.diagram_id,
        *(proof.lines[ref - 1].diagram_id for ref in line.refs)))
        for line in proof.lines]
    for cpus in CPUS:
        ranges = ranges_of(proof, cpus)
        assert len(ranges) == cpus
        assert ranges[0][0] == 1 and ranges[-1][1] == len(proof.lines)
        assert all(a[1] + 1 == b[0] for a, b in zip(ranges, ranges[1:]))
        share = sum(weights) / cpus
        for first, last in ranges:
            assert abs(sum(weights[first - 1:last]) - share) < max(weights)


def test_only_a_proof_past_the_floor_is_split():
    """The benchmark's d-SDNNF fold, 40 KB, stays in one range however
    many CPUs there are; the 1.6 MB refutation of eq(64, 3) splits."""
    import workloads
    instance = workloads.generate("dsdnnf_fold", 1)
    fold = parse_proof(workloads.produce("dsdnnf_fold", instance))
    eq = obdd_refute_eq(64, 3)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)))
        assert proofs._ranges(fold) == [(1, len(fold.lines))]
        ranges = proofs._ranges(eq)
        patch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        assert len(proofs._ranges(eq)) == 2
    # on many CPUs, a share of the 3.2 MB that eq's lines read is at least
    # the floor; a range reads its share to within a line
    weights = [sum(len(eq.diagrams[did][1])
                   for did in proofs._reads(eq, line)) for line in eq.lines]
    share = sum(weights) / len(ranges)
    assert 2 < len(ranges) < 64 and share >= proofs.SPLIT_FLOOR
    for first, last in ranges:
        assert sum(weights[first - 1:last]) > share - max(weights)
