"""check_proof leaves no process behind, and falls back when forks fail.

Each range of lines after the first is checked in a forked child.  When
check_proof returns or raises, every child has been reaped: the process
has none left to wait for.  This holds for an accepted proof, a
rejection in the parent's range (the children are killed), a rejection
in a later range, and a KeyboardInterrupt inside the parent's range.  A
child that exits without writing its result, and a fork that fails, get
their range checked in the calling process, with the one-range verdict;
so does a child interrupted right after the fork, which ends there.
With a second thread running, check_proof does not fork at all.  The
kcp command turns SIGTERM into an exception, so a terminated check
kills and reaps its children too.
"""

import os
import signal
import subprocess
import sys
import threading
from dataclasses import replace

import pytest

from kcproof import proofs
from kcproof.cnf import to_dimacs
from kcproof.proofs import check_proof, parse_proof, proof_to_text
from kcproof.refute import obdd_refute_eq
from kcproof.zoo import eq_formula, lift_Z

PHI = lift_Z(eq_formula(16, 3)).result
CPUS = 3


def proof_text():
    return proof_to_text(obdd_refute_eq(16, 3))


@pytest.fixture
def split(monkeypatch):
    """CPUS ranges for any proof; the number of forks made."""
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(CPUS)))
    monkeypatch.setattr(proofs, "SPLIT_FLOOR", 1)
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    return forks


def one_range(proof):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: {0})
        return check_proof(PHI, proof).to_json()


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def rejected_in(ranges, index):
    """The proof with the diagram of the first join of the given range
    replaced by its first premise's, and that line."""
    proof = parse_proof(proof_text())
    first, last = ranges[index]
    line = next(line for line in proof.lines[first - 1:last]
                if line.rule == "join"
                and proof.lines[line.refs[0] - 1].rule == "join")
    proof.lines[line.n - 1] = replace(
        line, diagram_id=proof.lines[line.refs[0] - 1].diagram_id)
    return proof, line.n


def test_an_accepted_proof_leaves_no_child(split):
    proof = parse_proof(proof_text())
    assert len(proofs._ranges(proof)) == CPUS
    verdict = check_proof(PHI, proof)
    assert verdict.accepted
    assert len(split) == CPUS - 1
    assert_no_child_left()
    assert verdict.to_json() == one_range(proof)


@pytest.mark.parametrize("index", range(CPUS))
def test_a_rejection_in_any_range_leaves_no_child(split, index):
    proof, line = rejected_in(proofs._ranges(parse_proof(proof_text())),
                              index)
    verdict = check_proof(PHI, proof)
    assert (verdict.failing_line, verdict.reason) == (line, "join mismatch")
    assert len(split) == CPUS - 1
    assert_no_child_left()
    assert verdict.to_json() == one_range(proof)


def test_an_interrupt_in_the_parents_range_leaves_no_child(
        split, monkeypatch):
    proof = parse_proof(proof_text())
    parent = os.getpid()
    check_range = proofs._check_range

    def interrupted(phi, proof, cap, first, last):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        return check_range(phi, proof, cap, first, last)

    monkeypatch.setattr(proofs, "_check_range", interrupted)
    with pytest.raises(KeyboardInterrupt):
        check_proof(PHI, proof)
    assert len(split) == CPUS - 1
    assert_no_child_left()


def test_a_child_that_exits_without_a_result_is_checked_here(
        split, monkeypatch):
    proof, line = rejected_in(proofs._ranges(parse_proof(proof_text())),
                              CPUS - 1)
    parent = os.getpid()
    check_range = proofs._check_range
    here = []

    def dying(phi, proof, cap, first, last):
        if os.getpid() != parent:
            os._exit(1)
        here.append(first)
        return check_range(phi, proof, cap, first, last)

    monkeypatch.setattr(proofs, "_check_range", dying)
    verdict = check_proof(PHI, proof)
    assert verdict.failing_line == line
    assert len(here) == CPUS
    assert_no_child_left()
    monkeypatch.undo()
    assert verdict.to_json() == one_range(proof)


def test_a_child_interrupted_right_after_the_fork_ends_there(
        split, monkeypatch):
    proof = parse_proof(proof_text())
    parent = os.getpid()
    fork, waitpid = os.fork, os.waitpid
    codes = []

    def interrupted():
        pid = fork()
        if pid == 0:
            raise KeyboardInterrupt
        return pid

    def waited(pid, options):
        done = waitpid(pid, options)
        if done[0]:
            codes.append(os.waitstatus_to_exitcode(done[1]))
        return done

    monkeypatch.setattr(os, "fork", interrupted)
    monkeypatch.setattr(os, "waitpid", waited)
    try:
        verdict = check_proof(PHI, proof)
    finally:
        if os.getpid() != parent:
            os._exit(7)  # a child that got out of check_proof
    assert codes == [1] * (CPUS - 1)
    assert_no_child_left()
    monkeypatch.undo()
    assert verdict.to_json() == one_range(proof)


def test_a_failing_fork_gives_the_one_range_verdict(split, monkeypatch):
    proof, line = rejected_in(proofs._ranges(parse_proof(proof_text())),
                              CPUS - 1)

    def no_fork():
        raise OSError("no fork here")

    monkeypatch.setattr(os, "fork", no_fork)
    verdict = check_proof(PHI, proof)
    assert verdict.failing_line == line
    assert_no_child_left()
    monkeypatch.undo()
    assert verdict.to_json() == one_range(proof)


def test_no_fork_while_a_second_thread_runs(split):
    proof = parse_proof(proof_text())
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert proofs._ranges(proof) == [(1, len(proof.lines))]
        verdict = check_proof(PHI, proof)
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert verdict.accepted
    assert split == []
    assert len(proofs._ranges(proof)) == CPUS


TERMINATED = """
import os, sys, time
from kcproof import proofs
from kcproof.cli import main
os.sched_getaffinity = lambda pid: set(range(%d))
proofs.SPLIT_FLOOR = 1
check_range = proofs._check_range
caller = os.getpid()

def stalled(*args):
    if os.getpid() != caller:
        os.write(1, str(os.getpid()).encode() + b"\\n")  # one write
        time.sleep(60)
    return check_range(*args)

proofs._check_range = stalled
sys.exit(main(sys.argv[1:]))
""" % CPUS


def test_a_terminated_kcp_check_leaves_no_child(tmp_path):
    """kcp check, in a process group of its own, is sent SIGTERM while
    its children check their ranges; it exits 143 and leaves its group
    empty."""
    (tmp_path / "phi.cnf").write_text(to_dimacs(PHI))
    (tmp_path / "proof.kcp").write_text(proof_text())
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    command = subprocess.Popen(
        [sys.executable, "-c", TERMINATED, "check",
         str(tmp_path / "phi.cnf"), str(tmp_path / "proof.kcp")],
        stdout=subprocess.PIPE, text=True, env=env, start_new_session=True)
    try:
        for _ in range(CPUS - 1):
            int(command.stdout.readline())  # a child has started
        command.send_signal(signal.SIGTERM)
        assert command.wait(timeout=60) == 128 + signal.SIGTERM
        with pytest.raises(ProcessLookupError):
            os.killpg(command.pid, 0)
    finally:
        try:
            os.killpg(command.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        command.wait()
        command.stdout.close()
