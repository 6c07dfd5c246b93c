"""The checker's tracemalloc budgets, held by a check in one process.

check_proof checks a large proof in line ranges, each range after the
first in a forked child, so the budget tests of test_check_memory,
test_check_sweep_memory, test_check_store_release_memory and
test_sdd_check_memory trace only the calling process's range.  Here the
same tests run with the CPU set patched to one CPU, and with forking
made to fail the test, so that each budget holds for the whole check.
"""

import os

import pytest

import test_check_memory
import test_check_store_release_memory
import test_check_sweep_memory
import test_sdd_check_memory


@pytest.fixture(autouse=True)
def one_cpu(monkeypatch):
    def no_fork():
        raise AssertionError("a one-CPU check forked")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(os, "fork", no_fork)


@pytest.mark.parametrize("test", [
    test_check_memory.test_eq_check_peak_stays_within_budget,
    test_check_sweep_memory.test_eq_check_peak_stays_within_budget,
    test_check_sweep_memory.test_grid_check_peak_stays_within_budget,
    test_check_store_release_memory
    .test_move_chain_check_peak_stays_within_budget,
    test_sdd_check_memory.test_treewidth_check_peak_stays_within_budget,
], ids=lambda test: "%s.%s" % (test.__module__, test.__name__))
def test_the_budget_holds_in_one_process(test):
    test()


def test_the_budgets_are_the_pinned_ones():
    assert test_check_memory.PEAK_BUDGET_MB == 12.0
    assert test_check_sweep_memory.EQ_PEAK_BUDGET_MB == 3.0
    assert test_check_sweep_memory.GRID_PEAK_BUDGET_MB == 6.0
    assert test_check_store_release_memory.PEAK_BUDGET_MB == 3.5
    assert test_sdd_check_memory.PEAK_BUDGET_MB == 1.2
