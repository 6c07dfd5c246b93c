"""The BENCH_*.json summary of tools/bench_record.py counts every recorded
run, including repeated runs of one seed on one tree."""

import importlib.util
import os

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "tools", "bench_record.py")


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_record", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(tree, seed, check_s, workload="dsdnnf_fold", trace=0):
    return {"workload": workload, "seed": seed, "tree": tree, "trace": trace,
            "result": {"correct": True,
                       "metrics": {"check_s": {"unit": "s",
                                               "value": check_s}}}}


BETTER = {"check_s": True}


class TestSummarize:
    def test_a_repeated_seed_keeps_every_run(self):
        tool = load_tool()
        runs = [run("parent", 1, 0.16), run("change", 1, 0.10),
                run("change", 1, 0.09), run("parent", 1, 0.15)]
        entry = tool.summarize(runs, ["parent", "change"], BETTER)[
            "dsdnnf_fold"]["check_s"]
        assert entry["parent"]["runs"] == 2
        assert entry["change"]["runs"] == 2
        assert entry["parent"]["median"] == 0.155
        assert entry["pairs"] == 2
        assert entry["second_better"] == 2

    def test_pairs_follow_run_order_per_seed(self):
        tool = load_tool()
        # the first parent run of seed 1 pairs with the first change run,
        # the second with the second; seed 2 has no change run
        runs = [run("parent", 1, 1.0), run("parent", 1, 3.0),
                run("change", 1, 2.0), run("change", 1, 2.5),
                run("parent", 2, 9.0)]
        entry = tool.summarize(runs, ["parent", "change"], BETTER)[
            "dsdnnf_fold"]["check_s"]
        assert entry["pairs"] == 2
        assert entry["second_better"] == 1
        assert entry["parent"]["runs"] == 3

    def test_an_unpaired_extra_run_is_summarized_but_not_paired(self):
        tool = load_tool()
        runs = [run("parent", 1, 0.2), run("change", 1, 0.1),
                run("change", 1, 0.3),
                run("change", 1, 0.05, trace=1)]
        entry = tool.summarize(runs, ["parent", "change"], BETTER)[
            "dsdnnf_fold"]["check_s"]
        assert entry["change"]["runs"] == 2
        assert entry["pairs"] == 1
        assert entry["second_better"] == 1
