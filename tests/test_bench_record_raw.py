"""tools/bench_record.py keeps run.py's raw samples in each record and
summarizes them beside the speed-scaled metrics: a run's raw value is the
median of its samples, lower is better, and runs pair as for any metric."""

import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "bench_record.py")

FAKE_RUN = """\
import json
print(json.dumps({"proof_sha256": "0" * 64, "reps": 2,
                  "produce_s_raw": [0.5, 0.4, 0.6], "check_s_raw": [0.2, 0.3],
                  "setup_s_raw": [0.1], "speed": [1.5, 1.25],
                  "mutants": []}))
print(json.dumps({"correct": True, "metrics": {}}))
"""


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_record", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(tree, seed, check_s, raw, workload="eq_obdd", trace=0):
    record = {"workload": workload, "seed": seed, "tree": tree,
              "trace": trace,
              "result": {"correct": True,
                         "metrics": {"check_s": {"unit": "s",
                                                 "value": check_s}}}}
    record.update(raw)
    return record


def raw(check, produce=(), setup=()):
    return {"check_s_raw": list(check), "produce_s_raw": list(produce),
            "setup_s_raw": list(setup), "speed": [1.0]}


def test_run_once_keeps_the_raw_samples(tmp_path):
    tool = load_tool()
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(FAKE_RUN)
    record = tool.run_once(str(tmp_path), "eq_obdd", 1, 1, 0)
    assert record["exit"] == 0, record.get("stderr")
    assert record["produce_s_raw"] == [0.5, 0.4, 0.6]
    assert record["check_s_raw"] == [0.2, 0.3]
    assert record["setup_s_raw"] == [0.1]
    assert record["speed"] == [1.5, 1.25]
    assert "mutants" not in record


def test_raw_medians_are_summarized_and_paired():
    tool = load_tool()
    runs = [run("parent", 1, 0.9, raw((0.5, 0.7, 0.6), (1.0, 1.2), (0.2,))),
            run("change", 1, 0.8, raw((0.4, 0.5), (1.05,), (0.3,))),
            run("change", 2, 0.7, raw((0.3,), (0.9,), (0.1,))),
            run("parent", 2, 0.6, raw((0.2,), (0.8, 0.85, 0.9), (0.1,)))]
    table = tool.summarize(runs, ["parent", "change"], {"check_s": True})[
        "eq_obdd"]
    check = table["check_s_raw"]
    assert check["parent"] == pytest.approx(
        {"median": 0.4, "q1": 0.3, "q3": 0.5, "runs": 2})
    assert check["change"]["median"] == pytest.approx(0.375)
    assert (check["pairs"], check["second_better"]) == (2, 1)
    produce = table["produce_s_raw"]
    assert produce["parent"]["median"] == pytest.approx((1.1 + 0.85) / 2)
    assert (produce["pairs"], produce["second_better"]) == (2, 1)
    setup = table["setup_s_raw"]
    assert (setup["pairs"], setup["second_better"]) == (2, 0)
    assert table["check_s"]["pairs"] == 2


def test_a_run_without_samples_adds_no_raw_value():
    tool = load_tool()
    runs = [run("only", 1, 0.2, {}), run("only", 2, 0.3, raw((0.1,))),
            run("only", 3, 0.4, raw((0.05,)), trace=1)]
    table = tool.summarize(runs, ["only"], {"check_s": True})["eq_obdd"]
    assert table["check_s_raw"]["only"]["runs"] == 1
    assert table["check_s_raw"]["only"]["median"] == 0.1
    assert table["check_s"]["only"]["runs"] == 2
    # an empty list, as setup_s_raw of a traced run, is no sample
    assert "produce_s_raw" not in table


def test_raw_lines_follow_the_scaled_ones():
    tool = load_tool()
    runs = [run("parent", 1, 0.9, raw((0.5,))),
            run("change", 1, 0.8, raw((0.4,)))]
    lines = tool.summary_lines(
        tool.summarize(runs, ["parent", "change"], {"check_s": True}),
        ["parent", "change"])
    assert lines == [
        "eq_obdd check_s: parent 0.9 [0.9, 0.9] x1,"
        " change 0.8 [0.8, 0.8] x1; change better in 1 of 1 pairs",
        "eq_obdd check_s_raw: parent 0.5 [0.5, 0.5] x1,"
        " change 0.4 [0.4, 0.4] x1; change better in 1 of 1 pairs",
    ]
