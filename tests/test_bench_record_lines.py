"""tools/bench_record.py ends with one summary line per workload and
end-to-end metric, so that a claim can be read off its output."""

import importlib.util
import json
import os
import shutil
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "bench_record.py")


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_record", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def summary_entry(**trees):
    return {label: {"median": m, "q1": q1, "q3": q3, "runs": runs}
            for label, (m, q1, q3, runs) in trees.items()}


def test_lines_of_two_trees():
    tool = load_tool()
    summary = {
        "sdd_moves": {
            "produce_s": dict(summary_entry(
                parent=(1.1151, 1.0894, 1.1523, 10),
                change=(0.44912, 0.4471, 0.4523, 10)),
                pairs=10, second_better=10),
            "proof_bytes": dict(summary_entry(
                parent=(457153, 457034, 457200.5, 10),
                change=(419753, 419517, 419800, 10)),
                pairs=10, second_better=10),
        },
        "eq_obdd": {
            "verdict_accuracy": dict(summary_entry(
                parent=(1.0, 1.0, 1.0, 2), change=(1.0, 1.0, 1.0, 2)),
                pairs=2, second_better=0),
        },
    }
    assert tool.summary_lines(summary, ["parent", "change"]) == [
        "eq_obdd verdict_accuracy: parent 1 [1, 1] x2, change 1 [1, 1] x2;"
        " change better in 0 of 2 pairs",
        "sdd_moves produce_s: parent 1.115 [1.089, 1.152] x10,"
        " change 0.4491 [0.4471, 0.4523] x10; change better in 10 of 10 pairs",
        "sdd_moves proof_bytes: parent 457153 [457034, 457200] x10,"
        " change 419753 [419517, 419800] x10; change better in 10 of 10 pairs",
    ]


def test_lines_of_one_tree_name_no_pairs():
    tool = load_tool()
    summary = {"dsdnnf_fold": {"check_s": summary_entry(
        only=(0.0781, 0.0776, 0.0790, 3))}}
    assert tool.summary_lines(summary, ["only"]) == [
        "dsdnnf_fold check_s: only 0.0781 [0.0776, 0.079] x3"]


def test_main_ends_with_the_summary(tmp_path, monkeypatch, capsys):
    tool = load_tool()
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), str(tmp_path))
    monkeypatch.setattr(tool, "ROOT", str(tmp_path))
    values = iter([0.16, 0.10, 0.09, 0.15])

    def run_once(tree, workload, seed, seconds, trace):
        return {"exit": 0, "proof_sha256": "0" * 64, "reps": 2,
                "result": {"correct": True, "metrics": {
                    "check_s": {"unit": "s", "value": next(values)}}}}

    monkeypatch.setattr(tool, "run_once", run_once)
    monkeypatch.setattr(sys, "argv", [
        "bench_record.py", "--pr", "t", "--tree", "parent=a",
        "--tree", "change=b", "--workload", "dsdnnf_fold",
        "--seed", "1", "--seed", "2", "--seconds", "1"])
    assert tool.main() == 0
    assert capsys.readouterr().out.splitlines() == [
        "dsdnnf_fold seed 1 parent: correct",
        "dsdnnf_fold seed 1 change: correct",
        "dsdnnf_fold seed 2 change: correct",
        "dsdnnf_fold seed 2 parent: correct",
        "dsdnnf_fold check_s: parent 0.155 [0.1525, 0.1575] x2,"
        " change 0.095 [0.0925, 0.0975] x2; change better in 2 of 2 pairs",
    ]
    with open(str(tmp_path / "BENCH_t.json")) as handle:
        recorded = json.load(handle)
    assert set(recorded) == {"trees", "runs", "summary"}
    assert len(recorded["runs"]) == 4
