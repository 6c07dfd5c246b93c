"""tools/bench_record.py flags a metric whose scaled median and raw median
move in opposite directions from the first tree to the second: its
summary entry gets "raw_disagrees": true and its summary line says so.
Every other entry and line is left as it was."""

from test_bench_record_raw import load_tool, raw, run

LABELS = ["parent", "change"]


def summary(*runs):
    tool = load_tool()
    better = {"check_s": True, "produce_s": True}
    return tool, tool.summarize(list(runs), LABELS, better)["eq_obdd"]


def test_scaled_better_and_raw_worse_is_flagged():
    tool, table = summary(run("parent", 1, 0.9, raw((0.5,))),
                          run("change", 1, 0.8, raw((0.6,))))
    assert table["check_s"]["raw_disagrees"] is True
    assert "raw_disagrees" not in table["check_s_raw"]
    lines = tool.summary_lines({"eq_obdd": table}, LABELS)
    assert lines == [
        "eq_obdd check_s: parent 0.9 [0.9, 0.9] x1,"
        " change 0.8 [0.8, 0.8] x1; change better in 1 of 1 pairs;"
        " raw median moves the other way",
        "eq_obdd check_s_raw: parent 0.5 [0.5, 0.5] x1,"
        " change 0.6 [0.6, 0.6] x1; change better in 0 of 1 pairs",
    ]


def test_scaled_worse_and_raw_better_is_flagged():
    _, table = summary(run("parent", 1, 0.8, raw((0.6, 0.7))),
                       run("change", 1, 0.9, raw((0.5,))),
                       run("parent", 2, 0.8, raw((0.6,))),
                       run("change", 2, 0.9, raw((0.5, 0.4))))
    assert table["check_s"]["raw_disagrees"] is True


def test_agreeing_or_unmoved_medians_are_not_flagged():
    for change_check_s, change_raw in ((0.8, 0.4), (0.9, 0.4), (0.8, 0.5)):
        tool, table = summary(run("parent", 1, 0.9, raw((0.5,))),
                              run("change", 1, change_check_s,
                                  raw((change_raw,))))
        assert all("raw_disagrees" not in entry for entry in table.values())
        assert not any(line.endswith("the other way") for line in
                       tool.summary_lines({"eq_obdd": table}, LABELS))


def test_a_metric_one_tree_lacks_is_not_flagged():
    no_raw = run("change", 1, 0.8, {})
    _, table = summary(run("parent", 1, 0.9, raw((0.5,))), no_raw)
    assert "change" not in table["check_s_raw"]
    assert "raw_disagrees" not in table["check_s"]
    tool = load_tool()
    one_tree = tool.summarize([run("parent", 1, 0.9, raw((0.5,)))],
                              ["parent"], {"check_s": True})["eq_obdd"]
    assert "raw_disagrees" not in one_tree["check_s"]
