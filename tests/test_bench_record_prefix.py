"""tools/bench_record.py runs every tree from the same bytecode state: each
``perfbench/run.py`` child compiles into a new, empty bytecode directory
outside the tree, so ``__pycache__`` files left in one tree by an earlier
run are never imported, and the directory is gone after the run."""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "bench_record.py")

FAKE_RUN = """\
import json, sys
print(json.dumps({"proof_sha256": "0" * 64, "reps": 1}))
print(json.dumps({"correct": True, "prefix": sys.pycache_prefix,
                  "metrics": {}}))
"""


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_record", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def fake_tree(directory):
    (directory / "perfbench").mkdir()
    (directory / "perfbench" / "run.py").write_text(FAKE_RUN)
    return str(directory)


def test_each_run_has_its_own_empty_prefix_outside_the_tree(tmp_path):
    tool = load_tool()
    tree = fake_tree(tmp_path)
    prefixes = []
    for seed in (1, 2):
        record = tool.run_once(tree, "sdd_moves", seed, 1, 0)
        assert record["exit"] == 0, record.get("stderr")
        prefix = record["result"]["prefix"]
        assert prefix
        assert os.path.isabs(prefix)
        assert os.path.commonpath([prefix, tree]) != tree
        assert not os.path.exists(prefix)
        prefixes.append(prefix)
    assert prefixes[0] != prefixes[1]
