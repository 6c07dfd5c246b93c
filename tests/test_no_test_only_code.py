"""The package ships only code that kcp, the benchmark or the tools run.

Every top-level function and class of `src/kcproof` must be named
somewhere in `src/` outside its own definition, in `perfbench/` or in
`tools/`.  A name counts where it appears as a word, in code or in the
documentation of a module's interface (refute's docstring lists
`restrict_proof`, for one).  Code that only tests call lives in
`tests/oracles.py`, so the trusted-base modules hold no test oracle.
"""

import ast
import os
import re
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "kcproof")
CALLERS = (os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench"),
           os.path.join(ROOT, "tools"))

# names kept although only tests reach them, each with its reason
ALLOWED = {
    "proof_to_lines": "tests/test_checker_module.py's NOT_ENTERED list"
                      " names it as writer code of kcproof.proofs",
    "obdd_to_dsdnnf": "kept for translating OBDD proofs to d-SDNNF line"
                      " by line, which is to call it",
}
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def python_files(top):
    for folder, _, files in os.walk(top):
        for name in sorted(files):
            if name.endswith(".py"):
                yield os.path.join(folder, name)


def words(text):
    return Counter(WORD.findall(text))


def unreferenced():
    """module.name of every top-level function and class of the package
    whose name appears nowhere in src/, perfbench/ or tools/ outside the
    lines of its own definition."""
    total = Counter()
    for top in CALLERS:
        for path in python_files(top):
            with open(path) as handle:
                total += words(handle.read())
    found = {}
    for path in python_files(PACKAGE):
        with open(path) as handle:
            text = handle.read()
        lines = text.splitlines()
        for node in ast.parse(text, path).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            first = min([node.lineno] + [d.lineno
                                         for d in node.decorator_list])
            # a function that calls itself is still called by no one
            own = words("\n".join(lines[first - 1:node.end_lineno]))
            if total[node.name] == own[node.name]:
                found[node.name] = "%s.%s" % (
                    os.path.basename(path)[:-3], node.name)
    return found


def test_every_package_name_has_a_caller_outside_tests():
    found = unreferenced()
    assert sorted(found[name] for name in set(found) - set(ALLOWED)) == []


def test_every_allowed_name_is_still_defined_and_called_by_tests_alone():
    assert set(ALLOWED) <= set(unreferenced())
