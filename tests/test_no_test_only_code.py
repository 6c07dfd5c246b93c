"""The package ships only code that kcp, the benchmark or the tools run.

Every top-level function and class of `src/kcproof`, and every method of
its classes, must be referenced in code somewhere in `src/` outside its
own definition, in `perfbench/`, in `tools/` or in a `python -c '...'`
snippet of `.github/workflows/*.yml`.  A reference is a name, an
attribute or an imported name in the parsed code; a docstring or a
comment that mentions a name does not count.  A method counts as
referenced wherever its name appears as an attribute, whatever the
receiver.  Code that only tests call lives in `tests/oracles.py`, so the
trusted-base modules hold no test oracle.
"""

import ast
import glob
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# names kept although only tests reach them, each with its reason
ALLOWED = {
    "proof_to_lines": "tests/test_checker_module.py's NOT_ENTERED list"
                      " names it as writer code of kcproof.proofs",
    "Proof.add_weaken": "tests/test_checker_module.py's NOT_ENTERED list"
                        " names it as builder code of kcproof.proofs",
    "Proof.add_reorder": "tests/test_checker_module.py's NOT_ENTERED list"
                         " names it as builder code of kcproof.proofs",
    "obdd_to_dsdnnf": "kept for translating OBDD proofs to d-SDNNF line"
                      " by line, which is to call it",
}
SNIPPET = re.compile(r"python3? -c '([^']*)'")


def python_files(top):
    for folder, _, files in os.walk(top):
        for name in sorted(files):
            if name.endswith(".py"):
                yield os.path.join(folder, name)


def parsed_sources(root):
    """(path, tree) of every Python file under src/, perfbench/ and
    tools/, and of every python -c snippet in the CI workflows."""
    for top in ("src", "perfbench", "tools"):
        for path in python_files(os.path.join(root, top)):
            with open(path) as handle:
                yield path, ast.parse(handle.read(), path)
    pattern = os.path.join(root, ".github", "workflows", "*.yml")
    for path in sorted(glob.glob(pattern)):
        with open(path) as handle:
            for code in SNIPPET.findall(handle.read()):
                yield path, ast.parse(code, path)


def references(root):
    """name -> [(path, line, whether an attribute)] of every Name,
    Attribute and imported name."""
    found = {}
    for path, tree in parsed_sources(root):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [alias.name.rsplit(".", 1)[-1] for alias in node.names]
            else:
                continue
            for name in names:
                found.setdefault(name, []).append(
                    (path, node.lineno, isinstance(node, ast.Attribute)))
    return found


def definitions(package):
    """(key, module.key, path, first line, last line) of every top-level
    function and class of the package, and of every method of its
    classes other than the dunder ones Python calls itself."""
    for path in python_files(package):
        with open(path) as handle:
            tree = ast.parse(handle.read(), path)
        module = os.path.basename(path)[:-3]
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            members = [(node.name, node)]
            if isinstance(node, ast.ClassDef):
                members += [("%s.%s" % (node.name, item.name), item)
                            for item in node.body
                            if isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("__")]
            for key, item in members:
                first = min([item.lineno] + [d.lineno
                                             for d in item.decorator_list])
                yield (key, "%s.%s" % (module, key), path, first,
                       item.end_lineno)


def unreferenced(root=ROOT):
    """key -> module.key of every package function, class and method that
    no code in src/ outside its own definition, perfbench/, tools/ or a
    workflow snippet references."""
    refs = references(root)
    found = {}
    for key, qualified, path, first, last in definitions(
            os.path.join(root, "src", "kcproof")):
        method = "." in key
        # a method is reached through an attribute only, and a function
        # that calls itself is still called by no one
        if all(method and not attribute
               or where == path and first <= line <= last
               for where, line, attribute
               in refs.get(key.rsplit(".", 1)[-1], ())):
            found[key] = qualified
    return found


def test_every_package_name_has_a_caller_outside_tests():
    found = unreferenced()
    assert sorted(found[key] for key in set(found) - set(ALLOWED)) == []


def test_every_allowed_name_is_still_defined_and_called_by_tests_alone():
    assert set(ALLOWED) <= set(unreferenced())


def test_the_guard_reads_code_not_words(tmp_path):
    def write(relative, text):
        path = tmp_path / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)

    write("src/kcproof/a.py",
          "def named_in_a_docstring():\n    return 1\n\n\n"
          "def called_by_ci():\n    return 2\n\n\n"
          "class Store:\n"
          "    def __init__(self):\n        self.n = 0\n\n"
          "    def used(self):\n        return self.n\n\n"
          "    def tested_only(self):\n        return self.used()\n")
    write("src/kcproof/b.py",
          '"""Calls named_in_a_docstring(), in words only."""\n'
          "from .a import Store\n\n\n"
          "def run():\n    return Store().used()\n")
    write("perfbench/bench.py", "from kcproof.b import run\n\nrun()\n")
    write("tests/test_a.py",
          "from kcproof.a import Store, named_in_a_docstring\n\n\n"
          "def test_it():\n"
          "    assert Store().tested_only() == named_in_a_docstring() - 1\n")
    write(".github/workflows/ci.yml",
          "jobs:\n  smoke:\n    steps:\n      - run: |\n"
          "          python -c 'from kcproof.a import called_by_ci;"
          " called_by_ci()'\n")
    assert unreferenced(str(tmp_path)) == {
        "named_in_a_docstring": "a.named_in_a_docstring",
        "Store.tested_only": "a.Store.tested_only"}
