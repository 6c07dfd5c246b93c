"""`kcp` paths that no other test reaches: blank lines before a diagram's
format line, proof headers after comments, empty inputs, unwritable
outputs, and the shapes of report that `validate_report` refuses."""

import contextlib
import io

import pytest

from kcproof import cli


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def write(directory, name, text):
    target = directory / name
    target.write_text(text)
    return str(target)


@pytest.fixture
def lifted_contra(tmp_path):
    base = str(tmp_path / "phi.cnf")
    lifted = str(tmp_path / "lifted.cnf")
    assert run("gen", "contra", "-o", base)[0] == 0
    assert run("lift", "z", base, "-o", lifted)[0] == 0
    return lifted


class TestDiagramFiles:
    def test_blank_lines_before_the_format_line(self, tmp_path):
        target = write(tmp_path, "d.txt",
                       "\n  \nformat obdd\no x1 x2\nroot T\n")
        assert run("count", target) == (0, "4\n", "")

    def test_an_unknown_format_exits_2(self, tmp_path):
        target = write(tmp_path, "d.txt", "format xyz\nroot T\n")
        assert run("count", target) == (
            2, "", "error: unknown diagram format 'xyz'\n")


class TestProofFiles:
    def test_a_header_after_comments_is_read(self, tmp_path, lifted_contra):
        proof = str(tmp_path / "p.txt")
        assert run("refute", lifted_contra, "--method", "naive",
                   "-o", proof)[0] == 0
        with open(proof) as handle:
            text = handle.read()
        commented = write(tmp_path, "c.txt", "c a comment\nc\n\n" + text)
        assert run("check", lifted_contra, commented) == (0, "accepted\n", "")

    @pytest.mark.parametrize("command", ["check", "stats"])
    def test_comments_only_is_an_empty_proof(self, tmp_path, lifted_contra,
                                             command):
        proof = write(tmp_path, "p.txt", "c nothing here\n\nc\n")
        argv = [command, lifted_contra, proof] if command == "check" \
            else [command, proof]
        assert run(*argv) == (2, "", "error: empty proof file\n")


class TestEmptyAndWrongFormulas:
    @pytest.mark.parametrize("argv", [["compile"],
                                      ["refute", "--method", "naive"]])
    def test_no_variables_exits_2(self, tmp_path, argv):
        phi = write(tmp_path, "empty.cnf", "p cnf 0 0\n")
        assert run(*(argv[:1] + [phi] + argv[1:])) == (
            2, "", "error: formula has no variables\n")

    def test_eq_refuses_a_base_that_is_no_equality(self, lifted_contra):
        assert run("refute", lifted_contra, "--method", "eq") == (
            2, "", "error: base formula is not a shifted equality\n")


class TestUnwritableOutput:
    def test_gen_names_its_output(self, tmp_path):
        target = str(tmp_path / "missing" / "phi.cnf")
        code, out, err = run("gen", "contra", "-o", target)
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot write %s: " % target)

    def test_refute_names_its_sidecar(self, tmp_path, lifted_contra):
        target = str(tmp_path / "missing" / "p.txt")
        code, out, err = run("refute", lifted_contra, "--method", "naive",
                             "-o", target)
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot write %s.json: " % target)


class TestReportShapes:
    def fresh(self):
        return cli.run_report("check", {"cap": 1}, {"proof_lines": 3},
                              {"wall_seconds": 0.25})

    def test_a_list_is_not_a_report(self):
        with pytest.raises(ValueError, match="expected an object"):
            cli.validate_report([self.fresh()])

    def test_a_non_string_key_is_refused(self):
        report = self.fresh()
        report["parameters"][7] = "seven"
        with pytest.raises(ValueError, match="non-string key 7"):
            cli.validate_report(report)

    def test_the_command_is_a_string(self):
        report = self.fresh()
        report["command"] = 3
        with pytest.raises(ValueError, match="report.command"):
            cli.validate_report(report)

    def test_a_timing_is_a_number(self):
        report = self.fresh()
        report["timings"]["wall_seconds"] = "fast"
        with pytest.raises(ValueError, match="report.timings.wall_seconds"):
            cli.validate_report(report)
