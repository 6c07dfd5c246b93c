"""Command-line surface: artifacts, reports, and the exit-code contract."""

import contextlib
import io
import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcproof import cli
from kcproof.cnf import cnf, parse_dimacs, to_dimacs
from kcproof.zoo import eq_formula, lift_C, lift_Z
from oracles import brute_force_models

PHI_CONTRA = cnf(1, [(1,), (-1,)])
PHI_TWO_MODELS = cnf(2, [(1, 2), (-1, -2)])


def run(*args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(args))
    return code, out.getvalue(), err.getvalue()


def dimacs_file(directory, name, phi):
    target = os.path.join(str(directory), name)
    with open(target, "w") as handle:
        handle.write(to_dimacs(phi))
    return target


def lifted_file(directory, name, phi):
    base = dimacs_file(directory, "base-" + name, phi)
    target = os.path.join(str(directory), name)
    assert run("lift", "z", base, "-o", target)[0] == 0
    return target


class TestReportSchema:
    def test_shipped_schema_matches_the_module(self):
        here = os.path.dirname(os.path.abspath(__file__))
        shipped = os.path.join(here, os.pardir, "schemas", "run-report.json")
        with open(shipped) as handle:
            assert json.load(handle) == cli.RUN_REPORT_SCHEMA

    def test_validate_accepts_a_fresh_report(self):
        report = cli.run_report("gen", {"family": "contra"},
                                {"variables": 1}, {"wall_seconds": 0.5})
        cli.validate_report(report)

    def test_validate_rejects_a_missing_section(self):
        report = cli.run_report("gen", {}, {}, {})
        del report["sizes"]
        with pytest.raises(ValueError):
            cli.validate_report(report)

    def test_validate_rejects_a_non_integer_size(self):
        report = cli.run_report("gen", {}, {"variables": "three"}, {})
        with pytest.raises(ValueError):
            cli.validate_report(report)

    def test_validate_rejects_a_boolean_size(self):
        report = cli.run_report("gen", {}, {"variables": True}, {})
        with pytest.raises(ValueError):
            cli.validate_report(report)

    def test_validate_rejects_a_wrong_schema_id(self):
        report = cli.run_report("gen", {}, {}, {})
        report["schema"] = "something-else"
        with pytest.raises(ValueError):
            cli.validate_report(report)


class TestGen:
    def test_contra_prints_the_one_variable_contradiction(self):
        code, out, _ = run("gen", "contra")
        assert code == 0
        assert parse_dimacs(out) == PHI_CONTRA
        assert out.splitlines()[0] == "c gen contra"

    def test_vc_grid_1_1_has_seven_clauses(self, tmp_path):
        target = os.path.join(str(tmp_path), "g.cnf")
        code, _, _ = run("gen", "vc-grid", "--h", "1", "--l", "1",
                         "-o", target)
        assert code == 0
        with open(target) as handle:
            phi = parse_dimacs(handle.read())
        assert phi.num_clauses == 7
        assert phi.num_vars == 6

    def test_vc_path_of_three_edges(self):
        code, out, _ = run("gen", "vc-path", "--l", "3")
        phi = parse_dimacs(out)
        assert (code, phi.num_vars, phi.num_clauses) == (0, 4, 3)

    def test_vc_tree_of_height_one(self):
        code, out, _ = run("gen", "vc-tree", "--h", "1")
        phi = parse_dimacs(out)
        assert (code, phi.num_vars, phi.num_clauses) == (0, 3, 2)

    def test_eq_matches_the_library_formula(self):
        code, out, _ = run("gen", "eq", "--n", "4", "--shift", "1")
        assert code == 0
        assert parse_dimacs(out) == eq_formula(4, 1)

    def test_seq_two_has_36_clauses_over_14_variables(self):
        code, out, _ = run("gen", "seq", "--n", "2")
        phi = parse_dimacs(out)
        assert (code, phi.num_vars, phi.num_clauses) == (0, 14, 36)

    def test_tseitin_with_odd_charge_is_unsatisfiable(self):
        code, out, _ = run("gen", "tseitin", "--n", "4", "--d", "3",
                           "--seed", "1")
        assert code == 0
        assert brute_force_models(parse_dimacs(out)) == 0

    def test_non_power_of_two_eq_is_a_usage_error(self):
        assert run("gen", "eq", "--n", "3")[0] == 2

    def test_unknown_family_is_a_usage_error(self):
        assert run("gen", "nope")[0] == 2

    def test_json_without_output_file_is_a_usage_error(self):
        assert run("gen", "contra", "--json")[0] == 2

    def test_json_report_validates_and_echoes_the_seed(self, tmp_path):
        target = os.path.join(str(tmp_path), "t.cnf")
        code, out, _ = run("gen", "tseitin", "--n", "4", "--d", "3",
                           "--seed", "11", "-o", target, "--json")
        assert code == 0
        report = json.loads(out)
        cli.validate_report(report)
        assert report["command"] == "gen"
        assert report["parameters"]["seed"] == 11


class TestLift:
    def test_z_lifting_with_marker(self, tmp_path):
        base = dimacs_file(tmp_path, "c.cnf", PHI_CONTRA)
        code, out, _ = run("lift", "z", base)
        assert code == 0
        assert out.splitlines()[0] == "c lift z 1 2"
        assert parse_dimacs(out) == lift_Z(PHI_CONTRA).result

    def test_c_lifting(self, tmp_path):
        base = dimacs_file(tmp_path, "c.cnf", PHI_CONTRA)
        code, out, _ = run("lift", "c", base)
        assert code == 0
        assert out.splitlines()[0] == "c lift c 1 2"
        assert parse_dimacs(out) == lift_C(PHI_CONTRA)

    def test_lifting_an_empty_formula_is_a_usage_error(self, tmp_path):
        base = dimacs_file(tmp_path, "e.cnf", cnf(1, []))
        assert run("lift", "z", base)[0] == 2

    def test_missing_input_is_a_usage_error(self, tmp_path):
        assert run("lift", "z", os.path.join(str(tmp_path), "no.cnf"))[0] == 2


class TestCompile:
    @pytest.mark.parametrize("fmt", ["obdd", "sdd", "dsdnnf"])
    def test_count_of_the_compilation_matches_brute_force(
            self, tmp_path, fmt):
        code, out, _ = run("gen", "vc-grid", "--h", "1", "--l", "1")
        phi = parse_dimacs(out)
        source = dimacs_file(tmp_path, "g.cnf", phi)
        target = os.path.join(str(tmp_path), "g.diag")
        assert run("compile", source, "--format", fmt, "-o", target)[0] == 0
        with open(target) as handle:
            assert handle.readline() == "format %s\n" % fmt
        code, out, _ = run("count", target)
        assert code == 0
        assert int(out.strip()) == brute_force_models(phi)

    def test_right_linear_vtree_mode(self, tmp_path):
        source = dimacs_file(tmp_path, "f.cnf", PHI_TWO_MODELS)
        target = os.path.join(str(tmp_path), "f.diag")
        assert run("compile", source, "--vtree", "right",
                   "-o", target)[0] == 0
        code, out, _ = run("count", target)
        assert int(out.strip()) == 2

    def test_json_report_carries_the_sizes(self, tmp_path):
        source = dimacs_file(tmp_path, "f.cnf", PHI_TWO_MODELS)
        target = os.path.join(str(tmp_path), "f.diag")
        code, out, _ = run("compile", source, "-o", target, "--json")
        assert code == 0
        report = json.loads(out)
        cli.validate_report(report)
        for key in ("variables", "clauses", "size", "max_diagram_size",
                    "trace_steps"):
            assert key in report["sizes"]


class TestRefuteNaive:
    def test_contra_roundtrip_with_sidecar(self, tmp_path):
        source = dimacs_file(tmp_path, "c.cnf", PHI_CONTRA)
        target = os.path.join(str(tmp_path), "p.kcp")
        code, out, _ = run("refute", source, "--method", "naive",
                           "-o", target)
        assert code == 0
        assert "accepted" in out
        sidecar = json.load(open(target + ".json"))
        cli.validate_report(sidecar)
        assert sidecar["sizes"]["proof_lines"] == 3
        assert sidecar["verdicts"]["check"]["accepted"] is True
        assert run("check", source, target)[0] == 0

    def test_satisfiable_input_is_a_logical_reject(self, tmp_path):
        source = dimacs_file(tmp_path, "s.cnf", cnf(2, [(1, 2)]))
        target = os.path.join(str(tmp_path), "p.kcp")
        code, out, _ = run("refute", source, "--method", "naive",
                           "-o", target)
        assert code == 1
        assert "rejected" in out
        assert os.path.exists(target)
        assert run("check", source, target)[0] == 1

    @pytest.mark.parametrize("fmt", ["sdd", "dsdnnf"])
    def test_structured_formats(self, tmp_path, fmt):
        source = lifted_file(tmp_path, "z.cnf", PHI_CONTRA)
        target = os.path.join(str(tmp_path), "p.kcp")
        assert run("refute", source, "--method", "naive", "--format", fmt,
                   "-o", target)[0] == 0
        assert run("check", source, target)[0] == 0

    def test_tiny_cap_on_circuits_is_a_resource_reject(self, tmp_path):
        source = lifted_file(tmp_path, "z.cnf", PHI_CONTRA)
        target = os.path.join(str(tmp_path), "p.kcp")
        code, _, _ = run("refute", source, "--method", "naive",
                         "--format", "dsdnnf", "--cap", "1", "-o", target)
        assert code == 3


class TestRefuteResolution:
    def test_lifted_contradiction_pipeline(self, tmp_path):
        base = os.path.join(str(tmp_path), "c.cnf")
        assert run("gen", "contra", "-o", base)[0] == 0
        source = os.path.join(str(tmp_path), "z.cnf")
        assert run("lift", "z", base, "-o", source)[0] == 0
        target = os.path.join(str(tmp_path), "p.res")
        assert run("refute", source, "--method", "resolution",
                   "-o", target)[0] == 0
        with open(target) as handle:
            assert handle.readline() == "r 1 input 0\n"
        sidecar = json.load(open(target + ".json"))
        cli.validate_report(sidecar)
        assert sidecar["sizes"]["proof_lines"] == 15
        assert run("check", source, target)[0] == 0

    def test_unmarked_input_is_a_usage_error(self, tmp_path):
        source = dimacs_file(tmp_path, "z.cnf", lift_Z(PHI_CONTRA).result)
        code, _, err = run("refute", source, "--method", "resolution",
                           "-o", os.path.join(str(tmp_path), "p"))
        assert code == 2
        assert "lift marker" in err

    def test_tampered_lifting_is_a_usage_error(self, tmp_path):
        source = lifted_file(tmp_path, "z.cnf", PHI_CONTRA)
        text = open(source).read().replace("4 0", "-4 0", 1)
        tampered = os.path.join(str(tmp_path), "zt.cnf")
        open(tampered, "w").write(text)
        code, _, err = run("refute", tampered, "--method", "resolution",
                           "-o", os.path.join(str(tmp_path), "p"))
        assert code == 2
        assert "match" in err


class TestRefuteCompile2ref:
    @pytest.mark.parametrize("fmt", ["sdd", "obdd"])
    def test_lifted_two_model_formula(self, tmp_path, fmt):
        source = lifted_file(tmp_path, "z.cnf", PHI_TWO_MODELS)
        target = os.path.join(str(tmp_path), "p.kcp")
        assert run("refute", source, "--method", "compile2ref",
                   "--format", fmt, "-o", target)[0] == 0
        assert run("check", source, target)[0] == 0

    def test_circuit_format_is_a_usage_error(self, tmp_path):
        source = lifted_file(tmp_path, "z.cnf", PHI_TWO_MODELS)
        code, _, _ = run("refute", source, "--method", "compile2ref",
                         "--format", "dsdnnf",
                         "-o", os.path.join(str(tmp_path), "p"))
        assert code == 2


class TestRefuteTreewidth:
    def test_lifted_path_cover_reports_width_one(self, tmp_path):
        code, out, _ = run("gen", "vc-path", "--l", "3")
        source = lifted_file(tmp_path, "z.cnf", parse_dimacs(out))
        target = os.path.join(str(tmp_path), "p.kcp")
        assert run("refute", source, "--method", "treewidth",
                   "-o", target)[0] == 0
        sidecar = json.load(open(target + ".json"))
        cli.validate_report(sidecar)
        assert sidecar["sizes"]["width"] == 1
        assert run("check", source, target)[0] == 0


class TestRefuteEq:
    def test_lifted_shifted_equality(self, tmp_path):
        source = lifted_file(tmp_path, "z.cnf", eq_formula(2, 1))
        target = os.path.join(str(tmp_path), "p.kcp")
        code, _, _ = run("refute", source, "--method", "eq", "-o", target)
        assert code == 0
        sidecar = json.load(open(target + ".json"))
        cli.validate_report(sidecar)
        assert sidecar["parameters"]["n"] == 2
        assert sidecar["parameters"]["shift"] == 1
        assert sidecar["sizes"]["proof_lines"] == 35
        assert sidecar["sizes"]["max_diagram_size"] == 17
        assert run("check", source, target)[0] == 0

    def test_non_equality_lifting_is_a_usage_error(self, tmp_path):
        source = lifted_file(tmp_path, "z.cnf", PHI_CONTRA)
        code, _, err = run("refute", source, "--method", "eq",
                           "-o", os.path.join(str(tmp_path), "p"))
        assert code == 2
        assert "shifted equality" in err


class TestCheck:
    def _accepted_proof(self, tmp_path):
        source = lifted_file(tmp_path, "z.cnf", PHI_CONTRA)
        target = os.path.join(str(tmp_path), "p.kcp")
        assert run("refute", source, "--method", "naive",
                   "-o", target)[0] == 0
        return source, target

    def test_accepted_json_report(self, tmp_path):
        source, target = self._accepted_proof(tmp_path)
        code, out, _ = run("check", source, target, "--json")
        assert code == 0
        report = json.loads(out)
        cli.validate_report(report)
        assert report["verdicts"]["check"]["accepted"] is True

    def test_tampered_proof_reports_the_failing_line(self, tmp_path):
        source, target = self._accepted_proof(tmp_path)
        text = open(target).read()
        tampered_text = text.replace("L 15 join 13 14", "L 15 join 13 13")
        assert tampered_text != text
        tampered = os.path.join(str(tmp_path), "pt.kcp")
        open(tampered, "w").write(tampered_text)
        code, out, _ = run("check", source, tampered, "--json")
        assert code == 1
        report = json.loads(out)
        assert report["verdicts"]["check"]["accepted"] is False
        assert report["verdicts"]["check"]["failing_line"] == 15

    def test_proof_against_the_wrong_formula_is_rejected(self, tmp_path):
        _, target = self._accepted_proof(tmp_path)
        other = lifted_file(tmp_path, "z2.cnf", PHI_TWO_MODELS)
        assert run("check", other, target)[0] == 1

    def test_garbage_proof_file_is_a_usage_error(self, tmp_path):
        source = dimacs_file(tmp_path, "c.cnf", PHI_CONTRA)
        bad = os.path.join(str(tmp_path), "p.kcp")
        open(bad, "w").write("what is this\n")
        assert run("check", source, bad)[0] == 2


class TestExtract:
    def _pipeline(self, tmp_path, fmt="obdd"):
        source = lifted_file(tmp_path, "z.cnf", PHI_TWO_MODELS)
        proof = os.path.join(str(tmp_path), "p.kcp")
        assert run("refute", source, "--method", "naive", "--format", fmt,
                   "-o", proof)[0] == 0
        return source, proof

    def test_extraction_counts_the_base_models(self, tmp_path):
        source, proof = self._pipeline(tmp_path)
        target = os.path.join(str(tmp_path), "d.diag")
        code, _, _ = run("extract", source, proof, "-o", target)
        assert code == 0
        lines = open(target).read().splitlines()
        assert lines[0] == "format obdd"
        assert lines[1] == "o x1 x2"
        code, out, _ = run("count", target)
        assert code == 0
        assert out.strip() == "2"

    def test_sdd_extraction_lands_on_the_base_vtree(self, tmp_path):
        source, proof = self._pipeline(tmp_path, "sdd")
        target = os.path.join(str(tmp_path), "d.diag")
        assert run("extract", source, proof, "-o", target)[0] == 0
        code, out, _ = run("count", target)
        assert out.strip() == "2"

    def test_variable_cap_is_a_resource_error(self, tmp_path):
        source, proof = self._pipeline(tmp_path)
        code, _, err = run("extract", source, proof, "--var-cap", "0",
                           "-o", os.path.join(str(tmp_path), "d"))
        assert code == 3
        assert "cap" in err

    def test_rejected_proof_is_a_logical_reject(self, tmp_path):
        source, proof = self._pipeline(tmp_path)
        text = open(proof).read()
        tampered = os.path.join(str(tmp_path), "pt.kcp")
        open(tampered, "w").write(text.replace("join 17 18", "join 17 17"))
        code, _, _ = run("extract", source, tampered,
                         "-o", os.path.join(str(tmp_path), "d"))
        assert code == 1

    def test_unmarked_formula_is_a_usage_error(self, tmp_path):
        source = dimacs_file(tmp_path, "z.cnf",
                             lift_Z(PHI_TWO_MODELS).result)
        proof = os.path.join(str(tmp_path), "p.kcp")
        assert run("refute", source, "--method", "naive",
                   "-o", proof)[0] == 0
        assert run("extract", source, proof,
                   "-o", os.path.join(str(tmp_path), "d"))[0] == 2

    def test_resolution_proof_is_a_usage_error(self, tmp_path):
        source = lifted_file(tmp_path, "z.cnf", PHI_CONTRA)
        proof = os.path.join(str(tmp_path), "p.res")
        assert run("refute", source, "--method", "resolution",
                   "-o", proof)[0] == 0
        code, _, err = run("extract", source, proof,
                           "-o", os.path.join(str(tmp_path), "d"))
        assert code == 2
        assert "diagram proof" in err


class TestCount:
    def test_equality_compilation_has_four_models(self, tmp_path):
        source = dimacs_file(tmp_path, "eq.cnf", eq_formula(2, 0))
        target = os.path.join(str(tmp_path), "eq.diag")
        assert run("compile", source, "--format", "obdd",
                   "-o", target)[0] == 0
        code, out, _ = run("count", target)
        assert (code, out.strip()) == (0, "4")

    def test_json_report_carries_the_count(self, tmp_path):
        source = dimacs_file(tmp_path, "eq.cnf", eq_formula(2, 0))
        target = os.path.join(str(tmp_path), "eq.diag")
        run("compile", source, "-o", target)
        code, out, _ = run("count", target, "--json")
        report = json.loads(out)
        cli.validate_report(report)
        assert (code, report["sizes"]["models"]) == (0, 4)

    def test_missing_format_line_is_a_usage_error(self, tmp_path):
        bad = os.path.join(str(tmp_path), "d.diag")
        open(bad, "w").write("o x1\nn 2 1 F T\nroot 2\n")
        assert run("count", bad)[0] == 2


class TestStats:
    def test_diagram_proof_breakdown(self, tmp_path):
        source = dimacs_file(tmp_path, "c.cnf", PHI_CONTRA)
        target = os.path.join(str(tmp_path), "p.kcp")
        run("refute", source, "--method", "naive", "-o", target)
        code, out, _ = run("stats", target, "--json")
        assert code == 0
        report = json.loads(out)
        cli.validate_report(report)
        assert report["sizes"]["proof_lines"] == 3
        assert report["sizes"]["init_lines"] == 2
        assert report["sizes"]["join_lines"] == 1
        assert report["sizes"]["weaken_lines"] == 0
        assert report["sizes"]["structures"] == 1
        assert report["parameters"]["format"] == "obdd"
        assert report["parameters"]["rules"] == "join"

    def test_resolution_breakdown(self, tmp_path):
        source = lifted_file(tmp_path, "z.cnf", PHI_CONTRA)
        target = os.path.join(str(tmp_path), "p.res")
        run("refute", source, "--method", "resolution", "-o", target)
        code, out, _ = run("stats", target)
        assert code == 0
        assert "proof_lines 15" in out
        assert "input_lines 8" in out
        assert "res_lines 7" in out


class TestExitContract:
    def test_no_arguments_is_a_usage_error(self):
        assert run()[0] == 2

    def test_help_exits_cleanly(self):
        code, out, _ = run("--help")
        assert code == 0
        assert "refute" in out

    def test_unknown_subcommand_is_a_usage_error(self):
        assert run("frobnicate")[0] == 2


def small_formulas():
    literals = st.integers(min_value=1, max_value=3).flatmap(
        lambda v: st.sampled_from([v, -v]))
    clause = st.lists(literals, min_size=1, max_size=3).map(
        lambda lits: tuple(sorted({l for l in lits
                                   if -l not in lits}, key=abs))).filter(
        lambda c: len(c) > 0)
    return st.lists(clause, min_size=1, max_size=5).map(
        lambda cs: cnf(3, cs))


@settings(max_examples=15, deadline=None)
@given(small_formulas())
def test_naive_refutation_exit_code_tracks_satisfiability(phi):
    with tempfile.TemporaryDirectory() as workdir:
        source = dimacs_file(workdir, "f.cnf", phi)
        target = os.path.join(workdir, "p.kcp")
        code, _, _ = run("refute", source, "--method", "naive", "-o", target)
        expected = 0 if brute_force_models(phi) == 0 else 1
        assert code == expected
        assert run("check", source, target)[0] == expected
