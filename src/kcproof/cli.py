"""Command-line surface: generate formulas, lift them, compile diagrams,
produce and check refutations, extract representations, count models.

Exit codes: 0 success or accepted, 1 logical reject, 2 usage or malformed
input, 3 resource cap exceeded.  Machine-readable run reports follow the
schema in RUN_REPORT_SCHEMA (shipped in the repository as
schemas/run-report.json); validate_report checks a report against it.
"""

import argparse
import json
import sys
import time

from kcproof.cnf import (CapExceeded, CnfError, cnf, parse_dimacs,
                         primal_graph, to_dimacs, tree_decomposition)
from kcproof.structure import (StructureError, right_linear_vtree,
                               vtree_from_decomposition)
from kcproof.obdd import ObddError, obdd_size, obdd_to_text, parse_obdd
from kcproof.sdd import SddError, parse_sdd, sdd_size, sdd_to_text
from kcproof.dsdnnf import (DsdnnfError, circuit_size, circuit_to_text,
                            dsdnnf_count_own_vars, parse_circuit,
                            validate_deterministic)
from kcproof.zoo import (ZooError, complete_binary_tree, eq_formula,
                         grid_family, lift_C, lift_Z, path, random_regular,
                         seq_formula, tseitin, vc_formula)
from kcproof.proofs import (BACKENDS, RULES, ProofError, check_proof,
                            check_resolution, fold_trace, parse_proof,
                            parse_resolution, proof_to_text,
                            resolution_to_text)
from kcproof.refute import (RefuteError, compilation_to_refutation,
                            extract_representation, fold_backend,
                            naive_conjoin_refute, obdd_refute_eq,
                            resolution_refute_lifted, treewidth_refute)

DEFAULT_CHECK_CAP = 10 ** 7

REPORT_SCHEMA_ID = "kcproof-run-report/1"

RUN_REPORT_SCHEMA = {
    "$id": REPORT_SCHEMA_ID,
    "type": "object",
    "required": ["schema", "command", "parameters", "sizes", "timings",
                 "verdicts"],
    "properties": {
        "schema": {"const": REPORT_SCHEMA_ID},
        "command": {"type": "string"},
        "parameters": {"type": "object"},
        "sizes": {"type": "object",
                  "additionalProperties": {"type": "integer"}},
        "timings": {"type": "object",
                    "additionalProperties": {"type": "number"}},
        "verdicts": {"type": "object",
                     "additionalProperties": {"type": "object"}},
    },
}


class UsageError(Exception):
    pass


# ------------------------------------------------------------- run reports

def _check_schema(value, schema, where):
    if "const" in schema:
        if value != schema["const"]:
            raise ValueError("%s: expected %r, found %r"
                             % (where, schema["const"], value))
        return
    kind = schema.get("type")
    if kind == "object":
        if not isinstance(value, dict):
            raise ValueError("%s: expected an object" % where)
        for key in schema.get("required", ()):
            if key not in value:
                raise ValueError("%s: missing key %r" % (where, key))
        properties = schema.get("properties", {})
        extra = schema.get("additionalProperties")
        for key, member in value.items():
            if not isinstance(key, str):
                raise ValueError("%s: non-string key %r" % (where, key))
            inner = "%s.%s" % (where, key)
            if key in properties:
                _check_schema(member, properties[key], inner)
            elif isinstance(extra, dict):
                _check_schema(member, extra, inner)
    elif kind == "string":
        if not isinstance(value, str):
            raise ValueError("%s: expected a string" % where)
    elif kind == "integer":
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError("%s: expected an integer" % where)
    elif kind == "number":
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ValueError("%s: expected a number" % where)
    elif kind is not None:
        raise ValueError("%s: unsupported schema type %r" % (where, kind))


def validate_report(report):
    """Raise ValueError when the report does not match the run schema."""
    _check_schema(report, RUN_REPORT_SCHEMA, "report")


def run_report(command, parameters, sizes, timings, verdicts=None):
    return {
        "schema": REPORT_SCHEMA_ID,
        "command": command,
        "parameters": dict(parameters),
        "sizes": dict(sizes),
        "timings": dict(timings),
        "verdicts": dict(verdicts or {}),
    }


# ----------------------------------------------------------------- file I/O

def _read_text(path):
    try:
        with open(path) as handle:
            return handle.read()
    except OSError as exc:
        raise UsageError("cannot read %s: %s" % (path, exc))


def _write_text(path, text):
    try:
        with open(path, "w") as handle:
            handle.write(text)
    except OSError as exc:
        raise UsageError("cannot write %s: %s" % (path, exc))


def _emit_artifact(args, text, report):
    """Write the artifact to -o or stdout and honour --json.

    With -o the artifact goes to the file and the caller may still print
    a summary; without -o the artifact itself is the stdout payload, so
    --json has nowhere to go and is rejected.
    """
    if args.output is None:
        if getattr(args, "json", False):
            raise UsageError("--json needs -o, stdout carries the artifact")
        sys.stdout.write(text)
        return False
    _write_text(args.output, text)
    if getattr(args, "json", False):
        print(json.dumps(report, indent=2))
        return True
    return True


# ------------------------------------------------------------ formula files

def _load_formula(path):
    text = _read_text(path)
    return parse_dimacs(text), text


def _lift_marker(text):
    for raw in text.splitlines():
        parts = raw.strip().split()
        if len(parts) == 5 and parts[0] == "c" and parts[1] == "lift":
            try:
                return parts[2], int(parts[3]), int(parts[4])
            except ValueError:
                raise UsageError("unreadable lift marker %r" % raw.strip())
    return None


def _recover_z_lifting(phi, text):
    """Rebuild the LiftedFormula recorded in a lift marker comment.

    The marker names the base dimensions; the base clauses are the
    augmented clauses with their control literal (always the largest
    variable of the clause) stripped, and the lifting is recomputed and
    compared so a tampered file cannot smuggle in a different formula.
    """
    marker = _lift_marker(text)
    if marker is None:
        raise UsageError(
            "input carries no lift marker; produce it with the lift"
            " subcommand")
    kind, base_vars, base_clauses = marker
    if kind != "z":
        raise UsageError("this command needs a z lifting, marker says %r"
                         % kind)
    if not 0 < base_clauses <= len(phi.clauses):
        raise UsageError("lift marker clause count does not fit the file")
    recovered = []
    for i, clause in enumerate(phi.clauses[:base_clauses], start=1):
        if not clause or clause[-1] != base_vars + i:
            raise UsageError("clause %d does not end in its control"
                             " variable" % i)
        recovered.append(clause[:-1])
    try:
        base = cnf(base_vars, recovered)
        lifted = lift_Z(base)
    except (CnfError, ZooError) as exc:
        raise UsageError("lift marker does not describe a lifting: %s" % exc)
    if lifted.result.num_vars != phi.num_vars \
            or lifted.result.clauses != phi.clauses:
        raise UsageError("clauses do not match the recorded lifting")
    return lifted


# ------------------------------------------------------------ diagram files

# writer, reader and size of each diagram file format
_DIAGRAM_FILES = {
    "obdd": (obdd_to_text, parse_obdd, obdd_size),
    "sdd": (sdd_to_text, parse_sdd, sdd_size),
    "dsdnnf": (circuit_to_text, parse_circuit, circuit_size),
}


def _diagram_text(fmt, d):
    return "format %s\n%s" % (fmt, _DIAGRAM_FILES[fmt][0](d))


def _parse_diagram(text):
    lines = text.splitlines()
    while lines and not lines[0].strip():
        del lines[0]
    if not lines or not lines[0].startswith("format "):
        raise UsageError("diagram file is missing its format line")
    fmt = lines[0][len("format "):].strip()
    if fmt not in _DIAGRAM_FILES:
        raise UsageError("unknown diagram format %r" % fmt)
    return fmt, _DIAGRAM_FILES[fmt][1]("\n".join(lines[1:]))


def _diagram_size(fmt, d):
    return _DIAGRAM_FILES[fmt][2](d)


def _count_models(fmt, d):
    backend = BACKENDS[fmt]
    if fmt == "dsdnnf":
        if d.vtree is None:
            # deciding determinism without a vtree is coNP-hard: presumed
            return dsdnnf_count_own_vars(d)
        # checks every literal against the vtree before it builds any mask
        if not validate_deterministic(d, d.vtree):
            raise DsdnnfError("circuit is not deterministic")
    return backend.count(d, backend.structure_of(backend.store_of(d)))


def _detect_proof(text):
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line == "c" or line.startswith("c "):
            continue
        if line.startswith("p kcp"):
            return "kcp"
        if line.startswith("r "):
            return "resolution"
        raise UsageError("unrecognized proof header %r" % line)
    raise UsageError("empty proof file")


# ------------------------------------------------------------- subcommands

def _cmd_gen(args):
    start = time.perf_counter()
    parameters = {"family": args.family}
    if args.family == "vc-path":
        phi = vc_formula(path(args.l))
        parameters["l"] = args.l
    elif args.family == "vc-tree":
        phi = vc_formula(complete_binary_tree(args.height))
        parameters["h"] = args.height
    elif args.family == "vc-grid":
        phi = vc_formula(grid_family(args.height, args.l))
        parameters.update({"h": args.height, "l": args.l})
    elif args.family == "eq":
        phi = eq_formula(args.n, args.shift)
        parameters.update({"n": args.n, "shift": args.shift})
    elif args.family == "tseitin":
        graph = random_regular(args.n, args.degree, args.seed)
        charges = [1] + [0] * (args.n - 1)
        phi = tseitin(graph, charges)
        parameters.update({"n": args.n, "d": args.degree, "seed": args.seed})
    elif args.family == "seq":
        phi = seq_formula(args.n)
        parameters["n"] = args.n
    else:
        phi = cnf(1, [(1,), (-1,)])
    comment = "c gen %s\n" % " ".join(
        [args.family] + ["%s=%s" % (k, parameters[k])
                         for k in sorted(parameters) if k != "family"])
    report = run_report(
        "gen", parameters,
        {"variables": phi.num_vars, "clauses": phi.num_clauses},
        {"wall_seconds": time.perf_counter() - start})
    if _emit_artifact(args, comment + to_dimacs(phi), report) \
            and not args.json:
        print("wrote %s (%d variables, %d clauses)"
              % (args.output, phi.num_vars, phi.num_clauses))
    return 0


def _cmd_lift(args):
    start = time.perf_counter()
    phi, _ = _load_formula(args.input)
    if args.kind == "z":
        lifted = lift_Z(phi).result
    else:
        lifted = lift_C(phi)
    marker = "c lift %s %d %d\n" % (args.kind, phi.num_vars, phi.num_clauses)
    report = run_report(
        "lift",
        {"kind": args.kind, "input": args.input,
         "base_variables": phi.num_vars, "base_clauses": phi.num_clauses},
        {"variables": lifted.num_vars, "clauses": lifted.num_clauses},
        {"wall_seconds": time.perf_counter() - start})
    if _emit_artifact(args, marker + to_dimacs(lifted), report) \
            and not args.json:
        print("wrote %s (%d variables, %d clauses)"
              % (args.output, lifted.num_vars, lifted.num_clauses))
    return 0


def _structure(fmt, phi, vtree_mode="right"):
    """The natural order for obdd; for the vtree formats the right-linear
    vtree or, with vtree_mode "auto", one from a tree decomposition."""
    order = tuple(range(1, phi.num_vars + 1))
    if fmt == "obdd":
        return order
    if vtree_mode == "auto":
        return vtree_from_decomposition(tree_decomposition(primal_graph(phi)),
                                        phi)
    return right_linear_vtree(order)


def _compile_formula(phi, fmt, vtree_mode):
    """Final diagram, trace length, and max intermediate size."""
    backend, export = fold_backend(fmt)
    store = backend.store(_structure(fmt, phi, vtree_mode))
    final, trace = fold_trace(backend, store, phi.clauses)
    sizes = [_diagram_size(backend.name, step[-1]) for step in trace]
    return export(final), len(trace), max(sizes, default=0)


def _cmd_compile(args):
    start = time.perf_counter()
    phi, _ = _load_formula(args.input)
    if phi.num_vars == 0:
        raise UsageError("formula has no variables")
    final, steps, peak = _compile_formula(phi, args.format, args.vtree)
    size = _diagram_size(args.format, final)
    report = run_report(
        "compile",
        {"input": args.input, "format": args.format, "vtree": args.vtree},
        {"variables": phi.num_vars, "clauses": phi.num_clauses,
         "size": size, "max_diagram_size": peak, "trace_steps": steps},
        {"wall_seconds": time.perf_counter() - start})
    if _emit_artifact(args, _diagram_text(args.format, final), report) \
            and not args.json:
        print("wrote %s (%s, size %d, max %d)"
              % (args.output, args.format, size, peak))
    return 0


def _infer_eq_parameters(base):
    if base.num_vars % 2 or not base.clauses:
        raise UsageError("base formula is not a shifted equality")
    n = base.num_vars // 2
    first = base.clauses[0]
    if len(first) != 2 or first[0] != 1:
        raise UsageError("base formula is not a shifted equality")
    shift = -first[1] - n - 1
    if not 0 <= shift < n or base != eq_formula(n, shift):
        raise UsageError("base formula is not a shifted equality")
    return n, shift


def _cmd_refute(args):
    phi, text = _load_formula(args.input)
    parameters = {"method": args.method, "input": args.input,
                  "cap": args.cap}
    sizes = {"variables": phi.num_vars, "clauses": phi.num_clauses}
    start = time.perf_counter()
    if args.method == "naive":
        if phi.num_vars == 0:
            raise UsageError("formula has no variables")
        parameters["format"] = args.format
        proof = naive_conjoin_refute(phi, _structure(args.format, phi),
                                     args.format)
    elif args.method == "resolution":
        lifted = _recover_z_lifting(phi, text)
        proof = resolution_refute_lifted(lifted)
    elif args.method == "compile2ref":
        lifted = _recover_z_lifting(phi, text)
        parameters["format"] = args.format
        if args.format == "dsdnnf":
            raise UsageError("compile2ref works with obdd or sdd")
        backend = BACKENDS[args.format]
        store = backend.store(_structure(args.format, phi))
        _, trace = fold_trace(backend, store, lift_C(lifted.base).clauses)
        proof = compilation_to_refutation(trace, lifted)
    elif args.method == "treewidth":
        lifted = _recover_z_lifting(phi, text)
        proof, info = treewidth_refute(lifted.base)
        sizes["width"] = info["width"]
    else:
        lifted = _recover_z_lifting(phi, text)
        n, shift = _infer_eq_parameters(lifted.base)
        parameters.update({"n": n, "shift": shift})
        proof = obdd_refute_eq(n, shift)
    produce_seconds = time.perf_counter() - start
    start = time.perf_counter()
    if args.method == "resolution":
        verdict = check_resolution(phi, proof)
        artifact = resolution_to_text(proof)
        sizes["proof_lines"] = len(proof.steps)
    else:
        verdict = check_proof(phi, proof, args.cap)
        artifact = proof_to_text(proof)
        sizes["proof_lines"] = len(proof.lines)
    check_seconds = time.perf_counter() - start
    for key in ("max_diagram_size", "total_nodes"):
        if key in verdict.stats:
            sizes[key] = verdict.stats[key]
    report = run_report(
        "refute", parameters, sizes,
        {"produce_seconds": produce_seconds, "check_seconds": check_seconds},
        {"check": verdict.to_json()})
    if args.output is not None:
        _write_text(args.output + ".json", json.dumps(report, indent=2) + "\n")
    if _emit_artifact(args, artifact, report) and not args.json:
        if verdict.accepted:
            print("accepted (%d lines, max diagram %d)"
                  % (sizes["proof_lines"], sizes.get("max_diagram_size", 0)))
        else:
            print("rejected at line %s: %s"
                  % (verdict.failing_line, verdict.reason))
    if verdict.accepted:
        return 0
    return 3 if verdict.resource else 1


def _check_verdict(formula_path, proof_path, cap):
    phi, _ = _load_formula(formula_path)
    text = _read_text(proof_path)
    kind = _detect_proof(text)
    if kind == "kcp":
        proof = parse_proof(text)
        verdict = check_proof(phi, proof, cap)
        lines = len(proof.lines)
    else:
        proof = parse_resolution(text)
        verdict = check_resolution(phi, proof)
        lines = len(proof.steps)
    return phi, kind, verdict, lines


def _cmd_check(args):
    start = time.perf_counter()
    phi, kind, verdict, lines = _check_verdict(
        args.formula, args.proof, args.cap)
    sizes = {"variables": phi.num_vars, "clauses": phi.num_clauses,
             "proof_lines": lines}
    for key in ("max_diagram_size", "total_nodes"):
        if key in verdict.stats:
            sizes[key] = verdict.stats[key]
    report = run_report(
        "check",
        {"formula": args.formula, "proof": args.proof, "kind": kind,
         "cap": args.cap},
        sizes, {"wall_seconds": time.perf_counter() - start},
        {"check": verdict.to_json()})
    if args.json:
        print(json.dumps(report, indent=2))
    elif verdict.accepted:
        print("accepted")
    else:
        print("rejected at line %s: %s"
              % (verdict.failing_line, verdict.reason))
    if verdict.accepted:
        return 0
    return 3 if verdict.resource else 1


def _cmd_extract(args):
    start = time.perf_counter()
    phi, text = _load_formula(args.formula)
    lifted = _recover_z_lifting(phi, text)
    proof_text = _read_text(args.proof)
    if _detect_proof(proof_text) != "kcp":
        raise UsageError("extraction needs a diagram proof")
    proof = parse_proof(proof_text)
    verdict = check_proof(phi, proof, args.cap)
    if not verdict.accepted:
        if verdict.resource:
            raise CapExceeded(verdict.reason)
        print("rejected at line %s: %s"
              % (verdict.failing_line, verdict.reason), file=sys.stderr)
        return 1
    diagram = extract_representation(proof, lifted, args.var_cap)
    fmt = proof.system.format
    report = run_report(
        "extract",
        {"formula": args.formula, "proof": args.proof, "format": fmt,
         "var_cap": args.var_cap, "cap": args.cap},
        {"variables": lifted.base.num_vars,
         "clauses": lifted.base.num_clauses,
         "size": _diagram_size(fmt, diagram)},
        {"wall_seconds": time.perf_counter() - start})
    if _emit_artifact(args, _diagram_text(fmt, diagram), report) \
            and not args.json:
        print("wrote %s (%s, size %d)"
              % (args.output, fmt, _diagram_size(fmt, diagram)))
    return 0


def _cmd_count(args):
    start = time.perf_counter()
    fmt, diagram = _parse_diagram(_read_text(args.diagram))
    models = _count_models(fmt, diagram)
    report = run_report(
        "count", {"diagram": args.diagram, "format": fmt},
        {"size": _diagram_size(fmt, diagram), "models": models},
        {"wall_seconds": time.perf_counter() - start})
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print(models)
    return 0


def _cmd_stats(args):
    start = time.perf_counter()
    text = _read_text(args.proof)
    kind = _detect_proof(text)
    if kind == "kcp":
        proof = parse_proof(text)
        sizes = {"proof_lines": len(proof.lines),
                 "structures": len(proof.structures),
                 "diagrams": len(proof.diagrams)}
        for rule in RULES:
            sizes["%s_lines" % rule] = sum(
                1 for line in proof.lines if line.rule == rule)
        sizes["init_lines"] = sum(
            1 for line in proof.lines if line.rule == "init")
        sizes["max_diagram_statements"] = max(
            (payload.count(";") + 1
             for _, payload in proof.diagrams.values()), default=0)
        parameters = {
            "proof": args.proof, "kind": kind,
            "format": proof.system.format,
            "rules": ",".join(r for r in RULES if r in proof.system.rules)
                     or "-"}
    else:
        proof = parse_resolution(text)
        sizes = {"proof_lines": len(proof.steps),
                 "input_lines": sum(
                     1 for step in proof.steps if step[0] == "input"),
                 "res_lines": sum(
                     1 for step in proof.steps if step[0] == "res")}
        parameters = {"proof": args.proof, "kind": kind}
    report = run_report("stats", parameters, sizes,
                        {"wall_seconds": time.perf_counter() - start})
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        for key in sorted(sizes):
            print("%s %d" % (key, sizes[key]))
    return 0


# ------------------------------------------------------------------ parser

def build_parser():
    parser = argparse.ArgumentParser(
        prog="kcproof",
        description="Generate, lift, compile, refute, check, extract,"
                    " and count over CNF formulas and diagram proofs.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="write a formula family member")
    fam = gen.add_subparsers(dest="family", required=True)
    p = fam.add_parser("vc-path", help="vertex cover of a path")
    p.add_argument("--l", type=int, required=True, help="edge count")
    p = fam.add_parser("vc-tree", help="vertex cover of a complete tree")
    p.add_argument("--h", dest="height", type=int, required=True,
                   help="tree height")
    p = fam.add_parser("vc-grid", help="vertex cover of a tree-path product")
    p.add_argument("--h", dest="height", type=int, required=True,
                   help="tree height")
    p.add_argument("--l", type=int, required=True, help="path length")
    p = fam.add_parser("eq", help="shifted equality formula")
    p.add_argument("--n", type=int, required=True,
                   help="block size, a power of two")
    p.add_argument("--shift", type=int, default=0)
    p = fam.add_parser("tseitin", help="parity formula over a random"
                                       " regular graph, odd total charge")
    p.add_argument("--n", type=int, required=True, help="vertex count")
    p.add_argument("--d", dest="degree", type=int, required=True,
                   help="vertex degree")
    p.add_argument("--seed", type=int, required=True)
    p = fam.add_parser("seq", help="selector-guarded union of shifted"
                                   " equality liftings")
    p.add_argument("--n", type=int, required=True)
    fam.add_parser("contra", help="the one-variable contradiction")
    for name in ("vc-path", "vc-tree", "vc-grid", "eq", "tseitin", "seq",
                 "contra"):
        fam.choices[name].add_argument("-o", "--output")
        fam.choices[name].add_argument("--json", action="store_true",
                                       help="print a run report")
        fam.choices[name].set_defaults(func=_cmd_gen)

    lift = sub.add_parser("lift", help="apply a clause lifting")
    lift.add_argument("kind", choices=("z", "c"),
                      help="z adds controls and a forcing chain, c only"
                           " controls")
    lift.add_argument("input", help="DIMACS file")
    lift.add_argument("-o", "--output")
    lift.add_argument("--json", action="store_true")
    lift.set_defaults(func=_cmd_lift)

    comp = sub.add_parser("compile", help="conjoin the clauses into one"
                                          " diagram")
    comp.add_argument("input", help="DIMACS file")
    comp.add_argument("--format", choices=("obdd", "sdd", "dsdnnf"),
                      default="sdd")
    comp.add_argument("--vtree", choices=("auto", "right"), default="auto",
                      help="auto follows a tree decomposition; sdd and"
                           " dsdnnf only")
    comp.add_argument("-o", "--output")
    comp.add_argument("--json", action="store_true")
    comp.set_defaults(func=_cmd_compile)

    ref = sub.add_parser("refute", help="produce a refutation and check it")
    ref.add_argument("input", help="DIMACS file; every method except naive"
                                   " expects a z-lifted file")
    ref.add_argument("--method", required=True,
                     choices=("naive", "resolution", "compile2ref",
                              "treewidth", "eq"))
    ref.add_argument("--format", choices=("obdd", "sdd", "dsdnnf"),
                     default="obdd",
                     help="diagram kind for naive and compile2ref")
    ref.add_argument("--cap", type=int, default=DEFAULT_CHECK_CAP)
    ref.add_argument("-o", "--output",
                     help="proof file; a .json report sidecar is written"
                          " next to it")
    ref.add_argument("--json", action="store_true")
    ref.set_defaults(func=_cmd_refute)

    chk = sub.add_parser("check", help="check a proof against a formula")
    chk.add_argument("formula", help="DIMACS file")
    chk.add_argument("proof", help="kcp or resolution proof file")
    chk.add_argument("--cap", type=int, default=DEFAULT_CHECK_CAP)
    chk.add_argument("--json", action="store_true")
    chk.set_defaults(func=_cmd_check)

    ext = sub.add_parser("extract", help="split an accepted refutation of"
                                         " a lifting into a diagram for"
                                         " the base formula")
    ext.add_argument("formula", help="z-lifted DIMACS file")
    ext.add_argument("proof", help="kcp proof file")
    ext.add_argument("--var-cap", type=int, default=22,
                     help="refuse outputs over more variables than this")
    ext.add_argument("--cap", type=int, default=DEFAULT_CHECK_CAP)
    ext.add_argument("-o", "--output")
    ext.add_argument("--json", action="store_true")
    ext.set_defaults(func=_cmd_extract)

    cnt = sub.add_parser("count", help="model count of a diagram file over"
                                       " its structure variables")
    cnt.add_argument("diagram")
    cnt.add_argument("--json", action="store_true")
    cnt.set_defaults(func=_cmd_count)

    sts = sub.add_parser("stats", help="line and size statistics of a"
                                       " proof file")
    sts.add_argument("proof")
    sts.add_argument("--json", action="store_true")
    sts.set_defaults(func=_cmd_stats)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    try:
        return args.func(args)
    except UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except CapExceeded as exc:
        print("resource cap exceeded: %s" % exc, file=sys.stderr)
        return 3
    except (CnfError, StructureError, ObddError, SddError, DsdnnfError,
            ZooError, ProofError, RefuteError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except Exception as exc:
        # anything else would end in a traceback and exit 1, "rejected"
        reason = " ".join(str(exc).split()) or "no message"
        print("error: %s: %s" % (type(exc).__name__, reason), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
