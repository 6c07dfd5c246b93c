"""Command-line surface: generate formulas, lift them, compile diagrams,
produce and check refutations, extract representations, count models.

Exit codes: 0 success or accepted, 1 logical reject, 2 usage or malformed
input, 3 resource cap exceeded.  Machine-readable run reports follow the
schema in RUN_REPORT_SCHEMA (shipped in the repository as
schemas/run-report.json); validate_report checks a report against it.
"""

import argparse
import json
import re
import signal
import sys
import time

from kcproof.cnf import (DEFAULT_CHECK_CAP, CapExceeded, CnfError, cnf,
                         parse_dimacs, primal_graph, to_dimacs,
                         tree_decomposition)
from kcproof.structure import (StructureError, right_linear_vtree,
                               vtree_from_decomposition)
from kcproof.obdd import ObddError, obdd_size, obdd_to_text, parse_obdd
from kcproof.sdd import SddError, parse_sdd, sdd_size, sdd_to_text
from kcproof.dsdnnf import (DsdnnfError, circuit_size, circuit_to_text,
                            circuit_vars, dsdnnf_count, parse_circuit,
                            validate_deterministic)
from kcproof.zoo import (ZooError, complete_binary_tree, eq_formula,
                         grid_family, lift_C, lift_Z, path, random_regular,
                         seq_formula, tseitin, vc_formula)
from kcproof.proofs import (BACKENDS, FORMATS, LINE_FIELDS, RULES, Proof,
                            ProofError, check_proof, parse_proof,
                            proof_to_text)
from kcproof.refute import (RefuteError, compilation_to_refutation,
                            extract_representation, fold_backend,
                            fold_trace, naive_conjoin_refute, obdd_refute_eq,
                            resolution_refute_lifted, treewidth_refute)
from kcproof.resolution import (ResolutionProof, check_resolution,
                                parse_resolution, resolution_to_text)

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


def _report(args, parameters, sizes, verdicts=None, **timings):
    """The run report of args.command: the given phase timings, then
    wall_seconds, the time since main started the subcommand."""
    timings["wall_seconds"] = time.perf_counter() - args.started
    return run_report(args.command, parameters, sizes, timings, verdicts)


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


def _finish(args, report, summary, artifact=None, code=0):
    """End a subcommand and return its exit code: write the artifact, if
    any, to -o, then print the --json report or the summary.  Without -o
    the artifact alone goes to stdout, so --json has nowhere to go and is
    rejected."""
    if artifact is not None:
        if args.output is None and args.json:
            raise UsageError("--json needs -o, stdout carries the artifact")
        if args.output is None:
            sys.stdout.write(artifact)
            return code
        _write_text(args.output, artifact)
    print(json.dumps(report, indent=2) if args.json else summary)
    return code


# ------------------------------------------------------------ formula files

def _load_formula(path):
    text = _read_text(path)
    return parse_dimacs(text), text


def _recover_z_lifting(phi, text):
    """Rebuild the LiftedFormula recorded in a lift marker comment.

    The marker names the base dimensions; the base clauses are the
    augmented clauses with their control literal (always the largest
    variable of the clause) stripped, and the lifting is recomputed and
    compared so a tampered file cannot smuggle in a different formula.
    """
    for raw in text.splitlines():
        parts = raw.strip().split()
        if len(parts) == 5 and parts[0] == "c" and parts[1] == "lift":
            break
    else:
        raise UsageError(
            "input carries no lift marker; produce it with the lift"
            " subcommand")
    try:
        kind, base_vars, base_clauses = parts[2], int(parts[3]), int(parts[4])
    except ValueError:
        raise UsageError("unreadable lift marker %r" % raw.strip())
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


# -------------------------------------------------------------- proof files

# the runs of characters between the line breaks str.splitlines knows
_LINE_TEXT = re.compile("[^\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]+")


def _read_proof(path):
    """The kcp Proof or the ResolutionProof in a proof file, told apart by
    its first line that is not a comment.  The lines before it are found
    one at a time, so no list of every line is alive while the proof's
    parser splits the text."""
    text = _read_text(path)
    for match in _LINE_TEXT.finditer(text):
        line = match.group().strip()
        if not line or line == "c" or line.startswith("c "):
            continue
        if line.startswith("p kcp"):
            return parse_proof(text)
        if line.startswith("r "):
            return parse_resolution(text)
        raise UsageError("unrecognized proof header %r" % line)
    raise UsageError("empty proof file")


def _check(phi, proof, cap):
    """Check either kind of proof: the verdict, the proof's kind, its
    writer and its line count."""
    if isinstance(proof, ResolutionProof):
        return (check_resolution(phi, proof), "resolution",
                resolution_to_text, len(proof.steps))
    return check_proof(phi, proof, cap), "kcp", proof_to_text, len(proof.lines)


# ------------------------------------------------------------- subcommands

# Each gen family: its help, its integer flags as (dest, flag, help,
# default), None for a required flag, and its formula from the flag values
# in order.  A flag's name keys its value in the report and "c gen" line.
_FAMILIES = {
    "vc-path": ("vertex cover of a path",
                [("l", "--l", "edge count", None)],
                lambda l: vc_formula(path(l))),
    "vc-tree": ("vertex cover of a complete tree",
                [("height", "--h", "tree height", None)],
                lambda h: vc_formula(complete_binary_tree(h))),
    "vc-grid": ("vertex cover of a tree-path product",
                [("height", "--h", "tree height", None),
                 ("l", "--l", "path length", None)],
                lambda h, l: vc_formula(grid_family(h, l))),
    "eq": ("shifted equality formula",
           [("n", "--n", "block size, a power of two", None),
            ("shift", "--shift", None, 0)],
           eq_formula),
    "tseitin": ("parity formula over a random regular graph, odd total"
                " charge",
                [("n", "--n", "vertex count", None),
                 ("degree", "--d", "vertex degree", None),
                 ("seed", "--seed", None, None)],
                lambda n, d, seed: tseitin(random_regular(n, d, seed),
                                           [1] + [0] * (n - 1))),
    "seq": ("selector-guarded union of shifted equality liftings",
            [("n", "--n", None, None)], seq_formula),
    "contra": ("the one-variable contradiction", [],
               lambda: cnf(1, [(1,), (-1,)])),
}


def _cmd_gen(args):
    _, flags, build = _FAMILIES[args.family]
    values = {flag[2:]: getattr(args, dest) for dest, flag, _, _ in flags}
    phi = build(*values.values())
    comment = "c gen %s\n" % " ".join(
        [args.family] + ["%s=%s" % item for item in sorted(values.items())])
    report = _report(args, {"family": args.family, **values},
                     {"variables": phi.num_vars, "clauses": phi.num_clauses})
    return _finish(args, report, "wrote %s (%d variables, %d clauses)"
                   % (args.output, phi.num_vars, phi.num_clauses),
                   comment + to_dimacs(phi))


def _cmd_lift(args):
    phi, _ = _load_formula(args.input)
    lifted = lift_Z(phi).result if args.kind == "z" else lift_C(phi)
    marker = "c lift %s %d %d\n" % (args.kind, phi.num_vars, phi.num_clauses)
    report = _report(
        args,
        {"kind": args.kind, "input": args.input,
         "base_variables": phi.num_vars, "base_clauses": phi.num_clauses},
        {"variables": lifted.num_vars, "clauses": lifted.num_clauses})
    return _finish(args, report, "wrote %s (%d variables, %d clauses)"
                   % (args.output, lifted.num_vars, lifted.num_clauses),
                   marker + to_dimacs(lifted))


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


def _cmd_compile(args):
    phi, _ = _load_formula(args.input)
    if phi.num_vars == 0:
        raise UsageError("formula has no variables")
    fmt = args.format
    backend, export = fold_backend(fmt)
    store = backend.store(_structure(fmt, phi, args.vtree))
    final, trace = fold_trace(backend, store, phi.clauses)
    # each step measured in fmt, the format the final diagram is written in
    peak = max((_diagram_size(fmt, export(step[-1])) for step in trace),
               default=0)
    final = export(final)
    size = _diagram_size(fmt, final)
    report = _report(
        args, {"input": args.input, "format": fmt, "vtree": args.vtree},
        {"variables": phi.num_vars, "clauses": phi.num_clauses,
         "size": size, "max_diagram_size": peak, "trace_steps": len(trace)})
    return _finish(args, report, "wrote %s (%s, size %d, max %d)"
                   % (args.output, fmt, size, peak), _diagram_text(fmt, final))


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
    lifted = None if args.method == "naive" else _recover_z_lifting(phi, text)
    if args.method == "naive":
        if phi.num_vars == 0:
            raise UsageError("formula has no variables")
        parameters["format"] = args.format
        proof = naive_conjoin_refute(phi, _structure(args.format, phi),
                                     args.format)
    elif args.method == "resolution":
        proof = resolution_refute_lifted(lifted)
    elif args.method == "compile2ref":
        parameters["format"] = args.format
        if args.format == "dsdnnf":
            raise UsageError("compile2ref works with obdd or sdd")
        backend = BACKENDS[args.format]
        store = backend.store(_structure(args.format, phi))
        _, trace = fold_trace(backend, store, lift_C(lifted.base).clauses)
        proof = compilation_to_refutation(trace, lifted)
    elif args.method == "treewidth":
        proof, info = treewidth_refute(lifted.base)
        sizes["width"] = info["width"]
    else:
        n, shift = _infer_eq_parameters(lifted.base)
        parameters.update({"n": n, "shift": shift})
        proof = obdd_refute_eq(n, shift)
    produce_seconds = time.perf_counter() - start
    start = time.perf_counter()
    verdict, _, write, sizes["proof_lines"] = _check(phi, proof, args.cap)
    artifact = write(proof)
    check_seconds = time.perf_counter() - start
    found, rejection, code = _outcome(verdict)
    sizes.update(found)
    report = _report(args, parameters, sizes, {"check": verdict.to_json()},
                     produce_seconds=produce_seconds,
                     check_seconds=check_seconds)
    if args.output is not None:
        _write_text(args.output + ".json", json.dumps(report, indent=2) + "\n")
    return _finish(args, report, "accepted (%d lines, max diagram %d)"
                   % (sizes["proof_lines"], sizes.get("max_diagram_size", 0))
                   if verdict.accepted else rejection, artifact, code)


def _outcome(verdict):
    """The verdict's diagram sizes, its rejection message and its exit
    code: 0 accepted, 1 rejected, 3 over a resource cap."""
    found = {key: verdict.stats[key]
             for key in ("max_diagram_size", "total_nodes")
             if key in verdict.stats}
    rejection = "rejected at line %s: %s" % (verdict.failing_line,
                                             verdict.reason)
    return found, rejection, (0 if verdict.accepted
                              else 3 if verdict.resource else 1)


def _cmd_check(args):
    phi, _ = _load_formula(args.formula)
    verdict, kind, _, lines = _check(phi, _read_proof(args.proof), args.cap)
    found, rejection, code = _outcome(verdict)
    report = _report(
        args,
        {"formula": args.formula, "proof": args.proof, "kind": kind,
         "cap": args.cap},
        {"variables": phi.num_vars, "clauses": phi.num_clauses,
         "proof_lines": lines, **found},
        {"check": verdict.to_json()})
    return _finish(args, report,
                   "accepted" if verdict.accepted else rejection, code=code)


def _cmd_extract(args):
    phi, text = _load_formula(args.formula)
    lifted = _recover_z_lifting(phi, text)
    proof = _read_proof(args.proof)
    if not isinstance(proof, Proof):
        raise UsageError("extraction needs a diagram proof")
    verdict = check_proof(phi, proof, args.cap)
    found, rejection, code = _outcome(verdict)
    if verdict.resource:
        # main prints the "resource cap exceeded: " the reason starts with
        raise CapExceeded("line %d: %s" % (verdict.failing_line,
                                           verdict.reason.partition(": ")[2]))
    fmt = proof.system.format
    parameters = {"formula": args.formula, "proof": args.proof,
                  "format": fmt, "var_cap": args.var_cap, "cap": args.cap}
    sizes = {"variables": lifted.base.num_vars,
             "clauses": lifted.base.num_clauses}
    verdicts = {"check": verdict.to_json()}
    if code:
        return _finish(args, _report(args, parameters, {**sizes, **found},
                                     verdicts), rejection, code=code)
    diagram = extract_representation(proof, lifted, args.var_cap, verdict,
                                     args.cap)
    sizes["size"] = _diagram_size(fmt, diagram)
    return _finish(args, _report(args, parameters, {**sizes, **found},
                                 verdicts),
                   "wrote %s (%s, size %d)" % (args.output, fmt,
                                               sizes["size"]),
                   _diagram_text(fmt, diagram))


def _cmd_count(args):
    fmt, d = _parse_diagram(_read_text(args.diagram))
    backend = BACKENDS[fmt]
    if fmt == "dsdnnf" and d.vtree is None:
        # deciding determinism without a vtree is coNP-hard: presumed
        models = dsdnnf_count(d, circuit_vars(d))
    else:
        # checks every literal against the vtree before it binds any gate
        if fmt == "dsdnnf" and not validate_deterministic(d, d.vtree):
            raise DsdnnfError("circuit is not deterministic")
        models = backend.count(d, backend.structure_of(backend.store_of(d)))
    report = _report(args, {"diagram": args.diagram, "format": fmt},
                     {"size": _diagram_size(fmt, d), "models": models})
    return _finish(args, report, models)


def _cmd_stats(args):
    proof = _read_proof(args.proof)
    if isinstance(proof, Proof):
        sizes = {"proof_lines": len(proof.lines),
                 "structures": len(proof.structures),
                 "diagrams": len(proof.diagrams)}
        for rule in LINE_FIELDS:
            sizes["%s_lines" % rule] = sum(
                1 for line in proof.lines if line.rule == rule)
        sizes["max_diagram_statements"] = max(
            (payload.count(";") + 1
             for _, payload in proof.diagrams.values()), default=0)
        parameters = {
            "proof": args.proof, "kind": "kcp",
            "format": proof.system.format,
            "rules": ",".join(r for r in RULES if r in proof.system.rules)
                     or "-"}
    else:
        sizes = {"proof_lines": len(proof.steps),
                 "input_lines": sum(
                     1 for step in proof.steps if step[0] == "input"),
                 "res_lines": sum(
                     1 for step in proof.steps if step[0] == "res")}
        parameters = {"proof": args.proof, "kind": "resolution"}
    report = _report(args, parameters, sizes)
    return _finish(args, report, "\n".join("%s %d" % (key, sizes[key])
                                            for key in sorted(sizes)))


# ------------------------------------------------------------------ parser

def _ending(parser, func, output="write the artifact here, not to stdout"):
    """Give a subcommand's parser the options it ends with, -o (help text
    output, None for a subcommand that writes no artifact) and --json, and
    func, the subcommand."""
    if output is not None:
        parser.add_argument("-o", "--output", help=output)
    parser.add_argument("--json", action="store_true",
                        help="print a run report")
    parser.set_defaults(func=func)


def _budget(text):
    """A resource budget, a whole number of at least 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("invalid int value: %r" % text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be at least 0, not %d" % value)
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="kcproof",
        description="Generate, lift, compile, refute, check, extract,"
                    " and count over CNF formulas and diagram proofs.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="write a formula family member")
    fam = gen.add_subparsers(dest="family", required=True)
    for name, (text, flags, _) in _FAMILIES.items():
        p = fam.add_parser(name, help=text)
        for dest, flag, help_text, default in flags:
            p.add_argument(flag, dest=dest, type=int, default=default,
                           required=default is None, help=help_text)
        _ending(p, _cmd_gen)

    lift = sub.add_parser("lift", help="apply a clause lifting")
    lift.add_argument("kind", choices=("z", "c"),
                      help="z adds controls and a forcing chain, c only"
                           " controls")
    lift.add_argument("input", help="DIMACS file")
    _ending(lift, _cmd_lift)

    comp = sub.add_parser("compile", help="conjoin the clauses into one"
                                          " diagram")
    comp.add_argument("input", help="DIMACS file")
    comp.add_argument("--format", choices=FORMATS, default="sdd")
    comp.add_argument("--vtree", choices=("auto", "right"), default="auto",
                      help="auto follows a tree decomposition; sdd and"
                           " dsdnnf only")
    _ending(comp, _cmd_compile)

    ref = sub.add_parser("refute", help="produce a refutation and check it")
    ref.add_argument("input", help="DIMACS file; every method except naive"
                                   " expects a z-lifted file")
    ref.add_argument("--method", required=True,
                     choices=("naive", "resolution", "compile2ref",
                              "treewidth", "eq"))
    ref.add_argument("--format", choices=FORMATS, default="obdd",
                     help="diagram kind for naive and compile2ref")
    ref.add_argument("--cap", type=_budget, default=DEFAULT_CHECK_CAP)
    _ending(ref, _cmd_refute, "proof file; a .json report sidecar is"
                              " written next to it")

    chk = sub.add_parser("check", help="check a proof against a formula")
    chk.add_argument("formula", help="DIMACS file")
    chk.add_argument("proof", help="kcp or resolution proof file")
    chk.add_argument("--cap", type=_budget, default=DEFAULT_CHECK_CAP)
    _ending(chk, _cmd_check, None)

    ext = sub.add_parser("extract", help="split an accepted refutation of"
                                         " a lifting into a diagram for"
                                         " the base formula")
    ext.add_argument("formula", help="z-lifted DIMACS file")
    ext.add_argument("proof", help="kcp proof file")
    ext.add_argument("--var-cap", type=_budget, default=22,
                     help="refuse outputs over more variables than this")
    ext.add_argument("--cap", type=_budget, default=DEFAULT_CHECK_CAP)
    _ending(ext, _cmd_extract)

    cnt = sub.add_parser("count", help="model count of a diagram file over"
                                       " its structure variables")
    cnt.add_argument("diagram")
    _ending(cnt, _cmd_count, None)

    sts = sub.add_parser("stats", help="line and size statistics of a"
                                       " proof file")
    sts.add_argument("proof")
    _ending(sts, _cmd_stats, None)
    return parser


def _terminated(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    args.started = time.perf_counter()
    # an exact model count may have any number of digits; the interpreter
    # limits them from Python 3.10.7 on, 0 meaning no limit
    digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if digit_limit:
        sys.set_int_max_str_digits(0)
    # SIGTERM (kill, timeout(1)) ends the command as an exception would,
    # so check_proof kills and reaps the processes it forked
    terminate = signal.signal(signal.SIGTERM, _terminated)
    try:
        return args.func(args)
    except CapExceeded as exc:
        print("resource cap exceeded: %s" % exc, file=sys.stderr)
        return 3
    except (UsageError, CnfError, StructureError, ObddError, SddError,
            DsdnnfError, ZooError, ProofError, RefuteError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except Exception as exc:
        # anything else would end in a traceback and exit 1, "rejected"
        reason = " ".join(str(exc).split()) or "no message"
        print("error: %s: %s" % (type(exc).__name__, reason), file=sys.stderr)
        return 2
    finally:
        signal.signal(signal.SIGTERM, terminate)
        if digit_limit:
            sys.set_int_max_str_digits(digit_limit)


if __name__ == "__main__":
    sys.exit(main())
