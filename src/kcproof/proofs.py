"""Checker and file format for clausal refutations that carry diagrams.

A proof refutes a CNF formula.  Every line derives a diagram, either
directly from an input clause or from earlier lines, the admissible rules
are declared in the proof header, and the final line must be the
constant-false diagram.  Variable orders, vtrees, and full diagram
payloads are part of the proof file, so checking never searches for
anything: each rule application is verified against the data the proof
itself supplies, using the counting and canonicity machinery of the
diagram modules.

The same file format hosts three diagram kinds (obdd, sdd, dsdnnf); the
header fixes which one, and every structure statement must match it.

This module is the trusted base's share of the package: the format, its
parser and writer, and the checker.  Producers and proof transformations
live in kcproof.refute and the resolution format in kcproof.resolution;
this module imports neither.
"""

import marshal
import os
import sys
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from kcproof.cnf import DEFAULT_CHECK_CAP, CapExceeded, CnfError
from kcproof.structure import (
    StructureError,
    Vtree,
    move,
    order_move_of_vtree_move,
    order_to_text,
    parse_order,
    parse_path,
    parse_vtree,
    path_to_text,
    remove_leaf,
    right_linear_vtree,
    vtree_to_text,
)
from kcproof.obdd import (
    ObddError,
    ObddRef,
    ObddStore,
    migrate,
    obdd_apply,
    obdd_const,
    obdd_count,
    obdd_entails,
    obdd_equal,
    obdd_from_clause,
    obdd_from_lines,
    obdd_restrict,
    obdd_to_lines,
)
from kcproof.sdd import (
    SddError,
    SddRef,
    SddStore,
    drop_leaf,
    rebind,
    sdd_apply,
    sdd_const,
    sdd_count,
    sdd_entails,
    sdd_equal,
    sdd_from_clause,
    sdd_from_lines,
    sdd_is_false,
    sdd_restrict,
    sdd_size,
    sdd_to_lines,
)
from kcproof.dsdnnf import (
    Circuit,
    DsdnnfError,
    circuit_from_lines,
    circuit_size,
    circuit_to_lines,
    clause_circuit,
    dsdnnf_conjoin,
    dsdnnf_count,
    dsdnnf_equiv,
    dsdnnf_implies,
    dsdnnf_join_check,
    dsdnnf_restrict,
    validate_deterministic,
    validate_structured,
)

FORMATS = ("obdd", "sdd", "dsdnnf")
RULES = ("join", "weaken", "reorder", "move")


class ProofError(Exception):
    pass


@dataclass(frozen=True)
class ProofSystem:
    """Diagram kind plus the set of derivation rules a proof may use.

    Reordering in the presence of weakening is only checkable for obdd,
    where a certificate chain of single-variable moves is available; for
    the other kinds the combination is rejected outright.
    """

    format: str
    rules: frozenset

    def __post_init__(self):
        if self.format not in FORMATS:
            raise ProofError("unknown diagram format %r" % (self.format,))
        object.__setattr__(self, "rules", frozenset(self.rules))
        for rule in self.rules:
            if rule not in RULES:
                raise ProofError("unknown rule %r" % (rule,))
        if "reorder" in self.rules and "weaken" in self.rules \
                and self.format != "obdd":
            raise ProofError(
                "reorder together with weaken is only checkable for obdd")


@dataclass
class ProofLine:
    n: int
    rule: str
    diagram_id: int
    clause_index: Optional[int] = None
    refs: Tuple[int, ...] = ()
    var: Optional[int] = None
    w_path: Optional[str] = None
    direction: Optional[str] = None
    structure_id: Optional[int] = None
    cert_ids: Tuple[int, ...] = ()


@dataclass
class Verdict:
    accepted: bool
    failing_line: Optional[int]
    reason: Optional[str]
    stats: Dict[str, int] = field(default_factory=dict)

    @property
    def resource(self):
        return (not self.accepted and self.reason is not None
                and self.reason.startswith("resource cap exceeded"))

    def to_json(self):
        return {
            "accepted": self.accepted,
            "failing_line": self.failing_line,
            "reason": self.reason,
            "stats": dict(self.stats),
        }


class Proof:
    """Header, structure table, diagram table, and derivation lines.

    Structures and diagrams are interned: adding the same order, vtree,
    or (structure, payload) pair again returns the existing id.  Lines
    are numbered from 1 in order of addition and reference earlier lines
    by number.
    """

    def __init__(self, system):
        self.system = system
        self.structures = {}
        self.diagrams = {}
        self.lines = []
        self._structure_ids = {}
        self._diagram_ids = {}
        self._diagrams_seen = 0  # diagrams the id table was built from

    def add_structure(self, value):
        backend = BACKENDS[self.system.format]
        if not isinstance(value, backend.structure_type):
            raise ProofError("%s proofs use %ss"
                             % (self.system.format, backend.structure_kind))
        if value in self._structure_ids:
            return self._structure_ids[value]
        sid = len(self.structures) + 1
        self.structures[sid] = value
        self._structure_ids[value] = sid
        return sid

    def add_diagram(self, sid, payload):
        if sid not in self.structures:
            raise ProofError("diagram names unknown structure %d" % sid)
        if self._diagrams_seen != len(self.diagrams):
            # the parser fills no table: a parsed proof builds it once,
            # when first extended, the last of equal diagrams keeping its id
            self._diagram_ids = {key: did
                                 for did, key in self.diagrams.items()}
            self._diagrams_seen = len(self.diagrams)
        key = (sid, payload)
        if key in self._diagram_ids:
            return self._diagram_ids[key]
        did = len(self.diagrams) + 1
        self.diagrams[did] = (sid, payload)
        self._diagram_ids[key] = did
        self._diagrams_seen = did
        return did

    def _append(self, line):
        self.lines.append(line)
        return line.n

    def add_init(self, clause_index, did):
        return self._append(ProofLine(
            n=len(self.lines) + 1, rule="init", diagram_id=did,
            clause_index=clause_index))

    def add_join(self, i, j, did):
        return self._append(ProofLine(
            n=len(self.lines) + 1, rule="join", diagram_id=did, refs=(i, j)))

    def add_weaken(self, i, did):
        return self._append(ProofLine(
            n=len(self.lines) + 1, rule="weaken", diagram_id=did, refs=(i,)))

    def add_move(self, i, var, w_path, direction, sid, did):
        return self._append(ProofLine(
            n=len(self.lines) + 1, rule="move", diagram_id=did, refs=(i,),
            var=var, w_path=w_path, direction=direction, structure_id=sid))

    def add_reorder(self, i, sid, did, cert_ids=()):
        return self._append(ProofLine(
            n=len(self.lines) + 1, rule="reorder", diagram_id=did, refs=(i,),
            structure_id=sid, cert_ids=tuple(cert_ids)))


# ------------------------------------------------------------ format backends
# Methods look format functions up in this module's globals at call time,
# because the benchmark's tracer times each layer by swapping those globals.

class _Backend:
    """One diagram format, as the checker, the producers and the command
    line use it.  A store holds the diagrams over one structure: an order
    or a vtree.  The defaults serve the vtree formats.  A cap bounds the
    memo of a d-SDNNF product; OBDD and SDD tests take it and ignore it."""

    structure_kind = "vtree"   # the kind named by the format's s statements
    structure_type = Vtree
    collects = True            # its stores free nodes by collect(roots)

    def structure_text(self, tree):
        return vtree_to_text(tree)

    def parse_structure(self, text):
        return parse_vtree(text)

    def leaves(self, structure):
        return structure.variables

    def moved(self, structure, var, w_path, direction):
        """The structure after a move, or None and a rejection reason."""
        return move(structure, var, w_path, direction), None

    def without(self, tree, variables):
        for var in sorted(variables & tree.variables):
            tree = remove_leaf(tree, var)
        return tree

    def init_ok(self, store, d, clause):
        return self.equal(d, self.clause(store, clause))

    def join_ok(self, a, b, c, clause=None, cap=None):
        """c is a and b.  clause, when given, is the clause of an init
        line that b is; this check needs neither it nor cap."""
        return self.equal(self.conjoin(self.store_of(c), a, b), c)

    def move_ok(self, old_d, new_d, x, cap=None):
        """Equality across structures that agree once x is removed, by
        Shannon expansion over one store without x.  The counts, compared
        first, reject most dishonest moves in linear time."""
        old_s = self.structure_of(self.store_of(old_d))
        new_s = self.structure_of(self.store_of(new_d))
        if self.count(old_d, old_s) != self.count(new_d, new_s):
            return False
        common = self.store(self.without(old_s, {x}))
        return all(
            self.equal(self.drop(common, self.restrict(old_d, {x: value}), x),
                       self.drop(common, self.restrict(new_d, {x: value}), x),
                       cap)
            for value in (0, 1))

    def entails_clause(self, store, d, clause):
        """Does d entail the clause: is d false wherever the clause is?"""
        falsifying = {abs(lit): int(lit < 0) for lit in clause}
        if len(falsifying) < len(set(clause)):
            return True
        return self.is_false(self.restrict(d, falsifying))


class _ObddBackend(_Backend):
    name = "obdd"
    diagram_type = ObddRef
    structure_kind = "order"
    structure_type = tuple

    def structure_text(self, order):
        return order_to_text(order)

    def parse_structure(self, text):
        return parse_order(text)

    def store(self, order):
        return ObddStore(order)

    def parse(self, store, pieces, cap):
        return obdd_from_lines(store, pieces, sized=True)

    def lines(self, d):
        return obdd_to_lines(d)

    def store_of(self, d):
        return d.store

    def structure_of(self, store):
        return store.order

    def true(self, store):
        return obdd_const(store, True)

    def clause(self, store, clause):
        return obdd_from_clause(store, clause)

    def conjoin(self, store, a, b):
        return obdd_apply("and", a, b)

    def rebase(self, store, d):
        return d if d.store is store else migrate(store, d)

    def equal(self, a, b, cap=None):
        return obdd_equal(a, b)

    def entails(self, a, b, cap=None):
        return obdd_entails(a, b)

    def count(self, d, order):
        return obdd_count(d, set(order))

    def restrict(self, d, assignment):
        return obdd_restrict(d, assignment)

    def is_false(self, d):
        return d.node == d.store.FALSE

    def leaves(self, order):
        return set(order)

    def moved(self, order, var, w_path, direction):
        new_order = order_move_of_vtree_move(
            right_linear_vtree(order), var, w_path, direction)
        if new_order is None:
            return None, "move leaves the right-linear form"
        return new_order, None

    def without(self, order, variables):
        return tuple(v for v in order if v not in variables)

    def drop(self, store, d, var):
        return migrate(store, d)


class _SddBackend(_Backend):
    """Init lines and joins with an init premise are decided by
    conditioning, with no clause diagram and no product.  The cells
    {not l1, ..., not l(i-1), li} of a clause l1 or ... or lk and its
    falsifying assignment partition the assignments, so c is a and the
    clause exactly when c and a agree on every cell and c is false on the
    falsifying assignment.  Each test restricts two diagrams and
    compares ids, since a restriction keeps its store's canonical form:
    at most 2k+1 restrictions, each linear in its diagram.  A repeated
    literal has an empty cell, which is skipped, and a clause with both
    x and not x has no falsifying assignment."""

    name = "sdd"
    diagram_type = SddRef

    def init_ok(self, store, d, clause):
        for lit in clause:
            if abs(lit) not in store.leaf_path:
                raise SddError("variable %d not in vtree" % abs(lit))
        return self._conditioned_ok(self.true(store), d, clause)

    def join_ok(self, a, b, c, clause=None, cap=None):
        if clause is None:
            return super().join_ok(a, b, c)
        return self._conditioned_ok(a, c, clause)

    def _conditioned_ok(self, a, c, clause):
        """c is a and the clause, by conditioning."""
        falsifying = {}
        for lit in clause:
            var, value = abs(lit), int(lit > 0)
            if var not in falsifying:
                cell = {**falsifying, var: value}
            elif falsifying[var] != value:
                continue  # a repeated literal: the cell is empty
            else:
                cell = falsifying  # the clause holds x and not x
            if not self.equal(self.restrict(c, cell),
                              self.restrict(a, cell)):
                return False
            if cell is falsifying:
                return True
            falsifying[var] = 1 - value
        return self.is_false(self.restrict(c, falsifying))

    def store(self, tree):
        return SddStore(tree)

    def parse(self, store, pieces, cap):
        d = sdd_from_lines(store, pieces)
        return d, sdd_size(d)

    def lines(self, d):
        return sdd_to_lines(d)

    def store_of(self, d):
        return d.store

    def structure_of(self, store):
        return store.vtree

    def true(self, store):
        return sdd_const(store, True)

    def clause(self, store, clause):
        return sdd_from_clause(store, clause)

    def conjoin(self, store, a, b):
        return sdd_apply("and", a, b)

    def rebase(self, store, d):
        return d if d.store is store else rebind(store, d)

    def equal(self, a, b, cap=None):
        return sdd_equal(a, b)

    def entails(self, a, b, cap=None):
        return sdd_entails(a, b)

    def count(self, d, tree):
        return sdd_count(d, tree.variables)

    def restrict(self, d, assignment):
        return sdd_restrict(d, assignment)

    def is_false(self, d):
        return sdd_is_false(d)

    def drop(self, store, d, var):
        return drop_leaf(store, d, var)


class _DsdnnfBackend(_Backend):
    """Circuits carry their vtree, which serves as their store.  Parsing
    checks structuredness and determinism, which the counting arguments of
    the checker presuppose."""

    name = "dsdnnf"
    diagram_type = Circuit
    collects = False

    def store(self, tree):
        return tree

    def parse(self, tree, pieces, cap):
        d = circuit_from_lines(pieces)
        if d.vtree is not None:
            raise DsdnnfError("payload carries a vtree of its own")
        d.vtree = tree
        validate_structured(d, tree)
        if not validate_deterministic(d, tree, cap=cap):
            raise DsdnnfError("circuit is not deterministic")
        return d, circuit_size(d)

    def lines(self, d):
        return circuit_to_lines(d)

    def store_of(self, d):
        return d.vtree

    def structure_of(self, tree):
        return tree

    def true(self, tree):
        d = Circuit(tree)
        d.root = d.mk_true()
        return d

    def clause(self, tree, clause):
        return clause_circuit(clause, tree)

    def conjoin(self, tree, a, b):
        return dsdnnf_conjoin(a, b, tree)

    def rebase(self, tree, d):
        """A copy of d on tree, which it must respect."""
        out = dsdnnf_restrict(d, {})
        out.vtree = tree
        validate_structured(out, tree)
        return out

    def equal(self, a, b, cap=None):
        return dsdnnf_equiv(a, b, cap)

    def init_ok(self, tree, d, clause):
        """A circuit that entails the clause and has as many models is the
        clause.  A clause with both x and not x has every model."""
        leaves = tree.variables
        for lit in clause:
            if abs(lit) not in leaves:
                raise DsdnnfError("variable %d not in vtree" % abs(lit))
        n, k = len(leaves), len({abs(lit) for lit in clause})
        models = 1 << n if k < len(set(clause)) else (1 << n) - (1 << (n - k))
        return dsdnnf_count(d, leaves) == models \
            and self.entails_clause(tree, d, clause)

    def join_ok(self, a, b, c, clause=None, cap=None):
        """With b a clause, c must entail it, and `dsdnnf_join_check`
        decides the rest."""
        if clause is not None \
                and not self.entails_clause(self.store_of(c), c, clause):
            return False
        return dsdnnf_join_check(a, b, c, clause, cap)

    def entails(self, a, b, cap=None):
        return dsdnnf_implies(a, b, cap)

    def count(self, d, tree):
        return dsdnnf_count(d, tree.variables)

    def restrict(self, d, assignment):
        return dsdnnf_restrict(d, assignment)

    def is_false(self, d):
        return d.gates[d.root][0] == "false"

    def drop(self, tree, d, var):
        # a circuit that does not mention var respects every vtree that
        # equals its own once var's leaf is removed
        d.vtree = tree
        return d


BACKENDS = {backend.name: backend for backend in
            (_ObddBackend(), _SddBackend(), _DsdnnfBackend())}


def backend_of(diagram):
    """The backend whose diagrams include this object."""
    for backend in BACKENDS.values():
        if isinstance(diagram, backend.diagram_type):
            return backend
    raise ProofError("not a diagram: %r" % (diagram,))


def diagram_payload(obj):
    """Serialize a diagram to the single-line payload of a d statement."""
    return ";".join(backend_of(obj).lines(obj))


# -------------------------------------------------------------- serialization

# The fields of each rule's L line, in file order after "L n rule", named
# by the ProofLine attribute they fill.  Each "refs" field holds one line
# reference.  "cert_ids" is the optional tail of a reorder line: "cert"
# and one or more diagram ids.  _INT_FIELDS names the integer fields in
# the parser's messages.
LINE_FIELDS = {
    "init": ("clause_index", "diagram_id"),
    "join": ("refs", "refs", "diagram_id"),
    "weaken": ("refs", "diagram_id"),
    "move": ("refs", "var", "w_path", "direction", "structure_id",
             "diagram_id"),
    "reorder": ("refs", "structure_id", "diagram_id", "cert_ids"),
}
_INT_FIELDS = {"clause_index": "clause index", "refs": "line reference",
               "var": "variable", "structure_id": "structure id",
               "diagram_id": "diagram id"}


def _line_text(line):
    if line.rule not in LINE_FIELDS:
        raise ProofError("unknown rule %r" % (line.rule,))
    tokens = ["L", str(line.n), line.rule]
    refs = iter(line.refs)
    for name in LINE_FIELDS[line.rule]:
        if name == "refs":
            tokens.append(str(next(refs)))
        elif name == "w_path":
            tokens.append(path_to_text(line.w_path))
        elif name == "cert_ids":
            if line.cert_ids:
                tokens += ["cert"] + [str(c) for c in line.cert_ids]
        else:
            tokens.append(str(getattr(line, name)))
    return " ".join(tokens)


def proof_to_text(proof):
    """The proof's text, joined once from its pieces: each diagram payload
    goes in as it is, uncopied until the join."""
    rules = ",".join(r for r in RULES if r in proof.system.rules) or "-"
    out = ["p kcp %s %s\n" % (proof.system.format, rules)]
    backend = BACKENDS[proof.system.format]
    for sid, value in sorted(proof.structures.items()):
        out.append("s %d %s %s\n" % (sid, backend.structure_kind,
                                     backend.structure_text(value)))
    for did in sorted(proof.diagrams):
        sid, payload = proof.diagrams[did]
        out += ("d %d %d " % (did, sid), payload, "\n")
    for line in proof.lines:
        out += (_line_text(line), "\n")
    return "".join(out)


def proof_to_lines(proof):
    return proof_to_text(proof).splitlines()


def _int(token, what):
    try:
        return int(token)
    except ValueError:
        raise ProofError("bad %s %r" % (what, token))


def _parse_line(n, parts, text):
    """The ProofLine of statement text, split into parts, numbered n.
    Fields are read in file order, so the first defect is reported."""
    rule = parts[2] if len(parts) > 2 else ""
    fields = LINE_FIELDS.get(rule, ())
    tokens, tail = parts[3:], ()
    if fields[-1:] == ("cert_ids",):
        fields = fields[:-1]
        tokens, tail = tokens[:len(fields)], tokens[len(fields):]
        if tail and (tail[0] != "cert" or len(tail) == 1):
            raise ProofError("malformed %s statement %r" % (rule, text))
    if not fields or len(tokens) != len(fields):
        raise ProofError("malformed proof line %r" % text)
    values = {"refs": ()}
    for name, token in zip(fields, tokens):
        if name == "w_path":
            try:
                value = parse_path(token)
            except StructureError as exc:
                raise ProofError("bad move path: %s" % exc)
        elif name == "direction":
            if token not in ("l", "r"):
                raise ProofError("bad move direction %r" % token)
            value = token
        else:
            value = _int(token, _INT_FIELDS[name])
        values[name] = values["refs"] + (value,) if name == "refs" else value
    certs = tuple(_int(token, "diagram id") for token in tail[1:])
    return ProofLine(n=n, rule=rule, cert_ids=certs, **values)


def proof_from_lines(lines):
    system = None
    proof = None
    expected_n = 1
    for raw in lines:
        text = raw.strip()
        if not text or text == "c" or text.startswith("c "):
            continue
        # a d line is split only into its four leading fields: its payload
        # is parsed when the line is checked
        pieces = text.split(None, 3)
        if system is not None and pieces[0] == "d":
            if len(pieces) != 4:
                raise ProofError("malformed diagram statement %r" % text)
            did = _int(pieces[1], "diagram id")
            sid = _int(pieces[2], "structure id")
            if did in proof.diagrams:
                raise ProofError("diagram id %d reused" % did)
            proof.diagrams[did] = (sid, pieces[3])
            continue
        parts = text.split()
        if system is None:
            if parts[:2] != ["p", "kcp"] or len(parts) != 4:
                raise ProofError("missing or malformed proof header")
            rules = () if parts[3] == "-" else tuple(parts[3].split(","))
            system = ProofSystem(parts[2], frozenset(rules))
            backend = BACKENDS[system.format]
            proof = Proof(system)
            continue
        if parts[0] == "s":
            if len(parts) < 4 or parts[2] not in ("order", "vtree"):
                raise ProofError("malformed structure statement %r" % text)
            sid = _int(parts[1], "structure id")
            if sid in proof.structures:
                raise ProofError("structure id %d reused" % sid)
            if parts[2] != backend.structure_kind:
                raise ProofError("%s structure in %s %s proof" % (
                    parts[2], "an" if system.format[0] in "aeiou" else "a",
                    system.format))
            try:
                value = backend.parse_structure(" ".join(parts[3:]))
            except StructureError as exc:
                raise ProofError("bad structure payload: %s" % exc)
            proof.structures[sid] = value
            proof._structure_ids[value] = sid
        elif parts[0] == "L":
            if len(parts) < 2:
                raise ProofError("malformed proof line %r" % text)
            n = _int(parts[1], "line number")
            if n != expected_n:
                raise ProofError(
                    "line number %d out of sequence (expected %d)"
                    % (n, expected_n))
            expected_n += 1
            proof.lines.append(_parse_line(n, parts, text))
        else:
            raise ProofError("unknown statement %r" % text)
    if proof is None:
        raise ProofError("missing or malformed proof header")
    for did, (sid, _) in proof.diagrams.items():
        if sid not in proof.structures:
            raise ProofError(
                "diagram %d names unknown structure %d" % (did, sid))
    for line in proof.lines:
        ids = (line.diagram_id,) + line.cert_ids
        for did in ids:
            if did not in proof.diagrams:
                raise ProofError(
                    "line %d names unknown diagram %d" % (line.n, did))
        if line.structure_id is not None \
                and line.structure_id not in proof.structures:
            raise ProofError(
                "line %d names unknown structure %d"
                % (line.n, line.structure_id))
    return proof


def parse_proof(text):
    return proof_from_lines(text.splitlines())


# ------------------------------------------------------------------- checking

# check_proof sweeps a store once it holds COLLECT_FACTOR times the nodes
# its last sweep kept, and at least COLLECT_FLOOR nodes.  With both at 0
# it sweeps every store after every line.
COLLECT_FLOOR = 4096
COLLECT_FACTOR = 2
# check_proof gives each range of lines it checks in a process of its own
# at least SPLIT_FLOOR bytes of payload to read.  Two ranges first paid
# off at about 400 KB of reads on 2 vCPUs (prefixes of the eq(128)
# refutation, from a 57 MB process): below that, the fork, its
# copy-on-write faults and the reaping cost more than the second CPU saves.
SPLIT_FLOOR = 1 << 18


class _Session:
    """Working state of one checking run: stores and parsed diagrams.

    Equal structures share one store while one of their structure ids is
    live, so no rule compares diagrams across stores.  Every payload is
    parsed at most once, which validates it against its structure.
    """

    def __init__(self, proof, cap):
        self.proof = proof
        self.backend = BACKENDS[proof.system.format]
        self.cap = cap
        self.stores = {}     # structure id -> store
        self._shared = {}    # structure -> store
        self.objs = {}
        self.sizes = {}
        self._sweep_at = {}  # store -> node count that starts its next sweep

    def structure_value(self, sid):
        return self.proof.structures[sid]

    def store(self, sid):
        if sid not in self.stores:
            value = self.proof.structures[sid]
            if value not in self._shared:
                self._shared[value] = self.backend.store(value)
            self.stores[sid] = self._shared[value]
        return self.stores[sid]

    def diagram(self, did):
        if did in self.objs:
            return self.objs[did]
        sid, payload = self.proof.diagrams[did]
        obj, self.sizes[did] = self.backend.parse(
            self.store(sid), payload.split(";"), self.cap)
        self.objs[did] = obj
        return obj

    def diagram_structure(self, did):
        return self.proof.diagrams[did][0]

    def line_diagram(self, n):
        line = self.proof.lines[n - 1]
        return self.diagram(line.diagram_id), \
            self.diagram_structure(line.diagram_id)

    def count(self, d, sid):
        """Models of d over the leaves of structure sid."""
        return self.backend.count(d, self.proof.structures[sid])

    def release(self, dids, sids):
        """Forget the parsed diagrams dids and the structure ids sids, and
        each store no structure id is bound to any more; then sweep each
        store grown past its threshold, keeping the nodes of the diagrams
        still held.  A live diagram's structure id is live, so a forgotten
        store holds none.  Only check_proof releases: the other sessions'
        callers write store ids into proofs or read every line."""
        for did in dids:
            self.objs.pop(did, None)
        for sid in sids:
            store = self.stores.pop(sid, None)
            if store is not None \
                    and all(s is not store for s in self.stores.values()):
                del self._shared[self.proof.structures[sid]]
                self._sweep_at.pop(store, None)
        if not self.backend.collects:
            return
        for store in self._shared.values():
            if len(store.unique) >= self._sweep_at.get(store, COLLECT_FLOOR):
                store.collect([d.node for d in self.objs.values()
                               if d.store is store])
                self._sweep_at[store] = max(
                    COLLECT_FLOOR, COLLECT_FACTOR * len(store.unique))


def _single_move_step(a, b):
    """True when two diagrams over orders one variable move apart agree."""
    backend = BACKENDS["obdd"]
    order_a, order_b = a.store.order, b.store.order
    if set(order_a) != set(order_b):
        return False
    # a moved variable is one of the two at the first position where the
    # orders differ, and move_ok decides equality for any qualifying one
    first = next((i for i, (u, v) in enumerate(zip(order_a, order_b))
                  if u != v), 0)
    for x in order_a[first:first + 1] + order_b[first:first + 1]:
        if backend.without(order_a, {x}) == backend.without(order_b, {x}):
            return backend.move_ok(a, b, x)
    return False


def _check_line(session, phi, line, track):
    """One rule application; returns None when sound, else the reason."""
    proof = session.proof
    rules = proof.system.rules
    if line.rule != "init" and line.rule not in rules:
        return "rule %s not allowed by the proof header" % line.rule
    backend = session.backend
    d = session.diagram(line.diagram_id)
    sid = session.diagram_structure(line.diagram_id)
    store = session.store(sid)

    if line.rule == "init":
        j = line.clause_index
        if not 0 <= j < len(phi.clauses):
            return "init clause index out of range"
        if not backend.init_ok(store, d, phi.clauses[j]):
            return "init diagram does not match clause %d" % j
        return None

    for ref in line.refs:
        if not 1 <= ref < line.n:
            return "%s reference out of range" % line.rule

    if line.rule == "join":
        i, k = line.refs
        if proof.lines[k - 1].rule != "init":
            i, k = k, i  # an init premise, if there is one, goes second
        da, sa = session.line_diagram(i)
        db, sb = session.line_diagram(k)
        if session.store(sa) is not store or session.store(sb) is not store:
            return "join structure mismatch"
        # an init line's diagram is its clause, checked at that line
        premise = proof.lines[k - 1]
        clause = phi.clauses[premise.clause_index] \
            if premise.rule == "init" else None
        if not backend.join_ok(da, db, d, clause, session.cap):
            return "join mismatch"
        return None

    if line.rule == "weaken":
        da, sa = session.line_diagram(line.refs[0])
        if session.store(sa) is not store:
            return "weaken structure mismatch"
        if not backend.entails(da, d, session.cap):
            return "weakening does not hold"
        return None

    if line.rule == "reorder":
        i = line.refs[0]
        old_d, old_sid = session.line_diagram(i)
        if session.store(line.structure_id) is not store:
            return "reorder structure annotation disagrees with its diagram"
        if session.store(old_sid) is store:
            return "reorder does not change the structure"
        if backend.leaves(session.structure_value(old_sid)) \
                != backend.leaves(session.structure_value(sid)):
            return "reorder structure has different leaves"
        if "weaken" in rules:
            chain = [old_d]
            chain += [session.diagram(c) for c in line.cert_ids]
            chain.append(d)
            for step in range(len(chain) - 1):
                if not _single_move_step(chain[step], chain[step + 1]):
                    return "reorder certificate chain broken at step %d" \
                        % (step + 1)
            return None
        if line.cert_ids:
            return "reorder certificates only apply with weakening"
        if session.count(old_d, old_sid) != session.count(d, sid):
            return "reorder model counts differ"
        for j in sorted(track[i]):
            if not backend.entails_clause(store, d, phi.clauses[j]):
                return "reorder result does not entail clause %d" % j
        return None

    if line.rule == "move":
        i = line.refs[0]
        old_d, old_sid = session.line_diagram(i)
        if session.store(line.structure_id) is not store:
            return "move structure annotation disagrees with its diagram"
        old_value = session.structure_value(old_sid)
        try:
            expected, reason = backend.moved(
                old_value, line.var, line.w_path, line.direction)
        except StructureError as exc:
            return "invalid move: %s" % exc
        if reason is not None:
            return reason
        if expected != session.structure_value(sid):
            return "move structure mismatch"
        if not backend.move_ok(old_d, d, line.var, session.cap):
            return "move count equations fail"
        return None

    return "unknown rule %r" % line.rule


def check_proof(phi, proof, cap=DEFAULT_CHECK_CAP):
    """Replay every line of a refutation of phi and report a verdict.

    Acceptance means each line is a sound application of a rule the
    header allows and the final line is the constant-false diagram.  A
    blown resource cap is reported distinctly from a logical rejection
    (Verdict.resource); malformed payloads reject at the first line that
    needs them.  The result is always a verdict: inside a line, a
    RecursionError or MemoryError counts as a blown cap and any other
    exception as a malformed line.

    No line's soundness depends on another line's verdict, so the lines
    are checked in contiguous ranges (see _ranges), each range after the
    first in a forked child process that sends its result back through a
    pipe.  The earliest failing line wins and the stats sum the lines
    before it, so the verdict is the one a single range gives.  A child
    that ends without a result, or a fork that fails, has its range
    checked in this process; an earlier range's rejection, or an
    exception raised in this process, kills and reaps every child still
    running.  A child ends by os._exit whatever it raises.  Should this
    process be killed by a signal it does not handle, its children run
    on to the end of their ranges and exit.
    """
    stats = {"lines": len(proof.lines), "max_diagram_size": 0,
             "total_nodes": 0}
    if not proof.lines:
        return Verdict(False, None, "empty proof", stats)
    ranges = _ranges(proof)
    children = {}  # first line of a range -> child pid, read end of its pipe
    results = []
    caller = os.getpid()
    try:
        for first, last in ranges[1:]:
            import signal  # loaded only by a check that forks
            try:
                read_end, write_end = os.pipe()
            except OSError:
                break
            # no signal handler runs, and so raises, between the fork and
            # the record of the child that the cleanup below reaps
            mask = signal.pthread_sigmask(signal.SIG_BLOCK,
                                          signal.valid_signals())
            try:
                pid = os.fork()
                if pid:
                    children[first] = pid, read_end
                    os.close(write_end)
            except OSError:
                os.close(read_end)
                os.close(write_end)
                break
            finally:
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
            if pid == 0:
                data = marshal.dumps(
                    _check_range(phi, proof, cap, first, last))
                while data:
                    data = data[os.write(write_end, data):]
                os._exit(0)
        for first, last in ranges:
            if results and results[-1][0] is not None:
                break
            result = None
            if first in children:
                pid, read_end = children[first]
                chunks = [os.read(read_end, 1 << 16)]
                while chunks[-1]:
                    chunks.append(os.read(read_end, 1 << 16))
                status = os.waitpid(pid, 0)[1]
                del children[first]
                os.close(read_end)
                if status == 0:
                    try:
                        result = marshal.loads(b"".join(chunks))
                    except (EOFError, ValueError, TypeError):
                        pass
            if result is None:
                result = _check_range(phi, proof, cap, first, last)
            results.append(result)
    finally:
        if os.getpid() != caller:
            # a child leaves by os._exit alone, whatever it raised
            os._exit(1)
        for pid, read_end in children.values():
            os.close(read_end)
            # a pid this process no longer waits for is not touched
            if os.waitpid(pid, os.WNOHANG)[0] == 0:
                os.kill(pid, 9)  # SIGKILL
                os.waitpid(pid, 0)
    stats["max_diagram_size"] = max(result[2] for result in results)
    stats["total_nodes"] = sum(result[3] for result in results)
    failing, reason = results[-1][:2]
    return Verdict(failing is None, failing, reason, stats)


def _ranges(proof):
    """Contiguous ranges (first, last) of a proof's line numbers, at most
    one per CPU this process may run on, each reading to within a line an
    equal share, of at least SPLIT_FLOOR bytes, of the payload bytes the
    lines read.  One range where the platform reports no CPU set, or
    while a second thread runs: a fork copies the calling thread alone."""
    diagrams = proof.diagrams
    weights = [sum(len(diagrams[did][1]) for did in _reads(proof, line)
                   if did in diagrams) for line in proof.lines]
    total = sum(weights)
    count = 1
    if hasattr(os, "sched_getaffinity") and len(sys._current_frames()) == 1:
        count = max(1, min(len(os.sched_getaffinity(0)),
                           total // SPLIT_FLOOR))
    ranges, first, read = [], 1, 0
    for n, weight in enumerate(weights[:-1], 1):
        read += weight
        if len(ranges) + 1 < count \
                and read * count >= total * (len(ranges) + 1):
            ranges.append((first, n))
            first = n + 1
    ranges.append((first, len(weights)))
    return ranges


def _check_range(phi, proof, cap, first, last):
    """Check lines first to last of a refutation of phi in a session of
    their own; return (failing line or None, reason, largest size, total
    nodes), the sizes over the lines that passed.  The range holding the
    final line also tests that it is the constant-false diagram.  A
    parsed diagram is forgotten after the last line of the range that
    reads it, and the stores are swept as they grow, so the check holds
    about the diagrams live at once.  A store is forgotten after the last
    line of the range that reads one of its structures."""
    session = _Session(proof, cap)
    dead_dids, dead_sids = _last_uses(proof, first, last)
    # clause sets are read only by reorder lines of weakening-free proofs
    rules = proof.system.rules
    track = None
    if "reorder" in rules and "weaken" not in rules:
        # priming reads lines an earlier range checks: should it raise on
        # an unsound one, that range's rejection wins over this range
        track = {}
        for line in proof.lines[:first - 1]:
            track[line.n] = _clause_set(track, line)
    largest = total = 0
    for line in proof.lines[first - 1:last]:
        try:
            reason = _check_line(session, phi, line, track)
        except CapExceeded as exc:
            reason = "resource cap exceeded: %s" % exc
        except (ProofError, CnfError, StructureError, ObddError, SddError,
                DsdnnfError) as exc:
            reason = "malformed: %s" % exc
        except (RecursionError, MemoryError) as exc:
            reason = "resource cap exceeded: %s" % type(exc).__name__
        except Exception as exc:
            reason = "malformed: %s: %s" % (type(exc).__name__, exc)
        if reason is not None:
            return line.n, reason, largest, total
        if track is not None:
            track[line.n] = _clause_set(track, line)
        size = session.sizes[line.diagram_id]
        largest = max(largest, size)
        total += size
        session.release(dead_dids.get(line.n, ()), dead_sids.get(line.n, ()))
    if last == len(proof.lines) \
            and not session.backend.is_false(session.objs[line.diagram_id]):
        return line.n, "final line is not the constant-false diagram", \
            largest, total
    return None, None, largest, total


def _last_uses(proof, first, last):
    """Two tables for lines first to last, line number -> the diagram ids
    and line number -> the structure ids that no later line of the range
    reads.  A line reads the diagrams _reads names, the structure of
    each, and on a move or reorder line its structure_id; the final
    line's diagram and structure are kept for the verdict."""
    last_did, last_sid = {}, {}
    for line in proof.lines[first - 1:last]:
        for did in _reads(proof, line):
            last_did[did] = line.n
            if did in proof.diagrams:
                last_sid[proof.diagrams[did][0]] = line.n
        if line.structure_id is not None:
            last_sid[line.structure_id] = line.n
    if last == len(proof.lines):
        final = proof.lines[-1].diagram_id
        del last_did[final]
        if final in proof.diagrams:
            del last_sid[proof.diagrams[final][0]]
    dead = ({}, {})
    for table, uses in zip(dead, (last_did, last_sid)):
        for key, n in uses.items():
            table.setdefault(n, []).append(key)
    return dead


def _reads(proof, line):
    """The diagram ids a line reads: its own, those of its in-range
    references and its certificates."""
    return [line.diagram_id] + [proof.lines[ref - 1].diagram_id
                                for ref in line.refs if 1 <= ref < line.n] \
        + list(line.cert_ids)


def _clause_set(sets, line):
    """The input clauses whose conjunction a line of a weakening-free proof
    derives, from the sets of the lines it references."""
    if line.rule == "init":
        return frozenset((line.clause_index,))
    return frozenset().union(*(sets[ref] for ref in line.refs))
