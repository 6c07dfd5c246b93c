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
"""

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from kcproof.cnf import CapExceeded, CnfError, restriction_map
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
    right_linear_vtree,
    vtree_to_text,
)
from kcproof.obdd import (
    ObddError,
    ObddRef,
    ObddStore,
    migrate,
    obdd_apply,
    obdd_check_move,
    obdd_count,
    obdd_entails,
    obdd_equal,
    obdd_from_clause,
    obdd_from_lines,
    obdd_literal,
    obdd_restrict,
    obdd_to_lines,
    obdd_total_size,
)
from kcproof.sdd import (
    SddError,
    SddRef,
    SddStore,
    rebind,
    sdd_apply,
    sdd_count,
    sdd_entails,
    sdd_equal,
    sdd_from_clause,
    sdd_from_lines,
    sdd_is_false,
    sdd_literal,
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
    dsdnnf_clausal_entails,
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

    def add_structure(self, value):
        if isinstance(value, Vtree):
            if self.system.format == "obdd":
                raise ProofError("obdd proofs use variable orders")
        elif isinstance(value, tuple):
            if self.system.format != "obdd":
                raise ProofError(
                    "%s proofs use vtrees" % self.system.format)
        else:
            raise ProofError("structure must be an order or a vtree")
        if value in self._structure_ids:
            return self._structure_ids[value]
        sid = len(self.structures) + 1
        self.structures[sid] = value
        self._structure_ids[value] = sid
        return sid

    def add_diagram(self, sid, payload):
        if sid not in self.structures:
            raise ProofError("diagram names unknown structure %d" % sid)
        key = (sid, payload)
        if key in self._diagram_ids:
            return self._diagram_ids[key]
        did = len(self.diagrams) + 1
        self.diagrams[did] = (sid, payload)
        self._diagram_ids[key] = did
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


def diagram_payload(obj):
    """Serialize a diagram to the single-line payload of a d statement."""
    if isinstance(obj, ObddRef):
        return ";".join(obdd_to_lines(obj))
    if isinstance(obj, SddRef):
        return ";".join(sdd_to_lines(obj))
    if isinstance(obj, Circuit):
        return ";".join(line for line in circuit_to_lines(obj)
                        if not line.startswith("vtree "))
    raise ProofError("cannot serialize %r as a diagram" % (obj,))


# -------------------------------------------------------------- serialization

def proof_to_lines(proof):
    rules = ",".join(r for r in RULES if r in proof.system.rules) or "-"
    out = ["p kcp %s %s" % (proof.system.format, rules)]
    for sid in sorted(proof.structures):
        value = proof.structures[sid]
        if isinstance(value, Vtree):
            out.append("s %d vtree %s" % (sid, vtree_to_text(value)))
        else:
            out.append("s %d order %s" % (sid, order_to_text(value)))
    for did in sorted(proof.diagrams):
        sid, payload = proof.diagrams[did]
        out.append("d %d %d %s" % (did, sid, payload))
    for line in proof.lines:
        if line.rule == "init":
            out.append("L %d init %d %d"
                       % (line.n, line.clause_index, line.diagram_id))
        elif line.rule == "join":
            out.append("L %d join %d %d %d"
                       % (line.n, line.refs[0], line.refs[1], line.diagram_id))
        elif line.rule == "weaken":
            out.append("L %d weaken %d %d"
                       % (line.n, line.refs[0], line.diagram_id))
        elif line.rule == "move":
            out.append("L %d move %d %d %s %s %d %d"
                       % (line.n, line.refs[0], line.var,
                          path_to_text(line.w_path), line.direction,
                          line.structure_id, line.diagram_id))
        elif line.rule == "reorder":
            text = "L %d reorder %d %d %d" % (
                line.n, line.refs[0], line.structure_id, line.diagram_id)
            if line.cert_ids:
                text += " cert " + " ".join(str(c) for c in line.cert_ids)
            out.append(text)
        else:
            raise ProofError("unknown rule %r" % (line.rule,))
    return out


def proof_to_text(proof):
    return "\n".join(proof_to_lines(proof)) + "\n"


def _int(token, what):
    try:
        return int(token)
    except ValueError:
        raise ProofError("bad %s %r" % (what, token))


def proof_from_lines(lines):
    system = None
    proof = None
    expected_n = 1
    for raw in lines:
        text = raw.strip()
        if not text or text == "c" or text.startswith("c "):
            continue
        parts = text.split()
        if system is None:
            if parts[:2] != ["p", "kcp"] or len(parts) != 4:
                raise ProofError("missing or malformed proof header")
            rules = () if parts[3] == "-" else tuple(parts[3].split(","))
            system = ProofSystem(parts[2], frozenset(rules))
            proof = Proof(system)
            continue
        if parts[0] == "s":
            if len(parts) < 4 or parts[2] not in ("order", "vtree"):
                raise ProofError("malformed structure statement %r" % text)
            sid = _int(parts[1], "structure id")
            if sid in proof.structures:
                raise ProofError("structure id %d reused" % sid)
            payload = " ".join(parts[3:])
            try:
                if parts[2] == "order":
                    if system.format != "obdd":
                        raise ProofError(
                            "order structure in a %s proof" % system.format)
                    value = parse_order(payload)
                else:
                    if system.format == "obdd":
                        raise ProofError("vtree structure in an obdd proof")
                    value = parse_vtree(payload)
            except StructureError as exc:
                raise ProofError("bad structure payload: %s" % exc)
            proof.structures[sid] = value
            proof._structure_ids[value] = sid
        elif parts[0] == "d":
            pieces = text.split(None, 3)
            if len(pieces) != 4:
                raise ProofError("malformed diagram statement %r" % text)
            did = _int(pieces[1], "diagram id")
            sid = _int(pieces[2], "structure id")
            if did in proof.diagrams:
                raise ProofError("diagram id %d reused" % did)
            proof.diagrams[did] = (sid, pieces[3])
            proof._diagram_ids[(sid, pieces[3])] = did
        elif parts[0] == "L":
            n = _int(parts[1], "line number")
            if n != expected_n:
                raise ProofError(
                    "line number %d out of sequence (expected %d)"
                    % (n, expected_n))
            expected_n += 1
            rule = parts[2] if len(parts) > 2 else ""
            if rule == "init" and len(parts) == 5:
                proof.lines.append(ProofLine(
                    n=n, rule="init",
                    clause_index=_int(parts[3], "clause index"),
                    diagram_id=_int(parts[4], "diagram id")))
            elif rule == "join" and len(parts) == 6:
                proof.lines.append(ProofLine(
                    n=n, rule="join",
                    refs=(_int(parts[3], "line reference"),
                          _int(parts[4], "line reference")),
                    diagram_id=_int(parts[5], "diagram id")))
            elif rule == "weaken" and len(parts) == 5:
                proof.lines.append(ProofLine(
                    n=n, rule="weaken",
                    refs=(_int(parts[3], "line reference"),),
                    diagram_id=_int(parts[4], "diagram id")))
            elif rule == "move" and len(parts) == 9:
                if parts[6] not in ("l", "r"):
                    raise ProofError("bad move direction %r" % parts[6])
                try:
                    w_path = parse_path(parts[5])
                except StructureError as exc:
                    raise ProofError("bad move path: %s" % exc)
                proof.lines.append(ProofLine(
                    n=n, rule="move",
                    refs=(_int(parts[3], "line reference"),),
                    var=_int(parts[4], "variable"),
                    w_path=w_path,
                    direction=parts[6],
                    structure_id=_int(parts[7], "structure id"),
                    diagram_id=_int(parts[8], "diagram id")))
            elif rule == "reorder" and len(parts) >= 6:
                certs = ()
                if len(parts) > 6:
                    if parts[6] != "cert" or len(parts) == 7:
                        raise ProofError(
                            "malformed reorder statement %r" % text)
                    certs = tuple(_int(t, "diagram id") for t in parts[7:])
                proof.lines.append(ProofLine(
                    n=n, rule="reorder",
                    refs=(_int(parts[3], "line reference"),),
                    structure_id=_int(parts[4], "structure id"),
                    diagram_id=_int(parts[5], "diagram id"),
                    cert_ids=certs))
            else:
                raise ProofError("malformed proof line %r" % text)
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

class _Session:
    """Working state of one checking run: stores and parsed diagrams.

    One store is kept per structure id, and every payload is parsed at
    most once.  Parsing validates the payload against its structure;
    dsdnnf payloads are additionally checked for structuredness and
    determinism, since the counting arguments below presuppose both.
    """

    def __init__(self, proof, cap):
        self.proof = proof
        self.fmt = proof.system.format
        self.cap = cap
        self.stores = {}
        self.objs = {}
        self.sizes = {}

    def structure_value(self, sid):
        return self.proof.structures[sid]

    def store(self, sid):
        if sid not in self.stores:
            value = self.proof.structures[sid]
            if self.fmt == "obdd":
                self.stores[sid] = ObddStore(value)
            elif self.fmt == "sdd":
                self.stores[sid] = SddStore(value)
            else:
                self.stores[sid] = value
        return self.stores[sid]

    def diagram(self, did):
        if did in self.objs:
            return self.objs[did]
        sid, payload = self.proof.diagrams[did]
        pieces = payload.split(";")
        if self.fmt == "obdd":
            obj = obdd_from_lines(self.store(sid), pieces)
            size = obdd_total_size(obj)
        elif self.fmt == "sdd":
            obj = sdd_from_lines(self.store(sid), pieces)
            size = sdd_size(obj)
        else:
            obj = circuit_from_lines(pieces)
            obj.vtree = self.store(sid)
            validate_structured(obj, obj.vtree)
            if not validate_deterministic(obj, obj.vtree, cap=self.cap):
                raise DsdnnfError("circuit is not deterministic")
            size = circuit_size(obj)
        self.objs[did] = obj
        self.sizes[did] = size
        return obj

    def diagram_structure(self, did):
        return self.proof.diagrams[did][0]

    def line_diagram(self, n):
        line = self.proof.lines[n - 1]
        return self.diagram(line.diagram_id), \
            self.diagram_structure(line.diagram_id)

    # ---------------------------------------------------- format dispatch

    def to_store(self, d, store):
        """Bring a diagram into a store over an equal structure."""
        if self.fmt == "obdd":
            return d if d.store is store else migrate(store, d)
        if self.fmt == "sdd":
            return d if d.store is store else rebind(store, d)
        return d

    def clause_diagram(self, sid, clause):
        if self.fmt == "obdd":
            return obdd_from_clause(self.store(sid), clause)
        if self.fmt == "sdd":
            return sdd_from_clause(self.store(sid), clause)
        return clause_circuit(clause, self.store(sid))

    def equal(self, a, b):
        if self.fmt == "obdd":
            return obdd_equal(a, b)
        if self.fmt == "sdd":
            return sdd_equal(a, self.to_store(b, a.store))
        return dsdnnf_equiv(a, b)

    def join_ok(self, a, b, c):
        if self.fmt == "obdd":
            a, b = self.to_store(a, c.store), self.to_store(b, c.store)
            return obdd_apply("and", a, b).node == c.node
        if self.fmt == "sdd":
            a, b = self.to_store(a, c.store), self.to_store(b, c.store)
            return sdd_equal(sdd_apply("and", a, b), c)
        return dsdnnf_join_check(a, b, c)

    def entails(self, a, b):
        if self.fmt == "obdd":
            return obdd_entails(self.to_store(a, b.store), b)
        if self.fmt == "sdd":
            return sdd_entails(self.to_store(a, b.store), b)
        return dsdnnf_implies(a, b)

    def entails_clause(self, d, sid, clause):
        if self.fmt == "dsdnnf":
            return dsdnnf_clausal_entails(d, clause)
        return self.entails(d, self.clause_diagram(sid, clause))

    def count_full(self, d, sid):
        value = self.proof.structures[sid]
        if self.fmt == "obdd":
            return obdd_count(d, set(value))
        over = value.variables
        if self.fmt == "sdd":
            return sdd_count(d, over)
        return dsdnnf_count(d, over)

    def is_false(self, d):
        if self.fmt == "obdd":
            return d.node == d.store.FALSE
        if self.fmt == "sdd":
            return sdd_is_false(d)
        return d.gates[d.root][0] == "false"

    def structure_leaves(self, sid):
        value = self.proof.structures[sid]
        if self.fmt == "obdd":
            return set(value)
        return value.variables

    def move_structure(self, old_value, var, w_path, direction):
        """The structure a move line must name, or a rejection reason."""
        if self.fmt == "obdd":
            new_order = order_move_of_vtree_move(
                right_linear_vtree(old_value), var, w_path, direction)
            if new_order is None:
                return None, "move leaves the right-linear form"
            return new_order, None
        return move(old_value, var, w_path, direction), None

    def move_counts_ok(self, old_d, new_d, x, new_sid):
        """The two restriction halves of the old diagram, re-anchored on
        the moved structure, must partition the new diagram by count."""
        if self.fmt == "obdd":
            store = self.store(new_sid)
            over = set(store.order)
            halves = []
            for value, lit in ((0, -x), (1, x)):
                part = migrate(store, obdd_restrict(old_d, {x: value}))
                part = obdd_apply("and", part, obdd_literal(store, lit))
                product = obdd_apply("and", part, new_d)
                if obdd_count(part, over) != obdd_count(product, over):
                    return False
                halves.append(obdd_count(part, over))
            return sum(halves) == obdd_count(new_d, over)
        if self.fmt == "sdd":
            store = self.store(new_sid)
            over = store.vtree.variables
            halves = []
            for value, lit in ((0, -x), (1, x)):
                part = rebind(store, sdd_restrict(old_d, {x: value}))
                part = sdd_apply("and", part, sdd_literal(store, lit))
                product = sdd_apply("and", part, new_d)
                if sdd_count(part, over) != sdd_count(product, over):
                    return False
                halves.append(sdd_count(part, over))
            return sum(halves) == sdd_count(new_d, over)
        tree = self.store(new_sid)
        over = tree.variables
        halves = []
        for value, lit in ((0, -x), (1, x)):
            restricted = dsdnnf_restrict(old_d, {x: value})
            lit_circuit = Circuit(tree)
            lit_circuit.root = lit_circuit.mk_lit(lit)
            part = dsdnnf_conjoin(restricted, lit_circuit, tree)
            product = dsdnnf_conjoin(part, new_d, tree)
            if dsdnnf_count(part, over) != dsdnnf_count(product, over):
                return False
            halves.append(dsdnnf_count(part, over))
        return sum(halves) == dsdnnf_count(new_d, over)


def _single_move_step(a, b):
    """True when two diagrams over orders one variable move apart agree."""
    order_a, order_b = a.store.order, b.store.order
    if set(order_a) != set(order_b):
        return False
    for x in order_a:
        rest_a = [v for v in order_a if v != x]
        rest_b = [v for v in order_b if v != x]
        if rest_a == rest_b and obdd_check_move(a, b, x):
            return True
    return False


def _check_line(session, phi, line, track):
    """One rule application; returns None when sound, else the reason."""
    proof = session.proof
    rules = proof.system.rules
    n = line.n
    if line.rule != "init" and line.rule not in rules:
        return "rule %s not allowed by the proof header" % line.rule
    d = session.diagram(line.diagram_id)
    sid = session.diagram_structure(line.diagram_id)

    if line.rule == "init":
        j = line.clause_index
        if not 0 <= j < len(phi.clauses):
            return "init clause index out of range"
        if not session.equal(d, session.clause_diagram(sid, phi.clauses[j])):
            return "init diagram does not match clause %d" % j
        if track is not None:
            track[n] = frozenset((j,))
        return None

    for ref in line.refs:
        if not 1 <= ref < n:
            return "%s reference out of range" % line.rule

    if line.rule == "join":
        i, k = line.refs
        da, sa = session.line_diagram(i)
        db, sb = session.line_diagram(k)
        value = session.structure_value(sid)
        if session.structure_value(sa) != value \
                or session.structure_value(sb) != value:
            return "join structure mismatch"
        if not session.join_ok(da, db, d):
            return "join mismatch"
        if track is not None:
            track[n] = track[i] | track[k]
        return None

    if line.rule == "weaken":
        da, sa = session.line_diagram(line.refs[0])
        if session.structure_value(sa) != session.structure_value(sid):
            return "weaken structure mismatch"
        if not session.entails(da, d):
            return "weakening does not hold"
        return None

    if line.rule == "reorder":
        i = line.refs[0]
        old_d, old_sid = session.line_diagram(i)
        if session.structure_value(line.structure_id) \
                != session.structure_value(sid):
            return "reorder structure annotation disagrees with its diagram"
        old_value = session.structure_value(old_sid)
        new_value = session.structure_value(sid)
        if old_value == new_value:
            return "reorder does not change the structure"
        if session.structure_leaves(old_sid) != session.structure_leaves(sid):
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
        if session.count_full(old_d, old_sid) != session.count_full(d, sid):
            return "reorder model counts differ"
        for j in sorted(track[i]):
            if not session.entails_clause(d, sid, phi.clauses[j]):
                return "reorder result does not entail clause %d" % j
        track[n] = track[i]
        return None

    if line.rule == "move":
        i = line.refs[0]
        old_d, old_sid = session.line_diagram(i)
        if session.structure_value(line.structure_id) \
                != session.structure_value(sid):
            return "move structure annotation disagrees with its diagram"
        old_value = session.structure_value(old_sid)
        try:
            expected, reason = session.move_structure(
                old_value, line.var, line.w_path, line.direction)
        except StructureError as exc:
            return "invalid move: %s" % exc
        if reason is not None:
            return reason
        if expected != session.structure_value(sid):
            return "move structure mismatch"
        if not session.move_counts_ok(old_d, d, line.var, sid):
            return "move count equations fail"
        if track is not None:
            track[n] = track[i]
        return None

    return "unknown rule %r" % line.rule


def check_proof(phi, proof, cap=10 ** 7):
    """Replay every line of a refutation of phi and report a verdict.

    Acceptance means each line is a sound application of a rule the
    header allows and the final line is the constant-false diagram.  A
    blown resource cap is reported distinctly from a logical rejection
    (Verdict.resource); malformed payloads reject at the first line that
    needs them.
    """
    stats = {"lines": len(proof.lines), "max_diagram_size": 0,
             "total_nodes": 0}
    if not proof.lines:
        return Verdict(False, None, "empty proof", stats)
    session = _Session(proof, cap)
    track = {} if "weaken" not in proof.system.rules else None
    for line in proof.lines:
        try:
            reason = _check_line(session, phi, line, track)
        except CapExceeded as exc:
            return Verdict(False, line.n,
                           "resource cap exceeded: %s" % exc, stats)
        except (ProofError, CnfError, StructureError, ObddError, SddError,
                DsdnnfError) as exc:
            return Verdict(False, line.n, "malformed: %s" % exc, stats)
        if reason is not None:
            return Verdict(False, line.n, reason, stats)
        size = session.sizes[line.diagram_id]
        stats["max_diagram_size"] = max(stats["max_diagram_size"], size)
        stats["total_nodes"] += size
    last = proof.lines[-1]
    if not session.is_false(session.objs[last.diagram_id]):
        return Verdict(False, last.n,
                       "final line is not the constant-false diagram", stats)
    return Verdict(True, None, None, stats)


def track_clause_sets(phi, proof):
    """Which input clauses each line's diagram is the exact conjunction of.

    Sound for weakening-free proofs only; a weaken line raises, since
    after weakening a line no longer computes a conjunction of clauses.
    """
    sets = {}
    for line in proof.lines:
        if line.rule == "init":
            if not 0 <= line.clause_index < len(phi.clauses):
                raise ProofError(
                    "line %d: clause index out of range" % line.n)
            sets[line.n] = frozenset((line.clause_index,))
        elif line.rule == "join":
            for ref in line.refs:
                if not 1 <= ref < line.n:
                    raise ProofError(
                        "line %d: reference out of range" % line.n)
            sets[line.n] = sets[line.refs[0]] | sets[line.refs[1]]
        elif line.rule in ("reorder", "move"):
            ref = line.refs[0]
            if not 1 <= ref < line.n:
                raise ProofError("line %d: reference out of range" % line.n)
            sets[line.n] = sets[ref]
        elif line.rule == "weaken":
            raise ProofError(
                "line %d: clause sets are not tracked past weakening"
                % line.n)
        else:
            raise ProofError("line %d: unknown rule %r" % (line.n, line.rule))
    return sets


# ----------------------------------------------------------------- resolution

@dataclass(frozen=True)
class ResolutionProof:
    """Steps are ("input", clause_index) or ("res", i, j, pivot) with
    1-based references to earlier steps and a positive pivot variable."""

    steps: Tuple[Tuple, ...]


def resolution_to_lines(r):
    out = []
    for n, step in enumerate(r.steps, start=1):
        if step[0] == "input":
            out.append("r %d input %d" % (n, step[1]))
        else:
            out.append("r %d res %d %d %d" % (n, step[1], step[2], step[3]))
    return out


def resolution_to_text(r):
    return "\n".join(resolution_to_lines(r)) + "\n"


def parse_resolution(text):
    steps = []
    expected_n = 1
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line == "c" or line.startswith("c "):
            continue
        parts = line.split()
        if parts[0] != "r":
            raise ProofError("unknown statement %r" % line)
        n = _int(parts[1], "step number")
        if n != expected_n:
            raise ProofError(
                "step number %d out of sequence (expected %d)"
                % (n, expected_n))
        expected_n += 1
        if len(parts) == 4 and parts[2] == "input":
            steps.append(("input", _int(parts[3], "clause index")))
        elif len(parts) == 6 and parts[2] == "res":
            steps.append(("res", _int(parts[3], "step reference"),
                          _int(parts[4], "step reference"),
                          _int(parts[5], "pivot")))
        else:
            raise ProofError("malformed resolution step %r" % line)
    return ResolutionProof(tuple(steps))


def _resolution_clauses(phi, r):
    """Clause of every step, or (step number, reason) on the first flaw."""
    clauses = []
    for n, step in enumerate(r.steps, start=1):
        if step[0] == "input":
            j = step[1]
            if not 0 <= j < len(phi.clauses):
                return None, (n, "input clause index out of range")
            clauses.append(phi.clauses[j])
        elif step[0] == "res":
            _, i, j, pivot = step
            if not (1 <= i < n and 1 <= j < n):
                return None, (n, "resolution reference out of range")
            if pivot <= 0:
                return None, (n, "pivot must be a positive variable")
            a, b = clauses[i - 1], clauses[j - 1]
            if pivot in a and -pivot in b:
                pass
            elif -pivot in a and pivot in b:
                a, b = b, a
            else:
                return None, (n, "pivot does not occur with opposite signs")
            merged = (set(a) - {pivot}) | (set(b) - {-pivot})
            clauses.append(tuple(sorted(merged, key=lambda l: (abs(l), l < 0))))
        else:
            return None, (n, "unknown step kind %r" % (step[0],))
    return clauses, None


def check_resolution(phi, r):
    """Verdict for a resolution derivation; accepted when it ends empty."""
    stats = {"lines": len(r.steps), "max_diagram_size": 0, "total_nodes": 0}
    if not r.steps:
        return Verdict(False, None, "empty resolution derivation", stats)
    clauses, failure = _resolution_clauses(phi, r)
    if failure is not None:
        return Verdict(False, failure[0], failure[1], stats)
    if clauses[-1]:
        return Verdict(False, len(r.steps), "final clause is not empty", stats)
    return Verdict(True, None, None, stats)


def _clause_obdd(store, clause):
    """Clause diagram tolerant of duplicate and clashing literals."""
    result = ObddRef(store, store.FALSE)
    for lit in sorted(set(clause), key=lambda l: (abs(l), l < 0)):
        result = obdd_apply("or", result, obdd_literal(store, lit))
    return result


def resolution_to_obddw(phi, r, order=None):
    """Translate a resolution refutation into a checkable obdd proof.

    Inputs become init lines; each resolution step becomes the join of
    its antecedent lines followed by a weakening to the resolvent's
    clause diagram, so the output has (inputs) + 2*(resolution steps)
    lines over the single given order (default: 1..num_vars).
    """
    verdict = check_resolution(phi, r)
    if not verdict.accepted:
        raise ProofError("resolution proof rejected: %s" % verdict.reason)
    clauses, _ = _resolution_clauses(phi, r)
    if order is None:
        order = tuple(range(1, phi.num_vars + 1))
    proof = Proof(ProofSystem("obdd", frozenset(("join", "weaken"))))
    sid = proof.add_structure(tuple(order))
    store = ObddStore(tuple(order))
    line_of = {}
    for n, step in enumerate(r.steps, start=1):
        if step[0] == "input":
            did = proof.add_diagram(
                sid, diagram_payload(_clause_obdd(store, clauses[n - 1])))
            line_of[n] = proof.add_init(step[1], did)
        else:
            _, i, j, _pivot = step
            joint = obdd_apply(
                "and",
                _clause_obdd(store, clauses[i - 1]),
                _clause_obdd(store, clauses[j - 1]))
            join_did = proof.add_diagram(sid, diagram_payload(joint))
            join_n = proof.add_join(line_of[i], line_of[j], join_did)
            weak_did = proof.add_diagram(
                sid, diagram_payload(_clause_obdd(store, clauses[n - 1])))
            line_of[n] = proof.add_weaken(join_n, weak_did)
    return proof


# ---------------------------------------------------------------- restriction

def _restrict_diagram(fmt, session, d, assignment):
    if fmt == "obdd":
        return obdd_restrict(d, assignment)
    if fmt == "sdd":
        return sdd_restrict(d, assignment)
    return dsdnnf_restrict(d, assignment)


def restrict_proof(phi, proof, assignment):
    """Apply a partial assignment through a weakening-free proof.

    Every diagram is restricted in place over its unchanged structure;
    init lines are re-targeted to the clause indices of the restricted
    formula.  A satisfied clause's line turns into the constant-true
    diagram and is dropped, references to a dropped line are redirected
    to its surviving join antecedent, and the tail of the proof after
    the line now carrying the final diagram is cut.  The result refutes
    restrict_cnf(phi, assignment).
    """
    if "weaken" in proof.system.rules:
        raise ProofError("restriction needs a weakening-free proof")
    if not proof.lines:
        raise ProofError("empty proof")
    clause_map = restriction_map(phi, assignment)
    session = _Session(proof, cap=10 ** 9)
    out = Proof(proof.system)
    # mapped[n] is the new line number carrying line n's restricted
    # diagram, or None when that diagram is constant true and dropped.
    mapped = {}
    sid_map = {}

    def out_sid(sid):
        if sid not in sid_map:
            sid_map[sid] = out.add_structure(proof.structures[sid])
        return sid_map[sid]

    def out_diagram(line):
        d = session.diagram(line.diagram_id)
        restricted = _restrict_diagram(
            proof.system.format, session, d, assignment)
        sid = session.diagram_structure(line.diagram_id)
        return out.add_diagram(out_sid(sid), diagram_payload(restricted))

    last_kept = None
    for line in proof.lines:
        if line.rule == "init":
            new_index = clause_map.get(line.clause_index)
            if new_index is None:
                mapped[line.n] = None
                continue
            mapped[line.n] = out.add_init(new_index, out_diagram(line))
        elif line.rule == "join":
            a, b = mapped[line.refs[0]], mapped[line.refs[1]]
            if a is None and b is None:
                mapped[line.n] = None
                continue
            if a is None or b is None:
                mapped[line.n] = a if b is None else b
                continue
            mapped[line.n] = out.add_join(a, b, out_diagram(line))
        elif line.rule == "move":
            ref = mapped[line.refs[0]]
            if ref is None:
                mapped[line.n] = None
                continue
            mapped[line.n] = out.add_move(
                ref, line.var, line.w_path, line.direction,
                out_sid(line.structure_id), out_diagram(line))
        elif line.rule == "reorder":
            ref = mapped[line.refs[0]]
            if ref is None:
                mapped[line.n] = None
                continue
            mapped[line.n] = out.add_reorder(
                ref, out_sid(line.structure_id), out_diagram(line))
        else:
            raise ProofError("line %d: unexpected rule %r"
                             % (line.n, line.rule))
        last_kept = mapped[line.n]
    final = mapped[proof.lines[-1].n]
    if final is None:
        raise ProofError("restriction drops every line of the proof")
    if final != last_kept:
        # The original final line collapsed onto an earlier antecedent;
        # everything after that antecedent is dead weight for the
        # refutation, so cut the tail.
        out.lines = out.lines[:final]
    return out
