"""Producers of checkable refutations, and the reverse extraction.

naive_conjoin_refute      init every clause, fold joins left to right
resolution_refute_lifted  resolution refutation of a chain lifting
compilation_to_refutation refutation of the chain lifting from a
                          conjunction-compilation of the control lifting
treewidth_refute          decomposition-guided sdd refutation
obdd_refute_eq            interleaved-order obdd refutation of the
                          shifted-equality contradiction chain
extract_representation    diagram for the base formula, pulled out of a
                          weakening-free refutation of its chain lifting

Every join-only refutation is built as one trace of ("init", index, d)
and ("join", i, j, d) steps.  _fold_steps appends a clause fold's steps
for fold_trace, which the command line's compile paths share, and for
the chain extension; _trace_proof writes a trace as proof lines.
track_clause_sets names the input clauses that each line of a
weakening-free proof conjoins.  Producers return proof objects; file
output and stats sidecars are the command line's business.
"""

from bisect import bisect_right

from .cnf import (DEFAULT_CHECK_CAP, CapExceeded, TreeDecomposition,
                  primal_graph, tree_decomposition)
from .structure import (StructureError, right_linear_vtree,
                        vtree_from_decomposition, vtree_node)
from .obdd import ObddError, ObddStore
from .sdd import SddError, SddStore
from .dsdnnf import sdd_to_dsdnnf
from .zoo import LiftedFormula, ZooError, eq_formula, lift_C, lift_Z
from .proofs import (BACKENDS, LINE_FIELDS, Proof, ProofError, ProofSystem,
                     _Session, _clause_set, backend_of, check_proof,
                     diagram_payload)
from .resolution import ResolutionProof


class RefuteError(Exception):
    pass


# ------------------------------------------------------------- naive folding

def _fold_steps(backend, store, trace, clauses, start=0, acc=None):
    """Append an init step per clause, indexed from start, each joined
    onto the conjunction at position acc of the trace (the first clause
    starts it when acc is None); returns the position of the last
    conjunction, or acc when there are no clauses."""
    for index, clause in enumerate(clauses, start):
        trace.append(("init", index, backend.clause(store, clause)))
        if acc is not None:
            trace.append(("join", acc, len(trace) - 1, backend.conjoin(
                store, trace[acc][-1], trace[-1][-1])))
        acc = len(trace) - 1
    return acc


def fold_trace(backend, store, clauses):
    """The conjunction of the clauses, and its trace: ("init", index, d)
    per clause, each but the first followed by ("join", i, j, conjunction)
    with i, j the positions of the two steps joined.  No clauses conjoin
    to the constant true."""
    trace = []
    last = _fold_steps(backend, store, trace, clauses)
    return (backend.true(store) if last is None else trace[last][-1]), trace


def fold_backend(fmt):
    """The backend a producer folds fmt diagrams in, and the export of its
    diagrams to fmt.  Circuits are folded as SDDs, which stay canonical
    and reduced, and each diagram is exported; a product of circuits
    grows with every join."""
    if fmt == "dsdnnf":
        return BACKENDS["sdd"], sdd_to_dsdnnf
    return BACKENDS[fmt], lambda d: d


def _trace_proof(fmt, structure, trace, export):
    """The join-only fmt proof over one structure with one line per
    trace step; export turns a step's diagram into an fmt diagram."""
    proof = Proof(ProofSystem(fmt, ("join",)))
    sid = proof.add_structure(structure)
    for step in trace:
        did = proof.add_diagram(sid, diagram_payload(export(step[-1])))
        if step[0] == "init":
            proof.add_init(step[1], did)
        else:
            proof.add_join(step[1] + 1, step[2] + 1, did)
    return proof


def naive_conjoin_refute(phi, structure, fmt=None):
    """Init every clause of phi over one shared structure, then fold
    joins left to right.

    The final line is constant false exactly when phi is unsatisfiable;
    the proof is emitted either way and the verdict is the checker's
    business.  A variable order means obdd format; a vtree defaults to
    sdd, pass fmt="dsdnnf" for circuits.
    """
    if fmt is None:
        # the first format whose structure it is: obdd or sdd
        fmt = next((b.name for b in BACKENDS.values()
                    if isinstance(structure, b.structure_type)), "obdd")
    target = BACKENDS.get(fmt)
    if target is None:
        raise RefuteError("unknown diagram format %r" % (fmt,))
    if not isinstance(structure, target.structure_type):
        raise RefuteError("%s proofs use %ss" % (fmt, target.structure_kind))
    backend, export = fold_backend(fmt)
    mentioned = {abs(lit) for clause in phi.clauses for lit in clause}
    if not mentioned <= backend.leaves(structure):
        raise RefuteError("structure does not cover the formula variables")
    if phi.num_clauses == 0:
        raise RefuteError("formula has no clauses")
    try:
        store = backend.store(structure)
    except (ObddError, SddError, StructureError) as err:
        raise RefuteError("invalid structure: %s" % err)
    _, trace = fold_trace(backend, store, phi.clauses)
    return _trace_proof(fmt, structure, trace, export)


# ----------------------------------------------------------- chain liftings

def _chain_layout(Z):
    """lift_Z(Z.base), whose starts and variable numbers index the
    lifting; refused unless Z is that lifting."""
    if not isinstance(Z, LiftedFormula):
        raise RefuteError("expected a lifted formula with a role map")
    try:
        fresh = lift_Z(Z.base)
    except ZooError as err:
        raise RefuteError("not a chain lifting: %s" % err)
    if (fresh.result.clauses != Z.result.clauses
            or fresh.result.num_vars != Z.result.num_vars
            or fresh.roles != Z.roles):
        raise RefuteError("formula is not the chain lifting of its base")
    return fresh


# ------------------------------------------------------ resolution refuter

def resolution_refute_lifted(Z):
    """Resolution refutation of a chain lifting.

    Block i resolves (C_i | y_i) against its implication clauses, one
    literal per step, down to (~z_i | z_i+1); the block results are then
    chained from (z_1) to the empty clause.  Resolvent count is the
    number of implication clauses plus m+1.
    """
    Z = _chain_layout(Z)
    m = Z.base.num_clauses
    steps = []

    def input_step(index):
        steps.append(("input", index))
        return len(steps)

    def res_step(i, j, pivot):
        steps.append(("res", i, j, pivot))
        return len(steps)

    block = {}
    for i in range(1, m + 1):
        cur = input_step(i - 1)
        lits = tuple(Z.base.clauses[i - 1]) + (Z.y(i),)
        for t, lit in enumerate(lits):
            other = input_step(Z.starts[i - 1] + t)
            cur = res_step(cur, other, abs(lit))
        block[i] = cur
    cur = input_step(Z.starts[m])
    for i in range(1, m + 1):
        cur = res_step(cur, block[i], Z.z(i))
    last = input_step(Z.starts[m] + 1)
    res_step(cur, last, Z.z(m + 1))
    return ResolutionProof(tuple(steps))


# ------------------------------------------------- compilation to refutation

def _trace_store(comp):
    first = comp[0][-1]
    try:
        backend = backend_of(first)
    except ProofError:
        raise RefuteError("unrecognized diagram %r in the trace" % (first,))
    store = backend.store_of(first)
    if store is None:
        raise RefuteError("trace diagrams carry no structure")
    return backend, store, backend.structure_of(store)


def _check_trace(comp, backend, store, clauses):
    """Refuse a trace unless every step is the conjunction it names, in
    the shared store, and the last step conjoins all the clauses.  For a
    trace built in that store each clause and conjunction is a cache
    hit."""
    masks = []
    for pos, step in enumerate(comp):
        ref = step[-1]
        if not (isinstance(ref, backend.diagram_type)
                and backend.store_of(ref) == store):
            raise RefuteError("trace step %d leaves the shared store" % pos)
        if step[0] == "init":
            if not 0 <= step[1] < len(clauses):
                raise RefuteError(
                    "trace step %d inits a clause outside the control"
                    " lifting" % pos)
            masks.append(1 << step[1])
            expected = backend.clause(store, clauses[step[1]])
        elif step[0] == "join":
            if not (0 <= step[1] < pos and 0 <= step[2] < pos):
                raise RefuteError(
                    "trace step %d references a later step" % pos)
            masks.append(masks[step[1]] | masks[step[2]])
            expected = backend.conjoin(store, comp[step[1]][-1],
                                       comp[step[2]][-1])
        else:
            raise RefuteError("unknown trace step %r" % (step[0],))
        if not backend.equal(ref, expected):
            raise RefuteError(
                "trace step %d is not the conjunction it names" % pos)
    if masks[-1] != (1 << len(clauses)) - 1:
        raise RefuteError("compilation does not conjoin every clause of"
                          " the control lifting")


def compilation_to_refutation(comp, Z):
    """Extend a conjunction-compilation of the control lifting of Z.base
    into a refutation of Z.

    `comp` is a list of ("init", clause_index, diagram) and
    ("join", i, j, diagram) steps referencing earlier steps, all
    diagrams in one store whose structure also covers the chain
    variables; each step must be the conjunction it names and the last
    must conjoin every clause of the control lifting.  The chain start
    is joined onto the trace, one block of joins per base clause
    discharges that clause's implications, and the final join with the
    chain end lands on the constant-false diagram; each step becomes one
    init or join line.
    """
    Z = _chain_layout(Z)
    if not comp:
        raise RefuteError("empty compilation trace")
    backend, store, structure = _trace_store(comp)
    clauses = Z.result.clauses
    mentioned = {abs(lit) for clause in clauses for lit in clause}
    if not mentioned <= backend.leaves(structure):
        raise RefuteError("trace structure does not cover the lifting")
    _check_trace(comp, backend, store, clauses[:Z.base.num_clauses])

    trace = list(comp)
    z1 = Z.starts[-1]
    cur = _fold_steps(backend, store, trace, [clauses[z1]], z1,
                      len(trace) - 1)
    for start, stop in zip(Z.starts, Z.starts[1:]):
        block = _fold_steps(backend, store, trace, clauses[start:stop], start)
        trace.append(("join", cur, block, backend.conjoin(
            store, trace[cur][-1], trace[block][-1])))
        cur = len(trace) - 1
    _fold_steps(backend, store, trace, clauses[z1 + 1:], z1 + 1, cur)
    return _trace_proof(backend.name, structure, trace, lambda d: d)


# --------------------------------------------------------- treewidth route

def _attach_control_bags(td, Z):
    """Extend a decomposition of the primal graph of the base of the
    chain lifting Z to its control lifting: each control variable joins
    a fresh bag hung off a bag containing its clause (clause variables
    are a clique, so one exists).
    """
    bags = list(td.bags)
    edges = list(td.tree_edges)
    for i, clause in enumerate(Z.base.clauses, start=1):
        need = {abs(lit) - 1 for lit in clause}
        host = next(b for b, bag in enumerate(bags[:len(td.bags)])
                    if need <= set(bag))
        bags.append(tuple(sorted(need | {Z.y(i) - 1})))
        edges.append((host, len(bags) - 1))
    return TreeDecomposition(tuple(bags), tuple(edges))


def treewidth_refute(phi):
    """Decomposition-guided sdd refutation of the chain lifting of phi.

    Pipeline: min-fill decomposition of phi's primal graph, one fresh
    bag per control variable, vtree realization, chain variables folded
    on the right as a right-linear spine, clause-fold sdd compilation of
    the control lifting, then the compilation-to-refutation extension.
    Returns the proof and an info dict with the achieved base width.
    """
    if phi.num_clauses == 0:
        raise RefuteError("formula has no clauses")
    Z = lift_Z(phi)
    control = lift_C(phi)
    td = tree_decomposition(primal_graph(phi))
    base_tree = vtree_from_decomposition(_attach_control_bags(td, Z), control)
    chain = right_linear_vtree(
        tuple(Z.z(i) for i in range(1, phi.num_clauses + 2)))
    store = SddStore(vtree_node(base_tree, chain))
    _, trace = fold_trace(BACKENDS["sdd"], store, control.clauses)
    return compilation_to_refutation(trace, Z), {"width": td.width}


# ------------------------------------------------------------- equality route

def obdd_refute_eq(n, shift):
    """Obdd refutation of the chain lifting of the shifted equality.

    The order interleaves, per position k, the two compared variables
    with the control and chain variables of the two clauses comparing
    them, so the clause fold only ever works inside a bounded window and
    the whole proof stays linear in n.
    """
    if n < 1 or n & (n - 1):
        raise RefuteError("n must be a power of two")
    if not 0 <= shift < n:
        raise RefuteError("shift out of range")
    phi = eq_formula(n, shift)
    Z = lift_Z(phi)
    order = []
    for k in range(n):
        j = (shift + k) % n
        order.extend((k + 1, n + j + 1, Z.y(2 * k + 1), Z.y(2 * k + 2),
                      Z.z(2 * k + 1), Z.z(2 * k + 2)))
    order.append(Z.z(2 * n + 1))
    store = ObddStore(tuple(order))
    _, trace = fold_trace(BACKENDS["obdd"], store, lift_C(phi).clauses)
    return compilation_to_refutation(trace, Z)


# --------------------------------------------------------------- extraction

def track_clause_sets(phi, proof):
    """Which input clauses each line's diagram is the exact conjunction of.

    Sound for weakening-free proofs only; a weaken line raises, since
    after weakening a line no longer computes a conjunction of clauses.
    """
    sets = {}
    for line in proof.lines:
        if line.rule == "weaken":
            raise ProofError(
                "line %d: clause sets are not tracked past weakening"
                % line.n)
        if line.rule not in LINE_FIELDS:
            raise ProofError("line %d: unknown rule %r" % (line.n, line.rule))
        if line.rule == "init" \
                and not 0 <= line.clause_index < len(phi.clauses):
            raise ProofError("line %d: clause index out of range" % line.n)
        if not all(1 <= ref < line.n for ref in line.refs):
            raise ProofError("line %d: reference out of range" % line.n)
        sets[line.n] = _clause_set(sets, line)
    return sets

def _case_assignment(Z, missing):
    """Partial assignment clearing one side of the split, by the block ell
    of that side's missing clause of the chain lifting Z.

    The chain is cut right after block ell, so every implication clause
    left on that side is satisfied.  C_ell | y_ell is falsified, except
    for the literal a missing implication clause negates; the controls
    of the blocks sharing a variable with C_ell are raised, so that every
    surviving augmented clause restricts to its full base clause.  The
    chain start (block 0) and end (block m+1) assign no base variable.
    """
    m = Z.base.num_clauses
    clauses = Z.result.clauses
    # ell: the missing clause's block, 0 for the chain start and m+1 for
    # its end; t: for an implication clause, the position in C_ell | y_ell
    # of the literal it negates
    ell, t = bisect_right(Z.starts, missing), None
    if ell == 0:                    # an augmented clause
        ell = missing + 1
    elif ell <= m:                  # an implication clause
        t = missing - Z.starts[ell - 1]
    elif missing == Z.starts[m]:    # the chain start; its end stays m+1
        ell = 0
    clause = clauses[ell - 1] if 1 <= ell <= m else ()
    core = {abs(lit) for lit in clause}
    a = {Z.y(b): int(any(abs(lit) in core for lit in clauses[b - 1]))
         for b in range(1, m + 1)}
    for lit in clause:
        a[abs(lit)] = int(lit < 0)
    if t is not None:
        a[abs(clause[t])] = int(clause[t] > 0)
    for b in range(1, m + 2):
        a[Z.z(b)] = int(b <= ell)
    return a


def extract_representation(P, Z, var_cap=22, verdict=None,
                           cap=DEFAULT_CHECK_CAP):
    """Diagram equivalent to Z.base, extracted from a weakening-free
    accepted refutation P of the chain lifting Z.

    The constant-false conclusion is traced back to a join of two
    satisfiable lines.  Each side misses at least one lifted clause; the
    smallest missing index selects a partial assignment that clears the
    control and chain variables from that side without shortening any
    clause the side still carries.  The two restricted diagrams,
    conjoined with directly built diagrams for the base clauses the
    assignments satisfied, give the result.  The satisfied clauses
    mention few variables when clauses are short and variable occurrence
    is bounded; var_cap cuts the construction off beyond that.  A caller
    that has checked P against Z.result passes the verdict, and P is not
    checked again; cap bounds that check and the lines read after it.
    """
    Z = _chain_layout(Z)
    if "weaken" in P.system.rules:
        raise RefuteError("extraction needs a weakening-free proof")
    if verdict is None:
        verdict = check_proof(Z.result, P, cap)
    if not verdict.accepted:
        raise RefuteError("proof rejected: %s" % verdict.reason)
    session = _Session(P, cap)
    backend = session.backend

    number = len(P.lines)
    while True:
        line = P.lines[number - 1]
        if line.rule == "init":
            raise RefuteError(
                "the contradiction is an initial clause; nothing to split")
        if line.rule in ("move", "reorder"):
            number = line.refs[0]
            continue
        left, right = line.refs
        d_left, sid = session.line_diagram(left)
        d_right, _ = session.line_diagram(right)
        if session.count(d_left, sid) == 0:
            number = left
            continue
        if session.count(d_right, sid) == 0:
            number = right
            continue
        break

    sets = track_clause_sets(Z.result, P)
    total = Z.result.num_clauses
    # the restrictions assign every control and chain variable, so the
    # pieces are conjoined over the structure induced on the base ones
    lifted = set(range(Z.base.num_vars + 1, Z.result.num_vars + 1))
    store = backend.store(
        backend.without(session.structure_value(sid), lifted))
    satisfied = set()
    pieces = []
    for ref, diagram in ((left, d_left), (right, d_right)):
        missing = None
        for index in range(total):
            if index not in sets[ref]:
                missing = index
                break
        if missing is None:
            raise RefuteError("a satisfiable line carries every clause")
        a = _case_assignment(Z, missing)
        pieces.append(backend.rebase(store, backend.restrict(diagram, a)))
        for b, clause in enumerate(Z.result.clauses[:Z.base.num_clauses],
                                   start=1):
            if any(a.get(abs(lit)) == (1 if lit > 0 else 0)
                   for lit in clause):
                satisfied.add(b)

    mention = {abs(lit) for b in satisfied
               for lit in Z.base.clauses[b - 1]}
    if len(mention) > var_cap:
        raise CapExceeded(
            "representation needs %d variables, cap is %d"
            % (len(mention), var_cap))
    out = backend.conjoin(store, pieces[0], pieces[1])
    for b in sorted(satisfied):
        out = backend.conjoin(store, out, backend.clause(
            store, Z.base.clauses[b - 1]))
    return out
