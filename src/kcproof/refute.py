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

Producers return proof objects; file output and stats sidecars are the
command line's business.
"""

from .cnf import (CapExceeded, TreeDecomposition, primal_graph,
                  tree_decomposition)
from .structure import (StructureError, Vtree, right_linear_vtree,
                        vtree_from_decomposition, vtree_node)
from .obdd import ObddError, ObddStore
from .sdd import SddError, SddStore
from .dsdnnf import sdd_to_dsdnnf
from .zoo import LiftedFormula, ZooError, eq_formula, lift_C, lift_Z
from .proofs import (BACKENDS, Proof, ProofError, ProofSystem,
                     ResolutionProof, _Session, backend_of, check_proof,
                     diagram_payload, fold_clauses, fold_trace,
                     track_clause_sets)


class RefuteError(Exception):
    pass


# ------------------------------------------------------------- naive folding

def fold_backend(fmt):
    """The backend a producer folds fmt diagrams in, and the export of its
    diagrams to fmt.  Circuits are folded as SDDs, which stay canonical
    and reduced, and each diagram is exported; a product of circuits
    grows with every join."""
    if fmt == "dsdnnf":
        return BACKENDS["sdd"], sdd_to_dsdnnf
    return BACKENDS[fmt], lambda d: d


def _emit_fold(proof, emit, folded, start, acc_line=None):
    """One init line per clause of a fold, numbered from start, and one
    join line onto acc_line per conjunction; returns the last conjunction
    and its line."""
    acc = None
    for index, (d, acc) in enumerate(folded, start):
        line = proof.add_init(index, emit(d))
        acc_line = line if acc_line is None \
            else proof.add_join(acc_line, line, emit(acc))
    return acc, acc_line


def naive_conjoin_refute(phi, structure, fmt=None):
    """Init every clause of phi over one shared structure, then fold
    joins left to right.

    The final line is constant false exactly when phi is unsatisfiable;
    the proof is emitted either way and the verdict is the checker's
    business.  A variable order means obdd format; a vtree defaults to
    sdd, pass fmt="dsdnnf" for circuits.
    """
    if isinstance(structure, tuple):
        fmt = fmt or "obdd"
        if fmt != "obdd":
            raise RefuteError("a variable order fixes the format to obdd")
    elif isinstance(structure, Vtree):
        fmt = fmt or "sdd"
        if fmt not in ("sdd", "dsdnnf"):
            raise RefuteError("a vtree means the sdd or dsdnnf format")
    else:
        raise RefuteError("structure must be a variable order or a vtree")
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
    proof = Proof(ProofSystem(fmt, ("join",)))
    sid = proof.add_structure(structure)

    def emit(d):
        return proof.add_diagram(sid, diagram_payload(export(d)))

    _emit_fold(proof, emit, fold_clauses(backend, store, phi.clauses), 0)
    return proof


# ----------------------------------------------------------- chain liftings

class _ChainLayout:
    """Clause and variable indexing inside a chain lifting.

    Clause order: the m augmented clauses, then per base clause i the
    |C_i|+1 implication clauses (base literals first, control literal
    last), then the chain start (z_1), then the chain end (~z_m+1).
    """

    def __init__(self, base):
        self.m = base.num_clauses
        self.n = base.num_vars
        self.sizes = [len(clause) for clause in base.clauses]
        starts = []
        at = self.m
        for size in self.sizes:
            starts.append(at)
            at += size + 1
        self.starts = starts
        self.z1_index = at
        self.last_index = at + 1

    def y(self, i):
        return self.n + i

    def z(self, i):
        return self.n + self.m + i

    def imp_index(self, i, t):
        return self.starts[i - 1] + t

    def kind(self, index):
        if index < self.m:
            return ("aug", index + 1)
        for i in range(1, self.m + 1):
            offset = index - self.starts[i - 1]
            if 0 <= offset <= self.sizes[i - 1]:
                return ("imp", i, offset)
        if index == self.z1_index:
            return ("first",)
        if index == self.last_index:
            return ("last",)
        raise RefuteError("clause index %d outside the lifting" % index)


def _chain_layout(Z):
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
    return _ChainLayout(Z.base)


# ------------------------------------------------------ resolution refuter

def resolution_refute_lifted(Z):
    """Resolution refutation of a chain lifting.

    Block i resolves (C_i | y_i) against its implication clauses, one
    literal per step, down to (~z_i | z_i+1); the block results are then
    chained from (z_1) to the empty clause.  Resolvent count is the
    number of implication clauses plus m+1.
    """
    lay = _chain_layout(Z)
    steps = []

    def input_step(index):
        steps.append(("input", index))
        return len(steps)

    def res_step(i, j, pivot):
        steps.append(("res", i, j, pivot))
        return len(steps)

    block = {}
    for i in range(1, lay.m + 1):
        cur = input_step(i - 1)
        lits = tuple(Z.base.clauses[i - 1]) + (lay.y(i),)
        for t, lit in enumerate(lits):
            other = input_step(lay.imp_index(i, t))
            cur = res_step(cur, other, abs(lit))
        block[i] = cur
    cur = input_step(lay.z1_index)
    for i in range(1, lay.m + 1):
        cur = res_step(cur, block[i], lay.z(i))
    last = input_step(lay.last_index)
    res_step(cur, last, lay.z(lay.m + 1))
    return ResolutionProof(tuple(steps))


# ------------------------------------------------- compilation to refutation

def _trace_store(comp, structure):
    first = comp[0][-1]
    try:
        backend = backend_of(first)
    except ProofError:
        raise RefuteError("unrecognized diagram %r in the trace" % (first,))
    store = backend.store_of(first)
    if store is None:
        raise RefuteError("trace diagrams carry no structure")
    derived = backend.structure_of(store)
    if structure is not None and structure != derived:
        raise RefuteError("trace diagrams disagree with the given structure")
    return backend, store, derived


def _check_trace(comp, backend, store, m):
    for pos, step in enumerate(comp):
        ref = step[-1]
        if not (isinstance(ref, backend.diagram_type)
                and backend.store_of(ref) == store):
            raise RefuteError("trace step %d leaves the shared store" % pos)
        if step[0] == "init":
            if not 0 <= step[1] < m:
                raise RefuteError(
                    "trace step %d inits a clause outside the control"
                    " lifting" % pos)
        elif step[0] == "join":
            if not (0 <= step[1] < pos and 0 <= step[2] < pos):
                raise RefuteError(
                    "trace step %d references a later step" % pos)
        else:
            raise RefuteError("unknown trace step %r" % (step[0],))


def compilation_to_refutation(comp, Z, structure=None):
    """Extend a conjunction-compilation of the control lifting of Z.base
    into a refutation of Z.

    `comp` is a list of ("init", clause_index, diagram) and
    ("join", i, j, diagram) steps referencing earlier steps, all
    diagrams in one store whose structure also covers the chain
    variables; the last diagram must equal the conjunction of the
    control lifting's clauses.  The trace is replayed as init and join
    lines, the chain start is joined on, one block of joins per base
    clause discharges that clause's implications, and the final join
    with the chain end lands on the constant-false diagram.
    """
    lay = _chain_layout(Z)
    if not comp:
        raise RefuteError("empty compilation trace")
    backend, store, structure = _trace_store(comp, structure)
    _check_trace(comp, backend, store, lay.m)
    clauses = Z.result.clauses
    mentioned = {abs(lit) for clause in clauses for lit in clause}
    if not mentioned <= backend.leaves(structure):
        raise RefuteError("trace structure does not cover the lifting")
    expected, _ = fold_trace(backend, store, clauses[:lay.m])
    if not backend.equal(comp[-1][-1], expected):
        raise RefuteError("compilation does not equal the control lifting")

    proof = Proof(ProofSystem(backend.name, ("join",)))
    sid = proof.add_structure(structure)

    def emit(ref):
        return proof.add_diagram(sid, diagram_payload(ref))

    line_of = []
    for step in comp:
        if step[0] == "init":
            line_of.append(proof.add_init(step[1], emit(step[2])))
        else:
            line_of.append(proof.add_join(
                line_of[step[1]], line_of[step[2]], emit(step[3])))

    def fold(start, stop, acc=None, acc_line=None):
        folded = fold_clauses(backend, store, clauses[start:stop], acc)
        return _emit_fold(proof, emit, folded, start, acc_line)

    cur_ref, cur_line = fold(lay.z1_index, lay.z1_index + 1,
                             comp[-1][-1], line_of[-1])
    for i in range(1, lay.m + 1):
        start = lay.imp_index(i, 0)
        block_ref, block_line = fold(start, start + lay.sizes[i - 1] + 1)
        cur_ref = backend.conjoin(store, cur_ref, block_ref)
        cur_line = proof.add_join(cur_line, block_line, emit(cur_ref))
    fold(lay.last_index, lay.last_index + 1, cur_ref, cur_line)
    return proof


# --------------------------------------------------------- treewidth route

def _attach_control_bags(td, phi):
    """Extend a decomposition of phi's primal graph to the control
    lifting: each control variable joins a fresh bag hung off a bag
    containing its clause (clause variables are a clique, so one
    exists).
    """
    bags = list(td.bags)
    edges = list(td.tree_edges)
    for i, clause in enumerate(phi.clauses, start=1):
        need = {abs(lit) - 1 for lit in clause}
        host = next(b for b, bag in enumerate(bags[:len(td.bags)])
                    if need <= set(bag))
        bags.append(tuple(sorted(need | {phi.num_vars + i - 1})))
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
    base_tree = vtree_from_decomposition(_attach_control_bags(td, phi), control)
    n, m = phi.num_vars, phi.num_clauses
    chain = right_linear_vtree(tuple(range(n + m + 1, n + 2 * m + 2)))
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
    order = []
    for k in range(n):
        j = (shift + k) % n
        order.extend((k + 1, n + j + 1,
                      2 * n + 2 * k + 1, 2 * n + 2 * k + 2,
                      4 * n + 2 * k + 1, 4 * n + 2 * k + 2))
    order.append(6 * n + 1)
    store = ObddStore(tuple(order))
    _, trace = fold_trace(BACKENDS["obdd"], store, lift_C(phi).clauses)
    return compilation_to_refutation(trace, lift_Z(phi))


# --------------------------------------------------------------- extraction

def _neighbour_controls(lay, base, ell, a, include_self):
    core = {abs(lit) for lit in base.clauses[ell - 1]}
    for b in range(1, lay.m + 1):
        if b == ell:
            shares = include_self
        else:
            shares = any(abs(lit) in core for lit in base.clauses[b - 1])
        a[lay.y(b)] = 1 if shares else 0


def _chain_split(lay, ell, a):
    for b in range(1, lay.m + 2):
        a[lay.z(b)] = 1 if b <= ell else 0


def _case_assignment(lay, base, missing):
    """Partial assignment clearing one side of the split, by the kind of
    that side's missing clause.

    Every control and chain variable is assigned; base variables only
    when the missing clause pins down a base clause.  The chain is cut
    right after the missing clause's block, so every implication clause
    present on that side comes out satisfied and every surviving
    augmented clause restricts to its full base clause.  When the
    missing clause is a control implication the printed construction
    (all controls low) would shave the block's base literals down to
    sub-clauses; raising the block's and its neighbours' controls, as in
    the satisfiability argument for dropping that clause, avoids this.
    """
    a = {}
    kind = lay.kind(missing)
    if kind[0] == "aug":
        ell = kind[1]
        for lit in base.clauses[ell - 1]:
            a[abs(lit)] = 0 if lit > 0 else 1
        _neighbour_controls(lay, base, ell, a, include_self=False)
        _chain_split(lay, ell, a)
    elif kind[0] == "imp":
        ell, t = kind[1], kind[2]
        clause = base.clauses[ell - 1]
        if t < len(clause):
            for lit in clause:
                a[abs(lit)] = 0 if lit > 0 else 1
            lam = clause[t]
            a[abs(lam)] = 1 if lam > 0 else 0
            _neighbour_controls(lay, base, ell, a, include_self=False)
        else:
            for lit in clause:
                a[abs(lit)] = 0 if lit > 0 else 1
            _neighbour_controls(lay, base, ell, a, include_self=True)
        _chain_split(lay, ell, a)
    elif kind[0] == "first":
        for b in range(1, lay.m + 1):
            a[lay.y(b)] = 0
        for b in range(1, lay.m + 2):
            a[lay.z(b)] = 0
    else:
        for b in range(1, lay.m + 1):
            a[lay.y(b)] = 0
        for b in range(1, lay.m + 2):
            a[lay.z(b)] = 1
    return a


def extract_representation(P, Z, var_cap=22):
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
    is bounded; var_cap cuts the construction off beyond that.
    """
    lay = _chain_layout(Z)
    if "weaken" in P.system.rules:
        raise RefuteError("extraction needs a weakening-free proof")
    verdict = check_proof(Z.result, P)
    if not verdict.accepted:
        raise RefuteError("proof rejected: %s" % verdict.reason)
    session = _Session(P, 10 ** 7)
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
    store = session.store(sid)
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
        a = _case_assignment(lay, Z.base, missing)
        pieces.append(backend.restrict(diagram, a))
        for b in range(1, lay.m + 1):
            clause = Z.result.clauses[b - 1]
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
    base_clauses = [Z.base.clauses[b - 1] for b in sorted(satisfied)]
    for _, out in fold_clauses(backend, store, base_clauses, out):
        pass
    # The restrictions assigned every control and chain variable, so the
    # result no longer depends on them: re-express it over the structure
    # induced on the base variables.
    lifted = set(range(lay.n + 1, lay.z(lay.m + 1) + 1))
    target = backend.without(session.structure_value(sid), lifted)
    return backend.rebase(backend.store(target), out)
