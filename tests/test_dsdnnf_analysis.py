"""One structural analysis per d-SDNNF circuit.

Every circuit keeps the reachable gates, the variable masks and, per vtree,
the gate bindings and structural verdicts it was found to have, and reuses
them until a gate is added or the root moves.  Bindings are computed
bottom-up; the reference here walks down from the vtree root for every
gate, as the validators once did, and both must agree on every binding and
every error text.  The analysis is also pinned to run once per circuit
during a proof check, and a fold on a decomposition vtree to be checked
within a budget the per-gate walk did not meet.
"""

import itertools
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcproof import dsdnnf
from kcproof.cnf import primal_graph, tree_decomposition
from kcproof.dsdnnf import (
    Circuit,
    DsdnnfError,
    circuit_from_lines,
    circuit_size,
    circuit_vars,
    dsdnnf_conjoin,
    dsdnnf_count,
    validate_deterministic,
    validate_structured,
)
from kcproof.proofs import check_proof, parse_proof, proof_to_text
from kcproof.refute import naive_conjoin_refute
from kcproof.structure import (right_linear_vtree, vtree_from_decomposition,
                               vtree_leaf, vtree_node)
from kcproof.zoo import lift_Z, path, vc_formula
from oracles import dsdnnf_is_unsat

# check of the d-SDNNF fold of lift_Z(vc-path 16) on its decomposition
# vtree, in process seconds: 0.54 s on a 2-vCPU host, against 4.2 s when
# every gate walked down from the vtree root to find its binding
DECOMPOSITION_CHECK_BUDGET = 2.5


# ----------------------------------------------------------- the reference

def reference_vtree_masks(tree):
    table = {}

    def walk(node, at):
        if node.var is not None:
            table[at] = 1 << (node.var - 1)
        else:
            table[at] = walk(node.left, at + "L") | walk(node.right, at + "R")
        return table[at]

    walk(tree, "")
    return table


def lowest_path(mask, vam):
    at = ""
    while at + "L" in vam:
        if mask & ~vam[at + "L"] == 0:
            at += "L"
        elif mask & ~vam[at + "R"] == 0:
            at += "R"
        else:
            break
    return at


def reference_reachable(circuit):
    seen, stack = set(), [circuit.root]
    while stack:
        i = stack.pop()
        if i not in seen:
            seen.add(i)
            gate = circuit.gates[i]
            stack.extend(gate[1:] if gate[0] in ("and", "or") else ())
    return sorted(seen)


def reference_bindings(circuit, tree, check_or_sets):
    """Each reachable gate's lowest covering node, one walk per gate."""
    for i, gate in enumerate(circuit.gates):
        if gate[0] == "lit" and abs(gate[1]) not in tree.variables:
            raise DsdnnfError("gate %d: variable %d is not a leaf of the vtree"
                              % (i, abs(gate[1])))
    vam = reference_vtree_masks(tree)
    masks = []
    for gate in circuit.gates:
        if gate[0] == "lit":
            masks.append(1 << (abs(gate[1]) - 1))
        elif gate[0] in ("and", "or"):
            masks.append(masks[gate[1]] | masks[gate[2]])
        else:
            masks.append(0)
    binding = {}
    for i in reference_reachable(circuit):
        gate = circuit.gates[i]
        at = lowest_path(masks[i], vam)
        if gate[0] == "and":
            if at + "L" not in vam:
                raise DsdnnfError("and-gate %d: children not split by any node"
                                  % i)
            if masks[gate[1]] & masks[gate[2]]:
                raise DsdnnfError("and-gate %d is not decomposable" % i)
            if masks[gate[1]] & ~vam[at + "L"] \
                    or masks[gate[2]] & ~vam[at + "R"]:
                raise DsdnnfError("and-gate %d: children not split at its node"
                                  % i)
        elif gate[0] == "or" and check_or_sets:
            if masks[gate[1]] != masks[gate[2]]:
                raise DsdnnfError("or-gate %d: children variable sets differ"
                                  % i)
        binding[i] = at
    return binding


def outcome(fn, *args, **kwargs):
    try:
        return "ok", fn(*args, **kwargs)
    except DsdnnfError as exc:
        return "error", str(exc)


# ---------------------------------------------------- brute-force semantics

def models(circuit, gate, variables):
    """Assignments (tuples of values of `variables`) satisfying a gate."""
    out = set()
    for values in itertools.product((0, 1), repeat=len(variables)):
        assignment = dict(zip(variables, values))
        if evaluate(circuit, gate, assignment):
            out.add(values)
    return out


def evaluate(circuit, gate, assignment):
    kind = circuit.gates[gate]
    if kind[0] == "lit":
        return assignment[abs(kind[1])] == (1 if kind[1] > 0 else 0)
    if kind[0] == "and":
        return evaluate(circuit, kind[1], assignment) \
            and evaluate(circuit, kind[2], assignment)
    if kind[0] == "or":
        return evaluate(circuit, kind[1], assignment) \
            or evaluate(circuit, kind[2], assignment)
    return kind[0] == "true"


def brute_deterministic(circuit, variables):
    for i in reference_reachable(circuit):
        gate = circuit.gates[i]
        if gate[0] == "or" and models(circuit, gate[1], variables) \
                & models(circuit, gate[2], variables):
            return False
    return True


def circuit_vars_of(c, gate):
    sub = Circuit()
    sub.gates = c.gates
    sub.root = gate
    return circuit_vars(sub)


# ---------------------------------------------------------------- drawing

@st.composite
def vtrees(draw, variables):
    if len(variables) == 1:
        return vtree_leaf(variables[0])
    split = draw(st.integers(1, len(variables) - 1))
    return vtree_node(draw(vtrees(variables[:split])),
                      draw(vtrees(variables[split:])))


@st.composite
def circuits(draw, n, max_gates=12):
    """Any circuit over variables 1..n built with Circuit.add: constants,
    repeated literals, overlapping and-gates and or-gates over unequal
    variable sets all occur."""
    c = Circuit()
    for _ in range(draw(st.integers(1, max_gates))):
        kinds = ["lit"] * 3 + ["true", "false"] \
            + (["and", "or"] * 3 if c.gates else [])
        kind = draw(st.sampled_from(kinds))
        if kind == "lit":
            v = draw(st.integers(1, n))
            c.add(("lit", v if draw(st.booleans()) else -v))
        elif kind in ("true", "false"):
            c.add((kind,))
        else:
            top = len(c.gates) - 1
            c.add((kind, draw(st.integers(0, top)), draw(st.integers(0, top))))
    last = len(c.gates) - 1
    c.root = draw(st.one_of(st.just(last), st.integers(0, last)))
    return c


@st.composite
def guided(draw, c, node):
    """A gate over the variables below `node` that respects the vtree,
    except where a draw breaks a condition on purpose."""
    if node.var is not None:
        v = node.var
        kind = draw(st.sampled_from(["pos", "neg", "both"] * 3
                                    + ["true", "false"]))
        if kind in ("true", "false"):
            return c.add((kind,))
        if kind == "both":
            return c.add(("or", c.add(("lit", v)), c.add(("lit", -v))))
        return c.add(("lit", v if kind == "pos" else -v))
    shape = draw(st.sampled_from(["and"] * 4 + ["or"] * 3
                                 + ["swap", "same", "mixed"]))
    left = draw(guided(c, node.left))
    if shape == "same":
        # both children below one side: overlapping or split lower down
        return c.add(("and", left, draw(guided(c, node.left))))
    right = draw(guided(c, node.right))
    if shape == "swap":
        return c.add(("and", right, left))
    if shape == "mixed":
        return c.add(("or", left, right))
    first = c.add(("and", left, right))
    if shape == "and":
        return first
    second = c.add(("and", draw(guided(c, node.left)),
                    draw(guided(c, node.right))))
    return c.add(("or", first, second))


@st.composite
def guided_circuits(draw, tree):
    c = Circuit()
    c.root = draw(guided(c, tree))
    return c


def any_circuit(tree, n):
    return st.one_of(circuits(n), guided_circuits(tree))


@st.composite
def trees_and_circuits(draw):
    n = draw(st.integers(1, 6))
    variables = list(range(1, n + 1))
    tree = draw(vtrees(draw(st.permutations(variables))))
    return tree, draw(any_circuit(tree, n)), variables


# ------------------------------------------------------------- properties

class TestBottomUpBindings:
    @given(trees_and_circuits())
    @settings(max_examples=300, deadline=None)
    def test_validators_agree_with_the_walk_from_the_root(self, drawn):
        tree, c, variables = drawn
        assert outcome(validate_structured, c, tree) \
            == outcome(reference_bindings, c, tree, True)
        expected = outcome(reference_bindings, c, tree, False)
        got = outcome(validate_deterministic, c, tree)
        if expected[0] == "error":
            assert got == expected
        else:
            assert got == ("ok", brute_deterministic(c, variables))

    @given(trees_and_circuits())
    @settings(max_examples=150, deadline=None)
    def test_size_variables_count_and_satisfiability(self, drawn):
        tree, c, variables = drawn
        reachable = reference_reachable(c)
        assert circuit_size(c) == len(reachable)
        assert circuit_vars(c) == {abs(c.gates[i][1]) for i in reachable
                                   if c.gates[i][0] == "lit"}
        undecomposable = [i for i in reachable if c.gates[i][0] == "and"
                          and circuit_vars_of(c, c.gates[i][1])
                          & circuit_vars_of(c, c.gates[i][2])]
        if undecomposable:
            text = "and-gate %d is not decomposable" % undecomposable[0]
            assert outcome(dsdnnf_count, c, variables) == ("error", text)
            assert outcome(dsdnnf_is_unsat, c) == ("error", text)
            return
        truth = models(c, c.root, variables)
        assert dsdnnf_is_unsat(c) == (not truth)
        if brute_deterministic(c, variables):
            assert dsdnnf_count(c, variables) == len(truth)

    @given(trees_and_circuits(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_conjoin(self, drawn, data):
        tree, c1, variables = drawn
        c2 = data.draw(any_circuit(tree, len(variables)))
        expected = [outcome(reference_bindings, c, tree, True)
                    for c in (c1, c2)]
        errors = [e for e in expected if e[0] == "error"]
        got = outcome(dsdnnf_conjoin, c1, c2, tree)
        if errors:
            assert got == errors[0]
            return
        if not (brute_deterministic(c1, variables)
                and brute_deterministic(c2, variables)):
            return
        out = got[1]
        validate_structured(out, tree)
        assert validate_deterministic(out, tree)
        assert models(out, out.root, variables) \
            == models(c1, c1.root, variables) & models(c2, c2.root, variables)


class TestMemo:
    def majority(self):
        tree = vtree_node(vtree_node(vtree_leaf(1), vtree_leaf(2)),
                          vtree_leaf(3))
        c = Circuit(tree)
        x1, x2, x3 = (c.mk_lit(v) for v in (1, 2, 3))
        c.root = c.mk_or(c.mk_and(x1, x2), x3)
        return tree, c

    def test_add_and_a_new_root_invalidate(self):
        tree, c = self.majority()
        # the or-gate's children mention {1, 2} and {3}: not smooth
        assert outcome(validate_structured, c, tree) \
            == outcome(reference_bindings, c, tree, True)
        assert validate_deterministic(c, tree) is False
        c.root = c.add(("lit", 3))
        assert validate_structured(c, tree) == {c.root: "R"}
        assert circuit_size(c) == 1
        c.root = c.add(("and", 0, 1))
        assert validate_structured(c, tree) == reference_bindings(c, tree, True)
        assert circuit_vars(c) == {1, 2}
        c.add(("and", 0, 0))
        c.root = len(c.gates) - 1
        assert outcome(validate_structured, c, tree) \
            == ("error", "and-gate %d: children not split by any node"
                % c.root)

    def test_another_vtree_gets_its_own_bindings(self):
        tree, c = self.majority()
        c.root = c.gates.index(("and", 0, 1))
        assert validate_structured(c, tree) == {0: "LL", 1: "LR", 3: "L"}
        flipped = vtree_node(vtree_leaf(3),
                             vtree_node(vtree_leaf(2), vtree_leaf(1)))
        assert outcome(validate_structured, c, flipped) \
            == outcome(reference_bindings, c, flipped, True)
        equal = vtree_node(vtree_node(vtree_leaf(1), vtree_leaf(2)),
                           vtree_leaf(3))
        assert validate_structured(c, equal) == {0: "LL", 1: "LR", 3: "L"}
        assert validate_structured(c, tree) == {0: "LL", 1: "LR", 3: "L"}

    def test_a_counted_circuit_computes_no_bindings(self, monkeypatch):
        tree, c = self.majority()
        calls = []
        bind = dsdnnf._bind
        monkeypatch.setattr(dsdnnf, "_bind",
                            lambda *args: calls.append(args) or bind(*args))
        c.root = c.gates.index(("and", 0, 1))
        assert dsdnnf_count(c, {1, 2, 3}) == 2
        assert circuit_size(c) == 3 and circuit_vars(c) == {1, 2}
        assert calls == []
        validate_structured(c, tree)
        validate_deterministic(c, tree)
        dsdnnf_conjoin(c, c, tree)
        assert len(calls) == 1


# ------------------------------------------------------------ whole proofs

def fold(length, tree_of):
    phi = lift_Z(vc_formula(path(length))).result
    tree = tree_of(phi)
    return phi, parse_proof(proof_to_text(naive_conjoin_refute(
        phi, tree, "dsdnnf")))


def right_linear(phi):
    return right_linear_vtree(tuple(range(1, phi.num_vars + 1)))


def decomposition(phi):
    return vtree_from_decomposition(tree_decomposition(primal_graph(phi)), phi)


class TestOncePerCircuit:
    def test_fold_check_binds_each_circuit_once(self, monkeypatch):
        phi, proof = fold(4, right_linear)
        bound = []
        bind = dsdnnf._bind
        monkeypatch.setattr(dsdnnf, "_bind",
                            lambda c, *rest: bound.append(c) or bind(c, *rest))
        verdict = check_proof(phi, proof)
        assert verdict.accepted
        assert len(proof.lines) == 35
        # 35 payloads, 18 clause circuits and 17 products of two premises
        assert len(bound) <= 70
        assert len({id(c) for c in bound}) == len(bound)

    def test_decomposition_fold_within_budget(self):
        phi, proof = fold(16, decomposition)
        start = time.process_time()
        verdict = check_proof(phi, proof)
        elapsed = time.process_time() - start
        assert verdict.accepted
        assert elapsed < DECOMPOSITION_CHECK_BUDGET


# ------------------------------------------------------ a second root line

TWO_ROOTS = "g 0 LIT 1\ng 1 LIT -1\ng 2 OR 0 1\nroot 0\nroot 2\n"


class TestSecondRoot:
    def test_library_call(self):
        with pytest.raises(DsdnnfError, match="second root line 'root 2'"):
            circuit_from_lines(TWO_ROOTS.splitlines())

    def test_check_proof_payload_is_malformed(self):
        from kcproof.cnf import cnf
        phi = cnf(1, [(1,), (-1,)])
        text = proof_to_text(naive_conjoin_refute(
            phi, right_linear_vtree((1,)), "dsdnnf"))
        payload = "g 0 LIT 1;root 0"
        assert text.count(payload) == 1
        text = text.replace(payload, TWO_ROOTS.strip().replace("\n", ";"))
        verdict = check_proof(phi, parse_proof(text))
        assert not verdict.accepted
        assert verdict.failing_line == 1
        assert verdict.reason == "malformed: second root line 'root 2'"

    def test_kcp_count_exits_2(self, tmp_path, capsys):
        from kcproof import cli
        target = tmp_path / "d.txt"
        target.write_text("format dsdnnf\n" + TWO_ROOTS)
        assert cli.main(["count", str(target)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "second root line" in err
