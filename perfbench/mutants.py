"""Two mutants of an honest proof text, each of which a sound checker must
reject, and where.

``drop_last`` removes the final derivation line, so the proof no longer
ends in the constant-false diagram.  ``alter_join`` changes one node of the
diagram that a join line claims, in a way that keeps the diagram well
formed but changes the function it denotes, so the only rule that can
reject it is the join comparison:

- obdd: swap the low and high children of a node.  In a reduced diagram
  the two children differ, and every emitted node is reachable from the
  root, so some assignment sees the change.
- sdd: swap the subs of two elements of a decision node reached from the
  root through subs alone.  Every partition still holds, and the subs of a
  compressed node are distinct.
- dsdnnf: in an and-gate (or the root line) on a satisfiable proof tree of
  the root, replace a child or-gate by one of its two children.  The or-gate
  is taken only where a literal of one child is negated in the other, and
  only where every or-gate between it and the root is exclusive in the same
  way.  The replacement child mentions the same variables as the or-gate,
  so the circuit stays structured; it denotes a subset of the or-gate, so
  every or-gate stays deterministic.  The models that the proof tree
  certifies through the other child are lost.

Each mutant comes with the line at which it must be rejected and the
reason the checker must give.  The mutants are built from the text alone,
without kcproof.
"""

import re

ELEMENT = re.compile(r"\((\S+) (\S+)\)")
FINAL_REASON = "final line is not the constant-false diagram"
JOIN_REASON = "join mismatch"


def drop_last(text):
    """The proof without its last line; rejected at the new last line."""
    lines = text.splitlines()
    numbered = [i for i, line in enumerate(lines) if line.startswith("L ")]
    del lines[numbered[-1]]
    return ("\n".join(lines) + "\n", int(lines[numbered[-2]].split()[1]),
            FINAL_REASON)


def _alter_obdd(pieces, rng):
    nodes = [i for i, piece in enumerate(pieces) if piece.startswith("n ")]
    nodes = [i for i in nodes if pieces[i].split()[3] != pieces[i].split()[4]]
    if not nodes:
        return None
    i = rng.choice(nodes)
    tag, label, var, lo, hi = pieces[i].split()
    pieces[i] = " ".join((tag, label, var, hi, lo))
    return pieces


def _alter_sdd(pieces, rng):
    decisions = {piece.split()[1]: (i, ELEMENT.findall(piece))
                 for i, piece in enumerate(pieces) if piece.startswith("s ")}
    # only nodes reached from the root through subs alone: a change below a
    # prime would break that prime's partition and be rejected as malformed
    # before the join is compared
    on_subs, stack = set(), [pieces[-1].split()[1]]
    while stack:
        label = stack.pop()
        if label in decisions and label not in on_subs:
            on_subs.add(label)
            stack.extend(sub for _, sub in decisions[label][1])
    candidates = [decisions[label] for label in sorted(on_subs, key=int)
                  if len(decisions[label][1]) >= 2
                  and decisions[label][1][0][1] != decisions[label][1][1][1]]
    if not candidates:
        return None
    i, elements = rng.choice(candidates)
    (p0, s0), (p1, s1) = elements[:2]
    elements[:2] = [(p0, s1), (p1, s0)]
    tag, label, path = pieces[i].split(None, 3)[:3]
    pieces[i] = "%s %s %s %s" % (tag, label, path,
                                 "".join("(%s %s)" % e for e in elements))
    return pieces


def _alter_dsdnnf(pieces, rng):
    gates, where, root = {}, {}, None
    for i, piece in enumerate(pieces):
        parts = piece.split()
        if parts[0] == "g":
            gates[parts[1]] = parts[2:]
            where[parts[1]] = i
        elif parts[0] == "root":
            root, where["root"] = parts[1], i
    # gates come in table order, children first: satisfiability (sound
    # under decomposability) and the literals every model of a gate sets
    sat, implied = {}, {}
    for gate, (kind, *children) in gates.items():
        if kind == "LIT":
            sat[gate], implied[gate] = True, {int(children[0])}
        elif kind in ("TRUE", "FALSE"):
            sat[gate], implied[gate] = kind == "TRUE", set()
        elif kind == "AND":
            sat[gate] = sat[children[0]] and sat[children[1]]
            implied[gate] = implied[children[0]] | implied[children[1]]
        else:
            sat[gate] = sat[children[0]] or sat[children[1]]
            implied[gate] = implied[children[0]] & implied[children[1]]

    def exclusive(gate):
        kind, *children = gates[gate]
        return kind == "OR" and any(
            -lit in implied[children[1]] for lit in implied[children[0]])

    if root is None or not sat[root]:
        return None
    # (parent, child position, or-gate); parent None stands for the root line
    candidates = [(None, 0, root)] if exclusive(root) else []
    # walk one satisfiable proof tree, noting which gates are reached from
    # the root through exclusive or-gates alone
    stack, seen, chosen = [(root, True)], set(), {}
    while stack:
        gate, through_exclusive = stack.pop()
        if (gate, through_exclusive) in seen:
            continue
        seen.add((gate, through_exclusive))
        kind, *children = gates[gate]
        if kind == "AND":
            for position, child in enumerate(children):
                if through_exclusive and exclusive(child):
                    candidates.append((gate, position, child))
                stack.append((child, through_exclusive))
        elif kind == "OR":
            if gate not in chosen:
                chosen[gate] = rng.choice([c for c in children if sat[c]])
            stack.append((chosen[gate],
                          through_exclusive and exclusive(gate)))
    if not candidates:
        return None
    parent, position, gate = rng.choice(sorted(
        set(candidates), key=lambda c: (c[0] is not None, int(c[0] or 0),
                                        c[1])))
    # the models the proof tree certifies through the dropped child, which
    # is satisfiable, satisfy neither the kept child nor any other branch
    first, second = gates[gate][1:]
    kept = rng.choice([c for c, other in ((first, second), (second, first))
                       if sat[other]])
    if parent is None:
        pieces[where["root"]] = "root %s" % kept
    else:
        kind, *children = gates[parent]
        children[position] = kept
        pieces[where[parent]] = "g %s %s %s" % (parent, kind,
                                                " ".join(children))
    return pieces


ALTER = {"obdd": _alter_obdd, "sdd": _alter_sdd, "dsdnnf": _alter_dsdnnf}


def alter_join(text, fmt, rng):
    """Alter one node of a join line's diagram, chosen by rng; rejected at
    the first line that claims that diagram, which is a join."""
    lines = text.splitlines()
    where, first_use = {}, {}
    for i, line in enumerate(lines):
        if line.startswith("d "):
            where[line.split(None, 2)[1]] = i
        elif line.startswith("L "):
            parts = line.split()
            first_use.setdefault(parts[-1], (int(parts[1]), parts[2]))
    dids = sorted((did for did, (_, rule) in first_use.items()
                   if rule == "join"), key=int)
    rng.shuffle(dids)
    for did in dids:
        _, _, sid, payload = lines[where[did]].split(None, 3)
        pieces = ALTER[fmt](payload.split(";"), rng)
        if pieces is not None:
            lines[where[did]] = "d %s %s %s" % (did, sid, ";".join(pieces))
            return "\n".join(lines) + "\n", first_use[did][0], JOIN_REASON
    raise ValueError("no join diagram can be altered")
