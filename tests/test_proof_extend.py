"""Extending a parsed proof reads its diagram table once.

parse_proof builds no (structure, payload) -> id table, so the first
Proof.add_diagram on a parsed proof builds it from every diagram.  A file
may hold two ids for one diagram, and the table then has fewer entries
than the proof has diagrams; later calls must still reuse the table.
"""

from kcproof.proofs import parse_proof

TEXT = "\n".join((
    "p kcp obdd join",
    "s 1 order x1",
    "d 1 1 n 1 x1 F T;root 1",
    "d 2 1 n 1 x1 F T;root 1",
    "L 1 init 0 1",
)) + "\n"


class CountingItems(dict):
    """A dict that counts the calls of items(), which a table build makes."""

    def __init__(self, *args):
        super().__init__(*args)
        self.reads = 0

    def items(self):
        self.reads += 1
        return super().items()


def test_a_table_with_equal_diagrams_is_built_once():
    proof = parse_proof(TEXT)
    proof.diagrams = CountingItems(proof.diagrams)
    added = [proof.add_diagram(1, "root %d" % k) for k in range(200)]
    assert added == list(range(3, 203))
    assert proof.diagrams.reads == 1
    # the last of equal diagrams keeps its id, and new ones keep theirs
    assert proof.add_diagram(1, "n 1 x1 F T;root 1") == 2
    assert proof.add_diagram(1, "root 7") == 10
    assert proof.diagrams.reads == 1
