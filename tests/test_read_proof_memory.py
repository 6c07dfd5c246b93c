"""Peak memory of reading one proof file, pinned against a budget.

`kcp` tells a kcp proof from a resolution proof by the file's first line
that is not a comment.  Finding it must not keep a list of every line
alive while `parse_proof` splits the text again.  The `tracemalloc` peak
of this test, reading the refutation of eq(64, 3) (1.6 MB of text), was
6.64 MiB while that list was held, and is 5.02 MiB without it (Python
3.11.7).
"""

import tracemalloc

from kcproof import cli
from kcproof.proofs import proof_to_text
from kcproof.refute import obdd_refute_eq

PEAK_BUDGET_MB = 6.0


def test_reading_a_proof_file_splits_its_text_once(tmp_path):
    path = tmp_path / "eq.kcp"
    path.write_text(proof_to_text(obdd_refute_eq(64, 3)))
    tracemalloc.start()
    try:
        proof = cli._read_proof(str(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(proof.lines) == 1027
    assert peak / 2 ** 20 <= PEAK_BUDGET_MB
