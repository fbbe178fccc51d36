"""Word constructors and the word length, written from the labels' definition.

The library never builds a word by hand: the tree reaches every word through
`fuse_generator`.  These helpers spell a single letter directly, so that the
tests can name the words they expect, and `irrep_length` counts generator
steps letter by letter, the oracle that `CayleyTree.length` is checked
against.
"""

from qcayley.fusion import TRIVIAL, Irrep


def ao_irrep(k: int, factor: int = 0) -> Irrep:
    """Single-letter word: the k-th irreducible of an Ao factor."""
    if k == 0:
        return TRIVIAL
    if k < 0:
        raise ValueError("k must be >= 0")
    return Irrep(((factor, k),))


def au_word(symbols: str, factor: int = 0) -> Irrep:
    """Single-letter Au word from a string over 'u' (generator) / 'U' (conjugate)."""
    if not symbols:
        return TRIVIAL
    payload = []
    for ch in symbols:
        if ch == "u":
            payload.append(1)
        elif ch == "U":
            payload.append(-1)
        else:
            raise ValueError(f"symbols must be 'u'/'U', got {ch!r}")
    return Irrep(((factor, tuple(payload)),))


def irrep_length(alpha: Irrep) -> int:
    """Generator steps from the root: sum of k (Ao) resp. word length (Au)."""
    total = 0
    for _, payload in alpha.word:
        total += payload if isinstance(payload, int) else len(payload)
    return total
