"""The Fraction word-tree walk that the integer walk of ``ifslab.words`` replaced, kept as the oracle.

``iter_word_tree`` here builds every word's exact ``Matrix2`` as its
parent's matrix times one generator, depth first, words of each length in
plain order.  ``ifslab.words.iter_word_tree`` must yield the same words in
the same order, with ``s^length`` times these matrices as integer 4-tuples.
"""

from typing import Iterator, Sequence

from ifslab import Matrix2


def iter_word_tree(generators: Sequence[Matrix2], n: int) -> Iterator[tuple[int, str, Matrix2]]:
    """(length, word, matrix) for every word of length 0..n, depth first, one Fraction product per nonempty word."""
    children = [(str(i + 1), g) for i, g in enumerate(generators)][::-1]
    stack = [(0, "", Matrix2.identity())]
    while stack:
        length, word, matrix = stack.pop()
        yield length, word, matrix
        if length < n:
            stack.extend((length + 1, word + ch, matrix @ g) for ch, g in children)


def iter_compositions(generators: Sequence[Matrix2], n: int) -> Iterator[tuple[str, Matrix2]]:
    """(word, matrix) for every length-n word: the leaves of :func:`iter_word_tree`."""
    return ((word, matrix) for length, word, matrix in iter_word_tree(generators, n) if length == n)
