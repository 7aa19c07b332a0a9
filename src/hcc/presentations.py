"""Finite group presentations and their 2-complexes.

Words in the free group are kept freely reduced at all times.  From a
presentation we build the mod-p boundary data of its presentation
complex (one vertex, a loop per generator, a disc per relator): the
generator-by-relator exponent-sum matrix, Betti numbers, Euler
characteristic, and the witness deficiency.  The module also rewrites a
presentation so that this boundary matrix becomes diagonal (replaying a
recorded Smith normal form as generator substitutions and relator
multiplications), and produces presentations of finite-index kernels via
Reidemeister-Schreier rewriting along a deterministic Schreier
transversal.

Presentation text grammar::

    presentation := '<' gens '|' rels '>'
    gens := ident (',' ident)*
    rels := word (',' word)* | (nothing)
    word := term+        term := ident ('^' signed-int)?

Exponents other than +-1 expand to repeated letters, e.g.
``< a, b | a b a^-1 b^-1 >``; the letters of a whole presentation count
against the entry cap, checked before each term is expanded.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from . import fpexact
from .fpexact import FpMatrix, check_entry_count, check_prime

__all__ = [
    "ComplexSummary",
    "FreeWord",
    "Presentation",
    "PresentationSyntaxError",
    "complex_summary",
    "exponent_sum_matrix",
    "fox_derivative",
    "normalize_presentation",
    "parse_presentation",
    "reidemeister_schreier",
]


class PresentationSyntaxError(ValueError):
    """Parse failure, carrying 1-based line and column."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


def _free_reduce(letters: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    out: list[tuple[int, int]] = []
    for g, s in letters:
        if out and out[-1][0] == g and out[-1][1] == -s:
            out.pop()
        else:
            out.append((g, s))
    return tuple(out)


class FreeWord:
    """A freely reduced word: a sequence of (generator index, +-1) letters."""

    __slots__ = ("letters",)

    def __init__(self, letters: Iterable[tuple[int, int]] = ()):
        reduced = _free_reduce(letters)
        for g, s in reduced:
            if g < 0 or s not in (1, -1):
                raise ValueError(f"bad letter ({g}, {s})")
        object.__setattr__(self, "letters", reduced)

    def __setattr__(self, name, value):
        raise AttributeError("FreeWord is immutable")

    @classmethod
    def _wrap(cls, letters: tuple[tuple[int, int], ...]) -> "FreeWord":
        # internal: letters already freely reduced and validated
        w = object.__new__(cls)
        object.__setattr__(w, "letters", letters)
        return w

    @classmethod
    def empty(cls) -> "FreeWord":
        return cls(())

    @classmethod
    def generator(cls, g: int, sign: int = 1) -> "FreeWord":
        return cls(((g, sign),))

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __bool__(self) -> bool:
        return bool(self.letters)

    def __mul__(self, other: "FreeWord") -> "FreeWord":
        return FreeWord(self.letters + other.letters)

    def inverse(self) -> "FreeWord":
        return FreeWord(tuple((g, -s) for g, s in reversed(self.letters)))

    def __pow__(self, n: int) -> "FreeWord":
        base = self if n >= 0 else self.inverse()
        return FreeWord(base.letters * abs(n))

    def exponent_sum(self, g: int) -> int:
        return sum(s for gg, s in self.letters if gg == g)

    def max_generator(self) -> int:
        """Largest generator index used, or -1 for the empty word."""
        return max((g for g, _ in self.letters), default=-1)

    def map_letters(self, image: Callable[[int, int], Iterable[tuple[int, int]]]) -> "FreeWord":
        """Substitute each letter by a word; the result is reduced."""
        out: list[tuple[int, int]] = []
        for g, s in self.letters:
            out.extend(image(g, s))
        return FreeWord(out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FreeWord):
            return NotImplemented
        return self.letters == other.letters

    def __hash__(self) -> int:
        return hash(self.letters)

    def format(self, names: Sequence[str]) -> str:
        if not self.letters:
            return "1"
        return " ".join(n if s == 1 else f"{n}^-1" for n, s in ((names[g], s) for g, s in self.letters))

    def __repr__(self) -> str:
        return f"FreeWord({self.letters})"


_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


@dataclass(frozen=True)
class Presentation:
    """Generators plus relator words in the free group on those generators."""

    generator_names: tuple[str, ...]
    relators: tuple[FreeWord, ...]

    def __post_init__(self):
        seen = set()
        for name in self.generator_names:
            if not _IDENT_RE.fullmatch(name):
                raise ValueError(f"bad generator name {name!r}")
            if name in seen:
                raise ValueError(f"duplicate generator name {name!r}")
            seen.add(name)
        n = len(self.generator_names)
        for w in self.relators:
            if w.max_generator() >= n:
                raise ValueError("relator uses an unknown generator index")

    @property
    def n_generators(self) -> int:
        return len(self.generator_names)

    @property
    def n_relators(self) -> int:
        return len(self.relators)

    @property
    def deficiency(self) -> int:
        return self.n_generators - self.n_relators

    def to_text(self) -> str:
        # display form; a relator that reduced to the empty word prints as
        # the conventional "1", which the grammar does not re-parse
        gens = ", ".join(self.generator_names)
        rels = ", ".join(w.format(self.generator_names) for w in self.relators)
        return f"< {gens} | {rels} >" if rels else f"< {gens} | >"

    def __repr__(self) -> str:
        return f"Presentation({self.to_text()})"


_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)|(?P<int>[+-]?[0-9]+)|(?P<sym>[<>|,^])|(?P<bad>.)"
)


def _syntax_error(text: str, token: tuple[str, str, int], message: str) -> PresentationSyntaxError:
    pos = token[2]  # line and column are worked out from the offset only for an error
    return PresentationSyntaxError(message, text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos))


def parse_presentation(text: str) -> Presentation:
    """Parse the presentation grammar; raises PresentationSyntaxError with
    line/column on malformed input."""
    tokens = [(m.lastgroup, m.group(), m.start()) for m in _TOKEN_RE.finditer(text) if m.lastgroup != "ws"]
    for tok in tokens:  # a stray character is reported before any grammar error
        if tok[0] == "bad":
            raise _syntax_error(text, tok, f"unexpected character {tok[1]!r}")
    tokens.append(("eof", "end of input", len(text)))  # its value is what an error says it found
    if tokens[0][1] != "<":
        raise _syntax_error(text, tokens[0], f"expected '<', found {tokens[0][1]!r}")
    index: dict[str, int] = {}  # generator name -> index
    duplicate = None  # the first repeated name, reported after the whole list
    i = 1
    while True:
        tok = tokens[i]
        if tok[0] != "ident":
            raise _syntax_error(text, tok, f"expected 'ident', found {tok[1]!r}")
        if duplicate is None and tok[1] in index:
            duplicate = tok[1]
        index.setdefault(tok[1], len(index))
        if tokens[i + 1][1] != ",":
            break
        i += 2
    tok = tokens[i + 1]
    if duplicate is not None:
        raise _syntax_error(text, tok, f"duplicate generator {duplicate!r}")
    if tok[1] != "|":
        raise _syntax_error(text, tok, f"expected '|', found {tok[1]!r}")
    i += 2
    relators: list[FreeWord] = []
    count = 0  # letters of the presentation so far, capped like a matrix
    while tokens[i][1] != ">" or relators:  # '>' may close an empty list, but not follow a ','
        letters: list[tuple[int, int]] = []
        start = i
        while tokens[i][0] == "ident":
            tok = tokens[i]
            if tok[1] not in index:
                raise _syntax_error(text, tok, f"unknown generator {tok[1]!r}")
            exponent = 1
            if tokens[i + 1][1] == "^":
                i += 2
                if tokens[i][0] != "int":
                    raise _syntax_error(text, tokens[i], f"expected 'int', found {tokens[i][1]!r}")
                magnitude = tokens[i][1].lstrip("+-").lstrip("0")
                if len(magnitude) > 4300:  # int() refuses text this long; |a^k| >= 10^4300 letters
                    check_entry_count(10**4300, "presentation")
                exponent = int(magnitude or "0") * (-1 if tokens[i][1][0] == "-" else 1)
            i += 1
            count += abs(exponent)
            check_entry_count(count, "presentation")  # before a^k is expanded
            letters.extend(((index[tok[1]], 1 if exponent >= 0 else -1),) * abs(exponent))
        if i == start:
            raise _syntax_error(text, tokens[i], "expected a word")
        relators.append(FreeWord(letters))
        if tokens[i][1] != ",":
            break
        i += 1
    if tokens[i][1] != ">":
        raise _syntax_error(text, tokens[i], f"expected '>', found {tokens[i][1]!r}")
    if tokens[i + 1][0] != "eof":
        raise _syntax_error(text, tokens[i + 1], f"expected 'eof', found {tokens[i + 1][1]!r}")
    return Presentation(tuple(index), tuple(relators))


def fox_derivative(word: FreeWord, j: int) -> tuple[tuple[int, FreeWord], ...]:
    """Free derivative with respect to generator j, as (sign, prefix) terms.

    Satisfies d(uv) = du + u dv with d(a_j) = 1 and d(a_j^-1) = -a_j^-1:
    a positive occurrence of a_j contributes + (prefix before it); a
    negative occurrence contributes - (prefix including it).
    """
    letters = word.letters
    # every prefix of a reduced word is reduced, so prefixes are plain slices
    return tuple(
        (s, FreeWord._wrap(letters[: k if s == 1 else k + 1]))
        for k, (g, s) in enumerate(letters)
        if g == j
    )


@dataclass(frozen=True)
class ComplexSummary:
    """Mod-p homology data of the presentation complex.

    ``boundary`` is the n x m matrix whose (j, i) entry is the exponent
    sum of generator j in relator i, reduced mod p.  With one vertex the
    degree-1 boundary map vanishes, so b1 = n - rank and b2 = m - rank.
    """

    p: int
    boundary: FpMatrix
    b0: int
    b1: int
    b2: int
    euler: int
    rank: int

    @property
    def n_generators(self) -> int:
        return self.boundary.rows

    @property
    def n_relators(self) -> int:
        return self.boundary.cols

    @property
    def hrk(self) -> int:
        return self.b0 + self.b1 + self.b2


def exponent_sum_matrix(pres: Presentation, p: int) -> FpMatrix:
    """The n x m matrix whose (j, i) entry is the exponent sum of
    generator j in relator i, reduced mod p."""
    check_prime(p)
    n, m = pres.n_generators, pres.n_relators
    check_entry_count(n * m, "matrix")  # before allocating: a refused matrix costs no memory
    a = np.zeros((n, m), dtype=np.int64)
    for i, rel in enumerate(pres.relators):
        for (g, s), k in Counter(rel.letters).items():
            a[g, i] += s * k
    return FpMatrix(n, m, a.ravel(), p)


def complex_summary(pres: Presentation, p: int) -> ComplexSummary:
    n, m = pres.n_generators, pres.n_relators
    boundary = exponent_sum_matrix(pres, p)
    r = fpexact.rank(boundary)
    b1 = n - r
    b2 = m - r
    return ComplexSummary(p=p, boundary=boundary, b0=1, b1=b1, b2=b2, euler=1 - n + m, rank=r)


def normalize_presentation(pres: Presentation, p: int) -> Presentation:
    """Rewrite the presentation so its boundary matrix is diagonal.

    The recorded Smith normal form of the boundary matrix is replayed on
    the presentation itself: column operations act on relators (multiply
    one relator by a power of another, or swap two relators), row
    operations as generator substitutions (a_i -> a_i a_j^q, or swap two
    generators in every relator).  Both preserve the normal closure, so
    the group is unchanged, and generator and relator counts are kept.
    """
    summary = complex_summary(pres, p)
    snf = fpexact.smith_normal_form(summary.boundary)
    relators = list(pres.relators)
    for op in snf.right_ops:
        if op.kind == "S":
            relators[op.i], relators[op.j] = relators[op.j], relators[op.i]
        else:
            relators[op.i] = relators[op.i] * relators[op.j] ** op.q
    for op in snf.left_ops:
        if op.kind == "S":
            i, j = op.i, op.j

            def swap(g: int, s: int, i=i, j=j):
                if g == i:
                    return ((j, s),)
                if g == j:
                    return ((i, s),)
                return ((g, s),)

            relators = [w.map_letters(swap) for w in relators]
        else:
            i, j, q = op.i, op.j, op.q
            positive = ((i, 1),) + ((j, 1),) * q
            negative = tuple(reversed([(g, -s) for g, s in positive]))

            def subst(g: int, s: int, i=i, positive=positive, negative=negative):
                if g != i:
                    return ((g, s),)
                return positive if s == 1 else negative

            relators = [w.map_letters(subst) for w in relators]
    result = Presentation(pres.generator_names, tuple(relators))
    expected = fpexact.block_diagonal(snf.diagonal, summary.boundary.rows, summary.boundary.cols, p)
    if complex_summary(result, p).boundary != expected:
        raise RuntimeError("normalization replay does not match the recorded normal form")
    return result


def reidemeister_schreier(pres: Presentation, hom) -> Presentation:
    """Presentation of the kernel of ``hom`` by Schreier rewriting.

    Cosets are the elements of the image of ``hom``, numbered in the
    order a breadth-first search over letters (all positive letters in
    generator order, then the inverses) reaches them; the search tree is
    a Schreier transversal.  The Schreier generator of a (coset c,
    generator j) pair is freely trivial exactly when its letter is a tree
    edge, so the kernel generators are the pairs off the tree, named
    ``<generator>_<coset>``; each relator contributes one rewritten copy
    per coset (relator-major order).
    """
    if hom.source is not pres and hom.source.to_text() != pres.to_text():
        raise ValueError("homomorphism was built from a different presentation")
    n = pres.n_generators
    act = hom.letter_action
    elements = [hom.group.identity_index]
    coset_of = {elements[0]: 0}
    tree = set()  # (c, j): the letter a_j leaving coset c is a tree edge
    for c, x in enumerate(elements):  # grows while it is walked: breadth first
        for s in (1, -1):
            for j in range(n):
                target = act[s][j][x]
                if target not in coset_of:
                    coset_of[target] = len(elements)
                    tree.add((c, j) if s == 1 else (len(elements), j))
                    elements.append(target)
    up = [[coset_of[act[1][j][x]] for j in range(n)] for x in elements]
    down = [[coset_of[act[-1][j][x]] for j in range(n)] for x in elements]
    gen_id: list[list[int | None]] = [[None] * n for _ in elements]
    names: list[str] = []
    for c in range(len(elements)):
        for j in range(n):
            if (c, j) not in tree:
                gen_id[c][j] = len(names)
                names.append(f"{pres.generator_names[j]}_{c}")

    def rewrite(word: FreeWord, c: int) -> FreeWord:
        out: list[tuple[int, int]] = []
        for j, s in word.letters:
            if s == -1:
                c = down[c][j]
            k = gen_id[c][j]
            if k is not None:
                out.append((k, s))
            if s == 1:
                c = up[c][j]
        return FreeWord(out)

    relators = tuple(rewrite(rel, c) for rel in pres.relators for c in range(len(elements)))
    return Presentation(tuple(names), relators)
