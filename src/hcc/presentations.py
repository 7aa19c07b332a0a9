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

import itertools
import re
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import fpexact
from .fpexact import FpMatrix, check_entry_count, check_prime, entry_cap

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
    """A freely reduced word: a sequence of (generator index, +-1) letters.

    Words are immutable: ``letters`` is read-only and its slot is private.
    """

    __slots__ = ("_letters",)

    def __init__(self, letters: Iterable[tuple[int, int]] = ()):
        reduced = _free_reduce(letters)
        for g, s in set(reduced):  # each distinct letter once
            if g < 0 or s not in (1, -1):
                raise ValueError(f"bad letter ({g}, {s})")
        self._letters = reduced

    @classmethod
    def _wrap(cls, letters: tuple[tuple[int, int], ...]) -> "FreeWord":
        # internal: letters already freely reduced and validated
        w = object.__new__(cls)
        w._letters = letters
        return w

    @property
    def letters(self) -> tuple[tuple[int, int], ...]:
        return self._letters

    @classmethod
    def empty(cls) -> "FreeWord":
        return cls(())

    @classmethod
    def generator(cls, g: int, sign: int = 1) -> "FreeWord":
        return cls(((g, sign),))

    def __len__(self) -> int:
        return len(self._letters)

    def __iter__(self):
        return iter(self.letters)

    def __bool__(self) -> bool:
        return bool(self._letters)

    def __mul__(self, other: "FreeWord") -> "FreeWord":
        return FreeWord(self.letters + other.letters)

    def inverse(self) -> "FreeWord":
        return FreeWord._wrap(tuple((g, -s) for g, s in reversed(self.letters)))

    def __pow__(self, n: int) -> "FreeWord":
        base = self if n >= 0 else self.inverse()
        return FreeWord(base.letters * abs(n))

    def max_generator(self) -> int:
        """Largest generator index used, or -1 for the empty word."""
        return max(set(self.letters), default=(-1, 0))[0]

    def map_letters(self, image: Mapping[tuple[int, int], tuple[tuple[int, int], ...]]) -> "FreeWord":
        """Substitute each letter by its image's letters: one join, then one reduction."""
        return FreeWord(itertools.chain.from_iterable(map(image.__getitem__, self.letters)))

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


# One token per match, with the whitespace before it skipped; a text with no
# stray character (see _STRAY_RE) is covered by these tokens exactly.
_TOKEN_RE = re.compile(r"\s*([A-Za-z_][A-Za-z_0-9]*|[+-]?[0-9]+|[<>|,^])")
_STRAY_RE = re.compile(r"[^\sA-Za-z_0-9<>|,^+-]|[+-](?![0-9])")
_INT_START = frozenset("+-0123456789")
_EOF = "end of input"  # the last token; it is what an error says it found


def _syntax_error(text: str, k: int, message: str) -> PresentationSyntaxError:
    """The error at token k.  Its offset, and from it the line and column,
    are recomputed only here; the token after the last is the end of input."""
    match = next(itertools.islice(_TOKEN_RE.finditer(text), k, None), None)
    pos = len(text) if match is None else match.start(1)
    return PresentationSyntaxError(message, text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos))


def parse_presentation(text: str) -> Presentation:
    """Parse the presentation grammar; raises PresentationSyntaxError with
    line/column on malformed input."""
    stray = _STRAY_RE.search(text)
    if stray:  # a stray character is reported before any grammar error
        pos = stray.start()
        line, col = text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)
        raise PresentationSyntaxError(f"unexpected character {stray.group()!r}", line, col)
    tokens = _TOKEN_RE.findall(text.rstrip())  # rstrip: no trailing whitespace to rescan
    tokens.append(_EOF)
    if tokens[0] != "<":
        raise _syntax_error(text, 0, f"expected '<', found {tokens[0]!r}")
    index: dict[str, int] = {}  # generator name -> index
    duplicate = None  # the first repeated name, reported after the whole list
    i = 1
    while True:
        tok = tokens[i]
        if not _IDENT_RE.fullmatch(tok):
            raise _syntax_error(text, i, f"expected 'ident', found {tok!r}")
        if duplicate is None and tok in index:
            duplicate = tok
        index.setdefault(tok, len(index))
        if tokens[i + 1] != ",":
            break
        i += 2
    i += 1
    if duplicate is not None:
        raise _syntax_error(text, i, f"duplicate generator {duplicate!r}")
    if tokens[i] != "|":
        raise _syntax_error(text, i, f"expected '|', found {tokens[i]!r}")
    i += 1
    # one (letter, inverse) pair of tuples per name: letters compare by identity
    letter = {name: ((g, 1), (g, -1)) for name, g in index.items()}
    relators: list[FreeWord] = []
    count = 0  # letters of the presentation so far, capped like a matrix
    cap = -1  # the first term reads the cap through check_entry_count
    while tokens[i] != ">" or relators:  # '>' may close an empty list, but not follow a ','
        out: list[tuple[int, int]] = []  # the relator so far, freely reduced
        start = i
        while True:
            pair = letter.get(tokens[i])
            if pair is None:
                break
            i += 1
            exponent = 1
            if tokens[i] == "^":
                tok = tokens[i + 1]
                if tok[0] not in _INT_START:
                    raise _syntax_error(text, i + 1, f"expected 'int', found {tok!r}")
                magnitude = tok.lstrip("+-").lstrip("0")
                if len(magnitude) > 4300:  # int() refuses text this long; |a^k| >= 10^4300 letters
                    check_entry_count(10**4300, "presentation")
                exponent = int(magnitude or "0")
                if tok[0] == "-":
                    pair = pair[::-1]
                i += 2
            count += exponent
            if count > cap:  # before a^k is expanded
                check_entry_count(count, "presentation")
                cap = entry_cap()
            x, inverse = pair
            while exponent and out and out[-1] is inverse:
                out.pop()
                exponent -= 1
            if exponent == 1:
                out.append(x)
            elif exponent:
                out += (x,) * exponent
        if _IDENT_RE.fullmatch(tokens[i]):
            raise _syntax_error(text, i, f"unknown generator {tokens[i]!r}")
        if i == start:
            raise _syntax_error(text, i, "expected a word")
        relators.append(FreeWord._wrap(tuple(out)))
        if tokens[i] != ",":
            break
        i += 1
    if tokens[i] != ">":
        raise _syntax_error(text, i, f"expected '>', found {tokens[i]!r}")
    if i + 2 != len(tokens):
        raise _syntax_error(text, i + 1, f"expected 'eof', found {tokens[i + 1]!r}")
    return Presentation(tuple(index), tuple(relators))


def fox_derivative(word: FreeWord, j: int) -> tuple[tuple[int, int], ...]:
    """Free derivative with respect to generator j, as (sign, k) terms, each
    sign times the prefix of ``word`` of length k, in increasing k.

    Satisfies d(uv) = du + u dv with d(a_j) = 1 and d(a_j^-1) = -a_j^-1:
    a positive occurrence of a_j contributes + (prefix before it); a
    negative occurrence contributes - (prefix including it).
    """
    return tuple((s, k if s == 1 else k + 1) for k, (g, s) in enumerate(word.letters) if g == j)


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
    boundary = exponent_sum_matrix(pres, p)
    snf = fpexact.smith_normal_form(boundary)
    relators = list(pres.relators)
    for op in snf.right_ops:
        if op.kind == "S":
            relators[op.i], relators[op.j] = relators[op.j], relators[op.i]
        else:  # r_i -> r_i r_j^q with 0 < q < p: one join, one reduction
            check_entry_count(len(relators[op.i]) + op.q * len(relators[op.j]), "presentation")
            relators[op.i] = FreeWord(relators[op.i].letters + relators[op.j].letters * op.q)
    image = {(g, s): ((g, s),) for g in range(pres.n_generators) for s in (1, -1)}
    for op in snf.left_ops:
        i, j = op.i, op.j
        if op.kind == "S":  # a permutation of letters: reduced words stay reduced
            image[i, 1], image[i, -1], image[j, 1], image[j, -1] = ((j, 1),), ((j, -1),), ((i, 1),), ((i, -1),)
            relators = [FreeWord._wrap(tuple(itertools.chain.from_iterable(map(image.__getitem__, w.letters))))
                        for w in relators]
        else:  # a_i -> a_i a_j^q
            positive = ((i, 1),) + ((j, 1),) * op.q
            image[i, 1], image[i, -1] = positive, tuple((g, -s) for g, s in reversed(positive))
            for w in relators:  # each a_i^+-1 becomes 1 + q letters
                occurrences = w.letters.count((i, 1)) + w.letters.count((i, -1))
                check_entry_count(len(w) + op.q * occurrences, "presentation")
            relators = [w.map_letters(image) for w in relators]
        for letter in ((i, 1), (i, -1), (j, 1), (j, -1)):  # back to the identity
            image[letter] = (letter,)
    result = Presentation(pres.generator_names, tuple(relators))
    expected = fpexact.block_diagonal(snf.diagonal, boundary.rows, boundary.cols, p)
    if exponent_sum_matrix(result, p) != expected:
        raise RuntimeError("normalization replay does not match the recorded normal form")
    return result


def reidemeister_schreier(pres: Presentation, hom) -> Presentation:
    """Presentation of the kernel of ``hom`` by Schreier rewriting.

    Cosets are the elements of the image of ``hom``, numbered in the
    order ``hom.cosets`` lists them; its search tree is a Schreier
    transversal.  The Schreier generator of a (coset c, generator j) pair
    is freely trivial exactly when its letter is a tree edge, so the
    kernel generators are ``hom.schreier_generators``, the pairs off the
    tree, named ``<generator>_<coset>``; each relator contributes one
    rewritten copy per coset (relator-major order).
    """
    if hom.source is not pres and hom.source.to_text() != pres.to_text():
        raise ValueError("homomorphism was built from a different presentation")
    n = pres.n_generators
    act = hom.letter_action
    position = hom.position.tolist()
    up = [[position[act[1][j][x]] for j in range(n)] for x in hom.cosets]
    down = [[position[act[-1][j][x]] for j in range(n)] for x in hom.cosets]
    gen_id: list[list[int | None]] = [[None] * n for _ in hom.cosets]
    for k, (c, j) in enumerate(hom.schreier_generators):
        gen_id[c][j] = k
    names = tuple(f"{pres.generator_names[j]}_{c}" for c, j in hom.schreier_generators)

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
        # already reduced: between two kept letters lie only tree letters, and a
        # reduced closed path in a tree is empty, so two kept letters that cancel
        # would be adjacent, and cancelling, in the reduced input word
        return FreeWord._wrap(tuple(out))

    relators = tuple(rewrite(rel, c) for rel in pres.relators for c in range(len(hom.cosets)))
    return Presentation(names, relators)
