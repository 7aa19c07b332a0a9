"""Finite group presentations and their 2-complexes.

Words in the free group are kept freely reduced at all times, each as one
read-only int32 array of letter codes: 2g for the generator a_g and 2g + 1
for its inverse, so the inverse of code x is x ^ 1.  Exponent sums are one
``bincount`` of those codes, products and powers reduce only where their
factors meet, and ``FreeWord.letters`` spells a word as (generator, +-1)
pairs on request.  From a presentation we build the mod-p boundary data of
its presentation complex (one vertex, a loop per generator, a disc per
relator): the generator-by-relator exponent-sum matrix, Betti numbers,
Euler characteristic, and the witness deficiency.  The module also
rewrites a presentation so that this boundary matrix becomes diagonal
(replaying a recorded Smith normal form as generator substitutions and
relator multiplications), and produces presentations of finite-index
kernels via Reidemeister-Schreier rewriting along a deterministic Schreier
transversal, one gather per relator over every coset.

Presentation text grammar::

    presentation := '<' gens '|' rels '>'
    gens := ident (',' ident)*
    rels := word (',' word)* | (nothing)
    word := term+        term := ident ('^' signed-int)?

Exponents other than +-1 expand to repeated letters, e.g.
``< a, b | a b a^-1 b^-1 >``; the letters of a whole presentation count
against the entry cap, checked before any term is expanded.  A valid text
takes the distinct-term path: relators split on commas, then on whitespace,
and each distinct term translated once.  The token loop (a stray-character
search, one ``findall`` of the tokens, one step per token) reads the texts
it declines, to word their errors or parse a term glued to the next (a^2b).
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Iterable, Sequence

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


def _free_reduce(codes: np.ndarray | list[int]) -> np.ndarray:
    """Free reduction of letter codes, one stack step per letter; an array with
    no adjacent inverse pair is kept, and a list (a short relator) is not checked."""
    if isinstance(codes, np.ndarray) and not (codes[1:] == codes[:-1] ^ 1).any():
        return codes
    out = [-2]  # a sentinel no code cancels
    for c in codes.tolist() if isinstance(codes, np.ndarray) else codes:
        if out[-1] == c ^ 1:
            out.pop()
        else:
            out.append(c)
    return np.array(out[1:], dtype=np.int32)


def _seam(u: np.ndarray, v: np.ndarray) -> int:
    """How many letters cancel where the reduced words u and v meet: the
    length of the longest tail of u that v's head inverts."""
    m = min(len(u), len(v))
    match = u[len(u) - m:][::-1] == v[:m] ^ 1
    return m if match.all() else int(match.argmin())


class FreeWord:
    """A freely reduced word in the free group on a_0, a_1, ...

    Stored as one read-only int32 array of letter codes, 2g for a_g and
    2g + 1 for its inverse, so the inverse of code x is x ^ 1.  ``letters``
    spells the same word as (generator index, +-1) pairs.  Words are
    immutable: products and powers reduce only where their factors meet.
    """

    __slots__ = ("_codes",)

    def __init__(self, letters: Iterable[tuple[int, int]] = ()):
        codes = []
        for g, s in letters:
            if not 0 <= g < 1 << 30 or s not in (1, -1):
                raise ValueError(f"bad letter ({g}, {s})")
            codes.append(2 * g + (s == -1))
        self._codes = _free_reduce(np.array(codes, dtype=np.int32))
        self._codes.setflags(write=False)

    @classmethod
    def _wrap(cls, codes: np.ndarray) -> "FreeWord":
        # internal: an int32 code array, freely reduced; it becomes read-only
        codes.setflags(write=False)
        w = object.__new__(cls)
        w._codes = codes
        return w

    @property
    def codes(self) -> np.ndarray:
        """The letter codes, read-only."""
        return self._codes

    @property
    def letters(self) -> tuple[tuple[int, int], ...]:
        """The word as (generator index, +-1) pairs, spelled from the codes."""
        return tuple(zip((self._codes >> 1).tolist(), (1 - 2 * (self._codes & 1)).tolist()))

    @classmethod
    def empty(cls) -> "FreeWord":
        return cls(())

    @classmethod
    def generator(cls, g: int, sign: int = 1) -> "FreeWord":
        return cls(((g, sign),))

    def __len__(self) -> int:
        return len(self._codes)

    def __iter__(self):
        return iter(self.letters)

    def __bool__(self) -> bool:
        return len(self._codes) > 0

    def __mul__(self, other: "FreeWord") -> "FreeWord":
        u, v = self._codes, other._codes
        k = _seam(u, v)
        return FreeWord._wrap(np.concatenate((u[:len(u) - k], v[k:])))

    def inverse(self) -> "FreeWord":
        return FreeWord._wrap(self._codes[::-1] ^ 1)

    def __pow__(self, q: int) -> "FreeWord":
        if q == 0:
            return FreeWord.empty()
        # w = u c u^-1 with c cyclically reduced, so w^q = u c^q u^-1, reduced as written
        w = self._codes if q > 0 else self._codes[::-1] ^ 1
        n = len(w)
        k = _seam(w[n - n // 2:], w[: n // 2])
        return FreeWord._wrap(np.concatenate((w[:k], np.tile(w[k:n - k], abs(q)), w[n - k:])))

    def max_generator(self) -> int:
        """Largest generator index used, or -1 for the empty word."""
        return int(self._codes.max()) >> 1 if len(self._codes) else -1

    def __eq__(self, other) -> bool:
        if not isinstance(other, FreeWord):
            return NotImplemented
        return np.array_equal(self._codes, other._codes)

    def __hash__(self) -> int:
        return hash(self.letters)

    def format(self, names: Sequence[str]) -> str:
        spellings = [text for name in names for text in (name, f"{name}^-1")]  # indexed by letter code
        return " ".join([spellings[c] for c in self._codes.tolist()]) if self else "1"

    def __repr__(self) -> str:
        return f"FreeWord({self.letters})"


def _substitute(codes: np.ndarray, table: Sequence[np.ndarray]) -> np.ndarray:
    """The images ``table[c]`` of the letters c of ``codes``, joined and not
    reduced: one gather from the concatenated table."""
    lengths = np.array([len(image) for image in table])
    sizes = lengths[codes]
    starts = np.cumsum(lengths) - lengths  # of each code's image in the joined table
    firsts = np.cumsum(sizes) - sizes  # of each letter's image in the output
    return np.concatenate(table)[np.repeat(starts[codes] - firsts, sizes) + np.arange(sizes.sum())]


_GATHER = 1 << 16  # entries per Reidemeister-Schreier gather, to bound its temporaries

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
_EXPONENT_RE = re.compile(r"[+-]?[0-9]{1,18}")  # of a term on the distinct-term path
_INT_START = frozenset("+-0123456789")
_EOF = "end of input"  # the last token; it is what an error says it found


def _syntax_error(text: str, k: int, message: str) -> PresentationSyntaxError:
    """The error at token k.  Its offset, and from it the line and column,
    are recomputed only here; the token after the last is the end of input."""
    match = next(itertools.islice(_TOKEN_RE.finditer(text), k, None), None)
    pos = len(text) if match is None else match.start(1)
    return PresentationSyntaxError(message, text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos))


def _parse_terms(text: str) -> Presentation | None:
    """The distinct-term path; None for a text it declines: a stray character,
    an unknown or repeated name, an empty relator, a term glued to the next
    (``a^2b``), a 19-digit exponent, or letters above the cap."""
    s = text.strip()
    head, bar, body = s[1:-1].partition("|")
    names = [name.strip() for name in head.split(",")]
    index = {name: g for g, name in enumerate(names)}
    rels = [r.split() for r in body.split(",")] if body.strip() else []  # a relator's terms
    if (s[:1] != "<" or s[-1:] != ">" or not bar or not all(rels) or len(index) < len(names)
            or not all(map(_IDENT_RE.fullmatch, names))):
        return None
    terms = {}  # distinct term -> (letter code, number of letters)
    for term in set(itertools.chain.from_iterable(rels)):
        name, caret, exponent = term.partition("^")
        g = index.get(name)
        if g is None or caret and not _EXPONENT_RE.fullmatch(exponent):
            first, *rest = body.split("^")  # '^' glued to its neighbours where whitespace meets it
            glued = "^".join([first.rstrip(), *(t.strip() for t in rest[:-1]), rest[-1].lstrip()]) if rest else body
            return None if glued == body else _parse_terms(f"<{head}|{glued}>")
        k = int(exponent) if caret else 1
        terms[term] = (2 * g + (k < 0), abs(k))
    if rels:  # the text is valid, so the loop would read the cap at its first term
        cap = entry_cap()
        if max(k for _, k in terms.values()) * sum(map(len, rels)) > cap and sum(
                terms[t][1] for t in itertools.chain.from_iterable(rels)) > cap:
            return None
    table = {term: (c,) * k for term, (c, k) in terms.items()}
    joined = (list(itertools.chain.from_iterable(map(table.__getitem__, r))) for r in rels)
    # below 128 letters one stack pass costs less than numpy's adjacency check
    relators = [_free_reduce(c if len(c) < 128 else np.array(c, dtype=np.int32)) for c in joined]
    return Presentation(tuple(names), tuple(map(FreeWord._wrap, relators)))


def parse_presentation(text: str) -> Presentation:
    """Parse the presentation grammar; raises PresentationSyntaxError with
    line/column on malformed input, as worded by the token loop."""
    return _parse_terms(text) or _parse_tokens(text)


def _parse_tokens(text: str) -> Presentation:
    """The token loop: the reference parse, and the one that words errors."""
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
    letter = {name: (2 * g, 2 * g + 1) for name, g in index.items()}  # (letter, inverse) codes
    relators: list[FreeWord] = []
    count = 0  # letters of the presentation so far, capped like a matrix
    cap = -1  # the first term reads the cap through check_entry_count
    while tokens[i] != ">" or relators:  # '>' may close an empty list, but not follow a ','
        out: list[int] = []  # the relator's codes so far, freely reduced
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
            while exponent and out and out[-1] == inverse:
                out.pop()
                exponent -= 1
            if exponent == 1:
                out.append(x)
            elif exponent:
                out += [x] * exponent
        if _IDENT_RE.fullmatch(tokens[i]):
            raise _syntax_error(text, i, f"unknown generator {tokens[i]!r}")
        if i == start:
            raise _syntax_error(text, i, "expected a word")
        relators.append(FreeWord._wrap(np.array(out, dtype=np.int32)))
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
    a, b = 2 * j, 2 * j + 1  # the codes of a_j and a_j^-1
    return tuple([(1, k) if c == a else (-1, k + 1) for k, c in enumerate(word.codes.tolist()) if c == a or c == b])


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
        counts = np.bincount(rel.codes, minlength=2 * n)  # of a_g at 2g, of its inverse at 2g + 1
        a[:, i] = counts[0::2] - counts[1::2]
    a %= p
    return FpMatrix._wrap(a, p)


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
    relators, n = list(pres.relators), pres.n_generators
    for op in snf.right_ops:
        if op.kind == "S":
            relators[op.i], relators[op.j] = relators[op.j], relators[op.i]
        else:  # r_i -> r_i r_j^q with 0 < q < p: the factors cancel only where they meet
            check_entry_count(len(relators[op.i]) + op.q * len(relators[op.j]), "presentation")
            relators[op.i] = relators[op.i] * relators[op.j] ** op.q
    for op in snf.left_ops:
        i, j, q = op.i, op.j, op.q
        if op.kind == "S":  # a permutation of letters: reduced words stay reduced
            perm = np.arange(2 * n, dtype=np.int32)
            perm[[2 * i, 2 * i + 1, 2 * j, 2 * j + 1]] = 2 * j, 2 * j + 1, 2 * i, 2 * i + 1
            relators = [FreeWord._wrap(perm[w.codes]) for w in relators]
        else:  # a_i -> a_i a_j^q, so a_i^-1 -> a_j^-q a_i^-1
            for w in relators:  # each a_i^+-1 becomes 1 + q letters
                check_entry_count(len(w) + q * int(np.count_nonzero(w.codes >> 1 == i)), "presentation")
            table = [np.array([c], dtype=np.int32) for c in range(2 * n)]  # letter code -> image codes
            table[2 * i] = np.array([2 * i] + [2 * j] * q, dtype=np.int32)
            table[2 * i + 1] = table[2 * i][::-1] ^ 1
            relators = [FreeWord._wrap(_free_reduce(_substitute(w.codes, table))) for w in relators]
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
    rewritten copy per coset (relator-major order).  Every copy of a
    relator comes from one gather over the cosets, in chunks of at most
    ``_GATHER`` entries; the index times the relators' letters, which the
    gathers read, is checked against the entry cap first.
    """
    if hom.source is not pres and hom.source.to_text() != pres.to_text():
        raise ValueError("homomorphism was built from a different presentation")
    k = hom.image_order
    check_entry_count(k * sum(len(w) for w in pres.relators), "Reidemeister-Schreier rewrite")
    K = np.array(hom.cosets)
    gen_id = np.full((k, pres.n_generators), -1)  # [coset, generator] -> kernel generator, -1 on the tree
    c, j = np.array(hom.schreier_generators, dtype=np.int64).reshape(-1, 2).T
    gen_id[c, j] = np.arange(len(c))
    names = tuple(f"{pres.generator_names[j]}_{c}" for c, j in hom.schreier_generators)
    relators = []
    for rel in pres.relators:
        # letter t = a_g^+-1, read from coset x, crosses the edge a_g at x P, where P is
        # the image of its prefix, or of the prefix ending with it for an inverse
        neg = rel.codes & 1
        crossed = np.array(hom.prefix_images(rel))[np.arange(len(rel)) + neg]
        rows = max(1, _GATHER // max(len(rel), 1))  # cosets per gather
        for first in range(0, k, rows):
            ids = gen_id[hom.position[hom.group.op(K[first:first + rows, None], crossed)], rel.codes >> 1]
            kept = ids >= 0
            # already reduced: between two kept letters lie only tree letters, and a
            # reduced closed path in a tree is empty, so two kept letters that cancel
            # would be adjacent, and cancelling, in the reduced input word
            words = np.split((2 * ids + neg)[kept].astype(np.int32), np.cumsum(kept.sum(axis=1))[:-1])
            relators += map(FreeWord._wrap, words)
    return Presentation(names, tuple(relators))
