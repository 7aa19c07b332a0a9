"""Chain complexes of finite regular covers of presentation complexes.

A homomorphism from a presentation's free group onto (a subgroup of) a
finite ordered group H determines a regular cover of the presentation
complex whose cells are indexed by H.  Both boundary maps are matrices
over the group ring F_p[H]; ``equivariant_block`` expands a (rows, cols,
|H|) array of group-ring entries into the |H|rows x |H|cols matrix whose
row (i, g) is delta_g times entry (i, j) in column block j.  d2 expands
the (relator, generator, element) array of images of Fox derivatives, d1
the column delta_{phi(a_j)} - delta_e.  The homomorphism walks its image
K once, and the walk's tree is a Schreier transversal; b0 = [H : K].  d2
and d1 are block-diagonal over the cosets gK, every block a copy of the
one over K: ``build_cover`` gathers d1's block, and d2's block columns off
the tree, from the seeds through K's left division, certifies d2 @ d1 = 0
on the seed rows, and takes rank(d2) = [H : K] times the rank of those
columns, as the block's rows are 1-cycles; transposed, they are the
exponent-sum matrix of the Reidemeister-Schreier kernel.  A cover keeps
the seed arrays; its full d2 and d1 are expanded on first read, for the
oracles rank(d1) = |H| - b0 and rank(d2) = |H| m - b2.

Homomorphism text format, one line per generator::

    name -> (c1,...,cr)     # coordinates, elementary abelian targets
    name -> k               # element index, any table-defined group
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import fpexact
from .errors import FalsificationError
from .fpexact import FpMatrix, check_entry_count, check_prime
from .groupring import OrderedGroup
from .presentations import ComplexSummary, FreeWord, Presentation, complex_summary, fox_derivative

__all__ = [
    "CoverComplex",
    "HcVerdict",
    "Homomorphism",
    "IncompatibleHomomorphismError",
    "build_cover",
    "check_balance_pattern",
    "equivariant_block",
    "hc_verdict",
    "parse_homomorphism",
]


class IncompatibleHomomorphismError(ValueError):
    """Some relator does not map to the identity of the target group."""

    def __init__(self, relator_index: int, image_index: int, image_name: str):
        super().__init__(
            f"relator {relator_index} maps to element {image_name!r} "
            f"(index {image_index}), not the identity"
        )
        self.relator_index = relator_index
        self.image_index = image_index


class Homomorphism:
    """Generator images defining a map from the presented group to a finite group.

    Compatibility (every relator maps to the identity) is enforced at
    construction.  ``columns[c]`` is the list of the products x h over
    every element x, from one ``group.op`` call, for h the image of the
    letter of code c (2j for a_j, 2j + 1 for its inverse), so every word
    walk steps one letter by one list lookup.
    One breadth-first search, positive letters first, walks the image and is
    its Schreier transversal: ``cosets`` in the order reached, ``position``
    each element's index in ``cosets`` (-1 off the image; read-only), and
    ``schreier_generators`` the (coset, j) pairs off its tree, coset-major.
    """

    __slots__ = ("source", "group", "images", "columns", "cosets", "position", "schreier_generators")

    def __init__(self, source: Presentation, group: OrderedGroup, images: Sequence[int]):
        images = tuple(int(x) for x in images)
        if len(images) != source.n_generators:
            raise ValueError(f"need {source.n_generators} images, got {len(images)}")
        for x in images:
            if not 0 <= x < group.size:
                raise ValueError(f"image index {x} out of range for group of order {group.size}")
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "images", images)
        inverses, idx = [group.inverse(h) for h in images], np.arange(group.size)
        column = {h: group.op(idx, h).tolist() for h in {*images, *inverses}}  # one list per element
        object.__setattr__(self, "columns", tuple(column[h] for pair in zip(images, inverses) for h in pair))
        for i, rel in enumerate(source.relators):
            img = self.word_image(rel)
            if img != group.identity_index:
                raise IncompatibleHomomorphismError(i, img, group.element_names[img])
        codes = [*range(0, 2 * len(images), 2), *range(1, 2 * len(images), 2)]
        cosets, position, tree = [group.identity_index], [-1] * group.size, set()
        position[group.identity_index] = 0
        for x in cosets:  # grows while it is walked: breadth first
            for c in codes:
                y = self.columns[c][x]
                if position[y] < 0:
                    position[y] = len(cosets)
                    cosets.append(y)
                    tree.add((y if c & 1 else x, c >> 1))  # the edge a_j runs x -> y, or y -> x
        object.__setattr__(self, "cosets", tuple(cosets))
        object.__setattr__(self, "position", np.array(position))
        self.position.setflags(write=False)
        object.__setattr__(self, "schreier_generators", tuple(
            (c, j) for c, x in enumerate(cosets) for j in range(len(images)) if (x, j) not in tree))

    @property
    def image_order(self) -> int:
        return len(self.cosets)

    @property
    def surjective(self) -> bool:
        return self.image_order == self.group.size

    def __setattr__(self, name, value):
        raise AttributeError("Homomorphism is immutable")

    def prefix_images(self, word: FreeWord) -> list[int]:
        """Images of the prefixes of a free word, in one walk: entry k is
        the index of the image of its first k letters."""
        columns, x = self.columns, self.group.identity_index
        out = [x]
        for c in word.codes.tolist():
            x = columns[c][x]
            out.append(x)
        return out

    def word_image(self, word: FreeWord) -> int:
        """Index of the image of a free word in the target group: the same
        walk as ``prefix_images``, keeping only the running element."""
        columns, x = self.columns, self.group.identity_index
        for c in word.codes.tolist():
            x = columns[c][x]
        return x

    def __repr__(self) -> str:
        pairs = ", ".join(
            f"{n}->{self.group.element_names[h]}"
            for n, h in zip(self.source.generator_names, self.images)
        )
        return f"Homomorphism({pairs} : {self.group.label})"


def parse_homomorphism(text: str, pres: Presentation, group: OrderedGroup) -> Homomorphism:
    """Parse the homomorphism text format against a presentation and target."""
    assignments: dict[str, int] = {}
    known = set(pres.generator_names)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "->" not in line:
            raise ValueError(f"line {lineno}: expected 'name -> image'")
        name, _, rhs = line.partition("->")
        name = name.strip()
        rhs = rhs.strip()
        if name not in known:
            raise ValueError(f"line {lineno}: unknown generator {name!r}")
        if name in assignments:
            raise ValueError(f"line {lineno}: generator {name!r} assigned twice")
        if rhs.startswith("("):
            if not rhs.endswith(")"):
                raise ValueError(f"line {lineno}: unterminated coordinate tuple")
            if group.ea_index is None:
                raise ValueError(
                    f"line {lineno}: coordinate form needs an elementary abelian target"
                )
            try:
                coords = tuple(int(x) for x in rhs[1:-1].split(","))
            except ValueError:
                raise ValueError(f"line {lineno}: bad coordinates {rhs!r}") from None
            if coords not in group.ea_index:
                raise ValueError(f"line {lineno}: coordinates {coords} not in the target")
            assignments[name] = group.ea_index[coords]
        else:
            try:
                k = int(rhs)
            except ValueError:
                raise ValueError(f"line {lineno}: bad element index {rhs!r}") from None
            assignments[name] = k
    missing = [n for n in pres.generator_names if n not in assignments]
    if missing:
        raise ValueError(f"no image given for generator(s): {', '.join(missing)}")
    return Homomorphism(pres, group, [assignments[n] for n in pres.generator_names])


def equivariant_block(mult: np.ndarray, seed: np.ndarray) -> np.ndarray:
    """Expansion of a matrix over the group ring of the group with table
    ``mult``: for seeds of shape (rows, cols, n), the n*rows x n*cols
    matrix whose entry ((i, g), (j, gh)) is seed[i, j, h].  A 1-D seed is
    one n x n block, whose row g is delta_g * seed."""
    rows, cols = seed.shape[:-1] or (1, 1)
    n = len(mult)
    out = np.zeros((rows, n, cols, n), dtype=np.int64)
    out[:, np.arange(n)[:, None], :, mult] = seed.reshape(rows, cols, n).transpose(2, 0, 1)
    return out.reshape(rows * n, cols * n)


@dataclass(frozen=True)
class CoverComplex:
    """The three-term mod-p chain complex of a finite regular cover, held as
    the seed arrays of its boundary maps; d2 and d1 are expanded on first read."""

    hom: Homomorphism
    p: int
    seeds: np.ndarray = field(compare=False)  # [relator, generator, element], mod p
    edges: np.ndarray = field(compare=False)  # [generator, 0, element], mod p
    b0: int
    b1: int
    b2: int
    hrk: int
    euler: int
    base: ComplexSummary = field(repr=False)

    @property
    def group(self) -> OrderedGroup:
        return self.hom.group

    @functools.cached_property
    def d2(self) -> FpMatrix:  # |H|m x |H|n
        return FpMatrix._wrap(equivariant_block(self.group.mult, self.seeds), self.p)

    @functools.cached_property
    def d1(self) -> FpMatrix:  # |H|n x |H|
        return FpMatrix._wrap(equivariant_block(self.group.mult, self.edges), self.p)


def build_cover(pres: Presentation, hom: Homomorphism, p: int) -> CoverComplex:
    """Assemble the cover's chain complex and compute its Betti numbers."""
    check_prime(p)
    if hom.source is not pres and hom.source.to_text() != pres.to_text():
        raise ValueError("homomorphism was built from a different presentation")
    group = hom.group
    H = group.size
    n, m = pres.n_generators, pres.n_relators
    check_entry_count(H * m * H * n, "degree-2 boundary matrix")
    check_entry_count(H * n * H, "degree-1 boundary matrix")

    seeds = np.zeros((m, n, H), dtype=np.int64)
    for i, rel in enumerate(pres.relators):
        images = np.array(hom.prefix_images(rel))
        for j in range(n):
            terms = fox_derivative(rel, j)
            if terms:
                signs, ends = zip(*terms)
                np.add.at(seeds[i, j], images[list(ends)], signs)
    seeds %= p
    seeds.setflags(write=False)
    # d1 is the column (phi(a_j) - 1): zero where a_j maps to the identity
    edges = np.zeros((n, 1, H), dtype=np.int64)
    edges[np.arange(n), 0, hom.images] += 1
    edges[:, 0, group.identity_index] -= 1
    edges %= p
    edges.setflags(write=False)
    # Prefix images and the phi(a_j) lie in the image K, so d2 and d1 only join
    # (i, g) to (j, g k) with k in K: each is block-diagonal over the cosets gK,
    # every block a copy of the one over K, whose entry ((i, y), (j, x)) is
    # seed[i, j, y^-1 x]; ldiv[y, x] is the position of y^-1 x in K.
    K, k = np.array(hom.cosets), hom.image_order  # the image, in the transversal's order
    ldiv = hom.position.astype(np.int32)[group.op(group.inverse(K)[:, None], K)]
    c, j = np.array(hom.schreier_generators, dtype=np.int64).reshape(-1, 2).T
    width = fpexact.elimination_dtype(len(c), m * k, p)  # the cotree's, which rank keeps
    seeds_k = seeds[:, :, K].astype(width)
    # Row (i, g) of d2 @ d1 is delta_g times row (i, e), the seed row, so checking the
    # seed rows certifies d2 @ d1 = 0.  d1's block, row (j, y) and column x
    # edges[j, 0, ldiv[y, x]], is a temporary in the cotree's width, freed before
    # the cotree is gathered; the product copies it to float64 in column chunks.
    if not (FpMatrix._wrap(seeds_k.reshape(m, n * k), p)
            @ FpMatrix._wrap(edges[:, 0, K].astype(width)[:, ldiv].reshape(n * k, k), p)).is_zero():
        raise RuntimeError("boundary maps do not compose to zero")
    # Each row of d2 is a 1-cycle, as d2 @ d1 = 0, and a cycle with no part off a
    # spanning tree is zero, so the block's columns (j, c) off the tree have its
    # rank; transposed, entry ((c, j), (i, y)) = seeds_k[i, j, ldiv[y, c]].
    cotree = seeds_k[np.arange(m)[:, None], j[:, None, None], ldiv.T[c][:, None]].reshape(len(c), m * k)
    del ldiv, seeds_k

    b0 = H // hom.image_order
    r2 = b0 * fpexact.rank(FpMatrix._wrap(cotree, p))
    r1 = H - b0
    b2 = H * m - r2
    b1 = H * n - r2 - r1
    return CoverComplex(
        hom=hom,
        p=p,
        seeds=seeds,
        edges=edges,
        b0=b0,
        b1=b1,
        b2=b2,
        hrk=b0 + b1 + b2,
        euler=b0 - b1 + b2,
        base=complex_summary(pres, p),
    )


def check_balance_pattern(cover: CoverComplex) -> tuple[tuple[bool, ...], ...]:
    """Per-block balance grid: entry (i, j) is True iff block (i, j) is
    balanced, i.e. the exponent sum of generator j in relator i vanishes
    mod p.  Over a presentation whose boundary matrix is diagonal, the
    unbalanced blocks sit exactly on the leading diagonal."""
    return tuple(tuple(bool(b) for b in row) for row in cover.base.boundary.array.T == 0)


@dataclass(frozen=True)
class HcVerdict:
    """Outcome of the total-Betti-number test hrk >= 2^r for an
    elementary abelian deck group of rank r."""

    r: int
    hrk: int
    threshold: int
    passed: bool
    equality: bool
    connected: bool
    base_betti: tuple[int, int, int]
    cover_betti: tuple[int, int, int]
    case: str | None
    unclassified: bool

    def raise_if_falsifying(self) -> None:
        if not self.passed or self.unclassified:
            raise FalsificationError(
                "total Betti number verdict violated",
                payload={
                    "r": self.r,
                    "hrk": self.hrk,
                    "threshold": self.threshold,
                    "base_betti": list(self.base_betti),
                    "cover_betti": list(self.cover_betti),
                    "passed": self.passed,
                    "unclassified": self.unclassified,
                },
            )


_EQUALITY_CASES = (
    # (case, r, p restriction, base (b0,b1,b2), cover (b0,b1,b2))
    ("a", 1, None, (1, 1, 0), (1, 1, 0)),
    ("b", 1, 2, (1, 1, 1), (1, 0, 1)),
    ("c", 2, None, (1, 2, 1), (1, 2, 1)),
)


def hc_verdict(cover: CoverComplex) -> HcVerdict:
    """Check hrk >= 2^r and classify connected equality cases.

    Requires the deck group to be elementary abelian of exponent equal to
    the coefficient prime.  A connected cover attaining equality must
    match one of three Betti profiles (circle-like, projective-plane
    covered by sphere at p = 2, torus-like); anything else is flagged
    ``unclassified``, which is a falsification event.
    """
    ea = cover.group.is_elementary_abelian()
    if ea is None:
        raise ValueError("verdict requires an elementary abelian deck group")
    p_group, r = ea
    if p_group != cover.p:
        raise ValueError(
            f"coefficient prime {cover.p} must match the deck group exponent {p_group}"
        )
    threshold = 2**r
    passed = cover.hrk >= threshold
    equality = cover.hrk == threshold
    connected = cover.b0 == 1
    base = (cover.base.b0, cover.base.b1, cover.base.b2)
    betti = (cover.b0, cover.b1, cover.b2)
    case = None
    unclassified = False
    if equality and connected:
        for name, case_r, case_p, base_profile, cover_profile in _EQUALITY_CASES:
            if r == case_r and (case_p is None or cover.p == case_p):
                if base == base_profile and betti == cover_profile:
                    case = name
                    break
        unclassified = case is None
    return HcVerdict(
        r=r,
        hrk=cover.hrk,
        threshold=threshold,
        passed=passed,
        equality=equality,
        connected=connected,
        base_betti=base,
        cover_betti=betti,
        case=case,
        unclassified=unclassified,
    )
