"""Finite ordered groups and the group ring F_p[H].

An ordered group is a finite group whose elements are identified with the
indices ``0..n-1`` of its multiplication table; the total order on the
group is the index order.  Group-ring elements are length-``n``
coefficient vectors over F_p indexed that way, multiplied by convolution.

The augmentation map sums coefficients; its kernel is the augmentation
ideal, and the dimension profile of the ideal's powers (together with the
dimension jumps between consecutive powers) is computed exactly by
spanning each power with products of ``delta_g - delta_e`` factors and
row-reducing.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from itertools import product as _iterproduct
from typing import Iterable, Sequence

import numpy as np

from . import fpexact
from .fpexact import check_entry_count, check_power_count, check_prime

__all__ = [
    "FiltrationProfile",
    "GroupRingElement",
    "GroupValidationError",
    "OrderedGroup",
    "augmentation",
    "delta_product",
    "filtration_profile",
    "is_balanced",
    "make_cyclic",
    "make_elementary_abelian",
    "make_product",
    "parse_group_table",
    "ring_mul",
]


class GroupValidationError(ValueError):
    """The given multiplication table does not define a group."""


class OrderedGroup:
    """A finite group with elements indexed 0..n-1 by a fixed total order.

    ``mult[a, b]`` is the index of the product of elements ``a`` and
    ``b``.  Construction validates the table: an identity must exist,
    every row and column must be a permutation, and associativity is
    checked with Light's test against a greedily chosen generating set.
    """

    def __init__(
        self,
        mult: Sequence[Sequence[int]] | np.ndarray,
        label: str = "",
        element_names: Sequence[str] | None = None,
        ea_tuples: Sequence[tuple[int, ...]] | None = None,
    ):
        table = np.asarray(mult, dtype=np.int64)
        if table.ndim != 2 or table.shape[0] != table.shape[1]:
            raise GroupValidationError("multiplication table must be square")
        n = table.shape[0]
        if n == 0:
            raise GroupValidationError("a group has at least one element")
        check_entry_count(n * n, "multiplication table")
        if table.min() < 0 or table.max() >= n:
            raise GroupValidationError("table entries must be element indices")
        self.mult = table
        self.label = label or f"group{n}"
        self.element_names = tuple(element_names) if element_names else tuple(str(i) for i in range(n))
        if len(self.element_names) != n:
            raise GroupValidationError("need one element name per element")
        self.ea_tuples = tuple(ea_tuples) if ea_tuples is not None else None
        self.ea_index = (
            {t: i for i, t in enumerate(self.ea_tuples)} if self.ea_tuples is not None else None
        )
        self._gens: tuple[int, ...] | None = None
        self._hash: str | None = None
        self.identity_index = self._find_identity()
        self._validate()
        self.inverse_table = np.argmax(table == self.identity_index, axis=1)
        table.setflags(write=False)

    @property
    def size(self) -> int:
        return int(self.mult.shape[0])

    def _find_identity(self) -> int:
        n = self.size
        idx = np.arange(n)
        for e in range(n):
            if np.array_equal(self.mult[e], idx) and np.array_equal(self.mult[:, e], idx):
                return e
        raise GroupValidationError("table has no identity element")

    def _validate(self) -> None:
        n = self.size
        idx = np.arange(n)
        if not (np.sort(self.mult, axis=1) == idx).all():
            raise GroupValidationError("some row is not a permutation")
        if not (np.sort(self.mult, axis=0) == idx[:, None]).all():
            raise GroupValidationError("some column is not a permutation")
        # Light's associativity test: (a g) b == a (g b) for generators g
        for g in self.generating_set():
            lhs = self.mult[self.mult[:, g], :]
            rhs = self.mult[:, self.mult[g, :]]
            if not np.array_equal(lhs, rhs):
                raise GroupValidationError("multiplication table is not associative")

    def op(self, a: int, b: int) -> int:
        return int(self.mult[a, b])

    def inverse(self, a: int) -> int:
        return int(self.inverse_table[a])

    def closure(self, seed: Iterable[int]) -> frozenset[int]:
        """Subgroup generated by ``seed`` (as a set of element indices)."""
        gens = sorted(set(seed))
        seen = {self.identity_index}
        frontier = [self.identity_index]
        while frontier:
            nxt = []
            for x in frontier:
                for g in gens:
                    y = int(self.mult[x, g])
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
            frontier = nxt
        return frozenset(seen)

    def generating_set(self) -> tuple[int, ...]:
        """Greedy generating set: scan elements in order, keep the new ones."""
        if self._gens is None:
            gens: list[int] = []
            known = frozenset({self.identity_index})
            for g in range(self.size):
                if g not in known:
                    gens.append(g)
                    known = self.closure(gens)
                    if len(known) == self.size:
                        break
            self._gens = tuple(gens)
        return self._gens

    def element_order(self, g: int) -> int:
        k, x = 1, g
        while x != self.identity_index:
            x = int(self.mult[x, g])
            k += 1
        return k

    def is_abelian(self) -> bool:
        return bool(np.array_equal(self.mult, self.mult.T))

    def is_elementary_abelian(self) -> tuple[int, int] | None:
        """Return ``(p, r)`` if the group is (Z_p)^r with r >= 1, else None.

        Decided structurally (abelian, order p^r, exponent p), so it is
        independent of the chosen element order.
        """
        n = self.size
        if n == 1 or not self.is_abelian():
            return None
        p = 2
        while n % p:
            p += 1
        r = 0
        m = n
        while m % p == 0:
            m //= p
            r += 1
        if m != 1 or not fpexact.is_prime(p):
            return None
        for g in range(n):
            if g != self.identity_index and self.element_order(g) != p:
                return None
        return p, r

    @property
    def table_hash(self) -> str:
        if self._hash is None:
            h = hashlib.sha256()
            h.update(str(self.size).encode())
            h.update(np.ascontiguousarray(self.mult).tobytes())
            self._hash = h.hexdigest()
        return self._hash

    def __repr__(self) -> str:
        return f"OrderedGroup({self.label}, order {self.size})"


def make_elementary_abelian(p: int, r: int, label: str | None = None) -> OrderedGroup:
    """(Z_p)^r with elements ordered by weight, then by generator indices.

    The identity comes first, then e_1 < e_2 < ... < e_r, then the
    weight-two elements e_1+e_2 < e_1+e_3 < ..., and so on; within a
    weight class, elements supported on earlier generators come first.
    """
    check_prime(p)
    if r < 1:
        raise ValueError("r must be at least 1")
    check_power_count(p, 2 * r, "multiplication table")  # before p**r is computed
    n = p**r
    tuples = sorted(_iterproduct(range(p), repeat=r), key=lambda t: (sum(t), tuple(-c for c in t)))
    radix = np.array([p ** (r - 1 - i) for i in range(r)], dtype=np.int64)
    index_of_code = np.empty(n, dtype=np.int64)
    coords = np.array(tuples, dtype=np.int64)
    index_of_code[coords @ radix] = np.arange(n)
    # build the table in row blocks to bound peak memory
    table = np.empty((n, n), dtype=np.int64)
    block = max(1, 8_000_000 // (n * r))
    for s in range(0, n, block):
        sums = (coords[s : s + block, None, :] + coords[None, :, :]) % p
        table[s : s + block] = index_of_code[sums @ radix]
    names = []
    for t in tuples:
        if sum(t) == 0:
            names.append("0")
        else:
            names.append("+".join(f"{c}e{i + 1}" if c > 1 else f"e{i + 1}" for i, c in enumerate(t) if c))
    return OrderedGroup(
        table,
        label=label or f"(Z{p})^{r}",
        element_names=names,
        ea_tuples=[tuple(int(c) for c in t) for t in tuples],
    )


def make_cyclic(n: int, label: str | None = None) -> OrderedGroup:
    """Cyclic group of order n, written additively, ordered 0, 1, ..., n-1."""
    if n < 1:
        raise ValueError("order must be at least 1")
    check_entry_count(n * n, "multiplication table")
    idx = np.arange(n, dtype=np.int64)
    table = (idx[:, None] + idx[None, :]) % n
    return OrderedGroup(table, label=label or f"Z{n}", element_names=[str(i) for i in range(n)])


def make_product(a: OrderedGroup, b: OrderedGroup, label: str | None = None) -> OrderedGroup:
    """Direct product with lexicographic order: (x, y) at index x*|b| + y."""
    na, nb = a.size, b.size
    check_entry_count(na * nb * na * nb, "multiplication table")
    table = (
        a.mult[:, None, :, None] * nb + b.mult[None, :, None, :]
    ).reshape(na * nb, na * nb)
    names = [f"({na_},{nb_})" for na_ in a.element_names for nb_ in b.element_names]
    return OrderedGroup(table, label=label or f"{a.label}x{b.label}", element_names=names)


def parse_group_table(text: str) -> OrderedGroup:
    """Parse the multiplication-table text format.

    First non-blank line is ``order N``, followed by N lines of N
    whitespace-separated element indices; the identity must be index 0.
    Lines starting with ``#`` are comments.
    """
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln and not ln.startswith("#")]
    if not lines:
        raise GroupValidationError("empty table")
    head = lines[0].split()
    if len(head) != 2 or head[0] != "order":
        raise GroupValidationError(f"expected 'order N' header, got {lines[0]!r}")
    try:
        n = int(head[1])
    except ValueError:
        raise GroupValidationError(f"bad order {head[1]!r}") from None
    if len(lines) - 1 != n:
        raise GroupValidationError(f"expected {n} table rows, got {len(lines) - 1}")
    check_entry_count(n * n, "multiplication table")  # before any row is converted
    rows = []
    for k, ln in enumerate(lines[1:]):
        parts = ln.split()
        if len(parts) != n:
            raise GroupValidationError(f"row {k} has {len(parts)} entries, expected {n}")
        try:
            rows.append([int(x) for x in parts])
        except ValueError:
            raise GroupValidationError(f"row {k} has a non-integer entry") from None
    group = OrderedGroup(rows, label=f"table{n}")
    if group.identity_index != 0:
        raise GroupValidationError("identity must be element 0 in the table format")
    return group


class GroupRingElement:
    """An element of F_p[H]: one coefficient per group element."""

    __slots__ = ("group", "p", "_coeffs")

    def __init__(self, group: OrderedGroup, p: int, coeffs: Sequence[int] | np.ndarray):
        check_prime(p)
        c = np.asarray(coeffs, dtype=np.int64) % p
        if c.shape != (group.size,):
            raise ValueError(f"need {group.size} coefficients, got shape {c.shape}")
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "_coeffs", c)
        c.setflags(write=False)

    def __setattr__(self, name, value):
        raise AttributeError("GroupRingElement is immutable")

    @classmethod
    def zero(cls, group: OrderedGroup, p: int) -> "GroupRingElement":
        return cls(group, p, np.zeros(group.size, dtype=np.int64))

    @classmethod
    def delta(cls, group: OrderedGroup, p: int, h: int) -> "GroupRingElement":
        c = np.zeros(group.size, dtype=np.int64)
        c[h] = 1
        return cls(group, p, c)

    @property
    def coeffs(self) -> np.ndarray:
        return self._coeffs

    def is_zero(self) -> bool:
        return not self._coeffs.any()

    def _check_compatible(self, other: "GroupRingElement") -> None:
        if self.p != other.p:
            raise ValueError("modulus mismatch")
        if self.group is not other.group and self.group.table_hash != other.group.table_hash:
            raise ValueError("group mismatch")

    def __add__(self, other: "GroupRingElement") -> "GroupRingElement":
        self._check_compatible(other)
        return GroupRingElement(self.group, self.p, (self._coeffs + other._coeffs) % self.p)

    def __sub__(self, other: "GroupRingElement") -> "GroupRingElement":
        self._check_compatible(other)
        return GroupRingElement(self.group, self.p, (self._coeffs - other._coeffs) % self.p)

    def __neg__(self) -> "GroupRingElement":
        return GroupRingElement(self.group, self.p, (-self._coeffs) % self.p)

    def __mul__(self, other):
        if isinstance(other, GroupRingElement):
            return ring_mul(self, other)
        if isinstance(other, int):
            return GroupRingElement(self.group, self.p, (self._coeffs * (other % self.p)) % self.p)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, int):
            return self.__mul__(other)
        return NotImplemented

    def __eq__(self, other) -> bool:
        if not isinstance(other, GroupRingElement):
            return NotImplemented
        return (
            self.p == other.p
            and (self.group is other.group or self.group.table_hash == other.group.table_hash)
            and bool(np.array_equal(self._coeffs, other._coeffs))
        )

    __hash__ = None

    def __repr__(self) -> str:
        terms = [
            f"{c}*d[{self.group.element_names[i]}]"
            for i, c in enumerate(self._coeffs)
            if c
        ]
        return " + ".join(terms) if terms else "0^"


def ring_mul(u: GroupRingElement, v: GroupRingElement) -> GroupRingElement:
    """Convolution product: (sum k_g d_g) * (sum l_h d_h) = sum k_g l_h d_{gh}."""
    u._check_compatible(v)
    group, p = u.group, u.p
    out = np.zeros(group.size, dtype=np.int64)
    for g in np.nonzero(u.coeffs)[0]:
        # row g of the table is a permutation, so fancy += is safe
        out[group.mult[g]] += int(u.coeffs[g]) * v.coeffs
    return GroupRingElement(group, p, out % p)


def augmentation(v: GroupRingElement) -> int:
    """Coefficient sum in F_p; the kernel of this map is the augmentation ideal."""
    return int(v.coeffs.sum() % v.p)


def is_balanced(v: GroupRingElement) -> bool:
    """True iff the element lies in the augmentation ideal."""
    return augmentation(v) == 0


def delta_product(group: OrderedGroup, p: int, elements: Iterable[int]) -> GroupRingElement:
    """Product of factors (delta_g - delta_e); with k factors it lies in
    the k-th power of the augmentation ideal.  The empty product is delta_e."""
    e = group.identity_index
    acc = GroupRingElement.delta(group, p, e)
    for g in elements:
        acc = ring_mul(acc, GroupRingElement.delta(group, p, g) - GroupRingElement.delta(group, p, e))
    return acc


@dataclass(frozen=True)
class FiltrationProfile:
    """Dimension profile of the powers of the augmentation ideal.

    ``delta_dims[k]`` is the F_p-dimension of the k-th power (the 0-th
    power is the whole group ring), ``lambdas[k]`` the jump
    ``delta_dims[k] - delta_dims[k+1]``.  The sequence is computed until
    the first k with equal consecutive dimensions (``stabilization_k``);
    powers are nested, so equal dimensions there mean equal subspaces and
    the filtration is constant afterwards.  ``nilpotent`` records whether
    the dimensions reach 0.  Each level keeps an echelon, not reduced, basis.
    """

    p: int
    group: OrderedGroup
    delta_dims: tuple[int, ...]
    lambdas: tuple[int, ...]
    nilpotent: bool
    stabilization_k: int
    _bases: tuple = field(repr=False, compare=False)

    def lambda_at(self, k: int) -> int:
        if k < 0:
            raise ValueError("k must be non-negative")
        return self.lambdas[k] if k < len(self.lambdas) else 0

    def delta_dim_at(self, k: int) -> int:
        if k < 0:
            raise ValueError("k must be non-negative")
        return self.delta_dims[min(k, len(self.delta_dims) - 1)]

    def contains(self, k: int, v: GroupRingElement) -> bool:
        """Membership of ``v`` in the k-th power, by pivot-order reduction against the echelon basis."""
        if v.group.table_hash != self.group.table_hash or v.p != self.p:
            raise ValueError("element does not live in this profile's group ring")
        basis, pivots = self._bases[min(k, len(self._bases) - 1)]
        vec = v.coeffs.copy()
        for row, c in zip(basis, pivots):
            f = int(vec[c])
            if f:
                vec = (vec - f * row) % self.p
        return not vec.any()


_PROFILE_CACHE: dict[tuple[int, str], FiltrationProfile] = {}


def _compute_profile(p: int, group: OrderedGroup) -> FiltrationProfile:
    n = group.size
    gens = group.generating_set()
    eye = np.eye(n, dtype=np.int64)
    dims = [n]
    bases: list[tuple[np.ndarray, tuple[int, ...]]] = [(eye, tuple(range(n)))]
    current = eye
    while True:
        # span of the next power: b * (delta_s - delta_e) over basis rows b
        # and group generators s (products over a generating set span the
        # same subspace as products over the whole group)
        blocks = []
        for s in gens:
            perm = group.mult[:, s]
            shifted = np.empty_like(current)
            shifted[:, perm] = current
            blocks.append((shifted - current) % p)
        stack = np.vstack(blocks) if blocks else np.zeros((0, n), dtype=np.int64)
        pivots = fpexact._echelon(stack, p)
        dim = len(pivots)
        basis = np.ascontiguousarray(stack[:dim])
        dims.append(dim)
        bases.append((basis, tuple(pivots)))
        if dim == 0 or dim == dims[-2]:
            break
        current = basis
        if len(dims) > n + 1:  # cannot happen: dims strictly decrease until stable
            raise RuntimeError("filtration failed to stabilize")
    nilpotent = dims[-1] == 0
    stabilization_k = len(dims) - 1 if nilpotent else len(dims) - 2
    lambdas = tuple(dims[k] - dims[k + 1] for k in range(len(dims) - 1))
    return FiltrationProfile(
        p=p,
        group=group,
        delta_dims=tuple(dims),
        lambdas=lambdas,
        nilpotent=nilpotent,
        stabilization_k=stabilization_k,
        _bases=tuple(bases),
    )


def filtration_profile(p: int, group: OrderedGroup, k_max: int | None = None) -> FiltrationProfile:
    """Filtration profile of F_p[group], cached per (p, multiplication table).

    The filtration always stabilizes within ``|group|`` steps, so the
    full profile is computed once; ``k_max`` (default ``|group|``) only
    truncates the reported dimension and jump sequences.
    """
    check_prime(p)
    if k_max is not None and k_max < 1:
        raise ValueError("k_max must be at least 1")
    key = (p, group.table_hash)
    profile = _PROFILE_CACHE.get(key)
    if profile is None:
        profile = _compute_profile(p, group)
        _PROFILE_CACHE[key] = profile
    if k_max is not None and k_max + 1 < len(profile.delta_dims):
        return FiltrationProfile(
            p=profile.p,
            group=profile.group,
            delta_dims=profile.delta_dims[: k_max + 1],
            lambdas=profile.lambdas[:k_max],
            nilpotent=profile.nilpotent,
            stabilization_k=profile.stabilization_k,
            _bases=profile._bases[: k_max + 1],
        )
    return profile
