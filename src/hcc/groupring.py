"""Finite ordered groups and the group ring F_p[H].

An ordered group is a finite group whose elements are identified with the
indices ``0..n-1`` of its multiplication table; the total order on the
group is the index order.  Outside ``OrderedGroup`` (and ``make_product``)
it is read only through ``op`` and ``inverse``, which broadcast over index
arrays.  Group-ring elements are length-``n`` coefficient vectors over F_p
indexed that way, multiplied by convolution.
Subgroups (``generating_set``, the dimension subgroups below) all come
from one greedy walk, ``OrderedGroup._walk``.

The augmentation map sums coefficients; its kernel is the augmentation
ideal I.  The dimension profile of its powers (with the jumps between
consecutive powers) comes from one of two exact paths, chosen by the
multiplication table alone:

- The p-elements of H are P = {g : g^(p^a) = e}, with p^a the p-part of
  |H|, and its p'-elements are Q = {g : g^(|H|/p^a) = e}, each read off
  one ``OrderedGroup.power`` array.  When P and Q are both closed under
  the product and |P||Q| = |H|, then H = P x Q.  Lazard's recursion
  D_1 = P, D_k = [D_{k-1}, P] D_{ceil(k/p)}^p gives the dimension
  subgroups of P, each the walk's mask over its commutators and p-th
  powers.  Jennings' theorem gives the jumps of F_p[P] as the
  coefficients of prod_k (1 + t^k + ... + t^{k(p-1)})^{d_k}, with
  d_k = log_p |D_k / D_{k+1}|.  Then dim I_H^k = dim I_P^k + |P|(|Q| - 1)
  for k >= 1.
- Every other group spans each power with products of
  ``delta_g - delta_e`` factors and row-reduces.

Membership in a power reads per-level echelon bases from the second path.
They are built on a profile's first ``FiltrationProfile.contains`` call and
kept on that profile alone, so they are freed with it.

``make_elementary_abelian`` and ``make_cyclic`` build their tables with array
operations alone, and their groups' names and tuples on first read.
"""

from __future__ import annotations

import hashlib
import weakref
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

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
    ``b``; the interface is ``op`` and ``inverse``, which broadcast over
    index arrays as numpy does.  Construction validates the table: an
    identity must exist, every row and column must be a permutation, and
    associativity is checked with Light's test against a greedily chosen
    generating set.
    ``make_cyclic`` and ``make_elementary_abelian`` skip the check and the
    entry-range check: their tables are groups by construction, with the
    identity first, and they pass the inverses as ``_inverses``.  Unless
    names are given, ``element_names`` (default "0", "1", ...), ``ea_tuples``
    (the (Z_p)^r coordinates passed as ``_coords``, else None) and
    ``ea_index`` (tuple to index) are built on first read.
    """

    def __init__(
        self,
        mult: Sequence[Sequence[int]] | np.ndarray,
        label: str = "",
        element_names: Sequence[str] | None = None,
        _coords: np.ndarray | None = None,
        _inverses: np.ndarray | None = None,
    ):
        try:
            table = np.asarray(mult, dtype=np.int64)
        except OverflowError:  # an entry outside int64 indexes no element
            raise GroupValidationError("table entries must be element indices") from None
        if table.ndim != 2 or table.shape[0] != table.shape[1]:
            raise GroupValidationError("multiplication table must be square")
        n = table.shape[0]
        if n == 0:
            raise GroupValidationError("a group has at least one element")
        check_entry_count(n * n, "multiplication table")
        self.mult = table
        self.label = label or f"group{n}"
        if element_names:
            self.element_names = tuple(element_names)
            if len(self.element_names) != n:
                raise GroupValidationError("need one element name per element")
        self._coords = _coords
        if _inverses is None:
            if table.min() < 0 or table.max() >= n:
                raise GroupValidationError("table entries must be element indices")
            self.identity_index = self._find_identity()
            self._validate()
            self.inverse_table = np.argmax(table == self.identity_index, axis=1)
        else:  # from make_cyclic or make_elementary_abelian: a group by construction, identity first
            self.identity_index, self.inverse_table = 0, _inverses
        table.setflags(write=False)

    @property
    def size(self) -> int:
        return int(self.mult.shape[0])

    @cached_property
    def element_names(self) -> tuple[str, ...]:
        if self.ea_tuples is None:
            return tuple(map(str, range(self.size)))
        return tuple(
            "+".join(f"{c}e{i + 1}" if c > 1 else f"e{i + 1}" for i, c in enumerate(t) if c) or "0"
            for t in self.ea_tuples
        )

    @cached_property
    def ea_tuples(self) -> tuple[tuple[int, ...], ...] | None:
        return None if self._coords is None else tuple(map(tuple, self._coords.tolist()))

    @cached_property
    def ea_index(self) -> dict[tuple[int, ...], int] | None:
        return None if self.ea_tuples is None else {t: i for i, t in enumerate(self.ea_tuples)}

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

    def op(self, a: int | np.ndarray, b: int | np.ndarray) -> int | np.ndarray:
        """Index of the product a b, broadcast over index arrays; two ints give an int."""
        return self.mult[a, b] if np.ndim(a) or np.ndim(b) else int(self.mult[a, b])

    def inverse(self, a: int | np.ndarray) -> int | np.ndarray:
        """Index of a^-1, elementwise over an index array; an int gives an int."""
        return self.inverse_table[a] if np.ndim(a) else int(self.inverse_table[a])

    def _walk(self, seed: Iterable[int]) -> tuple[np.ndarray, list[int]]:
        """Mask of the subgroup generated by ``seed``, and the seed elements
        kept, each outside the subgroup generated by those kept before it.
        A kept element's column x -> x g is read as one list: the members so
        far, closed under the earlier columns, step by it alone and each new
        member by every column, so a subgroup K costs O(|K| * kept) lookups."""
        seen = bytearray(self.size)
        seen[self.identity_index] = 1
        members, kept, columns = [self.identity_index], [], []
        for g in seed:
            if seen[g]:
                continue
            kept.append(g)
            columns.append(self.mult[:, g].tolist())
            old, i = len(members), 0
            while i < len(members):
                x = members[i]
                for column in columns[-1:] if i < old else columns:
                    y = column[x]
                    if not seen[y]:
                        seen[y] = 1
                        members.append(y)
                i += 1
        return np.frombuffer(seen, dtype=bool), kept

    def generating_set(self) -> tuple[int, ...]:
        """Greedy generating set: scan elements in order, keep the new ones."""
        return self._gens

    @cached_property
    def _gens(self) -> tuple[int, ...]:
        return tuple(self._walk(range(self.size))[1])

    def power(self, k: int) -> np.ndarray:
        """Index array of g^k for every element g, by square-and-multiply: O(log k) gathers."""
        if k < 0:
            raise ValueError("k must be non-negative")
        result, idx = np.full(self.size, self.identity_index), np.arange(self.size)
        for bit in format(k, "b"):  # from the leading bit down: g^(2j + b) = (g^j)^2 g^b
            result = self.mult[result, result]
            if bit == "1":
                result = self.mult[result, idx]
        return result

    def is_abelian(self) -> bool:
        """Whether every generator commutes with every element: O(|H| * gens) reads."""
        return all(np.array_equal(self.mult[s], self.mult[:, s]) for s in self.generating_set())

    def is_elementary_abelian(self) -> tuple[int, int] | None:
        """Return ``(p, r)`` if the group is (Z_p)^r with r >= 1, else None.

        Decided structurally (abelian, order p^r, and exponent p from
        ``power(p)``), so it is independent of the chosen element order,
        and once per group.
        """
        return self._ea

    @cached_property
    def _ea(self) -> tuple[int, int] | None:
        n = self.size
        if n > 1 and self.is_abelian():
            p = next(d for d in range(2, n + 1) if n % d == 0)  # the least divisor, so a prime
            r = next(k for k in range(1, n) if p**k >= n)
            if p**r == n and (self.power(p) == self.identity_index).all():
                return p, r
        return None

    @cached_property
    def table_hash(self) -> str:
        h = hashlib.sha256(str(self.size).encode())
        h.update(np.ascontiguousarray(self.mult).tobytes())
        return h.hexdigest()

    def __repr__(self) -> str:
        return f"OrderedGroup({self.label}, order {self.size})"


def make_elementary_abelian(p: int, r: int) -> OrderedGroup:
    """(Z_p)^r with elements ordered by weight, then by generator indices.

    The identity comes first, then e_1 < e_2 < ... < e_r, then the
    weight-two elements e_1+e_2 < e_1+e_3 < ..., and so on; within a
    weight class, elements supported on earlier generators come first.
    The order is one ``lexsort`` of the base-p codes and the table is
    composed on codes, so no step loops over the elements in Python; the
    names and coordinate tuples are built on first read.
    """
    check_prime(p)
    if r < 1:
        raise ValueError("r must be at least 1")
    check_power_count(p, 2 * r, "multiplication table")  # before p**r is computed
    n = p**r
    radix = p ** np.arange(r - 1, -1, -1, dtype=np.int64)
    digits = np.arange(n, dtype=np.int64)[:, None] // radix % p  # the coordinates of each base-p code
    # by weight, then by coordinates descending, which is by code descending
    codes = np.lexsort((-np.arange(n), digits.sum(axis=1)))
    index_of_code = np.empty(n, dtype=np.int64)
    index_of_code[codes] = np.arange(n)
    if p == 2:  # XOR adds base-2 codes digit by digit
        table = index_of_code[codes[:, None] ^ codes[None, :]]
    else:
        # the addition table of the codes, one base-p digit at a time: in
        # (Z_p)^(k+1), (x p + a) + (y p + b) = (x + y) p + (a + b)
        digit = np.add.outer(np.arange(p), np.arange(p)) % p
        code_table = digit
        for _ in range(r - 1):
            m = code_table.shape[0] * p
            code_table = (code_table[:, None, :, None] * p + digit[None, :, None, :]).reshape(m, m)
        table = index_of_code[code_table[np.ix_(codes, codes)]]
    coords = digits[codes]
    inverses = index_of_code[-coords % p @ radix]
    return OrderedGroup(table, label=f"(Z{p})^{r}", _coords=coords, _inverses=inverses)


def make_cyclic(n: int) -> OrderedGroup:
    """Cyclic group of order n, written additively, ordered 0, 1, ..., n-1."""
    if n < 1:
        raise ValueError("order must be at least 1")
    check_entry_count(n * n, "multiplication table")
    idx = np.arange(n, dtype=np.int64)
    table = (idx[:, None] + idx[None, :]) % n
    return OrderedGroup(table, label=f"Z{n}", _inverses=-idx % n)


def make_product(a: OrderedGroup, b: OrderedGroup) -> OrderedGroup:
    """Direct product with lexicographic order: (x, y) at index x*|b| + y."""
    na, nb = a.size, b.size
    check_entry_count(na * nb * na * nb, "multiplication table")
    table = (
        a.mult[:, None, :, None] * nb + b.mult[None, :, None, :]
    ).reshape(na * nb, na * nb)
    names = [f"({na_},{nb_})" for na_ in a.element_names for nb_ in b.element_names]
    return OrderedGroup(table, label=f"{a.label}x{b.label}", element_names=names)


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
    out, idx = np.zeros(group.size, dtype=np.int64), np.arange(group.size)
    for g in np.nonzero(u.coeffs)[0]:
        # h -> g h is a permutation, so fancy += is safe
        out[group.op(g, idx)] += int(u.coeffs[g]) * v.coeffs
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
    the dimensions reach 0.  The module docstring says which path computes
    them; ``contains`` reads echelon bases that its first call builds and
    the profile keeps (``_bases``), so they are freed with it.
    """

    p: int
    group: OrderedGroup
    delta_dims: tuple[int, ...]
    lambdas: tuple[int, ...]
    nilpotent: bool
    stabilization_k: int

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
        if k < 0:
            raise ValueError("k must be non-negative")
        if v.group.table_hash != self.group.table_hash or v.p != self.p:
            raise ValueError("element does not live in this profile's group ring")
        basis, pivots = self._bases[min(k, len(self._bases) - 1)]
        vec = v.coeffs.copy()
        for row, c in zip(basis, pivots):
            f = int(vec[c])
            if f:
                vec = (vec - f * row) % self.p
        return not vec.any()

    @cached_property
    def _bases(self) -> tuple[tuple[np.ndarray, tuple[int, ...]], ...]:
        return tuple(_level_bases(self.p, self.group))


_PROFILE_CACHE: dict[tuple[int, str], tuple[tuple[int, ...], weakref.ref]] = {}  # dims, last profile


def _level_bases(p: int, group: OrderedGroup) -> Iterator[tuple[np.ndarray, tuple[int, ...]]]:
    """Echelon basis and pivots of each power of the augmentation ideal, by
    elimination, yielded as each level is built, up to the first zero or
    repeated dimension (dimensions strictly decrease until then, so there
    are at most |H| + 1 levels).  Each basis owns its rows."""
    n = group.size
    gens, idx = group.generating_set(), np.arange(n)
    current = np.eye(n, dtype=np.int64)
    yield current, tuple(range(n))
    while True:
        # span of the next power: b * (delta_s - delta_e) over basis rows b
        # and group generators s (products over a generating set span the
        # same subspace as products over the whole group)
        stack = np.empty((len(gens), len(current), n), dtype=np.int64)
        for i, s in enumerate(gens):
            stack[i][:, group.op(idx, s)] = current
        stack -= current
        stack %= p
        stack = stack.reshape(-1, n)
        pivots = fpexact._echelon(stack, p)
        basis = stack[: len(pivots)].copy()
        del stack  # with the indexed loop above, nothing holds this stack while the next is built
        yield basis, tuple(pivots)
        if len(basis) in (0, len(current)):
            return
        current = basis


def _jennings_dims(p: int, group: OrderedGroup) -> list[int] | None:
    """The dimensions ``_level_bases`` finds, from the Jennings series (see
    the module docstring) when the group is P x Q; None for any other group.
    |Q| is prime to p, so I_Q = I_Q^2 and F_p[H] = F_p[P] (x) F_p[Q] add
    |P|(|Q| - 1) to each dim I_P^k with k >= 1."""
    op, inv, e, n = group.op, group.inverse, group.identity_index, group.size
    p_part = 1
    while n % (p_part * p) == 0:
        p_part *= p
    in_p, in_q, pth = group.power(p_part) == e, group.power(n // p_part) == e, group.power(p)
    ps, qs = np.flatnonzero(in_p), np.flatnonzero(in_q)
    if len(ps) * len(qs) != n or not (in_p[op(ps[:, None], ps)].all() and in_q[op(qs[:, None], qs)].all()):
        return None

    # [A, P] for A normal is generated by the [a, s] with s in a generating
    # set of H: [a, xs] = [a, s][a, x][[a, x], s], and Q commutes with P
    gens = np.array(group.generating_set(), dtype=np.int64)
    series, step = [in_p], {}  # series[k - 1] is the mask of D_k
    while series[-1].sum() > 1:
        k = len(series) + 1
        prev, lower = series[k - 2], series[-(-k // p) - 1]
        key = (prev.tobytes(), lower.tobytes())
        if key not in step:
            a = np.flatnonzero(prev)[:, None]
            commutators = op(op(inv(a), inv(gens)), op(a, gens))
            step[key] = group._walk(commutators.ravel().tolist() + pth[lower].tolist())[0]
        series.append(step[key])
    lam = np.ones(1, dtype=np.int64)
    for k, (big, small) in enumerate(zip(series, series[1:]), start=1):
        ratio = int(big.sum()) // int(small.sum())
        while ratio > 1:  # one factor per F_p-dimension of D_k / D_{k+1}
            ratio //= p
            grown = np.zeros(len(lam) + k * (p - 1), dtype=np.int64)
            for i in range(p):
                grown[i * k : i * k + len(lam)] += lam
            lam = grown
    dims_p = [int(x) for x in np.cumsum(lam[::-1])[::-1]] + [0]
    rest = n - len(ps)  # |P| (|Q| - 1)
    return dims_p if rest == 0 else [n] + [d + rest for d in dims_p[1:]] + [rest]


def _profile(p: int, group: OrderedGroup, dims: Sequence[int]) -> FiltrationProfile:
    nilpotent = dims[-1] == 0
    return FiltrationProfile(
        p=p,
        group=group,
        delta_dims=tuple(dims),
        lambdas=tuple(dims[k] - dims[k + 1] for k in range(len(dims) - 1)),
        nilpotent=nilpotent,
        stabilization_k=len(dims) - 1 if nilpotent else len(dims) - 2,
    )


def filtration_profile(p: int, group: OrderedGroup) -> FiltrationProfile:
    """Filtration profile of F_p[group], its dimensions cached per (p,
    multiplication table).  The profile carries the caller's group, and the
    cache holds it only weakly: no group outlives its callers, and a caller
    still holding a profile gets that same object back.

    The dimensions come from the Jennings series when the group is the
    direct product of its p-elements and its p'-elements, and from
    elimination otherwise; the table alone decides.  The filtration always
    stabilizes within ``|group|`` steps, so the profile holds every level
    up to ``stabilization_k``.
    """
    check_prime(p)
    key = (p, group.table_hash)
    dims, last = _PROFILE_CACHE.get(key, (None, None))
    profile = last() if last else None
    if profile is None or profile.group is not group:
        if dims is None:
            dims = tuple(_jennings_dims(p, group) or (len(pivots) for _, pivots in _level_bases(p, group)))
        profile = _profile(p, group, dims)
        _PROFILE_CACHE[key] = (dims, weakref.ref(profile))
    return profile
