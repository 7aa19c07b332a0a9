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
consecutive powers) comes from one identity, for every group H:

- N = O^p(H) is the subgroup generated by the p'-elements, the
  g with g^m = e for m the p'-part of |H| (one ``OrderedGroup.power``
  array and one walk).  It is normal, and H/N is the largest p-group
  quotient of H.  A p'-element g is h^(p^j) for some h in <g> and every
  j, so g - 1 = (h - 1)^(p^j) lies in every power of I; so does the
  kernel I_N F_p[H] of F_p[H] -> F_p[H/N], and
  dim I_H^k = |H| - |H/N| + dim I_{H/N}^k for k >= 1.
- H/N is a p-group, so Jennings' theorem gives its jumps as the
  coefficients of prod_k (1 + t^k + ... + t^{k(p-1)})^{d_k}, with
  d_k = log_p |D~_k / D~_{k+1}|: one bincount of ``_weight_grid``, weight
  k taken d_k times.  Lazard's recursion, run in H with N in every seed,
  D~_1 = H, D~_k = [D~_{k-1}, H] D~_{ceil(k/p)}^p N, gives the preimages
  D~_k of the dimension subgroups of H/N, each the walk's mask over N's
  generators, its commutators and p-th powers.

Membership in a power reads the same series (Jennings, Trans. AMS 50, 1941).
With g_1, ..., g_n in H, the weight-w ones a basis of D~_w / D~_(w+1), the
products of the (g_i - 1)^(b_i) with sum b_i w_i >= k are a basis of
I_(H/N)^k, and the coset g_n^(e_n) ... g_1^(e_1) N has the coordinates
prod_i C(e_i, b_i) mod p: ``FiltrationProfile.contains`` eliminates nothing.

``make_elementary_abelian`` and ``make_cyclic`` build their tables with array
operations alone, and their groups' names and tuples on first read.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

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
        h.update(np.ascontiguousarray(self.mult).data)  # hashes the buffer; no copy
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
    the dimensions reach 0.  The module docstring says how they are
    computed; ``contains`` reads the Jennings frame that its first call
    builds and the profile keeps (``_frame``), so it is freed with it.
    """

    p: int
    group: OrderedGroup
    delta_dims: tuple[int, ...]
    lambdas: tuple[int, ...]
    nilpotent: bool
    stabilization_k: int

    def contains(self, k: int, v: GroupRingElement) -> bool:
        """Membership of ``v`` in the k-th power, read in the Jennings basis of F_p[H/N]."""
        if k < 0:
            raise ValueError("k must be non-negative")
        if v.group.table_hash != self.group.table_hash or v.p != self.p:
            raise ValueError("element does not live in this profile's group ring")
        labels, weights, pascal = self._frame
        # float64 coset sums are exact: each is below |H| p < 2^53
        coords = np.bincount(labels, v.coeffs, weights.size).reshape(weights.shape).astype(np.int64) % self.p
        for _ in range(weights.ndim):  # each pass maps one axis and moves it last; entries stay below p^3 < 2^63
            coords = np.tensordot(coords, pascal, axes=(0, 0)) % self.p
        return not coords[weights < k].any()

    @cached_property
    def _frame(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Coset labels sum e_i p^(i-1), coordinate weights as a (p,) * n array, the Pascal matrix mod p."""
        p, group = self.p, self.group
        series = _jennings_series(p, group)
        depth = np.sum(series, axis=0)  # an element's weight; walking deepest first closes D~_(w+1) before weight w
        basis = [g for g in group._walk(np.argsort(-depth, kind="stable").tolist())[1] if depth[g] < len(series)]
        labels = np.where(series[-1], 0, -1)  # -1 off the subgroup labelled so far
        for i, g in enumerate(basis):
            members = layer = np.flatnonzero(labels >= 0)
            for e in range(1, p):
                layer = group.op(g, layer)
                labels[layer] = labels[members] + e * p**i
        weights = _weight_grid(p, depth[basis]).reshape((p,) * len(basis))
        pascal = np.tri(p if basis else 0, dtype=np.int64)  # column 0 is C(e, 0); p <= |H/N| if N < H, up to MAX_PRIME if not
        for e in range(1, len(pascal)):
            pascal[e, 1:] = (pascal[e - 1, 1:] + pascal[e - 1, :-1]) % p
        return labels, weights, pascal


_PROFILE_CACHE: dict[tuple[int, str], tuple[int, ...]] = {}  # dims per (p, table)


def _jennings_series(p: int, group: OrderedGroup) -> list[np.ndarray]:
    """Masks of D~_1 = H, D~_2, ..., D~_L = N = O^p(H), as in the module docstring."""
    op, inv, e, n = group.op, group.inverse, group.identity_index, group.size
    p_part = 1
    while n % (p_part * p) == 0:
        p_part *= p
    in_n, n_gens = group._walk(np.flatnonzero(group.power(n // p_part) == e).tolist())  # N, from the p'-elements
    order_n, pth = int(in_n.sum()), group.power(p)

    # [A, H] for A normal is generated by the [a, s] with s in a generating
    # set of H: [a, xs] = [a, s][a, x][[a, x], s]
    gens = np.array(group.generating_set(), dtype=np.int64)
    series, step = [np.ones(n, dtype=bool)], {}  # series[k - 1] is the mask of D~_k
    while series[-1].sum() > order_n:
        k = len(series) + 1
        prev, lower = series[k - 2], series[-(-k // p) - 1]
        key = (prev.tobytes(), lower.tobytes())
        if key not in step:
            a = np.flatnonzero(prev)[:, None]
            commutators = op(op(inv(a), inv(gens)), op(a, gens))
            step[key] = group._walk(n_gens + commutators.ravel().tolist() + pth[lower].tolist())[0]
        series.append(step[key])
    return series


def _weight_grid(p: int, weights: np.ndarray) -> np.ndarray:
    """sum_i e_i weights[i] for every exponent vector e in [0, p)^n, at index sum_i e_i p^i."""
    return (np.arange(p ** len(weights))[:, None] // p ** np.arange(len(weights)) % p) @ weights


def _jennings_dims(p: int, group: OrderedGroup) -> list[int]:
    """The dimensions of the powers of I, from the Jennings series (see the module docstring)."""
    series = _jennings_series(p, group)
    weights = []
    for k, (big, small) in enumerate(zip(series, series[1:]), start=1):
        ratio = int(big.sum()) // int(small.sum())
        while ratio > 1:  # weight k once per F_p-dimension of D~_k / D~_{k+1}
            ratio //= p
            weights.append(k)
    lam = np.bincount(_weight_grid(p, np.array(weights, dtype=np.int64)))  # the jumps of F_p[H/N]
    dims_p = [int(x) for x in np.cumsum(lam[::-1])[::-1]] + [0]  # of F_p[H/N]
    rest = group.size - group.size // int(series[-1].sum())  # |H| - |H/N|
    return dims_p if rest == 0 else [group.size] + [d + rest for d in dims_p[1:]] + [rest]


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
    multiplication table).  Each call returns a new profile that carries the
    caller's group; the cache holds no group or profile.

    The dimensions come from the Jennings series of H/N, N = O^p(H), and
    dim I_H^k = |H| - |H/N| + dim I_{H/N}^k for k >= 1 (see the module
    docstring); every table takes this one path.  The filtration always
    stabilizes within ``|group|`` steps, so the profile holds every level
    up to ``stabilization_k``.
    """
    check_prime(p)
    key = (p, group.table_hash)
    dims = _PROFILE_CACHE.get(key)
    if dims is None:
        dims = _PROFILE_CACHE[key] = tuple(_jennings_dims(p, group))
    return _profile(p, group, dims)
