"""Exact dense linear algebra over the prime field F_p.

Vectors are rows throughout: a matrix acts on the right of a row vector
(``v -> v M``), so every kernel here is a left kernel and
``kernel_dim(M) == M.rows - rank(M)``.

The Smith normal form uses exactly two kinds of elementary operations,
both recorded so the factorization can be replayed:

* ``T(i, j, q)``: as a row operation, add ``q`` times row ``i`` to row
  ``j``; as a column operation, add ``q`` times column ``j`` to column
  ``i``.
* ``S(i, j)``: swap rows (or columns) ``i`` and ``j``.

No scaling operation is ever emitted, so the diagonal of the normal form
consists of nonzero field elements that are *not* normalized to 1.

``rank`` first applies structured Gaussian elimination (LaMacchia &
Odlyzko, CRYPTO '90): zero rows and columns go, weight-1 rows and columns
are pivoted on in bulk, and weight-2 rows or columns are contracted along
a spanning forest; the dense kernel ``_echelon`` eliminates what is left.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "CapExceededError",
    "DEFAULT_ENTRY_CAP",
    "ElementaryOp",
    "FpMatrix",
    "MAX_PRIME",
    "SnfResult",
    "block_diagonal",
    "check_entry_count",
    "check_power_count",
    "check_prime",
    "elimination_dtype",
    "entry_cap",
    "inv_mod",
    "is_prime",
    "kernel_dim",
    "rank",
    "rref",
    "set_entry_cap",
    "smith_normal_form",
]

DEFAULT_ENTRY_CAP = 1 << 22

MAX_PRIME = 1048573  # largest prime below 2^20: residue products stay below 2^40 in int64

PANEL = 64  # _echelon's panel width; PANEL * (MAX_PRIME - 1)^2 < 2^53 keeps panel products exact
DEFER_ENTRIES = 4096  # updates touching at least this many trailing entries are recorded, not applied
_FLUSH_ROWS = 64  # rows per chunk of a deferred panel product, to bound its temporaries
_MUL_ENTRIES = 1 << 16  # entries of _mul_mod's right operand copied to float64 at a time
STRUCTURED_SIDE = 64  # rank hands an array with both sides below this to _echelon as it is

_entry_cap: int | None = None  # read from HCC_MATRIX_CAP on first use


class CapExceededError(ValueError):
    """A matrix or multiplication table would exceed the entry cap."""


def entry_cap() -> int:
    """Current cap on the number of entries of a single matrix."""
    if _entry_cap is None:
        raw = os.environ.get("HCC_MATRIX_CAP", str(DEFAULT_ENTRY_CAP))
        try:
            set_entry_cap(int(raw))
        except ValueError:
            raise ValueError(f"HCC_MATRIX_CAP must be a positive integer, got {raw!r}") from None
    return _entry_cap


def set_entry_cap(cap: int) -> None:
    """Override the entry cap (also settable via ``HCC_MATRIX_CAP``)."""
    global _entry_cap
    cap = int(cap)
    if cap < 1:
        raise ValueError("entry cap must be positive")
    _entry_cap = cap


def check_entry_count(count: int, what: str = "matrix") -> None:
    cap = entry_cap()
    if count > cap:
        shown = count if count < 10**4300 else "at least 10^4300"  # int-to-text stops at 4300 digits
        raise CapExceededError(
            f"{what} needs {shown} entries, above the cap of {cap} "
            "(override with set_entry_cap() or HCC_MATRIX_CAP)"
        )


def check_power_count(base: int, exponent: int, what: str) -> None:
    """``check_entry_count(base**exponent, what)``, refused before the power
    is computed when exponent * floor(log2 base) shows it above 10^4300."""
    if exponent * (base.bit_length() - 1) >= 14285:  # 2^14285 > 10^4300
        check_entry_count(10**4300, what)
    check_entry_count(base**exponent, what)


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def check_prime(p: int) -> None:
    if isinstance(p, int) and p > MAX_PRIME:  # decided before any trial division
        raise ValueError(f"modulus must be a prime integer, at most MAX_PRIME = {MAX_PRIME}, got {p}")
    if not isinstance(p, int) or not is_prime(p):
        raise ValueError(f"modulus must be a prime integer, got {p!r}")


def inv_mod(a: int, p: int) -> int:
    """Inverse of a nonzero residue modulo the prime ``p``."""
    a %= p
    if a == 0:
        raise ZeroDivisionError("0 is not invertible")
    return pow(a, p - 2, p)


class FpMatrix:
    """Immutable dense matrix with entries in F_p."""

    __slots__ = ("_a", "p")

    def __init__(self, rows: int, cols: int, entries: Sequence[int], p: int):
        check_prime(p)
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        check_entry_count(rows * cols, "matrix")
        a = np.asarray(entries, dtype=np.int64).reshape(rows, cols) % p
        object.__setattr__(self, "_a", a)
        object.__setattr__(self, "p", p)
        a.setflags(write=False)

    def __setattr__(self, name, value):
        raise AttributeError("FpMatrix is immutable")

    @classmethod
    def _wrap(cls, a: np.ndarray, p: int) -> "FpMatrix":
        # internal: a already reduced mod p, int64, int32 or int16, 2-d
        m = object.__new__(cls)
        object.__setattr__(m, "_a", a)
        object.__setattr__(m, "p", p)
        a.setflags(write=False)
        return m

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], p: int, cols: int | None = None) -> "FpMatrix":
        rows = [list(r) for r in rows]
        if rows:
            cols = len(rows[0])
            if any(len(r) != cols for r in rows):
                raise ValueError("ragged rows")
        elif cols is None:
            cols = 0
        flat = [x for r in rows for x in r]
        return cls(len(rows), cols, flat, p)

    @classmethod
    def zeros(cls, rows: int, cols: int, p: int) -> "FpMatrix":
        check_prime(p)
        check_entry_count(rows * cols, "matrix")
        return cls._wrap(np.zeros((rows, cols), dtype=np.int64), p)

    @classmethod
    def identity(cls, n: int, p: int) -> "FpMatrix":
        check_prime(p)
        check_entry_count(n * n, "matrix")
        return cls._wrap(np.eye(n, dtype=np.int64) % p, p)

    @property
    def rows(self) -> int:
        return self._a.shape[0]

    @property
    def cols(self) -> int:
        return self._a.shape[1]

    @property
    def array(self) -> np.ndarray:
        """Read-only view of the underlying residue array: int64, or int32 or int16 where built internally."""
        return self._a

    def entry(self, i: int, j: int) -> int:
        return int(self._a[i, j])

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(int(x) for x in self._a[:, j])

    def to_rows(self) -> list[list[int]]:
        return [[int(x) for x in row] for row in self._a]

    def transpose(self) -> "FpMatrix":
        return FpMatrix._wrap(np.ascontiguousarray(self._a.T), self.p)

    def is_zero(self) -> bool:
        return not self._a.any()

    def __matmul__(self, other: "FpMatrix") -> "FpMatrix":
        if not isinstance(other, FpMatrix):
            return NotImplemented
        if self.p != other.p:
            raise ValueError("modulus mismatch")
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        check_entry_count(self.rows * other.cols, "matrix product")
        return FpMatrix._wrap(_mul_mod(self._a, other._a, self.p), self.p)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FpMatrix):
            return NotImplemented
        return self.p == other.p and self._a.shape == other._a.shape and bool(
            np.array_equal(self._a, other._a)
        )

    __hash__ = None  # mutable-free but we don't need hashing

    def __repr__(self) -> str:
        return f"FpMatrix({self.rows}x{self.cols} mod {self.p})"


@dataclass(frozen=True)
class ElementaryOp:
    """A recorded elementary operation, either T(i, j, q) or S(i, j)."""

    kind: str  # "T" or "S"
    i: int
    j: int
    q: int = 0

    def __post_init__(self):
        if self.kind not in ("T", "S"):
            raise ValueError(f"unknown operation kind {self.kind!r}")
        if self.kind == "T" and self.q == 0:
            raise ValueError("T operation requires a nonzero multiplier")
        if self.kind == "S" and self.i == self.j:
            raise ValueError("S operation requires distinct indices")


def _apply_row(op: ElementaryOp, a: np.ndarray, p: int) -> None:
    if op.kind == "S":
        a[[op.i, op.j]] = a[[op.j, op.i]]
    else:
        a[op.j] = (a[op.j] + op.q * a[op.i]) % p


def _apply_col(op: ElementaryOp, a: np.ndarray, p: int) -> None:
    if op.kind == "S":
        a[:, [op.i, op.j]] = a[:, [op.j, op.i]]
    else:
        a[:, op.i] = (a[:, op.i] + op.q * a[:, op.j]) % p


@dataclass(frozen=True)
class SnfResult:
    """Smith normal form of a matrix, as a replayable factorization.

    Applying ``left_ops`` (in order, as row operations) and then
    ``right_ops`` (in order, as column operations) to the input matrix
    yields a matrix that is zero outside the leading diagonal block
    ``diag(diagonal)`` of size ``rank``.
    """

    diagonal: tuple[int, ...]
    left_ops: tuple[ElementaryOp, ...]
    right_ops: tuple[ElementaryOp, ...]
    rank: int

    def replay(self, m: FpMatrix) -> FpMatrix:
        """Apply the recorded operations to ``m`` and return the result."""
        a = m.array.astype(np.int64)
        for op in self.left_ops:
            _apply_row(op, a, m.p)
        for op in self.right_ops:
            _apply_col(op, a, m.p)
        return FpMatrix._wrap(a, m.p)


def block_diagonal(diagonal: Sequence[int], rows: int, cols: int, p: int) -> FpMatrix:
    """The ``rows x cols`` matrix with ``diagonal`` in its leading block."""
    a = np.zeros((rows, cols), dtype=np.int64)
    for k, d in enumerate(diagonal):
        a[k, k] = d % p
    return FpMatrix._wrap(a, p)


def _mul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """``a @ b`` mod p for residue matrices by float64 BLAS: the inner dimension
    is cut into chunks with chunk*(p-1)^2 < 2^53, so each chunk product is exact,
    and ``b`` is copied to float64 at most _MUL_ENTRIES entries, whole columns, at a time."""
    a = np.asarray(a, dtype=np.float64)
    step = ((1 << 53) - 1) // (p - 1) ** 2
    cols = max(1, _MUL_ENTRIES // max(1, b.shape[0]))
    acc = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    for t in range(0, b.shape[1], cols):
        bt, out = b[:, t : t + cols].astype(np.float64), acc[:, t : t + cols]
        for s in range(0, a.shape[1], step):
            out += (a[:, s : s + step] @ bt[s : s + step]).astype(np.int64)
            out %= p
    return acc


def _panel_product(mult: np.ndarray, prows: np.ndarray, width: type) -> np.ndarray:
    """``mult @ prows`` in the integer ``width``, not reduced: both are
    float64 residue arrays with inner dimension at most PANEL, so the
    product is exact, and ``_echelon`` passes a width it fits in."""
    return (mult @ prows).astype(width)


def _lazy_bound(rows: int, cols: int, p: int) -> int:
    """No entry or panel product of ``_echelon``'s unreduced updates gets this far from zero."""
    return min(rows, cols) * (p - 1) ** 2 + p


def elimination_dtype(rows: int, cols: int, p: int) -> type:
    """The width ``rank`` eliminates a rows x cols matrix over F_p in: the
    narrowest of int16, int32 and int64 whose maximum is above the lazy
    bound (int64 if none is, and then ``_echelon`` refuses the matrix)."""
    bound = _lazy_bound(rows, cols, p)
    return np.int16 if bound < 2**15 - 1 else np.int32 if bound < 2**31 - 1 else np.int64


def _echelon(a: np.ndarray, p: int, reduced: bool = False) -> list[int]:
    """Row-reduce ``a`` in place; returns the pivot column indices.

    Pivot rows are scaled to 1, which is fine here: this routine backs
    rank and membership computations, not the recorded normal form.

    Columns go PANEL at a time.  A small update is applied to its rows at
    once.  A large one only clears its pivot column and records its
    multipliers (``mult``) and pivot row (``prows``): each later column of
    the panel is brought up to date by one product just before its pivot
    search, a row before it becomes a pivot, and the trailing columns by
    one product at the end of the panel.

    Updates subtract without reducing mod p, in ``a``'s own width.  A
    column is reduced just before its pivot search and a pivot row when it
    is chosen, so every multiplier and pivot-row entry is a residue: every
    outer-product term and scaled pivot-row entry is at most (p-1)^2, and
    every panel product of k recorded updates at most k (p-1)^2.  An entry
    takes at most one update per pivot, and k is at most the number of
    pivots, so entries and panel products stay within the lazy bound
    min(rows, cols) (p-1)^2 + p of zero.  An array whose width's maximum
    that bound reaches is refused with ``CapExceededError``; for int64 that
    takes min(rows, cols) > 8,388,672 at p = MAX_PRIME.  ``rank`` takes its
    width from ``elimination_dtype``.  Rows above the pivots (``reduced``)
    are reduced once at the end.
    """
    n_rows, n_cols = a.shape
    bound = _lazy_bound(n_rows, n_cols, p)
    if bound >= np.iinfo(a.dtype).max:
        raise CapExceededError(f"eliminating a {n_rows}x{n_cols} matrix mod {p} in {a.dtype.name} "
                               f"needs entries up to {bound}, past its range")
    pivots: list[int] = []
    r = 0
    for c0 in range(0, n_cols, PANEL):
        c1 = min(c0 + PANEL, n_cols)
        k = 0  # updates recorded in this panel, in mult and prows
        done = c0  # columns left of this one are up to date
        for c in range(c0, c1):
            if r == n_rows:
                break
            top = 0 if reduced else r
            if k:
                a[top:, c] -= _panel_product(mult[top:, :k], prows[:k, c - c0], a.dtype)
            a[top:, c] %= p
            done = c + 1
            nz = np.nonzero(a[r:, c])[0]
            if nz.size == 0:
                continue
            i = r + int(nz[0])
            if i != r:
                a[[r, i]] = a[[i, r]]
                if k:
                    mult[[r, i]] = mult[[i, r]]
            if k and mult[r, :k].any():
                a[r, c + 1 :] -= _panel_product(mult[r, :k], prows[:k, c + 1 - c0 :], a.dtype)
                mult[r] = 0
            # rows r.. vanish left of column c, so only columns c.. change
            a[r, c:] %= p
            piv = int(a[r, c])
            if piv != 1:
                a[r, c:] = a[r, c:] * inv_mod(piv, p) % p
            rows = r + 1 + np.nonzero(a[r + 1 :, c])[0]
            if reduced and r:
                rows = np.concatenate((np.nonzero(a[:r, c])[0], rows))
            if rows.size * (n_cols - c1) >= DEFER_ENTRIES:
                if not k:  # the panel's first recorded update
                    mult, prows = np.zeros((n_rows, c1 - c0)), np.zeros((c1 - c0, n_cols - c0))
                mult[rows, k] = a[rows, c]
                prows[k, c - c0 :] = a[r, c:]
                k += 1
                a[rows, c] = 0
            else:
                a[rows, c:] -= np.outer(a[rows, c], a[r, c:])
            pivots.append(c)
            r += 1
        pending = np.nonzero(mult[:, :k].any(axis=1))[0] if k else ()
        for s in range(0, len(pending), _FLUSH_ROWS):
            rows = pending[s : s + _FLUSH_ROWS]
            a[rows, done:] -= _panel_product(mult[rows, :k], prows[:k, done - c0 :], a.dtype)
    if reduced:
        a[:r] %= p
    return pivots


def _contract(r: np.ndarray, c: np.ndarray, v: np.ndarray, rw: np.ndarray, n: int, p: int) -> tuple:
    """Contract a breadth-first spanning forest of the graph on the n columns
    whose edges are the weight-2 rows: each tree edge is one pivot, and each
    tree becomes its root's column sum(s_c col_c), with s_root = 1 and
    s_y = -s_x a[e, x] / a[e, y] for the tree row e that reached y from x, so
    every tree row is 0 on it.  Returns the rows on those columns and the pivots."""
    k = np.flatnonzero(rw[r] == 2)
    pairs = k[np.argsort(r[k], kind="stable")].reshape(-1, 2)  # the two entries of each weight-2 row
    src, dst, at_dst = c[pairs].ravel(), c[pairs[:, ::-1]].ravel(), v[pairs[:, ::-1]].ravel()  # arc 2e + 1 reverses 2e
    distinct, back = np.unique(at_dst, return_inverse=True)
    ratio = -v[pairs].ravel() * np.array([inv_mod(x, p) for x in distinct.tolist()])[back] % p
    seen, first, s, root, pivots = np.zeros(n, bool), np.zeros(n, np.intp), np.ones(n, np.int64), np.arange(n), 0
    for x0 in (x for x in np.flatnonzero(np.bincount(src, minlength=n)).tolist() if not seen[x]):  # tree roots
        seen[x0] = True
        while (arcs := np.flatnonzero(seen[src] & ~seen[dst])).size:  # out of the last level only
            first[dst[arcs]] = arcs
            arcs = arcs[first[dst[arcs]] == arcs]  # one arc into each column of the next level
            x, y = src[arcs], dst[arcs]
            seen[y], s[y], root[y] = True, s[x] * ratio[arcs] % p, root[x]
            pivots += arcs.size
    key, i = np.unique(r * n + root[c], return_inverse=True)
    v = np.bincount(i, weights=v * s[c] % p).astype(np.int64) % p  # exact: n residues sum below 2^53
    r, c = np.divmod(key[v != 0], n)
    return r, c, v[v != 0], pivots


def _structured(a: np.ndarray, p: int) -> tuple[np.ndarray, int]:
    """``rank``'s structured pass on the nonzero entries (r, c, v) of ``a``:
    the core it leaves, and the rank it eliminated.  A step costs about the
    entries left, so the pass stops once a step pivots on fewer than one line
    per n_rows + n_cols of them.  Before the first step the lines of weight
    at most 2 stand in for its pivots, and with too few ``a`` is the core."""
    nz = a != 0
    rw, cw = nz.sum(axis=1, dtype=np.int32), nz.sum(axis=0, dtype=np.int32)
    (n_rows, n_cols), eliminated, k = a.shape, 0, max(np.count_nonzero(rw <= 2), np.count_nonzero(cw <= 2))
    if k * (n_rows + n_cols) < rw.sum():
        return a, 0
    r, c = np.divmod(np.flatnonzero(nz), n_cols)
    v = a[r, c].astype(np.int64)
    while k * (n_rows + n_cols) >= r.size:
        if (rw == 1).any() or (cw == 1).any():  # weight-1 rows, or else columns: no pivot changes another entry
            x, y, w, n = (r, c, rw, n_cols) if (rw == 1).any() else (c, r, cw, n_rows)
            one, hit = w[x] == 1, np.zeros(n, dtype=bool)
            hit[y[one]] = True  # one pivot per distinct line they hit
            keep, k = ~(one | hit[y]), int(np.count_nonzero(hit))
            r, c, v = r[keep], c[keep], v[keep]
        elif (rw == 2).any():
            r, c, v, k = _contract(r, c, v, rw, n_cols, p)
        elif (cw == 2).any():
            c, r, v, k = _contract(c, r, v, cw, n_rows, p)
        else:
            break
        eliminated += k
        rw, cw = np.bincount(r, minlength=n_rows), np.bincount(c, minlength=n_cols)
    core = np.zeros((np.count_nonzero(rw), np.count_nonzero(cw)), dtype=np.int64)  # zero lines go
    core[np.cumsum(rw > 0)[r] - 1, np.cumsum(cw > 0)[c] - 1] = v
    return core, eliminated


def rank(m: FpMatrix) -> int:
    """F_p-rank.  A structured pass repeats three exact rules until none
    applies: zero rows and columns go; the weight-1 rows, or else columns,
    are pivoted on in bulk; the weight-2 rows, or else columns, are
    contracted along a spanning forest (``_contract``).  ``_echelon`` then
    eliminates the core on a copy in ``elimination_dtype``'s width.  An array
    with both sides below STRUCTURED_SIDE, or too few lines of weight <= 2
    for the pass to pay (``_structured``), is its own core."""
    a, eliminated = _structured(m.array, m.p) if max(m.array.shape) >= STRUCTURED_SIDE else (m.array, 0)
    return eliminated + len(_echelon(a.astype(elimination_dtype(*a.shape, m.p)), m.p))


def kernel_dim(m: FpMatrix) -> int:
    """Dimension of the left kernel ``{v : v M = 0}``."""
    return m.rows - rank(m)


def rref(m: FpMatrix) -> tuple[FpMatrix, tuple[int, ...]]:
    """Reduced row-echelon form and its pivot columns."""
    a = m.array.astype(np.int64)
    pivots = _echelon(a, m.p, reduced=True)
    return FpMatrix._wrap(a, m.p), tuple(pivots)


def smith_normal_form(m: FpMatrix) -> SnfResult:
    """Diagonalize over F_p using only T and S operations.

    The pivot at each step is the first nonzero entry of the active
    submatrix in column-major scan order (columns left to right, each
    searched top to bottom), which makes the recorded operation sequence
    deterministic.  The rows below each pivot are cleared in one step; the
    column operations that clear its row are only recorded, since each
    changes one entry, to zero.
    """
    p = m.p
    a = m.array.astype(np.int64)
    n_rows, n_cols = a.shape
    left: list[ElementaryOp] = []
    right: list[ElementaryOp] = []
    k = 0
    while k < min(n_rows, n_cols):
        pivot = None
        for c in range(k, n_cols):
            nz = np.nonzero(a[k:, c])[0]
            if nz.size:
                pivot = (k + int(nz[0]), c)
                break
        if pivot is None:
            break
        pi, pc = pivot
        if pi != k:
            op = ElementaryOp("S", k, pi)
            left.append(op)
            _apply_row(op, a, p)
        if pc != k:
            op = ElementaryOp("S", k, pc)
            right.append(op)
            _apply_col(op, a, p)
        inv = inv_mod(int(a[k, k]), p)
        rows = k + 1 + np.nonzero(a[k + 1 :, k])[0]
        qs = -a[rows, k] * inv % p
        a[rows] = (a[rows] + qs[:, None] * a[k]) % p
        left.extend(ElementaryOp("T", k, i, q) for i, q in zip(rows.tolist(), qs.tolist()))
        # column k now holds only the pivot, so T(c, k, q) changes only entry (k, c), to 0
        row = a[k, k + 1 :].tolist()
        right.extend(ElementaryOp("T", c, k, -v * inv % p) for c, v in enumerate(row, k + 1) if v)
        a[k, k + 1 :] = 0
        k += 1
    diagonal = tuple(int(a[i, i]) for i in range(k))
    return SnfResult(diagonal=diagonal, left_ops=tuple(left), right_ops=tuple(right), rank=k)
