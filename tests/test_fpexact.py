import tracemalloc

import numpy as np
import pytest

from hcc import fpexact
from hcc.fpexact import (
    MAX_PRIME,
    CapExceededError,
    ElementaryOp,
    FpMatrix,
    SnfResult,
    block_diagonal,
    kernel_dim,
    rank,
    rref,
    smith_normal_form,
)

# the 4x8 boundary matrix of the torus double-double cover; rank 3
TORUS_B = [
    [1, 0, 1, 0, 1, 1, 0, 0],
    [0, 1, 0, 1, 1, 1, 0, 0],
    [1, 0, 1, 0, 0, 0, 1, 1],
    [0, 1, 0, 1, 0, 0, 1, 1],
]


def reference_rref(rows, p):
    """Independent plain-Python Gauss-Jordan elimination used as the
    oracle: the reduced row-echelon form and its pivot columns."""
    rows = [[x % p for x in r] for r in rows]
    pivots = []
    rk = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rk, len(rows)) if rows[i][c] % p), None)
        if piv is None:
            continue
        rows[rk], rows[piv] = rows[piv], rows[rk]
        inv = pow(rows[rk][c], p - 2, p)
        rows[rk] = [x * inv % p for x in rows[rk]]
        for i in range(len(rows)):
            if i != rk and rows[i][c] % p:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[rk])]
        pivots.append(c)
        rk += 1
    return rows, tuple(pivots)


def reference_rank(rows, p):
    return len(reference_rref(rows, p)[1])


def banded(rng, rows, cols, p):
    """A rows x cols band over F_p: each line across the longer side holds 5
    cyclically consecutive entries from 1..p-1, their starts spread evenly,
    so every row and column has weight at least 3."""
    if rows > cols:
        return banded(rng, cols, rows, p).T
    i = np.repeat(np.arange(rows), 5)
    data = np.zeros((rows, cols), dtype=np.int64)
    data[i, (i * cols // rows + np.tile(np.arange(5), rows)) % cols] = rng.integers(1, p, size=i.size)
    return data


def random_matrix(rng, p, max_side=64):
    """A random matrix over F_p, often with zero columns and zero rows."""
    rows, cols = (int(x) for x in rng.integers(1, max_side, size=2))
    data = rng.integers(0, p, size=(rows, cols))
    data[:, rng.random(cols) < 0.25] = 0
    data[rng.random(rows) < 0.15] = 0
    return data


class TestRank:
    def test_identical_rows_f2(self):
        assert rank(FpMatrix.from_rows([[1, 1], [1, 1]], 2)) == 1

    def test_torus_matrix(self):
        assert rank(FpMatrix.from_rows(TORUS_B, 2)) == 3

    def test_zero_matrix(self):
        assert rank(FpMatrix.zeros(3, 5, 5)) == 0

    def test_empty(self):
        assert rank(FpMatrix.from_rows([], 2, cols=4)) == 0
        assert rank(FpMatrix.zeros(4, 0, 3)) == 0

    def test_transpose_invariant(self):
        rng = np.random.default_rng(7)
        for p in (2, 3, 5):
            for _ in range(10):
                m = FpMatrix(6, 9, rng.integers(0, p, size=54), p)
                assert rank(m) == rank(m.transpose())


class TestKernelDim:
    def test_torus(self):
        assert kernel_dim(FpMatrix.from_rows(TORUS_B, 2)) == 1

    def test_identity(self):
        assert kernel_dim(FpMatrix.identity(4, 3)) == 0

    def test_zero(self):
        assert kernel_dim(FpMatrix.zeros(2, 7, 2)) == 2

    def test_rank_nullity(self):
        rng = np.random.default_rng(11)
        m = FpMatrix(8, 5, rng.integers(0, 3, size=40), 3)
        assert kernel_dim(m) == 8 - rank(m)


class TestSmithNormalForm:
    def test_permutation_needs_one_row_swap(self):
        m = FpMatrix.from_rows([[0, 1], [1, 0]], 3)
        snf = smith_normal_form(m)
        assert snf.diagonal == (1, 1)
        assert [op.kind for op in snf.left_ops] == ["S"]
        assert snf.right_ops == ()

    def test_already_diagonal_unnormalized(self):
        m = FpMatrix.from_rows([[2, 0], [0, 0]], 3)
        snf = smith_normal_form(m)
        assert snf.diagonal == (2,)  # not scaled to 1
        assert snf.left_ops == () and snf.right_ops == ()

    def test_rank_two_f2(self):
        m = FpMatrix.from_rows([[1, 1], [1, 0]], 2)
        snf = smith_normal_form(m)
        assert snf.rank == 2
        assert snf.diagonal == (1, 1)
        assert all(op.kind == "T" for op in snf.left_ops + snf.right_ops)
        assert snf.replay(m) == block_diagonal(snf.diagonal, 2, 2, 2)

    def test_no_scaling_ops_and_nonzero_diagonal(self):
        rng = np.random.default_rng(3)
        for p in (2, 3, 5):
            m = FpMatrix(7, 5, rng.integers(0, p, size=35), p)
            snf = smith_normal_form(m)
            assert all(d != 0 for d in snf.diagonal)
            for op in snf.left_ops + snf.right_ops:
                assert op.kind in ("T", "S")
                if op.kind == "T":
                    assert op.q % p != 0
                else:
                    assert op.i != op.j

    def test_replay_reproduces_block_diagonal(self):
        rng = np.random.default_rng(5)
        for p in (2, 3, 5):
            for _ in range(15):
                rows, cols = rng.integers(1, 12, size=2)
                m = FpMatrix(int(rows), int(cols), rng.integers(0, p, size=int(rows * cols)), p)
                snf = smith_normal_form(m)
                assert snf.replay(m) == block_diagonal(snf.diagonal, int(rows), int(cols), p)

    def test_fuzz_rank_against_reference(self):
        rng = np.random.default_rng(13)
        for p in (2, 3, 5, MAX_PRIME):
            for _ in range(20):
                data = random_matrix(rng, p)
                m = FpMatrix(*data.shape, data.ravel(), p)
                expected = reference_rank(data.tolist(), p)
                assert smith_normal_form(m).rank == expected
                assert rank(m) == expected

    def test_matches_op_by_op_reference(self):
        # empty, zero and rank-deficient matrices among 1,200 seeded ones
        rng = np.random.default_rng(20261019)
        for t in range(1200):
            p = (2, 3, 5, 7, 1009, MAX_PRIME)[t % 6]
            rows, cols = (int(x) for x in rng.integers(0, 12, size=2))
            data = rng.integers(0, p, size=(rows, cols)) * (rng.random((rows, cols)) < rng.random())
            if rows > 2 and t % 3 == 0:  # the last rows combine the first two
                data[2:] = rng.integers(0, p, size=(rows - 2, 2)) @ data[:2] % p
            m = FpMatrix(rows, cols, data.ravel(), p)
            snf = smith_normal_form(m)
            assert snf == reference_snf(m), (p, data.tolist())
            for op in snf.left_ops + snf.right_ops:
                assert all(type(x) is int for x in (op.i, op.j, op.q))


def reference_snf(m):
    """The normal form found by applying every operation entry by entry,
    with the pivot rule and operation order ``smith_normal_form`` keeps."""
    p, a = m.p, m.to_rows()
    n_rows, n_cols = m.rows, m.cols
    left, right, k = [], [], 0
    while k < min(n_rows, n_cols):
        pivot = next(((i, c) for c in range(k, n_cols) for i in range(k, n_rows) if a[i][c]), None)
        if pivot is None:
            break
        pi, pc = pivot
        if pi != k:
            left.append(ElementaryOp("S", k, pi))
            a[k], a[pi] = a[pi], a[k]
        if pc != k:
            right.append(ElementaryOp("S", k, pc))
            for row in a:
                row[k], row[pc] = row[pc], row[k]
        inv = pow(a[k][k], p - 2, p)
        for i in range(k + 1, n_rows):
            if a[i][k]:
                q = -a[i][k] * inv % p
                left.append(ElementaryOp("T", k, i, q))
                a[i] = [(x + q * y) % p for x, y in zip(a[i], a[k])]
        for c in range(k + 1, n_cols):
            if a[k][c]:
                q = -a[k][c] * inv % p
                right.append(ElementaryOp("T", c, k, q))
                for row in a:
                    row[c] = (row[c] + q * row[k]) % p
        k += 1
    diagonal = tuple(a[i][i] for i in range(k))
    return SnfResult(diagonal=diagonal, left_ops=tuple(left), right_ops=tuple(right), rank=k)


def test_product_rank_bound():
    rng = np.random.default_rng(17)
    for p in (2, 3, 5):
        for _ in range(10):
            a = FpMatrix(6, 8, rng.integers(0, p, size=48), p)
            b = FpMatrix(8, 5, rng.integers(0, p, size=40), p)
            assert rank(a @ b) <= min(rank(a), rank(b))


def test_rref_pivots_and_shape():
    m = FpMatrix.from_rows([[0, 2, 1], [0, 1, 0], [0, 1, 2]], 3)
    reduced, pivots = rref(m)
    assert pivots == (1, 2)
    # pivot columns are unit columns
    for r, c in enumerate(pivots):
        col = reduced.column(c)
        assert col[r] == 1 and sum(col) == 1
    # zero columns are skipped, and the pivot rows are reduced above and below
    m = FpMatrix.from_rows([[0, 0, 2, 0, 1], [0, 0, 1, 0, 1], [0, 0, 0, 0, 0]], 5)
    reduced, pivots = rref(m)
    assert pivots == (2, 4)
    assert reduced.to_rows() == [[0, 0, 1, 0, 0], [0, 0, 0, 0, 1], [0, 0, 0, 0, 0]]


def test_rref_against_reference():
    # the reduced form is unique, so it must match the oracle entry for entry
    rng = np.random.default_rng(29)
    for p in (2, 3, 7, MAX_PRIME):
        for _ in range(25):
            data = random_matrix(rng, p, max_side=24)
            reduced, pivots = rref(FpMatrix(*data.shape, data.ravel(), p))
            expected_rows, expected_pivots = reference_rref(data.tolist(), p)
            assert pivots == expected_pivots
            assert reduced.to_rows() == expected_rows


def test_panel_product_is_exact():
    assert fpexact.PANEL * (MAX_PRIME - 1) ** 2 < 2**53


def check_echelon_modes(data, p):
    """Both modes of ``_echelon`` on ``data`` against ``reference_rref``:
    rref mode gives the reduced form itself; rank mode gives the same
    pivots and residue rows in echelon form whose reduced form is it."""
    expected_rows, expected_pivots = reference_rref(data.tolist(), p)
    reduced, pivots = rref(FpMatrix(*data.shape, data.ravel(), p))
    assert pivots == expected_pivots
    assert reduced.to_rows() == expected_rows
    a = data.copy()
    assert fpexact._echelon(a, p) == list(expected_pivots)
    k = len(expected_pivots)
    assert ((0 <= a) & (a < p)).all() and not a[k:].any()
    for r, c in enumerate(expected_pivots):
        assert a[r, c] == 1 and not a[r, :c].any()
    assert reference_rref(a.tolist(), p)[0] == expected_rows
    assert rank(FpMatrix(*data.shape, data.ravel(), p)) == k


@pytest.mark.parametrize("panel", [1, 3, 8, 64])
@pytest.mark.parametrize("defer_entries", [0, 10**9])
def test_panels_against_reference(monkeypatch, panel, defer_entries):
    # random_matrix fits in one default panel: narrow panels take it across
    # panels, and the two thresholds force every update deferred or eager
    monkeypatch.setattr(fpexact, "PANEL", panel)
    monkeypatch.setattr(fpexact, "DEFER_ENTRIES", defer_entries)
    rng = np.random.default_rng(31 + panel)
    for p in (2, 3, 7, MAX_PRIME):
        for k in range(12):
            data = random_matrix(rng, p, max_side=48)
            if k % 2:
                data[rng.random(data.shape) >= 0.05] = 0
            check_echelon_modes(data, p)
    # tall and dense at the largest prime: each entry takes an unreduced
    # update of up to (p-1)^2 from every pivot above it
    for rows, cols in ((120, 40), (200, 70)):
        check_echelon_modes(rng.integers(0, MAX_PRIME, size=(rows, cols)), MAX_PRIME)


@pytest.mark.parametrize("panel", [3, 64])
def test_forced_trailing_reduction(monkeypatch, panel):
    # a lazy bound just below int64's maximum once made the kernel reduce
    # the trailing block after every panel; now the one unreduced regime
    # runs up to that edge, and a bound at the maximum is refused
    monkeypatch.setattr(fpexact, "PANEL", panel)
    edge = int(np.iinfo(np.int64).max)
    monkeypatch.setattr(fpexact, "_lazy_bound", lambda rows, cols, p: edge - 1)
    rng = np.random.default_rng(41 + panel)
    for p in (2, 7, MAX_PRIME):
        for k in range(6):
            data = random_matrix(rng, p, max_side=48)
            if k % 2:
                data[rng.random(data.shape) >= 0.05] = 0
            check_echelon_modes(data, p)
        check_echelon_modes(rng.integers(0, p, size=(40, 100)), p)
        low_rank = rng.integers(0, p, size=(90, 30)) @ rng.integers(0, p, size=(30, 80))
        check_echelon_modes(low_rank % p, p)
    monkeypatch.setattr(fpexact, "_lazy_bound", lambda rows, cols, p: edge)
    data = rng.integers(0, 7, size=(40, 100))
    a = data.copy()
    with pytest.raises(CapExceededError, match=f"needs entries up to {edge}, past its range"):
        fpexact._echelon(a, 7)
    assert (a == data).all()


def test_forced_lazy_bound_is_refused(monkeypatch):
    # a lazy bound past int64 is refused by rank, rref and kernel_dim alike
    monkeypatch.setattr(fpexact, "_lazy_bound", lambda rows, cols, p: 2**63)
    m = FpMatrix.from_rows([[1, 2], [3, 4]], 7)
    for call in (rank, rref, kernel_dim):
        with pytest.raises(CapExceededError, match="2x2 matrix mod 7 in int64 needs entries up to 9223372036854775808"):
            call(m)


def test_int16_past_its_bound_is_refused():
    # 3 x 3 at p = 181: the bound 3 * 180^2 + 181 is past 2^15 - 1, and an
    # int16 array of that shape is refused; one row (180^2 + 181) is not
    data = np.random.default_rng(41).integers(0, 181, size=(3, 3))
    with pytest.raises(CapExceededError, match="3x3 matrix mod 181 in int16 needs entries up to 97381"):
        fpexact._echelon(data.astype(np.int16), 181)
    row = data[:1].astype(np.int16)
    assert fpexact._echelon(row, 181) == list(reference_rref(data[:1].tolist(), 181)[1])
    assert row.tolist() == reference_rref(data[:1].tolist(), 181)[0]


def test_dense_matrix_across_default_panels(monkeypatch):
    products = []
    panel_product = fpexact._panel_product
    monkeypatch.setattr(fpexact, "_panel_product",
                        lambda a, b, width: products.append(a.shape) or panel_product(a, b, width))
    data = np.random.default_rng(37).integers(0, 7, size=(100, 150))
    m = FpMatrix(100, 150, data.ravel(), 7)
    expected_rows, expected_pivots = reference_rref(data.tolist(), 7)
    reduced, pivots = rref(m)
    assert products  # three panels of dense fill: the deferred path ran
    assert pivots == expected_pivots
    assert reduced.to_rows() == expected_rows
    assert rank(m) == len(expected_pivots)


class TestNarrowRank:
    """``rank`` eliminates in the narrowest of int16, int32 and int64 whose
    maximum is above the lazy bound min(rows, cols) (p-1)^2 + p."""

    def test_width_follows_the_bound(self, monkeypatch):
        # each width at its edges: at p = 7 a min side of 909 is under
        # int16's maximum and 910 is not; at p = 181 one row is and two are
        # not; at p = 32749 two rows are under int32's maximum and three not
        assert 909 * 36 + 7 < 2**15 - 1 == 910 * 36 + 7
        assert 180**2 + 181 < 2**15 - 1 < 2 * 180**2 + 181
        assert 2 * 32748**2 + 32749 < 2**31 - 1 < 3 * 32748**2 + 32749
        seen = []
        echelon = fpexact._echelon
        monkeypatch.setattr(fpexact, "_echelon", lambda a, p: seen.append(a.dtype) or echelon(a, p))
        rng = np.random.default_rng(53)
        for p, shape, width in ((181, (1, 40), np.int16), (181, (40, 1), np.int16), (181, (2, 40), np.int32),
                                (181, (40, 2), np.int32), (32749, (2, 40), np.int32), (32749, (40, 2), np.int32),
                                (32749, (3, 40), np.int64), (32749, (30, 30), np.int64)):
            data = rng.integers(0, p, size=shape)
            seen.clear()
            assert rank(FpMatrix(*shape, data.ravel(), p)) == reference_rank(data.tolist(), p)
            assert seen == [width] and fpexact.elimination_dtype(*shape, p) is width, (p, shape)
        # the edges at p = 7, and the heavy covers block's shape, on banded
        # matrices with no line of weight below 3, which reach _echelon whole
        for shape, width in (((909, 950), np.int16), ((950, 909), np.int16), ((910, 950), np.int32),
                             ((687, 1029), np.int16)):
            data = banded(rng, *shape, 7)
            assert (data != 0).sum(axis=0).min() >= 3 and (data != 0).sum(axis=1).min() >= 3
            seen.clear()
            assert rank(FpMatrix(*shape, data.ravel(), 7)) == len(echelon(data.copy(), 7))
            assert seen == [width] and fpexact.elimination_dtype(*shape, 7) is width, shape
        # a reduced array reaches _echelon as its core, in the core's width:
        # the 900 weight-1 rows of D + I go, and the 940 x 950 sum is past
        # int16's edge but its 40 x 50 core D is not
        dense = rng.integers(1, 7, size=(40, 50))
        data = np.zeros((940, 950), dtype=np.int64)
        data[:40, :50], data[40:, 50:] = dense, np.eye(900, dtype=np.int64)
        cores = []
        monkeypatch.setattr(fpexact, "_echelon", lambda a, p: cores.append(a.copy()) or echelon(a, p))
        assert rank(FpMatrix(940, 950, data.ravel(), 7)) == 900 + reference_rank(dense.tolist(), 7)
        assert fpexact.elimination_dtype(940, 950, 7) is np.int32
        assert len(cores) == 1 and cores[0].dtype == fpexact.elimination_dtype(40, 50, 7) == np.int16
        assert np.array_equal(cores[0], dense)

    def test_narrow_echelon_equals_the_wide_one(self, monkeypatch):
        # every width the bound allows gives the int64 pivots and raw
        # arrays, in both modes, deferred panels included: full-size draws
        # up to 160 x 160, int32 at p = 101 with flush products past int16's
        # range; and rows or columns few enough for int16 at p = 101 and 181
        # or for int32 at p = 32749
        flushes = []
        panel_product = fpexact._panel_product

        def record(a, b, width):
            product = panel_product(a, b, width)
            if a.ndim == b.ndim == 2:
                flushes.append((width, int(np.abs(product).max(initial=0))))
            return product

        monkeypatch.setattr(fpexact, "_panel_product", record)
        widths = [np.int16, np.int32, np.int64]
        rng = np.random.default_rng(59)
        for p, side in ((2, None), (3, None), (7, None), (101, None), (101, 3), (181, 1), (32749, 2)):
            for k in range(8):
                data = random_matrix(rng, p, max_side=160)
                if k % 2:
                    data[rng.random(data.shape) >= 0.1] = 0
                if side:
                    data = data[:side] if k % 4 < 2 else data[:, :side]
                narrowest = widths.index(fpexact.elimination_dtype(*data.shape, p))
                assert narrowest < 2
                for reduced in (False, True):
                    wide = data.copy()
                    pivots = fpexact._echelon(wide, p, reduced)
                    for width in widths[narrowest:2]:
                        narrow = data.astype(width)
                        assert fpexact._echelon(narrow, p, reduced) == pivots, (p, side, width, reduced)
                        assert np.array_equal(narrow, wide), (p, side, width, reduced)
        assert any(width == np.int16 for width, _ in flushes)
        assert any(width == np.int32 and top >= 2**15 for width, top in flushes)

    def test_internal_int32_matrix_computes_in_int64(self):
        # an int32 or int16 matrix from _wrap gives its int64 twin's results, in int64
        rng = np.random.default_rng(61)
        for p in (2, 7, 32749):
            for _ in range(10):
                data = random_matrix(rng, p, max_side=20)
                wide = FpMatrix(*data.shape, data.ravel(), p)
                for width in (np.int32, np.int16)[: 1 if p > 2**15 else 2]:
                    narrow = FpMatrix._wrap(data.astype(width), p)
                    assert narrow.array.dtype == width and narrow == wide
                    assert rank(narrow) == rank(wide)
                    (reduced, pivots), (reduced_wide, pivots_wide) = rref(narrow), rref(wide)
                    assert pivots == pivots_wide and reduced.array.dtype == np.int64 and reduced == reduced_wide
                    snf = smith_normal_form(narrow)
                    assert snf == smith_normal_form(wide)
                    replayed = snf.replay(narrow)
                    assert replayed.array.dtype == np.int64 and replayed == snf.replay(wide)
                    assert replayed == block_diagonal(snf.diagonal, *data.shape, p)

    @pytest.mark.parametrize("contiguous", [True, False])
    def test_deferred_flush_in_int32(self, monkeypatch, contiguous):
        # each chunk of a panel's pending rows takes its panel product in
        # the rows' own width, int32 or int16, never widened: with the rows
        # dense, every row below the first panel's pivots is pending; with
        # every other one zero in that panel, those rows take no update and
        # split the pending rows
        flushes = []
        panel_product = fpexact._panel_product
        monkeypatch.setattr(fpexact, "_panel_product", lambda a, b, width: (
            a.ndim == b.ndim == 2 and flushes.append((a.shape[0], width))) or panel_product(a, b, width))
        data = np.random.default_rng(67).integers(0, 7, size=(200, 150))
        if not contiguous:
            data[65::2, :64] = 0
        expected_rows, expected_pivots = reference_rref(data.tolist(), 7)
        for width in (np.int32, np.int16):
            flushes.clear()
            a = data.astype(width)
            assert fpexact._echelon(a, 7) == list(expected_pivots)
            assert flushes and all(w == width for _, w in flushes) and a.dtype == width
            assert max(rows for rows, _ in flushes) <= fpexact._FLUSH_ROWS == 64
            assert not a[len(expected_pivots) :].any() and reference_rref(a.tolist(), 7)[0] == expected_rows
        m = FpMatrix(*data.shape, data.ravel(), 7)
        assert rank(m) == len(expected_pivots)
        reduced, pivots = rref(m)
        assert pivots == expected_pivots
        assert reduced.to_rows() == expected_rows


def signed_graph(rng, p, rows, cols, balanced):
    """Weight-2 rows on ``cols`` columns, entries from 1..p-1.  A share
    ``balanced`` of them vanish on one column vector s (a[e, u] s_u +
    a[e, v] s_v = 0), so every cycle of those rows is balanced; the others
    are random; about one in six is a scaled copy of a row, parallel to it."""
    s = rng.integers(1, p, size=cols)
    u = rng.integers(0, cols, size=rows)
    v = (u + rng.integers(1, cols, size=rows)) % cols
    x = rng.integers(1, p, size=rows)
    on_s = -x * s[u] * np.array([pow(int(t), p - 2, p) for t in s[v]]) % p
    data = np.zeros((rows, cols), dtype=np.int64)
    data[np.arange(rows), u] = x
    data[np.arange(rows), v] = np.where(rng.random(rows) < balanced, on_s, rng.integers(1, p, size=rows))
    again = np.flatnonzero(rng.random(rows) < 1 / 6)
    data[again] = data[rng.integers(0, rows, size=again.size)] * rng.integers(1, p, size=(again.size, 1)) % p
    return data


def sparse_matrix(rng, p, rows, cols, density):
    return np.where(rng.random((rows, cols)) < density, rng.integers(1, p, size=(rows, cols)), 0)


def structured_draws(rng, p):
    """Seeded inputs for the structured pass, sides from 2 to 90: signed
    graphs and their transposes; sparse matrices with planted weight-1 rows
    and columns; sparse matrices; sparse low-rank products; and a signed
    graph beside a dense triangle, which the pass stops in."""
    for k in range(72):
        rows, cols = (int(x) for x in rng.integers(2, 91, size=2))
        if k % 6 == 5:
            data = np.zeros((rows + 40, cols + 40), dtype=np.int64)
            data[:rows, :cols] = signed_graph(rng, p, rows, cols, 0.5)
            data[rows:, cols:] = np.triu(rng.integers(1, p, size=(40, 40)))
            yield data
        elif k % 6 < 2:
            data = signed_graph(rng, p, rows, cols, (0.0, 0.5, 1.0)[k % 3])
            yield data.T if k % 6 else data
        elif k % 6 == 2:
            data = sparse_matrix(rng, p, rows, cols, 0.06)
            for i in rng.choice(rows, size=min(rows, 4), replace=False):
                data[i] = 0
                data[i, rng.integers(cols)] = rng.integers(1, p)
            for j in rng.choice(cols, size=min(cols, 4), replace=False):
                data[:, j] = 0
                data[rng.integers(rows), j] = rng.integers(1, p)
            yield data
        elif k % 6 == 3:
            yield sparse_matrix(rng, p, rows, cols, rng.choice((0.01, 0.03, 0.08)))
        else:
            inner = int(rng.integers(1, 8))
            yield sparse_matrix(rng, p, rows, inner, 0.2) @ sparse_matrix(rng, p, inner, cols, 0.2) % p


@pytest.mark.parametrize("p", [2, 3, 5, 7, MAX_PRIME])
def test_structured_rank_against_the_dense_kernel(monkeypatch, p):
    # entries other than +-1 matter: a weight-2 row's two entries swapped in
    # s_y still give every rank at p <= 3, where each nonzero is +-1
    calls = []
    contract = fpexact._contract
    monkeypatch.setattr(fpexact, "_contract", lambda *args: calls.append(1) or contract(*args))
    rng = np.random.default_rng(67 + p % 1000)
    for k, data in enumerate(structured_draws(rng, p)):
        expected = len(fpexact._echelon(data.copy(), p))
        if k % 3 == 0:
            assert expected == reference_rank(data.tolist(), p)
        assert rank(FpMatrix(*data.shape, data.ravel(), p)) == expected, (p, k, data.shape)
        assert rank(FpMatrix(*data.T.shape, data.T.ravel(), p)) == expected, (p, k, data.shape)
    assert len(calls) >= 25  # the forest contraction ran


def test_structured_pass_stops_where_it_does_not_pay(monkeypatch):
    # a dense triangle would give the pass one weight-1 line per step, each
    # step scanning every entry left: it goes to _echelon whole
    seen = []
    echelon = fpexact._echelon
    monkeypatch.setattr(fpexact, "_echelon", lambda a, p: seen.append(a.shape) or echelon(a, p))
    rng = np.random.default_rng(71)
    for data in (np.triu(rng.integers(1, 7, size=(200, 200))), np.tril(rng.integers(1, 7, size=(250, 250)))):
        seen.clear()
        assert rank(FpMatrix(*data.shape, data.ravel(), 7)) == min(data.shape) and seen == [data.shape]


def test_matmul_in_two_float_chunks_at_max_prime():
    # k * (p-1)^2 reaches 2^53, so the inner dimension is cut in two
    p, k = MAX_PRIME, 9000
    assert k * (p - 1) ** 2 >= 2**53
    a = np.full((3, k), p - 1)
    b = np.full((k, 2), p - 1)
    expected = [[sum(int(x) * int(y) for x, y in zip(row, col)) % p for col in b.T] for row in a]
    assert fpexact._mul_mod(a, b, p).tolist() == expected
    assert (FpMatrix(3, k, a.ravel(), p) @ FpMatrix(k, 2, b.ravel(), p)).to_rows() == expected


def test_matmul_copies_its_right_operand_in_column_chunks():
    # a 1029 x 343 int16 right operand, d1's block on the heavy cover, goes
    # to float64 63 columns (at most 2^16 entries, 0.49 MiB) at a time, the
    # next chunk made before the last is freed, not as one 2.69 MiB copy; at
    # MAX_PRIME two column chunks each take two inner chunks
    rng = np.random.default_rng(71)
    a, b = rng.integers(0, 7, size=(3, 1029)), rng.integers(0, 7, size=(1029, 343)).astype(np.int16)
    assert fpexact._MUL_ENTRIES // 1029 == 63
    tracemalloc.start()
    try:
        product = fpexact._mul_mod(a, b, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(product, a @ b.astype(np.int64) % 7)
    assert peak < 5 << 18, peak / 2**20
    p, k = MAX_PRIME, 9000
    a, b = rng.integers(0, p, size=(2, k)), rng.integers(0, p, size=(k, 10))
    expected = [[sum(int(x) * int(y) for x, y in zip(row, col)) % p for col in b.T] for row in a]
    assert fpexact._mul_mod(a, b, p).tolist() == expected


class TestValidation:
    def test_non_prime_modulus(self):
        with pytest.raises(ValueError):
            FpMatrix.from_rows([[1]], 4)
        with pytest.raises(ValueError):
            FpMatrix.from_rows([[1]], 1)
        # 1048583 is prime, but above MAX_PRIME the int64 kernels could overflow
        with pytest.raises(ValueError, match=f"at most MAX_PRIME = {MAX_PRIME}, got 1048583$"):
            FpMatrix.from_rows([[1]], 1048583)
        assert FpMatrix.from_rows([[MAX_PRIME + 1]], MAX_PRIME).to_rows() == [[1]]

    def test_max_prime(self):
        assert fpexact.is_prime(MAX_PRIME) and MAX_PRIME < 2**20
        assert not any(fpexact.is_prime(q) for q in range(MAX_PRIME + 1, 2**20))
        m = FpMatrix.from_rows([[MAX_PRIME - 1, MAX_PRIME - 1], [1, 1]], MAX_PRIME)
        assert (m @ m).is_zero()

    def test_entries_reduced(self):
        m = FpMatrix.from_rows([[7, -1]], 5)
        assert m.to_rows() == [[2, 4]]

    def test_entry_count_mismatch(self):
        with pytest.raises(ValueError):
            FpMatrix(2, 2, [1, 2, 3], 5)

    def test_cap(self):
        old = fpexact.entry_cap()
        try:
            fpexact.set_entry_cap(16)
            with pytest.raises(CapExceededError):
                FpMatrix.zeros(5, 5, 2)
            FpMatrix.zeros(4, 4, 2)
        finally:
            fpexact.set_entry_cap(old)

    def test_counts_too_large_to_print(self):
        # int-to-text stops at 4300 digits: larger counts print as a bound
        with pytest.raises(CapExceededError) as info:
            fpexact.check_entry_count(10**4300 - 1, "matrix")
        assert str(info.value).startswith(f"matrix needs {'9' * 4300} entries, above the cap of")
        for count in (10**4300, 10**5000):
            with pytest.raises(CapExceededError, match="^matrix needs at least 10\\^4300 entries, above the cap of"):
                fpexact.check_entry_count(count, "matrix")
        # 2^14284 < 10^4300 <= 2^14285 and 3^9012 < 10^4300 <= 3^9014
        for base, exponent, shown in ((2, 14284, str(2**14284)), (2, 14285, "at least 10^4300"),
                                      (3, 9012, str(3**9012)), (3, 9014, "at least 10^4300")):
            with pytest.raises(CapExceededError) as info:
                fpexact.check_power_count(base, exponent, "table")
            assert str(info.value).startswith(f"table needs {shown} entries, above the cap of")
        fpexact.check_power_count(2, 2, "table")

    def test_matmul_mismatch(self):
        a = FpMatrix.zeros(2, 3, 2)
        with pytest.raises(ValueError):
            a @ FpMatrix.zeros(2, 3, 2)
        with pytest.raises(ValueError):
            a @ FpMatrix.zeros(3, 2, 3)

    def test_immutable(self):
        m = FpMatrix.zeros(2, 2, 2)
        with pytest.raises(AttributeError):
            m.p = 3
        with pytest.raises(ValueError):
            m.array[0, 0] = 1

    def test_bad_elementary_ops(self):
        with pytest.raises(ValueError):
            ElementaryOp("T", 0, 1, 0)
        with pytest.raises(ValueError):
            ElementaryOp("S", 2, 2)
        with pytest.raises(ValueError):
            ElementaryOp("X", 0, 1)
