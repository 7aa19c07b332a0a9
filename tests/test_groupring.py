import ast
import dataclasses
import gc
import hashlib
import json
import time
import tracemalloc
import weakref
from itertools import permutations, product
from pathlib import Path

import numpy as np
import pytest

from hcc import cli, corpus, fpexact, groupring, selfcheck
from hcc.fpexact import CapExceededError
from hcc.groupring import (
    GroupRingElement,
    GroupValidationError,
    OrderedGroup,
    augmentation,
    delta_product,
    filtration_profile,
    is_balanced,
    make_cyclic,
    make_elementary_abelian,
    make_product,
    parse_group_table,
    ring_mul,
)
from test_fpexact import reference_rref


class TestConstructors:
    def test_z2_squared_order(self):
        g = make_elementary_abelian(2, 2)
        assert g.size == 4
        assert g.element_names == ("0", "e1", "e2", "e1+e2")
        assert g.identity_index == 0

    def test_z2_cubed_order(self):
        g = make_elementary_abelian(2, 3)
        assert g.element_names == (
            "0", "e1", "e2", "e3", "e1+e2", "e1+e3", "e2+e3", "e1+e2+e3",
        )

    def test_z3_is_cyclic(self):
        g = make_elementary_abelian(3, 1)
        assert g.size == 3
        assert min(k for k in range(1, g.size + 1) if g.power(k)[1] == g.identity_index) == 3

    def test_rank_refused_before_the_order_is_computed(self):
        # p^r at r = 10^9 would be an integer of about 2.5 GB
        tracemalloc.start()
        try:
            with pytest.raises(CapExceededError, match="^multiplication table needs at least 10\\^4300 entries"):
                make_elementary_abelian(fpexact.MAX_PRIME, 10**9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_elementary_abelian_table_is_coordinate_addition(self):
        for p, r in ((2, 1), (2, 5), (2, 8), (3, 1), (3, 4), (5, 3), (7, 2), (13, 2)):
            g = make_elementary_abelian(p, r)
            coords = np.array(g.ea_tuples)
            index = {t: i for i, t in enumerate(g.ea_tuples)}
            sums = (coords[:, None, :] + coords[None, :, :]) % p
            expected = [[index[tuple(int(c) for c in t)] for t in row] for row in sums]
            assert g.mult.tolist() == expected, (p, r)

    def test_built_tables_are_groups(self):
        # make_elementary_abelian and make_cyclic skip validation: check
        # here that their tables pass it, add coordinates and residues, and
        # carry the identity and inverses the validating constructor finds
        pairs = ((2, 1), (2, 4), (2, 7), (3, 3), (5, 2), (7, 2))
        built = [(make_elementary_abelian(p, r), None) for p, r in pairs]
        built += [(make_cyclic(n), n) for n in (1, 2, 5, 12, 31)]
        for g, n in built:
            g._validate()
            if n is None:
                coords = np.array(g.ea_tuples)
                p = g.is_elementary_abelian()[0]
                sums = (coords[:, None, :] + coords[None, :, :]) % p
                assert g.mult.tolist() == [[g.ea_index[tuple(int(c) for c in t)] for t in row] for row in sums]
            else:
                assert g.mult.tolist() == [[(x + y) % n for y in range(n)] for x in range(n)]
            checked = OrderedGroup(g.mult)
            assert g.identity_index == checked.identity_index == 0, g.label
            assert np.array_equal(g.inverse_table, checked.inverse_table), g.label
            assert not g.mult.flags.writeable

    @staticmethod
    def assert_group_matches(g, label, mult, inverses, names, tuples, gens, ea_type):
        n = len(names)
        assert g.label == label and g.size == n and g.identity_index == 0
        assert np.array_equal(g.mult, mult) and g.mult.dtype == np.int64, label
        assert not g.mult.flags.writeable
        assert np.array_equal(g.inverse_table, inverses), label
        assert g.element_names == names, label
        assert g.ea_tuples == tuples, label
        assert g.ea_index == (None if tuples is None else {t: i for i, t in enumerate(tuples)}), label
        digest = hashlib.sha256(str(n).encode() + np.ascontiguousarray(mult, dtype=np.int64).tobytes())
        assert g.table_hash == digest.hexdigest(), label
        assert g.generating_set() == gens, label
        assert g.is_elementary_abelian() == ea_type, label
        for attr in ("element_names", "ea_tuples", "ea_index"):  # built once, then the same object
            assert getattr(g, attr) is getattr(g, attr), (label, attr)

    def test_elementary_abelian_matches_the_coordinate_oracle(self):
        # the weight order by sorting tuples, the table as coordinate addition
        # mod p, and each name spelled from its tuple
        for p in (2, 3, 5, 7, 11):
            r = 1
            while p**r <= 1024:
                tuples = sorted(product(range(p), repeat=r), key=lambda t: (sum(t), tuple(-c for c in t)))
                position = {t: i for i, t in enumerate(tuples)}
                radix = [p ** (r - 1 - k) for k in range(r)]
                index_of_code = np.empty(p**r, dtype=np.int64)
                index_of_code[[sum(c * w for c, w in zip(t, radix)) for t in tuples]] = np.arange(p**r)
                coords = np.array(tuples, dtype=np.int64)
                sum_codes = sum((coords[:, None, k] + coords[None, :, k]) % p * radix[k] for k in range(r))
                names = tuple(
                    "+".join(f"{c}e{i + 1}" if c > 1 else f"e{i + 1}" for i, c in enumerate(t) if c) if any(t) else "0"
                    for t in tuples
                )
                inverses = [position[tuple(-c % p for c in t)] for t in tuples]
                self.assert_group_matches(
                    make_elementary_abelian(p, r), f"(Z{p})^{r}", index_of_code[sum_codes], inverses,
                    names, tuple(tuples), tuple(range(1, r + 1)), (p, r),
                )
                r += 1

    def test_cyclic_matches_the_residue_oracle(self):
        for n in range(1, 257):
            idx = np.arange(n)
            prime = n > 1 and all(n % d for d in range(2, n))
            self.assert_group_matches(
                make_cyclic(n), f"Z{n}", (idx[:, None] + idx[None, :]) % n, -idx % n,
                tuple(str(i) for i in range(n)), None, (1,) if n > 1 else (), (n, 1) if prime else None,
            )

    def test_profile_builds_no_element_data(self):
        # ring and bounds read only the table: the per-element tuples and
        # names of a built group stay unbuilt through a profile
        g = make_elementary_abelian(2, 9)
        assert filtration_profile(2, g).delta_dims[:3] == (512, 511, 502)
        assert filtration_profile(2, make_cyclic(8)).nilpotent
        assert not {"element_names", "ea_tuples", "ea_index"} & set(vars(g))
        assert "element_names" in vars(make_product(make_cyclic(2), make_cyclic(3)))

    def test_table_entries_must_be_indices(self):
        with pytest.raises(GroupValidationError, match="^table entries must be element indices$"):
            OrderedGroup([[0, 2], [2, 0]])
        for entry in (2**70, -(2**70)):  # outside int64: refused as an index, not an OverflowError
            with pytest.raises(GroupValidationError, match="^table entries must be element indices$"):
                OrderedGroup([[0, 1], [1, entry]])
        with pytest.raises(GroupValidationError, match="^need one element name per element$"):
            OrderedGroup([[0, 1], [1, 0]], element_names=["a"])

    def test_cyclic_trivial(self):
        g = make_cyclic(1)
        assert g.size == 1
        assert g.generating_set() == ()

    def test_cyclic_four_has_order_four_element(self):
        g = make_cyclic(4)
        assert min(k for k in range(1, g.size + 1) if g.power(k)[1] == g.identity_index) == 4

    def test_product_isomorphic_to_elementary_abelian(self):
        a = make_product(make_cyclic(2), make_cyclic(2))
        b = make_elementary_abelian(2, 2)
        # exhaustive isomorphism search on the 3 non-identity elements
        found = False
        for perm in permutations(range(1, 4)):
            mapping = [0] + list(perm)
            if all(
                mapping[a.op(x, y)] == b.op(mapping[x], mapping[y])
                for x in range(4)
                for y in range(4)
            ):
                found = True
                break
        assert found

    def test_elementary_abelian_detection(self):
        assert make_elementary_abelian(2, 2).is_elementary_abelian() == (2, 2)
        assert make_elementary_abelian(3, 2).is_elementary_abelian() == (3, 2)
        assert make_cyclic(4).is_elementary_abelian() is None
        assert make_cyclic(6).is_elementary_abelian() is None
        assert make_cyclic(5).is_elementary_abelian() == (5, 1)

    def test_bad_tables_rejected(self):
        with pytest.raises(GroupValidationError):
            OrderedGroup([[0, 1], [1, 1]])  # row not a permutation
        with pytest.raises(GroupValidationError):
            OrderedGroup([[1, 0, 2], [0, 2, 1], [2, 1, 0]])  # Latin, no identity

    def test_identity_found_anywhere(self):
        g = OrderedGroup([[1, 0], [0, 1]])  # Z_2 with identity at index 1
        assert g.identity_index == 1
        # associative magma check: a Latin square with identity that is not a group
        latin = [
            [0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1],
            [4, 3, 1, 2, 0],
        ]
        with pytest.raises(GroupValidationError):
            OrderedGroup(latin)


class TestTableFormat:
    def test_roundtrip(self):
        g = make_cyclic(3)
        text = "order 3\n" + "\n".join(" ".join(str(x) for x in row) for row in g.mult)
        parsed = parse_group_table(text)
        assert parsed.size == 3
        assert np.array_equal(parsed.mult, g.mult)

    def test_identity_must_be_zero(self):
        # Z_2 written with identity at index 1
        text = "order 2\n1 0\n0 1"
        with pytest.raises(GroupValidationError):
            parse_group_table(text)

    def test_entry_cap_before_rows_are_converted(self):
        n = 600
        text = "order 600\n" + "\n".join(" ".join(str((i + j) % n) for j in range(n)) for i in range(n))
        old = fpexact.entry_cap()
        tracemalloc.start()
        try:
            fpexact.set_entry_cap(n * n - 1)
            tracemalloc.reset_peak()
            with pytest.raises(CapExceededError, match="multiplication table needs 360000 entries"):
                parse_group_table(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            fpexact.set_entry_cap(old)
        assert peak < 2 * len(text)  # the converted rows would take over 8 MB

    def test_header_errors(self):
        with pytest.raises(GroupValidationError):
            parse_group_table("size 2\n0 1\n1 0")
        with pytest.raises(GroupValidationError):
            parse_group_table("order 2\n0 1")


class TestRingOps:
    def test_identity_law(self):
        rng = np.random.default_rng(1)
        g = make_elementary_abelian(2, 2)
        for _ in range(5):
            v = GroupRingElement(g, 2, rng.integers(0, 2, size=4))
            e = GroupRingElement.delta(g, 2, g.identity_index)
            assert ring_mul(e, v) == v
            assert ring_mul(v, e) == v

    def test_square_in_f3_z2(self):
        g = make_cyclic(2)
        x = GroupRingElement(g, 3, [-1, 1])  # delta_g - delta_e
        sq = ring_mul(x, x)
        assert list(sq.coeffs) == [2, 1]
        assert sq == 1 * x  # a nonzero multiple of x: delta ideal is idempotent

    def test_group_law(self):
        g = make_elementary_abelian(2, 2)
        d = GroupRingElement.delta
        assert ring_mul(d(g, 2, 1), d(g, 2, 2)) == d(g, 2, 3)  # e1 * e2 = e1+e2

    def test_associativity_random(self):
        rng = np.random.default_rng(2)
        for p, g in ((2, make_elementary_abelian(2, 2)), (3, make_cyclic(4))):
            for _ in range(5):
                u, v, w = (
                    GroupRingElement(g, p, rng.integers(0, p, size=g.size)) for _ in range(3)
                )
                assert ring_mul(ring_mul(u, v), w) == ring_mul(u, ring_mul(v, w))

    def test_mismatch_errors(self):
        a = GroupRingElement.zero(make_cyclic(2), 2)
        b = GroupRingElement.zero(make_cyclic(3), 2)
        c = GroupRingElement.zero(make_cyclic(2), 3)
        with pytest.raises(ValueError):
            ring_mul(a, b)
        with pytest.raises(ValueError):
            ring_mul(a, c)


class TestAugmentation:
    def test_delta_is_one(self):
        g = make_cyclic(5)
        for h in range(5):
            assert augmentation(GroupRingElement.delta(g, 5, h)) == 1

    def test_difference_is_balanced(self):
        g = make_cyclic(5)
        v = GroupRingElement.delta(g, 5, 2) - GroupRingElement.delta(g, 5, g.identity_index)
        assert augmentation(v) == 0
        assert is_balanced(v)

    def test_multiplicative(self):
        rng = np.random.default_rng(3)
        g = make_elementary_abelian(3, 2)
        for _ in range(10):
            u = GroupRingElement(g, 3, rng.integers(0, 3, size=9))
            v = GroupRingElement(g, 3, rng.integers(0, 3, size=9))
            assert augmentation(ring_mul(u, v)) == augmentation(u) * augmentation(v) % 3

    def test_balance_examples(self):
        g = make_elementary_abelian(2, 2)
        assert is_balanced(GroupRingElement.zero(g, 2))
        assert not is_balanced(GroupRingElement.delta(g, 2, 1))
        # the identity row of the torus block: (1, 0, 1, 0)
        assert is_balanced(GroupRingElement(g, 2, [1, 0, 1, 0]))


class TestFiltration:
    def test_z2_squared(self):
        prof = filtration_profile(2, make_elementary_abelian(2, 2))
        assert prof.lambdas == (1, 2, 1)
        assert prof.nilpotent
        assert prof.delta_dims == (4, 3, 1, 0)

    def test_z4_mod2(self):
        prof = filtration_profile(2, make_cyclic(4))
        assert prof.delta_dims == (4, 3, 2, 1, 0)
        assert prof.lambdas == (1, 1, 1, 1)
        assert prof.nilpotent

    def test_z2_mod3_not_nilpotent(self):
        prof = filtration_profile(3, make_cyclic(2))
        assert prof.delta_dims == (2, 1, 1)
        assert not prof.nilpotent
        assert prof.stabilization_k == 1
        assert prof.lambdas == (1, 0)
        assert prof.delta_dims[-1] == 1  # the stable dimension, kept past the last level

    def test_first_two_dims(self):
        for p, g in ((2, make_cyclic(6)), (3, make_elementary_abelian(3, 2))):
            prof = filtration_profile(p, g)
            assert prof.delta_dims[0] == g.size
            assert prof.delta_dims[1] == g.size - 1
            assert all(a >= b for a, b in zip(prof.delta_dims, prof.delta_dims[1:]))

    def test_lambda_sum_when_nilpotent(self):
        prof = filtration_profile(2, make_elementary_abelian(2, 3))
        assert sum(prof.lambdas) == 8
        for k in range(len(prof.delta_dims)):
            assert prof.delta_dims[k] == sum(prof.lambdas[k:])

    def test_membership(self):
        g = make_elementary_abelian(2, 2)
        prof = filtration_profile(2, g)
        x = delta_product(g, 2, [1, 2])
        assert prof.contains(2, x)
        assert not prof.contains(3, x)
        assert prof.contains(0, GroupRingElement.delta(g, 2, 0))
        # past stabilization (k = 3 here) only 0 is left
        assert [prof.contains(k, x) for k in (3, 4, 50)] == [False] * 3
        assert all(prof.contains(k, GroupRingElement.zero(g, 2)) for k in (3, 4, 50))
        # S3 at p = 2: the powers stop at the kernel of F_2[S3] -> F_2[Z2], which holds t - 1 for t of order 3
        s3 = PROFILE_GROUPS["S3"]
        prof = filtration_profile(2, s3)
        orders = [next(j for j in range(1, 7) if s3.power(j)[h] == s3.identity_index) for h in range(6)]
        t, u = orders.index(3), orders.index(2)
        assert prof.stabilization_k == 2
        for k in (1, 2, 3, 50):
            assert prof.contains(k, delta_product(s3, 2, [t]))
            assert prof.contains(k, delta_product(s3, 2, [u])) == (k == 1)
        # p does not divide |H|: every power from the first on is the augmentation ideal
        z5 = make_cyclic(5)
        prof = filtration_profile(2, z5)
        for c in product(range(2), repeat=5):
            v = GroupRingElement(z5, 2, c)
            assert prof.contains(0, v)
            assert [prof.contains(k, v) for k in (1, 2, 7)] == [is_balanced(v)] * 3

    def test_negative_k_is_refused(self):
        # k = -1 is refused, not read as a power that every element lies in
        g = make_cyclic(4)
        prof = filtration_profile(2, g)
        e = GroupRingElement.delta(g, 2, 0)
        assert prof.contains(0, e)
        with pytest.raises(ValueError, match="k must be non-negative"):
            prof.contains(-1, e)
        # an element of another group ring is refused after k, whether the group or p differs
        for foreign in (GroupRingElement.delta(make_cyclic(5), 2, 0), GroupRingElement.delta(g, 3, 0)):
            with pytest.raises(ValueError, match="k must be non-negative"):
                prof.contains(-1, foreign)
            with pytest.raises(ValueError, match="does not live in this profile's group ring"):
                prof.contains(0, foreign)

    def test_cache_holds_dims_once_per_table(self, monkeypatch):
        # one Jennings run per (p, table) across distinct group objects; each
        # call returns a new profile, and one dropped by its caller is freed
        calls = []
        jennings_dims = groupring._jennings_dims
        monkeypatch.setattr(groupring, "_PROFILE_CACHE", {})
        monkeypatch.setattr(groupring, "_jennings_dims", lambda p, g: calls.append(p) or jennings_dims(p, g))
        groups = [make_cyclic(9), make_cyclic(9), make_elementary_abelian(3, 2)]
        profiles = [filtration_profile(p, g) for p in (3, 2) for g in groups]
        assert calls == [3, 3, 2, 2]
        assert [prof.delta_dims for prof in profiles[:3]] == [tuple(range(9, -1, -1))] * 2 + [(9, 8, 6, 3, 1, 0)]
        assert all(prof.group is g for prof, g in zip(profiles, groups * 2))
        assert filtration_profile(3, groups[0]) is not profiles[0] and calls == [3, 3, 2, 2]
        ref = weakref.ref(profiles[0])
        del profiles
        gc.collect()
        assert ref() is None

    def test_profile_carries_the_callers_group(self):
        # Z3 and (Z3)^1 have one table, so one cached set of dimensions
        a, b = make_elementary_abelian(3, 1), make_cyclic(3)
        assert a.table_hash == b.table_hash
        assert filtration_profile(3, a).group is a and filtration_profile(3, b).group is b

    def test_cache_keeps_no_group_alive(self):
        g = make_cyclic(25)
        filtration_profile(5, g)
        ref = weakref.ref(g)
        del g
        gc.collect()
        assert ref() is None

    def test_order_permutation_leaves_dims(self):
        rng = np.random.default_rng(4)
        g = make_elementary_abelian(2, 3)
        perm = rng.permutation(8)
        inv = np.empty(8, dtype=int)
        inv[perm] = np.arange(8)
        table = perm[g.mult[inv][:, inv]]
        shuffled = OrderedGroup(table)
        assert filtration_profile(2, shuffled).delta_dims == filtration_profile(2, g).delta_dims


def test_jennings_small():
    for p, r in ((2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 1)):
        from hcc.omega import omega_by_convolution

        prof = filtration_profile(p, make_elementary_abelian(p, r))
        assert prof.lambdas == omega_by_convolution(p, r).coeffs, (p, r)


def generated_group(gens, op):
    """The table of the group generated by ``gens`` under ``op``, by closure."""
    elements = list(gens)
    for x in elements:
        for g in gens:
            y = op(x, g)
            if y not in elements:
                elements.append(y)
    index = {x: i for i, x in enumerate(elements)}
    return OrderedGroup([[index[op(x, y)] for y in elements] for x in elements])


def compose(a, b):
    return tuple(a[k] for k in b)


def quaternion(a, b):
    # Q8 as pairs of Gaussian integers: (z, w) is the matrix [[z, w], [-conj w, conj z]]
    (z1, w1), (z2, w2) = a, b
    return (z1 * z2 - w1 * w2.conjugate(), z1 * w2 + w1 * z2.conjugate())


def heisenberg(a, b):
    # upper unitriangular 3 x 3 matrices mod 3 as (x, y, z): [[1, x, z], [0, 1, y], [0, 0, 1]]
    return ((a[0] + b[0]) % 3, (a[1] + b[1]) % 3, (a[2] + b[2] + a[0] * b[1]) % 3)


PROFILE_GROUPS = {
    "D4": generated_group([(1, 2, 3, 0), (3, 2, 1, 0)], compose),
    "Q8": generated_group([(1j, 0j), (0j, 1 + 0j)], quaternion),
    "S3": generated_group([(1, 0, 2), (1, 2, 0)], compose),
    "A4": generated_group([(1, 2, 0, 3), (1, 0, 3, 2)], compose),
    "D5": generated_group([(1, 2, 3, 4, 0), (4, 3, 2, 1, 0)], compose),
    "D8": generated_group([(1, 2, 3, 4, 5, 6, 7, 0), (7, 6, 5, 4, 3, 2, 1, 0)], compose),
    "Heis3": generated_group([(1, 0, 0), (0, 1, 0)], heisenberg),
}


def test_profile_groups_are_the_named_tables():
    # order, and the number of elements of order 2
    for name, shape in (("D4", (8, 5)), ("Q8", (8, 1)), ("S3", (6, 3)), ("A4", (12, 3)),
                        ("D5", (10, 5)), ("D8", (16, 9)), ("Heis3", (27, 0))):
        g = PROFILE_GROUPS[name]
        involutions = sum(1 for x in range(g.size) if x != g.identity_index and g.op(x, x) == g.identity_index)
        assert (g.size, involutions) == shape, name
        assert not g.is_abelian()


def test_is_abelian_matches_the_transpose_check():
    rng = np.random.default_rng(9)
    groups = list(PROFILE_GROUPS.values()) + [make_cyclic(n) for n in (1, 2, 12)] + [make_elementary_abelian(2, 3)]
    groups += [make_product(PROFILE_GROUPS["S3"], make_cyclic(3)), make_product(PROFILE_GROUPS["Q8"], make_cyclic(2)),
               make_product(make_cyclic(2), make_cyclic(4)), make_product(PROFILE_GROUPS["Heis3"], make_cyclic(2))]
    for g in groups + [relabelled(g, rng) for g in groups]:
        assert g.is_abelian() == bool(np.array_equal(g.mult, g.mult.T)), g


def reference_levels(group, p):
    """Reduced bases of the powers of the augmentation ideal, by plain-Python
    Gauss-Jordan on the recursion I^(k+1) = span{b (delta_g - delta_e)} over
    basis rows b of I^k and every element g, until two dimensions repeat."""
    n = group.size
    mult = group.mult.tolist()
    levels = [reference_rref([[int(i == j) for j in range(n)] for i in range(n)], p)]
    while len(levels) < 2 or len(levels[-1][1]) != len(levels[-2][1]):
        rows, pivots = levels[-1]
        stack = []
        for b in rows[: len(pivots)]:
            for g in range(n):
                shifted = [0] * n
                for x in range(n):
                    shifted[mult[x][g]] = b[x]
                stack.append([(u - v) % p for u, v in zip(shifted, b)])
        levels.append(reference_rref(stack, p) if stack else ([], ()))
    return levels


def reference_contains(level, v, p):
    rows, pivots = level
    v = list(v)
    for row, c in zip(rows, pivots):
        f = v[c]
        v = [(x - f * y) % p for x, y in zip(v, row)]
    return not any(v)


@pytest.mark.parametrize(
    "name, group, p",
    [
        ("Z8", make_cyclic(8), 2),
        ("Z9", make_cyclic(9), 3),
        ("Z12", make_cyclic(12), 2),
        ("Z6", make_cyclic(6), 3),
        ("Z5", make_cyclic(5), 2),
        ("Z4", make_cyclic(4), 3),
        ("Z7", make_cyclic(7), 5),
        ("Z2^4", make_elementary_abelian(2, 4), 2),
        ("Z3^2", make_elementary_abelian(3, 2), 3),
        ("Z5^1", make_elementary_abelian(5, 1), 5),
        ("Z2^3", make_elementary_abelian(2, 3), 3),
        *((name, PROFILE_GROUPS[name], p) for name in ("D4", "Q8", "S3", "A4") for p in (2, 3)),
    ],
)
def test_profile_against_reference_elimination(name, group, p):
    prof = filtration_profile(p, group)
    levels = reference_levels(group, p)
    dims = [len(pivots) for _, pivots in levels]
    stable = len(dims) - 2  # first k with dims[k] == dims[k + 1]
    nilpotent = dims[-1] == 0
    assert prof.nilpotent == nilpotent
    assert prof.stabilization_k == stable
    expected = tuple(dims[: stable + 1] if nilpotent else dims)
    assert prof.delta_dims == expected
    assert prof.lambdas == tuple(a - b for a, b in zip(expected, expected[1:]))
    if name in ("S3", "A4"):
        assert not prof.nilpotent
    rng = np.random.default_rng(sum(map(ord, name)) + p)
    n = group.size
    answers = []
    for k in range(len(dims) + 1):
        level = levels[min(k, len(levels) - 1)]
        rows, pivots = level
        basis = np.array(rows[: len(pivots)], dtype=np.int64).reshape(-1, n)
        members = [rng.integers(0, p, size=len(pivots)) @ basis % p for _ in range(3)]
        candidates = [
            *members,
            *((v + rng.integers(0, p, size=n) * (rng.random(n) < 0.2)) % p for v in members),
            *(rng.integers(0, p, size=n) for _ in range(3)),
            *(delta_product(group, p, rng.integers(0, n, size=j).tolist()).coeffs for j in (max(k - 1, 0), k, k + 1)),
        ]
        for v in candidates:
            answer = reference_contains(level, v.tolist(), p)
            assert prof.contains(k, GroupRingElement(group, p, v)) == answer, (k, v)
            answers.append(answer)
    assert True in answers and False in answers


def relabelled(group, rng):
    """The same group under a random order of its elements, as a .tbl file may give it."""
    perm = rng.permutation(group.size)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(group.size)
    return OrderedGroup(perm[group.mult[inv][:, inv]])


def assert_eliminated_profile(prof, p, group, rng=None):
    """Every field of ``prof`` equals that of the linear-algebra path, which
    takes one echelon basis per level; groups compare by their table.  With
    ``rng``, ``prof.contains`` also answers as those bases do at every level
    and one past the last, on members of each level and perturbed ones;
    returns the answers."""
    levels = list(selfcheck._level_bases(p, group))
    expected = groupring._profile(p, group, [len(pivots) for _, pivots in levels])
    for f in dataclasses.fields(expected):
        got, want = getattr(prof, f.name), getattr(expected, f.name)
        if f.name == "group":
            got, want = got.table_hash, want.table_hash
        assert got == want, (f.name, p, group.size)
    if rng is None:
        return []
    answers, n = [], group.size
    for k in range(len(levels) + 1):
        basis, pivots = levels[min(k, len(levels) - 1)]
        members = rng.integers(0, p, size=(2, len(pivots))) @ basis % p
        asked = np.vstack([members, (members + rng.integers(0, p, size=(2, n)) * (rng.random((2, n)) < 0.2)) % p])
        rest = asked.copy()  # each row reduced in pivot order against the echelon basis
        for row, c in zip(basis, pivots):
            rest = (rest - rest[:, c : c + 1] * row) % p
        for v, member in zip(asked, (~rest.any(axis=1)).tolist()):
            answers.append(member)
            assert prof.contains(k, GroupRingElement(group, p, v)) == member, (p, group.size, k, v)
    return answers


@pytest.fixture()
def elimination_calls(monkeypatch):
    """Empty profile caches and a count of the groups that went through elimination."""
    calls = []
    level_bases = selfcheck._level_bases

    def counted(p, group):
        calls.append((p, group.size))
        return level_bases(p, group)

    monkeypatch.setattr(groupring, "_PROFILE_CACHE", {})
    monkeypatch.setattr(selfcheck, "_level_bases", counted)
    return calls


def random_product(rng):
    """A p-group times a p'-group or one of S3, A4 and D5, which are not
    nilpotent, for a random prime p."""
    p = int(rng.choice([2, 3, 5, 7]))
    p_groups = [make_cyclic(p ** int(rng.integers(0, 4 if p < 5 else 3)))]
    p_groups.append(make_elementary_abelian(p, int(rng.integers(1, 6 if p == 2 else 3))))
    if p == 2:
        p_groups += [PROFILE_GROUPS[name] for name in ("D4", "Q8", "D8")]
    if p == 3:
        p_groups.append(PROFILE_GROUPS["Heis3"])
    q_groups = [make_cyclic(m) for m in range(1, 8) if m % p]
    if p >= 5:
        q_groups.append(PROFILE_GROUPS["S3"])
    if rng.random() < 0.5:  # p-groups of order <= 16 keep the elimination oracle within about 0.1 s
        p_groups = [g for g in p_groups if g.size <= 16] or [make_cyclic(p)]
        q_groups = [PROFILE_GROUPS[name] for name in ("S3", "A4", "D5")]
    a = p_groups[rng.integers(len(p_groups))]
    b = q_groups[rng.integers(len(q_groups))]
    return p, relabelled(make_product(a, b), rng)


def test_jennings_profile_matches_elimination_on_random_products(elimination_calls):
    rng, questions, answers = np.random.default_rng(20261018), np.random.default_rng(40), []
    for _ in range(40):
        p, group = random_product(rng)
        prof = filtration_profile(p, group)
        assert not elimination_calls, (p, group.size)
        answers += assert_eliminated_profile(prof, p, group, questions)
        elimination_calls.clear()
    assert True in answers and False in answers


def workload_groups():
    """The target groups of the filtration benchmark and of the corpus."""
    pairs = [(127, make_cyclic(127)), (2, make_cyclic(128))]
    pairs += [(p, make_cyclic(n)) for p, n in ((2, 96), (3, 81), (5, 125), (7, 98), (2, 105), (3, 100),
                                               (5, 64), (7, 120), (3, 27), (5, 25))]
    pairs += [(p, make_elementary_abelian(p, r)) for p, r in ((2, 8), (3, 5), (2, 6), (3, 4), (5, 3), (7, 2), (2, 5))]
    pairs += [(2, PROFILE_GROUPS["D4"]), (2, PROFILE_GROUPS["Q8"]), (3, PROFILE_GROUPS["Heis3"])]
    pairs += [(2, make_product(make_cyclic(2), make_cyclic(4))), (2, make_product(PROFILE_GROUPS["Q8"], make_cyclic(2))),
              (3, make_product(make_cyclic(3), make_cyclic(9)))]
    pairs += [(item.p, corpus.build_target(item)) for item in corpus.CORPUS]
    return pairs


def test_workload_and_corpus_groups_take_the_jennings_path(elimination_calls):
    rng = np.random.default_rng(7)
    for p, group in workload_groups():
        group = relabelled(group, rng)
        prof = filtration_profile(p, group)
        assert not elimination_calls, (p, group.size)
        assert_eliminated_profile(prof, p, group)
        elimination_calls.clear()


@pytest.mark.parametrize(
    "name, p",
    [("S3", 2), ("S3", 3), ("A4", 2), ("A4", 3), ("D5", 2), ("S3xZ3", 3)],
)
def test_groups_not_nilpotent_at_p_take_the_fallback(elimination_calls, name, p):
    """None of these is the direct product of its p-elements and its
    p'-elements; the Jennings path equals elimination on them too."""
    group = make_product(PROFILE_GROUPS["S3"], make_cyclic(3)) if name == "S3xZ3" else PROFILE_GROUPS[name]
    prof = filtration_profile(p, group)
    assert not elimination_calls
    assert_eliminated_profile(prof, p, group)


def affine_group(q, a):
    """The maps x -> a^i x + b on Z_q: AGL(1, q) when ``a`` generates the units mod q."""
    return generated_group([tuple((x + 1) % q for x in range(q)), tuple(a * x % q for x in range(q))], compose)


def quotient_groups():
    """Sixteen groups whose largest p-group quotients differ with p, most of them not nilpotent."""
    s3, a4, d5 = (PROFILE_GROUPS[name] for name in ("S3", "A4", "D5"))
    s4 = generated_group([(1, 2, 3, 0), (1, 0, 2, 3)], compose)
    a5 = generated_group([(1, 2, 0, 3, 4), (1, 2, 3, 4, 0)], compose)
    d6 = generated_group([(1, 2, 3, 4, 5, 0), (5, 4, 3, 2, 1, 0)], compose)
    return {"S3": s3, "A4": a4, "S4": s4, "A5": a5, "D4": PROFILE_GROUPS["D4"], "D5": d5, "D6": d6,
            "F20": affine_group(5, 2), "AGL(1,7)": affine_group(7, 3), "S3xZ4": make_product(s3, make_cyclic(4)),
            "A4xZ3": make_product(a4, make_cyclic(3)), "S3xS3": make_product(s3, s3),
            "D6xZ2": make_product(d6, make_cyclic(2)), "S4xZ2": make_product(s4, make_cyclic(2)),
            "Z12": make_cyclic(12), "Z18": make_cyclic(18)}


def test_quotient_profiles_match_elimination_on_relabelled_groups(elimination_calls):
    rng = np.random.default_rng(27)
    groups = quotient_groups()
    orders = [(name, g.size) for name, g in groups.items()]
    assert orders == [("S3", 6), ("A4", 12), ("S4", 24), ("A5", 60), ("D4", 8), ("D5", 10), ("D6", 12),
                      ("F20", 20), ("AGL(1,7)", 42), ("S3xZ4", 24), ("A4xZ3", 36), ("S3xS3", 36),
                      ("D6xZ2", 24), ("S4xZ2", 48), ("Z12", 12), ("Z18", 18)]
    questions, answers = np.random.default_rng(64), []
    for name, group in groups.items():
        group = relabelled(group, rng)
        for p in (2, 3, 5, 7):
            prof = filtration_profile(p, group)
            assert not elimination_calls, (name, p)
            answers += assert_eliminated_profile(prof, p, group, questions)
            elimination_calls.clear()
    assert True in answers and False in answers


def test_contains_bases_are_freed_with_the_profile():
    # contains builds the Jennings frame of S3 x (Z2)^3 at p = 3; only the profile keeps it
    tracemalloc.start()
    try:
        group = make_product(PROFILE_GROUPS["S3"], make_elementary_abelian(2, 3))
        prof = filtration_profile(3, group)
        x = GroupRingElement.delta(group, 3, 1) - GroupRingElement.delta(group, 3, 0)
        assert prof.contains(1, x)
        del prof, x, group
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 16 << 10, held


def test_contains_builds_the_bases_once_per_profile(elimination_calls, monkeypatch):
    # the Jennings frame is built from one more series walk, on a profile's first contains; nothing eliminates
    def refuse(a, p):
        raise AssertionError("contains eliminated")

    walks, jennings_series = [], groupring._jennings_series
    monkeypatch.setattr(groupring, "_jennings_series", lambda p, g: walks.append(p) or jennings_series(p, g))
    monkeypatch.setattr(fpexact, "_echelon", refuse)
    assert not hasattr(groupring, "fpexact") and not hasattr(groupring, "_level_bases")
    s3, ea = PROFILE_GROUPS["S3"], make_elementary_abelian(2, 3)
    for p, group in ((3, s3), (2, ea), (2, make_product(s3, make_cyclic(4)))):
        prof = filtration_profile(p, group)
        assert walks == [p]  # the dimensions
        x = GroupRingElement.delta(group, p, 1) - GroupRingElement.delta(group, p, 0)
        assert prof.contains(0, x) and prof.contains(1, x)
        assert walks == [p, p] and elimination_calls == []
        assert filtration_profile(p, group).contains(1, x) and walks == [p, p, p]  # a new profile, a new frame
        walks.clear()


def test_level_bases_own_their_rows():
    for p, group in ((3, PROFILE_GROUPS["S3"]), (2, PROFILE_GROUPS["A4"]), (2, make_elementary_abelian(2, 3))):
        levels = list(selfcheck._level_bases(p, group))
        assert len(levels) > 2
        for basis, pivots in levels:
            assert basis.base is None and basis.shape == (len(pivots), group.size)


def test_cyclic_1024_is_uniserial_and_fast(capsys):
    # F_2[Z_1024] = F_2[x]/(x^1024): every level drops by one
    start = time.perf_counter()
    code = cli.main(["ring", "--p", "2", "--cyclic", "1024"])
    elapsed = time.perf_counter() - start
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["delta_dims"] == list(range(1024, -1, -1))
    assert payload["lambdas"] == [1] * 1024
    assert payload["nilpotent"] and payload["stabilization_k"] == 1024
    assert elapsed < 10.0, elapsed


def as_tbl(group):
    """``group`` written in the ``.tbl`` format, its identity moved to index 0, and parsed back."""
    e = group.identity_index
    order = [e] + [x for x in range(group.size) if x != e]
    position = np.empty(group.size, dtype=np.int64)
    position[order] = np.arange(group.size)
    rows = position[group.mult[np.ix_(order, order)]]
    return parse_group_table(f"order {group.size}\n" + "\n".join(" ".join(map(str, row)) for row in rows))


def power_groups():
    """Built, relabelled and ``.tbl`` groups, abelian and not."""
    rng = np.random.default_rng(13)
    s3, a4, d5, q8 = (PROFILE_GROUPS[name] for name in ("S3", "A4", "D5", "Q8"))
    built = [make_cyclic(1), make_cyclic(12), make_elementary_abelian(3, 3), make_elementary_abelian(2, 5),
             make_product(s3, make_cyclic(4)), make_product(q8, make_cyclic(3)), make_product(a4, make_cyclic(2))]
    tables = [s3, a4, d5, q8, PROFILE_GROUPS["Heis3"], make_product(d5, s3)]
    return built + [relabelled(g, rng) for g in built + tables] + [as_tbl(g) for g in tables]


class TestPower:
    def test_power_matches_repeated_products(self):
        rng = np.random.default_rng(2039)
        for group in power_groups():
            e, n = group.identity_index, group.size
            cycles = []  # g^0, g^1, ... up to the order of g, by repeated op
            for g in range(n):
                cycle = [e]
                while len(cycle) == 1 or cycle[-1] != e:
                    cycle.append(group.op(cycle[-1], g))
                cycles.append(cycle[:-1])
            ks = {0, 1, 2, 3, 5, n, n + 1, fpexact.MAX_PRIME, *rng.integers(0, 10**6, size=8).tolist()}
            for k in sorted(ks):
                got = group.power(k)
                assert got.dtype == np.int64 and got.shape == (n,)
                assert got.tolist() == [cycle[k % len(cycle)] for cycle in cycles], (group.label, k)

    def test_negative_exponent_refused(self):
        with pytest.raises(ValueError, match="non-negative"):
            make_cyclic(5).power(-1)

    def test_elementary_abelian_by_exponent(self):
        rng = np.random.default_rng(3)
        for p, r in ((2, 1), (2, 4), (3, 3), (5, 2), (7, 2), (13, 1)):
            g = make_elementary_abelian(p, r)
            assert g.is_elementary_abelian() == relabelled(g, rng).is_elementary_abelian() == (p, r)
        for n in range(1, 301):
            prime = n > 1 and all(n % d for d in range(2, n))
            assert make_cyclic(n).is_elementary_abelian() == ((n, 1) if prime else None), n
        assert make_product(make_cyclic(2), make_cyclic(2)).is_elementary_abelian() == (2, 2)
        assert make_product(make_cyclic(2), make_cyclic(4)).is_elementary_abelian() is None
        for name in ("S3", "D5"):  # D_p: order 2p, not abelian
            assert PROFILE_GROUPS[name].is_elementary_abelian() is None
        heis = PROFILE_GROUPS["Heis3"]  # exponent 3 but not abelian
        assert (heis.power(3) == heis.identity_index).all() and heis.is_elementary_abelian() is None
        assert OrderedGroup([[0]]).is_elementary_abelian() is None

    def test_large_prime_cyclic_is_decided_fast(self):
        g = make_cyclic(2039)
        start = time.perf_counter()
        assert g.is_elementary_abelian() == (2039, 1)
        assert time.perf_counter() - start < 0.2


def set_closure(group, seed):
    """The subgroup generated by ``seed``, by a breadth-first search over a set."""
    seen, frontier = {group.identity_index}, [group.identity_index]
    while frontier:
        frontier = [y for y in {group.op(x, g) for x in frontier for g in seed} if y not in seen]
        seen.update(frontier)
    return sorted(seen)


def product_fixpoint(group, seed):
    """The subgroup generated by ``seed``: add all member x member products until none is new."""
    members = {group.identity_index, *seed}
    while True:
        grown = {group.op(x, y) for x in members for y in members}
        if grown == members:
            return members
        members = grown


class TestWalk:
    def test_closure_matches_set_search(self):
        rng = np.random.default_rng(14)
        for group in power_groups():
            n, e = group.size, group.identity_index
            seeds = [[], [e], [e, e], list(range(n)), list(range(n))[::-1]]
            for _ in range(6):
                seed = rng.integers(0, n, size=int(rng.integers(1, 5))).tolist()
                seeds += [seed, seed + seed + [e]]
            for seed in seeds:
                got = np.flatnonzero(group._walk(seed)[0])
                assert got.tolist() == set_closure(group, seed), (group.label, seed)

    def test_generating_set_is_the_reclosing_rule(self):
        for group in power_groups():
            kept, known = [], {group.identity_index}
            for g in range(group.size):
                if len(known) == group.size:
                    break
                if g not in known:
                    kept.append(g)
                    known = set(set_closure(group, kept))
            assert group.generating_set() == tuple(kept), group.label

    def test_dimension_subgroup_seeds_match_the_product_fixpoint(self):
        # the seeds of Lazard's recursion: commutators [a, s] and p-th powers
        for name, group in PROFILE_GROUPS.items():
            n, inv = group.size, group.inverse
            commutators = [group.op(group.op(inv(a), inv(s)), group.op(a, s))
                           for a in range(n) for s in group.generating_set()]
            seeds = [commutators] + [group.power(p).tolist() for p in (2, 3, 5)]
            for seed in seeds + [commutators + seed for seed in seeds[1:]]:
                mask = group._walk(seed)[0]
                assert set(np.flatnonzero(mask).tolist()) == product_fixpoint(group, seed), name

    def test_homomorphism_position_numbers_the_image_read_only(self):
        from hcc.covers import Homomorphism
        from hcc.presentations import parse_presentation

        pres = parse_presentation("< a, b | a b a^-1 b^-1 >")
        group = relabelled(make_product(make_cyclic(4), make_cyclic(2)), np.random.default_rng(5))
        for images in ([0, 0], [1, 1], [3, 6], [5, 2]):
            hom = Homomorphism(pres, group, images)
            position = hom.position
            # -1 exactly off the image; on it, each element's index in cosets
            assert np.flatnonzero(position >= 0).tolist() == set_closure(group, images)
            assert [position[x] for x in hom.cosets] == list(range(hom.image_order))
            assert hom.image_order == len(set_closure(group, images))
            with pytest.raises(ValueError):
                position[0] = 1


def interface_groups():
    """A cyclic, two elementary abelian, a product and a ``.tbl`` group."""
    return [make_cyclic(6), make_elementary_abelian(2, 3), make_elementary_abelian(3, 2),
            make_product(PROFILE_GROUPS["S3"], make_cyclic(2)), as_tbl(PROFILE_GROUPS["A4"])]


class TestInterface:
    def test_op_and_inverse_broadcast_as_the_tables(self):
        for group in interface_groups():
            idx = np.arange(group.size)
            assert np.array_equal(group.op(idx[:, None], idx), group.mult), group.label
            for h in range(group.size):
                assert np.array_equal(group.op(idx, h), group.mult[:, h]), (group.label, h)
                assert np.array_equal(group.op(h, idx), group.mult[h]), (group.label, h)
            assert np.array_equal(group.inverse(idx), group.inverse_table), group.label
            for a, b in ((0, 0), (group.size - 1, 1), (np.int64(2), np.int64(group.size - 1))):
                assert type(group.op(a, b)) is int and group.op(a, b) == group.mult[a, b]
                assert type(group.inverse(a)) is int and group.inverse(a) == group.inverse_table[a]

    def test_no_table_read_outside_the_group(self):
        # Outside groupring, .mult is only equivariant_block's table; inside it,
        # only OrderedGroup and make_product read .mult or .inverse_table.
        def table_reads(tree):
            return [node for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and node.attr in ("mult", "inverse_table")]

        for path in sorted(Path(groupring.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(), str(path))
            if path.name == "groupring.py":
                readers = ("OrderedGroup", "make_product")
                outside = [stmt for stmt in tree.body if getattr(stmt, "name", None) not in readers]
                assert not [node.lineno for stmt in outside for node in table_reads(stmt)], path.name
                continue
            block_tables = {id(call.args[0]) for call in ast.walk(tree) if isinstance(call, ast.Call) and call.args
                            and getattr(call.func, "id", getattr(call.func, "attr", None)) == "equivariant_block"}
            stray = [node.lineno for node in table_reads(tree)
                     if node.attr == "inverse_table" or id(node) not in block_tables]
            assert not stray, (path.name, stray)
