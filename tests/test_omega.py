import math

import pytest

from hcc.fpexact import CapExceededError
from hcc.omega import (
    check_inequality_suite,
    omega_by_alternating_sum,
    omega_by_convolution,
    omega_by_partitions,
    pi_value,
)


def iterated_convolution(p, r):
    """The coefficients of (1 + x + ... + x^{p-1})^r, multiplying by the window once per factor."""
    coeffs = [1]
    for _ in range(r):
        coeffs = [sum(coeffs[max(0, m - p + 1) : m + 1]) for m in range(len(coeffs) + p - 1)]
    return tuple(coeffs)


class TestConvolution:
    def test_recurrence_equals_iterated_convolution(self):
        for p in (2, 3, 5, 7, 11, 13):
            for r in range(1, 30):
                assert omega_by_convolution(p, r).coeffs == iterated_convolution(p, r), (p, r)

    def test_largest_p2_table_is_binomial(self):
        try:
            t = omega_by_convolution(2, 10_000)
            for k in (0, 1, 2, 17, 999, 4_999, 5_000, 5_001, 7_777, 9_998, 9_999, 10_000):
                assert t.value(k) == math.comb(10_000, k), k
                assert t.pi(k) == 9_999 * t.coeffs[k] - sum(t.coeffs[k + 1 :]), k
        finally:
            omega_by_convolution.cache_clear()  # the session keeps no 10,001-entry table

    def test_rank_one_all_ones(self):
        for p in (2, 3, 5, 7):
            assert omega_by_convolution(p, 1).coeffs == (1,) * p

    def test_rank_two_tent(self):
        t = omega_by_convolution(3, 2)
        assert t.coeffs == (1, 2, 3, 2, 1)
        for p in (3, 5, 7):
            t = omega_by_convolution(p, 2)
            for m in range(p):
                assert t.value(m) == m + 1
            for m in range(p, 2 * p - 1):
                assert t.value(m) == 2 * p - m - 1

    def test_p2_is_binomial(self):
        for r in range(1, 10):
            assert omega_by_convolution(2, r).coeffs == tuple(math.comb(r, k) for k in range(r + 1))

    def test_out_of_range_zero(self):
        t = omega_by_convolution(3, 2)
        assert t.value(-1) == 0 and t.value(5) == 0

    def test_sum_is_p_to_r(self):
        for p, r in ((2, 6), (3, 4), (5, 3), (7, 2)):
            assert sum(omega_by_convolution(p, r).coeffs) == p**r

    def test_head_values(self):
        for p, r in ((2, 5), (3, 4), (5, 2)):
            t = omega_by_convolution(p, r)
            assert t.coeffs[0] == 1 and t.coeffs[1] == r

    def test_exceeds_64_bits(self):
        t = omega_by_convolution(2, 70)
        assert t.value(35) == math.comb(70, 35) > 2**63

    def test_degree_cap(self):
        with pytest.raises(CapExceededError):
            omega_by_convolution(3, 6000)


class TestAlternatingSum:
    def test_examples(self):
        assert omega_by_alternating_sum(3, 2, 2) == 3
        assert omega_by_alternating_sum(2, 4, 2) == 6
        assert omega_by_alternating_sum(5, 3, 6) == omega_by_convolution(5, 3).value(6)

    def test_out_of_range_is_zero(self):
        assert omega_by_alternating_sum(3, 2, 5) == 0
        assert omega_by_alternating_sum(3, 2, -1) == 0

    def test_agrees_with_convolution(self):
        for p in (2, 3, 5, 7):
            for r in range(1, 13):
                t = omega_by_convolution(p, r)
                for k in range(r * (p - 1) + 1):
                    assert omega_by_alternating_sum(p, r, k) == t.value(k), (p, r, k)


class TestPartitions:
    def test_examples(self):
        assert omega_by_partitions(2, 5, 3) == 10  # C(5, 3)
        assert omega_by_partitions(3, 3, 2) == 6
        for p in (2, 3, 5, 7):
            assert omega_by_partitions(p, 9, 1) == 9

    def test_range_errors(self):
        with pytest.raises(ValueError):
            omega_by_partitions(3, 4, 0)
        with pytest.raises(ValueError):
            omega_by_partitions(3, 4, 5)

    def test_agrees_with_convolution(self):
        for p in (2, 3, 5, 7):
            for r in range(1, 13):
                t = omega_by_convolution(p, r)
                for m in range(1, r + 1):
                    assert omega_by_partitions(p, r, m) == t.value(m), (p, r, m)


class TestStructure:
    def test_recursion(self):
        for p in (2, 3, 5, 7):
            for r in range(2, 13):
                cur = omega_by_convolution(p, r)
                prev = omega_by_convolution(p, r - 1)
                for m in range(r * (p - 1) + 1):
                    assert cur.value(m) == sum(prev.value(m - i) for i in range(p))

    def test_symmetry_and_unimodality(self):
        for p in (2, 3, 5, 7):
            for r in range(2, 13):
                t = omega_by_convolution(p, r)
                deg = r * (p - 1)
                for m in range(deg + 1):
                    assert t.value(m) == t.value(deg - m)
                for m in range(1, deg // 2 + 1):
                    assert t.value(m) > t.value(m - 1)
                assert max(t.coeffs) == t.value(deg // 2)

    def test_binomial_floor(self):
        for p in (3, 5, 7):
            for r in range(1, 13):
                t = omega_by_convolution(p, r)
                for k in range(r + 1):
                    assert t.value(k) >= math.comb(r, k)

    def test_ratio_bound(self):
        for p in (3, 5, 7):
            for r in range(1, 13):
                t = omega_by_convolution(p, r)
                for m in range(1, r + 1):
                    lhs = m * t.value(m)
                    rhs = (r - m + 1) * t.value(m - 1)
                    assert lhs >= rhs
                    assert (lhs == rhs) == (m == 1)

    def test_ratio_is_identity_at_p2(self):
        for r in range(1, 13):
            t = omega_by_convolution(2, r)
            for m in range(1, r + 1):
                assert m * t.value(m) == (r - m + 1) * t.value(m - 1)


class TestPi:
    def test_max_location(self):
        for r in range(1, 13):
            values = [pi_value(2, r, k) for k in range(r + 1)]
            best = max(values)
            argmax = [k for k, v in enumerate(values) if v == best]
            if r == 2:
                assert argmax == [1, 2]  # the single tie in the family
            else:
                assert argmax == [(r + 1) // 2]

    def test_lower_bound_equality_cases(self):
        for r in range(1, 16):
            val = pi_value(2, r, (r + 1) // 2)
            assert val >= 2 ** (r - 1) - 1
            assert (val == 2 ** (r - 1) - 1) == (r in (1, 2))

    def test_compare_to_p2(self):
        for p in (3, 5, 7):
            for r in range(1, 13):
                for j in range((r + 1) // 2 + 1):
                    assert pi_value(p, r, r * (p - 1) - j) >= pi_value(2, r, r - j)

    def test_range_error(self):
        with pytest.raises(ValueError):
            pi_value(2, 3, 4)


class TestSuite:
    def test_each_table_is_computed_once(self):
        # 4 r_max distinct tables, above the cache's 256 at r_max = 65: the cap
        # check builds none, so no table is built, evicted and built again
        omega_by_convolution.cache_clear()
        check_inequality_suite(65)
        assert omega_by_convolution.cache_info().misses == 260

    def test_cap_is_checked_without_a_table(self):
        message = r"^degree r\(p-1\) = 10002 above cap 10000$"
        omega_by_convolution.cache_clear()
        with pytest.raises(CapExceededError, match=message):
            check_inequality_suite(1667)
        assert omega_by_convolution.cache_info().misses == 0
        with pytest.raises(CapExceededError, match=message):
            omega_by_convolution(7, 1667)

    def test_no_violations(self):
        report = check_inequality_suite(30, t_max=15)
        assert report.discipline_violations() == ()

    def test_threshold_family_truth_values(self):
        report = check_inequality_suite(30)
        rows = {r.params[0]: r for r in report.family("hrk_threshold")}
        assert not rows[1].holds and rows[1].equality  # 1 vs 1
        assert not rows[2].holds and rows[2].equality  # 4 vs 4
        assert not rows[3].holds and not rows[3].equality  # 9 < 10
        assert rows[4].holds  # 24 > 22
        assert all(rows[r].holds for r in range(4, 31))

    def test_central_family_values(self):
        report = check_inequality_suite(10, t_max=3)
        odd = {r.params[0]: r for r in report.family("central_odd")}
        assert odd[0].lhs == 1 and odd[0].rhs == 1 and odd[0].equality
        assert odd[1].lhs == 9 and odd[1].rhs == 7
        even = {r.params[0]: r for r in report.family("central_even")}
        assert even[1].lhs == 6 and even[1].rhs == 6 and even[1].equality
        assert even[2].lhs == 42 and even[2].rhs == 30
