"""Coefficients of (1 + x + ... + x^{p-1})^r, exactly.

The k-th coefficient counts r-tuples of integers in [0, p-1] summing to
k; by Jennings' theorem it also equals the k-th dimension jump of the
augmentation-ideal filtration of F_p[(Z_p)^r].  Three independent
formulas are implemented (the D-finite recurrence of S^r, an alternating
binomial sum, and a partition sum valid for 1 <= m <= r), plus the signed
tail-comparison values and the small family of binomial inequalities
used to calibrate them.  Everything is arbitrary-precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate

from .fpexact import CapExceededError, check_prime

__all__ = [
    "CONVOLUTION_DEGREE_CAP",
    "InequalityRow",
    "InequalitySuiteReport",
    "OmegaTable",
    "SUITE_PRIMES",
    "check_inequality_suite",
    "omega_by_alternating_sum",
    "omega_by_convolution",
    "omega_by_partitions",
    "pi_value",
]

CONVOLUTION_DEGREE_CAP = 10_000
SUITE_PRIMES = (2, 3, 5, 7)  # the primes the inequality suite and the identity checks range over


@dataclass(frozen=True)
class OmegaTable:
    """All coefficients of (1 + x + ... + x^{p-1})^r, indexed 0..r(p-1)."""

    p: int
    r: int
    coeffs: tuple[int, ...]

    @property
    def degree(self) -> int:
        return self.r * (self.p - 1)

    def value(self, k: int) -> int:
        """Coefficient of x^k; 0 outside the range [0, r(p-1)]."""
        if 0 <= k <= self.degree:
            return self.coeffs[k]
        return 0

    def pi(self, k: int) -> int:
        """(r-1) * coeff(k) minus the tail sum of coefficients above k."""
        if not 0 <= k <= self.degree:
            raise ValueError(f"k must be in [0, {self.degree}], got {k}")
        return (self.r - 1) * self.coeffs[k] - self._tails[k + 1]

    @cached_property
    def _tails(self) -> list[int]:  # _tails[k] = sum(coeffs[k:]), one suffix pass
        return list(accumulate(reversed(self.coeffs), initial=0))[::-1]


def _check_degree(p: int, r: int) -> None:
    if r * (p - 1) > CONVOLUTION_DEGREE_CAP:
        raise CapExceededError(f"degree r(p-1) = {r * (p - 1)} above cap {CONVOLUTION_DEGREE_CAP}")


@lru_cache(maxsize=256)
def omega_by_convolution(p: int, r: int) -> OmegaTable:
    """Exact coefficients c_k of f = S^r, S = 1 + x + ... + x^{p-1}, by the D-finite recurrence
    S f' = r S' f (Stanley, Europ. J. Combin. 1, 1980): at x^k, (k+1) c_{k+1} = (r+1) V_k - (k+1) W_k,
    W_k and V_k the sums of c_{k+1-i} and i c_{k+1-i} over 0 < i < p, each slid in O(1) per step."""
    check_prime(p)
    if r < 1:
        raise ValueError("r must be at least 1")
    _check_degree(p, r)
    c, w, v = [0] * (p - 1) + [1], 0, 0  # c_j at index j + p - 1
    for k in range(r * (p - 1)):  # c[-1] is c_k and c[k] is c_(k+1-p)
        w, v = w + c[-1] - c[k], v + w + c[-1] - p * c[k]
        c.append(((r + 1) * v - (k + 1) * w) // (k + 1))
    return OmegaTable(p=p, r=r, coeffs=tuple(c[p - 1 :]))


def omega_by_alternating_sum(p: int, r: int, k: int) -> int:
    """Coefficient of x^k as an alternating sum of binomial products.

    Out-of-range k returns 0, matching the convention that the
    coefficient vanishes outside [0, r(p-1)].
    """
    check_prime(p)
    if r < 1:
        raise ValueError("r must be at least 1")
    if k < 0 or k > r * (p - 1):
        return 0
    total = 0
    for j in range(k // p + 1):
        total += (-1) ** j * math.comb(r, j) * math.comb(k - p * j + r - 1, k - p * j)
    return total


def omega_by_partitions(p: int, r: int, m: int) -> int:
    """Coefficient of x^m as a sum over partitions of m into parts <= p-1.

    A partition with l parts, the i-th distinct part taken m_i times,
    contributes r!/(r-l)! / prod m_i!: the ways to place its parts into r
    distinct coordinates.  Only derived for 1 <= m <= r; other m is a
    range error rather than 0.
    """
    check_prime(p)
    if r < 1:
        raise ValueError("r must be at least 1")
    if not 1 <= m <= r:
        raise ValueError(f"partition formula requires 1 <= m <= r, got m={m}, r={r}")

    def terms(remaining: int, part: int, n_parts: int, mult_factorials: int) -> int:
        # partitions of ``remaining`` into parts <= ``part``, completing one
        # that already has ``n_parts`` parts and prod m_i! = ``mult_factorials``
        if remaining == 0:
            term, rem = divmod(math.perm(r, n_parts), mult_factorials)
            if rem:
                raise AssertionError("partition term is not integral")
            return term
        if part == 0:
            return 0
        total = 0
        for mult in range(remaining // part + 1):
            rest = remaining - mult * part
            total += terms(rest, part - 1, n_parts + mult, mult_factorials * math.factorial(mult))
        return total

    return terms(m, min(p - 1, m), 0, 1)


def pi_value(p: int, r: int, k: int) -> int:
    """Signed tail comparison (r-1)*coeff(k) - sum of coeff(i) for i > k."""
    return omega_by_convolution(p, r).pi(k)


@dataclass(frozen=True)
class InequalityRow:
    family: str
    params: tuple[int, ...]
    lhs: int
    rhs: int
    holds: bool
    equality: bool


@dataclass(frozen=True)
class InequalitySuiteReport:
    """Exact evaluation of the binomial inequality families.

    Families (all values exact integers; the even-r central family is
    scaled by 2 to stay integral):

    * ``central_odd``:  (2t+1) C(2t+1, t+1)  vs  2^(2t+1) - 1
    * ``central_even``: (4t-1) C(2t, t)      vs  2^(2t+1) - 2
    * ``hrk_threshold``: r C(r, floor(r/2))  vs  3*2^(r-1) - 2, recorded
      as the *strict* comparison (the non-strict one holds with equality
      at r = 1 and r = 2; strictness is what holds exactly for r >= 4)
    * ``pi_lower``: pi at k = floor((r+1)/2) for p = 2  vs  2^(r-1) - 1
    * ``pi_compare``: pi(p, r, r(p-1)-j)  vs  pi(2, r, r-j)
    * ``pi_argmax``: smallest argmax over k of pi(2, r, k)  vs
      floor((r+1)/2); the maximum is attained there, uniquely except at
      r = 2 where pi ties at k = 1 and k = 2
    """

    rows: tuple[InequalityRow, ...]

    def family(self, name: str) -> tuple[InequalityRow, ...]:
        return tuple(row for row in self.rows if row.family == name)

    def discipline_violations(self) -> tuple[str, ...]:
        """Mismatches against the expected pass/equality pattern."""
        bad: list[str] = []
        for row in self.family("central_odd"):
            if not row.holds:
                bad.append(f"central_odd fails at t={row.params[0]}")
            if row.equality != (row.params[0] == 0):
                bad.append(f"central_odd equality pattern broken at t={row.params[0]}")
        for row in self.family("central_even"):
            if not row.holds:
                bad.append(f"central_even fails at t={row.params[0]}")
            if row.equality != (row.params[0] == 1):
                bad.append(f"central_even equality pattern broken at t={row.params[0]}")
        for row in self.family("hrk_threshold"):
            if row.holds != (row.params[0] >= 4):
                bad.append(f"hrk_threshold truth value wrong at r={row.params[0]}")
        for row in self.family("pi_lower"):
            if not row.holds:
                bad.append(f"pi_lower fails at r={row.params[0]}")
            if row.equality != (row.params[0] in (1, 2)):
                bad.append(f"pi_lower equality pattern broken at r={row.params[0]}")
        for row in self.family("pi_compare"):
            if not row.holds:
                bad.append(f"pi_compare fails at (p,r,j)={row.params}")
        for row in self.family("pi_argmax"):
            if not row.holds:
                bad.append(f"pi_argmax off at r={row.params[0]}")
        return tuple(bad)


def check_inequality_suite(r_max: int, t_max: int | None = None) -> InequalitySuiteReport:
    """Evaluate every inequality family exactly over the given ranges and
    the primes ``SUITE_PRIMES``."""
    if r_max < 1:
        raise ValueError("r_max must be at least 1")
    # the largest degree read below, so an r_max over the cap is refused before any row
    _check_degree(max(SUITE_PRIMES), r_max)
    if t_max is None:
        t_max = (r_max - 1) // 2
    rows: list[InequalityRow] = []
    for t in range(t_max + 1):
        lhs = (2 * t + 1) * math.comb(2 * t + 1, t + 1)
        rhs = 2 ** (2 * t + 1) - 1
        rows.append(InequalityRow("central_odd", (t,), lhs, rhs, lhs >= rhs, lhs == rhs))
    for t in range(1, t_max + 1):
        lhs = (4 * t - 1) * math.comb(2 * t, t)
        rhs = 2 ** (2 * t + 1) - 2
        rows.append(InequalityRow("central_even", (t,), lhs, rhs, lhs >= rhs, lhs == rhs))
    for r in range(1, r_max + 1):
        lhs = r * math.comb(r, r // 2)
        rhs = 3 * 2 ** (r - 1) - 2
        rows.append(InequalityRow("hrk_threshold", (r,), lhs, rhs, lhs > rhs, lhs == rhs))
    for r in range(1, r_max + 1):
        lhs = pi_value(2, r, (r + 1) // 2)
        rhs = 2 ** (r - 1) - 1
        rows.append(InequalityRow("pi_lower", (r,), lhs, rhs, lhs >= rhs, lhs == rhs))
    for p in SUITE_PRIMES:
        if p == 2:
            continue
        for r in range(1, r_max + 1):
            for j in range((r + 1) // 2 + 1):
                lhs = pi_value(p, r, r * (p - 1) - j)
                rhs = pi_value(2, r, r - j)
                rows.append(
                    InequalityRow("pi_compare", (p, r, j), lhs, rhs, lhs >= rhs, lhs == rhs)
                )
    for r in range(1, r_max + 1):
        table = omega_by_convolution(2, r)
        values = [table.pi(k) for k in range(r + 1)]
        best = max(values)
        argmaxes = [k for k, v in enumerate(values) if v == best]
        expected = (r + 1) // 2
        # the maximum sits at floor((r+1)/2); it is unique except for the
        # tie pi(2, 2, 1) == pi(2, 2, 2)
        ok = argmaxes == [expected] or (r == 2 and argmaxes == [1, 2])
        rows.append(InequalityRow("pi_argmax", (r,), argmaxes[0], expected, ok, len(argmaxes) == 1))
    return InequalitySuiteReport(rows=tuple(rows))
