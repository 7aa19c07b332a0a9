"""Full invariant suite, runnable from the CLI and from the acceptance tests.

Each check returns a CheckResult; a falsified theorem-level invariant
makes the check fail and carries the offending instance in its detail.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Iterator

import numpy as np

from . import bounds, corpus, covers, fpexact, groupring, omega, presentations
from .covers import Homomorphism, build_cover, check_balance_pattern, hc_verdict
from .errors import FalsificationError
from .fpexact import FpMatrix
from .groupring import (
    GroupRingElement,
    delta_product,
    filtration_profile,
    is_balanced,
    make_elementary_abelian,
    ring_mul,
)
from .omega import SUITE_PRIMES, omega_by_alternating_sum, omega_by_convolution, omega_by_partitions
from .presentations import complex_summary, normalize_presentation, parse_presentation, reidemeister_schreier

__all__ = ["CheckResult", "run_all", "ALL_CHECKS"]

JENNINGS_LIMIT = 128  # check_jennings covers every (Z_p)^r with p^r at most this
OMEGA_R_MAX = 12
LEDGER_R_MAX, LEDGER_T_MAX = 30, 15
SEED = 20240811  # the random draws of the three property checks


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str


def _fail(name: str, detail: str) -> CheckResult:
    return CheckResult(name, False, detail)


def _ok(name: str, detail: str) -> CheckResult:
    return CheckResult(name, True, detail)


def _falsified(name: str, exc: FalsificationError) -> CheckResult:
    return _fail(name, f"{exc} | instance: {json.dumps(exc.payload, sort_keys=True)}")


TORUS_COVER_MATRIX = [
    [1, 0, 1, 0, 1, 1, 0, 0],
    [0, 1, 0, 1, 1, 1, 0, 0],
    [1, 0, 1, 0, 0, 0, 1, 1],
    [0, 1, 0, 1, 0, 0, 1, 1],
]


def check_torus_golden() -> CheckResult:
    """Criterion 1: the torus cover over (Z_2)^2 reproduces the worked
    4 x 8 boundary matrix bit-exactly, with Betti numbers (1, 2, 1)."""
    name = "torus-golden"
    pres = parse_presentation("< a, b | a b a^-1 b^-1 >")
    group = make_elementary_abelian(2, 2)
    hom = Homomorphism(pres, group, [group.ea_index[(1, 0)], group.ea_index[(0, 1)]])
    cover = build_cover(pres, hom, 2)
    if cover.d2.to_rows() != TORUS_COVER_MATRIX:
        return _fail(name, f"boundary matrix differs: {cover.d2.to_rows()}")
    betti = (cover.b0, cover.b1, cover.b2)
    if betti != (1, 2, 1) or cover.hrk != 4:
        return _fail(name, f"betti {betti}, hrk {cover.hrk}")
    verdict = hc_verdict(cover)
    if not (verdict.passed and verdict.equality and verdict.case == "c"):
        return _fail(name, f"verdict {verdict}")
    return _ok(name, "4x8 matrix exact; betti (1,2,1); hrk 4 = 2^2; case c")


def _level_bases(p: int, group: groupring.OrderedGroup) -> Iterator[tuple[np.ndarray, tuple[int, ...]]]:
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


def check_jennings() -> CheckResult:
    """Criterion 2: filtration jumps of (Z_p)^r equal the coefficients of
    (1 + x + ... + x^{p-1})^r for every p^r <= JENNINGS_LIMIT, both by
    elimination and from the Jennings series."""
    name = "jennings-equality"
    count = 0
    pairs = [
        (p, r)
        for p in range(2, JENNINGS_LIMIT + 1)
        for r in range(1, JENNINGS_LIMIT.bit_length())  # 2^r <= JENNINGS_LIMIT bounds r
        if fpexact.is_prime(p) and p**r <= JENNINGS_LIMIT
    ]
    for p, r in pairs:
        group = make_elementary_abelian(p, r)
        dims = [len(pivots) for _, pivots in _level_bases(p, group)]
        jennings = groupring._jennings_dims(p, group)
        if jennings != dims:
            return _fail(name, f"p={p} r={r}: Jennings dimensions {jennings} != eliminated {dims}")
        lambdas = tuple(a - b for a, b in zip(dims, dims[1:]))
        table = omega_by_convolution(p, r)
        if lambdas != table.coeffs:
            return _fail(
                name,
                f"p={p} r={r}: jumps {lambdas} != coefficients {table.coeffs}",
            )
        if dims[-1] != 0 or sum(lambdas) != p**r:
            return _fail(name, f"p={p} r={r}: profile not nilpotent with total p^r")
        count += 1
    return _ok(name, f"{count} pairs (p, r) with p^r <= {JENNINGS_LIMIT} agree")


def check_omega_identities() -> CheckResult:
    """Criterion 3: three formulas agree; recursion, symmetry, strict
    unimodality, ratio discipline, and total p^r."""
    name = "omega-identities"
    import math

    for p in SUITE_PRIMES:
        for r in range(1, OMEGA_R_MAX + 1):
            table = omega_by_convolution(p, r)
            deg = r * (p - 1)
            if sum(table.coeffs) != p**r:
                return _fail(name, f"p={p} r={r}: coefficients do not sum to p^r")
            if table.coeffs[0] != 1 or table.value(1) != (r if p > 1 else 0):
                return _fail(name, f"p={p} r={r}: leading coefficients wrong")
            for k in range(deg + 1):
                if table.value(k) != omega_by_alternating_sum(p, r, k):
                    return _fail(name, f"p={p} r={r} k={k}: alternating sum disagrees")
                if table.value(k) != table.value(deg - k):
                    return _fail(name, f"p={p} r={r} k={k}: symmetry broken")
                if table.value(k) < math.comb(r, k):
                    return _fail(name, f"p={p} r={r} k={k}: below the binomial floor")
            for m in range(1, r + 1):
                if table.value(m) != omega_by_partitions(p, r, m):
                    return _fail(name, f"p={p} r={r} m={m}: partition formula disagrees")
            if r >= 2:
                prev = omega_by_convolution(p, r - 1)
                for m in range(deg + 1):
                    window = sum(prev.value(m - i) for i in range(p))
                    if table.value(m) != window:
                        return _fail(name, f"p={p} r={r} m={m}: recursion broken")
                for m in range(1, deg // 2 + 1):
                    if not table.value(m) > table.value(m - 1):
                        return _fail(name, f"p={p} r={r} m={m}: not strictly unimodal")
                # p-step comparison around the middle, on the r-th table
                # (the range and the subscript must move together)
                for m in range(deg // 2, ((r + 1) * (p - 1)) // 2 + 1):
                    if not table.value(m) > table.value(m - p):
                        return _fail(name, f"p={p} r={r} m={m}: shifted comparison fails")
            # ratio discipline: m * c(m) vs (r - m + 1) * c(m-1)
            for m in range(1, r + 1):
                lhs = m * table.value(m)
                rhs = (r - m + 1) * table.value(m - 1)
                if p == 2:
                    if lhs != rhs:
                        return _fail(name, f"p=2 r={r} m={m}: binomial ratio identity broken")
                else:
                    if lhs < rhs:
                        return _fail(name, f"p={p} r={r} m={m}: ratio bound fails")
                    if (lhs == rhs) != (m == 1):
                        return _fail(name, f"p={p} r={r} m={m}: ratio equality pattern broken")
    return _ok(name, f"all identities hold for p in {SUITE_PRIMES}, r <= {OMEGA_R_MAX}")


def check_inequality_ledger() -> CheckResult:
    """Criterion 4: binomial inequality families with exact equality cases."""
    name = "inequality-ledger"
    report = omega.check_inequality_suite(LEDGER_R_MAX, t_max=LEDGER_T_MAX)
    violations = report.discipline_violations()
    if violations:
        return _fail(name, "; ".join(violations))
    return _ok(
        name,
        f"central families t <= {LEDGER_T_MAX}, threshold family r <= {LEDGER_R_MAX}, "
        "equality exactly at t=0 / t=1 / r in {1,2}; threshold strict iff r >= 4",
    )


def _corpus_reports():
    """Bound report and exact cover for every corpus item."""
    for item in corpus.CORPUS:
        pres, group, hom = corpus.build_item(item)
        summary = complex_summary(pres, item.p)
        profile = filtration_profile(item.p, group)
        report = bounds.bound_general(summary.b1, pres.deficiency, profile)
        cover = build_cover(pres, hom, item.p)
        yield item, pres, group, hom, summary, report, cover


def check_bound_soundness() -> CheckResult:
    """Criterion 5: exact kernel b1 is never below the certified bound;
    tightness is witnessed on the Z^2/(Z_2)^2 and F_2/Z_2 items."""
    name = "bound-soundness"
    tight_names = set()
    count = 0
    try:
        for item, pres, group, hom, summary, report, cover in _corpus_reports():
            checked = bounds.with_actual(report, cover.b1)
            if item.target[0] == "ea":
                ea_report = bounds.bound_elementary_abelian(
                    summary.b1, pres.deficiency, item.target[1], item.target[2]
                )
                if ea_report.per_k_bounds != report.per_k_bounds:
                    return _fail(name, f"{item.name}: coefficient route disagrees with filtration route")
            if checked.tight:
                tight_names.add(item.name)
            # growth-bound equality discipline at d = 1
            if (
                item.target[0] == "ea"
                and item.target[1] == item.p
                and pres.deficiency == 1
                and cover.b1 == 2 ** (item.target[2] - 1)
            ):
                r = item.target[2]
                if not (summary.b1 == r and r in (1, 2)):
                    return _fail(
                        name,
                        f"{item.name}: equality at 2^(r-1) outside the classified cases",
                    )
            count += 1
    except FalsificationError as exc:
        return _falsified(name, exc)
    if not {"torus/Z2^2", "free2/Z2.a"} <= tight_names:
        return _fail(name, f"expected tight witnesses missing; tight on {sorted(tight_names)}")
    return _ok(name, f"{count} corpus triples sound; tight on {len(tight_names)} items")


def check_hc_sweep() -> CheckResult:
    """Criterion 6: every elementary abelian corpus cover has
    hrk >= 2^r, and every connected equality case classifies as a/b/c."""
    name = "hc-sweep"
    cases = {}
    count = 0
    for item in corpus.CORPUS:
        if item.target[0] != "ea" or item.target[1] != item.p:
            continue
        pres, group, hom = corpus.build_item(item)
        cover = build_cover(pres, hom, item.p)
        verdict = hc_verdict(cover)
        try:
            verdict.raise_if_falsifying()
        except FalsificationError as exc:
            return _falsified(name, exc)
        if verdict.equality and verdict.connected:
            cases[item.name] = verdict.case
        count += 1
    expected = {"rp2/Z2": "b", "torus/Z2^2": "c", "free1/Z2": "a"}
    for key, case in expected.items():
        if cases.get(key) != case:
            return _fail(name, f"{key}: expected equality case {case}, got {cases.get(key)}")
    return _ok(name, f"{count} covers pass; equality cases {sorted(cases.items())}")


def check_rs_cross_oracle() -> CheckResult:
    """Criterion 7: for |H| <= 8, cover b1 equals the kernel
    presentation's b1."""
    name = "rs-cross-oracle"
    count = 0
    for item in corpus.CORPUS:
        if item.target_order > 8:
            continue
        pres, group, hom = corpus.build_item(item)
        cover = build_cover(pres, hom, item.p)
        kernel = reidemeister_schreier(pres, hom)
        ks = complex_summary(kernel, item.p)
        if ks.b1 != cover.b1:
            return _fail(name, f"{item.name}: cover b1 {cover.b1} != kernel presentation b1 {ks.b1}")
        expected_gens = group.size * (pres.n_generators - 1) + 1
        if kernel.n_generators != expected_gens or kernel.n_relators != group.size * pres.n_relators:
            return _fail(name, f"{item.name}: Schreier generator/relator counts off")
        count += 1
    return _ok(name, f"{count} items with |H| <= 8 agree with the kernel presentation")


def check_growth() -> CheckResult:
    """Criterion 8: growth iteration from the deficiency-1 witness
    < a, b | a a > gives b1 sequence 2, 3, then 17 = 1 + 8*(3-1) >= 4;
    the free rank-2 start gives 2, 5, 129, Nielsen-Schreier exact."""
    name = "growth-iteration"
    try:
        res = bounds.growth_iterate(parse_presentation("< a, b | a a >"), 2, 2)
    except FalsificationError as exc:
        return _falsified(name, exc)
    seq = res.b1_sequence()
    if seq[:2] != (2, 3):
        return _fail(name, f"sequence starts {seq[:2]}, expected (2, 3)")
    stage2 = res.stages[2]
    ns_rank = 1 + stage2.index * (res.stages[1].b1 - 1)
    if stage2.b1 < 4 or stage2.b1 != ns_rank or stage2.index != 8:
        return _fail(name, f"stage 2: index {stage2.index}, b1 {stage2.b1}, NS rank {ns_rank}")
    try:
        free = bounds.growth_iterate(parse_presentation("< a, b | >"), 2, 2)
    except FalsificationError as exc:
        return _falsified(name, exc)
    fseq = free.b1_sequence()
    if fseq != (2, 5, 129):
        return _fail(name, f"free start gave {fseq}, expected (2, 5, 129)")
    for prev, stage in zip(free.stages, free.stages[1:]):
        if stage.b1 != 1 + stage.index * (prev.b1 - 1):
            return _fail(name, f"free start not Nielsen-Schreier exact at index {stage.index}")
    return _ok(name, f"sequences {seq} and {fseq}; stage-2 b1 {stage2.b1} = 1 + 8*2 >= 4")


def check_fpexact_properties() -> CheckResult:
    """Rank fuzz against an independent elimination, transpose and
    product-rank properties, and normal-form replay."""
    name = "fpexact-properties"

    def oracle_rank(rows, p):
        rows = [list(r) for r in rows]
        rank = 0
        cols = len(rows[0]) if rows else 0
        for c in range(cols):
            piv = next((i for i in range(rank, len(rows)) if rows[i][c] % p), None)
            if piv is None:
                continue
            rows[rank], rows[piv] = rows[piv], rows[rank]
            inv = pow(rows[rank][c], p - 2, p)
            rows[rank] = [(x * inv) % p for x in rows[rank]]
            for i in range(len(rows)):
                if i != rank and rows[i][c] % p:
                    f = rows[i][c]
                    rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[rank])]
            rank += 1
        return rank

    rng = np.random.default_rng(SEED)
    for p in (2, 3, 5):
        for _ in range(12):
            rows = int(rng.integers(1, 24))
            cols = int(rng.integers(1, 24))
            data = rng.integers(0, p, size=(rows, cols))
            m = FpMatrix(rows, cols, data.ravel(), p)
            snf = fpexact.smith_normal_form(m)
            if snf.rank != oracle_rank(data.tolist(), p):
                return _fail(name, f"p={p}: SNF rank disagrees with independent elimination")
            if snf.rank != fpexact.rank(m) or fpexact.rank(m) != fpexact.rank(m.transpose()):
                return _fail(name, f"p={p}: rank/transpose mismatch")
            if any(d == 0 for d in snf.diagonal):
                return _fail(name, f"p={p}: zero on the normal-form diagonal")
            replay = snf.replay(m)
            if replay != fpexact.block_diagonal(snf.diagonal, rows, cols, p):
                return _fail(name, f"p={p}: replay does not reproduce the normal form")
            other = FpMatrix(cols, rows, rng.integers(0, p, size=cols * rows), p)
            prod = m @ other
            if fpexact.rank(prod) > min(fpexact.rank(m), fpexact.rank(other)):
                return _fail(name, f"p={p}: product rank exceeds factor ranks")
    # three panels of dense fill, so the deferred trailing updates run, and
    # rank 70 < 72, so a stale update shows as excess rank; its own generator
    # leaves the draws above as they are
    rng = np.random.default_rng(SEED + 1)
    data = rng.integers(0, 7, size=(72, 70)) @ rng.integers(0, 7, size=(70, 150)) % 7
    if fpexact.rank(FpMatrix(72, 150, data.ravel(), 7)) != oracle_rank(data.tolist(), 7):
        return _fail(name, "p=7: panel-blocked rank disagrees with independent elimination")
    return _ok(name, "rank fuzz, transpose, replay and product-rank properties hold")


def check_groupring_properties() -> CheckResult:
    """Equivariant action, ideal-power mapping, kernel lower bound, and
    the augmentation being a ring map."""
    name = "groupring-properties"
    rng = np.random.default_rng(SEED)
    targets = [
        (2, make_elementary_abelian(2, 2)),
        (2, groupring.make_cyclic(4)),
        (3, make_elementary_abelian(3, 1)),
        (3, make_elementary_abelian(3, 2)),
        (2, make_elementary_abelian(2, 3)),
    ]
    for p, group in targets:
        n = group.size
        profile = filtration_profile(p, group)
        for _ in range(6):
            u = GroupRingElement(group, p, rng.integers(0, p, size=n))
            v = GroupRingElement(group, p, rng.integers(0, p, size=n))
            if groupring.augmentation(ring_mul(u, v)) != (
                groupring.augmentation(u) * groupring.augmentation(v)
            ) % p:
                return _fail(name, f"{group.label}: augmentation is not multiplicative")
            block = covers.equivariant_block(group.mult, v.coeffs)
            acted = GroupRingElement(group, p, (u.coeffs @ block) % p)
            if acted != ring_mul(u, v):
                return _fail(name, f"{group.label}: equivariant action != convolution")
        for k in range(min(3, len(profile.lambdas))):
            gs = [int(x) for x in rng.integers(0, n, size=k)]
            x = delta_product(group, p, gs)
            scale = int(rng.integers(1, p))
            x = scale * x
            w_bal = GroupRingElement(group, p, rng.integers(0, p, size=n))
            w_bal = w_bal - groupring.augmentation(w_bal) * GroupRingElement.delta(
                group, p, group.identity_index
            )
            if not is_balanced(w_bal):
                return _fail(name, f"{group.label}: balancing trick failed")
            if not profile.contains(k + 1, ring_mul(x, w_bal)):
                return _fail(name, f"{group.label} k={k}: balanced action left the next power")
            w_unbal = w_bal + GroupRingElement.delta(group, p, group.identity_index)
            if not profile.contains(k, ring_mul(x, w_unbal)):
                return _fail(name, f"{group.label} k={k}: action left the power")
            block = FpMatrix(n, n, covers.equivariant_block(group.mult, w_bal.coeffs).ravel(), p)
            if fpexact.kernel_dim(block) < max(profile.lambdas):
                return _fail(name, f"{group.label}: balanced kernel below the largest jump")
    return _ok(name, "action, ideal-power mapping and kernel bounds hold on 5 groups")


def check_cover_properties() -> CheckResult:
    """Boundary composition, rank(d1) against the component count, equivariance,
    order-independence, and the graded mapping of the boundary blocks."""
    name = "cover-properties"
    rng = np.random.default_rng(SEED)
    for item_name in ("torus/Z2^2", "klein/Z2^2", "genus2/Z2^2", "z2free/Z2^2", "torus/Z3^2"):
        item = next(i for i in corpus.CORPUS if i.name == item_name)
        pres, group, hom = corpus.build_item(item)
        p = item.p
        cover = build_cover(pres, hom, p)
        if not (cover.d2 @ cover.d1).is_zero():
            return _fail(name, f"{item.name}: boundaries do not compose to zero")
        if fpexact.rank(cover.d1) != group.size - cover.b0:
            return _fail(name, f"{item.name}: rank of d1 does not match the component count")
        # the same images in a target of one more rank: p copies of the
        # cover, ranked by build_cover on one coset block of d2
        padded = tuple(c + (0,) for c in item.images)
        _, big, hom_l = corpus.build_item(replace(item, target=("ea", p, item.target[2] + 1), images=padded))
        cover_l = build_cover(pres, hom_l, p)
        if (cover_l.b0, cover_l.b1, cover_l.b2) != (p * cover.b0, p * cover.b1, p * cover.b2):
            return _fail(name, f"{item.name}: a target of one more rank does not give {p} copies")
        if fpexact.rank(cover_l.d2) != big.size * pres.n_relators - cover_l.b2:
            return _fail(name, f"{item.name}: rank of the full d2 does not match b2")
        for seed_row in cover.seeds.reshape(-1, group.size):
            block = covers.equivariant_block(group.mult, seed_row)
            g, h = (int(x) for x in rng.integers(0, group.size, size=2))
            lhs = GroupRingElement(group, p, block[group.op(g, h)])
            rhs = ring_mul(GroupRingElement.delta(group, p, g), GroupRingElement(group, p, block[h]))
            if lhs != rhs:
                return _fail(name, f"{item.name}: block row is not equivariant")
        # permuted element order leaves Betti numbers unchanged
        perm = rng.permutation(group.size)
        inv = np.empty_like(perm)
        inv[perm] = np.arange(group.size)
        table = perm[group.op(inv[:, None], inv)]
        shuffled = groupring.OrderedGroup(table, label=group.label + "-permuted")
        hom2 = Homomorphism(pres, shuffled, [int(perm[x]) for x in hom.images])
        cover2 = build_cover(pres, hom2, p)
        if (cover2.b0, cover2.b1, cover2.b2) != (cover.b0, cover.b1, cover.b2):
            return _fail(name, f"{item.name}: Betti numbers depend on the element order")
        # graded mapping through the boundary of a normalized presentation
        normalized = normalize_presentation(pres, p)
        hom3 = Homomorphism(normalized, group, hom.images)
        cover3 = build_cover(normalized, hom3, p)
        profile = filtration_profile(p, group)
        blocked = cover3.base.rank  # leading unbalanced block count
        pattern = check_balance_pattern(cover3)
        for i, row_blocks in enumerate(pattern):
            for j, balanced in enumerate(row_blocks):
                if (i == j and i < blocked) == balanced:
                    return _fail(name, f"{item.name}: balance pattern off at block ({i}, {j})")
        n, m, H = normalized.n_generators, normalized.n_relators, group.size
        for k in range(min(2, len(profile.lambdas))):
            chains = []
            for _ in range(m):
                gs = [int(x) for x in rng.integers(0, H, size=k)]
                chains.append(delta_product(group, p, gs).coeffs)
            image = (np.concatenate(chains) @ cover3.d2.array) % p
            for j in range(n):
                piece = GroupRingElement(group, p, image[j * H : (j + 1) * H])
                needed = k if j < blocked else k + 1
                if not profile.contains(needed, piece):
                    return _fail(name, f"{item.name}: graded image escaped at column {j}")
    # a non-surjective map: two components, doubled total Betti number
    free2 = parse_presentation("< a, b | >")
    g22 = make_elementary_abelian(2, 2)
    hom = Homomorphism(free2, g22, [g22.ea_index[(1, 0)]] * 2)
    cover = build_cover(free2, hom, 2)
    kernel = reidemeister_schreier(free2, hom)
    if hom.surjective or cover.b0 != 2 or fpexact.rank(cover.d1) != g22.size - cover.b0:
        return _fail(name, "non-surjective map should give two components")
    if fpexact.rank(cover.d2) != g22.size * free2.n_relators - cover.b2:
        return _fail(name, "rank of the full d2 does not match b2")
    if cover.b1 != cover.b0 * complex_summary(kernel, 2).b1:
        return _fail(name, "component count does not reconcile cover and kernel b1")
    return _ok(name, "composition, equivariance, order-independence and grading hold")


ALL_CHECKS = (
    check_torus_golden,
    check_jennings,
    check_omega_identities,
    check_inequality_ledger,
    check_bound_soundness,
    check_hc_sweep,
    check_rs_cross_oracle,
    check_growth,
    check_fpexact_properties,
    check_groupring_properties,
    check_cover_properties,
)


def run_all() -> list[CheckResult]:
    results = []
    for check in ALL_CHECKS:
        try:
            results.append(check())
        except FalsificationError as exc:
            results.append(_falsified(check.__name__, exc))
    return results
