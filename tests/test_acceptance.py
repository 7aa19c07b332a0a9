"""Acceptance suite: one test per criterion, each printing a pass/fail line.

All comparisons are exact.  Criteria are implemented on top of the
self-check routines so the CLI ``selfcheck`` command certifies the same
facts; a few criteria add direct assertions on top.
"""

import time

from hcc import bounds, cli, corpus, selfcheck
from hcc.covers import build_cover, hc_verdict
from hcc.omega import check_inequality_suite
from hcc.presentations import parse_presentation


def report(capsys, number: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}")


def run_check(capsys, number: int, check, budget_s: float | None = None) -> None:
    start = time.monotonic()
    result = check()
    elapsed = time.monotonic() - start
    timing = f" [{elapsed:.2f}s]"
    ok = result.ok and (budget_s is None or elapsed < budget_s)
    report(capsys, number, ok, result.detail + timing)
    assert result.ok, result.detail
    if budget_s is not None:
        assert elapsed < budget_s, f"budget {budget_s}s exceeded: {elapsed:.2f}s"


def test_criterion_1_torus_golden(capsys):
    """Exact reproduction of the 4x8 cover boundary matrix, Betti numbers
    (1, 2, 1), hrk = 4 = 2^2, in under a second."""
    run_check(capsys, 1, selfcheck.check_torus_golden, budget_s=1.0)


def test_criterion_2_jennings_equality(capsys):
    """Filtration jumps equal coefficient tables for every p^r <= 128."""
    run_check(capsys, 2, selfcheck.check_jennings, budget_s=30.0)


def test_criterion_3_omega_identities(capsys):
    """Three formulas agree; recursion, symmetry, strict unimodality,
    ratio discipline, and total p^r, for p in {2,3,5,7}, r <= 12."""
    run_check(capsys, 3, selfcheck.check_omega_identities, budget_s=10.0)


def test_criterion_4_inequality_ledger(capsys):
    """Binomial families: t <= 15 with equality only at t=0 / t=1; the
    threshold family true iff r >= 4 up to r = 30; pi lower bound with
    equality only at r in {1, 2}."""
    start = time.monotonic()
    result = selfcheck.check_inequality_ledger()
    suite = check_inequality_suite(30, t_max=15)
    rows = {r.params[0]: r for r in suite.family("hrk_threshold")}

    def equality_params(name):
        return tuple(row.params for row in suite.family(name) if row.equality)

    ok = (
        result.ok
        and all(rows[r].holds == (r >= 4) for r in range(1, 31))
        and equality_params("central_odd") == ((0,),)
        and equality_params("central_even") == ((1,),)
        and equality_params("pi_lower") == ((1,), (2,))
    )
    elapsed = time.monotonic() - start
    report(capsys, 4, ok and elapsed < 5.0, result.detail + f" [{elapsed:.2f}s]")
    assert ok and elapsed < 5.0


def test_criterion_5_bound_soundness(capsys):
    """>= 30 corpus triples: exact cover b1 >= best bound, always; tight
    on the Z^2/(Z_2)^2 and F_2/Z_2 witnesses."""
    assert len(corpus.CORPUS) >= 30
    run_check(capsys, 5, selfcheck.check_bound_soundness, budget_s=60.0)


def test_criterion_6_hc_sweep(capsys):
    """Every elementary abelian corpus cover satisfies hrk >= 2^r; every
    connected equality case matches exactly one profile, e.g. the
    projective-plane item gives base (1,1,1), cover (1,0,1), case b."""
    start = time.monotonic()
    result = selfcheck.check_hc_sweep()
    item = next(i for i in corpus.CORPUS if i.name == "rp2/Z2")
    pres, group, hom = corpus.build_item(item)
    verdict = hc_verdict(build_cover(pres, hom, 2))
    ok = (
        result.ok
        and verdict.base_betti == (1, 1, 1)
        and verdict.cover_betti == (1, 0, 1)
        and verdict.case == "b"
    )
    elapsed = time.monotonic() - start
    report(capsys, 6, ok, result.detail + f" [{elapsed:.2f}s]")
    assert ok, result.detail


def test_criterion_7_cross_oracle(capsys):
    """For corpus items with |H| <= 8, cover b1 equals the b1 of the
    Reidemeister-Schreier kernel presentation."""
    run_check(capsys, 7, selfcheck.check_rs_cross_oracle)


def test_criterion_8_growth_iteration(capsys):
    """Two growth iterations: b1 sequence starts 2, 3; stage-2 b1 >= 4
    and equals the Nielsen-Schreier rank 1 + index*(rank-1) of the
    index-8 kernel of the rank-3 stage."""
    start = time.monotonic()
    result = selfcheck.check_growth()
    res = bounds.growth_iterate(parse_presentation("< a, b | a a >"), 2, 2)
    seq = res.b1_sequence()
    stage2 = res.stages[2]
    ok = (
        result.ok
        and seq[:2] == (2, 3)
        and stage2.b1 >= 2 ** (3 - 1)
        and stage2.index == 8
        and stage2.b1 == 1 + stage2.index * (res.stages[1].b1 - 1)
    )
    elapsed = time.monotonic() - start
    report(capsys, 8, ok and elapsed < 60.0, result.detail + f" [{elapsed:.2f}s]")
    assert ok and elapsed < 60.0, result.detail


def test_criterion_9_falsification_discipline(capsys, monkeypatch):
    """`selfcheck` exits 0 when everything holds; a violated
    theorem-invariant exits 2 with the offending instance serialized."""
    code = cli.main(["selfcheck"])
    out_ok = capsys.readouterr().out
    injected = selfcheck.CheckResult(
        "injected-violation", False, 'instance: {"hrk": 3, "threshold": 4}'
    )
    monkeypatch.setattr(selfcheck, "run_all", lambda: [selfcheck.ALL_CHECKS[0](), injected])
    code_bad = cli.main(["selfcheck"])
    out_bad = capsys.readouterr().out
    ok = (
        code == 0
        and "all 11 checks passed" in out_ok
        and code_bad == 2
        and '"hrk": 3' in out_bad
    )
    report(capsys, 9, ok, f"selfcheck exit {code} when green, {code_bad} with a violated invariant")
    assert ok
