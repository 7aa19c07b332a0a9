#!/usr/bin/env python3
"""Kernel rows: the heaviest rank of the ``covers`` workload, the word
layers of the ``relators`` workload, dense kernels, one filtration profile
and its membership test, each measured alone.

Rebuilds a block of the shape of the ``covers`` workload's heaviest one
from its own seeded presentation: three 32-letter commutator relators on
three generators, mapped onto (Z7)^3, so ``build_cover`` ranks a 687 x 1029
transposed cotree block at p = 7.  The word rows read a second seeded
presentation, three 3,000-letter commutator relators on three generators,
as text, mapped onto (Z3)^2.  Each row is named after its layer in
``bench/trace.py``:

* ``fpexact.rank`` -- the rank of that block;
* ``fpexact.rank/genus3-onto-Z5^3`` and ``fpexact.rank/T3-onto-Z5^3`` --
  the mid-size blocks of the genus-3 surface group (626 x 125) and of
  T^3's 2-skeleton (251 x 375), each mapped onto (Z5)^3 by seeded
  generator images, whose weight-2 rows the structured pass of ``rank``
  contracts;
* ``fpexact.rref`` -- the reduced row-echelon form of a dense seeded
  1024 x 1024 matrix at p = 7 with 24 dependent columns (rank 1000),
  through the elimination kernel ``rank`` shares;
* ``fpexact.rank/dense-1024-p2`` and ``fpexact.rref/dense-1024-p2`` -- the
  same at p = 2: the rank of the matrix and its reduced form;
* ``fpexact.matmul/dense-1024-p2`` and ``fpexact.matmul/dense-1024-p7`` --
  the square of the dense matrix at p = 2 and at p = 7;
* ``fpexact.smith_normal_form`` -- the normal form of the mod-3 exponent-sum
  matrix of the rewrite below (19 x 27, the size of a ``relators`` kernel);
* ``covers.build_cover`` -- the whole cover, the group and homomorphism
  built beforehand;
* ``presentations.parse_presentation`` -- parsing the 9,000-letter text;
* ``presentations.parse_presentation/spaced`` -- parsing the same relators
  spelled ``a ^ -1``, with tabs, newlines and free-standing commas, which
  the parser reads after gluing each '^' to its neighbours; its answer,
  the words digest, is the canonical row's;
* ``presentations.reidemeister_schreier`` -- the rewrite of that
  presentation along its map onto (Z3)^2: 27 relators on 19 generators;
* ``presentations.complex_summary`` -- the mod-3 homology of that kernel;
* ``groupring.filtration_profile`` -- the profile of F_3[S3 x (Z2)^8]
  (|H| = 1536), computed afresh on every call: the dims cache is emptied
  and the table's cached hash dropped first;
* ``groupring.FiltrationProfile.contains`` and ``.../p2`` -- sixteen
  membership questions in F_3 and F_2[S3 x (Z2)^8], asked of a new profile
  on every call (its dimensions cached), so each call builds what
  membership reads: H/N is trivial at p = 3 and (Z2)^9 at p = 2;
* ``omega.omega_by_convolution`` -- the coefficients of
  (1 + x + x^2)^2000, computed afresh on every call (the table cache is
  emptied first).

A row records the median and interquartile range of ``--reps`` timed
calls after one warm-up call, the tracemalloc peak of one more call, and
the answer with its digest (the block's bytes, its rank and the width
of the array ``rank`` hands ``fpexact._echelon`` for it, or for the
mid-size blocks the shape of that array, the core; the rref's
pivots, as its rank and the columns without one, and a digest of the
reduced array; a digest of the product; the normal form's diagonal and
a digest of its operations; the cover's Betti numbers; the profile's
dimensions; the membership answers; a digest of the coefficients).  A
run records the machine, the versions, the git commit (``git describe
--dirty``, so a run on uncommitted changes reads ``<commit>-dirty``) and
a digest of ``src/hcc``, and replaces the run of the same ``--label`` in
``BENCH_kernels.json`` at the repository root.
``tests/test_covers.py`` loads this file for ``heavy_cover``.

    python3 perf/kernels.py --label parent --reps 15   # record a run
    python3 perf/kernels.py --check --reps 1           # answers only; writes nothing

``--check`` makes one call per row, times nothing and exits 1 when an
answer's digest differs from ``EXPECTED``.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import itertools
import json
import os
import random
import statistics
import subprocess
import sys
import time
import tracemalloc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from hcc import fpexact, groupring, omega  # noqa: E402
from hcc.covers import Homomorphism, build_cover  # noqa: E402
from hcc.groupring import OrderedGroup, delta_product, make_elementary_abelian, make_product  # noqa: E402
from hcc.presentations import (  # noqa: E402
    FreeWord,
    Presentation,
    complex_summary,
    exponent_sum_matrix,
    parse_presentation,
    reidemeister_schreier,
)

OUT = os.path.join(ROOT, "BENCH_kernels.json")
EXPECTED = {"fpexact.rank": "d6a6659f9aa96a60", "fpexact.rank/genus3-onto-Z5^3": "7871dfd76168c0ae",
            "fpexact.rank/T3-onto-Z5^3": "ff9483a241faca1b", "fpexact.rref": "85567eb5f3dac498",
            "fpexact.rank/dense-1024-p2": "f78b716c48df3a8f", "fpexact.rref/dense-1024-p2": "b7d32529e4951c29",
            "fpexact.matmul/dense-1024-p2": "44fb5d6711690ee2", "fpexact.matmul/dense-1024-p7": "758c96d1be2d6ddf",
            "fpexact.smith_normal_form": "bbae32f915eee2b1",
            "covers.build_cover": "6049a0d1d60c853e",
            "presentations.parse_presentation": "4ab8021ae9fa17da",
            "presentations.parse_presentation/spaced": "4ab8021ae9fa17da",
            "presentations.reidemeister_schreier": "fc58dc1f5b7db128",
            "presentations.complex_summary": "9361aa30680a8d4a",
            "groupring.filtration_profile": "522ca6961637b157",
            "groupring.FiltrationProfile.contains": "ada4c5c89699d7f3",
            "groupring.FiltrationProfile.contains/p2": "c7496f07e7bf8ab0",
            "omega.omega_by_convolution": "8b34ea13b4dc8e94"}


def commutator_relator(rng: random.Random, n: int, length: int) -> FreeWord:
    """A freely reduced product of commutators [u, v] of words of one or
    two letters, grown until it has at least ``length`` letters."""
    letters: list[tuple[int, int]] = []
    while len(letters) < length:
        u, v = ([(rng.randrange(n), rng.choice((1, -1))) for _ in range(rng.randint(1, 2))] for _ in "uv")
        for g, s in u + v + [(g, -s) for g, s in reversed(u)] + [(g, -s) for g, s in reversed(v)]:
            if letters and letters[-1] == (g, -s):
                letters.pop()
            else:
                letters.append((g, s))
    return FreeWord(letters)


def heavy_cover() -> tuple[Presentation, Homomorphism]:
    """The presentation and its map onto (Z7)^3."""
    rng = random.Random("perf:covers-heavy")
    pres = Presentation(("a", "b", "c"), tuple(commutator_relator(rng, 3, 32) for _ in range(3)))
    group = make_elementary_abelian(7, 3)
    return pres, Homomorphism(pres, group, [group.ea_index[t] for t in ((1, 0, 0), (0, 1, 0), (0, 0, 1))])


def onto_z5_cubed(name: str, text: str) -> tuple[Presentation, Homomorphism]:
    """The presentation and its map onto (Z5)^3 by the first seeded
    generator images that span it."""
    pres = parse_presentation(text)
    rng = random.Random(f"perf:{name}")
    group = make_elementary_abelian(5, 3)
    while True:
        images = [tuple(rng.randrange(5) for _ in range(3)) for _ in pres.generator_names]
        hom = Homomorphism(pres, group, [group.ea_index[t] for t in images])
        if hom.surjective:
            return pres, hom


def ranked_blocks(pres: Presentation, hom: Homomorphism, p: int) -> list[fpexact.FpMatrix]:
    """The matrices ``build_cover`` ranks, in order."""
    blocks = []
    rank = fpexact.rank
    fpexact.rank = lambda m: blocks.append(m) or rank(m)
    try:
        build_cover(pres, hom, p)
    finally:
        fpexact.rank = rank
    return blocks


def echelon_input(block: fpexact.FpMatrix) -> np.ndarray:
    """The array ``rank`` hands ``fpexact._echelon`` for the block: its core."""
    seen = []
    echelon = fpexact._echelon
    fpexact._echelon = lambda a, p: seen.append(a) or echelon(a, p)
    try:
        fpexact.rank(block)
    finally:
        fpexact._echelon = echelon
    (core,) = seen
    return core


def rank_row(name: str, block: fpexact.FpMatrix, by_core: bool):
    """A rank row: the block's shape, bytes and rank, with the width of its
    core, or with the core's shape when ``by_core`` is set."""
    sha = hashlib.sha256(block.array.astype(np.int64).tobytes()).hexdigest()[:16]
    core = echelon_input(block)
    seen = {"core": list(core.shape)} if by_core else {"width": core.dtype.name}
    return (name, lambda: fpexact.rank(block),
            lambda r: {"shape": [block.rows, block.cols], "p": block.p, "block_sha256": sha, "rank": r, **seen})


def long_text(spaced: bool = False) -> str:
    """The word rows' presentation, spelled one letter per term; ``spaced``
    spells an inverse ``a ^ -1``, puts a space, a tab and a newline between
    terms in turn, and each comma on a line of its own."""
    rng = random.Random("perf:relators-words")
    relators = [commutator_relator(rng, 3, 3000).letters for _ in range(3)]
    if not spaced:
        return "< a, b, c | " + ", ".join(" ".join("abc"[g] + ("" if s == 1 else "^-1") for g, s in w)
                                          for w in relators) + " >"
    gaps = itertools.cycle((" ", "\t", "\n"))
    return "< a, b, c |" + "\n,\n".join("".join(next(gaps) + "abc"[g] + ("" if s == 1 else " ^ -1") for g, s in w)
                                        for w in relators) + "\n>"


def s3_times_ea() -> OrderedGroup:
    """S3 x (Z2)^8, whose elements are all products of 3'-elements."""
    perms = list(itertools.permutations(range(3)))
    s3 = OrderedGroup([[perms.index(tuple(a[i] for i in b)) for b in perms] for a in perms], label="S3")
    return make_product(s3, make_elementary_abelian(2, 8))


def fresh_profile(p: int, group: OrderedGroup) -> groupring.FiltrationProfile:
    """The profile computed afresh, not read from the dims cache."""
    groupring._PROFILE_CACHE.clear()
    group.__dict__.pop("table_hash", None)
    return groupring.filtration_profile(p, group)


def fresh_table(p: int, r: int) -> omega.OmegaTable:
    """The coefficient table computed afresh, not read from the table cache."""
    omega.omega_by_convolution.cache_clear()
    return omega.omega_by_convolution(p, r)


def dense_matrix(p: int, side: int, dependent: int) -> fpexact.FpMatrix:
    """A seeded dense side x side matrix over F_p whose ``dependent`` columns,
    drawn at random, are random combinations of the columns left of them, so
    its reduced form has that many columns without a pivot and is not I."""
    rng = np.random.default_rng(20261020)
    data = rng.integers(0, p, size=(side, side))
    for c in np.sort(rng.choice(np.arange(1, side), size=dependent, replace=False)).tolist():
        data[:, c] = data[:, :c] @ rng.integers(0, p, size=c) % p
    return fpexact.FpMatrix(side, side, data.ravel(), p)


def membership_questions(p: int, group: OrderedGroup) -> list[tuple[int, groupring.GroupRingElement]]:
    """(k, x) and (k + 1, x) for x the product of k seeded factors
    (delta_g - delta_e), which lies in the k-th power, for k < 8."""
    rng = random.Random(f"perf:contains-{p}")
    questions = []
    for k in range(8):
        x = delta_product(group, p, [rng.randrange(group.size) for _ in range(k)])
        questions += [(k, x), (k + 1, x)]
    return questions


def ask(p: int, group: OrderedGroup, questions: list) -> tuple[bool, ...]:
    """The answers of a new profile, whose dimensions the cache holds."""
    profile = groupring.filtration_profile(p, group)
    return tuple(profile.contains(k, x) for k, x in questions)


def matrix_digest(m: fpexact.FpMatrix) -> dict:
    return {"shape": [m.rows, m.cols], "p": m.p,
            "sha256": hashlib.sha256(m.array.astype(np.int64).tobytes()).hexdigest()[:16]}


def snf_answer(snf: fpexact.SnfResult) -> dict:
    ops = json.dumps([[[op.kind, op.i, op.j, op.q] for op in side] for side in (snf.left_ops, snf.right_ops)])
    return {"rank": snf.rank, "diagonal": list(snf.diagonal), "ops": [len(snf.left_ops), len(snf.right_ops)],
            "ops_sha256": hashlib.sha256(ops.encode()).hexdigest()[:16]}


def rref_answer(result: tuple[fpexact.FpMatrix, tuple[int, ...]]) -> dict:
    reduced, pivots = result
    return {"shape": [reduced.rows, reduced.cols], "p": reduced.p, "rank": len(pivots),
            "columns_without_pivot": sorted(set(range(reduced.cols)) - set(pivots)),
            "reduced_sha256": hashlib.sha256(reduced.array.tobytes()).hexdigest()[:16]}


def words_digest(pres: Presentation) -> dict:
    """Counts, and a digest of every relator's letters."""
    h = hashlib.sha256(json.dumps([pres.generator_names, [w.letters for w in pres.relators]]).encode())
    return {"generators": pres.n_generators, "relators": pres.n_relators,
            "letters": sum(len(w) for w in pres.relators), "words_sha256": h.hexdigest()[:16]}


def table_digest(table: omega.OmegaTable) -> dict:
    coeffs = ",".join(map(str, table.coeffs))
    return {"p": table.p, "r": table.r, "degree": table.degree,
            "coeffs_sha256": hashlib.sha256(coeffs.encode()).hexdigest()[:16]}


def digest(answer: dict) -> str:
    return hashlib.sha256(json.dumps(answer, sort_keys=True).encode()).hexdigest()[:16]


def kernels():
    """(name, call, answer) per row; ``answer`` maps the call's result to a dict."""
    pres, hom = heavy_cover()
    genus3 = ranked_blocks(*onto_z5_cubed(
        "genus3", "< a, b, c, d, e, f | a b a^-1 b^-1 c d c^-1 d^-1 e f e^-1 f^-1 >"), 5)[0]
    t3 = ranked_blocks(*onto_z5_cubed("t3", "< a, b, c | a b a^-1 b^-1, a c a^-1 c^-1, b c b^-1 c^-1 >"), 5)[0]
    text, spaced = long_text(), long_text(spaced=True)
    words = parse_presentation(text)
    z3 = make_elementary_abelian(3, 2)
    onto = Homomorphism(words, z3, [z3.ea_index[t] for t in ((1, 0), (0, 1), (1, 1))])
    kernel = reidemeister_schreier(words, onto)
    big = s3_times_ea()
    dense, dense2 = dense_matrix(7, 1024, 24), dense_matrix(2, 1024, 24)
    exponents = exponent_sum_matrix(kernel, 3)
    asked = {p: membership_questions(p, big) for p in (3, 2)}
    return [
        rank_row("fpexact.rank", ranked_blocks(pres, hom, 7)[0], by_core=False),
        rank_row("fpexact.rank/genus3-onto-Z5^3", genus3, by_core=True),
        rank_row("fpexact.rank/T3-onto-Z5^3", t3, by_core=True),
        ("fpexact.rref", lambda: fpexact.rref(dense), rref_answer),
        rank_row("fpexact.rank/dense-1024-p2", dense2, by_core=False),
        ("fpexact.rref/dense-1024-p2", lambda: fpexact.rref(dense2), rref_answer),
        ("fpexact.matmul/dense-1024-p2", lambda: dense2 @ dense2, matrix_digest),
        ("fpexact.matmul/dense-1024-p7", lambda: dense @ dense, matrix_digest),
        ("fpexact.smith_normal_form", lambda: fpexact.smith_normal_form(exponents), snf_answer),
        ("covers.build_cover", lambda: build_cover(pres, hom, 7),
         lambda c: {"b0": c.b0, "b1": c.b1, "b2": c.b2}),
        ("presentations.parse_presentation", lambda: parse_presentation(text), words_digest),
        ("presentations.parse_presentation/spaced", lambda: parse_presentation(spaced), words_digest),
        ("presentations.reidemeister_schreier", lambda: reidemeister_schreier(words, onto), words_digest),
        ("presentations.complex_summary", lambda: complex_summary(kernel, 3),
         lambda s: {"b1": s.b1, "b2": s.b2, "rank": s.rank}),
        ("groupring.filtration_profile", lambda: fresh_profile(3, big),
         lambda f: {"order": f.group.size, "p": f.p, "delta_dims": list(f.delta_dims)}),
        ("groupring.FiltrationProfile.contains", lambda: ask(3, big, asked[3]),
         lambda a: {"order": big.size, "p": 3, "answers": list(a)}),
        ("groupring.FiltrationProfile.contains/p2", lambda: ask(2, big, asked[2]),
         lambda a: {"order": big.size, "p": 2, "answers": list(a)}),
        ("omega.omega_by_convolution", lambda: fresh_table(3, 2000), table_digest),
    ]


def measure(call, answer, reps: int, check: bool) -> dict:
    """The row's times, peak and answer; under ``check`` one call and its answer alone."""
    result = call()
    if check:
        out = answer(result)
        return {"answer": out, "digest": digest(out)}
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        result = call()
        times.append(time.perf_counter() - start)
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    q1, _, q3 = statistics.quantiles(times, n=4, method="inclusive") if reps > 1 else times * 3
    out = answer(result)
    return {"median_ms": round(1e3 * statistics.median(times), 3), "iqr_ms": round(1e3 * (q3 - q1), 3),
            "tracemalloc_peak_mib": round(peak / 2**20, 3), "answer": out, "digest": digest(out)}


def source() -> dict:
    try:
        head = subprocess.run(["git", "-C", ROOT, "describe", "--always", "--dirty", "--abbrev=40"],
                              capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        head = None
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "hcc", "*.py"))):
        with open(path, "rb") as fh:
            h.update(os.path.basename(path).encode() + b"\0" + fh.read())
    return {"git_describe": head, "src_sha256": h.hexdigest()[:16]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--reps", type=int, default=15)
    ap.add_argument("--label", default="HEAD", help="the run to replace in the output file")
    ap.add_argument("--check", action="store_true", help="verify the answers' digests; write nothing")
    ap.add_argument("--out", default=OUT)
    args = ap.parse_args(argv)
    if args.reps < 1:
        ap.error("--reps must be at least 1")
    rows, bad = {}, []
    for name, call, answer in kernels():
        row = rows[name] = measure(call, answer, args.reps, args.check)
        timing = "" if args.check else (f"median {row['median_ms']:9.3f} ms  IQR {row['iqr_ms']:8.3f} ms  "
                                        f"peak {row['tracemalloc_peak_mib']:7.3f} MiB  ")
        print(f"{name:<38} {timing}digest {row['digest']}  {row['answer']}")
        if row["digest"] != EXPECTED[name]:
            bad.append(f"{name}: digest {row['digest']}, expected {EXPECTED[name]}")
    for line in bad:
        print(f"MISMATCH {line}", file=sys.stderr)
    if args.check or bad:
        return 1 if bad else 0
    sys.path.insert(0, os.path.join(ROOT, "bench"))
    from run import machine  # the run record bench/run.py prints

    run = {"label": args.label, **source(), "machine": machine(), "numpy": np.__version__, "reps": args.reps,
           "rows": rows}
    try:
        with open(args.out) as fh:
            record = json.load(fh)
    except FileNotFoundError:
        record = {"about": "perf/kernels.py runs; each row's times are over `reps` calls; a run's code is "
                           "its `src_sha256` (`git_describe` ends in -dirty on uncommitted changes)", "runs": []}
    record["runs"] = [r for r in record["runs"] if r["label"] != args.label] + [run]
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
