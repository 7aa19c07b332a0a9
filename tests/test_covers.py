import dataclasses
import importlib.util
import json
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from hcc import cli, corpus, covers, fpexact
from hcc.covers import (
    Homomorphism,
    IncompatibleHomomorphismError,
    build_cover,
    check_balance_pattern,
    equivariant_block,
    hc_verdict,
    parse_homomorphism,
)
from hcc.errors import FalsificationError
from hcc.fpexact import FpMatrix
from hcc.groupring import (
    GroupRingElement,
    OrderedGroup,
    make_cyclic,
    make_elementary_abelian,
    make_product,
    parse_group_table,
    ring_mul,
)
from hcc.presentations import (
    FreeWord,
    Presentation,
    complex_summary,
    exponent_sum_matrix,
    fox_derivative,
    normalize_presentation,
    parse_presentation,
    reidemeister_schreier,
)
from test_groupring import PROFILE_GROUPS

TORUS = "< a, b | a b a^-1 b^-1 >"

TORUS_COVER_MATRIX = [
    [1, 0, 1, 0, 1, 1, 0, 0],
    [0, 1, 0, 1, 1, 1, 0, 0],
    [1, 0, 1, 0, 0, 0, 1, 1],
    [0, 1, 0, 1, 0, 0, 1, 1],
]


def torus_cover():
    pres = parse_presentation(TORUS)
    group = make_elementary_abelian(2, 2)
    hom = Homomorphism(pres, group, [1, 2])
    return build_cover(pres, hom, 2)


class TestHomomorphism:
    def test_incompatible_reports_relator(self):
        pres = parse_presentation("< a | a a >")
        with pytest.raises(IncompatibleHomomorphismError) as info:
            Homomorphism(pres, make_cyclic(4), [1])  # a^2 -> 2 != 0
        assert info.value.relator_index == 0
        assert info.value.image_index == 2

    def test_surjectivity_flag(self):
        pres = parse_presentation("< a, b | >")
        group = make_elementary_abelian(2, 2)
        assert Homomorphism(pres, group, [1, 2]).surjective
        assert not Homomorphism(pres, group, [1, 1]).surjective

    def test_word_image(self):
        pres = parse_presentation("< a, b | >")
        group = make_cyclic(5)
        hom = Homomorphism(pres, group, [1, 3])
        word = parse_presentation("< a, b | a b a^-1 b b >").relators[0]
        assert hom.word_image(word) == (1 + 3 - 1 + 3 + 3) % 5

    def test_image_range_checked(self):
        pres = parse_presentation("< a | >")
        with pytest.raises(ValueError):
            Homomorphism(pres, make_cyclic(3), [5])


class TestHomomorphismFormat:
    def test_coordinates(self):
        pres = parse_presentation(TORUS)
        group = make_elementary_abelian(2, 2)
        hom = parse_homomorphism("a -> (1,0)\nb -> (0,1)\n", pres, group)
        assert hom.images == (1, 2)

    def test_index_form_and_comments(self):
        pres = parse_presentation("< a, b | >")
        group = make_cyclic(4)
        hom = parse_homomorphism("# comment\na -> 1\n\nb -> 3\n", pres, group)
        assert hom.images == (1, 3)

    def test_errors(self):
        pres = parse_presentation("< a, b | >")
        group = make_cyclic(4)
        with pytest.raises(ValueError):
            parse_homomorphism("a -> 1\n", pres, group)  # b missing
        with pytest.raises(ValueError):
            parse_homomorphism("a -> 1\na -> 2\nb -> 0\n", pres, group)
        with pytest.raises(ValueError):
            parse_homomorphism("a -> (1,0)\nb -> 0\n", pres, group)  # coords need ea
        with pytest.raises(ValueError):
            parse_homomorphism("c -> 1\n", pres, group)

    def test_many_generators_linear(self):
        names = [f"g{i}" for i in range(20000)]
        pres = Presentation(tuple(names), ())
        text = "".join(f"{name} -> {i % 2}\n" for i, name in enumerate(names))
        start = time.perf_counter()
        hom = parse_homomorphism(text, pres, make_cyclic(2))
        assert time.perf_counter() - start < 1.0
        assert hom.images == tuple(i % 2 for i in range(20000))
        with pytest.raises(ValueError, match=r"^line 20001: unknown generator 'g20000'$"):
            parse_homomorphism(text + "g20000 -> 0\n", pres, make_cyclic(2))
        with pytest.raises(ValueError, match=r"^line 20001: generator 'g3' assigned twice$"):
            parse_homomorphism(text + "g3 -> 0\n", pres, make_cyclic(2))


class TestTorusGolden:
    def test_matrix_bit_exact(self):
        cover = torus_cover()
        assert cover.d2.to_rows() == TORUS_COVER_MATRIX

    def test_betti_and_hrk(self):
        cover = torus_cover()
        assert (cover.b0, cover.b1, cover.b2) == (1, 2, 1)
        assert cover.hrk == 4
        assert cover.euler == 0

    def test_seed_rows(self):
        cover = torus_cover()
        assert list(cover.seeds[0, 0]) == [1, 0, 1, 0]
        assert list(cover.seeds[0, 1]) == [1, 1, 0, 0]

    def test_verdict_case_c(self):
        verdict = hc_verdict(torus_cover())
        assert verdict.passed and verdict.equality and verdict.connected
        assert verdict.case == "c" and not verdict.unclassified


class TestEquivariance:
    def test_block_rows(self):
        cover = torus_cover()
        group = cover.group
        rng = np.random.default_rng(8)
        for seed in cover.seeds[0]:
            mat = equivariant_block(group.mult, seed)

            def row(g):
                return ring_mul(GroupRingElement.delta(group, 2, g), GroupRingElement(group, 2, seed))

            for _ in range(6):
                g, h = (int(x) for x in rng.integers(0, 4, size=2))
                lhs = row(group.op(g, h))
                rhs = ring_mul(GroupRingElement.delta(group, 2, g), row(h))
                assert lhs == rhs
                assert list(mat[g]) == list(row(g).coeffs)

    def test_grid_is_the_grid_of_blocks(self):
        rng = np.random.default_rng(16)
        for group in (symmetric_group_3(), make_elementary_abelian(3, 2)):
            seeds = rng.integers(0, 3, size=(2, 3, group.size))
            blocks = [[equivariant_block(group.mult, seeds[i, j]) for j in range(3)] for i in range(2)]
            assert np.array_equal(equivariant_block(group.mult, seeds), np.block(blocks))

    def test_action_is_convolution(self):
        rng = np.random.default_rng(15)
        group = make_elementary_abelian(3, 2)
        for _ in range(5):
            v = GroupRingElement(group, 3, rng.integers(0, 3, size=9))
            w = GroupRingElement(group, 3, rng.integers(0, 3, size=9))
            acted = GroupRingElement(group, 3, (v.coeffs @ equivariant_block(group.mult, w.coeffs)) % 3)
            assert acted == ring_mul(v, w)


class TestBuildCover:
    def test_trivial_target_is_base(self):
        for text, p in ((TORUS, 2), ("< a | a a >", 2), ("< a, b | a a >", 3)):
            pres = parse_presentation(text)
            hom = Homomorphism(pres, make_cyclic(1), [0] * pres.n_generators)
            cover = build_cover(pres, hom, p)
            base = complex_summary(pres, p)
            assert (cover.b0, cover.b1, cover.b2) == (base.b0, base.b1, base.b2)

    def test_boundaries_compose_to_zero(self):
        cover = torus_cover()
        assert (cover.d2 @ cover.d1).is_zero()

    def test_nonsurjective_components(self):
        pres = parse_presentation("< a, b | >")
        group = make_elementary_abelian(2, 2)
        hom = Homomorphism(pres, group, [1, 1])
        cover = build_cover(pres, hom, 2)
        assert cover.b0 == 2
        # each of the two components is a connected double cover of the wedge
        assert cover.b1 == 6 and cover.hrk == 8

    def test_free_group_cover(self):
        pres = parse_presentation("< a, b | >")
        hom = Homomorphism(pres, make_elementary_abelian(2, 2), [1, 2])
        cover = build_cover(pres, hom, 2)
        assert cover.d2.rows == 0
        assert (cover.b0, cover.b1, cover.b2) == (1, 5, 0)
        assert check_balance_pattern(cover) == ()

    def test_euler_multiplicative(self):
        for text, p, images, target in (
            (TORUS, 3, [(1, 0), (0, 1)], make_elementary_abelian(3, 2)),
            ("< a, b | a a >", 2, [(1, 0), (0, 1)], make_elementary_abelian(2, 2)),
        ):
            pres = parse_presentation(text)
            hom = Homomorphism(pres, target, [target.ea_index[c] for c in images])
            cover = build_cover(pres, hom, p)
            assert cover.euler == target.size * (1 - pres.n_generators + pres.n_relators)

    def test_order_independence(self):
        rng = np.random.default_rng(21)
        pres = parse_presentation("< a, b | a b a b^-1 >")
        group = make_elementary_abelian(2, 2)
        hom = Homomorphism(pres, group, [1, 2])
        reference = build_cover(pres, hom, 2)
        for _ in range(3):
            perm = rng.permutation(4)
            inv = np.empty(4, dtype=int)
            inv[perm] = np.arange(4)
            shuffled = OrderedGroup(perm[group.mult[inv][:, inv]])
            hom2 = Homomorphism(pres, shuffled, [int(perm[1]), int(perm[2])])
            cover2 = build_cover(pres, hom2, 2)
            assert (cover2.b0, cover2.b1, cover2.b2) == (
                reference.b0,
                reference.b1,
                reference.b2,
            )


@pytest.mark.parametrize("defer_entries", [0, 10**9])
def test_surface_cover_across_panels(monkeypatch, defer_entries):
    # a connected cover of the genus-2 surface of degree |H| is a closed
    # surface with b1 = 2 + 2|H|; d2 is 27x108 and 49x196, two and four
    # panels, and the threshold forces every update deferred or eager
    monkeypatch.setattr(fpexact, "DEFER_ENTRIES", defer_entries)
    pres = parse_presentation(corpus.GENUS_2)
    for p, images in (
        (3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0)]),
        (7, [(1, 0), (0, 1), (1, 1), (0, 0)]),
    ):
        group = make_elementary_abelian(p, len(images[0]))
        hom = Homomorphism(pres, group, [group.ea_index[c] for c in images])
        cover = build_cover(pres, hom, p)
        assert cover.d2.cols > fpexact.PANEL
        assert (cover.b0, cover.b1, cover.b2) == (1, 2 + 2 * group.size, 1)


def reference_d2(pres, hom, p):
    """d2 by the defining loop: Fox terms, one word image per prefix, and
    row g of each block as delta_g * seed in the group ring."""
    group = hom.group
    rows = []
    for rel in pres.relators:
        seeds = []
        for j in range(pres.n_generators):
            seed = GroupRingElement.zero(group, p)
            for sign, k in fox_derivative(rel, j):
                seed = seed + (sign % p) * GroupRingElement.delta(group, p, hom.word_image(FreeWord(rel.letters[:k])))
            seeds.append(seed)
        for g in range(group.size):
            delta = GroupRingElement.delta(group, p, g)
            rows.append(np.concatenate([ring_mul(delta, seed).coeffs for seed in seeds]))
    return np.array(rows, dtype=np.int64).reshape(len(rows), group.size * pres.n_generators)


def reference_d1(hom, p):
    """d1 by the defining loop: row (j, g) is delta_{g phi(a_j)} - delta_g."""
    group = hom.group
    rows = []
    for h in hom.images:
        for g in range(group.size):
            row = np.zeros(group.size, dtype=np.int64)
            row[group.op(g, h)] += 1
            row[g] -= 1
            rows.append(row % p)
    return np.array(rows, dtype=np.int64).reshape(len(rows), group.size)


def symmetric_group_3():
    perms = [(0, 1, 2), (1, 0, 2), (0, 2, 1), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
    index = {perm: i for i, perm in enumerate(perms)}
    return OrderedGroup([[index[tuple(a[b[k]] for k in range(3))] for b in perms] for a in perms])


def random_case(rng, group=None, images=None):
    """A random presentation (<= 4 generators, <= 3 relators) with a
    compatible map to ``group`` sending the generators to ``images``, or
    else onto an abelian, cyclic, product or nonabelian group and images
    drawn at random."""
    p = int(rng.choice([2, 3, 5]))
    if group is None:
        group = [
            make_elementary_abelian(2, 2),
            make_elementary_abelian(3, 2),
            make_cyclic(int(rng.integers(2, 7))),
            make_product(make_cyclic(2), make_cyclic(3)),
            symmetric_group_3(),
        ][int(rng.integers(0, 5))]
    if images is None:
        images = [int(x) for x in rng.integers(0, group.size, size=int(rng.integers(1, 5)))]
    n = len(images)
    letters = [(j, 1) for j in range(n)] + [(j, -1) for j in range(n)]
    # shortest word for each element of the image subgroup, by breadth-first search
    word_for = {group.identity_index: ()}
    frontier = [group.identity_index]
    while frontier:
        nxt = []
        for h in frontier:
            for j, s in letters:
                g = group.op(h, images[j] if s == 1 else group.inverse(images[j]))
                if g not in word_for:
                    word_for[g] = word_for[h] + ((j, s),)
                    nxt.append(g)
        frontier = nxt
    names = tuple("abcd"[:n])
    hom0 = Homomorphism(Presentation(names, ()), group, images)
    relators = []
    for _ in range(int(rng.integers(0, 4))):
        w = FreeWord([letters[int(k)] for k in rng.integers(0, 2 * n, size=int(rng.integers(1, 13)))])
        # close the word up so that it maps to the identity
        relators.append(w * FreeWord(word_for[group.inverse(hom0.word_image(w))]))
    pres = Presentation(names, tuple(relators))
    return pres, Homomorphism(pres, group, images), p


class CountingList(list):
    """A list that records every index it is read at."""

    def __init__(self, items, reads):
        super().__init__(items)
        self.reads = reads

    def __getitem__(self, i):
        self.reads.append(i)
        return super().__getitem__(i)


class TestSeedAssembly:
    def test_d2_matches_reference_on_corpus(self):
        for item in corpus.CORPUS:
            pres, _, hom = corpus.build_item(item)
            cover = build_cover(pres, hom, item.p)
            assert np.array_equal(cover.d2.array, reference_d2(pres, hom, item.p)), item.name
            assert np.array_equal(cover.d1.array, reference_d1(hom, item.p)), item.name

    def test_d2_matches_reference_on_random_cases(self):
        rng = np.random.default_rng(20241018)
        for _ in range(60):
            pres, hom, p = random_case(rng)
            cover = build_cover(pres, hom, p)
            assert np.array_equal(cover.d2.array, reference_d2(pres, hom, p)), (pres, hom, p)
            assert np.array_equal(cover.d1.array, reference_d1(hom, p)), (pres, hom, p)

    def test_rank_d1_is_order_minus_components(self):
        # build_cover takes b0 from the index of the image; d1 is the oracle
        cases = []
        for item in corpus.CORPUS:
            pres, _, hom = corpus.build_item(item)
            cases.append((pres, hom, item.p))
        rng = np.random.default_rng(20261018)
        cases += [random_case(rng) for _ in range(60)]
        kinds = set()
        for pres, hom, p in cases:
            cover = build_cover(pres, hom, p)
            assert fpexact.rank(cover.d1) == hom.group.size - cover.b0, (pres, hom, p)
            kinds.add((hom.group.size, hom.group.is_abelian(), cover.b0 > 1))
        assert (6, False, False) in kinds  # S3
        assert any(disconnected for _, _, disconnected in kinds)

    def test_ranks_d2_and_the_base_only(self, monkeypatch):
        # d2 is ranked as its transposed cotree block: |K|(n - 1) + 1 = 5
        # Schreier generators by |K| m = 4 relator lifts
        shapes = []
        rank = fpexact.rank
        monkeypatch.setattr(fpexact, "rank", lambda m: shapes.append((m.rows, m.cols)) or rank(m))
        cover = torus_cover()
        assert shapes == [(4 * (2 - 1) + 1, 4 * 1), (2, 1)]
        assert (cover.b0, cover.b1, cover.b2) == (1, 2, 1)

    def test_one_closure_per_cover(self, monkeypatch):
        # the homomorphism walks its image once, when it is built, and records
        # the walk; build_cover reads the letter table only along the relator
        pres = parse_presentation(TORUS)
        group = make_elementary_abelian(2, 2)
        walks = []
        walk = OrderedGroup._walk
        monkeypatch.setattr(OrderedGroup, "_walk", lambda self, seed: walks.append(seed) or walk(self, seed))
        hom = Homomorphism(pres, group, [1, 1])
        assert hom.cosets == (0, 1) and hom.schreier_generators == ((0, 1), (1, 0), (1, 1))
        reads = []
        object.__setattr__(hom, "columns", tuple(CountingList(column, reads) for column in hom.columns))
        cover = build_cover(pres, hom, 2)
        assert len(reads) == len(pres.relators[0]) and walks == []  # one prefix walk, no search
        assert cover.hom.image_order == 2 and not cover.hom.surjective and cover.b0 == 2

    def test_ranks_one_coset_block(self, monkeypatch):
        # the image K has index 2: d2 is two copies of its K x K block, which
        # is ranked as its transposed cotree block, (|K|(n - 1) + 1) x |K| m
        shapes = []
        rank = fpexact.rank
        monkeypatch.setattr(fpexact, "rank", lambda m: shapes.append((m.rows, m.cols)) or rank(m))
        pres = parse_presentation(TORUS)
        cover = build_cover(pres, Homomorphism(pres, make_elementary_abelian(2, 2), [1, 1]), 2)
        assert shapes == [(2 * (2 - 1) + 1, 2 * 1), (2, 1)]
        assert (cover.b0, cover.b1, cover.b2) == (2, 4, 2)

    def test_rank_of_full_d2_on_disconnected_covers(self):
        # build_cover ranks one coset block of d2; the full d2 is the oracle.
        # Every corpus item is onto, so each is also taken into a target one
        # step larger, where its cover is [H : K] copies of the item's.
        cases = []
        for item in corpus.CORPUS:
            if item.target[0] == "ea":
                target, images = ("ea", item.p, item.target[2] + 1), tuple(c + (0,) for c in item.images)
            else:
                target, images = ("cyclic", 2 * item.target[1]), tuple(2 * v for v in item.images)
            pres, _, hom = corpus.build_item(item)
            cover = build_cover(pres, hom, item.p)
            _, big, lifted = corpus.build_item(dataclasses.replace(item, target=target, images=images))
            cases.append((pres, lifted, item.p, big.size // hom.group.size, cover))
        free2 = parse_presentation("< a, b | >")
        g22 = make_elementary_abelian(2, 2)
        cases.append((free2, Homomorphism(free2, g22, [g22.ea_index[(1, 0)]] * 2), 2, None, None))
        rng = np.random.default_rng(20261020)
        for _ in range(30):
            # elementary abelian targets, images in a subspace of lower rank
            p, r = int(rng.choice([2, 3])), int(rng.integers(2, 4))
            group = make_elementary_abelian(p, r)
            basis = rng.integers(0, p, size=(int(rng.integers(0, r)), r))
            coords = rng.integers(0, p, size=(int(rng.integers(1, 5)), len(basis))) @ basis % p
            images = [group.ea_index[tuple(int(c) for c in x)] for x in coords]
            cases.append((*random_case(rng, group, images), None, None))
        for _ in range(30):
            # cyclic targets, images in a proper subgroup
            order, step = [(4, 2), (6, 2), (6, 3), (8, 2), (8, 4), (9, 3)][int(rng.integers(0, 6))]
            images = [int(x) * step % order for x in rng.integers(0, order, size=int(rng.integers(1, 5)))]
            cases.append((*random_case(rng, make_cyclic(order), images), None, None))
        sizes = set()
        for pres, hom, p, index, base in cases:
            cover = build_cover(pres, hom, p)
            H, m = hom.group.size, pres.n_relators
            assert not hom.surjective, (pres, hom)
            assert fpexact.rank(cover.d2) == H * m - cover.b2, (pres, hom, p)
            assert fpexact.rank(cover.d1) == H - cover.b0, (pres, hom, p)
            if base is not None:
                assert (cover.b0, cover.b1, cover.b2) == (index * base.b0, index * base.b1, index * base.b2)
            sizes.add((hom.image_order, m > 0))
        assert (1, True) in sizes and len(sizes) > 6

    def test_long_commutator_cover_is_linear(self):
        # Fox prefixes share the relator's letters, so an 8,000-letter
        # relator costs O(length); prefixes copied as slices cost O(length^2),
        # about 0.7 s here
        rng = np.random.default_rng(8204)
        letters = []  # kept freely reduced, letter by letter
        while len(letters) < 8000:
            u, v = ([(int(g), int(s)) for g, s in zip(rng.integers(0, 2, k), rng.choice([1, -1], k))]
                    for k in rng.integers(1, 7, size=2))
            for g, s in u + v + [(g, -s) for g, s in reversed(u)] + [(g, -s) for g, s in reversed(v)]:
                if letters and letters[-1] == (g, -s):
                    letters.pop()
                else:
                    letters.append((g, s))
        pres = Presentation(("a", "b"), (FreeWord(letters),))
        hom = Homomorphism(pres, make_elementary_abelian(2, 2), [1, 2])
        elapsed = []
        for _ in range(3):
            start = time.perf_counter()
            cover = build_cover(pres, hom, 2)
            elapsed.append(time.perf_counter() - start)
        assert min(elapsed) < 0.2
        assert cover.b0 == 1 and cover.euler == 0  # |H| (1 - n + m) = 0

    def test_dropped_fox_term_is_caught(self, monkeypatch):
        fox = covers.fox_derivative
        monkeypatch.setattr(covers, "fox_derivative", lambda w, j: fox(w, j)[1:] if j == 0 else fox(w, j))
        with pytest.raises(RuntimeError, match="boundary maps do not compose to zero"):
            torus_cover()
        # not onto: the certificate runs on the block over the image
        pres = parse_presentation(TORUS)
        with pytest.raises(RuntimeError, match="boundary maps do not compose to zero"):
            build_cover(pres, Homomorphism(pres, make_elementary_abelian(2, 2), [1, 1]), 2)

    def test_expands_only_the_image_block(self, monkeypatch):
        # the image K has order 2 in (Z2)^2: build_cover gathers the blocks
        # over K from the seeds and expands nothing; the full matrices are
        # expanded once each, when read
        expanded = []
        expand = covers.equivariant_block
        monkeypatch.setattr(covers, "equivariant_block", lambda t, s: expanded.append((t, s)) or expand(t, s))
        pres = parse_presentation(TORUS)
        hom = Homomorphism(pres, make_elementary_abelian(2, 2), [1, 1])
        cover = build_cover(pres, hom, 2)
        assert expanded == []
        assert (cover.d2.rows, cover.d2.cols, cover.d1.rows, cover.d1.cols) == (4, 8, 8, 4)
        assert np.array_equal(cover.d2.array, reference_d2(pres, hom, 2))
        assert np.array_equal(cover.d1.array, reference_d1(hom, 2))
        shapes = [(table.shape, seed.shape) for table, seed in expanded]
        assert shapes == [((4, 4), (1, 2, 4)), ((4, 4), (2, 1, 4))]  # d2's seeds, then d1's
        assert cover.d2 is cover.d2 and cover.d1 is cover.d1 and len(expanded) == 2

    def test_caps_count_the_full_matrices(self, monkeypatch, tmp_path, capsys):
        # with no relators the refusal is d1's: it needs 4 * 2 * 4 = 32
        # entries, although build_cover would expand only its 8-entry block
        (tmp_path / "free.pres").write_text("< a, b | >\n")
        (tmp_path / "half.hom").write_text("a -> (1,0)\nb -> (1,0)\n")
        argv = ["cover", "--pres", str(tmp_path / "free.pres"), "--hom", str(tmp_path / "half.hom"), "--p", "2"]
        monkeypatch.setattr(fpexact, "_entry_cap", None)  # read HCC_MATRIX_CAP again
        monkeypatch.setenv("HCC_MATRIX_CAP", "31")
        assert cli.main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: degree-1 boundary matrix needs 32 entries, above the cap of 31")
        fpexact.set_entry_cap(32)
        assert cli.main(argv) == 0
        assert json.loads(capsys.readouterr().out)["b0"] == 2


def perf_kernels():
    """``perf/kernels.py``, loaded as a module."""
    spec = importlib.util.spec_from_file_location("perf_kernels", Path(__file__).resolve().parents[1] / "perf" / "kernels.py")
    kernels = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(kernels)
    return kernels


def test_heavy_cover_memory():
    # perf/kernels.py's heavy cover, three 32-letter commutator relators onto
    # (Z7)^3: the rank runs on the 687 x 1029 transposed cotree block, gathered
    # in int16 after the boundary check, whose product copies d1's int16 block
    # to float64 in column chunks of at most 2^16 entries, so the peak is about
    # the cotree block and rank's int16 copy of it
    pres, hom = perf_kernels().heavy_cover()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        cover = build_cover(pres, hom, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # b2 = 3 * 343 - 684: the block's rank, as perf/kernels.py --check records it
    assert (cover.b0, cover.b1, cover.b2) == (1, 3, 345)
    assert len(hom.schreier_generators) == 687
    assert peak < 5 << 20, peak / 2**20


def test_heavy_certificate_in_int16(monkeypatch):
    # d1's 1029 x 343 block over (Z7)^3 reaches the certificate's one product
    # in the cotree's int16, and is the block of the full d1
    operands = []
    matmul = FpMatrix.__matmul__
    monkeypatch.setattr(FpMatrix, "__matmul__", lambda a, b: operands.append(b.array) or matmul(a, b))
    pres, hom = perf_kernels().heavy_cover()
    cover = build_cover(pres, hom, 7)
    K, H, n = np.array(hom.cosets), hom.group.size, pres.n_generators
    rows = (np.arange(n)[:, None] * H + K).ravel()
    assert len(operands) == 1 and operands[0].dtype == np.int16
    assert np.array_equal(operands[0], cover.d1.array[np.ix_(rows, K)])


def table_text(group, rng):
    """``group`` as a .tbl file: the identity labelled 0, every other
    element under a random label."""
    order = [group.identity_index] + [int(x) for x in rng.permutation(group.size) if x != group.identity_index]
    label = {x: k for k, x in enumerate(order)}
    rows = (" ".join(str(label[group.op(x, y)]) for y in order) for x in order)
    return f"order {group.size}\n" + "\n".join(rows) + "\n"


class TestTableTargets:
    def test_random_covers_over_shuffled_tables(self):
        # S3, A4 and D5 are the non-nilpotent groups whose filtration
        # profiles take elimination; here they are deck groups read from .tbl text
        rng = np.random.default_rng(20261019)
        components = set()
        for name in ("S3", "A4", "D5"):
            for _ in range(10):
                group = parse_group_table(table_text(PROFILE_GROUPS[name], rng))
                pres, hom, p = random_case(rng, group)
                cover = build_cover(pres, hom, p)
                H, n, m = group.size, pres.n_generators, pres.n_relators
                assert np.array_equal(cover.d2.array, reference_d2(pres, hom, p)), (name, pres, hom, p)
                assert fpexact.rank(cover.d1) == H - cover.b0, (name, pres, hom, p)
                assert cover.b0 - cover.b1 + cover.b2 == H * (1 - n + m), (name, pres, hom, p)
                kernel = reidemeister_schreier(pres, hom)
                assert cover.b1 == cover.b0 * complex_summary(kernel, p).b1, (name, pres, hom, p)
                components.add(cover.b0)
        assert 1 in components and len(components) > 1  # onto and not onto


class TestBalancePattern:
    def test_torus_all_balanced(self):
        assert check_balance_pattern(torus_cover()) == ((True, True),)

    def test_aa_mod3_unbalanced(self):
        pres = parse_presentation("< a | a a >")
        hom = Homomorphism(pres, make_cyclic(2), [1])
        cover = build_cover(pres, hom, 3)
        assert check_balance_pattern(cover) == ((False,),)

    def test_normalized_diagonal_pattern(self):
        pres = normalize_presentation(parse_presentation("< a, b | a b, b >"), 2)
        group = make_cyclic(2)
        hom = Homomorphism(pres, group, [0, 0])
        cover = build_cover(pres, hom, 2)
        pattern = check_balance_pattern(cover)
        blocked = cover.base.rank
        for i, row in enumerate(pattern):
            for j, balanced in enumerate(row):
                assert balanced == (not (i == j and i < blocked))


class TestVerdict:
    def test_sphere_over_projective_plane(self):
        pres = parse_presentation("< a | a a >")
        hom = Homomorphism(pres, make_elementary_abelian(2, 1), [1])
        verdict = hc_verdict(build_cover(pres, hom, 2))
        assert verdict.passed and verdict.equality
        assert verdict.base_betti == (1, 1, 1)
        assert verdict.cover_betti == (1, 0, 1)
        assert verdict.case == "b"

    def test_circle_case(self):
        pres = parse_presentation("< a | >")
        hom = Homomorphism(pres, make_elementary_abelian(3, 1), [1])
        verdict = hc_verdict(build_cover(pres, hom, 3))
        assert verdict.case == "a"

    def test_klein_odd_prime_case_a(self):
        pres = parse_presentation("< a, b | a b a b^-1 >")
        for p in (3, 5):
            group = make_elementary_abelian(p, 1)
            hom = Homomorphism(pres, group, [0, 1])
            verdict = hc_verdict(build_cover(pres, hom, p))
            assert verdict.passed and verdict.equality
            assert verdict.base_betti == (1, 1, 0)
            assert verdict.case == "a"

    def test_strictly_above_threshold(self):
        pres = parse_presentation("< a | a a a >")
        hom = Homomorphism(pres, make_elementary_abelian(3, 1), [1])
        verdict = hc_verdict(build_cover(pres, hom, 3))
        assert verdict.passed and not verdict.equality
        assert verdict.cover_betti == (1, 0, 2)
        assert verdict.case is None and not verdict.unclassified

    def test_requires_elementary_abelian(self):
        pres = parse_presentation("< a | >")
        hom = Homomorphism(pres, make_cyclic(4), [1])
        with pytest.raises(ValueError):
            hc_verdict(build_cover(pres, hom, 2))

    def test_requires_matching_prime(self):
        pres = parse_presentation("< a | a a >")
        hom = Homomorphism(pres, make_cyclic(2), [1])
        with pytest.raises(ValueError):
            hc_verdict(build_cover(pres, hom, 3))

    def test_falsifying_raises_with_payload(self):
        verdict = hc_verdict(torus_cover())
        verdict.raise_if_falsifying()  # fine
        import dataclasses

        doctored = dataclasses.replace(verdict, passed=False, hrk=3)
        with pytest.raises(FalsificationError) as info:
            doctored.raise_if_falsifying()
        assert info.value.payload["hrk"] == 3

    def test_disconnected_equality_not_classified(self):
        # hrk(K) = 1 with trivial mod-2 homology in degree 1: two disjoint copies
        pres = parse_presentation("< a | a a a >")
        hom = Homomorphism(pres, make_elementary_abelian(2, 1), [0])
        verdict = hc_verdict(build_cover(pres, hom, 2))
        assert verdict.passed and verdict.equality and not verdict.connected
        assert verdict.case is None and not verdict.unclassified


def cotree_block(monkeypatch, pres, hom, p):
    """The cover and the matrix ``build_cover`` ranks for d2: its first
    ``fpexact.rank`` call, before the base complex's."""
    blocks = []
    rank = fpexact.rank
    monkeypatch.setattr(fpexact, "rank", lambda m: blocks.append(m.array) or rank(m))
    cover = build_cover(pres, hom, p)
    monkeypatch.setattr(fpexact, "rank", rank)
    return cover, blocks[0]


def cotree_cases(rng):
    """The corpus, random covers over shuffled S3, A4 and D5 tables, and
    maps onto proper subgroups, some with a generator sent to the identity
    or with one generator."""
    cases = []
    for item in corpus.CORPUS:
        pres, _, hom = corpus.build_item(item)
        cases.append((pres, hom, item.p))
    for name in ("S3", "A4", "D5"):
        for _ in range(10):
            cases.append(random_case(rng, parse_group_table(table_text(PROFILE_GROUPS[name], rng))))
    for _ in range(20):
        order, step = [(4, 2), (6, 2), (6, 3), (8, 2), (9, 3), (12, 4)][int(rng.integers(0, 6))]
        images = [int(x) * step % order for x in rng.integers(0, order, size=int(rng.integers(1, 4)))]
        cases.append(random_case(rng, make_cyclic(order), images))
    for _ in range(20):
        group = make_elementary_abelian(int(rng.choice([2, 3])), 3)
        images = [group.identity_index] + [int(x) for x in rng.integers(0, group.size, size=int(rng.integers(0, 3)))]
        cases.append(random_case(rng, group, [int(x) for x in rng.permutation(images)]))
    return cases


class TestCotree:
    def test_schreier_tree_spans_the_image(self):
        # the tree edges are (0, a), (0, b) and (1, b); every other pair is a
        # Schreier generator
        pres = parse_presentation(TORUS)
        hom = Homomorphism(pres, make_elementary_abelian(2, 2), [1, 2])
        assert hom.cosets == (0, 1, 2, 3)
        assert hom.schreier_generators == ((1, 0), (2, 0), (2, 1), (3, 0), (3, 1))
        rng = np.random.default_rng(20261021)
        for pres, hom, _ in cotree_cases(rng):
            k, n, columns = hom.image_order, pres.n_generators, hom.columns
            assert hom.cosets[0] == hom.group.identity_index
            assert sorted(hom.cosets) == np.flatnonzero(hom.position >= 0).tolist()
            assert hom.position[list(hom.cosets)].tolist() == list(range(k))
            assert list(hom.schreier_generators) == sorted(set(hom.schreier_generators)), (pres, hom)
            tree = sorted({(c, j) for c in range(k) for j in range(n)} - set(hom.schreier_generators))
            assert len(tree) == k - 1, (pres, hom)
            edges = [(c, int(hom.position[columns[2 * j][hom.cosets[c]]])) for c, j in tree]
            reached = {0}
            for _ in range(k):  # the k - 1 tree edges join every coset to the identity's
                reached |= {v for edge in edges if set(edge) & reached for v in edge}
            assert reached == set(range(k)), (pres, hom)

    def test_search_order_is_pinned(self):
        # the search takes the positive letters in generator order, then the
        # inverses: cosets and Schreier generators (and so every rewritten
        # generator's name) as recorded, on (Z3)^2 and on S3 read from a
        # relabelled .tbl; columns[2j] and columns[2j + 1] act by a_j and its inverse
        z3 = make_elementary_abelian(3, 2)
        s3 = parse_group_table("order 6\n0 1 2 3 4 5\n1 0 5 4 3 2\n2 3 4 5 0 1\n"
                               "3 2 1 0 5 4\n4 5 0 1 2 3\n5 4 3 2 1 0")
        cases = [
            ("< a, b, c | a^3, b^3, a b a^-1 b^-1, a c a^-1 c^-1, b c b^-1 c^-1 >", z3,
             [z3.ea_index[t] for t in ((1, 0), (1, 1), (0, 2))], (0, 1, 4, 5, 3, 8, 2, 6, 7),
             ((1, 0), (2, 0), (2, 1), (2, 2), (3, 0), (3, 1), (3, 2), (4, 1), (4, 2), (5, 0), (5, 2),
              (6, 0), (6, 1), (7, 0), (7, 1), (7, 2), (8, 0), (8, 1), (8, 2))),
            ("< a, b, c | a^2, b^3, c^2, a b a b, c b c b >", s3, [5, 4, 1], (0, 5, 4, 1, 2, 3),
             ((1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2), (3, 0), (3, 1), (3, 2), (4, 0), (4, 2),
              (5, 0), (5, 2))),
        ]
        for text, group, images, cosets, schreier_generators in cases:
            hom = Homomorphism(parse_presentation(text), group, images)
            assert hom.cosets == cosets and hom.schreier_generators == schreier_generators, text
            idx = np.arange(group.size)
            for j, h in enumerate(images):
                assert hom.columns[2 * j] == group.op(idx, h).tolist()
                assert hom.columns[2 * j + 1] == group.op(idx, group.inverse(h)).tolist()

    def test_certificate_reads_the_block_of_full_d1(self, monkeypatch):
        # the right operand of build_cover's certificate, gathered from the
        # edge seeds, is the full d1 on rows (j, x) and columns x for x in K,
        # in coset order: the scatter in equivariant_block is the oracle
        rng = np.random.default_rng(20261024)
        operands = []
        matmul = FpMatrix.__matmul__
        monkeypatch.setattr(FpMatrix, "__matmul__", lambda a, b: operands.append(b.array) or matmul(a, b))
        for pres, hom, p in cotree_cases(rng):
            operands.clear()
            cover = build_cover(pres, hom, p)
            K, H, n = np.array(hom.cosets), hom.group.size, pres.n_generators
            rows = (np.arange(n)[:, None] * H + K).ravel()
            assert len(operands) == 1, (pres, hom, p)
            assert np.array_equal(operands[0], cover.d1.array[np.ix_(rows, K)]), (pres, hom, p)

    def test_zero_generator_presentation(self):
        # the trivial group into Z3: three points, and a kernel with no generators
        pres = Presentation((), ())
        hom = Homomorphism(pres, make_cyclic(3), [])
        cover = build_cover(pres, hom, 3)
        assert (cover.b0, cover.b1, cover.b2) == (3, 0, 0)
        assert hom.cosets == (0,) and hom.schreier_generators == ()
        kernel = reidemeister_schreier(pres, hom)
        assert kernel.n_generators == 0 and kernel.n_relators == 0

    def test_block_is_the_kernel_exponent_sum_matrix(self, monkeypatch):
        # row (c, j) of the transposed cotree block is the Schreier generator
        # of coset c and generator j, column (i, c) relator i rewritten from
        # coset c: both in the kernel presentation's order, entry by entry
        rng = np.random.default_rng(20261022)
        kinds = set()
        for pres, hom, p in cotree_cases(rng):
            _, block = cotree_block(monkeypatch, pres, hom, p)
            kernel = reidemeister_schreier(pres, hom)
            k, n, m = hom.image_order, pres.n_generators, pres.n_relators
            assert block.shape == (k * (n - 1) + 1, k * m), (pres, hom, p)
            assert np.array_equal(block, exponent_sum_matrix(kernel, p).array), (pres, hom, p)
            kinds.add((hom.surjective, hom.group.identity_index in hom.images, n == 1, m > 0))
        assert (False, True, False, True) in kinds and (True, False, True, True) in kinds

    def test_rank_and_betti_numbers_match_the_full_block(self, monkeypatch):
        # rank(d2 over K) = rank(its cotree block), and the Betti numbers
        # are those of the full d2 and d1
        rng = np.random.default_rng(20261023)
        cases = [random_case(rng) for _ in range(80)]
        for _ in range(40):
            group = [make_cyclic(6), make_elementary_abelian(3, 2), symmetric_group_3()][int(rng.integers(0, 3))]
            n = int(rng.integers(1, 4))
            images = [int(x) if rng.random() < 0.6 else group.identity_index for x in rng.integers(0, group.size, n)]
            cases.append(random_case(rng, group, images))
        kinds = set()
        for pres, hom, p in cases:
            cover, block = cotree_block(monkeypatch, pres, hom, p)
            H, n, m = hom.group.size, pres.n_generators, pres.n_relators
            image = np.flatnonzero(hom.position >= 0)
            rows, cols = ((np.arange(k)[:, None] * H + image).ravel() for k in (m, n))
            r2_k = fpexact.rank(FpMatrix._wrap(cover.d2.array[np.ix_(rows, cols)], p))  # the block over K
            assert fpexact.rank(FpMatrix._wrap(block, p)) == r2_k, (pres, hom, p)
            r2, r1 = fpexact.rank(cover.d2), fpexact.rank(cover.d1)
            assert r2 == cover.b0 * r2_k, (pres, hom, p)
            assert (cover.b0, cover.b1, cover.b2) == (H - r1, H * n - r2 - r1, H * m - r2), (pres, hom, p)
            kinds.add((n == 1, hom.group.identity_index in hom.images, hom.surjective))
        assert {(True, False, True), (False, True, False)} <= kinds

