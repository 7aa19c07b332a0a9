import math

import pytest

from hcc import bounds, corpus, fpexact
from hcc.bounds import (
    abelianization_images,
    bound_elementary_abelian,
    bound_general,
    growth_iterate,
    verdict_3manifold_z2,
    with_actual,
)
from hcc.covers import Homomorphism, build_cover
from hcc.errors import FalsificationError
from hcc.groupring import filtration_profile, make_cyclic, make_elementary_abelian
from hcc.presentations import parse_presentation


class TestBoundGeneral:
    def test_z2_squared_example(self):
        profile = filtration_profile(2, make_elementary_abelian(2, 2))
        report = bound_general(2, 1, profile)
        assert report.per_k_bounds == (-1, 2, 2)
        assert report.best_k == 1 and report.best_bound == 2

    def test_z2_deficiency_two(self):
        profile = filtration_profile(2, make_cyclic(2))
        report = bound_general(2, 2, profile)
        assert report.per_k_bounds == (1, 3)
        assert report.best_bound == 3

    def test_k_zero_formula(self):
        for b1_g, d, group in ((3, 0, make_cyclic(6)), (4, 0, make_elementary_abelian(3, 2))):
            profile = filtration_profile(2 if group.size == 6 else 3, group)
            report = bound_general(b1_g, d, profile)
            assert report.per_k_bounds[0] == 1 + b1_g - group.size

    def test_inconsistent_input(self):
        profile = filtration_profile(2, make_cyclic(2))
        with pytest.raises(ValueError):
            bound_general(0, 1, profile)
        with pytest.raises(ValueError):
            bound_general(-1, -2, profile)

    def test_negative_deficiency_allowed(self):
        profile = filtration_profile(2, make_cyclic(2))
        report = bound_general(1, -1, profile)
        assert report.per_k_bounds == (1 + 1 - 2, 1 + 1 - 1 - 2)

    def test_tie_break_smallest_k(self):
        profile = filtration_profile(2, make_elementary_abelian(2, 2))
        report = bound_general(2, 1, profile)
        assert report.per_k_bounds[1] == report.per_k_bounds[2]
        assert report.best_k == 1


class TestBoundElementaryAbelian:
    def test_agrees_with_filtration_route(self):
        for p, r in ((2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (2, 7), (3, 1), (3, 2), (3, 3), (3, 4), (5, 1), (5, 2), (5, 3), (7, 1), (7, 2)):
            profile = filtration_profile(p, make_elementary_abelian(p, r))
            b1_g, d = r + 1, 1
            assert (
                bound_elementary_abelian(b1_g, d, p, r).per_k_bounds
                == bound_general(b1_g, d, profile).per_k_bounds
            )

    def test_binomial_formula_at_p2(self):
        for r in range(1, 13):
            for d in (0, 1, 2):
                b1_g = max(r, d)
                report = bound_elementary_abelian(b1_g, d, 2, r)
                expected = tuple(
                    1 + b1_g * math.comb(r, k) + d * sum(math.comb(r, j) for j in range(k)) - 2**r
                    for k in range(r + 1)
                )
                assert report.per_k_bounds == expected

    def test_deficiency_one_gives_half_threshold(self):
        for p in (2, 3, 5):
            for r in range(1, 13):
                report = bound_elementary_abelian(r, 1, p, r)
                assert report.best_bound >= 2 ** (r - 1), (p, r)

    def test_balanced_gives_middle_bound(self):
        for p in (2, 3):
            for r in range(1, 10):
                b1_g = r
                report = bound_elementary_abelian(b1_g, 0, p, r)
                from hcc.omega import omega_by_convolution

                mid = omega_by_convolution(p, r).value(r * (p - 1) // 2)
                assert report.best_bound >= 1 + b1_g * mid - p**r

    def test_with_actual(self):
        report = bound_elementary_abelian(2, 1, 2, 2)
        checked = with_actual(report, 2)
        assert checked.tight is True
        checked = with_actual(report, 5)
        assert checked.tight is False
        with pytest.raises(FalsificationError) as info:
            with_actual(report, 1)
        assert info.value.payload["best_bound"] == 2

    def test_json_schema(self):
        report = with_actual(bound_elementary_abelian(2, 1, 2, 2), 2)
        payload = report.to_json_dict()
        assert set(payload) == {
            "p", "target", "b1_G", "d", "bounds", "best", "actual", "tight", "verdict",
        }
        assert payload["best"] == {"k": 1, "value": 2}
        assert payload["bounds"][0] == {"k": 0, "value": -1}
        assert payload["verdict"] == "ok"


class TestThreeManifoldVerdict:
    def test_r3_equality_torus_profile(self):
        v = verdict_3manifold_z2(3, 3)
        assert v.equality_case == "c"
        assert v.q_profile == (1, 3, 3, 1) and v.m_profile == (1, 3, 3, 1)
        assert not v.method_certified and v.external_citation

    def test_r1_equality_profiles(self):
        v = verdict_3manifold_z2(1, 1)
        assert v.equality_case == "a"
        assert v.q_profile == (1, 1, 1, 1) and v.m_profile == (1, 0, 0, 1)
        assert v.method_certified and not v.external_citation

    def test_r2_profiles(self):
        v = verdict_3manifold_z2(2, 2)
        assert v.equality_case == "b"
        assert v.q_profile == (1, 2, 2, 1) and v.m_profile == (1, 1, 1, 1)
        assert not v.method_certified and v.external_citation
        # arithmetically the bound exactly meets the threshold here
        assert v.bound_meets_threshold

    def test_r4_method_certified(self):
        v = verdict_3manifold_z2(4, 4)
        assert v.b1_lower_bound == 1 + 4 * 24 // 4 - 16 == 9
        assert v.needed_for_hrk == 7
        assert v.method_certified and v.bound_meets_threshold
        assert not v.equality_possible and v.equality_case is None

    def test_certification_rule(self):
        for r in range(1, 12):
            v = verdict_3manifold_z2(r, r)
            assert v.method_certified == (r == 1 or r >= 4)
            assert v.external_citation == (r in (2, 3))


class TestAbelianization:
    def test_free_group_identity_map(self):
        r, images = abelianization_images(parse_presentation("< a, b | >"), 2)
        assert r == 2 and images == ((1, 0), (0, 1))

    def test_relator_kills_coordinate(self):
        r, images = abelianization_images(parse_presentation("< a, b | a a >"), 3)
        assert r == 1
        assert images == ((0,), (1,))  # 2a = 0 forces a -> 0 mod 3

    def test_images_kill_relators(self):
        pres = parse_presentation("< a, b, c | a b a b^-1, a c^3 >")
        for p in (2, 3, 5):
            r, images = abelianization_images(pres, p)
            if r == 0:
                continue
            group = make_elementary_abelian(p, r)
            hom = Homomorphism(pres, group, [group.ea_index[c] for c in images])
            assert hom.surjective


class TestGrowth:
    def test_deficiency_one_witness(self):
        res = growth_iterate(parse_presentation("< a, b | a a >"), 2, 2)
        assert res.b1_sequence() == (2, 3, 17)
        assert [st.index for st in res.stages] == [1, 4, 8]
        assert res.stages[2].b1 == 1 + 8 * (res.stages[1].b1 - 1)
        assert not res.truncated

    def test_free_group_nielsen_schreier(self):
        res = growth_iterate(parse_presentation("< a, b | >"), 2, 2)
        assert res.b1_sequence() == (2, 5, 129)
        for prev, stage in zip(res.stages, res.stages[1:]):
            assert stage.index == 2**prev.b1
            assert stage.b1 == 1 + stage.index * (prev.b1 - 1)

    def test_flat_torus_is_stationary(self):
        res = growth_iterate(parse_presentation("< a, b | a b a^-1 b^-1 >"), 2, 3)
        assert res.b1_sequence() == (2, 2, 2, 2)

    def test_growth_bound_each_step(self):
        res = growth_iterate(parse_presentation("< a, b | a a >"), 3, 2)
        seq = res.b1_sequence()
        for prev, cur in zip(seq, seq[1:]):
            assert cur >= 2 ** (prev - 1)

    def test_rejects_low_deficiency(self):
        with pytest.raises(ValueError):
            growth_iterate(parse_presentation("< a | a a >"), 2, 1)

    def test_rejects_negative_deficiency(self):
        pres = parse_presentation("< a, b | a a a, b b b, a b a^-1 b^-1 >")
        with pytest.raises(ValueError):
            growth_iterate(pres, 3, 1)  # deficiency -1

    def test_truncates_at_cap(self):
        res = growth_iterate(parse_presentation("< a, b | >"), 2, 3)
        assert res.truncated
        assert res.b1_sequence() == (2, 5, 129)
        assert res.reason and "cap" in res.reason

    def test_refused_stage_builds_nothing(self, monkeypatch):
        # the caps are checked from the Nielsen-Schreier counts, so a
        # refused stage builds neither its target table nor its kernel
        calls = {"table": 0, "kernel": 0}

        def counting(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name, key in (("make_elementary_abelian", "table"), ("reidemeister_schreier", "kernel")):
            monkeypatch.setattr(bounds, name, counting(key, getattr(bounds, name)))
        old = fpexact.entry_cap()
        fpexact.set_entry_cap(fpexact.DEFAULT_ENTRY_CAP)
        try:
            res = growth_iterate(parse_presentation("< a, b, c | a b a^-1 b^-1 >"), 2, 2)
            assert res.b1_sequence() == (3, 11) and res.truncated
            assert res.reason == (
                "matrix needs 536887296 entries, above the cap of 4194304 "
                "(override with set_entry_cap() or HCC_MATRIX_CAP)"
            )
            assert calls == {"table": 1, "kernel": 1}  # the first stage only
            res = growth_iterate(parse_presentation("< a, b | a a a >"), 3, 3)
            assert res.b1_sequence() == (2, 7) and res.truncated
            assert res.reason == (
                "multiplication table needs 4782969 entries, above the cap of 4194304 "
                "(override with set_entry_cap() or HCC_MATRIX_CAP)"
            )
            assert calls == {"table": 2, "kernel": 2}
        finally:
            fpexact.set_entry_cap(old)


class TestCorpusSweep:
    def test_soundness_and_counts(self):
        assert len(corpus.CORPUS) >= 30
        names = set()
        for item in corpus.CORPUS:
            pres, group, hom = corpus.build_item(item)
            assert hom.surjective, item.name
            names.add(item.name)
        assert len(names) == len(corpus.CORPUS)

    def test_spans_required_shapes(self):
        texts = {item.presentation for item in corpus.CORPUS}
        assert corpus.FREE_2 in texts and corpus.TORUS in texts
        assert corpus.KLEIN in texts and corpus.GENUS_2 in texts
        assert corpus.RP2 in texts and corpus.Z3_TORSION in texts
        orders = {item.target_order for item in corpus.CORPUS}
        assert {2, 4, 8, 16, 3, 9} <= orders
        assert any(item.target == ("cyclic", 4) for item in corpus.CORPUS)

    def test_tight_witnesses(self):
        for name, expected_b1 in (("torus/Z2^2", 2), ("free2/Z2.a", 3)):
            item = next(i for i in corpus.CORPUS if i.name == name)
            pres, group, hom = corpus.build_item(item)
            from hcc.presentations import complex_summary

            summary = complex_summary(pres, item.p)
            report = bound_general(summary.b1, pres.deficiency, filtration_profile(item.p, group))
            cover = build_cover(pres, hom, item.p)
            assert cover.b1 == expected_b1
            assert with_actual(report, cover.b1).tight
