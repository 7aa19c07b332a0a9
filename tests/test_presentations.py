import itertools
import random
import re
import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from hcc import corpus, fpexact, presentations
from hcc.covers import Homomorphism
from hcc.fpexact import CapExceededError, block_diagonal, smith_normal_form
from hcc.groupring import GroupRingElement, make_cyclic, make_elementary_abelian, ring_mul
from hcc.presentations import (
    FreeWord,
    Presentation,
    PresentationSyntaxError,
    complex_summary,
    exponent_sum_matrix,
    fox_derivative,
    normalize_presentation,
    parse_presentation,
    reidemeister_schreier,
)
from test_covers import random_case
from test_groupring import PROFILE_GROUPS


def map_letters(word, image):
    """Substitute each letter of ``word`` by its image's letters: one join, then one reduction."""
    return FreeWord(itertools.chain.from_iterable(map(image.__getitem__, word.letters)))


class TestFreeWord:
    def test_reduction(self):
        w = FreeWord([(0, 1), (0, -1), (1, 1)])
        assert w.letters == ((1, 1),)

    def test_nested_reduction(self):
        w = FreeWord([(0, 1), (1, 1), (1, -1), (0, -1)])
        assert not w

    def test_inverse(self):
        w = FreeWord([(0, 1), (1, -1)])
        assert (w * w.inverse()).letters == ()
        assert w.inverse().letters == ((1, 1), (0, -1))

    def test_powers(self):
        a = FreeWord.generator(0)
        assert (a**3).letters == ((0, 1),) * 3
        assert (a**-2).letters == ((0, -1),) * 2
        assert (a**0).letters == ()
        # words that cancel cyclically, against repeated multiplication
        rng = np.random.default_rng(4)
        for _ in range(30):
            w = FreeWord([(int(rng.integers(0, 2)), int(rng.choice([1, -1]))) for _ in range(5)])
            for n in range(-3, 4):
                expected = FreeWord.empty()
                for _ in range(abs(n)):
                    expected = expected * (w if n > 0 else w.inverse())
                assert w**n == expected

    def test_exponent_sum(self):
        w = FreeWord([(0, 1), (1, 1), (0, 1), (1, -1)])
        # entry (j, 0) is the exponent sum of a_j in the one relator, mod p
        assert exponent_sum_matrix(Presentation(("a", "b"), (w,)), 5).array.tolist() == [[2], [0]]
        assert exponent_sum_matrix(Presentation(("a", "b"), (w.inverse(),)), 5).array.tolist() == [[3], [0]]

    def test_map_letters_reads_a_table(self):
        w = FreeWord([(0, 1), (1, 1), (0, -1)])
        image = {(0, 1): ((0, 1), (1, 1)), (0, -1): ((1, -1), (0, -1)), (1, 1): ((1, -1),), (1, -1): ((1, 1),)}
        # a b a^-1 -> (a b) b^-1 (b^-1 a^-1), reduced once
        assert map_letters(w, image).letters == ((0, 1), (1, -1), (0, -1))

    def test_generator_swap_keeps_words_reduced(self):
        rng = np.random.default_rng(15)
        swap = {(g, s): (({0: 1, 1: 0}.get(g, g), s),) for g in range(3) for s in (1, -1)}
        for _ in range(200):
            w = FreeWord([(int(rng.integers(0, 3)), int(rng.choice([1, -1]))) for _ in range(20)])
            swapped = tuple(swap[letter][0] for letter in w.letters)
            assert FreeWord(swapped).letters == swapped
            assert map_letters(w, swap) == FreeWord(swapped)


class TestParser:
    def test_commutator(self):
        pres = parse_presentation("< a, b | a b a^-1 b^-1 >")
        assert pres.n_generators == 2
        assert pres.n_relators == 1
        assert len(pres.relators[0]) == 4

    def test_single_torsion(self):
        pres = parse_presentation("< a | a a >")
        assert pres.deficiency == 0
        assert pres.relators[0].letters == ((0, 1), (0, 1))

    def test_free_group(self):
        pres = parse_presentation("< a, b | >")
        assert pres.relators == ()
        assert pres.deficiency == 2

    def test_exponent_expansion(self):
        pres = parse_presentation("< a | a^3 >")
        assert pres.relators[0].letters == ((0, 1),) * 3
        pres = parse_presentation("< a, b | a^-2 b >")
        assert pres.relators[0].letters == ((0, -1), (0, -1), (1, 1))

    def test_roundtrip(self):
        text = "< a, b | a b a^-1 b^-1, b b >"
        pres = parse_presentation(text)
        assert parse_presentation(pres.to_text()).relators == pres.relators

    def test_unknown_generator_with_position(self):
        with pytest.raises(PresentationSyntaxError) as info:
            parse_presentation("< a |\n a c >")
        assert info.value.line == 2
        assert "c" in str(info.value)

    def test_duplicate_generator(self):
        with pytest.raises(PresentationSyntaxError):
            parse_presentation("< a, a | >")

    def test_syntax_errors(self):
        for bad in ("a, b | >", "< a, b >", "< a | a ^ >", "< a | a > trailing", "< | a >", "< a | , >"):
            with pytest.raises(PresentationSyntaxError):
                parse_presentation(bad)

    def test_letter_cap_before_expansion(self):
        old = fpexact.entry_cap()
        tracemalloc.start()
        try:
            fpexact.set_entry_cap(1000)
            assert len(parse_presentation("< a | a^1000 >").relators[0]) == 1000
            with pytest.raises(CapExceededError, match="presentation needs 1001 entries"):
                parse_presentation("< a | a^1001 >")
            # the count runs over the whole presentation
            with pytest.raises(CapExceededError, match="presentation needs 1001 entries"):
                parse_presentation("< a, b | a^600, b b^399 a^-1 >")
            tracemalloc.reset_peak()
            with pytest.raises(CapExceededError):
                parse_presentation("< a | a^10000000 >")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            fpexact.set_entry_cap(old)
        assert peak < 1 << 20  # the expanded word would take 80 MB

    def test_bad_character(self):
        with pytest.raises(PresentationSyntaxError) as info:
            parse_presentation("< a | a * a >")
        assert info.value.col == 9

    @pytest.mark.parametrize(
        "text, message, line, col",
        [
            ("a, b | >", "expected '<', found 'a'", 1, 1),
            ("< a, b >", "expected '|', found '>'", 1, 8),
            ("< a | a ^ >", "expected 'int', found '>'", 1, 11),
            ("< a | a^x >", "expected 'int', found 'x'", 1, 9),
            ("< a | a", "expected '>', found 'end of input'", 1, 8),
            ("< a | a > trailing", "expected 'eof', found 'trailing'", 1, 11),
            ("< | a >", "expected 'ident', found '|'", 1, 3),
            ("< a | , >", "expected a word", 1, 7),
            ("< a, b | a,\n  >", "expected a word", 2, 3),
            ("< a, a | >", "duplicate generator 'a'", 1, 8),
            ("< a |\n a c >", "unknown generator 'c'", 2, 4),
            # an unexpected character wins over the earlier missing '|'
            ("< a, b >\n  *", "unexpected character '*'", 2, 3),
        ],
    )
    def test_error_contract(self, text, message, line, col):
        with pytest.raises(PresentationSyntaxError) as info:
            parse_presentation(text)
        assert str(info.value) == f"{message} (line {line}, column {col})"
        assert (info.value.line, info.value.col) == (line, col)

    def test_many_generators_linear(self):
        names = [f"g{i}" for i in range(20000)]
        start = time.perf_counter()
        pres = parse_presentation(f"< {', '.join(names)} | >")
        assert time.perf_counter() - start < 1.0
        assert pres.generator_names == tuple(names)
        # a repeated name is reported at the token after the generator list
        text = f"< {', '.join(names)}, g7 | >"
        with pytest.raises(PresentationSyntaxError) as info:
            parse_presentation(text)
        assert str(info.value) == f"duplicate generator 'g7' (line 1, column {text.index('|') + 1})"

    def test_roundtrip_random_layout(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            text, pres, expanded = random_layout(rng)
            assert parse_presentation(text) == pres, text
            assert parse_presentation(pres.to_text()) == pres
            assert parse_presentation(expanded) == pres

    def test_distinct_term_path_agrees_with_token_loop(self, monkeypatch):
        # str.split, which the distinct-term path splits with, and the regex \s of the
        # token loop must agree on every character the mutations insert
        for ch in "".join(MUTATION_CHARS):
            splits = ("x" + ch + "x").split() == ["x", "x"]
            assert splits == bool(re.fullmatch(r"\s", ch)) == (ch in " \t\n\r\xa0\u2003\u3000\x1c\x85"), repr(ch)
        rng = random.Random(20261021)
        texts = [commutator_text(rng, n, length) for n, length in ((3, 2000), (2, 900), (3, 300), (4, 60), (2, 12))]
        layout = np.random.default_rng(32)
        texts += [random_layout(layout)[0] for _ in range(40)]
        # a text whose term fails is parsed once more with '^' glued to its neighbours, as this regex glues it
        glue, calls, parse_terms = re.compile(r"\s*\^\s*"), [], presentations._parse_terms
        monkeypatch.setattr(presentations, "_parse_terms", lambda text: calls.append(text) or parse_terms(text))
        glued = 0
        old = fpexact.entry_cap()
        try:
            for i, text in enumerate(texts):
                # every other text runs under a cap of its own letter count, which a mutation can cross
                terms = re.findall(r"[A-Za-z_][A-Za-z_0-9]*(?:\s*\^\s*([+-]?[0-9]+))?", text.partition("|")[2])
                fpexact.set_entry_cap(max(sum(abs(int(k or 1)) for k in terms), 1) if i % 2 else old)
                for t in [text] + [mutate(rng, text) for _ in range(60)]:
                    calls.clear()
                    assert outcome(parse_presentation, t) == outcome(presentations._parse_tokens, t), repr(t)
                    head, _, body = t.strip()[1:-1].partition("|")
                    assert calls[1:] in ([], [f"<{head}|{glue.sub('^', body)}>"]), repr(t)
                    glued += len(calls) - 1
        finally:
            fpexact.set_entry_cap(old)
        assert glued > 100, glued

    def test_valid_texts_skip_token_loop(self, monkeypatch):
        texts = [
            "< a, b | a b a^-1 b^-1 >",
            "< a, b | a ^ -1 b, b ^-2 a^ +3 >",
            "< a, b | a,b , a b,\n b >",
            "< a,b|a b^-1,b>",
            "\t< a, b |\r\n a\n a^+2 b\xa0b^-1 >\n",
            "< x, y | x^0 y, x^007 y^-0 >",
            "< a | >",
            "< a, b |\n >",
            commutator_text(random.Random(7), 3, 500),
        ]
        expected = [presentations._parse_tokens(text) for text in texts]
        monkeypatch.setattr(fpexact, "_entry_cap", 1000)
        texts += ["< a | a^1000 >", "< a | " + "a " * 1000 + ">", "< a, b | a^600, b b^399 >",
                  "< a, b | a^500 b b b >"]  # exactly at the cap; and below it, though above 500 x 4 terms
        expected += [presentations._parse_tokens(text) for text in texts[len(expected):]]

        def refuse(text):
            raise AssertionError(f"the token loop read a valid text: {text!r}")

        monkeypatch.setattr(presentations, "_parse_tokens", refuse)
        for text, pres in zip(texts, expected):
            assert parse_presentation(text) == pres

    def test_cap_errors_worded_by_token_loop(self, monkeypatch):
        monkeypatch.setattr(fpexact, "_entry_cap", 1000)
        for text in ("< a | a^1001 >", "< a, b | a^600, b b^399 a >", "< a | " + "a " * 1001 + ">",
                     "< a, b | a^999 b^-2 a^5 >"):
            with pytest.raises(CapExceededError) as info:
                parse_presentation(text)
            with pytest.raises(CapExceededError) as reference:
                presentations._parse_tokens(text)
            assert str(info.value) == str(reference.value)
            assert str(info.value).startswith("presentation needs 1001 entries, above the cap of 1000")

    def test_bad_cap_read_where_token_loop_reads_it(self, monkeypatch):
        monkeypatch.setattr(fpexact, "_entry_cap", None)  # read HCC_MATRIX_CAP again
        monkeypatch.setenv("HCC_MATRIX_CAP", "lots")
        assert parse_presentation("< a | >") == Presentation(("a",), ())
        assert parse_presentation("< a, b |\n >").relators == ()
        # the loop reads the cap at the first term, even when a later one is bad
        for text in ("< a | a >", "< a | a^0 >", "< a | a, x >", "< a | a b >"):
            with pytest.raises(ValueError, match="HCC_MATRIX_CAP must be a positive integer, got 'lots'"):
                parse_presentation(text)
        # an error found before the first term wins
        for text, message in (("< a | x >", "unknown generator 'x'"), ("< a | , a >", "expected a word"),
                              ("< a, a | a >", "duplicate generator 'a'")):
            with pytest.raises(PresentationSyntaxError, match=message):
                parse_presentation(text)


# one-character edits for the differential test: grammar characters, digits,
# and whitespace str.split and the regex \s must both see, Unicode included
MUTATION_CHARS = ["^", "+", "-", "0", "7", ",", "|", "<", ">", "a", "b", "x", "_", "*", " ", "\t", "\n", "\r\n",
                  "\xa0", "\u2003", "\u3000", "\x1c", "\x85"]


def mutate(rng, text):
    """``text`` with one to three characters inserted, deleted or replaced."""
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(text) + 1)
        cut = rng.choice((0, 1))  # 0 inserts, 1 deletes or replaces
        text = text[:i] + rng.choice(MUTATION_CHARS + [""] * 4) * (cut or 1) + text[i + cut:]
    return text


def outcome(parse, text):
    """A parse's presentation, or its error's type, text, line and column."""
    try:
        return parse(text)
    except (PresentationSyntaxError, CapExceededError) as e:
        return type(e), str(e), getattr(e, "line", None), getattr(e, "col", None)


def commutator_text(rng, n, length):
    """A product of commutators of one- and two-letter words on n generators,
    at least ``length`` letters, spelled with powers, '+' signs, spaced '^',
    tabs, newlines and free-standing commas between relators, at random."""
    names = "abcdefgh"[:n]
    letters = []
    while len(letters) < length:
        u, v = ([(rng.randrange(n), rng.choice((1, -1))) for _ in range(rng.randint(1, 2))] for _ in "uv")
        letters += u + v + [(g, -s) for g, s in reversed(u)] + [(g, -s) for g, s in reversed(v)]
    terms = []
    for (g, s), run in itertools.groupby(letters):
        k = len(list(run))
        powers = [k] if rng.random() < 0.5 else [1] * k
        for e in powers:
            exponent = "" if s * e == 1 and rng.random() < 0.8 else f"{rng.choice(('', '+')) if s > 0 else '-'}{e}"
            caret = rng.choice(("^", "^", "^", " ^ ", "^\t", "\n^"))
            terms.append(names[g] + (caret + exponent if exponent else ""))
    cuts = sorted(rng.sample(range(1, len(terms)), 2)) if len(terms) > 2 else []
    words = [terms[i:j] for i, j in zip([0] + cuts, cuts + [len(terms)])]
    return f"< {', '.join(names)} | " + rng.choice((", ", " ,\n", "\t,\t")).join(
        "".join(rng.choice((" ", " ", "\t", "\n")) + t for t in w) for w in words) + " >"


def random_layout(rng):
    """A random presentation on up to four generators, its tokens spaced at
    random: the text, the presentation, and its relators' letters spelled one
    letter per term."""
    spaces = [" ", "\t", "\n", "\r\n", " \n\t"]

    def gap():
        return "".join(rng.choice(spaces) for _ in range(int(rng.integers(0, 3))))

    names = ["a", "b", "c", "d"][: int(rng.integers(1, 5))]
    relators = []
    tokens = ["<", *" , ".join(names).split(), "|"]
    expanded = []  # x^k spelled as k copies of x (or of x^-1)
    while len(relators) < 3 and rng.random() < 0.75:
        terms = [
            (int(rng.integers(0, len(names))), int(rng.choice([-1, 1])) * int(rng.integers(1, 4)))
            for _ in range(int(rng.integers(1, 6)))
        ]
        word = FreeWord([(g, 1 if k > 0 else -1) for g, k in terms for _ in range(abs(k))])
        if not word:
            continue
        tokens += [","] if relators else []
        relators.append(word)
        for g, k in terms:
            tokens.append(names[g])
            if k != 1 or rng.random() < 0.5:
                tokens += ["^", f"+{k}" if k > 0 and rng.random() < 0.3 else str(k)]
        expanded.append(" ".join(names[g] + ("" if k > 0 else "^-1") for g, k in terms for _ in range(abs(k))))
    tokens.append(">")
    text = gap()
    for prev, tok in zip([""] + tokens, tokens):
        between = gap()
        if not between and prev[-1:].isalnum() and tok[0].isalnum():
            between = " "  # two names, or a name and a number, would run together
        text += between + tok
    text += gap()
    return text, Presentation(tuple(names), tuple(relators)), f"< {', '.join(names)} | {', '.join(expanded)} >"


class TestFoxDerivative:
    def test_single_generator(self):
        (term,) = fox_derivative(FreeWord.generator(0), 0)
        assert term == (1, 0)  # + the empty prefix

    def test_inverse_generator(self):
        w = FreeWord.generator(0, -1)
        (term,) = fox_derivative(w, 0)
        assert term == (-1, 1)  # - the prefix a^-1, the whole word
        assert FreeWord(w.letters[: term[1]]) == FreeWord.generator(0, -1)

    def test_other_generator(self):
        assert fox_derivative(FreeWord.generator(1), 0) == ()

    def test_commutator(self):
        w = parse_presentation("< a, b | a b a^-1 b^-1 >").relators[0]
        terms = fox_derivative(w, 0)
        assert terms == ((1, 0), (-1, 3))
        assert FreeWord(w.letters[: terms[0][1]]) == FreeWord.empty()
        assert FreeWord(w.letters[: terms[1][1]]) == FreeWord([(0, 1), (1, 1), (0, -1)])

    def test_power_rule(self):
        w = FreeWord.generator(0) ** 3
        terms = fox_derivative(w, 0)
        assert [sign for sign, _ in terms] == [1, 1, 1]
        assert [w.letters[:k] for _, k in terms] == [(), ((0, 1),), ((0, 1), (0, 1))]

    def test_product_rule_random(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            letters_u = [(int(rng.integers(0, 3)), int(rng.choice([1, -1]))) for _ in range(4)]
            letters_v = [(int(rng.integers(0, 3)), int(rng.choice([1, -1]))) for _ in range(4)]
            u, v = FreeWord(letters_u), FreeWord(letters_v)
            uv = u * v
            for j in range(3):
                left = [(s, FreeWord(u.letters[:k])) for s, k in fox_derivative(u, j)] + [
                    (s, u * FreeWord(v.letters[:k])) for s, k in fox_derivative(v, j)
                ]
                right = [(s, FreeWord(uv.letters[:k])) for s, k in fox_derivative(uv, j)]
                # cancellation can shrink both sides; compare images in F_3[Z_3^3]
                group = make_elementary_abelian(3, 3)
                hom = Homomorphism(
                    parse_presentation("< x, y, z | >"), group,
                    [group.ea_index[(1, 0, 0)], group.ea_index[(0, 1, 0)], group.ea_index[(0, 0, 1)]],
                )
                img = lambda terms: sum(
                    (
                        s % 3 * GroupRingElement.delta(group, 3, hom.word_image(w))
                        for s, w in terms
                    ),
                    GroupRingElement.zero(group, 3),
                )
                assert img(left) == img(right)

    def test_terms_are_signed_prefix_lengths_one_per_occurrence(self):
        rng = np.random.default_rng(30)
        for _ in range(200):
            n = int(rng.integers(1, 4))
            w = FreeWord([(int(rng.integers(0, n)), int(rng.choice([1, -1]))) for _ in range(int(rng.integers(0, 40)))])
            letters = w.letters
            ends = []
            for j in range(n):
                terms = fox_derivative(w, j)
                assert all(type(s) is int and type(k) is int for s, k in terms)
                assert [k for _, k in terms] == sorted({k for _, k in terms})  # k increasing
                # one term per occurrence of a_j: the letter after the prefix
                # for a_j, the prefix's last letter for a_j^-1
                assert len(terms) == sum(g == j for g, _ in letters)
                for sign, k in terms:
                    assert 0 <= k <= len(letters)
                    assert letters[k if sign == 1 else k - 1] == (j, sign)
                    ends.append(k if sign == 1 else k - 1)
            assert sorted(ends) == list(range(len(letters)))  # one term per letter

    def test_fundamental_identity(self):
        # sum_j d(w)/d(a_j) * (a_j - 1) == w - 1 after any finite quotient
        rng = np.random.default_rng(10)
        group = make_elementary_abelian(2, 2)
        pres = parse_presentation("< x, y | >")
        hom = Homomorphism(pres, group, [1, 2])
        p = 2
        for _ in range(15):
            letters = [(int(rng.integers(0, 2)), int(rng.choice([1, -1]))) for _ in range(6)]
            w = FreeWord(letters)
            total = GroupRingElement.zero(group, p)
            for j in range(2):
                dw = sum(
                    (
                        s % p * GroupRingElement.delta(group, p, hom.word_image(FreeWord(w.letters[:k])))
                        for s, k in fox_derivative(w, j)
                    ),
                    GroupRingElement.zero(group, p),
                )
                aj = GroupRingElement.delta(group, p, hom.images[j]) - GroupRingElement.delta(
                    group, p, group.identity_index
                )
                total = total + ring_mul(dw, aj)
            expected = GroupRingElement.delta(group, p, hom.word_image(w)) - GroupRingElement.delta(
                group, p, group.identity_index
            )
            assert total == expected


class TestComplexSummary:
    def test_torus(self):
        s = complex_summary(parse_presentation("< a, b | a b a^-1 b^-1 >"), 2)
        assert s.boundary.to_rows() == [[0], [0]]
        assert (s.b0, s.b1, s.b2) == (1, 2, 1)
        assert s.euler == 0

    def test_projective_plane_mod2(self):
        s = complex_summary(parse_presentation("< a | a a >"), 2)
        assert (s.b0, s.b1, s.b2) == (1, 1, 1)
        assert s.euler == 1

    def test_aa_mod3(self):
        s = complex_summary(parse_presentation("< a | a a >"), 3)
        assert s.boundary.to_rows() == [[2]]
        assert s.rank == 1
        assert (s.b1, s.b2) == (0, 0)

    def test_exponent_sums_and_identities(self):
        pres = parse_presentation("< a, b, c | a a b^-1, c^3 >")
        s = complex_summary(pres, 5)
        assert s.boundary.to_rows() == [[2, 0], [4, 0], [0, 3]]
        assert s.rank == pres.n_generators - s.b1
        assert s.euler == 1 - s.b1 + s.b2

    def test_cap_checked_before_allocation(self):
        n = m = 1500
        names = tuple(f"x{j}" for j in range(n))
        pres = Presentation(names, tuple(FreeWord.generator(i) for i in range(m)))
        old = fpexact.entry_cap()
        tracemalloc.start()
        try:
            fpexact.set_entry_cap(n * m - 1)
            with pytest.raises(CapExceededError, match="matrix needs 2250000 entries"):
                complex_summary(pres, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            fpexact.set_entry_cap(old)
        assert peak < n * m  # the refused int64 matrix would take 8 * n * m bytes

    def test_augmentation_of_fox_terms_gives_entries(self):
        pres = parse_presentation("< a, b | a b a b^-1 >")
        s = complex_summary(pres, 3)
        for j in range(2):
            total = sum(sign for sign, _ in fox_derivative(pres.relators[0], j)) % 3
            assert total == s.boundary.entry(j, 0)


class TestNormalize:
    def test_long_word_refused_before_it_is_built(self):
        # at p = 10007 the replayed substitution a -> a b^5002 would spell
        # about 5 * 10^7 letters; its length is known before it is built
        pres = parse_presentation("< a, b | a^2 b^3, a^5 b^7 >")
        tracemalloc.start()
        try:
            with pytest.raises(CapExceededError, match="^presentation needs [0-9]+ entries, above the cap"):
                normalize_presentation(pres, 10007)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20

    def test_already_diagonal(self):
        pres = parse_presentation("< a, b | a a >")
        norm = normalize_presentation(pres, 3)
        assert norm.relators == pres.relators

    def test_one_column_operation(self):
        pres = parse_presentation("< a, b | a b, b >")
        assert complex_summary(pres, 2).boundary.to_rows() == [[1, 0], [1, 1]]
        norm = normalize_presentation(pres, 2)
        assert complex_summary(norm, 2).boundary.to_rows() == [[1, 0], [0, 1]]

    def test_free_group_unchanged(self):
        pres = parse_presentation("< a, b | >")
        assert normalize_presentation(pres, 2) == pres

    def test_reads_only_the_exponent_sum_matrix(self, monkeypatch):
        # the replay certificate compares boundary matrices; no rank is taken
        ranked = []
        rank = fpexact.rank
        monkeypatch.setattr(fpexact, "rank", lambda m: ranked.append((m.rows, m.cols)) or rank(m))
        pres = parse_presentation("< a, b | a b, b >")
        norm = normalize_presentation(pres, 2)
        assert ranked == []
        assert exponent_sum_matrix(norm, 2).to_rows() == [[1, 0], [0, 1]]

    def test_counts_and_betti_preserved(self):
        rng = np.random.default_rng(12)
        for p in (2, 3):
            for _ in range(10):
                n = int(rng.integers(1, 4))
                m = int(rng.integers(0, 4))
                relators = []
                for _ in range(m):
                    letters = [
                        (int(rng.integers(0, n)), int(rng.choice([1, -1]))) for _ in range(6)
                    ]
                    relators.append(FreeWord(letters))
                pres = Presentation(tuple(f"g{i}" for i in range(n)), tuple(relators))
                norm = normalize_presentation(pres, p)
                assert norm.n_generators == n and norm.n_relators == m
                a, b = complex_summary(pres, p), complex_summary(norm, p)
                assert (a.b1, a.b2) == (b.b1, b.b2)
                snf = smith_normal_form(a.boundary)
                assert b.boundary == block_diagonal(snf.diagonal, n, m, p)

    def test_swapped_relators_are_reduced(self):
        # the boundary [[0, 1], [2, 0]] at p = 3 needs a generator swap first
        pres = parse_presentation("< a, b | b^2 a b a^-1 b^-1, a b^3 >")
        snf = smith_normal_form(exponent_sum_matrix(pres, 3))
        assert snf.left_ops[0] == fpexact.ElementaryOp("S", 0, 1)
        norm = normalize_presentation(pres, 3)
        assert all(FreeWord(w.letters).letters == w.letters for w in norm.relators)
        assert norm == reference_normalize(pres, 3)

    def test_matches_letter_by_letter_replay(self):
        # the shapes of the benchmark's present --normalize queries
        rng = np.random.default_rng(20261019)
        shapes = [(2, [3000], 2), (3, [1500, 1000], 3), (2, [2000, 1200], 5), (3, [1000], 3)]
        shapes += [(2, [400, 400], 2), (3, [400, 400], 3), (2, [500], 5), (3, [300, 300], 3)]
        for n, lengths, p in shapes:
            pres = commutators_with_tail(rng, n, lengths)
            assert normalize_presentation(pres, p) == reference_normalize(pres, p), (n, lengths, p)


def commutators_with_tail(rng, n, lengths):
    """Relators of about the given lengths: a product of commutators of short
    words, then a tail with nonzero exponent sums."""
    relators = []
    for length in lengths:
        letters = []
        while len(letters) < length:
            u, v = (FreeWord([(int(rng.integers(0, n)), int(rng.choice([1, -1]))) for _ in range(3)]) for _ in "uv")
            letters += (u * v * u.inverse() * v.inverse()).letters
        tail = [(g, int(np.sign(e))) for g in range(n) for e in [int(rng.integers(-3, 4))] for _ in range(abs(e))]
        relators.append(FreeWord(letters + tail))
    return Presentation(tuple(f"g{i}" for i in range(n)), tuple(relators))


def reference_normalize(pres, p):
    """The normal-form replay one letter at a time, each generator
    substitution a function called per letter, each relator product a
    power and then a product."""
    snf = smith_normal_form(exponent_sum_matrix(pres, p))
    relators = list(pres.relators)
    for op in snf.right_ops:
        if op.kind == "S":
            relators[op.i], relators[op.j] = relators[op.j], relators[op.i]
        else:
            relators[op.i] = relators[op.i] * relators[op.j] ** op.q
    for op in snf.left_ops:
        if op.kind == "S":
            def image(g, s, i=op.i, j=op.j):
                return (({i: j, j: i}.get(g, g), s),)
        else:
            def image(g, s, i=op.i, j=op.j, q=op.q):
                if g != i:
                    return ((g, s),)
                return (FreeWord([(i, 1)] + [(j, 1)] * q) ** s).letters
        relators = [FreeWord([x for g, s in w.letters for x in image(g, s)]) for w in relators]
    return Presentation(pres.generator_names, tuple(relators))


def reference_reidemeister_schreier(pres, hom):
    """Word-based Reidemeister-Schreier: explicit representative words and
    Schreier words, cosets stepped by group operations.  Also returns
    the Schreier word of each kernel generator."""
    group, n = hom.group, pres.n_generators

    def act(x, j, s):
        return group.op(x, hom.images[j] if s == 1 else group.inverse(hom.images[j]))

    order = [group.identity_index]
    reps = {order[0]: FreeWord.empty()}
    for x in order:
        for s in (1, -1):
            for j in range(n):
                y = act(x, j, s)
                if y not in reps:
                    reps[y] = reps[x] * FreeWord.generator(j, s)
                    order.append(y)
    gen_id, names, schreier = {}, [], []
    for c, x in enumerate(order):
        for j in range(n):
            word = reps[x] * FreeWord.generator(j) * reps[act(x, j, 1)].inverse()
            if word:
                gen_id[(x, j)] = len(names)
                names.append(f"{pres.generator_names[j]}_{c}")
                schreier.append(word)

    def rewrite(word, x):
        out = []
        for j, s in word.letters:
            if s == -1:
                x = act(x, j, -1)
            if (x, j) in gen_id:
                out.append((gen_id[(x, j)], s))
            if s == 1:
                x = act(x, j, 1)
        return FreeWord(out)

    relators = tuple(rewrite(rel, x) for rel in pres.relators for x in order)
    return Presentation(tuple(names), relators), schreier, [reps[x] for x in order]


def check_against_reference(pres, hom):
    kernel = reidemeister_schreier(pres, hom)
    expected, schreier, reps = reference_reidemeister_schreier(pres, hom)
    assert kernel == expected, (pres, hom)
    # substituting the Schreier words back gives the conjugates rep rel rep^-1
    rewritten = iter(kernel.relators)
    image = {(g, s): (word**s).letters for g, word in enumerate(schreier) for s in (1, -1)}
    for rel in pres.relators:
        for rep in reps:
            word = map_letters(next(rewritten), image)
            assert word == rep * rel * rep.inverse()


class TestReidemeisterSchreier:
    def test_matches_word_reference_on_corpus(self):
        for item in corpus.CORPUS:
            pres, _, hom = corpus.build_item(item)
            check_against_reference(pres, hom)

    def test_matches_word_reference_on_random_cases(self):
        rng = np.random.default_rng(20261018)
        kinds = set()
        for _ in range(240):
            pres, hom, _ = random_case(rng)
            check_against_reference(pres, hom)
            kinds.add((hom.group.size, hom.group.is_abelian(), hom.surjective))
        assert (6, False, True) in kinds  # S3
        assert any(not surjective for _, _, surjective in kinds)

    def test_kernel_relators_are_already_reduced(self):
        # the rewrite wraps its letters without reducing them again
        cases = [corpus.build_item(item)[::2] for item in corpus.CORPUS]
        rng = np.random.default_rng(1000)
        cases += [random_case(rng)[:2] for _ in range(1000)]
        for pres, hom in cases:
            for w in reidemeister_schreier(pres, hom).relators:
                assert w == FreeWord(w.letters) and w.inverse() == FreeWord(w.inverse().letters), (pres, hom)

    def test_free_rank_three_kernel(self):
        pres = parse_presentation("< a, b | >")
        hom = Homomorphism(pres, make_elementary_abelian(2, 1), [1, 0])
        ker = reidemeister_schreier(pres, hom)
        assert ker.n_generators == 3 and ker.n_relators == 0
        assert complex_summary(ker, 2).b1 == 3

    def test_torus_kernel_is_rank_two(self):
        pres = parse_presentation("< a, b | a b a^-1 b^-1 >")
        group = make_elementary_abelian(2, 2)
        hom = Homomorphism(pres, group, [1, 2])
        ker = reidemeister_schreier(pres, hom)
        assert ker.n_generators == 4 * 2 - 4 + 1
        assert ker.n_relators == 4
        assert complex_summary(ker, 2).b1 == 2

    def test_trivial_target_identity_cover(self):
        pres = parse_presentation("< a, b | a b a b^-1 >")
        hom = Homomorphism(pres, make_cyclic(1), [0, 0])
        ker = reidemeister_schreier(pres, hom)
        for p in (2, 3):
            a, b = complex_summary(pres, p), complex_summary(ker, p)
            assert (a.b1, a.b2) == (b.b1, b.b2)

    def test_schreier_counts(self):
        # index * (n - 1) + 1 generators, index * m relators
        pres = parse_presentation("< a, b, c | a a, b c >")
        group = make_cyclic(4)
        hom = Homomorphism(pres, group, [0, 1, 3])
        ker = reidemeister_schreier(pres, hom)
        assert ker.n_generators == 4 * 2 + 1
        assert ker.n_relators == 4 * 2

    def test_deterministic_names(self):
        pres = parse_presentation("< a, b | >")
        hom = Homomorphism(pres, make_elementary_abelian(2, 1), [1, 0])
        ker = reidemeister_schreier(pres, hom)
        assert ker.generator_names == ("b_0", "a_1", "b_1")

    def test_nonsurjective_uses_image_cosets(self):
        pres = parse_presentation("< a | >")
        group = make_elementary_abelian(2, 2)
        hom = Homomorphism(pres, group, [1])
        ker = reidemeister_schreier(pres, hom)
        # image has index... the kernel of Z -> Z_2 is Z: one generator
        assert ker.n_generators == 1
        assert complex_summary(ker, 2).b1 == 1

    def test_randomized_cross_check_against_covers(self):
        # random presentations whose relators are commutators and p-th
        # powers, so any assignment of generator images is compatible
        from hcc.covers import build_cover

        rng = np.random.default_rng(20)
        cases = 0
        while cases < 20:
            p = int(rng.choice([2, 3]))
            r = int(rng.integers(1, 3))
            n = int(rng.integers(r, r + 3))
            group = make_elementary_abelian(p, r)

            def word(length):
                return FreeWord(
                    [(int(rng.integers(0, n)), int(rng.choice([1, -1]))) for _ in range(length)]
                )

            relators = []
            for _ in range(int(rng.integers(0, 3))):
                if rng.random() < 0.5:
                    u, v = word(3), word(3)
                    relators.append(u * v * u.inverse() * v.inverse())
                else:
                    relators.append(word(3) ** p)
            pres = Presentation(tuple(f"g{i}" for i in range(n)), tuple(relators))
            basis = [group.ea_index[tuple(int(i == j) for i in range(r))] for j in range(r)]
            extra = [int(rng.integers(0, group.size)) for _ in range(n - r)]
            hom = Homomorphism(pres, group, basis + extra)
            assert hom.surjective
            cover = build_cover(pres, hom, p)
            kernel = reidemeister_schreier(pres, hom)
            assert kernel.n_generators - kernel.n_relators == group.size * (n - 1) + 1 - group.size * len(relators)
            assert complex_summary(kernel, p).b1 == cover.b1
            assert cover.b0 == 1
            cases += 1
        # cyclic, product and S3 targets, and maps that are not onto: the
        # cover has b0 components, each the kernel's cover
        rng = np.random.default_rng(21)
        components = set()
        for _ in range(80):
            pres, hom, p = random_case(rng)
            cover = build_cover(pres, hom, p)
            kernel = reidemeister_schreier(pres, hom)
            assert cover.b1 == cover.b0 * complex_summary(kernel, p).b1, (pres, hom, p)
            components.add(cover.b0)
        assert len(components) > 1


def reduce_pairs(letters):
    """Free reduction of (generator, sign) pairs, one letter at a time."""
    out = []
    for g, s in letters:
        if out and out[-1] == (g, -s):
            out.pop()
        else:
            out.append((g, s))
    return tuple(out)


def random_letters(rng, n, length):
    return [(int(rng.integers(0, n)), int(rng.choice([1, -1]))) for _ in range(length)]


def inverse_pairs(letters):
    return tuple((g, -s) for g, s in reversed(letters))


class TestLetterCodes:
    """Words stored as int32 letter codes against pair-based references."""

    def test_codes_spell_the_letters(self):
        rng = np.random.default_rng(2026102001)
        for _ in range(300):
            letters = random_letters(rng, 3, int(rng.integers(0, 30)))
            w, expected = FreeWord(letters), reduce_pairs(letters)
            assert w.letters == expected and list(w) == list(expected) and len(w) == len(expected)
            assert w.codes.tolist() == [2 * g + (s == -1) for g, s in expected]
            assert w.codes.dtype == np.int32 and not w.codes.flags.writeable
            assert hash(w) == hash(expected) == hash(FreeWord(expected))
            assert w.max_generator() == max((g for g, _ in expected), default=-1)
            v = FreeWord(random_letters(rng, 2, int(rng.integers(0, 4))))
            assert (w == v) == (w.letters == v.letters) and (w == FreeWord(expected))
        for bad in ([(-1, 1)], [(0, 2)], [(0, 0)], [(1 << 30, 1)]):
            with pytest.raises(ValueError, match="bad letter"):
                FreeWord(bad)

    def test_products_and_powers_against_letter_by_letter_reduction(self):
        rng = np.random.default_rng(2026102002)
        for _ in range(300):
            u = FreeWord(random_letters(rng, 2, int(rng.integers(0, 9))))
            # conjugates, so powers cancel cyclically and products at long seams
            t = FreeWord(random_letters(rng, 3, int(rng.integers(0, 5))))
            v = t * FreeWord(random_letters(rng, 3, int(rng.integers(0, 4)))) * t.inverse()
            for x, y in ((u, v), (v, u), (v, v.inverse()), (u, u), (v.inverse(), v * u)):
                assert (x * y).letters == reduce_pairs(x.letters + y.letters)
            assert u.inverse().letters == inverse_pairs(u.letters)
            for w in (u, v):
                for q in range(-4, 5):
                    base = w.letters if q >= 0 else inverse_pairs(w.letters)
                    assert (w**q).letters == reduce_pairs(base * abs(q)), (w, q)
                    assert not (w**q).codes.flags.writeable

    def test_exponent_sums_against_counter(self):
        rng = np.random.default_rng(2026102003)
        for p in (2, 3, 7, 1009):
            for _ in range(20):
                n, m = int(rng.integers(1, 5)), int(rng.integers(0, 5))
                relators = tuple(FreeWord(random_letters(rng, n, int(rng.integers(0, 60)))) for _ in range(m))
                expected = [[0] * m for _ in range(n)]
                for i, w in enumerate(relators):
                    for (g, s), k in Counter(w.letters).items():
                        expected[g][i] += s * k
                pres = Presentation(tuple(f"g{j}" for j in range(n)), relators)
                assert exponent_sum_matrix(pres, p).to_rows() == [[e % p for e in row] for row in expected]

    def test_fox_derivative_against_the_pair_comprehension(self):
        rng = np.random.default_rng(2026102004)
        for _ in range(200):
            n = int(rng.integers(1, 4))
            w = FreeWord(random_letters(rng, n, int(rng.integers(0, 40))))
            for j in range(n + 1):
                expected = tuple((s, k if s == 1 else k + 1) for k, (g, s) in enumerate(w.letters) if g == j)
                assert fox_derivative(w, j) == expected

    def test_text_round_trip(self):
        rng = np.random.default_rng(2026102005)
        names = ("a", "bb", "x_1", "Y")
        for _ in range(200):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(0, 4))
            relators = [FreeWord(random_letters(rng, n, int(rng.integers(1, 20)))) for _ in range(m)]
            pres = Presentation(names[:n], tuple(w for w in relators if w))
            assert parse_presentation(pres.to_text()) == pres
            for w in pres.relators:
                assert w.format(pres.generator_names) == " ".join(
                    names[g] if s == 1 else f"{names[g]}^-1" for g, s in w.letters)
        assert FreeWord.empty().format(names) == "1"

    def test_rewrite_against_the_word_reference(self):
        # abelian, cyclic and non-abelian targets, onto and not onto
        rng = np.random.default_rng(2026102006)
        groups = [make_elementary_abelian(2, 2), make_cyclic(5)] + [PROFILE_GROUPS[k] for k in ("S3", "D4", "Q8")]
        for group in groups:
            for _ in range(12):
                pres, hom, _ = random_case(rng, group)
                check_against_reference(pres, hom)

    def test_chunked_gather(self, monkeypatch):
        # a few cosets per gather, and one coset per gather for relators
        # longer than the bound, give the kernel of one gather
        rng = np.random.default_rng(2026102007)
        cases = [random_case(rng, PROFILE_GROUPS[k])[:2] for k in ("S3", "D4", "Q8") for _ in range(10)]
        whole = [reidemeister_schreier(pres, hom) for pres, hom in cases]
        monkeypatch.setattr(presentations, "_GATHER", 7)
        assert [reidemeister_schreier(pres, hom) for pres, hom in cases] == whole
        for pres, hom in cases[::5]:
            check_against_reference(pres, hom)

    def test_rewrite_letters_are_capped(self):
        # index 4 times 12 letters; the rewrite is refused before any gather
        pres = parse_presentation("< a, b | a^4 b^-4 a^2 b^2 >")
        group = make_elementary_abelian(2, 2)
        hom = Homomorphism(pres, group, [1, 2])
        old = fpexact.entry_cap()
        try:
            fpexact.set_entry_cap(47)
            message = "^Reidemeister-Schreier rewrite needs 48 entries, above the cap of 47"
            with pytest.raises(CapExceededError, match=message):
                reidemeister_schreier(pres, hom)
            fpexact.set_entry_cap(48)
            assert reidemeister_schreier(pres, hom).n_relators == 4
        finally:
            fpexact.set_entry_cap(old)

    def test_normalize_long_substitution(self):
        # a -> a b^503 at p = 1009 spells about half a million letters, and
        # the refused product at p = 1048573 about 2.6 million
        pres = parse_presentation("< a, b | a^2 b^3, a^5 b^7 >")
        norm = normalize_presentation(pres, 1009)
        assert [len(w) for w in norm.relators] == [1011, 510049]
        assert norm == reference_normalize(pres, 1009)
        with pytest.raises(CapExceededError, match="^presentation needs 549753716737 entries, above the cap"):
            normalize_presentation(pres, 1048573)
