import copy
import itertools
import pickle

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from genwords import dyck_words
from oracles import has_minus_pairing, noncrossing_inverse_matchings
from smkit import words
from smkit.words import (
    BaseLetter, Coord, CyclicWord, PairingError, RuleId, State, Tape, Theta,
    TokenError, Word, X, classify_pair, cyclic_reduce, enumerate_pairings,
    find_minus_pairing, is_dyck, is_positive, least_rotation, letter_key,
    letter_keys, parse_generators, parse_relator_name, parse_rule, parse_symbol,
    parse_word, rule_token, word_to_text,
)


def W(text):
    return parse_word(text)


def C(text):
    return CyclicWord(parse_word(text, reduce=False).letters)


# interned symbols, and plain strings as parsed words hold them: equal but
# not identical, since each draw builds its string anew.  Few enough symbols
# that drawn words cancel often.
REDUCE_LETTERS = st.tuples(
    st.one_of(st.sampled_from((Tape(1, BaseLetter("L", 2)), Tape(2, BaseLetter("L", 2)))),
              st.sampled_from(("ab", "cd")).map(lambda s: s[:1] + s[1:])),
    st.sampled_from((1, -1)))


class TestReduce:
    def test_inverse_cancellation(self):
        assert W("a1(L2) a1(L2)^-1").is_empty()

    def test_empty(self):
        assert W("").is_empty()

    def test_single_cancellation(self):
        assert W("a1(L2) a2(L2) a2(L2)^-1 a3(L2)") == W("a1(L2) a3(L2)")

    def test_idempotent_and_insertion_inverse(self, rng):
        syms = ["a", "b", "c"]
        for _ in range(300):
            letters = [(rng.choice(syms), rng.choice((1, -1)))
                       for _ in range(rng.randrange(0, 64))]
            w = Word(letters)
            assert Word(w.letters) == w
            # inserting x x^-1 anywhere reduces back to the same word
            pos = rng.randrange(0, len(w.letters) + 1)
            sym, s = rng.choice(syms), rng.choice((1, -1))
            spliced = w.letters[:pos] + ((sym, s), (sym, -s)) + w.letters[pos:]
            assert Word(spliced) == w

    def test_mul_and_inverse(self, rng):
        for _ in range(100):
            letters = [("a" if rng.random() < 0.5 else "b", rng.choice((1, -1)))
                       for _ in range(rng.randrange(0, 20))]
            w = Word(letters)
            assert (w * w.inverse()).is_empty()

    def test_word_keeps_the_callers_letters(self):
        z = BaseLetter("P", 3)
        letters = [(Tape(1, z), 1), (Tape(2, z), -1), ("a", 1), (Tape(1, z), 1)]
        w = Word(letters)
        assert len(w) == 4 and all(a is b for a, b in zip(w.letters, letters))
        # survivors of a cancellation are the caller's tuples too
        w = Word(letters[:1] + [(Tape(2, z), 1), (Tape(2, z), -1)] + letters[1:])
        assert len(w) == 4 and all(a is b for a, b in zip(w.letters, letters))

    @settings(max_examples=600)
    @given(st.lists(REDUCE_LETTERS, max_size=16),
           st.sampled_from(("none", "first", "middle", "last")),
           REDUCE_LETTERS,
           st.sampled_from((list, tuple, iter)))
    def test_free_reduce_is_the_oracle(self, drawn, where, pair, kind):
        # a reduced word, with one inverse pair x x^-1 put in so that the
        # leftmost cancellation sits at position 0, in the middle or at the
        # last pair (or nowhere)
        letters = list(oracles.free_reduce(drawn))
        if where != "none":
            p = {"first": 0, "middle": len(letters) // 2, "last": len(letters)}[where]
            (x, s) = pair
            if p and letters[p - 1] == (x, -s):
                s = -s
            letters[p:p] = [(x, s), (x, -s)]
        want = oracles.free_reduce(letters)
        assert (want == tuple(letters)) == (where == "none")
        got = words.free_reduce(kind(letters))
        assert got == want
        assert words.is_reduced(kind(letters)) == (got == tuple(letters))
        # the drawn word itself, unreduced in most draws
        assert words.free_reduce(kind(drawn)) == oracles.free_reduce(drawn)
        assert words.is_reduced(kind(drawn)) == (oracles.free_reduce(drawn) == tuple(drawn))
        if kind is tuple and where == "none":
            t = tuple(letters)
            assert words.free_reduce(t) is t


class TestCyclic:
    def test_one_step_conjugation(self):
        conj, core = cyclic_reduce(W("a b a^-1"))
        assert word_to_text(conj) == "a"
        assert core == C("b")

    def test_already_reduced(self):
        conj, core = cyclic_reduce(W("b"))
        assert conj.is_empty() and core == C("b")

    def test_trivial(self):
        conj, core = cyclic_reduce(W("a a^-1"))
        assert conj.is_empty() and len(core) == 0

    def test_conjugation_identity(self, rng):
        for _ in range(200):
            letters = [(rng.choice("ab"), rng.choice((1, -1)))
                       for _ in range(rng.randrange(0, 16))]
            w = Word(letters)
            conj, core = cyclic_reduce(w)
            assert conj * core.word() * conj.inverse() == w

    def test_canonical_rotation_invariance(self):
        w = C("b^-1 a b b^-1 a^-1 b")
        for rot in list(w.rotations()):
            assert CyclicWord(rot) == w

    @pytest.mark.parametrize("trip", (copy.copy, copy.deepcopy,
                                      lambda obj: pickle.loads(pickle.dumps(obj))),
                             ids=("copy", "deepcopy", "pickle"))
    def test_copy_and_pickle(self, trip):
        # through __reduce__: an equal word, also inside a pairing
        w = CyclicWord(parse_word("K1(e,1) a1(L1) a1(L1)^-1 K1(e,1)^-1", reduce=False).letters)
        assert trip(w) == w and trip(C("a b a^-1 b^-1")) == C("a b a^-1 b^-1")
        pairing = enumerate_pairings(w)[0]
        assert trip(pairing) == pairing and trip(pairing).word == w


class TestLeastRotation:
    """``least_rotation`` returns the index of a least key that occurs once
    and runs Booth's algorithm on ties; both paths against the oracle that
    compares every rotation."""

    @pytest.mark.parametrize("text", [
        "a b c b", "c b a c b", "b c b a",    # unique least key first, middle, last
        "a^-1 b a b", "b a b a^-1",            # least by sign alone
        "a b a b a b", "a a b a a b",          # periodic
        "b a c a b a d", "a b a a b a b",      # tied, not periodic
        "a a a a", "a^-1 a^-1", "a", "",       # all equal, length 1, empty
    ])
    def test_hand_picked(self, text):
        letters = parse_word(text, reduce=False).letters
        keys = [letter_key(l) for l in letters]
        assert letter_keys(letters) == keys
        assert least_rotation(keys) == oracles.least_rotation_index(letters)

    def test_structured_keys(self):
        z = BaseLetter("L", 2)
        pool = (Tape(1, z), Tape(2, z), State("L", 2, Coord(1, 3)),
                Theta(RuleId("2", 1, 1), z), X(Tape(1, BaseLetter("K", 3)), RuleId("12", 1, None)))
        for letters in itertools.product([(sym, s) for sym in pool[:3] for s in (1, -1)], repeat=4):
            keys = letter_keys(letters)
            assert keys == [letter_key(l) for l in letters]
            assert least_rotation(keys) == oracles.least_rotation_index(letters)
        letters = [(sym, 1) for sym in pool] * 2
        assert least_rotation(letter_keys(letters)) == 0

    @settings(max_examples=400)
    @given(st.lists(st.tuples(st.sampled_from("ab"), st.sampled_from((1, -1))), max_size=12))
    def test_two_symbol_pool(self, letters):
        # four letters at most, so least keys are often tied
        keys = letter_keys(letters)
        assert least_rotation(keys) == oracles.least_rotation_index(letters)
        k = least_rotation(keys)
        assert CyclicWord(letters).letters == tuple(letters[k:] + letters[:k])


class TestPositive:
    def test_examples(self):
        assert is_positive(W("a1(L2) a2(L2)"))
        assert not is_positive(W("a1(L2)^-1"))
        assert is_positive(W(""))


class TestTokens:
    def test_round_trip(self):
        texts = [
            "a3(L2)", "~a1(P4)", "K1(e,1)", "~P3(r2,4)^-1",
            "th(t2(r1,4),L3)", "th(~t34(r2),K8)",
            "x(a1(L2),t2(r1,2))^-1", "plain", "z9^-1",
        ]
        for text in texts:
            sym, sign = parse_symbol(text)
            assert parse_symbol(text) == parse_symbol(
                text if sign > 0 else text[:-3] + "^-1")
        joined = " ".join(texts)
        assert word_to_text(parse_word(joined, reduce=False)) == joined

    def test_rule_round_trip(self):
        for text in ["t1(e,3)", "t12(r1)", "t2(r1,4)^-1", "~t34(r2)", "t51(e)"]:
            assert rule_token(parse_rule(text)) == text

    def test_rejects(self):
        for bad in ["a(L2)", "x(~a1(L2),t2(r1,1))", "x(a1(P2),t2(r1,1))", "K1(e)",
                    "th(t2(r1,1)^-1,L3)"]:
            with pytest.raises(TokenError):
                parse_symbol(bad)
        # a state letter as x's first argument is read whole, not split at its comma
        with pytest.raises(TokenError, match="needs a positive plain tape letter"):
            parse_symbol("x(K1(e,1),t2(r1,1))")
        for bad, message in [("t1(r1,3)", "family 1 carries the empty coordinate"),
                             ("t12(e)", "family 12 needs a non-empty relator"),
                             ("t34(e)", "family 34 needs a non-empty relator"),
                             ("t1(e)", r"family 1 needs \(coord,i\)"),
                             ("t2(r1,x)", r"rule 't2\(r1,x\)': bad tape index 'x'"),
                             ("t2(q,1)", r"bad relator token 'q' \(want e or r<k>\)")]:
            with pytest.raises(TokenError, match=message):
                parse_rule(bad)

    def test_generator_words(self):
        assert parse_generators(" a1 a2^-1\ta10 ") == ((1, 1), (2, -1), (10, 1))
        assert parse_generators("") == ()
        for bad, name in [("a1 b2", "b2"), ("a1 x^-1", "x"), ("a", "a"), ("a²", "a²")]:
            with pytest.raises(TokenError, match=f"bad generator token '{name}'"):
                parse_generators(bad)

    def test_relator_names(self):
        assert parse_relator_name("e") is None and parse_relator_name("r12") == 12
        for bad in ["", "r", "q1", "r1^-1", "r²", "E"]:
            with pytest.raises(TokenError, match=r"\(want e or r<k>\)"):
                parse_relator_name(bad)


def brute_matchings(w):
    return noncrossing_inverse_matchings(list(w.letters))


class TestPairings:
    def test_paper_example_pairing_present(self):
        w = C("b^-1 a b b^-1 a^-1 b")
        # canonical rotation is a b b^-1 a^-1 b b^-1
        got = {p.matching() for p in enumerate_pairings(w)}
        assert frozenset({frozenset({0, 3}), frozenset({1, 2}), frozenset({4, 5})}) in got

    def test_single_pair(self):
        assert len(enumerate_pairings(C("a a^-1"))) == 1

    def test_count_matches_brute_force(self):
        w = C("a a^-1 a a^-1")
        pairings = enumerate_pairings(w)
        assert {p.matching() for p in pairings} == brute_matchings(w)
        assert len(pairings) == 2

    def test_non_dyck_empty(self):
        assert enumerate_pairings(C("a b")) == []
        assert find_minus_pairing(C("a b a")) is None

    def test_limit(self):
        w = C("a a^-1 a a^-1")
        everything = enumerate_pairings(w)
        assert len(everything) == 2
        for limit in (0, 1, 2, 3):
            assert enumerate_pairings(w, limit=limit) == everything[:limit]
        empty = CyclicWord(())
        assert enumerate_pairings(empty, limit=0) == []
        assert len(enumerate_pairings(empty, limit=1)) == 1

    def test_negative_limit_raises(self):
        for w in (C("a a^-1 a a^-1"), CyclicWord(()), C("a b")):
            with pytest.raises(ValueError):
                enumerate_pairings(w, limit=-1)

    def test_minus_present_paper_example(self):
        w = C("a b b^-1 a^-1 a b b^-1 a^-1")
        p = find_minus_pairing(w)
        assert p is not None
        for op, cl in p.pairs:
            assert w[op][1] < 0 and w[cl][1] > 0 and w[op][0] == w[cl][0]

    def test_minus_single_cancellation(self):
        # both orientations of the unique matching are valid schemes, so the
        # minus pairing exists
        assert find_minus_pairing(C("a a^-1")) is not None

    def test_minus_empty_word(self):
        p = find_minus_pairing(CyclicWord(()))
        assert p is not None and p.pairs == ()

    def test_minus_agrees_with_brute_force_small(self):
        # exhaustive over all words of length <= 6 on one letter pair
        alphabet = [("a", 1), ("a", -1), ("b", 1), ("b", -1)]
        seen = set()
        for n in (2, 4, 6):
            for letters in itertools.product(alphabet, repeat=n):
                w = CyclicWord(letters)
                if len(w) != n or w in seen or not is_dyck(w):
                    continue
                seen.add(w)
                assert (find_minus_pairing(w) is not None) == \
                    has_minus_pairing(list(w.letters)), word_to_text(w)

    def test_enumerate_matches_brute_force_small(self):
        alphabet = [("a", 1), ("a", -1), ("b", 1), ("b", -1)]
        seen = set()
        for letters in itertools.product(alphabet, repeat=6):
            w = CyclicWord(letters)
            if len(w) != 6 or w in seen:
                continue
            seen.add(w)
            assert {p.matching() for p in enumerate_pairings(w)} == brute_matchings(w)


def same_as_search(w):
    """find_minus_pairing(w) has the pairs and parents of the old search."""
    got, expect = find_minus_pairing(w), oracles.minus_pairing_search(w)
    if expect is None:
        assert got is None, word_to_text(w)
    else:
        assert got is not None, word_to_text(w)
        assert (got.word, got.pairs, got.parents) == (w, expect.pairs, expect.parents), \
            word_to_text(w)
    return got


def cancels_to_empty(letters):
    """True iff deleting cyclically adjacent z^-1 z (in this order) again and
    again empties the word.

    The innermost pair of a minus pairing reads z^-1 z with nothing between,
    and deleting it leaves a minus pairing of the rest; conversely the
    deletions pair the word.  Two such redexes never share a letter, so the
    order of the deletions does not matter."""
    letters = list(letters)
    while letters:
        n = len(letters)
        for k in range(n):
            (sym, sign), (sym2, sign2) = letters[k], letters[(k + 1) % n]
            if sign < 0 < sign2 and sym == sym2:
                for pos in sorted((k, (k + 1) % n), reverse=True):
                    del letters[pos]
                break
        else:
            return False
    return True


def long_word(unit, k):
    """(unit)^k b^-1 (unit)^k b, a Dyck word of 4k + 2 letters."""
    return C(" ".join([unit] * k + ["b^-1"] + [unit] * k + ["b"]))


class TestMinusScan:
    def test_every_dyck_word_to_length_10(self):
        ws = dyck_words(10)
        found = 0
        for w in ws:
            got = same_as_search(w)
            assert (got is not None) == cancels_to_empty(w.letters), word_to_text(w)
            found += got is not None
        assert 0 < found < len(ws)
        same_as_search(CyclicWord(()))

    @pytest.mark.slow
    def test_every_dyck_word_to_length_12(self):
        ws = dyck_words(12)
        assert len(ws) == 18608  # the empty word is checked in the unit lane
        found = sum(same_as_search(w) is not None for w in ws)
        assert 0 < found < len(ws)

    def test_non_dyck_words(self, rng):
        alphabet = [("a", 1), ("a", -1), ("b", 1), ("b", -1)]
        checked = 0
        for _ in range(600):
            if rng.random() < 0.5:
                letters = [rng.choice(alphabet) for _ in range(rng.randrange(1, 15))]
            else:
                # as many negative as positive letters: the scan balances
                half = [rng.choice(alphabet) for _ in range(rng.randrange(1, 8))]
                letters = half + [(sym, -sign) for sym, sign in half]
                rng.shuffle(letters)
            w = CyclicWord(letters)
            if is_dyck(w):
                continue
            checked += 1
            assert find_minus_pairing(w) is None, word_to_text(w)
            assert oracles.minus_pairing_search(w) is None
        assert checked > 300

    @pytest.mark.parametrize("unit,k,exists", [
        ("a a^-1", 8, False), ("a^-1 a", 8, True),
        ("a a^-1", 10, False), ("a^-1 a", 10, True),
    ])
    def test_long_words_without_a_search(self, monkeypatch, unit, k, exists):
        def no_search(*args):
            raise AssertionError("find_minus_pairing searched over matchings")

        monkeypatch.setattr(words, "_matchings", no_search)
        w = long_word(unit, k)
        n = len(w)
        assert n == 4 * k + 2 and is_dyck(w)
        assert cancels_to_empty(w.letters) == exists
        p = find_minus_pairing(w)
        if not exists:
            assert p is None
            return
        assert sorted(q for pair in p.pairs for q in pair) == list(range(n))
        assert list(p.pairs) == sorted(p.pairs)
        for o, c in p.pairs:
            assert w[o][1] < 0 < w[c][1] and w[o][0] == w[c][0]
        for pair, other in itertools.combinations(p.pairs, 2):
            assert not oracles._crossing(n, pair, other)
        assert p.parents == oracles.nesting(n, p.pairs)


class TestClassify:
    def test_outermost_plus_normal(self):
        w = C("a b b^-1 a^-1")
        p = enumerate_pairings(w)[0]
        outer = p.pair_of(0)
        assert classify_pair(w, p, outer) == ("plus", "normal")

    def test_inner_pair_contained_in_other_letter_is_abnormal(self):
        # every containing pair must consist of occurrences of the inner
        # pair's own letter; an a-container makes a b-pair abnormal
        w = C("a b b^-1 a^-1")
        p = enumerate_pairings(w)[0]
        inner = p.pair_of(1)
        assert classify_pair(w, p, inner) == ("plus", "abnormal")

    def test_same_letter_container_is_normal(self):
        w = C("a a a^-1 a^-1")
        p = enumerate_pairings(w)[0]
        inner = p.pair_of(1)
        assert classify_pair(w, p, inner) == ("plus", "normal")

    def test_minus_classification(self):
        w = C("a b b^-1 a^-1 a b b^-1 a^-1")
        p = find_minus_pairing(w)
        for pair in p.pairs:
            assert classify_pair(w, p, pair)[0] == "minus"

    def test_unknown_pair_raises(self):
        w = C("a a^-1")
        p = enumerate_pairings(w)[0]
        with pytest.raises(PairingError):
            classify_pair(w, p, (0, 5))

    def test_paper_word_has_no_all_normal_pairing(self):
        w = C("a b b^-1 a^-1 a b b^-1 a^-1")
        for p in enumerate_pairings(w):
            kinds = [classify_pair(w, p, pair)[1] for pair in p.pairs]
            assert "abnormal" in kinds


class TestAdjacentInversePairs:
    def test_adjacent_inverse_letters_are_connected_in_minus_pairings(self):
        # for every minus pairing, every clockwise-adjacent z_i^-1 z_j has
        # i = j with the two positions paired together
        alphabet = [("a", 1), ("a", -1), ("b", 1), ("b", -1)]
        seen = set()
        for letters in itertools.product(alphabet, repeat=6):
            w = CyclicWord(letters)
            if len(w) != 6 or w in seen:
                continue
            seen.add(w)
            p = find_minus_pairing(w)
            if p is None:
                continue
            n = len(w)
            for k in range(n):
                if w[k][1] < 0 and w[(k + 1) % n][1] > 0:
                    assert w[k][0] == w[(k + 1) % n][0]
                    assert (k, (k + 1) % n) in p.pairs


class TestContentLines:
    def test_numbers_every_line_and_strips_comments(self):
        lines = ["# head", "", "  a b  # tail", "\t", "c#d", "#", "e"]
        assert list(words.content_lines(lines)) == [(3, "a b"), (5, "c"), (7, "e")]
