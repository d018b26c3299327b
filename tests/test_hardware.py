import pickle

import pytest

import oracles
from smkit.hardware import (
    BadBasePattern, BadInnerAlphabet, BarSectorNotEmpty, EEError,
    EEPresentation, Hardware, MixedCoordinates, NotReduced, PositivityViolation,
    load_ee,
)
from smkit.words import BaseLetter, Coord, State, Word, parse_word, word_to_text

B = BaseLetter


class TestEELoader:
    def test_sample_loads(self, ee):
        assert ee.m == 2 and ee.mbar == 2 and ee.c == 2
        assert ee.relators == ((), (1, 2), (2, 1))
        assert ee.relator(None) == () and ee.relator(1) == (1, 2)

    def test_missing_empty_relator(self):
        with pytest.raises(EEError):
            EEPresentation(2, 2, (2, 1), ((1, 2), (2, 1)))

    def test_not_closed_under_priming(self):
        # a1a1 primes to a2a2 which is absent
        with pytest.raises(EEError):
            EEPresentation(2, 2, (2, 1), ((), (1, 2), (2, 1), (1, 1)))

    def test_missing_involution_relators(self):
        with pytest.raises(EEError):
            EEPresentation(2, 2, (2, 1), ((),))

    def test_bad_involution(self):
        with pytest.raises(EEError):
            EEPresentation(2, 2, (2, 2), ((), (1, 2), (2, 1)))

    def test_loader_rejects_nonsense(self):
        with pytest.raises(EEError):
            load_ee("generators: a1 a2\nflavor: what\n")

    @pytest.mark.parametrize("line, message", (
        ("m: x", "m must be an integer, got 'x'"),
        ("relator: a1^-1 a2", "inverse generator in 'a1^-1 a2'"),
        ("relator: a1 b2  # b2 is no generator", "bad generator token 'b2'")),
        ids=("m", "inverse", "token"))
    def test_line_errors_name_the_line(self, line, message):
        text = ("generators: a1 a2\ninvolution: a1 a2\n\n" + line +
                "\nm: 2\nrelator:\nrelator: a1 a2\nrelator: a2 a1\n")
        with pytest.raises(EEError) as err:
            load_ee(text)
        assert str(err.value) == f"line 4: {message}"

    def test_four_generator_file(self):
        ee = load_ee(
            "generators: a1 a2 a3 a4\n"
            "involution: a1 a2\ninvolution: a3 a4\n"
            "m: 2\n"
            "relator:\nrelator: a1 a2\nrelator: a2 a1\n"
            "relator: a3 a4\nrelator: a4 a3\n")
        assert ee.mbar == 4 and ee.m == 2 and len(ee.nonempty) == 4

    def test_coords_are_one_tuple(self, ee):
        coords = ee.coords()
        assert coords is ee.coords()
        assert coords == tuple(Coord(r, i) for r in (None, 1, 2) for i in range(1, 6))
        # the kept tuple stays out of ==, and a pickle keeps the coordinates
        assert EEPresentation(ee.m, ee.mbar, ee.involution, ee.relators) == ee
        assert pickle.loads(pickle.dumps(ee)).coords() == coords


class TestGeometry:
    def test_sigma_tilde_length_and_first_block(self, hw):
        assert len(hw.sigma) == 32
        first = [(B("K", 1), 1), (B("L", 1), 1), (B("P", 1), 1), (B("R", 1), 1),
                 (B("K", 2), -1), (B("R", 2), -1), (B("P", 2), -1), (B("L", 2), -1)]
        assert list(hw.sigma[:8]) == first

    def test_every_letter_once(self, hw):
        assert len({bl for bl, _ in hw.sigma}) == 32

    def test_pred_examples(self, hw):
        assert hw.pred((B("L", 3), 1)) == (B("K", 3), 1)
        assert hw.pred((B("L", 2), 1)) == (B("K", 3), -1)
        assert hw.succ(hw.pred((B("P", 5), 1))) == (B("P", 5), 1)

    def test_succ_pred_inverse_bijections(self, hw):
        letters = [(bl, s) for bl, _ in hw.sigma for s in (1, -1)]
        assert sorted(map(hw.succ, letters)) == sorted(letters)
        for y in letters:
            assert hw.pred(hw.succ(y)) == y and hw.succ(hw.pred(y)) == y

    def test_succ_is_filled_lazily(self, ee):
        hw = Hardware(ee, 8)
        assert hw._succ == {}
        sigma = hw.sigma
        want = {}
        for p, (bl, o) in enumerate(sigma):
            want[(bl, o)] = sigma[(p + 1) % len(sigma)]
            prev, s = sigma[p - 1]
            want[(bl, -o)] = (prev, -s)
        for _ in range(2):  # cold, then from the table
            assert {y: hw.succ(y) for y in want} == want
        assert hw._succ == want
        # a letter off the base word raises on every call and is not kept
        for _ in range(2):
            with pytest.raises(KeyError):
                hw.succ((B("K", 9), 1))
        assert len(hw._succ) == len(want)

    def test_rr_arrow_parity(self, hw):
        # the letter after R_j is K_{j+1}^-1 for odd j and K_j for even j
        assert hw.succ((B("R", 1), 1)) == (B("K", 2), -1)
        assert hw.succ((B("R", 2), 1)) == (B("K", 2), 1)

    def test_zone_assignment(self, hw):
        # each j-block carries zones K_j, L_j, P_j, R_j between its letters
        for j in range(1, 9):
            assert hw.zone_flanks(B("K", j))[1] == (B("L", j), 1)
            assert hw.zone_after(hw.zone_flanks(B("K", j))[0]) == B("K", j)
            assert hw.zone_after((B("L", j), 1)) == B("L", j)
            assert hw.zone_after((B("P", j), 1)) == B("P", j)
            assert hw.zone_after((B("R", j), 1)) == B("R", j)

    def test_even_K_letter_sits_between_R_zones(self, hw):
        assert hw.zones_of(B("K", 2)) == (B("R", 2), B("R", 1))
        assert hw.zones_of(B("K", 3)) == (B("K", 2), B("K", 3))


class TestBaseWordWalk:
    """The geometry and the standard words against ``oracles``, which reads
    each gap's zone off the base word and the zone-naming rule and builds
    the standard words block by block."""

    @pytest.mark.parametrize("n", (8, 10, 12))
    def test_walk_matches_block_by_block_reference(self, ee, rng, n):
        hw = Hardware(ee, n)
        assert list(hw.zones) == oracles.gap_zones(hw)
        for bl, _ in hw.sigma:
            assert hw.zones_of(bl) == oracles.zones_of(hw, bl)
            assert hw.zone_flanks(bl) == oracles.zone_flanks(hw, bl)
            for y in ((bl, 1), (bl, -1)):
                assert hw.succ(y) == oracles.succ(hw, y)
                assert hw.pred(y) == oracles.pred(hw, y)
                assert hw.zone_after(y) == oracles.zone_after(hw, y)
        for zone in hw.zones:
            assert (hw.tape_word(((1, 1),), zone, True) == ()) == (zone.j == 1)
            assert hw.tape_word(((1, 1),), zone) != ()
        for coord in ee.coords():
            for _ in range(4):
                slots = [tuple((rng.randint(1, ee.mbar), rng.choice((1, -1)))
                               for _ in range(rng.randrange(4))) for _ in range(4)]
                for bar in (False, True):
                    assert hw.sigma_four(*slots, r=coord.r, i=coord.omega, bar=bar) == \
                        oracles.sigma_four(hw, *slots, r=coord.r, i=coord.omega, bar=bar)


class TestHub:
    def test_hub_length_and_coords(self, hw):
        hub = hw.hub()
        assert len(hub) == 32
        assert all(isinstance(sym, State) and sym.coord == Coord(None, 1)
                   for sym, _ in hub)

    def test_hub_base_is_sigma_tilde(self, hw):
        assert tuple((sym.base, s) for sym, s in hw.hub()) == hw.sigma

    def test_hub_delta_trivial(self, hw):
        from smkit.presentation import delta
        assert delta(hw.hub()).is_empty()


class TestSigmaW:
    def test_empty_is_hub_with_trailing_K1(self, hw):
        W = hw.sigma_w(())
        assert W.flat() == hw.hub().letters + ((State("K", 1, Coord(None, 1)), 1),)

    def test_single_letter_layout(self, hw):
        W = hw.sigma_w(((1, 1),))
        text = W.text()
        assert text.startswith("K1(e,1) L1(e,1) P1(e,1) a1(P1) R1(e,1)")

    def test_length(self, hw):
        # 4N + 1 state letters plus one copy of w per block
        for w in ((), ((1, 1),), ((1, 1), (2, 1))):
            W = hw.sigma_w(w)
            assert len(W) == 4 * hw.N + 1 + hw.N * len(w)

    def test_sector_contents(self, hw):
        W = hw.sigma_w(((1, 1), (2, 1)))
        copies = 0
        for k in range(len(W.inners)):
            (st, s), inner, _ = W.sector(k)
            zone = hw.zone_after((st.base, s))
            if zone.kind == "P":
                assert len(inner) == 2
                copies += 1
            else:
                assert inner == ()
        assert copies == hw.N

    def test_positivity_required(self, hw):
        with pytest.raises(PositivityViolation):
            hw.sigma_w(((1, -1),))

    def test_constructor_output_parses(self, hw):
        for w in ((), ((2, 1),), ((1, 1), (1, 1))):
            W = hw.sigma_w(w)
            assert hw.parse_admissible(W.flat(), "strict") == W

    def test_bar_flavor_empties_block_one(self, hw):
        W = hw.sigma_w(((1, 1),), flavor="bar")
        for k in range(len(W.inners)):
            (st, s), inner, _ = W.sector(k)
            if hw.zone_after((st.base, s)).j == 1:
                assert inner == ()


class TestSigmaFour:
    def test_specialization_to_sigma_w(self, hw):
        w = ((1, 1), (2, 1))
        body = hw.sigma_four((), (), w, ())
        assert body.letters == hw.sigma_w(w).flat()[:-1]

    def test_bar_variant_block_one_empty(self, hw):
        w = ((1, 1),)
        body = hw.sigma_four(w, w, w, w, r=1, i=2, bar=True)
        first_block = word_to_text(body).split("K2", 1)[0]
        assert "a1" not in first_block
        assert "a1(K3)" in word_to_text(body) or "~a1(K3)" in word_to_text(body)

    def test_strict_parse_after_appending_K1(self, hw):
        w = ((2, 1),)
        body = hw.sigma_four(w, w, w, w, r=2, i=3)
        flat = Word(body.letters + ((State("K", 1, Coord(2, 3)), 1),), reduce=False)
        W = hw.parse_admissible(flat, "strict")
        assert W.coord == Coord(2, 3)


class TestParseAdmissible:
    def test_hub_with_trailing_K1(self, hw):
        W = hw.parse_admissible(hw.sigma_w(()).flat(), "strict")
        assert len(W.states) == 33

    def test_single_state_letter(self, hw):
        W = hw.parse_admissible(parse_word("P1(e,1)"), "strict")
        assert W.base() == (B("P", 1),)

    def test_rejects_p_inverse_p(self, hw):
        w = parse_word("P2(e,1)^-1 a1(L2)^-1 P2(e,1)")
        with pytest.raises(PositivityViolation):
            hw.parse_admissible(w, "strict")

    def test_rejects_unreduced(self, hw):
        letters = parse_word("K1(e,1) L1(e,1)").letters
        w = letters[:1] + ((State("L", 1, Coord(None, 1)), 1),
                           (State("L", 1, Coord(None, 1)), -1)) + letters[1:]
        with pytest.raises(NotReduced):
            hw.parse_admissible(w, "strict")

    def test_rejects_negative_in_positive_sector(self, hw):
        w = parse_word("K1(e,1) a1(K1)^-1 L1(e,1)")
        with pytest.raises(PositivityViolation):
            hw.parse_admissible(w, "strict")

    def test_fold_back_sector_is_unconstrained(self, hw):
        # L_j L_j^-1 fold-backs carry arbitrary reduced content
        w = parse_word("L1(e,1) a1(L1)^-1 a2(L1) L1(e,1)^-1")
        W = hw.parse_admissible(w, "strict")
        assert W.base() == (B("L", 1), B("L", 1))

    def test_rejects_base_break(self, hw):
        with pytest.raises(BadBasePattern):
            hw.parse_admissible(parse_word("K1(e,1) P1(e,1)"), "strict")

    def test_rejects_mixed_coordinates(self, hw):
        with pytest.raises(MixedCoordinates):
            hw.parse_admissible(parse_word("K1(e,1) L1(r1,1)"), "strict")

    def test_rejects_wrong_zone_letter(self, hw):
        with pytest.raises(BadInnerAlphabet):
            hw.parse_admissible(parse_word("K1(e,1) a1(L1) L1(e,1)"), "strict")

    def test_bar_sector_must_be_empty(self, hw):
        w = parse_word("K1(e,1) ~a1(K1) L1(e,1)")
        with pytest.raises((BarSectorNotEmpty, BadInnerAlphabet)):
            hw.parse_admissible(w, "bar")

    def test_shared_letters_canonicalized_on_parse(self, hw):
        # barred spellings of the shared generators name the same letters
        a = hw.parse_admissible(parse_word("~K3(e,1) ~a1(K3) ~L3(e,1)"), "mixed")
        b = hw.parse_admissible(parse_word("K3(e,1) ~a1(K3) L3(e,1)"), "mixed")
        assert a == b
        c = hw.parse_admissible(parse_word("~L2(e,1) ~a1(L2) ~P2(e,1)"), "bar")
        d = hw.parse_admissible(parse_word("L2(e,1) ~a1(L2) P2(e,1)"), "bar")
        assert c == d

    def test_canonical_letters_are_remembered(self, ee):
        # barred (e,1) states and barred P-zone letters with index <= m are
        # stored unbarred, on the first call as on later ones
        hw = Hardware(ee, 8)
        assert hw._canon == {}
        texts = ("~K3(e,1) ~a1(K3) ~L3(e,1) ~a2(L3) ~P3(e,1) ~a1(P3) ~a2(P3)^-1 ~R3(e,1)",
                 "~L2(e,1) ~a1(L2) ~P2(e,1)")
        want = [[(hw.state(sym.kind, sym.j, sym.coord, sym.bar) if isinstance(sym, State)
                  else hw.tape(sym.i, sym.zone, sym.bar), s) for sym, s in parse_word(t)]
                for t in texts]
        assert want[0][0][0] is State("K", 3, Coord(None, 1))
        assert want[0][5][0] is hw.tape(1, B("P", 3)) and not want[0][5][0].bar
        assert want[0][1][0].bar and want[0][3][0].bar
        for _ in range(2):
            for text, letters in zip(texts, want):
                assert hw.parse_admissible(parse_word(text), "mixed").flat() == tuple(letters)
        assert hw._canon[State("K", 3, Coord(None, 1), True)] is State("K", 3, Coord(None, 1))

    def test_out_of_range_index_is_never_remembered(self, ee):
        hw = Hardware(ee, 8)
        bad = parse_word("K1(e,1) L1(e,1) P1(e,1) a3(P1) R1(e,1)")
        messages = set()
        for _ in range(3):
            with pytest.raises(BadInnerAlphabet) as e:
                hw.parse_admissible(bad, "strict")
            messages.add(str(e.value))
        assert messages == {"BadInnerAlphabet: a3 out of range 1..2"}
        # the letters before it are kept, it is not
        assert set(hw._canon) == {sym for sym, _ in bad.letters[:3]}

    def test_unhashable_symbol_is_not_a_letter(self, ee):
        hw = Hardware(ee, 8)
        letters = parse_word("K1(e,1) L1(e,1)").letters
        for _ in range(2):
            with pytest.raises(BadInnerAlphabet, match="is not a state or tape letter"):
                hw.parse_admissible(letters[:1] + ((["a1"], 1),) + letters[1:], "strict")

    def test_bar_accepts_shared_letters(self, hw):
        W = hw.sigma_w(((1, -1), (2, 1)), flavor="bar")
        assert hw.parse_admissible(W.flat(), "bar") == W

    def test_inverse_is_admissible(self, hw, rng):
        # closure of strict admissibility under inversion
        for _ in range(50):
            w = tuple((rng.randrange(1, 3), 1) for _ in range(rng.randrange(0, 4)))
            W = hw.sigma_w(w)
            flat_inv = Word(W.flat()).inverse()
            W2 = hw.parse_admissible(flat_inv, "strict")
            assert W2 == W.inverse()

    def test_round_trip_serialize_parse(self, hw, rng):
        for _ in range(50):
            w = tuple((rng.randrange(1, 3), 1) for _ in range(rng.randrange(0, 4)))
            W = hw.sigma_w(w)
            assert hw.parse_admissible(parse_word(W.text()), "strict") == W

    def test_n_parameter(self, ee):
        hw10 = Hardware(ee, 10)
        assert len(hw10.sigma) == 40
        with pytest.raises(ValueError):
            Hardware(ee, 7)
        with pytest.raises(ValueError):
            Hardware(ee, 6)
