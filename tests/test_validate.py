"""``Hardware.validate`` and its shape checks, read from the memoized sector
table, against the letter-by-letter reference in ``oracles``: the same
exception class, clause and message (or acceptance) on seeded words of all
three flavors and on one-edit mutations of them, with a cold and a warm
table; and state letters of a block beyond N, rejected with a clear error."""

import os
import random

import pytest

import oracles
from conftest import DATA
from smkit.cli import main
from smkit.hardware import (
    AdmissibleError, AdmissibleWord, BadBasePattern, BadInnerAlphabet, BarSectorNotEmpty,
    Hardware, MixedCoordinates, PositivityViolation,
)
from smkit.words import KINDS, State, Tape, Word, parse_word
from test_step import seeded_words


def outcome(check, hw, W):
    """(class, clause, message) of the AdmissibleError check raises, or None."""
    try:
        check(hw, W)
    except AdmissibleError as e:
        return type(e), e.clause, str(e)
    return None


def validate(hw, W):
    hw.validate(W)


def replace(seq, k, item):
    return seq[:k] + (item,) + seq[k + 1:]


def replace_letter(W, k, p, letter):
    letters = W.inners[k].letters
    inner = Word(replace(letters, p, letter), reduce=False)
    return AdmissibleWord(W.flavor, W.states, replace(W.inners, k, inner))


def state_edits(hw, W, rng):
    """(name, word) for W with one state letter moved to another coordinate,
    swapped for one of another kind (a broken successor pair) or barred."""
    states = W.states
    k = rng.randrange(len(states))
    st, s = states[k]
    other = [c for c in hw.ee.coords() if c != st.coord]
    kind = KINDS[(KINDS.index(st.kind) + 1) % 4]
    out = []
    for name, new in (("coordinate", State(st.kind, st.j, rng.choice(other), st.bar)),
                      ("successor", State(kind, st.j, st.coord, st.bar)),
                      ("barred state", State(st.kind, st.j, st.coord, True))):
        if new is not st:
            out.append((name, AdmissibleWord(W.flavor, replace(states, k, (new, s)), W.inners)))
    return out


def letter_edits(hw, W, zones, rng):
    """(name, word) for W with one inner letter moved to another zone, given
    an out-of-range index or barred, one sign flipped in a sector that needs
    a sign, or a letter put into an empty j=1 sector."""
    out = []
    states, inners = W.states, W.inners
    filled = [k for k, inner in enumerate(inners) if len(inner)]
    if filled:
        k = rng.choice(filled)
        p = rng.randrange(len(inners[k]))
        t, e = inners[k].letters[p]
        zone = rng.choice([hw.zone_after(y) for y in hw.sigma if hw.zone_after(y) != t.zone])
        out.append(("zone", replace_letter(W, k, p, (Tape(t.i, zone, t.bar), e))))
        out.append(("index", replace_letter(W, k, p, (Tape(hw.ee.mbar + 1, t.zone, t.bar), e))))
        out.append(("barred tape", replace_letter(W, k, p, (Tape(t.i, t.zone, True), e))))
    signed = [k for k in filled if hw.positivity_sign(states[k], states[k + 1])]
    if signed:
        k = rng.choice(signed)
        p = rng.randrange(len(inners[k]))
        t, e = inners[k].letters[p]
        out.append(("sign", replace_letter(W, k, p, (t, -e))))
    j1 = [k for k, z in enumerate(zones) if z.j == 1 and not len(inners[k])]
    if j1:
        k = rng.choice(j1)
        inner = Word(((Tape(1, zones[k], True), 1),), reduce=False)
        out.append(("bar j=1", AdmissibleWord(W.flavor, states, replace(inners, k, inner))))
    return out


def mutations(hw, W, rng):
    """One-edit mutations of W, then every one-edit mutation followed by a
    letter edit, so that a word can fail two checks and only the first may
    show."""
    zones = [hw.zone_after((st.base, s)) for st, s in W.states[:-1]]
    once = state_edits(hw, W, rng) + letter_edits(hw, W, zones, rng)
    twice = [(f"{a} + {b}", M2) for a, M in once for b, M2 in letter_edits(hw, M, zones, rng)]
    return once + twice


@pytest.fixture(scope="module", params=("strict", "bar", "mixed"))
def cases(request, hw):
    rng = random.Random(11)
    out = []
    for W in seeded_words(hw, request.param):
        out.append(("seeded", W))
        out += mutations(hw, W, rng)
    return out


class TestValidateAgainstReference:
    def test_cold_and_warm_table(self, ee, hw, cases):
        seen = set()
        for name, W in cases:
            want = outcome(oracles.validate, hw, W)
            cold = Hardware(ee, hw.N)
            assert outcome(validate, cold, W) == want, (name, W.text())
            assert outcome(validate, cold, W) == want, (name, W.text())
            seen.add(want and want[0])
        flavor = cases[0][1].flavor
        expect = {None, MixedCoordinates, BadBasePattern, BadInnerAlphabet, BarSectorNotEmpty}
        if flavor == "strict":
            expect.add(PositivityViolation)
        assert expect <= seen

    def test_shape_checks(self, ee, hw, cases):
        warm = Hardware(ee, hw.N)
        for name, W in cases:
            want = outcome(oracles.validate, hw, W)
            if want is not None and want[0] in (MixedCoordinates, BadBasePattern):
                continue  # the shape checks expect a word whose states are sound
            for new, old in ((Hardware.validate_plain_shape, oracles.validate_plain_shape),
                             (Hardware.validate_bar_shape, oracles.validate_bar_shape)):
                assert outcome(new, warm, W) == outcome(old, hw, W), (name, W.text())

    def test_invalid_states_right_after_valid_ones_with_the_same_base(self, ee, hw, cases):
        # each seeded word puts its (valid) states tuple in a warm table;
        # the mutation after it keeps the base and breaks the coordinates
        # or the plain/bar shape of the states
        warm = Hardware(ee, hw.N)
        checked = 0
        for (_, W), (name, M) in zip(cases, cases[1:]):
            if name in ("coordinate", "barred state"):
                for X in (W, M):
                    assert outcome(validate, warm, X) == outcome(oracles.validate, hw, X), \
                        (name, X.text())
                checked += 1
        assert checked


BEYOND_N = ("K9(e,1) L9(e,1)", "K9(e,1)")


class TestBlockBeyondN:
    @pytest.mark.parametrize("text", BEYOND_N)
    def test_rejected_as_bad_base_pattern(self, hw, text):
        with pytest.raises(BadBasePattern, match="not on the base word at N=8"):
            hw.parse_admissible(parse_word(text), "strict")

    @pytest.mark.parametrize("text", BEYOND_N)
    def test_the_reference_raised_key_error_or_passed(self, hw, text):
        # the one intended difference from the reference: it looked up the
        # successor of K9 (KeyError) or, for a lone letter, passed
        states = tuple(parse_word(text).letters)
        W = AdmissibleWord("strict", states, tuple(Word() for _ in states[1:]))
        if len(states) > 1:
            with pytest.raises(KeyError):
                oracles.validate(hw, W)
        else:
            oracles.validate(hw, W)
        with pytest.raises(BadBasePattern):
            hw.validate(W)

    @pytest.mark.parametrize("text", BEYOND_N)
    @pytest.mark.parametrize("command", (
        ("run", "--history", "t12(r1)"), ("accept", "--max-steps", "1"),
        ("band", "--rule", "t12(r1)")))
    def test_cli_exits_two(self, capsys, command, text):
        code = main([command[0], "--ee", os.path.join(DATA, "sample.ee"),
                     "--word", text, *command[1:]])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: BadBasePattern") and "Traceback" not in err


class TestCoordinateThatNamesNothing:
    @pytest.mark.parametrize("text", ("K1(r9,1)", "K1(e,99) L1(e,99)", "K1(r3,2)", "K1(e,6)"))
    def test_rejected_as_bad_base_pattern(self, hw, text):
        with pytest.raises(BadBasePattern, match="names no relator and age"):
            hw.parse_admissible(parse_word(text), "strict")
        states = tuple(parse_word(text).letters)
        with pytest.raises(BadBasePattern):
            hw.sector_table(states)

    def test_every_coordinate_of_the_presentation_is_accepted(self, hw):
        for coord in hw.ee.coords():
            st = State("K", 1, coord)
            hw.validate(AdmissibleWord("strict", ((st, 1),), ()))

    @pytest.mark.parametrize("text", ("K1(r9,1)", "K1(e,99)"))
    @pytest.mark.parametrize("command", (
        ("run", "--history", "t12(r1)"), ("accept", "--max-steps", "1"),
        ("band", "--rule", "t12(r1)")))
    def test_cli_exits_two(self, capsys, command, text):
        code = main([command[0], "--ee", os.path.join(DATA, "sample.ee"),
                     "--word", text, *command[1:]])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: BadBasePattern") and "Traceback" not in err
