"""Relator canonicalization: ``normalize_relator`` and ``cyclic_reduce``
against the letter-by-letter references in ``oracles``, plus their laws."""

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from genwords import random_bar_word, random_sigma_word, random_walk
from smkit.bands import Band, Cell, theta_band, trapezium, verify_band
from smkit.cli import _rules_presentation
from smkit.hardware import BaseLetter
from smkit.presentation import PresentationError, normalize_relator
from smkit.words import (
    Coord, CyclicWord, RuleId, State, Tape, Theta, Word, X, cyclic_reduce,
    wletter,
)

B = BaseLetter

STRUCTURED = (
    Tape(1, B("L", 2)), Tape(2, B("L", 2)), Tape(1, B("P", 3), bar=True),
    State("K", 1, Coord(None, 1)), State("L", 2, Coord(1, 3), bar=True),
    Theta(RuleId("2", 1, 1), B("L", 2)), Theta(RuleId("12", 2, None, bar=True), B("K", 3)),
    X(Tape(1, B("K", 3)), RuleId("12", 1, None)),
)
PLAIN = ("a", "b", "c")


def letters_of(symbols):
    return st.lists(st.tuples(st.sampled_from(symbols), st.sampled_from((1, -1))),
                    max_size=14)


@st.composite
def conjugated_words(draw):
    """p * core * p^-1 over one symbol pool, freely reduced or kept as drawn."""
    symbols = draw(st.sampled_from((STRUCTURED, PLAIN, STRUCTURED + PLAIN)))
    prefix = draw(letters_of(symbols))
    core = draw(letters_of(symbols))
    letters = prefix + core + [(sym, -sign) for sym, sign in reversed(prefix)]
    return Word(letters, reduce=draw(st.booleans()))


def outcome(fn, w):
    """Letters of fn(w), or the error it raised."""
    try:
        got = fn(w)
    except PresentationError as e:
        return ("error", str(e))
    return tuple(got.letters if hasattr(got, "letters") else got)


class TestDifferential:
    def test_every_n8_relator(self, pres):
        for rel in pres.relations:
            w = rel.relator.word()
            assert normalize_relator(w) == rel.relator
            assert oracles.normalize_relator(w) == rel.relator.letters
            # a rotated, inverted and conjugated copy of the same relator
            k = len(w) // 2
            w2 = (wletter(*w.letters[0]) * Word(w.letters[k:] + w.letters[:k]).inverse()
                  * wletter(*w.letters[0]).inverse())
            assert normalize_relator(w2).letters == oracles.normalize_relator(w2)

    def test_band_and_trapezium_cells(self, hw, mixed, pres, rng):
        by_relator = {rel.relator.letters: rel for rel in pres.relations}
        tamper = hw.tape(1, B("P", 2))
        bands = []
        while len(bands) < 12:
            W = hw.parse_admissible(random_bar_word(hw, rng, maxlen=1).flat(), "mixed")
            h, _ = random_walk(mixed, W, rng, rng.randrange(1, 4), allow=lambda r: r.bar)
            if h:
                bands += trapezium(pres, mixed, W, h).bands
        for _ in range(6):
            W = hw.parse_admissible(random_sigma_word(hw, rng).flat(), "mixed")
            h, _ = random_walk(mixed, W, rng, 1, allow=lambda r: not r.bar)
            if h:
                bands.append(theta_band(pres, mixed, W, h[0]))
        checked = 0
        for band in bands:
            k = rng.randrange(len(band.cells))
            c = band.cells[k]
            cells = list(band.cells)
            cells[k] = Cell(c.kind, c.left, c.right, c.bottom, c.top * wletter(tamper), c.dir)
            for cell in cells:
                w = cell.boundary()
                # one free reduction of the four parts, as the product reduces them
                assert w == (wletter(cell.left, -cell.dir) * cell.bottom
                             * wletter(cell.right, cell.dir) * cell.top.inverse())
                got = outcome(normalize_relator, w)
                assert got == outcome(oracles.normalize_relator, w)
                assert (got in by_relator) == (cell is not cells[k])
                checked += 1
            broken = Band(band.rid, tuple(cells), band.bottom, band.top, band.base)
            full = verify_band(broken, pres, mixed)
            assert [line for line in full if line.startswith("cell ")] == \
                [f"cell {k}: boundary is not a relator"]
            # the relations of the band's own rule give the same report
            assert verify_band(broken, _rules_presentation(mixed, (band.rid,)), mixed) == full
        assert checked > 200

    @settings(max_examples=300)
    @given(conjugated_words())
    def test_hypothesis_words(self, w):
        assert outcome(normalize_relator, w) == outcome(oracles.normalize_relator, w)

    @settings(max_examples=300)
    @given(conjugated_words())
    def test_cyclic_reduce(self, w):
        conj, core = cyclic_reduce(w)
        assert (conj.letters, core.letters) == oracles.cyclic_reduce(w)
        assert CyclicWord(core.letters) == core

    @settings(max_examples=200)
    @given(letters_of(STRUCTURED + PLAIN))
    def test_cyclic_word_least_rotation(self, letters):
        k = oracles.least_rotation_index(letters)
        assert CyclicWord(letters).letters == tuple(letters[k:] + letters[:k])


class TestLaws:
    """Laws of the canonical form on freely reduced words (relators are
    words, which reduce on construction).  A word kept unreduced can have a
    least rotation whose end letters cancel, so they do not hold there."""

    @settings(max_examples=200)
    @given(conjugated_words())
    def test_idempotent(self, w):
        try:
            c = normalize_relator(Word(w.letters))
        except PresentationError:
            return
        assert normalize_relator(c.word()) == c

    @settings(max_examples=200)
    @given(conjugated_words())
    def test_rotation_and_inversion_invariant(self, w):
        try:
            c = normalize_relator(Word(w.letters))
        except PresentationError:
            return
        for rot in c.rotations():
            assert normalize_relator(Word(rot, reduce=False)) == c
            assert normalize_relator(Word(rot, reduce=False).inverse()) == c

    @settings(max_examples=100)
    @given(letters_of(STRUCTURED + PLAIN), letters_of(STRUCTURED + PLAIN))
    def test_trivial_raises(self, p, q):
        w = Word(p + q)
        with pytest.raises(PresentationError):
            normalize_relator(w * w.inverse())
        nested = p + q + [(s, -e) for s, e in reversed(q)] + [(s, -e) for s, e in reversed(p)]
        with pytest.raises(PresentationError):
            normalize_relator(Word(nested, reduce=False))
