"""Interned structured symbols: one object per distinct field tuple."""

import copy
import os
import pickle
import random
import subprocess
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

import oracles
import smkit
from conftest import DATA
from smkit.smachine import enumerate_rule_ids
from smkit.words import (
    AGE_FAMILIES, FAMILIES, KINDS, BaseLetter, Coord, RuleId, State, Tape,
    Theta, TokenError, Word, X, parse_rule, parse_symbol, parse_word,
    rule_token, symbol_key, symbol_token, word_to_text,
)

CLASSES = (BaseLetter, Coord, RuleId, Tape, State, Theta, X)


@pytest.fixture(scope="module")
def inventory(pres):
    """Every letter of the N=8 presentation, with the rules, zones and
    coordinates they are built from."""
    letters = pres.inventory()
    syms = set(letters)
    for sym in letters:
        if isinstance(sym, Tape):
            syms.add(sym.zone)
        elif isinstance(sym, State):
            syms.update((sym.base, sym.coord))
        elif isinstance(sym, Theta):
            syms.update((sym.rule, sym.zone))
        elif isinstance(sym, X):
            syms.update((sym.tape, sym.tape.zone, sym.rule))
    return letters, syms


def fields(sym):
    return tuple(getattr(sym, f) for f in type(sym)._fields)


def spellings(sym):
    """Every way of calling the constructor with the fields of sym."""
    cls, vals = type(sym), fields(sym)
    names = cls._fields
    yield cls(*vals)
    yield cls(**dict(zip(names, vals)))
    yield cls(vals[0], **dict(zip(names[1:], vals[1:])))
    if cls in (Tape, State) and not sym.bar:
        yield cls(*vals[:-1])
    if cls is RuleId:
        if sym.sign == 1:
            yield cls(*vals[:-1])
            if not sym.bar:
                yield cls(*vals[:3])
        yield cls(sym.family, sym.r, sym.i, sign=sym.sign, bar=sym.bar)


class TestIdentity:
    def test_every_spelling_gives_the_same_object(self, inventory, ee):
        _, syms = inventory
        syms = syms | set(enumerate_rule_ids(ee)) | set(enumerate_rule_ids(ee, True))
        seen = set()
        for sym in syms:
            seen.add(type(sym))
            for again in spellings(sym):
                assert again is sym
        assert seen == set(CLASSES)

    def test_token_round_trip_is_identity(self, inventory):
        letters, _ = inventory
        for sym in letters:
            for sign in (1, -1):
                got, s = parse_symbol(symbol_token(sym, sign))
                assert got is sym and s == sign

    def test_equal_means_identical(self, inventory):
        letters, _ = inventory
        rng = random.Random(7)
        sample = rng.sample(letters, 200)
        for a in sample:
            for b in sample:
                assert (a == b) is (a is b)

    def test_copy_and_pickle_return_the_pooled_object(self, inventory):
        for sym in inventory[1]:
            assert copy.copy(sym) is sym
            assert copy.deepcopy(sym) is sym
            assert pickle.loads(pickle.dumps(sym)) is sym

    def test_state_base_and_rule_positive(self, inventory):
        for sym in inventory[1]:
            if isinstance(sym, State):
                assert sym.base is BaseLetter(sym.kind, sym.j)
            elif isinstance(sym, RuleId):
                assert sym.positive is RuleId(sym.family, sym.r, sym.i, sym.bar, 1)
                assert sym.inverse.inverse is sym


class TestHash:
    def test_hash_survives_every_way_back_to_the_symbol(self, inventory):
        # symbols hash by identity, so what dicts and sets need is that each
        # road back to a symbol gives one with the same hash
        for sym in inventory[1]:
            h = hash(sym)
            assert all(hash(again) == h for again in spellings(sym))
            assert hash(copy.copy(sym)) == h
            assert hash(copy.deepcopy(sym)) == h
            assert hash(pickle.loads(pickle.dumps(sym))) == h
            assert sym in {type(sym)(*fields(sym))}

    def test_present_is_the_same_in_two_processes(self, tmp_path):
        # identity hashes differ between processes: no output may depend on
        # the iteration order of a set or dict of symbols
        src = os.path.dirname(os.path.dirname(smkit.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        outs = []
        for k in range(2):
            out = tmp_path / f"p{k}.txt"
            done = subprocess.run(
                [sys.executable, "-m", "smkit.cli", "present", "--ee",
                 os.path.join(DATA, "sample.ee"), "--n", "8", "--out", str(out), "--stats"],
                env=env, capture_output=True, timeout=300)
            assert done.returncode == 0, done.stderr
            outs.append((out.read_bytes(), done.stdout, done.stderr))
        assert outs[0][0] and outs[0] == outs[1]


class TestPrecomputed:

    def test_symbol_key_matches_unmemoized_reference(self, inventory):
        letters, _ = inventory
        shuffled = list(letters)
        random.Random(11).shuffle(shuffled)
        assert sorted(shuffled, key=symbol_key) == sorted(shuffled, key=oracles.symbol_key)
        for sym in letters:
            assert symbol_key(sym) == oracles.symbol_key(sym)
        for plain in ("a", "b1"):
            assert symbol_key(plain) == oracles.symbol_key(plain)

    def test_symbol_key_rejects_non_letters(self):
        for sym in (BaseLetter("K", 1), Coord(None, 1), RuleId("1", None, 1), 3):
            with pytest.raises(TypeError):
                symbol_key(sym)

    def test_base_letters_keep_their_order(self):
        zones = [BaseLetter(k, j) for j in (2, 1, 10) for k in "RPLK"]
        assert sorted(zones) == sorted(zones, key=lambda z: (z.kind, z.j))
        assert BaseLetter("K", 2) < BaseLetter("L", 1) <= BaseLetter("L", 1)


class TestImmutable:
    @pytest.mark.parametrize("sym", [
        BaseLetter("K", 1), Coord(1, 2), RuleId("2", 1, 1),
        Tape(1, BaseLetter("L", 2)), State("P", 3, Coord(None, 1)),
        Theta(RuleId("23", 1, None), BaseLetter("R", 1)),
        X(Tape(2, BaseLetter("K", 1)), RuleId("1", None, 2)),
    ])
    def test_fields_cannot_change(self, sym):
        name = type(sym)._fields[0]
        before = getattr(sym, name)
        with pytest.raises(AttributeError):
            setattr(sym, name, before)
        with pytest.raises(AttributeError):
            delattr(sym, name)
        with pytest.raises(AttributeError):
            sym.extra = 1
        assert getattr(sym, name) == before


class TestRejected:
    def test_bad_family_is_not_pooled(self):
        before = dict(RuleId._pool)
        for args in (("6", None, 1, False, 1), ("99", 2, None, True, -1)):
            with pytest.raises(TokenError, match="unknown rule family"):
                RuleId(*args)
            assert args not in RuleId._pool
        assert RuleId._pool == before
        assert {key[0] for key in RuleId._pool} <= set(FAMILIES)


# ---------------------------------------------------------------------------
# text round trip on structured words
# ---------------------------------------------------------------------------

zones = st.builds(BaseLetter, st.sampled_from(KINDS), st.integers(1, 12))
coords = st.builds(Coord, st.one_of(st.none(), st.integers(1, 4)), st.integers(1, 5))


@st.composite
def rules(draw, bar=None, sign=None):
    """Rule names the grammar accepts."""
    family = draw(st.sampled_from(FAMILIES))
    if family == "1":
        r = None
    elif family in ("12", "34"):
        r = draw(st.integers(1, 4))
    else:
        r = draw(st.one_of(st.none(), st.integers(1, 4)))
    i = draw(st.integers(1, 6)) if family in AGE_FAMILIES else None
    bar = draw(st.booleans()) if bar is None else bar
    sign = draw(st.sampled_from((1, -1))) if sign is None else sign
    return RuleId(family, r, i, bar, sign)


tapes = st.builds(Tape, st.integers(1, 6), zones, st.booleans())
symbols = st.one_of(
    tapes,
    st.builds(State, st.sampled_from(KINDS), st.integers(1, 12), coords, st.booleans()),
    st.builds(Theta, rules(sign=1), zones),
    st.builds(X, st.builds(Tape, st.integers(1, 6),
                           zones.filter(lambda z: z.kind != "P")),
              rules(bar=False, sign=1)),
)


class TestTextRoundTrip:
    @settings(max_examples=300)
    @given(st.lists(st.tuples(symbols, st.sampled_from((1, -1))), max_size=12))
    def test_parse_word_inverts_word_to_text(self, letters):
        w = Word(letters)
        back = parse_word(word_to_text(w))
        assert back == w
        assert all(a is b for (a, _), (b, _) in zip(back, w))

    @settings(max_examples=300)
    @given(st.lists(st.tuples(st.one_of(symbols, st.sampled_from(("a", "b"))),
                              st.sampled_from((1, -1))), max_size=12))
    def test_word_to_text_is_the_token_join(self, letters):
        # the cached inverse tokens against tokens spelled from the repr,
        # on words mixing structured and plain symbols
        w = Word(letters, reduce=False)
        want = " ".join((sym if isinstance(sym, str) else repr(sym)) + ("^-1" if sign < 0 else "")
                        for sym, sign in letters)
        assert word_to_text(w) == want
        assert [symbol_token(sym, sign) for sym, sign in letters] == want.split()

    @settings(max_examples=200)
    @given(rules())
    def test_rule_tokens(self, rid):
        assert parse_rule(rule_token(rid)) is rid


class TestThreads:
    def test_racing_constructors_share_one_object(self):
        # fields no other test builds, so every call below races to create
        count, workers = 300, 6
        zones = [("K", 5000 + k) for k in range(count)]
        got = [None] * workers
        start = threading.Barrier(workers)

        def build(w):
            start.wait(timeout=10)
            got[w] = [Tape(1, BaseLetter(kind, j)) for kind, j in zones]

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=build, args=(w,)) for w in range(workers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        for k, (kind, j) in enumerate(zones):
            sym = Tape(1, BaseLetter(kind, j))
            assert all(g[k] is sym for g in got)
