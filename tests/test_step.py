"""One-pass rule application: ``Machine.step`` (with cold and warm step
plans) and ``applicable_rules`` against the check-then-build reference in
``oracles``, the step/inverse law, the lazily filled zone lookup and the
one-scan pair nesting."""

import random

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from genwords import (
    applicable_rules, block_word, dyck_words, random_bar_word, random_positive,
)
from smkit.hardware import COORD_E1, BaseLetter
from smkit.smachine import Machine
from smkit.words import (
    Coord, RuleId, Word, _canonical_orientation, _matchings, _nesting,
)

B = BaseLetter
CODES = {"UnknownRule", "FlavorMismatch", "CoordMismatch", "ForbiddenSectorShape",
         "LockedSectorNonEmpty", "ResultNotAdmissible"}


def with_k1(hw, body, coord, flavor):
    flat = Word(body.letters + ((hw.state("K", 1, coord, flavor == "bar"), 1),), reduce=False)
    return hw.parse_admissible(flat, flavor)


def strict_word(hw, rng, coord, empty=""):
    """Full-base strict word at coord, positive contents outside ``empty``."""
    w = [() if k in empty else random_positive(rng, hw.ee.mbar, 2, 1) for k in "KLPR"]
    return with_k1(hw, hw.sigma_four(*w, r=coord.r, i=coord.omega), coord, "strict")


def seeded_words(hw, flavor, seed=7):
    """Seeded admissible words at every coordinate, with filled and emptied
    zones, plus words that reach the fold-back and result checks."""
    rng = random.Random(seed)
    out = []
    for coord in hw.ee.coords():
        for empty in ("", "KR", "LP", "KLPR"):
            if flavor in ("strict", "mixed"):
                out.append(strict_word(hw, rng, coord, empty))
            if flavor in ("bar", "mixed"):
                out.append(random_bar_word(hw, rng, 2, coord, empty))
        if flavor != "bar":
            out.append(block_word(hw, rng, rng.randrange(1, hw.N + 1), coord))
    # a fold-back in the K3-zone, which t1 locks
    K3 = hw.state("K", 3, COORD_E1)
    fold = Word(((K3, 1), (hw.tape(1, B("K", 3), flavor == "bar"), 1), (K3, -1)))
    out.append(hw.parse_admissible(fold, "bar" if flavor == "bar" else "strict"))
    if flavor != "bar":
        # t2(r1,2) prepends a2^-1 to an L-zone starting with a1 (see test_smachine)
        out.append(with_k1(hw, hw.sigma_four((), ((1, 1),), (), (), r=1, i=2),
                           Coord(1, 2), "strict"))
    if flavor == "mixed":
        return [hw.parse_admissible(W.flat(), "mixed") for W in out]
    # words of the other flavor, which fail the machine's shape check
    for coord in (COORD_E1, Coord(1, 2)):
        out.append(random_bar_word(hw, rng, 2, coord) if flavor == "strict"
                   else strict_word(hw, rng, coord))
    return out


def signed_rules(machine):
    out = []
    for rid in machine.rule_ids():
        out += [rid, rid.inverse]
    out += [RuleId("2", 1, 1, machine.flavor != "bar"), RuleId("12", 9, None, False, -1)]
    return out


@pytest.fixture(scope="module", params=("strict", "bar", "mixed"))
def machine_words(request, hw):
    machine = Machine(hw, request.param)
    return machine, seeded_words(hw, request.param)


class TestStepAgainstReference:
    def test_every_signed_rule_on_every_word(self, machine_words):
        machine, words = machine_words
        codes = set()
        accepted = 0
        for W in words:
            for rid in signed_rules(machine):
                want = oracles.step(machine, rid, W)
                for _ in range(2):  # the second step reads a warm step plan
                    got = machine.step(rid, W)
                    assert got == want, (rid, W.text())
                assert machine.applicable(rid, W) == got[1]
                if got[1] is None:
                    accepted += 1
                else:
                    codes.add(got[1].code)
        assert accepted > len(words)
        # only positivity makes a result inadmissible: bar rules keep the bar
        # shape and the mixed flavor drops positivity
        assert codes == CODES - ({"ResultNotAdmissible"} if machine.flavor != "strict" else set())

    def test_applicable_rules_order_and_results(self, machine_words):
        machine, words = machine_words
        for W in words:
            pairs = machine.applicable_rules(W)
            assert [rid for rid, _ in pairs] == applicable_rules(machine, W), W.text()
            for rid, out in pairs:
                assert out == oracles.apply(machine, rid, W)


@st.composite
def stepped_words(draw):
    flavor = draw(st.sampled_from(("strict", "bar", "mixed")))
    seed = draw(st.integers(0, 2 ** 16))
    kinds = draw(st.sets(st.sampled_from("KLPR")))
    return flavor, seed, "".join(sorted(kinds)), draw(st.integers(0, 10 ** 6))


class TestStepLaw:
    @settings(max_examples=120)
    @given(stepped_words())
    def test_step_then_inverse_gives_back_the_word(self, hw, strict, bar, mixed, case):
        flavor, seed, empty, pick = case
        machine = {"strict": strict, "bar": bar, "mixed": mixed}[flavor]
        rng = random.Random(seed)
        coords = hw.ee.coords()
        coord = coords[rng.randrange(len(coords))]
        if flavor == "bar":
            W = random_bar_word(hw, rng, 2, coord, empty)
        else:
            W = hw.parse_admissible(strict_word(hw, rng, coord, empty).flat(), flavor)
        rids = signed_rules(machine)
        rid = rids[pick % len(rids)]
        out, diag = machine.step(rid, W)
        if diag is None:
            assert machine.step(rid.inverse, out) == (W, None)
        for rid, out in machine.applicable_rules(W):
            assert machine.step(rid.inverse, out) == (W, None)


class TestZoneLookup:
    def test_matches_base_word_positions(self, ee):
        from smkit.hardware import Hardware
        hw = Hardware(ee, 10)
        letters = [(bl, s) for bl, _ in hw.sigma for s in (1, -1)]
        for _ in range(2):  # filling, then remembered
            for y in letters:
                assert hw.zone_after(y) == oracles.zone_after(hw, y)


class TestNesting:
    def test_one_scan_matches_pairwise_filter(self):
        rejected = 0
        for w in dyck_words(8):
            n = len(w)
            for matching in _matchings(w.letters, list(range(n))):
                canonical = _canonical_orientation(n, matching)
                minus = tuple(sorted((p, q) if w[p][1] < 0 else (q, p) for p, q in matching))
                expect = oracles.nesting(n, canonical)
                assert expect is not None  # pairs oriented at min/max position always nest
                assert _nesting(n, canonical) == expect
                got = _nesting(n, minus)
                assert got == oracles.nesting(n, minus), (w, minus)
                rejected += got is None
        assert rejected
