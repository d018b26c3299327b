"""One-pass rule application: ``Machine.step`` (with cold and warm step
plans) and ``applicable_rules`` against the check-then-build reference in
``oracles``, the step/inverse law, the lazily filled zone lookup and the
nesting of enumerated Dyck pairings."""

import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from genwords import (
    applicable_rules, block_word, dyck_words, random_bar_word, random_positive,
    random_reduced, random_walk,
)
from smkit.derive import accept_bfs, bar_conjugated_insertion, insertion_history
from smkit.hardware import (
    COORD_E1, AdmissibleError, AdmissibleWord, BaseLetter, EEPresentation, Hardware,
)
from smkit.smachine import Diagnosis, Machine
from smkit.words import TRANSITION_FAMILIES, Coord, RuleId, Tape, Word, enumerate_pairings

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
                if got[1] is not None and got[1].code == "ResultNotAdmissible":
                    assert raised(machine._apply, rid, W) == raised(oracles.apply, machine, rid, W)
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
    def test_enumerated_nesting_matches_the_oracle(self):
        # every pairing of every cyclic Dyck word up to length 10: pairs in
        # open order with open < close, and the parents of one stack pass
        # over them equal to the pairwise filter's
        words, pairings = dyck_words(10), 0
        for w in words:
            for pairing in enumerate_pairings(w):
                pairs = pairing.pairs
                assert all(o < c for o, c in pairs)
                assert [o for o, _ in pairs] == sorted(o for o, _ in pairs)
                assert pairing.parents == oracles.nesting(len(w), pairs), (w, pairs)
                pairings += 1
        assert pairings > len(words)


# ---------------------------------------------------------------------------
# delta steps: trusted words, junction cancellation, the full path
# ---------------------------------------------------------------------------

def raised(fn, *args):
    """(class, clause, message) of the AdmissibleError fn raises, or None."""
    try:
        fn(*args)
    except AdmissibleError as e:
        return type(e), e.clause, str(e)
    return None


def counting_validate(monkeypatch, hw):
    """Count the full validations ``hw`` runs from now on."""
    calls = []
    real = hw.validate
    monkeypatch.setattr(hw, "validate", lambda aw: calls.append(aw) or real(aw))
    return calls


def choreography(hw, rng, flavor):
    """(start word, history) of a relator insertion over a random word:
    every family, sectors emptied and refilled."""
    r = rng.randrange(1, len(hw.ee.nonempty) + 1)
    if flavor == "bar" or (flavor == "mixed" and rng.random() < 0.5):
        w = random_reduced(rng, hw.ee.mbar, 4)
        u = random_reduced(rng, hw.ee.mbar, 2)
        W, h = hw.sigma_w(w, "bar"), bar_conjugated_insertion(hw, w, u, r)
    else:
        w = random_positive(rng, hw.ee.mbar, 4, 2)
        W, h = hw.sigma_w(w), insertion_history(hw, w, rng.randrange(1, len(w)), r)
    return (hw.parse_admissible(W.flat(), flavor) if flavor == "mixed" else W), h


class TestLongWalks:
    """Seeded walks of a few hundred steps on each machine: runs of random
    ages that grow the sectors (never undoing the step before), and relator
    insertions that go through every family.  At every step a few more
    rules that leave the word's coordinate are tried; every answer of
    ``step`` equals the reference's, and every result passes a fresh
    reference validation."""

    AGE_RUN = 60

    @staticmethod
    def check(machine, rid, W, codes):
        got = machine.step(rid, W)
        assert got == oracles.step(machine, rid, W), (rid, W.text())
        out, diag = got
        if diag is None:
            oracles.validate(machine.hw, out)
            assert machine.hw.trusts(out)
        elif diag.code == "ResultNotAdmissible":
            codes.add(diag.detail)
            assert raised(machine._apply, rid, W) == raised(oracles.apply, machine, rid, W)
        else:
            codes.add(diag.code)
        return out

    @pytest.mark.parametrize("flavor", ("strict", "bar", "mixed"))
    def test_every_step_matches_the_reference(self, hw, flavor):
        machine = Machine(hw, flavor)
        rng = random.Random(31)
        by_src = {}
        for rid in signed_rules(machine)[:-2]:
            by_src.setdefault(machine.coords_of(rid)[0], []).append(rid)
        codes, families = set(), set()
        steps = longest = 0
        for _ in range(3):
            # a run of ages from a word part way through an insertion
            W, h = choreography(hw, rng, flavor)
            W = machine.run(W, h[:rng.randrange(len(h))]).final
            back = None  # the inverse of the last age taken
            for _ in range(self.AGE_RUN):
                ages = [rid for rid in by_src[W.coord]
                        if rid.family not in TRANSITION_FAMILIES and rid != back]
                rng.shuffle(ages)
                for rid in ages[:6]:
                    out = self.check(machine, rid, W, codes)
                    if out is not None:
                        W, back = out, rid.inverse
                        families.add(rid.family)
                        steps += 1
                        break
                longest = max(longest, max(map(len, W.inners)))
            # a relator insertion, with side tries
            W, h = choreography(hw, rng, flavor)
            for rid in h:
                for other in rng.sample(by_src[W.coord], 2):
                    self.check(machine, other, W, codes)
                W = self.check(machine, rid, W, codes)
                assert W is not None
                families.add(rid.family)
                steps += 1
        assert steps >= 200 and longest >= 20
        assert families == {"1", "12", "2", "23", "3", "34", "4", "45", "5", "51"}
        assert "LockedSectorNonEmpty" in codes
        if flavor == "strict":
            assert "PositivityViolation" in codes


def fold_word(hw, coord, inner):
    """L1^-1 inner L1 at coord, strict: a fold-back in the K1-zone, inner
    given as (index, sign) pairs."""
    return fold_at(hw, hw.state("L", 1, coord), -1, inner, "strict")


def fold_at(hw, st, s, inner, flavor):
    """st^s inner st^-s: a fold-back, inner given as (index, sign) pairs
    in the zone after st^s."""
    zone = hw.zone_after((st.base, s))
    letters = tuple((hw.tape(i, zone, flavor == "bar"), e) for i, e in inner)
    return hw.parse_admissible(Word(((st, s),) + letters + ((st, -s),), reduce=False), flavor)


def ee_with_long_relator():
    """The sample presentation plus r3 = (a1 a2)^20, its own prime."""
    return EEPresentation(m=2, mbar=2, involution=(2, 1),
                          relators=((), (1, 2), (2, 1), (1, 2) * 20))


def ee_with_square():
    """The sample presentation plus the relators a1 a1 (r3) and its primed
    a2 a2 (r4): t34(r3) attaches a1 a1 with a repeated letter."""
    return EEPresentation(m=2, mbar=2, involution=(2, 1),
                          relators=((), (1, 2), (2, 1), (1, 1), (2, 2)))


class TestJunctions:
    """t34(r) on a fold-back L1^-1 w L1 at (r,3) turns the K1-zone word w
    into r^-1 w r: the attached r^-1 is negative, the sector positive.
    t2(r,i) turns the sector of a fold into a_i^-1 w a_i, so both junctions
    can cancel."""

    def step_both(self, monkeypatch, hw, W, rid, flavor="strict"):
        """Machine.step against the reference, with the number of full
        validations the step ran: none on these trusted words."""
        machine = Machine(hw, flavor)
        assert hw.trusts(W)
        calls = counting_validate(monkeypatch, hw)
        got = machine.step(rid, W)
        assert got == oracles.step(machine, rid, W), W.text()
        return got, len(calls)

    def test_attached_word_cancels_into_the_inner_word(self, monkeypatch, hw):
        # a2^-1 a1^-1 . a1 a2 a1 . a1 a2 = a1 a1 a2: the wrong-sign letters
        # cancel and are not reported
        W = fold_word(hw, Coord(1, 3), ((1, 1), (2, 1), (1, 1)))
        (out, diag), full = self.step_both(monkeypatch, hw, W, RuleId("34", 1, None))
        assert diag is None and full == 0 and hw.trusts(out)
        assert [(t.i, s) for t, s in out.inners[0]] == [(1, 1), (1, 1), (2, 1)]

    def test_inner_word_consumed_by_one_side(self, monkeypatch, hw):
        # a2^-1 a1^-1 . a1 a2 . a1 a2 = a1 a2
        W = fold_word(hw, Coord(1, 3), ((1, 1), (2, 1)))
        (out, diag), full = self.step_both(monkeypatch, hw, W, RuleId("34", 1, None))
        assert diag is None and full == 0
        assert [(t.i, s) for t, s in out.inners[0]] == [(1, 1), (2, 1)]

    def test_inner_word_consumed_so_right_meets_left(self, monkeypatch):
        # a1^-1 a1^-1 . a1 . a1 a1 = a1: after a1 cancels, the a1^-1 left of
        # it meets the a1 a1 on the other side and cancels once more
        hw = Hardware(ee_with_square(), 8)
        W = fold_word(hw, Coord(3, 3), ((1, 1),))
        (out, diag), full = self.step_both(monkeypatch, hw, W, RuleId("34", 3, None))
        assert diag is None and full == 0
        assert [(t.i, s) for t, s in out.inners[0]] == [(1, 1)]

    def test_surviving_wrong_sign_letter_is_a_positivity_violation(self, monkeypatch, hw):
        # a2^-1 a1^-1 . a1 . a1 a2 = a2^-1 a1 a2: a2^-1 survives
        W = fold_word(hw, Coord(1, 3), ((1, 1),))
        rid = RuleId("34", 1, None)
        (out, diag), full = self.step_both(monkeypatch, hw, W, rid)
        assert out is None and full == 0
        assert diag == Diagnosis("ResultNotAdmissible", "PositivityViolation")
        strict = Machine(hw, "strict")
        want = raised(oracles.apply, strict, rid, W)
        assert raised(strict._apply, rid, W) == want
        assert want[2] == "PositivityViolation: sector 0 between L1(r1,4) and L1(r1,4)"

    # Sectors of 20-60 letters, longer than any sector a step of the
    # benchmark changes (at most 9 letters).

    def test_long_sector_cancels_at_one_junction(self, monkeypatch, hw):
        # a2^-1 a1^-1 . a1 a2 x . a1 a2 = x a1 a2, x 30 positive letters
        x = ((1, 1), (1, 1), (2, 1)) * 10
        W = fold_word(hw, Coord(1, 3), ((1, 1), (2, 1)) + x)
        (out, diag), full = self.step_both(monkeypatch, hw, W, RuleId("34", 1, None))
        assert diag is None and full == 0 and hw.trusts(out)
        assert [(t.i, s) for t, s in out.inners[0]] == list(x + ((1, 1), (2, 1)))

    @pytest.mark.parametrize("flavor", ("strict", "bar"))
    def test_long_sector_cancels_at_both_junctions(self, monkeypatch, hw, flavor):
        # t2(r1,1) conjugates the sector of a fold by a1:
        # a1^-1 . a1 x a1^-1 . a1 = x, x 40 letters of both signs; strict,
        # the L1-zone of L1 w L1^-1 needs no sign; bar, the K2-zone of
        # L2^-1 w L2 (no bar letters in j=1 zones)
        bar = flavor == "bar"
        x = ((2, 1), (1, 1), (2, 1), (1, -1)) * 10
        st = hw.state("L", 2 if bar else 1, Coord(1, 2), bar)
        W = fold_at(hw, st, -1 if bar else 1, ((1, 1),) + x + ((1, -1),), flavor)
        rid = RuleId("2", 1, 1, bar)
        (out, diag), full = self.step_both(monkeypatch, hw, W, rid, flavor)
        assert diag is None and full == 0 and hw.trusts(out)
        assert [(t.i, s) for t, s in out.inners[0]] == list(x)

    @pytest.mark.parametrize("flavor", ("strict", "bar"))
    def test_long_inner_word_consumed_so_right_meets_left(self, monkeypatch, flavor):
        # r^-1 . w . r = w for r = (a1 a2)^20 and w = (a1 a2)^12: w cancels
        # into r^-1, and the 16 letters of r^-1 left cancel into r
        hw = Hardware(ee_with_long_relator(), 8)
        bar = flavor == "bar"
        w = ((1, 1), (2, 1)) * 12
        st = hw.state("L", 2 if bar else 1, Coord(3, 3), bar)
        W = fold_at(hw, st, -1, w, flavor)
        (out, diag), full = self.step_both(monkeypatch, hw, W, RuleId("34", 3, None, bar),
                                           flavor)
        assert diag is None and full == 0 and hw.trusts(out)
        assert [(t.i, s) for t, s in out.inners[0]] == list(w)

    @pytest.mark.parametrize("head", (((1, 1),), ((2, 1),)), ids=("a1", "a2"))
    def test_long_sector_keeps_a_wrong_sign_letter(self, monkeypatch, hw, head):
        # a2^-1 a1^-1 . a1 x . a1 a2 = a2^-1 x a1 a2 (a2^-1 survives), and
        # a2^-1 a1^-1 . a2 x . a1 a2 keeps both: sector 0 is not positive
        x = ((1, 1), (1, 1), (2, 1)) * 15
        W = fold_word(hw, Coord(1, 3), head + x)
        rid = RuleId("34", 1, None)
        (out, diag), full = self.step_both(monkeypatch, hw, W, rid)
        assert out is None and full == 0
        assert diag == Diagnosis("ResultNotAdmissible", "PositivityViolation")
        strict = Machine(hw, "strict")
        want = raised(oracles.apply, strict, rid, W)
        assert raised(strict._apply, rid, W) == want
        assert want[2] == "PositivityViolation: sector 0 between L1(r1,4) and L1(r1,4)"

    def test_step_and_inverse_on_the_fold(self, hw, strict):
        W = fold_word(hw, Coord(1, 3), ((1, 1), (2, 1), (2, 1)))
        out, diag = strict.step(RuleId("34", 1, None), W)
        assert diag is None
        assert strict.step(RuleId("34", 1, None, False, -1), out) == (W, None)


def long_sector_word(hw, rng, coord, empty, flavor):
    """A full-base word at coord whose zones outside ``empty`` carry 20-60
    letters: positive ones for strict, freely reduced ones for bar."""
    bar = flavor == "bar"
    pick = random_reduced if bar else random_positive
    w = [() if k in empty else pick(rng, hw.ee.mbar, 60, 20) for k in "KLPR"]
    return with_k1(hw, hw.sigma_four(*w, r=coord.r, i=coord.omega, bar=bar), coord, flavor)


class TestListedPair:
    """``applicable_rules(W, reach, back)``: the rule of ``back`` runs the
    checks every candidate runs, and the pair itself is listed at that
    rule's place, never built.  Named as the step back to the word W was
    built from, it leaves the list as it is."""

    def test_checked_in_place_and_never_built(self, monkeypatch, machine_words):
        machine, words = machine_words
        stand_in = object()
        built_rids = []
        real = machine._apply
        monkeypatch.setattr(machine, "_apply", lambda rid, W, table=None:
                            built_rids.append(rid) or real(rid, W, table))
        far = float("inf")
        codes = set()
        for W in words:
            order = [signed for rid in machine.rules for signed in (rid, rid.inverse)
                     if machine.coords_of(signed)[0] == W.coord]
            for reach in (None, 0, 2):
                built = dict(machine.applicable_rules(W, reach))
                near = [rid for rid in order if reach is None or
                        machine.distance.get(machine.coords_of(rid)[1], far) <= reach]
                for rid in order:
                    diag = machine.applicable(rid, W)
                    passes = rid in near and (diag is None or diag.code == "ResultNotAdmissible")
                    want = [(r, stand_in if r is rid else built[r]) for r in near
                            if r in built or (r is rid and passes)]
                    del built_rids[:]
                    assert machine.applicable_rules(W, reach, (rid, stand_in)) == want, \
                        (W.text(), rid, reach)
                    assert rid not in built_rids
                    codes.add(None if diag is None else diag.code)
        # pairs were checked past every kind of failure a candidate can have
        assert codes >= {None, "FlavorMismatch", "ForbiddenSectorShape", "LockedSectorNonEmpty"}
        assert ("ResultNotAdmissible" in codes) == (machine.flavor == "strict")

    @pytest.mark.parametrize("flavor", ("strict", "bar", "mixed"))
    def test_the_step_back_on_long_sectors(self, hw, flavor):
        # seeded words with sectors of 20-60 letters and fold-backs, as
        # TestJunctions builds them: rid^-1 takes W o rid back to W, and
        # listing (rid^-1, W) for it leaves applicable_rules(W o rid, reach)
        # as it is
        machine = Machine(hw, flavor)
        rng = random.Random(11)
        base = "bar" if flavor == "bar" else "strict"
        pick = random_reduced if flavor == "bar" else random_positive
        words = [long_sector_word(hw, rng, coord, empty, base)
                 for coord in hw.ee.coords()
                 for empty in ("", "K", "KR", "LP", "KLR", "LPR")]
        for coord in (Coord(1, 2), Coord(1, 3), Coord(2, 3)):
            if base == "bar":
                st = hw.state("L", 2, coord, True)
                words.append(fold_at(hw, st, -1, pick(rng, hw.ee.mbar, 60, 20), "bar"))
            else:
                words.append(fold_word(hw, coord, pick(rng, hw.ee.mbar, 60, 20)))
        if flavor == "mixed":
            words = [hw.parse_admissible(W.flat(), "mixed") for W in words]
        edges = 0
        for W in words:
            for rid, nxt in machine.applicable_rules(W):
                edges += 1
                assert oracles.step(machine, rid.inverse, nxt) == (W, None)
                for reach in (None, 0, 1, 2, 3):
                    assert machine.applicable_rules(nxt, reach, (rid.inverse, W)) == \
                        machine.applicable_rules(nxt, reach), (nxt.text(), rid, reach)
        assert edges > 100


class TestFlavorOtherThanTheRuleShape:
    def test_strict_word_with_the_bar_shape_under_bar_rules(self, monkeypatch, hw, mixed):
        # K1(e,1) L1(e,1) is strict, and has the bar shape too: its states
        # at (e,1) are shared and its one sector, in the K1-zone, is empty.
        # A bar rule's result has bar states, so every result takes the full
        # validate, and the ones that leave (e,1) are not strict.
        W = hw.parse_admissible(Word(((hw.state("K", 1, COORD_E1), 1),
                                      (hw.state("L", 1, COORD_E1), 1))), "strict")
        assert hw.trusts(W)
        calls = counting_validate(monkeypatch, hw)
        built = codes = 0
        for rid in signed_rules(mixed):
            if not rid.bar:
                continue
            got = mixed.step(rid, W)
            assert got == oracles.step(mixed, rid, W), rid
            built += got[1] is None or got[1].code == "ResultNotAdmissible"
            codes += got[1] is not None and got[1].code == "ResultNotAdmissible"
        assert len(calls) == built and codes and built > codes


class TestUntrustedWords:
    """Words no Hardware validated, or another one did, take the full path
    and give the reference's answers; a word validated once is trusted."""

    def untrusted(self, ee, hw, W):
        other = Hardware(ee, 10)
        yield "with_coord", W.with_coord(hw, W.coord)
        yield "inverse", W.inverse()
        yield "hand-built", AdmissibleWord(W.flavor, W.states, W.inners)
        part = AdmissibleWord(W.flavor, W.states[:6], W.inners[:5])
        other.validate(part)
        assert other.trusts(part)
        yield "other N", part

    def test_same_answers_as_the_reference(self, ee, hw, machine_words):
        machine, words = machine_words
        rules = signed_rules(machine)
        for W in words[::8]:
            for name, U in self.untrusted(ee, hw, W):
                assert not hw.trusts(U), name
                for rid in rules:
                    got = machine.step(rid, U)
                    assert got == oracles.step(machine, rid, U), (name, rid, U.text())
                    if got[1] is None:
                        assert hw.trusts(got[0])
                    if U == W:
                        assert got == machine.step(rid, W)

    def test_validate_records_the_table(self, ee, hw):
        W = hw.sigma_w(((1, 1),))
        assert hw.trusts(W) and W._table is hw.sector_table(W.states)
        U = AdmissibleWord(W.flavor, W.states, W.inners)
        assert not hw.trusts(U)
        assert U == W and hash(U) == hash(W) and repr(U) == repr(W)
        hw.validate(U)
        assert hw.trusts(U)
        other = Hardware(ee, 8)
        assert not other.trusts(U)
        with pytest.raises(Exception):
            Hardware(ee, 8).validate(AdmissibleWord("strict", W.states, W.inners[:-1]
                                                    + (((hw.tape(1, B("K", 1)), 1),),)))

    def test_unreduced_inner_word_is_not_trusted(self, hw, strict):
        W = hw.sigma_w(())
        a1 = hw.tape(1, B("P", 1))
        loop = ((a1, 1), (a1, -1))  # in the unsigned P1-zone
        U = AdmissibleWord("strict", W.states, W.inners[:2] + (loop,) + W.inners[3:])
        hw.validate(U)
        assert not hw.trusts(U)
        rid = RuleId("1", None, 2)
        got = strict.step(rid, U)
        assert got == oracles.step(strict, rid, U) and hw.trusts(got[0])
        assert got[0].inners[2] == ((hw.tape(2, B("P", 1)), -1),)

    def test_pickle_and_copy_drop_the_record(self, hw, strict):
        import copy
        W = strict.apply(RuleId("1", None, 1), hw.sigma_w(((2, 1),)))
        assert hw.trusts(W) and W._bar_shape is False
        state = W.__getstate__()
        assert "_table" not in state and "_bar_shape" not in state
        for U in (pickle.loads(pickle.dumps(W)), copy.copy(W), copy.deepcopy(W)):
            assert U == W and not hw.trusts(U) and U._bar_shape is None
            assert strict.step(RuleId("1", None, 2), U) == strict.step(RuleId("1", None, 2), W)

    def test_plans_hang_on_the_table_and_are_shared(self, hw, strict, mixed):
        W = hw.sigma_w(((1, 1),))
        rid = RuleId("1", None, 2)
        table = hw.sector_table(W.states)
        out = strict.apply(rid, W)
        plan = table.plans[rid]
        assert plan[0] == out.states and plan[2] is out._table
        M = hw.parse_admissible(W.flat(), "mixed")
        assert mixed.apply(rid, M).inners == out.inners
        assert table.plans[rid] is plan
        assert not hasattr(strict, "_plans")


class TestTrustedShape:
    """A trusted word records the shape it passed (``_bar_shape``: by
    ``validate``, or by the rule of the step that built it), and
    ``Machine._shape_error`` walks its letters only for the other shape: for
    every trusted word and either shape it answers as the full check does on
    an untrusted copy."""

    @staticmethod
    def full_check(hw, W, bar):
        copy = AdmissibleWord(W.flavor, W.states, W.inners)
        assert not hw.trusts(copy)
        return raised(hw.validate_bar_shape if bar else hw.validate_plain_shape, copy) is None

    def test_fast_path_answers_as_the_full_check(self, hw):
        machine = Machine(hw, "mixed")
        rng = random.Random(23)
        # mixed words through plain and bar rules, and bar words at (e,1)
        # with P-zone letters only, which have both shapes
        words = seeded_words(hw, "mixed", seed=23) + [
            random_bar_word(hw, rng, 2, COORD_E1, "KLR") for _ in range(4)]
        trusted = []
        for W in words:
            trusted += [W] + [out for _, out in machine.applicable_rules(W)]
            for _ in range(2):
                h = random_walk(machine, W, rng, 5)[0]
                trusted += machine.run(W, h).words[1:]
        seen = set()
        for W in trusted:
            assert machine.hw.trusts(W), W.text()
            answers = tuple(self.full_check(hw, W, bar) for bar in (False, True))
            for bar, full in zip((False, True), answers):
                assert (machine._shape_error(W, bar, W._table) is None) == full, (W.text(), bar)
                if not full:
                    assert machine._shape_error(W, bar, W._table).clause == raised(
                        hw.validate_bar_shape if bar else hw.validate_plain_shape,
                        AdmissibleWord(W.flavor, W.states, W.inners))[1]
            assert answers[W._bar_shape], W.text()
            seen.add((W._bar_shape, answers))
        # plain and bar words with one shape, and words of each record with both
        assert seen == {(False, (True, False)), (True, (False, True)),
                        (False, (True, True)), (True, (True, True))}


def assert_letter_tuples(W):
    """Each sector of W is a tuple of (tape letter, sign) pairs, ``sector``
    hands it back as it is, and W equals and hashes like its untrusted copy
    (a trusted word hashes through its table's states hash)."""
    for k, inner in enumerate(W.inners):
        assert type(inner) is tuple, (k, type(inner), W.text())
        assert all(type(letter) is tuple and len(letter) == 2 and isinstance(letter[0], Tape)
                   and letter[1] in (1, -1) for letter in inner), (k, W.text())
        assert W.sector(k)[1] is inner
    copy = AdmissibleWord(W.flavor, W.states, W.inners)
    assert W == copy and hash(W) == hash(copy), W.text()
    return W


class TestOneRepresentation:
    """One sector representation on every route that makes an admissible
    word: parsing and the standard words, steps, runs, listed words with
    and without a ``back`` pair, search traces, inverses, recoordinated
    words and pickles; and the tape parts a step attaches."""

    def test_parsed_and_standard_words(self, hw, machine_words):
        machine, words = machine_words
        for W in words:
            assert_letter_tuples(W)
            assert_letter_tuples(hw.parse_admissible(W.flat(), W.flavor))
        for w in ((), ((1, 1),), ((1, 1), (2, 1))):
            assert_letter_tuples(hw.sigma_w(w, machine.flavor))

    def test_steps_and_tape_parts(self, machine_words):
        machine, words = machine_words
        built = 0
        for W in words:
            for rid in signed_rules(machine):
                out, diag = machine.step(rid, W)
                if diag is None:
                    built += 1
                    assert assert_letter_tuples(out) == assert_letter_tuples(machine.apply(rid, W))
        assert built > len(words)
        assert machine._part_memo
        for parts in machine._part_memo.values():
            assert type(parts) is tuple and len(parts) == 2
            assert all(type(part) is tuple for part in parts)

    def test_runs(self, hw, machine_words):
        machine, _ = machine_words
        rng = random.Random(29)
        for _ in range(3):
            W, h = choreography(hw, rng, machine.flavor)
            trace = machine.run(W, h)
            assert trace.ok, trace.failure
            for U in trace.words:
                assert_letter_tuples(U)

    def test_listed_words(self, machine_words):
        machine, words = machine_words
        listed = 0
        for W in words:
            for rid, out in machine.applicable_rules(W):
                assert_letter_tuples(out)
                for reach in (None, 2):
                    for _, nxt in machine.applicable_rules(out, reach, (rid.inverse, W)):
                        listed += 1
                        assert_letter_tuples(nxt)
        assert listed > len(words)

    def test_search_traces(self, hw, machine_words):
        machine, _ = machine_words
        rng = random.Random(31)
        for _ in range(3):
            W, h = choreography(hw, rng, machine.flavor)
            trace = accept_bfs(machine, machine.run(W, h[:3]).final, 3)
            assert trace is not None and trace.ok
            for U in trace.words:
                assert_letter_tuples(U)

    def test_inverse_recoordinated_and_pickled_words(self, hw, machine_words):
        machine, words = machine_words
        for W in words:
            assert assert_letter_tuples(W.inverse()).inverse() == W
            assert_letter_tuples(W.with_coord(hw, Coord(1, 2)))
            assert assert_letter_tuples(pickle.loads(pickle.dumps(W))) == W
