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
    random_reduced,
)
from smkit.derive import bar_conjugated_insertion, insertion_history
from smkit.hardware import (
    COORD_E1, AdmissibleError, AdmissibleWord, BaseLetter, EEPresentation, Hardware,
)
from smkit.smachine import Diagnosis, Machine
from smkit.words import (
    TRANSITION_FAMILIES, Coord, RuleId, Word, _canonical_orientation, _matchings, _nesting,
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
    st = hw.state("L", 1, coord)
    zone = hw.zone_after((st.base, -1))
    letters = ((st, -1),) + tuple((hw.tape(i, zone), s) for i, s in inner) + ((st, 1),)
    return hw.parse_admissible(Word(letters, reduce=False), "strict")


def ee_with_square():
    """The sample presentation plus the relators a1 a1 (r3) and its primed
    a2 a2 (r4): t34(r3) attaches a1 a1 with a repeated letter."""
    return EEPresentation(m=2, mbar=2, involution=(2, 1),
                          relators=((), (1, 2), (2, 1), (1, 1), (2, 2)))


class TestJunctions:
    """t34(r) on a fold-back L1^-1 w L1 at (r,3) turns the K1-zone word w
    into r^-1 w r: the attached r^-1 is negative, the sector positive."""

    def step_both(self, monkeypatch, hw, W, rid):
        """Machine.step against the reference, with the number of full
        validations the step ran: none on these trusted words."""
        machine = Machine(hw, "strict")
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

    def test_step_and_inverse_on_the_fold(self, hw, strict):
        W = fold_word(hw, Coord(1, 3), ((1, 1), (2, 1), (2, 1)))
        out, diag = strict.step(RuleId("34", 1, None), W)
        assert diag is None
        assert strict.step(RuleId("34", 1, None, False, -1), out) == (W, None)


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
                                                    + (Word(((hw.tape(1, B("K", 1)), 1),)),)))

    def test_unreduced_inner_word_is_not_trusted(self, hw, strict):
        W = hw.sigma_w(())
        a1 = hw.tape(1, B("P", 1))
        loop = Word(((a1, 1), (a1, -1)), reduce=False)  # in the unsigned P1-zone
        U = AdmissibleWord("strict", W.states, W.inners[:2] + (loop,) + W.inners[3:])
        hw.validate(U)
        assert not hw.trusts(U)
        rid = RuleId("1", None, 2)
        got = strict.step(rid, U)
        assert got == oracles.step(strict, rid, U) and hw.trusts(got[0])
        assert got[0].inners[2] == Word(((hw.tape(2, B("P", 1)), -1),))

    def test_pickle_and_copy_drop_the_record(self, hw, strict):
        import copy
        import pickle
        W = strict.apply(RuleId("1", None, 1), hw.sigma_w(((2, 1),)))
        assert hw.trusts(W)
        for U in (pickle.loads(pickle.dumps(W)), copy.copy(W), copy.deepcopy(W)):
            assert U == W and not hw.trusts(U)
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
