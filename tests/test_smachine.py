import re

import pytest

from genwords import (
    applicable_rules, random_bar_word, random_positive, random_sigma_word,
    random_walk,
)
import smkit.smachine
from smkit.hardware import BaseLetter
from smkit.smachine import (
    NotApplicable, brief_history, diff, history_text, inverse_history,
    is_historical_form, is_reduced_history, parse_history, prefix,
    reduce_history, s34_count,
)
from smkit.words import (
    AGE_FAMILIES, FAMILIES, KINDS, Coord, RuleId, Word, parse_rule, parse_word, rule_token,
)

B = BaseLetter


def docstring_table():
    """Family -> (source, target, locks, action) read off the table in the
    smachine module docstring; a coordinate is (relator letter, age) and the
    action is None (a transition), "relator" or (kind, sign of the letter
    attached before it)."""
    row = re.compile(r"\s+t(\d+)\([er](?:,i)?\)\s+(.+?)\s+locks ([KLPR,]+)"
                     r"\s+\(([er]),(\d)\)\s+->\s+\(([er]),(\d)\)$")
    table = {}
    for line in smkit.smachine.__doc__.splitlines():
        m = row.match(line)
        if m is None:
            continue
        family, action, locks, sr, sa, dr, da = m.groups()
        if action == "transition":
            act = None
        elif action.startswith("L -> r L"):
            act = "relator"
        else:
            kind, rest = action.split(" -> ")
            act = (kind, 1 if rest == f"a_i {kind} a_i^-1" else -1)
            assert rest in (f"a_i {kind} a_i^-1", f"a_i^-1 {kind} a_i"), line
        table[family] = ((sr, int(sa)), (dr, int(da)), frozenset(locks.split(",")), act)
    return table


class TestBuild:
    def test_rule_count_formula(self, ee, strict, bar, mixed):
        e, mbar = len(ee.relators), ee.mbar
        expected = mbar * (1 + 4 * e) + 3 * e + 2 * (e - 1)
        assert expected == 39
        assert len(strict.rules) == expected
        assert len(bar.rules) == expected
        assert len(mixed.rules) == 2 * expected

    def test_rule_table_shapes(self, strict):
        rule = strict.rule(parse_rule("t2(r1,1)"))
        assert rule.v_spec("L") == ((1, 1),) and rule.u_spec("L") == ((1, -1),)
        assert rule.locks == frozenset("R")
        assert rule.v_spec("R") == () and rule.v_spec("K") == ()
        rule34 = strict.rule(parse_rule("t34(r2)"))
        assert rule34.v_spec("L") == ((2, 1), (1, 1))  # r2 = a2 a1
        assert rule34.locks == frozenset("LP")

    def test_docstring_table_names_every_family(self):
        assert tuple(docstring_table()) == FAMILIES

    @pytest.mark.parametrize("bar", (False, True), ids=("plain", "bar"))
    @pytest.mark.parametrize("family", FAMILIES)
    def test_rule_matches_docstring_table(self, ee, mixed, family, bar):
        src, dst, locks, act = docstring_table()[family]
        rid = RuleId(family, None if family == "1" else 2,
                     2 if family in AGE_FAMILIES else None, bar)

        def coord(rel, age):
            return Coord(None if rel == "e" else rid.r, age)

        assert mixed.coords_of(rid) == (coord(*src), coord(*dst))
        assert mixed.coords_of(rid.inverse) == (coord(*dst), coord(*src))
        rule = mixed.rule(rid)
        assert rule.locks == locks
        for kind in KINDS:
            if act == "relator" and kind == "L":
                want = (tuple((a, 1) for a in ee.relator(rid.r)), ())
            elif act is not None and kind == act[0]:
                want = (((rid.i, act[1]),), ((rid.i, -act[1]),))
            else:
                want = ((), ())
            assert (rule.v_spec(kind), rule.u_spec(kind)) == want, kind

    def test_rule_tokens_round_trip(self, mixed):
        for rid in mixed.rule_ids():
            for signed in (rid, rid.inverse):
                assert parse_rule(rule_token(signed)) is signed

    def test_inverses_available(self, strict):
        for rid in strict.rule_ids():
            assert strict.rule(rid.inverse) is not None

    def test_coordinate_transitions(self, strict):
        assert strict.coords_of(parse_rule("t12(r1)")) == (Coord(None, 1), Coord(1, 2))
        assert strict.coords_of(parse_rule("t51(r2)")) == (Coord(2, 5), Coord(None, 1))
        assert strict.coords_of(parse_rule("t12(r1)^-1")) == (Coord(1, 2), Coord(None, 1))


class TestApplicability:
    def test_t12_on_sigma_w(self, hw, strict):
        W = hw.sigma_w(((1, 1), (2, 1)))
        assert strict.applicable(parse_rule("t12(r1)"), W) is None

    def test_lock_diagnosis_per_spec_example(self, hw, strict):
        W = hw.sigma_w(((1, 1),))
        W = strict.apply(parse_rule("t12(r1)"), W)
        assert strict.applicable(parse_rule("t23(r1)"), W) is None
        W = strict.apply(parse_rule("t23(r1)"), W)
        diag = strict.applicable(parse_rule("t34(r1)"), W)
        assert diag is not None and diag.code == "LockedSectorNonEmpty"
        assert "P" in diag.detail

    def test_coord_mismatch(self, hw, strict):
        W = hw.sigma_w(())
        diag = strict.applicable(parse_rule("t23(r1)"), W)
        assert diag.code == "CoordMismatch"

    def test_t1_backward_motion_is_allowed(self, hw, strict):
        # P-zones are unconstrained, so t1(e,2) applies even when a2 is not
        # the next letter: P just deposits a2^-1 into its zone
        W = hw.sigma_w(((1, 1),))
        assert strict.applicable(parse_rule("t1(e,2)"), W) is None

    def test_result_not_admissible(self, hw, strict):
        # t2(r1,2) would prepend a2^-1 to an L-zone starting with a1,
        # breaking the positivity of the L_j P_j-sectors
        from smkit.words import Word
        body = hw.sigma_four((), ((1, 1),), (), (), r=1, i=2)
        W = hw.parse_admissible(
            Word(body.letters + ((hw.state("K", 1, Coord(1, 2)), 1),), reduce=False),
            "strict")
        diag = strict.applicable(parse_rule("t2(r1,2)"), W)
        assert diag is not None and diag.code == "ResultNotAdmissible"
        assert strict.applicable(parse_rule("t2(r1,1)"), W) is None

    def test_fold_back_in_locked_zone(self, hw, strict):
        w = parse_word("K1(e,1) a1(K1) K1(e,1)^-1")
        W = hw.parse_admissible(w, "strict")
        diag = strict.applicable(parse_rule("t1(e,1)"), W)
        assert diag.code == "ForbiddenSectorShape"

    def test_flavor_mismatch(self, hw, mixed):
        W = hw.sigma_w(((1, 1),))
        Wm = hw.parse_admissible(W.flat(), "mixed")
        diag = mixed.applicable(parse_rule("~t2(e,1)"), Wm)
        assert diag.code in ("CoordMismatch", "FlavorMismatch")
        Wb = hw.parse_admissible(hw.sigma_w(((1, 1),), flavor="bar").flat(), "mixed")
        assert mixed.applicable(parse_rule("~t1(e,1)^-1"), Wb) is None


class TestApply:
    def test_t1_moves_P(self, hw, strict):
        W = hw.sigma_w(((1, 1),))
        W2 = strict.apply(parse_rule("t1(e,1)"), W)
        assert W2.text().startswith("K1(e,1) L1(e,1) a1(L1) P1(e,1) R1(e,1)")

    def test_t12_changes_coordinates_only(self, hw, strict):
        W = hw.sigma_w(((1, 1), (2, 1)))
        W2 = strict.apply(parse_rule("t12(r2)"), W)
        assert W2.coord == Coord(2, 2)
        assert [w == () for w in W2.inners] == [w == () for w in W.inners]

    def test_apply_then_inverse(self, hw, strict, rng):
        for _ in range(40):
            W = random_sigma_word(hw, rng)
            for rid in applicable_rules(strict, W):
                W2 = strict.apply(rid, W)
                assert strict.apply(rid.inverse, W2) == W
                assert W2.base() == W.base()

    def test_not_applicable_raises(self, hw, strict):
        with pytest.raises(NotApplicable):
            strict.apply(parse_rule("t23(r1)"), hw.sigma_w(()))

    def test_run_trace(self, hw, strict):
        W = hw.sigma_w(())
        trace = strict.run(W, parse_history("t12(r1)\nt23(r1)\nt34(r1)"))
        assert trace.ok and len(trace.words) == 4
        bad = strict.run(W, parse_history("t23(r1)"))
        assert not bad.ok and bad.failure[0] == 0
        assert bad.failure[1].code == "CoordMismatch"


class TestMixedFlavor:
    def test_plain_rules_act_without_positivity(self, hw, mixed, strict):
        # the combined machine drops the positivity requirement for plain
        # rules: an L-zone starting with a2 still admits t2(r1,1)^-1 pumping
        from smkit.words import Word
        body = hw.sigma_four((), ((2, 1),), (), (), r=1, i=2)
        flat = Word(body.letters + ((hw.state("K", 1, Coord(1, 2)), 1),), reduce=False)
        Ws = hw.parse_admissible(flat, "strict")
        Wm = hw.parse_admissible(flat, "mixed")
        rid = parse_rule("t2(r1,1)")
        assert strict.applicable(rid, Ws).code == "ResultNotAdmissible"
        assert mixed.applicable(rid, Wm) is None
        W2 = mixed.apply(rid, Wm)
        assert any(s < 0 for _, s in W2.inners[1])

    def test_union_rule_table(self, mixed):
        assert mixed.rule(parse_rule("t2(r1,1)")) is not None
        assert mixed.rule(parse_rule("~t2(r1,1)")) is not None


class TestHistories:
    def test_brief_history(self):
        h = parse_history("t12(r1)\nt2(r1,1)\nt2(r1,2)\nt23(r1)")
        assert brief_history(h) == ("(12)", "(2)", "(23)")

    def test_brief_merges_signs_and_bars(self):
        h = parse_history("t2(r1,1)\nt2(r1,2)^-1\n~t2(r1,1)")
        assert brief_history(h) == ("(2)",)

    def test_historical_period_accepted(self):
        period = ("(12)", "(2)", "(23)", "(3)", "(34)", "(4)", "(45)", "(5)", "(51)")
        assert is_historical_form(period)
        assert is_historical_form(("(1)",) + period + ("(1)",))
        assert is_historical_form(tuple(reversed(period)))
        assert is_historical_form(period + period)
        assert is_historical_form(period + ("(1)",) + tuple(reversed(period)))

    def test_forbidden_patterns_rejected(self):
        assert not is_historical_form(("(12)", "(2)", "(12)"))
        assert not is_historical_form(("(23)", "(3)", "(23)"))
        assert not is_historical_form(("(2)", "(2)"))
        assert not is_historical_form(("(1)", "(1)"))
        assert not is_historical_form(("(12)", "(3)"))

    def test_truncations_and_junctions(self):
        assert is_historical_form(("(3)", "(34)", "(4)"))
        assert is_historical_form(("(51)", "(51)"))
        assert is_historical_form(("(12)", "(12)"))
        assert is_historical_form(("(51)", "(1)", "(51)"))

    def test_reduce_and_inverse(self):
        h = parse_history("t12(r1)\nt12(r1)^-1\nt1(e,1)")
        assert reduce_history(h) == parse_history("t1(e,1)")
        assert inverse_history(h) == parse_history("t1(e,1)^-1\nt12(r1)\nt12(r1)^-1")
        assert not is_reduced_history(h)

    def test_prefix_and_s34(self):
        h = parse_history("t34(r1)\nt1(e,1)\nt34(r2)^-1")
        assert prefix(h, 2) == h[:2]
        assert s34_count(h, 3) == 2
        with pytest.raises(ValueError):
            prefix(h, 4)

    def test_history_text_round_trip(self, hw, strict, rng):
        W = hw.sigma_w(((1, 1),))
        h, _ = random_walk(strict, W, rng, 6)
        assert parse_history(history_text(h)) == h


class TestDiff:
    def test_sigma_w_diff_zero(self, hw):
        assert diff(hw.sigma_w(((1, 1), (2, 1)))) == 0

    def test_diff_invariance_outside_34(self, hw, strict, rng):
        for _ in range(30):
            W = random_sigma_word(hw, rng)
            h, words = random_walk(strict, W, rng, 8)
            for rid, w1, w2 in zip(h, words, words[1:]):
                if rid.family == "34":
                    assert abs(diff(w2) - diff(w1)) <= hw.ee.c * sum(
                        1 for bl in w1.base() if bl.kind == "L")
                else:
                    assert diff(w2) == diff(w1)


class TestSectorGrowth:
    def test_K_sector_never_grows_from_its_own_side(self, hw, strict):
        # u(K_j, h) and v(K_j, h) vanish: no rule writes next to a K letter
        h = parse_history("t2(r1,1)\nt2(r1,2)")
        u, v = strict.sector_growth(((B("K", 1), 1), (B("L", 1), 1)), h)
        assert u.is_empty() and not v.is_empty()
        h2 = parse_history("t3(r1,1)\nt3(r1,2)")
        u2, v2 = strict.sector_growth(((B("R", 1), 1), (B("K", 2), -1)), h2)
        assert not u2.is_empty() and v2.is_empty()

    def test_matches_run_on_random_contents(self, hw, strict, rng):
        h = parse_history("t2(r1,1)\nt2(r1,2)\nt2(r1,1)^-1")
        sector = ((B("K", 3), 1), (B("L", 3), 1))
        u, v = strict.sector_growth(sector, h)
        for _ in range(20):
            w1 = random_positive(rng, 2, 3)
            W = block_word_with_K_content(hw, w1, Coord(1, 2))
            trace = strict.run(W, h)
            if not trace.ok:
                continue
            inner = trace.final.inners[0]
            expect = u * Word(W.inners[0]) * v
            assert inner == expect.letters

    def test_beta_identity_for_P_sectors(self, hw, strict):
        from smkit.presentation import beta
        h = parse_history("t1(e,1)\nt1(e,2)")
        u, _ = strict.sector_growth(((B("P", 1), 1), (B("R", 1), 1)), h)
        _, v = strict.sector_growth(((B("L", 1), 1), (B("P", 1), 1)), h)
        assert beta(u) == beta(v).inverse()

    def test_locked_zone_rejected(self, hw, strict):
        with pytest.raises(ValueError):
            strict.sector_growth(((B("P", 1), 1), (B("R", 1), 1)),
                                 parse_history("t34(r1)"))


def block_word_with_K_content(hw, w1, coord):
    letters = [(hw.state("K", 3, coord), 1)]
    letters += [(hw.tape(i, B("K", 3)), s) for i, s in w1]
    letters += [(hw.state("L", 3, coord), 1)]
    return hw.parse_admissible(Word(letters, reduce=False), "strict")


class TestBarCopyMoves:
    def test_copy_moves_multiply_sectors_two_sidedly(self, hw, bar, rng):
        # a copy of w in the family-g rules multiplies each zone content on
        # the two sides by copies of w with exponents in {-1, 0, 1}, the
        # exponents depending only on the zone, never on the content
        from smkit.derive import copy_history
        for g, locked in (("1", "KR"), ("2", "R"), ("3", "L"), ("4", "P"), ("5", "K")):
            r = None if g == "1" else 1
            coord = Coord(r, int(g))
            w = tuple((rng.randrange(1, 3), rng.choice((1, -1))) for _ in range(2))
            h = copy_history(g, w, r=r)
            valid = {}  # zone -> set of (eps, delta) exponent pairs that fit
            for trial in range(2):
                W = random_bar_word(hw, rng, maxlen=2, coord=coord,
                                    empty_kinds=locked)
                trace = bar.run(W, h)
                assert trace.ok, (g, trace.failure)
                for k in range(len(W.inners)):
                    (st, s), _, _ = W.sector(k)
                    zone = hw.zone_after((st.base, s))
                    if zone.j == 1:
                        continue
                    old, new = Word(W.inners[k]), Word(trace.final.inners[k])
                    if s < 0:  # compare in the zone's canonical direction
                        old, new = old.inverse(), new.inverse()
                    combos = set()
                    # for the leftward families the copy accumulates in
                    # reverse order, so the multiplier is rev(w)
                    for base in (w, tuple(reversed(w))):
                        cop = Word(hw.tape_word(base, zone, True))
                        for eps in (-1, 0, 1):
                            for dlt in (-1, 0, 1):
                                a = {0: Word(), 1: cop, -1: cop.inverse()}[eps]
                                b = {0: Word(), 1: cop, -1: cop.inverse()}[dlt]
                                if a * old * b == new:
                                    combos.add((base, eps, dlt))
                    assert combos, (g, zone, old, new)
                    key = zone
                    valid[key] = valid.get(key, combos) & combos
                    assert valid[key], (g, zone)
