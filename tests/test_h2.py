import pytest

import oracles
from oracles import canonical_runs_of_cyclic, x_conjugacy_closure
from smkit.h2 import (
    CertificateError, RewriteCertificate, Step, apply_step, are_related,
    is_fourth_power_product, is_uniform, run_of, word_of, x_flank,
    x_words_conjugate, zone_components,
)
from smkit.hardware import BaseLetter, Hardware, PositivityViolation
from smkit.presentation import PresentationError
from smkit.words import Coord, CyclicWord, Word, X, parse_rule, parse_word

B = BaseLetter


def xw(hw, zone, rule, *entries):
    """Entry list of x-letters over one zone: entries are (index, exp)."""
    rid = parse_rule(rule)
    return [(X(hw.tape(i, zone), rid), e) for i, e in entries]


def cyclic(entries):
    return CyclicWord(word_of(entries).letters)


def _literal_apply(step, before_runs):
    """Apply a batched step as |count| single relator applications on the
    fully expanded letter word of the two runs it touches."""
    from smkit.hardware import BaseLetter
    from smkit.words import State, Tape
    letters = list(word_of(before_runs).letters)
    anchor = next(l for l in letters if not isinstance(l[0], X))
    for _ in range(abs(step.count)):
        t = letters.index(anchor)
        if step.kind == "ax_r":
            quad = letters[t + 1:t + 5]
            assert len(set(quad)) == 1
            letters = letters[:t] + [quad[0]] + [anchor] + letters[t + 5:]
        else:
            quad = letters[t - 4:t]
            assert len(set(quad)) == 1
            moved = quad[0]
            if step.kind == "kx":
                st = anchor[0]
                x = moved[0]
                moved = (X(Tape(x.tape.i, BaseLetter("L", st.j)), x.rule),
                         moved[1])
            letters = letters[:t - 4] + [anchor, moved] + letters[t + 1:]
    return Word(letters, reduce=False)


def make_block(hw, j, w1, w2, w3, w4, coord=Coord(None, 1)):
    from smkit.words import Word
    lL = hw.left_letter_of_L(j)
    states = [lL, (B("L", j), 1), (B("P", j), 1), (B("R", j), 1),
              hw.succ((B("R", j), 1))]
    zones = [B("K", j), B("L", j), B("P", j), B("R", j)]
    letters = []
    for k, y in enumerate(states):
        letters.append((hw.state(y[0].kind, y[0].j, coord), y[1]))
        if k < 4:
            for i, s in (w1, w2, w3, w4)[k]:
                letters.append((hw.tape(i, zones[k]), s))
    return hw.parse_admissible(Word(letters, reduce=False), "strict")


class TestXFlank:
    def test_empty_contents_give_empty_flanks(self, hw):
        W = make_block(hw, 3, (), (), ((1, -1), (2, 1)), ())
        x1, x1p, cert = x_flank(hw, W, parse_rule("t2(r1,1)"))
        assert x1 == () and x1p == () and cert.steps == ()
        cert.replay()

    def test_single_L_zone_letter_gives_exponent_four(self, hw):
        W = make_block(hw, 3, (), ((1, 1),), (), ())
        x1, x1p, cert = x_flank(hw, W, parse_rule("t2(r1,2)"))
        assert len(x1) == 1 and abs(x1[0][1]) == 4
        assert x1[0][0].tape.zone == B("K", 3)
        cert.replay()

    def test_w2_of_length_three(self, hw):
        W = make_block(hw, 2, (), ((1, 1), (2, 1), (1, 1)), (), ())
        x1, x1p, cert = x_flank(hw, W, parse_rule("t4(r2,1)"))
        assert [abs(e) for _, e in x1] == [4, 16, 64]
        cert.replay()

    def test_exponent_bound_fuzz(self, hw, rng):
        for _ in range(60):
            j = rng.randrange(1, 9)
            lens = [rng.randrange(0, 4) for _ in range(3)]
            if sum(lens) > 8:
                continue
            from genwords import random_reduced
            w1 = tuple((rng.randrange(1, 3), 1) for _ in range(lens[0]))
            w2 = tuple((rng.randrange(1, 3), 1) for _ in range(lens[1]))
            w4 = tuple((rng.randrange(1, 3), 1) for _ in range(lens[2]))
            w3 = random_reduced(rng, 2, 2)
            rid = rng.choice([parse_rule("t2(r1,1)"), parse_rule("t4(r2,2)"),
                              parse_rule("t2(r1,1)^-1")])
            W = make_block(hw, j, w1, w2, w3, w4)
            x1, x1p, cert = x_flank(hw, W, rid)
            cert.replay()
            bound = 4 ** (len(w1) + len(w2) + len(w4) + 1)
            assert cert.max_exponent() <= bound
            total = sum(abs(e) for _, e in list(x1) + list(x1p))
            assert total <= bound

    def test_batched_steps_equal_literal_single_applications(self, hw):
        # a Step with count c stands for |c| literal applications of one
        # relator: simulate them letter by letter and compare the outcome
        # of every step with the run-length application
        W = make_block(hw, 1, ((1, 1),), ((2, 1),), (), ((1, 1), (2, 1)))
        rid = parse_rule("t2(r1,1)")
        x1, x1p, cert = x_flank(hw, W, rid)
        cur = list(cert.source)
        for step in cert.steps:
            before = cur[step.pos:step.pos + 2]
            nxt = apply_step(cur, step)
            width = 2 if step.count else 1
            after = nxt[step.pos:step.pos + width]
            assert _literal_apply(step, before) == word_of(after), step
            cur = nxt
        assert tuple(cur) == cert.target
        # erasing the x-letters leaves the tape/state content untouched
        src = word_of(cert.source).project(lambda s: not isinstance(s, X))
        tgt = word_of(cert.target).project(lambda s: not isinstance(s, X))
        assert src == tgt

    def test_positivity_checked(self, hw):
        W = make_block(hw, 3, (), (), ((1, -1),), ())
        x_flank(hw, W, parse_rule("t2(r1,1)"))  # w3 may be negative
        bad = make_block(hw, 3, (), (), (), ())
        with pytest.raises(PositivityViolation):
            x_flank(hw, bad, parse_rule("~t2(r1,1)"))

    def test_bar_tape_letters_out_of_domain(self, hw):
        # x-letters exist only over plain tape letters, so alpha of a
        # fragment with a bar tape letter is undefined
        j, coord = 3, Coord(None, 1)
        states = [hw.left_letter_of_L(j), (B("L", j), 1), (B("P", j), 1),
                  (B("R", j), 1), hw.succ((B("R", j), 1))]
        for pos, kind in ((1, "K"), (2, "L"), (4, "R")):
            letters = [(hw.state(y.kind, y.j, coord), s) for y, s in states]
            letters.insert(pos, (hw.tape(1, B(kind, j), True), 1))
            W = hw.parse_admissible(Word(letters, reduce=False), "mixed")
            with pytest.raises(PresentationError):
                x_flank(hw, W, parse_rule("t2(r1,2)"))

    def test_tampered_certificate_fails(self, hw):
        W = make_block(hw, 3, (), ((1, 1),), (), ())
        x1, x1p, cert = x_flank(hw, W, parse_rule("t2(r1,2)"))
        broken = RewriteCertificate(cert.source, cert.target, cert.steps[:-1])
        with pytest.raises(CertificateError):
            broken.replay()
        if cert.steps:
            s0 = cert.steps[0]
            wrong = RewriteCertificate(cert.source, cert.target,
                                       (Step(s0.kind, s0.pos + 1, s0.count),)
                                       + cert.steps[1:])
            with pytest.raises(CertificateError):
                wrong.replay()


class TestUniformRelated:
    def test_is_uniform(self, hw):
        w = xw(hw, B("L", 2), "t2(r1,1)", (1, 1), (2, 1))
        assert is_uniform(w) == B("L", 2)
        mixed = xw(hw, B("L", 2), "t2(r1,1)", (1, 1)) + \
            xw(hw, B("K", 2), "t2(r1,1)", (2, 1))
        assert is_uniform(mixed) is None
        assert is_uniform([]) is None

    def test_fourth_power_substitution_is_related(self, hw):
        w = xw(hw, B("L", 2), "t2(r1,1)", (1, 2), (2, -1))
        w4 = [(sym, 4 * e) for sym, e in w]
        assert are_related(hw, w, w4)

    def test_zone_shift_related(self, hw):
        w = xw(hw, B("L", 2), "t2(r1,1)", (1, 1), (2, 3))
        shifted = xw(hw, B("K", 2), "t2(r1,1)", (1, 1), (2, 3))
        assert are_related(hw, w, shifted)
        far = xw(hw, B("K", 3), "t2(r1,1)", (1, 1), (2, 3))
        assert are_related(hw, w, far)  # same component, two crossings

    def test_components(self, hw):
        comp = zone_components(hw)
        assert comp[B("L", 2)] == comp[B("K", 2)] == comp[B("K", 3)] == comp[B("L", 3)]
        assert comp[B("R", 1)] == comp[B("R", 2)]
        assert comp[B("R", 1)] != comp[B("L", 1)]
        assert comp[B("L", 1)] == comp[B("K", 1)] == comp[B("K", 8)]
        assert comp[B("P", 1)] != comp[B("P", 2)]

    @pytest.mark.parametrize("n", [8, 10])
    def test_components_built_once(self, ee, n):
        def blocks(comp):
            out = {}
            for z, rep in comp.items():
                out.setdefault(rep, set()).add(z)
            return sorted(sorted(b) for b in out.values())

        hw = Hardware(ee, n)
        comp = zone_components(hw)
        assert zone_components(hw) is comp
        assert blocks(comp) == blocks(oracles.zone_components(hw))
        assert set(comp) == set(oracles.gap_zones(hw))
        with pytest.raises(TypeError):
            comp[B("P", 1)] = B("P", 1)

    def test_component_blocked_at_P(self, hw):
        w = xw(hw, B("L", 2), "t2(r1,1)", (1, 1))
        other = xw(hw, B("R", 2), "t2(r1,1)", (1, 1))
        assert not are_related(hw, w, other)

    def test_rule_and_index_must_match(self, hw):
        w = xw(hw, B("L", 2), "t2(r1,1)", (1, 1))
        assert not are_related(hw, w, xw(hw, B("L", 2), "t2(r1,2)", (1, 1)))
        assert not are_related(hw, w, xw(hw, B("L", 2), "t2(r1,1)", (2, 1)))

    def test_equivalence_relation_fuzz(self, hw, rng):
        zones = [B("L", 2), B("K", 2), B("K", 3), B("L", 3)]
        words = []
        for _ in range(12):
            zone = rng.choice(zones)
            n = rng.randrange(1, 4)
            entries = []
            for _ in range(n):
                i = rng.randrange(1, 3)
                e = rng.choice((1, -1)) * 4 ** rng.randrange(0, 3)
                if entries and entries[-1][0] == i:
                    continue
                entries.append((i, e))
            words.append(xw(hw, zone, "t2(r1,1)", *entries))
        for a in words:
            assert are_related(hw, a, a)
            for b in words:
                assert are_related(hw, a, b) == are_related(hw, b, a)
                for c in words:
                    if are_related(hw, a, b) and are_related(hw, b, c):
                        assert are_related(hw, a, c)


class TestXPowerFacts:
    def test_fourth_power_predicate(self, hw):
        w = xw(hw, B("L", 2), "t2(r1,1)", (1, 4), (2, -8))
        assert is_fourth_power_product(run_of(word_of(w)))
        w2 = xw(hw, B("L", 2), "t2(r1,1)", (1, 4), (2, 3))
        assert not is_fourth_power_product(run_of(word_of(w2)))

    def test_no_free_cancellation_between_flank_pairs(self, hw, rng):
        # U1 x1 y1^-1 U2 y2 x2^-1 never reduces to the empty word when the
        # U's are nonempty products of fourth powers and x != y on each side
        letters = [X(hw.tape(i, B("K", 4)), parse_rule("t4(r1,1)")) for i in (1, 2)]
        for _ in range(300):
            def fourth():
                n = rng.randrange(1, 3)
                entries = []
                for _ in range(n):
                    sym = rng.choice(letters)
                    if entries and entries[-1][0] == sym:
                        continue
                    entries.append((sym, 4 * rng.choice((1, -1))))
                return word_of(entries)

            x1, y1 = letters
            s1, s2 = rng.choice((1, -1)), rng.choice((1, -1))
            w = fourth() * Word(((x1, s1), (y1, -s2))) * fourth() \
                * Word(((y1, s2), (x1, -s1)))
            assert not w.is_empty()

    def test_power_sandwich_pins_the_letter(self, hw, rng):
        # if U is a nonempty power of x and x1 U x2 is a product of fourth
        # powers, then x1 and x2 are powers of x as well
        letters = [X(hw.tape(i, B("K", 4)), parse_rule("t4(r1,1)")) for i in (1, 2)]
        for _ in range(300):
            x = rng.choice(letters)
            U = word_of([(x, rng.choice((1, -1)) * rng.randrange(1, 9))])
            x1 = (rng.choice(letters), rng.choice((1, -1)))
            x2 = (rng.choice(letters), rng.choice((1, -1)))
            w = Word((x1,)) * U * Word((x2,))
            if is_fourth_power_product(run_of(w)) and not w.is_empty():
                assert x1[0] == x and x2[0] == x

    def test_sandwich_fact_fuzz(self, hw, rng):
        # if U and x1 U x2 are products of fourth powers with x1, x2 single
        # letters, then x2 = x1^-1 and U is a power of x1
        letters = [X(hw.tape(i, B("L", 2)), parse_rule("t2(r1,1)")) for i in (1, 2)]
        for _ in range(400):
            n = rng.randrange(1, 4)
            entries = []
            for _ in range(n):
                sym = rng.choice(letters)
                if entries and entries[-1][0] == sym:
                    continue
                entries.append((sym, 4 * rng.choice((1, -1)) * rng.randrange(1, 3)))
            U = word_of(entries)
            x1 = (rng.choice(letters), rng.choice((1, -1)))
            x2 = (rng.choice(letters), rng.choice((1, -1)))
            w = Word((x1,)) * U * Word((x2,))
            runs = run_of(w)
            if is_fourth_power_product(runs) and not U.is_empty():
                assert x2[0] == x1[0] and x2[1] == -x1[1]
                assert len({sym for sym, _ in run_of(U)}) == 1


class TestConjugacy:
    def test_rotation_conjugate(self, hw):
        w = xw(hw, B("L", 2), "t2(r1,1)", (1, 1), (2, 2), (1, -1))
        c1 = cyclic(w)
        rotated = CyclicWord(c1.letters[2:] + c1.letters[:2])
        flag, witness = x_words_conjugate(hw, c1, rotated)
        assert flag and witness == "cyclic permutation"

    def test_uniform_fourth_power_conjugate(self, hw):
        w = xw(hw, B("L", 2), "t2(r1,1)", (1, 1), (2, 1))
        w4 = [(sym, 4 * e) for sym, e in w]
        flag, _ = x_words_conjugate(hw, cyclic(w), cyclic(w4))
        assert flag

    def test_non_conjugate(self, hw):
        w = xw(hw, B("L", 2), "t2(r1,1)", (1, 1), (2, 1))
        v = xw(hw, B("L", 2), "t2(r1,1)", (1, 1), (2, 2))
        flag, witness = x_words_conjugate(hw, cyclic(w), cyclic(v))
        assert not flag and witness is None

    def test_rejects_non_x_letters(self, hw):
        with pytest.raises(ValueError):
            x_words_conjugate(hw, CyclicWord(parse_word("a1(L2)").letters),
                              CyclicWord(parse_word("a1(L2)").letters))
        with pytest.raises(ValueError):
            x_words_conjugate(hw, CyclicWord(()), CyclicWord(()))

    @pytest.mark.parametrize("text, message", (
        ("x(a9(L2),t2(r1,1))", "index exceeds mbar = 2"),
        ("x(a1(L2),t2(r1,3))", "index exceeds mbar = 2"),
        ("x(a1(L12),t2(r1,1))", "zone L12 is beyond N = 8"),
        ("x(a1(L2),t2(r9,1))", "no relator r9"),
        ("x(a0(L2),t2(r1,1))", "index 0 is below 1"),
        ("x(a1(L0),t2(r1,1))", "zone L0 is below block 1"),
        ("x(a1(L2),t2(r0,1))", "no relator r0"),
        ("x(a1(L2),t2(r1,0))", "index 0 is below 1")))
    def test_rejects_letters_that_name_nothing(self, hw, text, message):
        good = CyclicWord(parse_word("x(a1(L2),t2(r1,1))").letters)
        bad = CyclicWord(parse_word(text).letters)
        for w1, w2 in ((good, bad), (bad, good)):
            with pytest.raises(ValueError, match=message):
                x_words_conjugate(hw, w1, w2)

    def test_agrees_with_closure_oracle(self, hw, rng):
        # soundness and completeness against the brute-force closure of the
        # elementary conjugation moves
        base_words = []
        for entries in [((1, 1),), ((1, 1), (2, 1)), ((1, 2), (2, -1)),
                        ((1, 4),), ((2, 1), (1, 1), (2, -1))]:
            base_words.append(cyclic(xw(hw, B("L", 2), "t2(r1,1)", *entries)))
        closures = {w: x_conjugacy_closure(hw, w, 6) for w in base_words}
        for w in base_words:
            for v in base_words:
                flag, _ = x_words_conjugate(hw, w, v)
                oracle = canonical_runs_of_cyclic(v) in closures[w] or \
                    canonical_runs_of_cyclic(w) in closures[v]
                assert flag == oracle, (w, v)
