"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line when its criterion holds at the stated
tolerance; run with `pytest -s tests/test_acceptance.py` to see them.
The module is marked ``slow``: `pytest -m "not slow"` leaves it out.
"""

import itertools
import time

import pytest

from genwords import (
    applicable_rules, block_word, random_bar_word, random_positive,
    random_reduced, random_sigma_word, random_walk,
)
from oracles import (
    canonical_runs_of_cyclic, has_minus_pairing, noncrossing_inverse_matchings,
    x_conjugacy_closure,
)
from smkit.bands import trapezium, verify_trapezium
from smkit.cli import _rules_presentation
from smkit.derive import (
    LENGTH_C, LENGTH_L, bar_conjugated_insertion, insertion_history,
)
from smkit.h2 import x_flank, x_words_conjugate
from smkit.hardware import BaseLetter
from smkit.presentation import delta, emit
from smkit.smachine import brief_history, is_historical_form
from smkit.words import (
    Coord, CyclicWord, Word, X, cyclic_reduce, enumerate_pairings,
    find_minus_pairing, is_dyck, parse_rule,
)

pytestmark = pytest.mark.slow

B = BaseLetter


def ok(line):
    print(f"ACCEPT {line}: PASS")


def all_positive_words(mbar, maxlen):
    out = [()]
    for n in range(1, maxlen + 1):
        out += [tuple((i, 1) for i in combo)
                for combo in itertools.product(range(1, mbar + 1), repeat=n)]
    return out


def test_c1_insertion_simulation(hw, strict):
    cases = 0
    t0 = time.time()
    worst = 0.0
    for w in all_positive_words(hw.ee.mbar, 4):
        for pos in range(len(w) + 1):
            for r in (1, 2):
                t1 = time.time()
                rel = tuple((a, 1) for a in hw.ee.relator(r))
                wp = w[:pos] + rel + w[pos:]
                h = insertion_history(hw, w, pos, r)
                trace = strict.run(hw.sigma_w(w), h)
                assert trace.ok and trace.final == hw.sigma_w(wp)
                assert len(h) <= LENGTH_L * (len(w) + len(wp)) + LENGTH_C
                worst = max(worst, time.time() - t1)
                cases += 1
    assert worst <= 1.0, f"slowest case took {worst:.2f}s"
    ok(f"C1 insertion simulation ({cases} cases, "
       f"|h| <= {LENGTH_L}(|w|+|w'|)+{LENGTH_C}, {time.time() - t0:.1f}s)")


def test_c2_bar_conjugated_insertion(hw, bar, rng):
    worst = 0.0
    for _ in range(200):
        t1 = time.time()
        w = random_reduced(rng, hw.ee.mbar, 3)
        u = random_reduced(rng, hw.ee.mbar, 3)
        r = rng.choice((1, 2))
        rel = tuple((a, 1) for a in hw.ee.relator(r))
        conj = w + u + rel + tuple((i, -s) for i, s in reversed(u))
        wp = []
        for i, s in conj:
            if wp and wp[-1] == (i, -s):
                wp.pop()
            else:
                wp.append((i, s))
        h = bar_conjugated_insertion(hw, w, u, r)
        trace = bar.run(hw.sigma_w(w, flavor="bar"), h)
        assert trace.ok, trace.failure
        assert trace.final == hw.sigma_w(tuple(wp), flavor="bar")
        worst = max(worst, time.time() - t1)
    assert worst <= 1.0
    ok(f"C2 bar conjugated insertion (200 cases, worst {worst * 1000:.0f}ms)")


def test_c3_rule_calculus(hw, strict, bar, mixed, rng):
    pool = []
    for machine, flavor in ((strict, "strict"), (bar, "bar"), (mixed, "mixed")):
        for w in ((), ((1, 1),), ((1, 1), (2, 1))):
            W = hw.sigma_w(w, flavor="strict" if flavor == "strict" else "bar")
            if flavor == "mixed":
                W = hw.parse_admissible(W.flat(), "mixed")
            pool.append((machine, W))
    for _ in range(6):
        j = rng.randrange(1, hw.N + 1)
        pool.append((strict, block_word(hw, rng, j, Coord(None, 1))))
    checked = 0
    while checked < 10_000:
        machine, W = pool[rng.randrange(len(pool))]
        cands = applicable_rules(machine, W)
        if not cands:
            continue
        rid = cands[rng.randrange(len(cands))]
        W2 = machine._apply(rid, W)
        assert machine.apply(rid.inverse, W2) == W, (rid, W.text())
        assert W2.base() == W.base()
        assert W2.signed_base() == W.signed_base()
        checked += 1
        if len(pool) < 160:
            pool.append((machine, W2))
        else:
            pool[rng.randrange(len(pool))] = (machine, W2)
    ok("C3 rule calculus (10000 applicable pairs, apply/inverse identity "
       "and base preservation)")


def test_c4_compiler_soundness(hw):
    t0 = time.time()
    pres = emit(hw)
    elapsed = time.time() - t0
    assert elapsed <= 5.0, f"emission took {elapsed:.1f}s"
    e, mbar, N = len(hw.ee.relators), hw.ee.mbar, hw.N
    nrules = mbar * (1 + 4 * e) + 3 * e + 2 * (e - 1)
    unlocked = {"1": 2, "12": 2, "2": 3, "23": 2, "3": 3,
                "34": 2, "4": 3, "45": 2, "5": 3, "51": 2}
    per_family = {"1": mbar, "12": e - 1, "2": e * mbar, "23": e, "3": e * mbar,
                  "34": e - 1, "4": e * mbar, "45": e, "5": e * mbar, "51": e}
    assert sum(per_family.values()) == nrules
    derived = {
        "main": nrules * 4 * N,
        "theta_a": sum(per_family[f] * unlocked[f] * N * mbar for f in per_family),
        "a_x": nrules * 3 * N * mbar * mbar,
        "k_x": nrules * 2 * N * mbar * e * 5,
        "bar_main": nrules * 4 * N,
        "bar_theta_a": sum(per_family[f] * unlocked[f] * (N - 1) * mbar
                           for f in per_family),
        "hub": 1,
    }
    assert pres.stats() == derived
    import json
    import os
    from conftest import GOLDEN
    with open(os.path.join(GOLDEN, "presentation_n8.json")) as f:
        assert derived == json.load(f)["stats"]
    exceptional = 0
    for rel in pres.relations:
        core = cyclic_reduce(delta(Word(rel.letters, reduce=False)))[1]
        main34L = rel.kind in ("main", "bar_main") and rel.rule is not None \
            and rel.rule.family == "34" and rel.at.kind == "L" \
            and not (rel.kind == "bar_main" and rel.at.j == 1)
        if main34L:
            expect = Word((f"a{a}", 1) for a in hw.ee.relator(rel.rule.r))
            assert core in (cyclic_reduce(expect)[1],
                            cyclic_reduce(expect.inverse())[1])
            exceptional += 1
        else:
            assert len(core) == 0, rel
    assert exceptional == (e - 1) * (2 * N - 1)  # plain N + bar N-1 per r
    ok(f"C4 compiler soundness ({sum(derived.values())} relators, "
       f"emission {elapsed:.1f}s, delta images exact)")


def test_c5_bar_trapezia(hw, mixed, pres, rng):
    built = 0
    attempts = 0
    while built < 500:
        attempts += 1
        assert attempts < 5000, "generator starving"
        W0 = random_bar_word(hw, rng, maxlen=1)
        Wm = hw.parse_admissible(W0.flat(), "mixed")
        h, words = random_walk(mixed, Wm, rng, rng.randrange(1, 7),
                               allow=lambda r: r.bar)
        if not h:
            continue
        trap = trapezium(pres, mixed, Wm, h)
        assert verify_trapezium(trap, pres, mixed) == []
        # as `smkit trapezium --verify` checks it: against its rules' relations
        assert verify_trapezium(trap, _rules_presentation(mixed, h), mixed) == []
        trace = mixed.run(Wm, h)
        assert trace.ok
        for i, band in enumerate(trap.bands):
            assert band.bottom.letters == trace.words[i].flat()
            assert band.top.letters == trace.words[i + 1].flat()
        built += 1
    ok("C5 bar trapezia (500 verified, side projections replay the "
       "computation letter for letter)")


def _xflank_word(hw, rng, l1, l2, l4):
    j = rng.randrange(1, hw.N + 1)
    from smkit.words import Word
    lL = hw.left_letter_of_L(j)
    states = [lL, (B("L", j), 1), (B("P", j), 1), (B("R", j), 1),
              hw.succ((B("R", j), 1))]
    fills = [tuple((rng.randrange(1, 3), 1) for _ in range(l1)),
             tuple((rng.randrange(1, 3), 1) for _ in range(l2)),
             random_reduced(rng, 2, 2),
             tuple((rng.randrange(1, 3), 1) for _ in range(l4))]
    zones = [B("K", j), B("L", j), B("P", j), B("R", j)]
    letters = []
    for k, y in enumerate(states):
        letters.append((hw.state(y[0].kind, y[0].j, Coord(None, 1)), y[1]))
        if k < 4:
            letters += [(hw.tape(i, zones[k]), s) for i, s in fills[k]]
    return hw.parse_admissible(Word(letters, reduce=False), "strict")


def test_c6_x_flank_certificates(hw, rng):
    rules = [parse_rule("t2(r1,1)"), parse_rule("t4(r2,2)"),
             parse_rule("t2(r1,2)^-1"), parse_rule("t1(e,1)")]
    cases = 0
    for l1 in range(0, 4):
        for l2 in range(0, 4):
            for l4 in range(0, 4):
                if l1 + l2 + l4 > 8:
                    continue
                for _ in range(2):
                    W = _xflank_word(hw, rng, l1, l2, l4)
                    rid = rules[rng.randrange(len(rules))]
                    x1, x1p, cert = x_flank(hw, W, rid)
                    cert.replay()
                    bound = 4 ** (l1 + l2 + l4 + 1)
                    assert cert.max_exponent() <= bound
                    assert sum(abs(e) for _, e in list(x1) + list(x1p)) <= bound
                    cases += 1
    # the conjugacy decision against the bounded closure oracle on all uniform
    # words of length <= 4 over a two-letter zone alphabet
    letters = [(X(hw.tape(i, B("L", 2)), parse_rule("t2(r1,1)")), s)
               for i in (1, 2) for s in (1, -1)]
    words = set()
    for n in range(1, 5):
        for combo in itertools.product(letters, repeat=n):
            w = CyclicWord(combo)
            core = cyclic_reduce(Word(w.letters))[1]
            if len(core) == n:
                words.add(w)
    words = sorted(words, key=lambda w: (len(w), str(w.letters)))
    closures = {w: x_conjugacy_closure(hw, w, 6) for w in words}
    compared = 0
    for w in words:
        for v in words:
            flag, _ = x_words_conjugate(hw, w, v)
            oracle = canonical_runs_of_cyclic(v) in closures[w] or \
                canonical_runs_of_cyclic(w) in closures[v]
            assert flag == oracle, (w, v)
            compared += 1
    ok(f"C6 x-flank certificates ({cases} replayed within the 4^(s+1) bound; "
       f"conjugacy agrees with the closure oracle on {compared} pairs)")


def test_c7_combinatorial_laws(hw, strict, bar, mixed, rng):
    # conservation and per-sector monotonicity on lL_j L_j P_j bases
    checked = 0
    while checked < 1000:
        g = rng.choice("2345")
        j = rng.randrange(1, hw.N + 1)
        coord = Coord(rng.choice((1, 2)), int(g))
        W = _lLP_word(hw, rng, j, coord)
        fam = g
        h, words = random_walk(strict, W, rng, 6,
                               allow=lambda r: r.family == fam)
        lengths = [(len(w.inners[0]), len(w.inners[1])) for w in words]
        total = {a + b for a, b in lengths}
        assert len(total) == 1
        for k in (0, 1):
            seq = [p[k] for p in lengths]
            assert seq == sorted(seq) or seq == sorted(seq, reverse=True)
        checked += 1
    # height bound on active single-sector computations
    cfgs = [("2", B("L", 2), "strict"), ("2", B("L", 5), "bar"),
            ("1", B("P", 3), "strict"), ("3", B("R", 4), "strict"),
            ("4", B("L", 7), "bar")]
    for _ in range(1000):
        g, zone, flavor = cfgs[rng.randrange(len(cfgs))]
        machine = strict if flavor == "strict" else bar
        coord = Coord(None if g == "1" else 1, int(g))
        U = _sector_word(hw, rng, zone, coord, flavor)
        fam = g
        h, words = random_walk(machine, U, rng, rng.randrange(1, 8),
                               allow=lambda r: r.family == fam)
        V = words[-1]
        assert len(h) <= len(U.inners[0]) + len(V.inners[0])
    # forbidden (w)(w')(w) brief-history patterns over locked/active pairs
    locked_by = {"K": {"1", "12", "45", "5", "51"}, "L": {"23", "3", "34"},
                 "P": {"34", "4", "45"}, "R": {"1", "12", "2", "23", "51"}}
    active_on = {"K": {"2", "4", "34"}, "L": {"1", "2", "4"},
                 "P": {"1", "3", "5"}, "R": {"3", "5"}}
    checked3 = 0
    while checked3 < 1000:
        zone = rng.choice([B("K", 3), B("L", 4), B("P", 2), B("R", 6)])
        U = _sector_word(hw, rng, zone, Coord(None, 1), "strict")
        h, _ = random_walk(strict, U, rng, 10)
        br = brief_history(h)
        for om in locked_by[zone.kind]:
            for om2 in active_on[zone.kind]:
                pat = (f"({om})", f"({om2})", f"({om})")
                for k in range(len(br) - 2):
                    assert br[k:k + 3] != pat, (zone, br)
        checked3 += 1
    # brief histories of standard-base computations factor into historical
    # periods; the tape projection is invariant stepwise
    checked4 = 0
    while checked4 < 1000:
        W = random_sigma_word(hw, rng, maxlen=2)
        h, words = random_walk(strict, W, rng, rng.randrange(1, 9))
        assert is_historical_form(brief_history(h)), brief_history(h)
        for rid, w1, w2 in zip(h, words, words[1:]):
            d1, d2 = delta(w1.flat()), delta(w2.flat())
            if rid.family != "34":
                assert d1 == d2
            else:
                expect = _delta_with_insertions(hw, w1, rid)
                assert d2 == expect
        checked4 += 1
    ok("C7 combinatorial laws (conservation, height bound, forbidden "
       "patterns, historical form, stepwise delta invariance; 1000 each)")


def _lLP_word(hw, rng, j, coord):
    from smkit.words import Word
    lL = hw.left_letter_of_L(j)
    states = [lL, (B("L", j), 1), (B("P", j), 1)]
    zones = [B("K", j), B("L", j)]
    letters = []
    for k, y in enumerate(states):
        letters.append((hw.state(y[0].kind, y[0].j, coord), y[1]))
        if k < 2:
            letters += [(hw.tape(i, zones[k]), 1)
                        for i, _ in random_positive(rng, 2, 3)]
    return hw.parse_admissible(Word(letters, reduce=False), "strict")


def _sector_word(hw, rng, zone, coord, flavor):
    from smkit.words import Word
    y1, y2 = hw.zone_flanks(zone)
    letters = [(hw.state(y1[0].kind, y1[0].j, coord, flavor == "bar"), y1[1])]
    if flavor == "strict" and zone.kind != "P":
        content = random_positive(rng, 2, 3)
    else:
        content = random_reduced(rng, 2, 3)
    letters += [(hw.tape(i, zone, flavor == "bar"), s) for i, s in content]
    letters += [(hw.state(y2[0].kind, y2[0].j, coord, flavor == "bar"), y2[1])]
    return hw.parse_admissible(Word(letters, reduce=False), flavor)


def _delta_with_insertions(hw, W, rid):
    rel = hw.ee.relator(rid.r)
    rimg = Word((f"a{a}", 1) for a in rel)
    if rid.sign < 0:
        rimg = rimg.inverse()
    out = []
    for sym, s in W.flat():
        from smkit.words import Tape, State
        if isinstance(sym, State) and sym.kind == "L":
            if s > 0:
                out += list(rimg.letters)
            else:
                pass
        if isinstance(sym, Tape):
            out.append((f"a{sym.i}", s))
        if isinstance(sym, State) and sym.kind == "L" and s < 0:
            out += list(rimg.inverse().letters)
    return Word(out)


def test_c8_dyck_oracle_equivalence():
    t0 = time.time()
    alphabet = [("a", 1), ("a", -1), ("b", 1), ("b", -1)]
    # enumerate linearly trivial words by stack-pruned DFS, then dedupe as
    # cyclic words: every cyclic Dyck word has a linearly trivial rotation
    words = set()

    def grow(stack, word, budget):
        if not stack and word:
            words.add(CyclicWord(tuple(word)))
        if budget == 0:
            return
        for sym, s in alphabet:
            if stack and stack[-1] == (sym, -s):
                stack.pop()
                word.append((sym, s))
                grow(stack, word, budget - 1)
                word.pop()
                stack.append((sym, -s))
            else:
                stack.append((sym, s))
                word.append((sym, s))
                grow(stack, word, budget - 1)
                word.pop()
                stack.pop()

    grow([], [], 10)
    assert all(is_dyck(w) for w in words)
    total_pairings = 0
    minus_found = 0
    for w in sorted(words, key=lambda w: (len(w), str(w.letters))):
        got = {p.matching() for p in enumerate_pairings(w)}
        expect = noncrossing_inverse_matchings(list(w.letters))
        assert got == expect, w
        total_pairings += len(got)
        mine = find_minus_pairing(w)
        assert (mine is not None) == has_minus_pairing(list(w.letters)), w
        if mine is not None:
            minus_found += 1
            n = len(w)
            for k in range(n):
                if n and w[k][1] < 0 and w[(k + 1) % n][1] > 0:
                    assert w[k][0] == w[(k + 1) % n][0]
                    assert (k, (k + 1) % n) in mine.pairs
    elapsed = time.time() - t0
    assert elapsed <= 60.0, f"sweep took {elapsed:.1f}s"
    ok(f"C8 Dyck oracle equivalence ({len(words)} cyclic Dyck words, "
       f"{total_pairings} pairings, {minus_found} minus words, {elapsed:.1f}s)")
