import gc
import random
from dataclasses import fields, replace
from types import SimpleNamespace

import pytest

import oracles
from genwords import random_bar_word, random_walk, tampered_bands, tampered_trapezia
from smkit import bands
from smkit.bands import (
    BandError, Band, Cell, Trapezium, band_text, theta_band, trapezium, trapezium_text,
    verify, verify_band, verify_trapezium,
)
from smkit.cli import _rules_presentation
from smkit.derive import bar_conjugated_insertion
from smkit.hardware import BaseLetter
from smkit.presentation import Presentation, alpha, emit
from smkit.smachine import Machine, NotApplicable
from smkit.words import Coord, State, Word, parse_rule, parse_word, wletter
from test_step import seeded_words

B = BaseLetter


def mixed_word(hw, W):
    flat = W.flat() if hasattr(W, "flat") else W
    return hw.parse_admissible(flat, "mixed")


class TestBarBands:
    def test_t12_band_shape(self, hw, mixed, pres):
        W = mixed_word(hw, hw.sigma_w(((1, 1), (2, 1)), flavor="bar"))
        band = theta_band(pres, mixed, W, parse_rule("~t12(r1)"))
        assert verify_band(band, pres, mixed) == []
        assert band.bottom.letters == W.flat()
        assert band.top.letters == mixed.apply(parse_rule("~t12(r1)"), W).flat()
        k_cells = [c for c in band.cells if c.kind == "bar_main"]
        a_cells = [c for c in band.cells if c.kind == "bar_theta_a"]
        assert len(k_cells) == 33
        # one tape cell per tape letter; the hub-shaped word with empty
        # P-zones would have none
        assert len(a_cells) == sum(len(i) for i in W.inners)

    def test_hub_word_band_has_no_tape_cells(self, hw, mixed, pres):
        W = mixed_word(hw, hw.sigma_w((), flavor="bar"))
        band = theta_band(pres, mixed, W, parse_rule("~t12(r2)"))
        assert [c.kind for c in band.cells] == ["bar_main"] * 33
        assert verify_band(band, pres, mixed) == []

    def test_top_equals_run_result(self, hw, mixed, pres, rng):
        for _ in range(10):
            W = mixed_word(hw, random_bar_word(hw, rng, maxlen=1,
                                               coord=Coord(None, 1),
                                               empty_kinds="KR"))
            for rid in (parse_rule("~t1(e,1)"), parse_rule("~t12(r1)")):
                if mixed.applicable(rid, W) is not None:
                    continue
                band = theta_band(pres, mixed, W, rid)
                assert band.top.letters == mixed.apply(rid, W).flat()
                assert verify_band(band, pres, mixed) == []


class TestStrictBands:
    def test_single_P_cell(self, hw, mixed, pres):
        W = hw.parse_admissible(parse_word("P1(e,1)"), "mixed")
        band = theta_band(pres, mixed, W, parse_rule("t1(e,1)"))
        assert len(band.cells) == 1
        cell = band.cells[0]
        assert cell.kind == "main"
        assert verify_band(band, pres, mixed) == []
        # the boundary is the main relator for (t1(e,1), P_j): the top
        # carries the x-decorated a-letters around P
        from smkit.presentation import normalize_relator
        rel = pres.index()[normalize_relator(cell.boundary())]
        assert rel.kind == "main" and rel.at == B("P", 1)
        assert rel.rule == parse_rule("t1(e,1)")

    def test_sigma_band_bottom_is_alpha_image(self, hw, mixed, pres):
        from smkit.presentation import alpha
        W = mixed_word(hw, hw.sigma_w(((1, 1),)))
        rid = parse_rule("t1(e,1)")
        band = theta_band(pres, mixed, W, rid)
        assert band.bottom == alpha(rid, W.flat())
        assert verify_band(band, pres, mixed) == []

    def test_mirror_band(self, hw, mixed, pres):
        W = mixed_word(hw, hw.sigma_w(((1, 1),)))
        rid = parse_rule("t1(e,1)")
        W2 = mixed.apply(rid, W)
        band = theta_band(pres, mixed, W2, rid.inverse)
        assert verify_band(band, pres, mixed) == []
        fwd = theta_band(pres, mixed, W, rid)
        assert band.bottom == fwd.top and band.top == fwd.bottom
        assert band.rid == rid.inverse and band.base == fwd.base
        # cell by cell, upside down
        assert [(c.kind, c.left, c.right, c.top, c.bottom, -c.dir) for c in band.cells] == [
            (c.kind, c.left, c.right, c.bottom, c.top, c.dir) for c in fwd.cells]

    def test_not_applicable_raises(self, hw, mixed, pres):
        W = mixed_word(hw, hw.sigma_w(()))
        with pytest.raises(NotApplicable):
            theta_band(pres, mixed, W, parse_rule("t23(r1)"))


class TestTamper:
    def test_tampered_cell_is_located(self, hw, mixed, pres):
        W = mixed_word(hw, hw.sigma_w(((1, 1),), flavor="bar"))
        band = theta_band(pres, mixed, W, parse_rule("~t12(r1)"))
        c = band.cells[3]
        # a top that gains a letter that does not cancel, a replaced bottom
        for cell in (replace(c, top=c.top * parse_word("~a1(P2)")),
                     replace(c, bottom=parse_word("~a2(P3)"))):
            cells = list(band.cells)
            cells[3] = cell
            broken = Band(band.rid, tuple(cells), band.bottom, band.top, band.base)
            assert "cell 3: boundary is not a relator" in verify_band(broken, pres, mixed), cell

    def test_wrong_kind_reported(self, hw, mixed, pres):
        W = mixed_word(hw, hw.sigma_w((), flavor="bar"))
        band = theta_band(pres, mixed, W, parse_rule("~t12(r1)"))
        cells = list(band.cells)
        c = cells[0]
        cells[0] = Cell("bar_theta_a", c.left, c.right, c.bottom, c.top, c.dir)
        broken = Band(band.rid, tuple(cells), band.bottom, band.top, band.base)
        assert any("kind" in line for line in verify_band(broken, pres, mixed))


def applicable_pairs(mixed, words):
    """(W, signed rule) for every word of words and every rule that applies."""
    return [(W, signed) for W in words for rid in mixed.rules
            for signed in (rid, rid.inverse) if mixed.applicable(signed, W) is None]


class TestOnePassBuild:
    def test_main_cell_tops_match_the_reduced_spelling(self, hw, mixed):
        # The positive band over W (or over W o rid for a negative rule,
        # whose band is its mirror) puts at each state letter st^s a main
        # cell whose top is left st2^s right, freely reduced, alpha-decorated
        # for a plain rule.
        pairs = applicable_pairs(mixed, seeded_words(hw, "mixed"))
        assert {rid.bar for _, rid in pairs} == {False, True}
        assert {rid.sign for _, rid in pairs} == {1, -1}
        for W, rid in pairs:
            band = theta_band(None, mixed, W, rid)
            pos = rid.positive
            rule = mixed.rules[pos]
            base = W if rid.sign > 0 else mixed.apply(rid, W)
            mains = [c for c in band.cells if c.kind in ("main", "bar_main")]
            assert len(mains) == len(base.states)
            for (st, s), cell in zip(base.states, mains):
                left, right = oracles._parts(mixed, rule, 1, st, s)
                st2 = hw.state(st.kind, st.j, rule.dst, pos.bar)
                want = Word(left + ((st2, s),) + right)
                if not pos.bar:
                    want = alpha(pos.inverse, want)
                assert (cell.top if rid.sign > 0 else cell.bottom) == want, (rid, st)

    def test_bands_equal_the_paper_construction(self, hw):
        # every field of every cell, and the band's rule, labels and base,
        # over both signs, plain and bar rules; every band is built on a
        # fresh machine and built again once all are, from the machine's
        # cell cache, which hands back the same cells
        machine = Machine(hw, "mixed")
        pairs = applicable_pairs(machine, seeded_words(hw, "mixed"))
        assert {(rid.bar, rid.sign) for _, rid in pairs} == {
            (False, 1), (False, -1), (True, 1), (True, -1)}
        cold = [theta_band(None, machine, W, rid) for W, rid in pairs]
        for (W, rid), first in zip(pairs, cold):
            again = theta_band(None, machine, W, rid)
            want = oracles.band(machine, W, rid)
            for band in (first, again):
                assert band.cells == want.cells, (W, rid)
                assert (band.rid, band.bottom, band.top, band.base) == (
                    want.rid, want.bottom, want.top, want.base), (W, rid)
            assert all(a is b for a, b in zip(first.cells, again.cells)), (W, rid)


    def test_bar_labels_between_flanks(self, hw):
        # a bar band's labels are spelled from W and W o rid, with the
        # parts rid attaches outside the first and last state letters: sub-
        # words of bar words that start or end at L, P or R letters of
        # blocks j >= 2 have such flanks; each band equals the oracle's
        machine = Machine(hw, "mixed")
        rng = random.Random(12)
        words = []
        for coord in hw.ee.coords():
            flat = random_bar_word(hw, rng, 2, coord).flat()
            at = [k for k, (sym, _) in enumerate(flat)
                  if isinstance(sym, State) and sym.kind in "LPR" and sym.j > 1]
            for _ in range(3):
                i, j = sorted(rng.sample(at, 2))
                words.append(mixed_word(hw, flat[i:j + 1]))
        flanked = 0
        for W, rid in applicable_pairs(machine, words):
            if not rid.bar:
                continue
            band = theta_band(None, machine, W, rid)
            want = oracles.band(machine, W, rid)
            assert band.cells == want.cells, (W.text(), rid)
            assert (band.bottom, band.top) == (want.bottom, want.top), (W.text(), rid)
            src = W if rid.sign > 0 else machine.apply(rid, W)
            (st, s), (st2, s2) = src.states[0], src.states[-1]
            flanked += bool(machine._parts(rid.positive, st.kind, st.j, s)[0]
                            or machine._parts(rid.positive, st2.kind, st2.j, s2)[1])
        assert flanked >= 20


def flavor_letters(machine):
    """(state letters, tape letters) of the words of the machine's flavor."""
    hw = machine.hw
    bars = {"strict": (False,), "bar": (True,), "mixed": (False, True)}[machine.flavor]
    states = {hw.state(kind, j, coord, bar) for bar in bars for coord in hw.ee.coords()
              for kind in "KLPR" for j in range(1, hw.N + 1)}
    # the bar alphabet has no tape letters over the j=1 zones
    tapes = {hw.tape(i, zone, bar) for bar in bars for zone in set(hw.zones)
             for i in range(1, hw.ee.mbar + 1) if not (bar and zone.j == 1)}
    return states, tapes


class TestMachineCellCache:
    """_band_step builds each cell once per Machine and keeps it in
    Machine._cell_memo[signed rule][the letter a cell is drawn on]; cold and
    warm builds are checked against the oracle in TestOnePassBuild."""

    def test_a_rule_and_its_inverse_over_one_word(self, hw):
        # a rule that keeps its coordinate applies both ways to one word, so
        # the two bands read cells under the same state letters
        machine = Machine(hw, "mixed")
        words = seeded_words(hw, "mixed", seed=8)
        both = [(W, rid) for W in words for rid in machine.rules
                if machine.applicable(rid, W) is None
                and machine.applicable(rid.inverse, W) is None]
        assert {rid.bar for _, rid in both} == {False, True}
        for W, rid in both:
            for signed in (rid, rid.inverse):
                band = theta_band(None, machine, W, signed)
                want = oracles.band(machine, W, signed)
                assert band.cells == want.cells, (W, signed)
                assert (band.bottom, band.top) == (want.bottom, want.top), (W, signed)

    @pytest.mark.parametrize("flavor", ["strict", "bar", "mixed"])
    def test_at_most_two_cells_per_letter(self, hw, flavor):
        machine = Machine(hw, flavor)
        assert machine._cell_memo == {}
        rng = random.Random(20)
        for seed in (7, 8, 9):
            words = seeded_words(hw, flavor, seed)
            for W, rid in applicable_pairs(machine, words):
                theta_band(None, machine, W, rid)
            for W in words:  # and the words a few steps on
                h, walk = random_walk(machine, W, rng, 4)
                for step, V in zip(h, walk):
                    theta_band(None, machine, V, step)
        states, tapes = flavor_letters(machine)
        letters = {(sym, s) for sym in states | tapes for s in (1, -1)}
        assert len(machine._cell_memo) > len(machine.rules)
        for rid, cells in machine._cell_memo.items():
            assert set(cells) <= letters, rid
            assert len(cells) <= 2 * len(states) + 2 * len(tapes), rid

    def test_each_machine_has_its_own_cache(self, hw):
        one, two = Machine(hw, "mixed"), Machine(hw, "mixed")
        assert one._cell_memo == {} and two._cell_memo == {}
        W = mixed_word(hw, hw.sigma_w((), flavor="bar"))
        theta_band(None, one, W, parse_rule("~t12(r1)"))
        assert list(one._cell_memo) == [parse_rule("~t12(r1)")]
        assert two._cell_memo == {}
        # a rule that does not apply leaves no entry
        with pytest.raises(NotApplicable):
            theta_band(None, one, W, parse_rule("t23(r1)"))
        assert list(one._cell_memo) == [parse_rule("~t12(r1)")]


def cell_lines(report):
    """The lines of a band report that name one cell."""
    return [line for line in report if line.startswith("cell ")]


def tampered(band, rng):
    """Copies of band with one cell changed: its top, its bottom or its kind."""
    k = rng.randrange(len(band.cells))
    c = band.cells[k]
    letter = wletter(rng.choice([sym for sym, _ in band.bottom]))
    out = []
    for cell in (replace(c, top=c.top * letter), replace(c, bottom=letter * c.bottom),
                 replace(c, kind="theta_a" if c.kind != "theta_a" else "main")):
        cells = list(band.cells)
        cells[k] = cell
        out.append(Band(band.rid, tuple(cells), band.bottom, band.top, band.base))
    return out


class TestCellMemo:
    """verify_band keeps, per Presentation and Machine, each cell object
    that passed every cell check in a band of its signed rule; a hit on that
    object in a band of that rule skips the edge, boundary and kind checks.
    The Machine is held weakly, so its entries die with it."""

    @pytest.fixture(scope="class")
    def objects(self, hw, mixed):
        rng = random.Random(16)
        out = []
        while len(out) < 8:
            W = mixed_word(hw, random_bar_word(hw, rng, maxlen=1))
            h, _ = random_walk(mixed, W, rng, rng.randrange(1, 5), allow=lambda r: r.bar)
            if h:
                trap = trapezium(None, mixed, W, h)
                out.append(trap)
                band = tampered(trap.bands[-1], rng)[0]
                out.append(replace(trap, bands=trap.bands[:-1] + (band,)))
        pairs = applicable_pairs(mixed, seeded_words(hw, "mixed", seed=16))
        for W, rid in rng.sample(pairs, 24):
            band = theta_band(None, mixed, W, rid)
            # the same cells in a band of the inverse rule: cached, but not
            # for that rule
            out += [band, *tampered(band, rng), replace(band, rid=rid.inverse)]
        return out

    def test_warm_memo_reports_as_cold(self, hw, mixed, pres, objects):
        for obj in objects:  # warm pres
            verify(obj, pres, mixed)
        cold = emit(hw)
        assert cold == pres
        reported = 0
        for obj in objects:
            cold._cell_memo.clear()
            report = verify(obj, pres, mixed)
            assert report == verify(obj, cold, mixed)
            bands = [obj] if isinstance(obj, Band) else obj.bands
            for band in bands:
                want = oracles.verify_band(band, cold, mixed)
                assert verify_band(band, pres, mixed) == want
                cold._cell_memo.clear()
                assert verify_band(band, cold, mixed) == want
                reported += bool(want)
        assert reported > 24

    @pytest.mark.parametrize("field", ["left", "right", "dir", "bottom", "top", "kind"])
    def test_every_key_field_counts(self, hw, mixed, pres, field, monkeypatch):
        W = mixed_word(hw, hw.sigma_w(((1, 1),), flavor="bar"))
        band = theta_band(pres, mixed, W, parse_rule("~t12(r1)"))
        assert verify_band(band, pres, mixed) == []
        # every cell is cached now: a second check normalizes nothing
        normalized = []
        real = bands.normalize_relator
        monkeypatch.setattr(bands, "normalize_relator", lambda w: normalized.append(w) or real(w))
        assert verify_band(band, pres, mixed) == [] and normalized == []
        c = band.cells[3]
        changed = {"left": c.right, "right": c.left, "dir": -c.dir, "bottom": c.top,
                   "top": c.bottom, "kind": "bar_theta_a"}[field]
        cells = list(band.cells)
        cells[3] = replace(c, **{field: changed})
        broken = Band(band.rid, tuple(cells), band.bottom, band.top, band.base)
        want = ("cell 3: relator kind bar_main != bar_theta_a" if field == "kind"
                else "cell 3: boundary is not a relator")
        assert want in verify_band(broken, pres, mixed)

    def test_misses_are_not_cached(self, hw, mixed, pres):
        rng = random.Random(3)
        W = mixed_word(hw, hw.sigma_w(((1, 1), (2, -1)), flavor="bar"))
        band = theta_band(pres, mixed, W, parse_rule("~t12(r2)"))
        assert verify_band(band, pres, mixed) == []
        size = len(pres._cell_memo[mixed])
        for broken in tampered(band, rng):
            assert cell_lines(verify_band(broken, pres, mixed))
        assert len(pres._cell_memo[mixed]) == size

    def test_malformed_cell_takes_the_full_path(self, hw, mixed, pres):
        # a cell with an unhashable field has no memo key
        W = mixed_word(hw, hw.sigma_w((), flavor="bar"))
        band = theta_band(pres, mixed, W, parse_rule("~t12(r1)"))
        assert verify_band(band, pres, mixed) == []
        size = len(pres._cell_memo[mixed])
        cells = list(band.cells)
        cells[2] = replace(cells[2], dir=[1])
        broken = Band(band.rid, tuple(cells), band.bottom, band.top, band.base)
        report = verify_band(broken, pres, mixed)
        assert cell_lines(report) == [
            f"cell 2: theta edges {cells[2].left!r}, {cells[2].right!r} with dir [1] "
            "are not of ~t12(r1)",
            "cell 2: boundary did not normalize: bad operand type for unary -: 'list'"]
        assert len(pres._cell_memo[mixed]) == size

    @staticmethod
    def counted(monkeypatch):
        """The boundaries normalize_relator is called on, from now on."""
        normalized = []
        real = bands.normalize_relator
        monkeypatch.setattr(bands, "normalize_relator", lambda w: normalized.append(w) or real(w))
        return normalized

    def test_an_equal_cell_takes_the_full_path(self, hw, mixed, pres, monkeypatch):
        W = mixed_word(hw, hw.sigma_w(((1, 1),), flavor="bar"))
        band = theta_band(pres, mixed, W, parse_rule("~t12(r1)"))
        normalized = self.counted(monkeypatch)
        assert verify_band(band, pres, mixed) == []
        normalized.clear()
        for k in (0, 3):
            c = band.cells[k]
            for cell in (replace(c), replace(c, top=c.top * parse_word("~a1(P2)"))):
                assert cell is not c and (cell == c) == (cell.top == c.top)
                broken = Band(band.rid, tuple(band.cells[:k]) + (cell,) + band.cells[k + 1:],
                              band.bottom, band.top, band.base)
                report = verify_band(broken, pres, mixed)
                # the copy alone is normalized, however equal to the cached cell
                assert normalized == [cell.boundary()]
                assert (report == []) == (cell == c)
                cold = Presentation(pres.n, pres.ee_label, pres.relations)
                assert report == verify_band(broken, cold, mixed)
                normalized.clear()

    def test_a_cached_cell_in_a_band_of_another_rule(self, hw, mixed, pres, monkeypatch):
        W = mixed_word(hw, hw.sigma_w((), flavor="bar"))
        band = theta_band(pres, mixed, W, parse_rule("~t12(r1)"))
        assert verify_band(band, pres, mixed) == []
        memo = pres._cell_memo[mixed]
        entries = {id(c): memo[id(c)] for c in band.cells}
        assert all(hit == (c, band.rid) for c, hit in zip(band.cells, entries.values()))
        normalized = self.counted(monkeypatch)
        for name in ("~t12(r2)", "~t12(r1)^-1", "t12(r1)"):
            other = parse_rule(name)
            report = verify_band(replace(band, rid=other), pres, mixed)
            assert cell_lines(report) == [
                f"cell {k}: theta edges {c.left!r}, {c.right!r} with dir 1 are not of {name}"
                for k, c in enumerate(band.cells)], name
            assert len(normalized) == len(band.cells)
            normalized.clear()
        assert {key: memo[key] for key in entries} == entries
        assert verify_band(band, pres, mixed) == [] and normalized == []

    def test_only_cells_that_pass_get_an_entry(self, hw, mixed, pres):
        cold = Presentation(pres.n, pres.ee_label, pres.relations)
        W = mixed_word(hw, hw.sigma_w(((1, 1), (2, -1)), flavor="bar"))
        band = theta_band(pres, mixed, W, parse_rule("~t12(r2)"))
        # cells with the wrong edges only (a tape cell upside down is the
        # same relator of the same kind), a boundary that is no relator,
        # the wrong kind
        k = next(k for k, c in enumerate(band.cells) if c.kind == "bar_theta_a")
        c = band.cells[k]
        flipped = Cell(c.kind, c.left, c.right, c.top, c.bottom, -c.dir)
        broken = [(k, flipped), (0, replace(band.cells[0], top=band.cells[0].bottom)),
                  (1, replace(band.cells[1], kind="bar_theta_a"))]
        cells = list(band.cells)
        for j, cell in broken:
            cells[j] = cell
        report = verify_band(replace(band, cells=tuple(cells)), cold, mixed)
        assert cell_lines(report) == [
            "cell 0: boundary is not a relator",
            "cell 1: relator kind bar_main != bar_theta_a",
            f"cell {k}: theta edges {c.left!r}, {c.right!r} with dir -1 are not of ~t12(r2)"]
        # every other cell, and none of these, under the band's own rule
        assert list(cold._cell_memo) == [mixed]
        assert cold._cell_memo[mixed] == {id(cell): (cell, band.rid)
                                          for j, cell in enumerate(cells) if j not in (0, 1, k)}
        # a band of another rule adds none: its cells fail the edge check
        verify_band(replace(band, rid=parse_rule("~t12(r1)")), cold, mixed)
        assert len(cold._cell_memo[mixed]) == len(cells) - 3

    def test_entries_die_with_their_machine(self, hw, pres):
        # one height-4 trapezium, each time over a fresh Machine, checked
        # against one presentation: once the machines are dropped, the live
        # cells and the memo are one machine's worth
        cold = Presentation(pres.n, pres.ee_label, pres.relations)
        W = mixed_word(hw, hw.sigma_w(((1, 1),), flavor="bar"))
        h = tuple(map(parse_rule, ("~t12(r1)", "~t2(r1,1)^-1", "~t2(r1,1)^-1", "~t2(r1,2)")))

        def check():
            machine = Machine(hw, "mixed")
            trap = trapezium(None, machine, W, h)
            assert verify_trapezium(trap, cold, machine) == []
            return machine

        def cells():
            """The ids of the live Cell objects."""
            gc.collect()
            return {id(o) for o in gc.get_objects() if type(o) is Cell}

        before = cells()
        last = check()
        one = cells() - before
        assert one
        for _ in range(50):
            check()
        assert cells() - before == one
        assert list(cold._cell_memo) == [last]
        assert set(cold._cell_memo[last]) == one

    def test_emit_leaves_the_memo_empty(self, hw):
        assert len(emit(hw)._cell_memo) == 0


class TestTrapezia:
    def test_height_one(self, hw, mixed, pres):
        W = mixed_word(hw, hw.sigma_w(((1, 1),), flavor="bar"))
        trap = trapezium(pres, mixed, W, (parse_rule("~t12(r2)"),))
        assert trap.height == 1
        assert verify_trapezium(trap, pres, mixed) == []

    def test_bar_insertion_trapezium(self, hw, mixed, pres):
        h = bar_conjugated_insertion(hw, ((1, 1),), ((2, -1),), 1)
        W = mixed_word(hw, hw.sigma_w(((1, 1),), flavor="bar"))
        trap = trapezium(pres, mixed, W, h)
        assert trap.height == len(h)
        assert verify_trapezium(trap, pres, mixed) == []
        wp = ((1, 1), (2, -1), (1, 1), (2, 1), (2, 1))
        assert trap.top.letters == hw.sigma_w(wp, flavor="bar").flat()

    def test_side_words_spell_history(self, hw, mixed, pres):
        h = (parse_rule("~t12(r1)"), parse_rule("~t2(r1,1)^-1"))
        W = mixed_word(hw, hw.sigma_w((), flavor="bar"))
        trap = trapezium(pres, mixed, W, h)
        left, right = trap.side_words()
        assert [sym.rule for sym, _ in left] == [rid.positive for rid in h]
        assert [s for _, s in left] == [rid.sign for rid in h]

    def test_holds_its_bands_alone(self, hw, mixed, pres):
        # history, bottom and top are read off the bands, so no copy of
        # them can be set apart from the bands, and the check reads nothing
        # else of the trapezium
        h = (parse_rule("~t12(r1)"), parse_rule("~t2(r1,1)^-1"))
        W = mixed_word(hw, hw.sigma_w((), flavor="bar"))
        trap = trapezium(pres, mixed, W, h)
        assert [f.name for f in fields(trap)] == ["bands"]
        assert (trap.history, trap.bottom, trap.top, trap.height) == (
            h, trap.bands[0].bottom, trap.bands[1].top, 2)
        for name in ("history", "bottom", "top"):
            with pytest.raises(TypeError):
                replace(trap, **{name: getattr(trap, name)})
        with pytest.raises(BandError):
            Trapezium(())
        stack = SimpleNamespace(bands=trap.bands)
        assert verify_trapezium(stack, pres, mixed) == []
        stack.bands = trap.bands[::-1]
        assert verify_trapezium(stack, pres, mixed) == verify_trapezium(
            Trapezium(trap.bands[::-1]), pres, mixed) != []

    def test_requires_reduced_history(self, hw, mixed, pres):
        W = mixed_word(hw, hw.sigma_w((), flavor="bar"))
        h = (parse_rule("~t12(r1)"), parse_rule("~t12(r1)^-1"))
        with pytest.raises(BandError):
            trapezium(pres, mixed, W, h)

    def test_requires_bar_rules(self, hw, mixed, pres):
        W = mixed_word(hw, hw.sigma_w(()))
        with pytest.raises(BandError):
            trapezium(pres, mixed, W, (parse_rule("t12(r1)"),))

    def test_requires_K_type_ends(self, hw, mixed, pres):
        w = parse_word("L1(e,1) P1(e,1) R1(e,1)")
        W = hw.parse_admissible(w, "mixed")
        with pytest.raises(BandError):
            trapezium(pres, mixed, W, (parse_rule("~t12(r1)"),))

    def test_random_bar_trapezia(self, hw, mixed, pres, rng):
        built = 0
        while built < 12:
            W0 = random_bar_word(hw, rng, maxlen=1)
            Wm = mixed_word(hw, W0)
            h, words = random_walk(mixed, Wm, rng, rng.randrange(1, 5),
                                   allow=lambda r: r.bar)
            if not h:
                continue
            trap = trapezium(pres, mixed, Wm, h)
            assert verify_trapezium(trap, pres, mixed) == []
            assert trap.top.letters == words[-1].flat()
            built += 1


class TestSerialization:
    def test_band_text_deterministic(self, hw, mixed, pres):
        W = mixed_word(hw, hw.sigma_w((), flavor="bar"))
        band = theta_band(pres, mixed, W, parse_rule("~t12(r1)"))
        t1 = band_text(band)
        t2 = band_text(theta_band(pres, mixed, W, parse_rule("~t12(r1)")))
        assert t1 == t2
        assert t1.startswith("band ~t12(r1) cells=33")

    def test_trapezium_text(self, hw, mixed, pres):
        W = mixed_word(hw, hw.sigma_w((), flavor="bar"))
        trap = trapezium(pres, mixed, W, (parse_rule("~t12(r1)"),))
        text = trapezium_text(trap)
        assert text.startswith("trapezium height=1")
        assert "band ~t12(r1)" in text


# letters spelled into labels by hand: a pair that cancels, and an x-letter,
# which the trapezium replay's projection drops
CANCELLING_PAIR = parse_word("a1(P2) a1(P2)^-1", reduce=False).letters
X_LETTER = parse_word("x(a1(K2),t2(e,1))").letters


def band_with_cell(band, k, cell):
    cells = list(band.cells)
    cells[k] = cell
    return replace(band, cells=tuple(cells))


def band_report(band, pres, mixed):
    """verify_band's report, after checking it against oracles.verify_band."""
    report = verify_band(band, pres, mixed)
    assert report == oracles.verify_band(band, pres, mixed)
    return report


class TestBandReport:
    """Every structural line of verify_band, each from one hand-edited band
    whose cells are all relators of the right kind; ``oracles.verify_band``
    gives each report too."""

    @pytest.fixture(scope="class")
    def band(self, hw, mixed):
        W = mixed_word(hw, hw.sigma_w(((1, 1),), flavor="bar"))
        return theta_band(None, mixed, W, parse_rule("~t12(r1)"))

    def test_clean(self, band, pres, mixed):
        assert band_report(band, pres, mixed) == []

    def test_theta_edge_mismatch(self, band, pres, mixed):
        # a bar tape cell turned upside down is the same relator, but its
        # theta edges point the other way
        c = band.cells[6]
        assert c.kind == "bar_theta_a" and c.bottom == c.top
        broken = band_with_cell(band, 6, Cell(c.kind, c.left, c.right, c.top, c.bottom, -c.dir))
        assert band_report(broken, pres, mixed) == [
            "cell 6: theta edges th(~t12(r1),P2), th(~t12(r1),P2) with dir -1 are not of ~t12(r1)",
            "cells 5,6: theta edges th(~t12(r1),P2) != th(~t12(r1),P2)",
            "cells 6,7: theta edges th(~t12(r1),P2) != th(~t12(r1),P2)"]

    def test_label_mismatch(self, band, pres, mixed):
        broken = replace(band, bottom=band.top, top=band.bottom)
        assert band_report(broken, pres, mixed) == ["bottom label mismatch", "top label mismatch"]

    def test_bases_differ(self, band, pres, mixed):
        broken = replace(band, base=band.base[::-1])
        assert band_report(broken, pres, mixed) == ["top and bottom bases differ"]

    def test_illegal_two_letter_base(self, band, pres, mixed):
        letters = band.bottom.letters
        assert str(letters[2][0]) == "P1(e,1)"
        broken = replace(band, bottom=Word(letters[:2] + letters[3:]))
        assert band_report(broken, pres, mixed) == [
            "bottom label mismatch", "top and bottom bases differ",
            "illegal 2-letter base L1^1 R1^1"]

    def test_fold_back_in_a_locked_zone(self, hw, pres, mixed):
        # t2(e,1) leaves the K-zones open, so it applies over a K3 fold-back;
        # t12(r1) locks them
        K3 = hw.state("K", 3, Coord(None, 2))
        W = hw.parse_admissible(Word(((K3, 1), (hw.tape(1, B("K", 3)), 1), (K3, -1))), "mixed")
        band = theta_band(None, mixed, W, parse_rule("t2(e,1)"))
        assert band_report(band, pres, mixed) == []
        broken = replace(band, rid=parse_rule("t12(r1)"))
        assert band_report(broken, pres, mixed) == [
            f"cell {k}: theta edges {c.left!r}, {c.right!r} with dir 1 are not of t12(r1)"
            for k, c in enumerate(band.cells)] + ["fold-back at K3^1 in a locked zone"]

    def test_growth_bound(self, hw, band, pres, mixed):
        # the bound is 33 base letters * relator length 2
        assert len(band.base) * hw.ee.c == 66
        broken = replace(band, top=band.top * Word(parse_word("a1(P2)").letters * 67))
        assert band_report(broken, pres, mixed) == [
            "top label mismatch", "band growth exceeds base-length * max-relator-length"]
        within = replace(band, top=band.top * Word(parse_word("a1(P2)").letters * 66))
        assert band_report(within, pres, mixed) == ["top label mismatch"]

    def test_unreduced_labels(self, band, pres, mixed):
        # tape cell 6 with one cancelling pair spelled into its bottom and 35
        # into its top still has a relator boundary.  The labels are the
        # unreduced concatenations, which the check reduces before it
        # compares them; and it reduces the projections before it measures
        # growth (unreduced, the top would outgrow the bottom by 68 > 66)
        c = band.cells[6]
        y = CANCELLING_PAIR
        tampered = Cell(c.kind, c.left, c.right, Word(c.bottom.letters + y, reduce=False),
                        Word(c.top.letters + y * 35, reduce=False), c.dir)
        broken = band_with_cell(band, 6, tampered)
        cells = broken.cells
        broken = replace(
            broken,
            bottom=Word([l for cell in cells for l in cell.bottom.letters], reduce=False),
            top=Word([l for cell in cells for l in cell.top.letters], reduce=False))
        assert len(broken.bottom) == len(band.bottom) + 2
        assert len(broken.top) == len(band.top) + 70
        assert band_report(broken, pres, mixed) == ["bottom label mismatch", "top label mismatch"]

    def test_unknown_rule(self, band, pres, mixed):
        broken = replace(band, rid=parse_rule("~t12(r5)"))
        assert band_report(broken, pres, mixed) == ["unknown rule ~t12(r5)"]

    @pytest.mark.parametrize("name", ["~t1(e,1)", "~t12(r2)", "~t12(r1)^-1"])
    def test_cells_of_another_rule(self, band, pres, mixed, name):
        # every cell is a relator of ~t12(r1) read upwards, so under any
        # other signed rule every cell is reported, and nothing else
        report = band_report(replace(band, rid=parse_rule(name)), pres, mixed)
        assert report[0] == \
            f"cell 0: theta edges th(~t12(r1),K8), th(~t12(r1),K1) with dir 1 are not of {name}"
        assert report == [
            f"cell {k}: theta edges {c.left!r}, {c.right!r} with dir 1 are not of {name}"
            for k, c in enumerate(band.cells)]


class TestBandSweep:
    """``verify_band`` against ``oracles.verify_band`` on seeded strict, bar
    and mixed bands of both signs, each built over a machine of its flavor,
    and on one copy of each with each edit of ``genwords.tampered_bands``.
    Four runs: cold (a fresh ``emit`` whose memo is cleared before each
    band), warm (the same presentation after every clean band was checked,
    so a cell taken from a band of another rule is a memo hit under that
    rule), against the session's ``emit`` as other tests left it, and
    against ``cli._rules_presentation`` of the rules the band and its cells
    name, each checked after its clean band."""

    PER_FLAVOR = 40

    @pytest.fixture(scope="class")
    def sweep(self, hw):
        rng = random.Random(31)
        out = []  # (machine, clean band, [(edit, tampered band)])
        for flavor in ("strict", "bar", "mixed"):
            machine = Machine(hw, flavor)
            pairs = applicable_pairs(machine, seeded_words(hw, flavor))
            clean = [theta_band(None, machine, W, rid)
                     for W, rid in rng.sample(pairs, self.PER_FLAVOR)]
            out += [(machine, band, tampered_bands(machine, band, rng)) for band in clean]
        return out

    def test_reports_equal_the_oracle(self, hw, pres, sweep):
        assert {(m.flavor, b.rid.bar, b.rid.sign) for m, b, _ in sweep} == {
            (flavor, bar, sign) for flavor, bars in
            (("strict", (False,)), ("bar", (True,)), ("mixed", (False, True)))
            for bar in bars for sign in (1, -1)}
        full = emit(hw)
        want = {}
        for machine, band, edits in sweep:
            assert oracles.verify_band(band, full, machine) == []
            for edit, bad in edits:
                want[id(bad)] = oracles.verify_band(bad, full, machine)
        tampered = [(machine, bad) for machine, _, edits in sweep for _, bad in edits]
        cold = emit(hw)
        for machine, bad in tampered:
            cold._cell_memo.clear()
            assert verify_band(bad, cold, machine) == want[id(bad)]
        for machine, band, _ in sweep:
            assert verify_band(band, cold, machine) == []
        for machine, bad in tampered:
            assert verify_band(bad, cold, machine) == want[id(bad)]
        for machine, bad in tampered:
            assert verify_band(bad, pres, machine) == want[id(bad)]
        for machine, band, edits in sweep:
            for edit, bad in edits:
                rules = _rules_presentation(
                    machine, (band.rid, *(cell.left.rule for cell in bad.cells)))
                assert verify_band(band, rules, machine) == []
                assert verify_band(bad, rules, machine) == want[id(bad)], edit
        # every edit is reported somewhere, and the reports reach the cell,
        # neighbour, label and shape lines (a label edit keeps the base)
        edits = {edit for _, _, more in sweep for edit, bad in more if want[id(bad)]}
        assert edits == {"letter cell", "rule cell", "dir", "dropped", "repeated", "label"}
        lines = [line for lines in want.values() for line in lines]
        for part in ("are not of", "boundary is not a relator", "cells ", "bottom label mismatch",
                     "top label mismatch", "illegal 2-letter base"):
            assert any(part in line for line in lines), part


def with_band(trap, i, **fields):
    bands = list(trap.bands)
    bands[i] = replace(bands[i], **fields)
    return replace(trap, bands=tuple(bands))


def _gained(t, i):
    return with_band(t, i, top=t.bands[i].top * parse_word("~a1(P2)"))


def _glued(t, top):
    """t with band 1's top and band 2's bottom both replaced by top."""
    return with_band(with_band(t, 1, top=top), 2, bottom=top)


def _spliced(w, letters):
    """w with letters put in after its first letter, not reduced."""
    return Word(w.letters[:1] + letters + w.letters[1:], reduce=False)


def _pair(t, mixed):
    W1 = mixed.apply(t.history[0], mixed_word(mixed.hw, t.bottom))
    return replace(t, bands=(t.bands[0], theta_band(None, mixed, W1, t.history[0].inverse)))


def _cells_not_of(t, i, name):
    """The lines for band i of t under the rule name, none of whose cells
    are of that rule."""
    return [f"band {i}: cell {k}: theta edges {c.left!r}, {c.right!r} with dir {c.dir} "
            f"are not of {name}" for k, c in enumerate(t.bands[i].cells)]


# Each tampered trapezium with its exact report, or a function of the
# trapezium that gives it.  The trapezium is the first height-3 seeded bar
# walk (see ``walk``).
TRAPEZIUM_REPORTS = {
    "clean": (lambda t, m: t, []),
    "band 0 top gains a letter": (lambda t, m: _gained(t, 0), [
        "band 0: top label mismatch",
        "bands 0,1: top does not glue onto bottom",
        "band 0: top projection is not step 1"]),
    "band 1 top gains a letter": (lambda t, m: _gained(t, 1), [
        "band 1: top label mismatch",
        "bands 1,2: top does not glue onto bottom",
        "band 1: top projection is not step 2"]),
    "last top gains a letter": (lambda t, m: _gained(t, 2), [
        "band 2: top label mismatch",
        "band 2: top projection is not step 3"]),
    "band 1 top and band 2 bottom gain the same letter": (
        lambda t, m: _glued(t, t.bands[1].top * parse_word("~a1(P2)")), [
        "band 1: top label mismatch",
        "band 2: bottom label mismatch",
        "band 1: top projection is not step 2",
        "band 2: bottom projection is not step 2"]),
    "band 0 bottom replaced": (lambda t, m: with_band(t, 0, bottom=t.bands[0].top), [
        "band 0: bottom label mismatch",
        "band 0: top projection is not step 1",
        "band 1: bottom projection is not step 1",
        "band 1: top projection is not step 2",
        "band 2: bottom projection is not step 2",
        "band 2: top projection is not step 3"]),
    "band 1 bottom replaced": (lambda t, m: with_band(t, 1, bottom=t.bands[1].top), [
        "band 1: bottom label mismatch",
        "bands 0,1: top does not glue onto bottom",
        "band 1: bottom projection is not step 1"]),
    "band 1 top carries an x-letter": (
        lambda t, m: with_band(t, 1, top=_spliced(t.bands[1].top, X_LETTER)), [
            "band 1: top label mismatch",
            "bands 1,2: top does not glue onto bottom"]),
    "band 1 top and band 2 bottom carry the same x-letter": (
        lambda t, m: _glued(t, _spliced(t.bands[1].top, X_LETTER)), [
            "band 1: top label mismatch",
            "band 2: bottom label mismatch"]),
    "bottom carries an x-letter": (
        lambda t, m: with_band(t, 0, bottom=_spliced(t.bottom, X_LETTER)), [
            "band 0: bottom label mismatch"]),
    "band 1 top and band 2 bottom carry the same cancelling pair": (
        lambda t, m: _glued(t, _spliced(t.bands[1].top, CANCELLING_PAIR)), [
            "band 1: top label mismatch",
            "band 2: bottom label mismatch"]),
    # without band 0 the trapezium starts from band 0's top: a clean
    # trapezium of height 2, since the check follows the bands
    "bottom is band 0's top": (lambda t, m: replace(t, bands=t.bands[1:]), []),
    # band 1 relabelled with the inverse of band 0's rule: the history read
    # off the bands is h0, h0^-1, h2, whose replay the projections leave
    "unreduced history": (
        lambda t, m: with_band(t, 1, rid=t.history[0].inverse),
        lambda t: _cells_not_of(t, 1, "~t4(e,2)") + [
            "bands 0,1: mirror bands (reducible pair)",
            "band 1: top projection is not step 2",
            "band 2: bottom projection is not step 2",
            "band 2: top projection is not step 3"]),
    "reducible pair": (_pair, [
        "bands 0,1: mirror bands (reducible pair)"]),
    "a band above the last step": (lambda t, m: replace(t, bands=t.bands + t.bands[-1:]), [
        "bands 2,3: top does not glue onto bottom",
        "band 3: bottom projection is not step 3",
        "band 3: top projection is not step 4"]),
    "bottom does not parse": (
        lambda t, m: with_band(t, 0, bottom=t.bottom * parse_word("~a1(P2)")), [
            "band 0: bottom label mismatch",
            "bottom does not parse: BadBasePattern: word must end with a state letter"]),
    "history does not run": (
        lambda t, m: with_band(t, 0, rid=parse_rule("~t12(r1)")),
        lambda t: _cells_not_of(t, 0, "~t12(r1)") + [
            "history does not run: step 0 failed: CoordMismatch(word at (e,4), "
            "rule needs (e,1))"]),
}


class TestTrapeziumReport:
    @pytest.fixture(scope="class")
    def walk(self, hw, mixed):
        rng = random.Random(17)
        while True:
            W = mixed_word(hw, random_bar_word(hw, rng, maxlen=1))
            h, _ = random_walk(mixed, W, rng, 3, allow=lambda r: r.bar)
            if len(h) == 3:
                return trapezium(None, mixed, W, h)

    def test_walk(self, walk):
        assert walk.history == tuple(
            parse_rule(r) for r in ("~t4(e,2)^-1", "~t4(e,2)^-1", "~t4(e,1)^-1"))

    @pytest.mark.parametrize("case", list(TRAPEZIUM_REPORTS))
    def test_report(self, walk, pres, mixed, case):
        tamper, want = TRAPEZIUM_REPORTS[case]
        trap = tamper(walk, mixed)
        report = verify_trapezium(trap, pres, mixed)
        assert report == oracles.verify_trapezium(trap, pres, mixed)
        assert report == (want(walk) if callable(want) else want)


class TestTrapeziumSweep:
    """``verify_trapezium`` against ``oracles.verify_trapezium`` on seeded
    bar trapezia of heights 1-6 and on one copy of each with each edit of
    ``genwords.tampered_trapezia``.  Four runs: cold (a fresh ``emit`` whose
    memo is cleared before each trapezium), warm (the same presentation
    after every clean trapezium was checked), against the session's
    ``emit`` as other tests left it, and against ``cli._rules_presentation``
    of the rules of the clean and the tampered bands, each checked after its
    clean trapezium."""

    HEIGHTS = range(1, 7)
    PER_HEIGHT = 6

    @pytest.fixture(scope="class")
    def sweep(self, hw):
        machine = Machine(hw, "mixed")
        rng = random.Random(29)
        out = []  # (clean trapezium, [(edit, tampered trapezium)])
        for height in self.HEIGHTS:
            built = 0
            while built < self.PER_HEIGHT:
                W = mixed_word(hw, random_bar_word(hw, rng, maxlen=1))
                h, words = random_walk(machine, W, rng, height, allow=lambda r: r.bar)
                if len(h) < height:
                    continue
                trap = trapezium(None, machine, W, h)
                out.append((trap, tampered_trapezia(machine, trap, words, rng)))
                built += 1
        return machine, out

    def test_reports_equal_the_oracle(self, hw, pres, sweep):
        machine, cases = sweep
        full = emit(hw)
        want = {}
        for trap, edits in cases:
            assert oracles.verify_trapezium(trap, full, machine) == []
            for edit, bad in edits:
                want[id(bad)] = oracles.verify_trapezium(bad, full, machine)
        tampered = [bad for _, edits in cases for _, bad in edits]
        cold = emit(hw)
        for bad in tampered:
            cold._cell_memo.clear()
            assert verify_trapezium(bad, cold, machine) == want[id(bad)]
        for trap, _ in cases:
            assert verify_trapezium(trap, cold, machine) == []
        for bad in tampered:
            assert verify_trapezium(bad, cold, machine) == want[id(bad)]
        for bad in tampered:
            assert verify_trapezium(bad, pres, machine) == want[id(bad)]
        for trap, edits in cases:
            for edit, bad in edits:
                rules = _rules_presentation(
                    machine, trap.history + tuple(band.rid for band in bad.bands))
                assert verify_trapezium(trap, rules, machine) == []
                assert verify_trapezium(bad, rules, machine) == want[id(bad)], edit
        # every edit is reported somewhere, and the reports reach each part
        # of the check: band cells and labels, gluing, mirror bands, the run
        # of the bands' rules and the replay
        edits = {edit for _, more in cases for edit, bad in more if want[id(bad)]}
        assert edits == {"dropped", "repeated", "swapped", "mirror", "letter", "cells", "rule"}
        lines = [line for lines in want.values() for line in lines]
        for part in ("cell", "label mismatch", "top does not glue", "mirror bands",
                     "does not run: step", "bottom projection is not step",
                     "top projection is not step"):
            assert any(part in line for line in lines), part
