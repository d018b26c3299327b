import copy
import gc
import hashlib
import io
import json
import os
import pickle

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import DATA, GOLDEN
from smkit.hardware import BaseLetter, Hardware, load_ee, load_ee_file
from smkit.presentation import (
    KINDS, Presentation, PresentationError, Relation, _add_relations, _pair,
    _RelatorLetters, alpha, beta, delta, emit, gamma, normalize_relator,
    read_presentation, rule_relations, write_presentation,
)
from smkit.smachine import Machine, enumerate_rule_ids
from smkit.words import (
    Coord, RuleId, State, Tape, Theta, Word, X, cyclic_reduce, parse_rule,
    parse_word, word_to_text,
)

B = BaseLetter

# The sample pair plus a1 a1 a2 a2, its own priming image: more relators
# per k_x family over the same alphabet.
FOUR_EE = ("generators: a1 a2\ninvolution: a1 a2\nm: 2\n"
           "relator:\nrelator: a1 a2\nrelator: a2 a1\nrelator: a1 a1 a2 a2\n")


ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
# sha256, line count and stats() of more inputs, with `ee-file: -`
with open(os.path.join(GOLDEN, "presentations.json")) as f:
    GOLDEN_MORE = json.load(f)


def digest(pres):
    """The sha256 and line count of pres's text, and its stats()."""
    buf = io.StringIO()
    write_presentation(pres, buf)
    text = buf.getvalue()
    return {"sha256": hashlib.sha256(text.encode()).hexdigest(),
            "lines": text.count("\n"), "stats": pres.stats()}


ROUND_TRIPS = {"copy": copy.copy, "deepcopy": copy.deepcopy,
               "pickle": lambda obj: pickle.loads(pickle.dumps(obj))}


def provenance(pres):
    return [(rel.kind, rel.rule, rel.at) for rel in pres.relations]


@pytest.fixture(scope="module", params=[("sample", 8), ("sample", 10), ("four", 8)],
                ids=lambda p: f"{p[0]}-N{p[1]}")
def emitted(request):
    """(hw, emit(hw)) for three inputs; the sample at N=8 is the session's."""
    name, n = request.param
    if (name, n) == ("sample", 8):
        return request.getfixturevalue("hw"), request.getfixturevalue("pres")
    ee = request.getfixturevalue("ee") if name == "sample" else load_ee(FOUR_EE)
    hw = Hardware(ee, n)
    return hw, emit(hw)


class TestAlpha:
    def test_L_zone_decoration(self, hw):
        rid = parse_rule("t2(r1,1)")
        w = parse_word("a1(L2)")
        assert alpha(rid, w) == parse_word("x(a1(L2),t2(r1,1)) a1(L2)")

    def test_P_zone_fixed(self, hw):
        rid = parse_rule("t1(e,1)")
        assert alpha(rid, parse_word("a1(P2)")) == parse_word("a1(P2)")

    def test_R_zone_and_inverse_rule(self, hw):
        rid = parse_rule("t3(r1,2)")
        assert alpha(rid, parse_word("a1(R4)")) == \
            parse_word("a1(R4) x(a1(R4),t3(r1,2))")
        assert alpha(rid.inverse, parse_word("a1(R4)")) == \
            parse_word("a1(R4) x(a1(R4),t3(r1,2))^-1")

    def test_projection_recovers_input(self, hw, rng):
        from genwords import random_sigma_word
        from smkit.words import Tape, State
        rid = parse_rule("t4(r2,1)")
        for _ in range(20):
            w = random_sigma_word(hw, rng).flat()
            img = alpha(rid, w)
            proj = img.project(lambda s: isinstance(s, (Tape, State)))
            assert proj.letters == w

    def test_bar_rejected(self, hw):
        with pytest.raises(PresentationError):
            alpha(parse_rule("~t2(r1,1)"), parse_word("a1(L2)"))
        with pytest.raises(PresentationError):
            alpha(parse_rule("t2(r1,1)"), parse_word("~a1(L2)"))


class TestProjections:
    def test_delta_hub_trivial(self, hw):
        assert delta(hw.hub()).is_empty()

    def test_delta_tape(self):
        w = parse_word("a1(L2) th(t2(r1,1),L2) a2(P3)^-1 K1(e,1)")
        assert delta(w) == parse_word("a1 a2^-1")
        assert beta(w) == delta(w)

    def test_gamma_sigma_w_trivial(self, hw):
        assert gamma(hw.sigma_w(((1, 1), (2, 1))).flat()).is_empty()


class TestEmission:
    def test_counts_match_independent_enumeration(self, hw, pres):
        e = len(hw.ee.relators)
        mbar = hw.ee.mbar
        N = hw.N
        rules = enumerate_rule_ids(hw.ee)
        nrules = len(rules)
        unlocked = {"1": 2, "12": 2, "2": 3, "23": 2, "3": 3,
                    "34": 2, "4": 3, "45": 2, "5": 3, "51": 2}
        theta_a = sum(unlocked[r.family] * N * mbar for r in rules)
        bar_theta_a = sum(unlocked[r.family] * (N - 1) * mbar for r in rules)
        stats = pres.stats()
        assert stats["main"] == stats["bar_main"] == nrules * 4 * N
        assert stats["theta_a"] == theta_a
        assert stats["bar_theta_a"] == bar_theta_a
        assert stats["a_x"] == nrules * 3 * N * mbar * mbar
        assert stats["k_x"] == nrules * 2 * N * mbar * e * 5
        assert stats["hub"] == 1

    def test_golden_counts_and_digest(self, hw, pres):
        with open(os.path.join(GOLDEN, "presentation_n8.json")) as f:
            golden = json.load(f)
        assert digest(pres) == golden

    @pytest.mark.parametrize("golden", GOLDEN_MORE,
                             ids=lambda g: f"{os.path.basename(g['ee'])}-N{g['n']}")
    def test_more_golden_digests(self, golden):
        pres = emit(Hardware(load_ee_file(os.path.join(ROOT, golden["ee"])), golden["n"]))
        assert digest(pres) == {key: golden[key] for key in ("sha256", "lines", "stats")}

    def test_no_duplicate_relators(self, pres):
        seen = set()
        for rel in pres.relations:
            assert rel.letters not in seen
            seen.add(rel.letters)

    def test_a_x_shape(self, pres):
        from smkit.words import Tape, X
        for rel in pres.relations:
            if rel.kind != "a_x":
                continue
            tapes = sum(1 for s, _ in rel.letters if isinstance(s, Tape))
            xs = sum(1 for s, _ in rel.letters if isinstance(s, X))
            assert (tapes, xs) == (2, 5)

    def test_delta_images(self, hw, pres):
        # every relator maps to 1 except the main (34)-relators at L zones,
        # whose image is exactly the inserted relator; the bar (34)-relator
        # at L_1 carries no tape letters (the bar machine never writes the
        # index-1 zones) and maps to 1 as well
        for rel in pres.relations:
            img = delta(Word(rel.letters, reduce=False))
            core = cyclic_reduce(img)[1]
            if rel.kind in ("main", "bar_main") and rel.rule is not None \
                    and rel.rule.family == "34" and rel.at.kind == "L" \
                    and not (rel.kind == "bar_main" and rel.at.j == 1):
                expect = Word((f"a{a}", 1) for a in hw.ee.relator(rel.rule.r))
                assert core == cyclic_reduce(expect)[1] or \
                    core == cyclic_reduce(expect.inverse())[1]
            else:
                assert len(core) == 0, rel

    def test_main_relator_spec_example(self, hw, pres):
        # tau(2,r,i) at L_j: v = a_i before L, u = a_i^-1 after; at R_j: lock
        rid = parse_rule("t2(r1,1)")
        by_prov = {(rel.rule, rel.at): rel for rel in pres.relations
                   if rel.kind == "main"}
        at_L = by_prov[(rid, B("L", 3))]
        from smkit.words import Tape, X
        tapes = [s for s, _ in at_L.letters if isinstance(s, Tape)]
        assert {t.zone for t in tapes} == {B("K", 3), B("L", 3)}
        at_R = by_prov[(rid, B("R", 3))]
        assert not any(isinstance(s, Tape) for s, _ in at_R.letters)

    def test_inventory_covers_relators(self, pres):
        inv = set(pres.inventory())
        for rel in pres.relations[:200]:
            for sym, _ in rel.letters:
                assert sym in inv


class TestByRule:
    """Every relation but the hub belongs to one positive rule, which its
    theta or x letters name."""

    def test_emit_is_rule_relations_then_hub(self, emitted):
        hw, pres = emitted
        machine = Machine(hw, "mixed")
        start = 0
        for rid in enumerate_rule_ids(hw.ee) + enumerate_rule_ids(hw.ee, bar=True):
            rels = tuple(rule_relations(machine, rid))
            assert pres.relations[start:start + len(rels)] == rels
            assert {rel.rule for rel in rels} == {rid}
            start += len(rels)
        (hub,) = pres.relations[start:]
        assert hub.kind == "hub" and hub.letters == normalize_relator(hw.hub())
        assert hub.rule is None and hub.at is None

    def test_letters_name_the_rule_and_place(self, emitted):
        place = {"main": (State, "base"), "bar_main": (State, "base"),
                 "k_x": (State, "base"), "theta_a": (Theta, "zone"),
                 "bar_theta_a": (Theta, "zone"), "a_x": (Tape, "zone")}
        _, pres = emitted
        for rel in pres.relations[:-1]:
            named = {sym.rule for sym, _ in rel.letters if isinstance(sym, (Theta, X))}
            assert named == {rel.rule}, rel
            cls, attr = place[rel.kind]
            places = {getattr(sym, attr) for sym, _ in rel.letters if isinstance(sym, cls)}
            assert places == {rel.at}, rel

    @pytest.mark.parametrize("emitted", [("four", 8)], indirect=True, ids=["four-N8"])
    def test_round_trip_keeps_rule_and_place(self, emitted):
        _, pres = emitted
        buf = io.StringIO()
        write_presentation(pres, buf)
        back = read_presentation(io.StringIO(buf.getvalue()))
        assert provenance(back) == provenance(pres)


# Letters of every structured kind, barred and plain, for hand-built
# presentations; each is drawn with both signs.
POOL = (
    Tape(1, B("L", 2)), Tape(2, B("L", 2)), Tape(1, B("P", 3), bar=True),
    State("K", 1, Coord(None, 1)), State("L", 2, Coord(1, 3), bar=True),
    Theta(RuleId("2", 1, 1), B("L", 2)), Theta(RuleId("12", 2, None, bar=True), B("K", 3)),
    X(Tape(1, B("K", 3)), RuleId("12", 1, None)), X(Tape(2, B("R", 4)), RuleId("3", 1, 2)),
)


@st.composite
def presentations(draw):
    """A Presentation of up to 8 relations of any kind over POOL."""
    rels, seen = [], set()
    for letters in draw(st.lists(st.lists(st.tuples(st.sampled_from(POOL), st.sampled_from((1, -1))),
                                          min_size=1, max_size=10), max_size=8)):
        try:
            relator = normalize_relator(Word(letters))
        except PresentationError:
            continue
        if relator not in seen:
            seen.add(relator)
            rels.append(Relation(draw(st.sampled_from(KINDS)), relator))
    label = draw(st.sampled_from(("", "sample.ee", "four ee.txt")))
    return Presentation(draw(st.sampled_from((8, 10, 12))), label, tuple(rels))


class TestRoundTrip:
    @settings(max_examples=200)
    @given(presentations())
    def test_read_inverts_write(self, p):
        buf = io.StringIO()
        write_presentation(p, buf)
        back = read_presentation(io.StringIO(buf.getvalue()))
        assert back == p and back.ee_label == p.ee_label
        assert [rel.letters for rel in back.relations] == \
            [rel.letters for rel in p.relations]
        assert provenance(back) == provenance(p)

    def test_write_read_equal(self, pres, tmp_path):
        path = tmp_path / "p.txt"
        with open(path, "w", encoding="utf-8") as f:
            write_presentation(pres, f)
        with open(path, encoding="utf-8") as f:
            back = read_presentation(f)
        assert back == pres
        assert provenance(back) == provenance(pres)

    def test_reader_normalizes_any_spelling(self, pres):
        """The N=8 presentation (``pres`` is emit(hw)) with each relator
        rotated by one letter and every other one inverted: the reader puts
        each back in canonical form, also the kinds ``emit`` spells in that
        form directly."""
        lines = [f"n: {pres.n}", "ee-file: -"]
        for k, rel in enumerate(pres.relations):
            letters = rel.letters[1:] + rel.letters[:1]
            w = Word(letters, reduce=False)
            spelled = w.inverse() if k % 2 else w
            assert spelled.letters != rel.letters
            lines.append(f"relator {rel.kind}: {word_to_text(spelled)}")
        assert read_presentation(io.StringIO("\n".join(lines) + "\n")) == pres

    @pytest.mark.parametrize("trip", ROUND_TRIPS.values(), ids=ROUND_TRIPS.keys())
    def test_copy_and_pickle(self, pres, trip):
        # a copy is rebuilt from n, label and relations: a fresh index and
        # an empty cell memo
        rel = pres.relations[0]
        assert trip(rel.letters) == rel.letters
        assert trip(rel) == rel
        back = trip(pres)
        assert back == pres and back.ee_label == pres.ee_label
        assert back.index() is not pres.index()
        assert dict(back.index()) == dict(pres.index())
        assert len(back._cell_memo) == 0 and back._cell_memo is not pres._cell_memo
        if trip is not ROUND_TRIPS["pickle"]:
            # relations are immutable: a copy shares them, and so their
            # letters
            assert trip(rel) is rel
            assert all(a is b for a, b in zip(back.relations, pres.relations))
            assert all(back.relations[k].letters is pres.relations[k].letters
                       for k in range(len(pres.relations)))

    def test_plain_symbols_round_trip(self):
        # plain-string symbols take word_to_text's general path
        p = read_presentation(io.StringIO("n: 8\nrelator main: a b a^-1 b^-1\n"))
        buf = io.StringIO()
        write_presentation(p, buf)
        assert buf.getvalue() == "n: 8\nee-file: -\nrelator main: a b a^-1 b^-1\n"
        assert read_presentation(io.StringIO(buf.getvalue())) == p

    def test_empty_presentation(self, tmp_path):
        p = Presentation(8, "x", ())
        buf = io.StringIO()
        write_presentation(p, buf)
        back = read_presentation(io.StringIO(buf.getvalue()))
        assert back == p and back.n == 8

    def test_parse_error_reports_line(self):
        bad = io.StringIO("n: 8\nrelator main: th(\n")
        with pytest.raises(PresentationError) as err:
            read_presentation(bad)
        assert "line 2" in str(err.value)

    @pytest.mark.parametrize("line, message", (
        ("n: x", "n must be an integer, got 'x'"),
        ("relator frob: K1(e,1)", "unknown relation kind 'frob'"),
        ("relator main: K1(e,1) K1(e,1)^-1", "trivial relator"),
        ("relator main K1(e,1)", "unrecognized line 'relator main K1(e,1)'"),
        ("relator : K1(e,1)", "unknown relation kind ''")),
        ids=("n", "kind", "trivial", "no-colon", "no-kind"))
    def test_line_errors_name_the_line(self, line, message):
        with pytest.raises(PresentationError) as err:
            read_presentation(io.StringIO(f"n: 8\n# note\n{line}\n"))
        assert str(err.value) == f"line 3: {message}"

    def test_duplicate_relator_names_its_line(self):
        line = "relator main: K1(e,1) L1(e,1)\n"
        text = "n: 8\n" + line + "# the same relator again\n\n" + line
        with pytest.raises(PresentationError) as err:
            read_presentation(io.StringIO(text))
        assert str(err.value) == \
            "line 5: duplicate relator CyclicWord('K1(e,1) L1(e,1)') (first on line 2)"

    def test_duplicate_relator_of_an_input_read_once(self):
        # lines that cannot be read again: the lines are kept as they are read
        line = "relator main: K1(e,1) L1(e,1)"
        with pytest.raises(PresentationError) as err:
            read_presentation(iter(["n: 8", line, line]))
        assert str(err.value) == \
            "line 3: duplicate relator CyclicWord('K1(e,1) L1(e,1)') (first on line 2)"

    def test_golden_head(self, pres):
        buf = io.StringIO()
        write_presentation(pres, buf)
        head = "".join(buf.getvalue().splitlines(keepends=True)[:14])
        with open(os.path.join(GOLDEN, "presentation_n8_head.txt")) as f:
            assert head == f.read()


class TestIndex:
    def test_same_mapping_every_call(self, pres):
        assert pres.index() is pres.index()

    def test_every_relator_maps_to_its_relation(self, pres):
        index = pres.index()
        assert len(index) == len(pres.relations)
        for rel in pres.relations:
            hit = index[rel.letters]
            assert (hit.kind, hit.rule, hit.at) == (rel.kind, rel.rule, rel.at)

    def test_read_only(self, pres):
        index = pres.index()
        rel = pres.relations[0]
        with pytest.raises(TypeError):
            index[rel.letters] = rel
        with pytest.raises(TypeError):
            del index[rel.letters]

    def test_duplicate_relator_rejected(self, pres):
        rel = pres.relations[0]
        twin = Relation("hub", rel.letters)
        with pytest.raises(PresentationError, match="duplicate relator"):
            Presentation(8, "", (rel, twin))

    def test_cmd_present_rebuild_indexes(self, monkeypatch, tmp_path, pres):
        from conftest import DATA
        from smkit import cli
        written = []
        monkeypatch.setattr(cli, "write_presentation", lambda p, fh: written.append(p))
        out = tmp_path / "p.txt"
        assert cli.main(["present", "--ee", os.path.join(DATA, "sample.ee"),
                         "--out", str(out)]) == 0
        (rebuilt,) = written
        assert rebuilt.ee_label == "sample.ee"
        assert dict(rebuilt.index()) == dict(pres.index())
        for rel in rebuilt.relations:
            assert rebuilt.index()[rel.letters] is rel



class TestRelation:
    """A Relation holds its kind and the letters of its canonical relator,
    and compares and hashes on both."""

    def test_exactly_kind_and_letters(self, pres):
        assert Relation.__slots__ == ("kind", "letters")
        for rel in pres.relations:
            assert type(rel.letters) is tuple and not hasattr(rel, "__dict__")

    def test_kind_counts(self):
        w = normalize_relator(parse_word("K1(e,1) L1(e,1)"))
        assert Relation("main", w) == Relation("main", w)
        assert Relation("main", w) != Relation("theta_a", w)
        assert hash(Relation("main", w)) == hash(Relation("main", tuple(list(w))))

    def test_relabelled_kind_reads_back_unequal(self, pres):
        buf = io.StringIO()
        write_presentation(pres, buf)
        head, line, rest = buf.getvalue().partition("\nrelator main: ")
        assert line
        back = read_presentation(io.StringIO(head + "\nrelator theta_a: " + rest))
        assert back != pres
        assert [rel.letters for rel in back.relations] == [rel.letters for rel in pres.relations]

    def test_letters_are_their_own_normal_form(self, pres):
        for rel in pres.relations:
            assert not hasattr(rel, "relator")
            assert normalize_relator(Word(rel.letters, reduce=False)) == rel.letters

    def test_repr_spells_the_relator(self, pres):
        assert repr(pres.relations[0]) == (
            "Relation(kind='main', relator=CyclicWord('K1(e,1) th(t1(e,1),K1) "
            "K1(e,1)^-1 th(t1(e,1),K8)^-1'))")
        assert repr(pres.relations[-1]) == (
            "Relation(kind='hub', relator=CyclicWord('"
            "K1(e,1) L1(e,1) P1(e,1) R1(e,1) K2(e,1)^-1 R2(e,1)^-1 P2(e,1)^-1 L2(e,1)^-1 "
            "K3(e,1) L3(e,1) P3(e,1) R3(e,1) K4(e,1)^-1 R4(e,1)^-1 P4(e,1)^-1 L4(e,1)^-1 "
            "K5(e,1) L5(e,1) P5(e,1) R5(e,1) K6(e,1)^-1 R6(e,1)^-1 P6(e,1)^-1 L6(e,1)^-1 "
            "K7(e,1) L7(e,1) P7(e,1) R7(e,1) K8(e,1)^-1 R8(e,1)^-1 P8(e,1)^-1 L8(e,1)^-1'))")

    def test_fast_path_matches_checked_constructor(self, pres):
        for kind in KINDS:
            spelled = [rel.letters for rel in pres.relations if rel.kind == kind]
            rels = []
            _add_relations(rels, kind, spelled)
            assert rels == [Relation(kind, letters) for letters in spelled]


class TestCollectorPause:
    """emit and read_presentation build only acyclic objects, so they run
    with the cyclic collector paused and leave it as they found it."""

    @pytest.fixture
    def collector(self):
        """Restores the collector's state when the test ends."""
        was_enabled = gc.isenabled()
        yield
        if was_enabled:
            gc.enable()
        else:
            gc.disable()

    def test_builds_make_no_cyclic_garbage(self, hw, collector):
        gc.disable()
        gc.collect()
        p = emit(hw)
        assert gc.collect() == 0
        buf = io.StringIO()
        write_presentation(p, buf)
        text = buf.getvalue()
        gc.collect()
        back = read_presentation(io.StringIO(text))
        assert gc.collect() == 0
        assert back == p

    def test_enabled_collector_is_enabled_after_emit(self, hw, collector):
        gc.enable()
        emit(hw)
        assert gc.isenabled()

    def test_disabled_collector_stays_disabled(self, hw, collector):
        gc.disable()
        p = emit(hw)
        assert not gc.isenabled()
        buf = io.StringIO()
        write_presentation(p, buf)
        read_presentation(io.StringIO(buf.getvalue()))
        assert not gc.isenabled()

    def test_enabled_again_after_read_raises(self, pres, collector):
        gc.enable()
        line = f"relator {pres.relations[0].kind}: {word_to_text(pres.relations[0].letters)}\n"
        with pytest.raises(PresentationError, match="duplicate relator"):
            read_presentation(io.StringIO("n: 8\n" + line + line))
        assert gc.isenabled()


class TestTrackedObjects:
    """The objects an emit leaves for the collector to scan once it runs
    again: about two per relation (the Relation and its letters tuple),
    since letter pairs are built once per symbol."""

    def test_fewer_than_2_5_tracked_objects_per_relation(self, hw, pres):
        gc.collect()
        before = len(gc.get_objects())
        p = emit(hw)
        made = len(gc.get_objects()) - before
        assert made / len(p.relations) < 2.5

    def test_one_letter_pair_per_symbol(self, hw):
        for sym in (hw.tape(1, B("L", 2)), Theta(parse_rule("t2(r1,1)"), B("L", 2)),
                    hw.state("K", 1, Coord(None, 1))):
            assert _pair(sym) is _pair(sym)
            assert _pair(sym) == ((sym, 1), (sym, -1))


class TestRelatorLetters:
    """The letter tables ``rule_relations`` reads: built on a machine's
    first call and kept, holding the Hardware's own letters."""

    def test_built_once_per_machine(self, hw):
        machine = Machine(hw, "mixed")
        assert machine._relator_letters is None
        plain, bar = enumerate_rule_ids(hw.ee)[0], enumerate_rule_ids(hw.ee, bar=True)[0]
        rule_relations(machine, plain)
        table = machine._relator_letters
        rule_relations(machine, bar)
        assert machine._relator_letters is table

    def test_tables_hold_the_hardware_letters(self):
        # two involution pairs, m = 2: the bar P-zone letters a1, a2 are
        # the plain ones, a3 and a4 are barred
        hw = Hardware(load_ee_file(os.path.join(DATA, "mbar4.ee")), 8)
        table = _RelatorLetters(hw)
        assert [bl for bl, _, _ in table.sigma] == [bl for bl, _ in hw.sigma]
        for bar in (False, True):
            zones = [z for z in hw.zones if not (bar and z.j == 1)]
            assert list(table.tapes[bar]) == zones
            for zone in zones:
                assert table.tapes[bar][zone] == tuple(
                    _pair(hw.tape(i, zone, bar)) for i in range(1, 5))
            assert list(table.states[bar]) == list(hw.ee.coords())
            for coord, row in table.states[bar].items():
                assert row == tuple(_pair(hw.state(bl.kind, bl.j, coord, bar))
                                    for bl, _ in hw.sigma)
        p2 = table.tapes[True][B("P", 2)]
        assert [ap[0].bar for ap, _ in p2] == [False, False, True, True]
        coords = hw.ee.coords()
        assert table.kl == tuple(
            (bl.kind, *hw.zones_of(bl), tuple(_pair(State(bl.kind, bl.j, c)) for c in coords))
            for bl, _ in hw.sigma if bl.kind in "KL")


class TestShiftIndex:
    """The block-index shift of ``oracles``, and the law it checks: moving a
    relator from one j-block to another gives a relator."""

    def test_substitution(self):
        w = parse_word("a1(L3) x(a2(L3),t2(r1,2))")
        out = oracles.shift_index(w, 5)
        assert out == parse_word("a1(L5) x(a2(L5),t2(r1,2))")

    def test_non_uniform_rejected(self):
        with pytest.raises(oracles.NonUniformIndex):
            oracles.shift_index(parse_word("a1(L3) a1(L4)"), 2)

    def test_bar_mode_drops_tape_at_one(self):
        w = parse_word("~a1(L3) ~L3(r1,2) th(~t2(r1,1),L3)")
        out = oracles.shift_index(w, 1, bar_mode=True)
        assert out == parse_word("~L1(r1,2) th(~t2(r1,1),L1)")

    def test_takes_non_K_relators_to_relators(self, hw, pres):
        # the index substitution maps relators without K-state letters and
        # without bar-theta letters to relators again (main relators at
        # L/P/R letters, k_x relators at L letters, theta_a, a_x)
        from smkit.words import State, Theta
        index = pres.index()
        checked = {k: 0 for k in ("main", "theta_a", "a_x", "k_x")}
        for rel in pres.relations:
            if rel.kind not in checked:
                continue
            if any(isinstance(s, State) and s.kind == "K" for s, _ in rel.letters):
                continue
            if any(isinstance(s, Theta) and s.bar for s, _ in rel.letters):
                continue
            try:
                img = oracles.shift_index(Word(rel.letters, reduce=False), 5)
            except oracles.NonUniformIndex:
                continue
            assert normalize_relator(img) in index, rel
            checked[rel.kind] += 1
            if min(checked.values()) > 60:
                break
        assert all(v > 30 for v in checked.values()), checked
