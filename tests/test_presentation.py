import gc
import hashlib
import io
import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from conftest import GOLDEN
from smkit.hardware import BaseLetter, Hardware, load_ee
from smkit.presentation import (
    KINDS, NonUniformIndex, Presentation, PresentationError, Relation, alpha,
    beta, delta, emit, gamma, normalize_relator, read_presentation,
    rule_relations, shift_index, write_presentation,
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
            assert proj == w

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
        assert pres.stats() == golden["stats"]
        buf = io.StringIO()
        write_presentation(pres, buf)
        text = buf.getvalue()
        assert text.count("\n") == golden["lines"]
        assert hashlib.sha256(text.encode()).hexdigest() == golden["sha256"]

    def test_no_duplicate_relators(self, pres):
        seen = set()
        for rel in pres.relations:
            assert rel.relator not in seen
            seen.add(rel.relator)

    def test_a_x_shape(self, pres):
        from smkit.words import Tape, X
        for rel in pres.relations:
            if rel.kind != "a_x":
                continue
            tapes = sum(1 for s, _ in rel.relator if isinstance(s, Tape))
            xs = sum(1 for s, _ in rel.relator if isinstance(s, X))
            assert (tapes, xs) == (2, 5)

    def test_delta_images(self, hw, pres):
        # every relator maps to 1 except the main (34)-relators at L zones,
        # whose image is exactly the inserted relator; the bar (34)-relator
        # at L_1 carries no tape letters (the bar machine never writes the
        # index-1 zones) and maps to 1 as well
        for rel in pres.relations:
            img = delta(rel.relator.word())
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
        tapes = [s for s, _ in at_L.relator if isinstance(s, Tape)]
        assert {t.zone for t in tapes} == {B("K", 3), B("L", 3)}
        at_R = by_prov[(rid, B("R", 3))]
        assert not any(isinstance(s, Tape) for s, _ in at_R.relator)

    def test_inventory_covers_relators(self, pres):
        inv = set(pres.inventory())
        for rel in pres.relations[:200]:
            for sym, _ in rel.relator:
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
        assert hub.kind == "hub" and hub.relator == normalize_relator(hw.hub())
        assert hub.rule is None and hub.at is None

    def test_letters_name_the_rule_and_place(self, emitted):
        place = {"main": (State, "base"), "bar_main": (State, "base"),
                 "k_x": (State, "base"), "theta_a": (Theta, "zone"),
                 "bar_theta_a": (Theta, "zone"), "a_x": (Tape, "zone")}
        _, pres = emitted
        for rel in pres.relations[:-1]:
            named = {sym.rule for sym, _ in rel.relator if isinstance(sym, (Theta, X))}
            assert named == {rel.rule}, rel
            cls, attr = place[rel.kind]
            places = {getattr(sym, attr) for sym, _ in rel.relator if isinstance(sym, cls)}
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
        assert [rel.relator.letters for rel in back.relations] == \
            [rel.relator.letters for rel in p.relations]
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
            letters = rel.relator.letters[1:] + rel.relator.letters[:1]
            w = Word(letters, reduce=False)
            spelled = w.inverse() if k % 2 else w
            assert spelled.letters != rel.relator.letters
            lines.append(f"relator {rel.kind}: {word_to_text(spelled)}")
        assert read_presentation(io.StringIO("\n".join(lines) + "\n")) == pres

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
            hit = index[rel.relator]
            assert (hit.kind, hit.rule, hit.at) == (rel.kind, rel.rule, rel.at)

    def test_read_only(self, pres):
        index = pres.index()
        rel = pres.relations[0]
        with pytest.raises(TypeError):
            index[rel.relator] = rel
        with pytest.raises(TypeError):
            del index[rel.relator]

    def test_duplicate_relator_rejected(self, pres):
        rel = pres.relations[0]
        twin = Relation("hub", rel.relator)
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
            assert rebuilt.index()[rel.relator] is rel



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
        line = f"relator {pres.relations[0].kind}: {word_to_text(pres.relations[0].relator)}\n"
        with pytest.raises(PresentationError, match="duplicate relator"):
            read_presentation(io.StringIO("n: 8\n" + line + line))
        assert gc.isenabled()


class TestShiftIndex:
    def test_substitution(self):
        w = parse_word("a1(L3) x(a2(L3),t2(r1,2))")
        out = shift_index(w, 5)
        assert out == parse_word("a1(L5) x(a2(L5),t2(r1,2))")

    def test_non_uniform_rejected(self):
        with pytest.raises(NonUniformIndex):
            shift_index(parse_word("a1(L3) a1(L4)"), 2)

    def test_bar_mode_drops_tape_at_one(self):
        w = parse_word("~a1(L3) ~L3(r1,2) th(~t2(r1,1),L3)")
        out = shift_index(w, 1, bar_mode=True)
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
            if any(isinstance(s, State) and s.kind == "K" for s, _ in rel.relator):
                continue
            if any(isinstance(s, Theta) and s.bar for s, _ in rel.relator):
                continue
            try:
                img = shift_index(rel.relator.word(), 5)
            except NonUniformIndex:
                continue
            assert normalize_relator(img) in index, rel
            checked[rel.kind] += 1
            if min(checked.values()) > 60:
                break
        assert all(v > 30 for v in checked.values()), checked
