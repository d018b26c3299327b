import hashlib
import json
import random

import pytest

import oracles
from genwords import random_positive, random_reduced
from smkit.derive import (
    DeriveError, LENGTH_C, LENGTH_L, accept_bfs, bar_conjugated_insertion,
    copy_history, derivation_history, insertion_history, is_accept_target,
)
from smkit.hardware import AdmissibleWord
from smkit.smachine import brief_history, history_text, is_historical_form, inverse_history
from smkit.words import Coord, parse_rule, parse_word


def reduce_seq(seq):
    out = []
    for i, s in seq:
        if out and out[-1] == (i, -s):
            out.pop()
        else:
            out.append((i, s))
    return tuple(out)


class TestInsertion:
    def test_empty_word_insert(self, hw, strict):
        h = insertion_history(hw, (), 0, 1)
        trace = strict.run(hw.sigma_w(()), h)
        assert trace.ok and trace.final == hw.sigma_w(((1, 1), (2, 1)))
        assert is_historical_form(brief_history(h))

    def test_pinned_length_regression(self, hw):
        # measured once from the ten-phase choreography: 4|w1|+2|w2|+2|r|+5
        assert len(insertion_history(hw, (), 0, 1)) == 9
        w = ((1, 1), (2, 1))
        assert len(insertion_history(hw, w, 1, 2)) == 4 * 1 + 2 * 1 + 2 * 2 + 5

    def test_all_positions_and_relators(self, hw, strict):
        for w in ((), ((2, 1),), ((1, 1), (2, 1))):
            for pos in range(len(w) + 1):
                for r in (1, 2):
                    h = insertion_history(hw, w, pos, r)
                    rel = tuple((a, 1) for a in hw.ee.relator(r))
                    expect = hw.sigma_w(w[:pos] + rel + w[pos:])
                    trace = strict.run(hw.sigma_w(w), h)
                    assert trace.ok and trace.final == expect
                    bound = LENGTH_L * (len(w) + len(w) + len(rel)) + LENGTH_C
                    assert len(h) <= bound

    def test_delete_is_formal_inverse(self, hw, strict):
        w = ((1, 1), (2, 1), (1, 1), (1, 1))
        h = insertion_history(hw, w, 1, 2, delete=True)
        assert h == inverse_history(insertion_history(hw, ((1, 1), (1, 1)), 1, 2))
        trace = strict.run(hw.sigma_w(w), h)
        assert trace.ok and trace.final == hw.sigma_w(((1, 1), (1, 1)))

    def test_delete_then_insert_round_trip(self, hw, strict):
        w = ((1, 1), (1, 1), (2, 1))
        hdel = insertion_history(hw, w, 1, 1, delete=True)
        hins = insertion_history(hw, ((1, 1),), 1, 1)
        trace = strict.run(hw.sigma_w(w), hdel + hins)
        assert trace.ok and trace.final == hw.sigma_w(w)

    def test_errors(self, hw):
        with pytest.raises(DeriveError):
            insertion_history(hw, (), 1, 1)
        with pytest.raises(DeriveError):
            insertion_history(hw, (), 0, None)
        with pytest.raises(DeriveError):
            insertion_history(hw, ((1, 1),), 0, 1, delete=True)
        with pytest.raises(DeriveError):
            insertion_history(hw, ((1, -1),), 0, 1)


class TestDerivationChain:
    def test_relator_to_empty(self, hw, strict):
        h, final = derivation_history(hw, ((1, 1), (2, 1)), [("delete", 0, 1)])
        assert final == ()
        trace = strict.run(hw.sigma_w(((1, 1), (2, 1))), h)
        assert trace.ok and trace.final == hw.sigma_w(())

    def test_empty_steps(self, hw):
        h, final = derivation_history(hw, ((1, 1),), [])
        assert h == () and final == ((1, 1),)

    def test_random_chains(self, hw, strict, rng):
        for _ in range(10):
            w = random_positive(rng, 2, 2)
            steps = []
            cur = w
            for _ in range(3):
                r = rng.choice((1, 2))
                rel = tuple((a, 1) for a in hw.ee.relator(r))
                deletable = [p for p in range(len(cur) - 1)
                             if tuple(i for i, _ in cur[p:p + 2]) == hw.ee.relator(r)]
                if deletable and rng.random() < 0.4:
                    pos = rng.choice(deletable)
                    steps.append(("delete", pos, r))
                    cur = cur[:pos] + cur[pos + 2:]
                else:
                    pos = rng.randrange(len(cur) + 1)
                    steps.append(("insert", pos, r))
                    cur = cur[:pos] + rel + cur[pos:]
            h, final = derivation_history(hw, w, steps)
            assert final == cur
            trace = strict.run(hw.sigma_w(w), h)
            assert trace.ok and trace.final == hw.sigma_w(cur)

    def test_round_trip_inverse_steps(self, hw, strict):
        w = ((2, 1),)
        steps = [("insert", 0, 1), ("insert", 2, 2)]
        h, final = derivation_history(hw, w, steps)
        back = [("delete", 2, 2), ("delete", 0, 1)]
        h2, final2 = derivation_history(hw, final, back)
        assert final2 == w
        trace = strict.run(hw.sigma_w(w), h + h2)
        assert trace.ok and trace.final == hw.sigma_w(w)


class TestBarConjugatedInsertion:
    def test_specialization_to_plain_append(self, hw, bar):
        w = ((1, 1),)
        h = bar_conjugated_insertion(hw, w, (), 1)
        trace = bar.run(hw.sigma_w(w, flavor="bar"), h)
        expect = reduce_seq(w + tuple((a, 1) for a in hw.ee.relator(1)))
        assert trace.ok and trace.final == hw.sigma_w(expect, flavor="bar")

    def test_spec_example(self, hw, bar):
        h = bar_conjugated_insertion(hw, (), ((1, -1),), 1)
        trace = bar.run(hw.sigma_w((), flavor="bar"), h)
        assert trace.ok and trace.final == hw.sigma_w(((2, 1), (1, 1)), flavor="bar")

    def test_random_cases_hit_reduced_target(self, hw, bar, rng):
        for _ in range(40):
            w = random_reduced(rng, 2, 3)
            u = random_reduced(rng, 2, 3)
            r = rng.choice((1, 2))
            rel = tuple((a, 1) for a in hw.ee.relator(r))
            wp = reduce_seq(w + u + rel + tuple((i, -s) for i, s in reversed(u)))
            h = bar_conjugated_insertion(hw, w, u, r)
            trace = bar.run(hw.sigma_w(w, flavor="bar"), h)
            assert trace.ok, trace.failure
            assert trace.final == hw.sigma_w(wp, flavor="bar")

    def test_histories_are_reduced(self, hw, rng):
        from smkit.smachine import is_reduced_history
        for _ in range(20):
            h = bar_conjugated_insertion(
                hw, random_reduced(rng, 2, 3), random_reduced(rng, 2, 3),
                rng.choice((1, 2)))
            assert is_reduced_history(h)


class TestGeneratorRange:
    @pytest.mark.parametrize("word", (((0, 1),), ((7, 1),), ((1, 1), (7, 1))),
                             ids=("a0", "a7", "a1-a7"))
    def test_rejected_before_any_rule_is_built(self, hw, word, monkeypatch):
        import smkit.derive

        def no_rule(*args):
            raise AssertionError("a rule was built")

        monkeypatch.setattr(smkit.derive, "RuleId", no_rule)
        bad = word[-1][0]
        calls = (
            lambda: insertion_history(hw, word, 0, 1),
            lambda: insertion_history(hw, word, 0, 1, delete=True),
            lambda: derivation_history(hw, word, [("insert", 0, 1)]),
            lambda: bar_conjugated_insertion(hw, word, (), 1),
            lambda: bar_conjugated_insertion(hw, (), word, 1),
        )
        for call in calls:
            with pytest.raises(DeriveError, match=f"a{bad} names no generator"):
                call()


class TestCopyHistory:
    def test_copy_shape(self):
        h = copy_history("2", ((1, 1), (2, -1)), r=1)
        assert [r.family for r in h] == ["2", "2"]
        assert [r.sign for r in h] == [1, -1]
        assert all(r.bar for r in h)

    def test_rejects_transition_families(self):
        with pytest.raises(DeriveError):
            copy_history("12", ((1, 1),), r=1)


class TestAcceptBFS:
    def test_depth_zero_on_target(self, hw, strict):
        trace = accept_bfs(strict, hw.sigma_w(()), 0)
        assert trace is not None and trace.history == ()

    def test_negative_max_steps_is_a_value_error(self, hw, strict):
        W = hw.parse_admissible(parse_word("K1(e,1)"))
        for max_steps in (-1, -5):
            stats = {}
            with pytest.raises(ValueError, match="max_steps must be at least 0"):
                accept_bfs(strict, W, max_steps, stats)
            assert stats == {}

    def test_zero_budget_non_target(self, hw, strict):
        W = strict.apply(parse_rule("t12(r1)"), hw.sigma_w(()))
        assert accept_bfs(strict, W, 0) is None

    def test_finds_target_from_mid_choreography(self, hw, strict):
        h = insertion_history(hw, (), 0, 1)
        W = strict.run(hw.sigma_w(()), h[:4]).final
        assert not is_accept_target(hw, W)
        trace = accept_bfs(strict, W, len(h))
        assert trace is not None and is_accept_target(hw, trace.final)

    def test_budget_at_least_insertion_length_suffices(self, hw, strict):
        # starting just after the first transition, the BFS must reach a
        # standard word within the remaining choreography length
        h = insertion_history(hw, ((1, 1),), 1, 2)
        W = strict.run(hw.sigma_w(((1, 1),)), h[:2]).final
        trace = accept_bfs(strict, W, len(h))
        assert trace is not None

    def test_deterministic(self, hw, strict):
        h = insertion_history(hw, (), 0, 1)
        W = strict.run(hw.sigma_w(()), h[:4]).final
        t1 = accept_bfs(strict, W, 10)
        t2 = accept_bfs(strict, W, 10)
        assert t1.history == t2.history

    def test_target_shapes(self, hw):
        assert is_accept_target(hw, hw.sigma_w(((1, 1),)))
        assert is_accept_target(hw, hw.sigma_w(((1, -1), (2, 1)), flavor="bar"))
        W = hw.sigma_w(()).with_coord(hw, hw.ee.coords()[6])
        assert not is_accept_target(hw, W)

    def test_node_budget_stops_a_growing_search(self, hw, strict):
        # each age rule lengthens the K1-zone word, so unbounded this search
        # grows for as long as memory lasts
        W = hw.parse_admissible(parse_word("K1(e,1) L1(e,1)"))
        for budget in (1, 500):
            stats = {}
            assert accept_bfs(strict, W, 30, stats, max_nodes=budget) is None
            assert stats["stop"] == "budget" and stats["seen"] == budget + 1
            # the stop falls among the words of one expanded node
            assert stats["seen"] <= 1 + stats["generated"] - stats["dedup_hits"]

    def test_node_budget_leaves_smaller_searches_alone(self, hw, strict):
        h = insertion_history(hw, (), 0, 1)
        mid = strict.run(hw.sigma_w(()), h[:4]).final
        lone = hw.parse_admissible(parse_word("K1(e,1)"))
        for W, k in ((mid, len(h)), (lone, 30)):
            stats, bounded = {}, {}
            want = accept_bfs(strict, W, k, stats)
            got = accept_bfs(strict, W, k, bounded, max_nodes=stats["seen"])
            assert bounded == stats
            assert (got is None) == (want is None)
            if got is not None:
                assert (got.history, got.words) == (want.history, want.words)

    def test_node_budget_below_one_is_a_value_error(self, hw, strict):
        W = hw.parse_admissible(parse_word("K1(e,1)"))
        for max_nodes in (0, -3):
            with pytest.raises(ValueError, match="max_nodes must be at least 1"):
                accept_bfs(strict, W, 5, max_nodes=max_nodes)

    @pytest.mark.parametrize("flavor", ["strict", "mixed"])
    def test_same_trace_as_text_keyed_search(self, hw, rng, request, flavor):
        # the pruned search against the unpruned text-keyed one: seeded
        # walks of 1-3 steps off Sigma(w)K1, searched with their own length
        # as budget; walks of fixed family sequences ending at (r,2), (r,3),
        # (r,4) and (r,5), searched with their length and one step less;
        # and words at (e,2)..(e,5) with max_steps 0..5 ((e,2) and (e,3)
        # have no path to (e,1))
        machine = request.getfixturevalue(flavor)
        starts = []
        for steps in (1, 2, 3, 3):
            w = random_positive(rng, hw.ee.mbar, 2) if flavor == "strict" \
                else random_reduced(rng, hw.ee.mbar, 2)
            W = hw.sigma_w(w, flavor)
            for _ in range(steps):
                W = rng.choice(machine.applicable_rules(W))[1]
            starts.append((W, steps))
        for sequence in ("12 23 3 3 3", "51 5 5 5 5", "1 1 12", "12 23 3 34"):
            families = sequence.split()
            for _ in range(2):
                W = _family_walk(hw, machine, rng, flavor, families)
                starts += [(W, len(families)), (W, len(families) - 1)]
        for omega in (2, 3, 4, 5):
            W = hw.sigma_w(random_positive(rng, hw.ee.mbar, 2), flavor)
            W = hw.parse_admissible(W.with_coord(hw, Coord(None, omega)).flat(), flavor)
            starts += [(W, k) for k in range(6)]
        assert {(W.coord.r is None, W.coord.omega) for W, _ in starts} >= \
            {(False, 2), (False, 3), (False, 4), (False, 5), (True, 2), (True, 5)}
        found = pruned = 0
        for W, k in starts:
            stats = {}
            got, want = accept_bfs(machine, W, k, stats), oracles.accept_bfs(machine, W, k)
            assert (got is None) == (want is None), (W.text(), k)
            if got is not None:
                found += 1
                assert (got.history, got.words, got.final) == \
                    (want.history, want.words, want.final)
            else:
                assert stats["seen"] == 1 + stats["generated"] - stats["dedup_hits"]
            pruned += stats["pruned"]
        assert found >= 16 and pruned > 0

    @pytest.mark.parametrize("flavor", ["strict", "mixed"])
    def test_stats_say_why_the_search_stopped(self, hw, request, flavor):
        # an accepted walk, a lone state letter whose frontier empties
        # (every rule leaves it alone or only moves its coordinate) and a
        # word at (e,2) cut at depth 2
        machine = request.getfixturevalue(flavor)
        h = insertion_history(hw, (), 0, 1)
        mid = machine.run(hw.parse_admissible(hw.sigma_w(()).flat(), flavor), h[:4]).final
        lone = hw.parse_admissible(parse_word("K1(e,1)"), flavor)
        cut = hw.sigma_w(((1, 1),)).with_coord(hw, Coord(None, 2))
        cut = hw.parse_admissible(cut.flat(), flavor)
        for W, k, stop in ((mid, len(h), "accepted"), (lone, 30, "exhausted"),
                           (cut, 2, "depth")):
            stats = {}
            got = accept_bfs(machine, W, k, stats)
            plain, want = accept_bfs(machine, W, k), oracles.accept_bfs(machine, W, k)
            assert stats["stop"] == stop
            assert (got is None) == (plain is None) == (want is None) == (stop != "accepted")
            if got is not None:
                assert (got.history, got.words) == (plain.history, plain.words) == \
                    (want.history, want.words)
            else:
                # every generated word is new or a dedup hit
                assert stats["seen"] == 1 + stats["generated"] - stats["dedup_hits"]
            assert stats["expanded"] >= 1

    def test_stats_on_a_target(self, hw, strict):
        stats = {}
        assert accept_bfs(strict, hw.sigma_w(()), 3, stats).history == ()
        assert stats == {"expanded": 0, "generated": 0, "dedup_hits": 0, "pruned": 0,
                         "seen": 1, "stop": "accepted"}

    @pytest.mark.parametrize("flavor", ["strict", "mixed"])
    def test_unreachable_start_is_pruned_at_once(self, hw, request, flavor):
        # no rule leads out of {(e,2), (e,3)} to (e,1): the start's
        # candidates are all pruned and no word is built, however deep the
        # search may go
        machine = request.getfixturevalue(flavor)
        W = hw.parse_admissible(parse_word("K1(e,2) L1(e,2)"), flavor)
        stats = {}
        assert accept_bfs(machine, W, 10 ** 9, stats) is None
        candidates = len(_targets(machine, W.coord))
        assert stats == {"expanded": 1, "generated": 0, "dedup_hits": 0,
                         "pruned": candidates, "seen": 1, "stop": "depth"}
        assert candidates > 0
        assert machine.applicable_rules(W, 10 ** 9) == []
        assert machine.applicable_rules(W)

    @pytest.mark.parametrize("flavor", ["strict", "mixed"])
    def test_reach_skips_exactly_the_far_rules(self, hw, rng, request, flavor):
        # applicable_rules(W, reach) is the full list less the rules whose
        # target is out of reach, and beyond counts the signed rules
        # leaving W.coord that it skips, applicable or not
        machine = request.getfixturevalue(flavor)
        far = float("inf")
        words = [_family_walk(hw, machine, rng, flavor, sequence.split())
                 for sequence in ("1", "12", "12 23", "12 23 34", "51", "51 45")]
        W = hw.sigma_w(random_positive(rng, hw.ee.mbar, 2), flavor)
        words += [hw.parse_admissible(W.with_coord(hw, Coord(None, omega)).flat(), flavor)
                  for omega in (2, 3, 4, 5)]
        for W in words:
            full = machine.applicable_rules(W)
            leaving = _targets(machine, W.coord)
            for reach in range(4):
                near = [(rid, nxt) for rid, nxt in full
                        if machine.distance.get(nxt.coord, far) <= reach]
                assert machine.applicable_rules(W, reach) == near
                assert machine.beyond(W.coord, reach) == \
                    sum(1 for dst in leaving if machine.distance.get(dst, far) > reach)

    def test_distance_to_the_start_coordinate(self, strict, mixed):
        want = {Coord(None, 1): 0, Coord(None, 5): 1, Coord(None, 4): 2}
        for r in (1, 2):
            want.update({Coord(r, 2): 1, Coord(r, 5): 1, Coord(r, 3): 2, Coord(r, 4): 2})
        for machine in (strict, mixed):
            assert machine.distance == want
            assert Coord(None, 2) not in machine.distance
            assert Coord(None, 3) not in machine.distance
            assert machine.distance == _relaxed_distances(machine)


class TestPinnedSearch:
    """The answers and stats of a fixed, seeded query set (``pinned_searches``)
    as the search gave them when it still rebuilt the word each node came
    from and replayed the accepting history with ``Machine.run``."""

    # sha256 over the JSON of every query's ``_answer``, in query order
    DIGEST = "897fa67d8c8dfe5e46757b9ec8c221c034bcd1c1d690a018960497862c91ff9d"
    # queries, accepted, and the sums of seen, generated, dedup_hits, pruned
    TOTALS = (195, 120, 9504, 12957, 3409, 9015)

    def test_answers_and_stats(self, hw, strict, mixed, bar):
        answers = []
        for machine, W, k, budget in pinned_searches(hw, strict, mixed, bar):
            stats = {}
            answers.append(_answer(accept_bfs(machine, W, k, stats, budget), stats))
        totals = (len(answers), sum(a["ok"] is True for a in answers),
                  *(sum(a["stats"][key] for a in answers)
                    for key in ("seen", "generated", "dedup_hits", "pruned")))
        digest = hashlib.sha256(json.dumps(answers, sort_keys=True).encode()).hexdigest()
        assert (totals, digest) == (self.TOTALS, self.DIGEST)

    def test_traces_are_the_replayed_histories(self, hw, strict, mixed, bar):
        accepted = 0
        for machine, W, k, budget in pinned_searches(hw, strict, mixed, bar):
            trace = accept_bfs(machine, W, k, max_nodes=budget)
            if trace is not None:
                accepted += 1
                want = machine.run(W, trace.history)
                assert (trace.history, trace.words, trace.ok) == \
                    (want.history, want.words, want.ok), (W.text(), k)
                assert trace.words[0] is W
        assert accepted == self.TOTALS[1]

    def test_each_parent_is_the_inverse_step(self, hw, strict, mixed, bar, monkeypatch):
        # every edge (cur, rid, nxt) the searches build: rid^-1 takes nxt
        # back to cur, and naming (rid^-1, cur) as the pair to list leaves
        # applicable_rules(nxt, reach) as it is
        edges = {}
        for machine in (strict, mixed, bar):
            monkeypatch.setattr(machine, "applicable_rules",
                                _recording(machine, machine.applicable_rules, edges))
        for machine, W, k, budget in pinned_searches(hw, strict, mixed, bar):
            accept_bfs(machine, W, k, max_nodes=budget)
        monkeypatch.undo()
        assert len(edges) > 1000
        for machine, cur, rid, nxt in edges:
            assert oracles.step(machine, rid.inverse, nxt) == (cur, None)
            for reach in (None, 0, 1, 2, 3):
                assert machine.applicable_rules(nxt, reach, (rid.inverse, cur)) == \
                    machine.applicable_rules(nxt, reach), (nxt.text(), rid, reach)


class TestAcceptTarget:
    """``is_accept_target`` against ``oracles.is_accept_target``, which looks
    each sector's zone up from its letter, on targets, near misses and every
    word the pinned searches test."""

    def test_same_answers_as_the_oracle(self, hw, strict, mixed, bar, monkeypatch):
        rng = random.Random(PIN_SEED)
        words = []
        for _ in range(6):
            v = random_positive(rng, hw.ee.mbar, 3, 1)
            u = random_reduced(rng, hw.ee.mbar, 3, 1)
            words += [hw.sigma_w(v), hw.sigma_w(u, "bar"), hw.sigma_w(u, "mixed"),
                      _sigma_power(hw, v, 2), _sigma_power(hw, u, 2, bar=True)]
        words += [hw.sigma_w(()), hw.sigma_w((), "bar"),
                  hw.parse_admissible(parse_word("K1(e,1) L1(e,1)"))]
        near = []
        for W in words:
            near += _one_letter_edits(hw, W, rng)
            near.append(W.with_coord(hw, Coord(1, 2), True if W.flavor == "bar" else None))
        words += near
        # every word the pinned searches test, start and built words alike
        tested = []

        def recording(hw_, W):
            tested.append(W)
            return is_accept_target(hw_, W)

        monkeypatch.setattr("smkit.derive.is_accept_target", recording)
        for machine, W, k, budget in pinned_searches(hw, strict, mixed, bar):
            accept_bfs(machine, W, k, max_nodes=budget)
        monkeypatch.undo()
        assert len(tested) > 5000
        words += tested
        got = [is_accept_target(hw, W) for W in words]
        assert got == [oracles.is_accept_target(hw, W) for W in words]
        # each kind of word answers both ways somewhere
        assert sum(got[:len(words) - len(tested)]) >= 30
        assert 0 < sum(got) < len(got)


def _sigma_power(hw, w, s, bar=False):
    """Sigma(w)^s K1(e,1), parsed in the strict or bar flavor."""
    body = hw.sigma_four((), (), w, (), bar=bar).letters * s
    return hw.parse_admissible(body + ((hw.state("K", 1, Coord(None, 1), bar), 1),),
                               "bar" if bar else "strict")


def _one_letter_edits(hw, W, rng):
    """Words one letter off W, not validated: in a P-sector one letter's
    index or sign changed, one letter dropped or one added; and one letter
    added to a K- and to an L-sector."""
    out = []

    def edited(k, inner):
        inners = W.inners[:k] + (tuple(inner),) + W.inners[k + 1:]
        return AdmissibleWord(W.flavor, W.states, inners)

    zones = [hw.zone_after((st.base, s)) for st, s in W.states[:-1]]
    for kind in "PKL":
        ks = [k for k, zone in enumerate(zones) if zone.kind == kind]
        if not ks:
            continue
        k = rng.choice(ks)
        inner, zone = list(W.inners[k]), zones[k]
        bar = any(t.bar for t, _ in inner) or W.flavor == "bar"
        add = (hw.tape(rng.randint(1, hw.ee.mbar), zone, bar), rng.choice((1, -1)))
        out.append(edited(k, inner + [add]))
        if kind == "P" and inner:
            p = rng.randrange(len(inner))
            t, e = inner[p]
            other = hw.tape(t.i % hw.ee.mbar + 1, t.zone, t.bar)
            for letter in ((other, e), (t, -e)):
                out.append(edited(k, inner[:p] + [letter] + inner[p + 1:]))
            out.append(edited(k, inner[:p] + inner[p + 1:]))
    return out


PIN_SEED = 27
# perfbench's Search.WALKS family sequences
PIN_WALKS = ("1 12 2", "1 1 12", "51 5 5", "12 23 3", "12 23 3 3 3", "51 5 5 5 5")


def pinned_searches(hw, strict, mixed, bar):
    """(machine, W, max_steps, max_nodes) for each query TestPinnedSearch
    pins.  Per machine: two seeded walks of each family sequence of
    perfbench's Search.WALKS, and a word at each of (e,2)..(e,5) (the
    exhausted queries of Search start at (e,2) and (e,3), with max_steps
    3), each searched with its walk's length (3 off Sigma), -1, +1 and
    +2.
    Then the strict search from K1(e,1) L1(e,1) at 30 steps, which grows
    without end, under node budgets of 1, 200 and 500."""
    rng = random.Random(PIN_SEED)
    queries = []
    for flavor, machine in (("strict", strict), ("mixed", mixed), ("bar", bar)):
        starts = []
        for sequence in PIN_WALKS:
            families = sequence.split()
            starts += [(_family_walk(hw, machine, rng, flavor, families), len(families))
                       for _ in range(2)]
        for omega in (2, 3, 4, 5):
            w = random_positive(rng, hw.ee.mbar, 2) if flavor == "strict" \
                else random_reduced(rng, hw.ee.mbar, 2)
            W = hw.sigma_w(w, flavor).with_coord(hw, Coord(None, omega),
                                                 True if flavor == "bar" else None)
            starts.append((hw.parse_admissible(W.flat(), flavor), 3))
        queries += [(machine, W, k + more, None) for W, k in starts for more in (-1, 0, 1, 2)]
    W = hw.parse_admissible(parse_word("K1(e,1) L1(e,1)"))
    queries += [(strict, W, 30, budget) for budget in (1, 200, 500)]
    return queries


def _answer(trace, stats):
    """A query's answer as JSON data: the history, the trace's words as
    text and ``ok`` (all None when nothing was found), and the stats."""
    if trace is None:
        return {"history": None, "words": None, "ok": None, "stats": stats}
    return {"history": history_text(trace.history), "words": [W.text() for W in trace.words],
            "ok": trace.ok, "stats": stats}


def _recording(machine, applicable_rules, edges):
    """applicable_rules that keeps each (machine, W, rid, W o rid) it built
    as a key of ``edges``; a pair named by ``back`` is listed, not built."""
    def recording(W, reach=None, back=None):
        pairs = applicable_rules(W, reach, back)
        for rid, nxt in pairs:
            if back is None or rid is not back[0]:
                edges[machine, W, rid, nxt] = None
        return pairs
    return recording


def _family_walk(hw, machine, rng, flavor, families):
    """A freely reduced walk off Sigma(w)K1 taking one rule of each family
    in turn, retrying w until one exists; returns its last word."""
    for _ in range(200):
        w = random_positive(rng, hw.ee.mbar, 2) if flavor == "strict" \
            else random_reduced(rng, hw.ee.mbar, 2)
        W, last = hw.sigma_w(w, flavor), None
        for family in families:
            cands = [(rid, nxt) for rid, nxt in machine.applicable_rules(W)
                     if rid.family == family and not (last and rid == last.inverse)]
            if not cands:
                break
            last, W = rng.choice(cands)
        else:
            return W
    raise AssertionError(f"no walk of families {families}")


def _targets(machine, coord):
    """The target coordinate of each signed rule leaving coord."""
    return [machine.coords_of(signed)[1] for rid in machine.rules
            for signed in (rid, rid.inverse) if machine.coords_of(signed)[0] == coord]


def _relaxed_distances(machine):
    """Steps to (e,1) by relaxing every signed rule's coords_of until
    nothing changes."""
    dist = {Coord(None, 1): 0}
    changed = True
    while changed:
        changed = False
        for rid in machine.rules:
            for signed in (rid, rid.inverse):
                src, dst = machine.coords_of(signed)
                if dst in dist and dist[dst] + 1 < dist.get(src, float("inf")):
                    dist[src] = dist[dst] + 1
                    changed = True
    return dist
