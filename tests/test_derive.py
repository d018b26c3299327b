import pytest

import oracles
from genwords import random_positive, random_reduced
from smkit.derive import (
    DeriveError, LENGTH_C, LENGTH_L, accept_bfs, bar_conjugated_insertion,
    copy_history, derivation_history, insertion_history, is_accept_target,
)
from smkit.smachine import brief_history, is_historical_form, inverse_history
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

    @pytest.mark.parametrize("flavor", ["strict", "mixed"])
    def test_same_trace_as_text_keyed_search(self, hw, rng, request, flavor):
        # seeded walks of 1-3 steps off Sigma(w)K1, searched with their own
        # length as budget, plus words at (e,2), which no rule leads out of
        # to (e,1), searched to exhaustion
        machine = request.getfixturevalue(flavor)
        starts = []
        for steps in (1, 2, 3, 3):
            w = random_positive(rng, hw.ee.mbar, 2) if flavor == "strict" \
                else random_reduced(rng, hw.ee.mbar, 2)
            W = hw.sigma_w(w, flavor)
            for _ in range(steps):
                W = rng.choice(machine.applicable_rules(W))[1]
            starts.append((W, steps))
        W = hw.sigma_w(random_positive(rng, hw.ee.mbar, 2), flavor)
        W = W.with_coord(hw, Coord(None, 2))
        starts.append((hw.parse_admissible(W.flat(), flavor), 2))
        found = 0
        for W, k in starts:
            got, want = accept_bfs(machine, W, k), oracles.accept_bfs(machine, W, k)
            assert (got is None) == (want is None)
            if got is not None:
                found += 1
                assert (got.history, got.words, got.final) == \
                    (want.history, want.words, want.final)
        assert found >= 4

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
        assert stats == {"expanded": 0, "generated": 0, "dedup_hits": 0, "seen": 1,
                         "stop": "accepted"}
