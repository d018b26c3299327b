"""The four workloads: set-up, seeded inputs, one op, and its known answer.

Each workload hands the run loop an endless stream of inputs in *passes*:
one pass holds one input of every kind the workload mixes, in a fixed
order, so any whole number of passes has the same composition whatever the
seed.  The seed picks only the contents.  Inputs are built outside the
timed region and the library sees nothing else.

Why each workload exists (which layer it isolates) is in its docstring.
"""

from __future__ import annotations

import hashlib
import io
import json
import os

from smkit import bands, derive, h2, presentation, words
from smkit.hardware import Hardware, load_ee_file
from smkit.smachine import Machine
from smkit.words import BaseLetter, Coord, CyclicWord, Word, wletter

E1 = Coord(None, 1)
HERE = os.path.dirname(os.path.abspath(__file__))
# Dyck words are stored as strings; capitals are inverses.
DYCK_LETTERS = {"a": ("a", 1), "A": ("a", -1), "b": ("b", 1), "B": ("b", -1)}


def matching_digest(matchings):
    """Short digest of a set of matchings (each a frozenset of 2-sets)."""
    canon = sorted(tuple(sorted(tuple(sorted(p)) for p in m)) for m in matchings)
    return hashlib.sha256(repr(canon).encode()).hexdigest()[:12]


def load_golden(root):
    """Pinned sha256, per-kind counts and line count of `present` at N=8."""
    with open(os.path.join(root, "tests", "golden", "presentation_n8.json"),
              encoding="utf-8") as f:
        return json.load(f)


# ---------------------------------------------------------------------------
# seeded word and history generators
# ---------------------------------------------------------------------------

def random_word(rng, mbar, length, positive):
    """Freely reduced word of the given length over a_1..a_mbar."""
    out = []
    for _ in range(length):
        while True:
            letter = (rng.randrange(1, mbar + 1), 1 if positive else rng.choice((1, -1)))
            if not out or out[-1] != (letter[0], -letter[1]):
                out.append(letter)
                break
    return tuple(out)


def signed_rules_by_source(machine):
    """Signed rule names of a machine, grouped by source coordinate."""
    out = {}
    for rid in machine.rule_ids():
        for signed in (rid, rid.inverse):
            out.setdefault(machine.coords_of(signed)[0], []).append(signed)
    return out


def walk(machine, by_source, W, rng, steps, allow=None):
    """A freely reduced random computation of at most ``steps`` rules;
    ``allow(rid, step)`` restricts the rule taken at each step."""
    history = []
    for step in range(steps):
        cands = [rid for rid in by_source.get(W.coord, ())
                 if (allow is None or allow(rid, step))
                 and not (history and rid == history[-1].inverse)
                 and machine.applicable(rid, W) is None]
        if not cands:
            break
        rid = rng.choice(cands)
        history.append(rid)
        W = machine.apply(rid, W)
    return tuple(history), W


def exact_walk(machine, by_source, start, rng, steps, allow=None):
    """Retry ``start()`` until a walk of exactly ``steps`` rules exists."""
    for _ in range(200):
        W0 = start()
        history, W = walk(machine, by_source, W0, rng, steps, allow)
        if len(history) == steps:
            return W0, history, W
    raise RuntimeError(f"no computation of length {steps} found")


def bar_word(hw, rng, coord):
    """C5-shaped bar word: Sigma with one-letter zone contents at coord,
    block 1 empty, parsed in the mixed flavor."""
    parts = [random_word(rng, hw.ee.mbar, rng.randrange(2), positive=False) for _ in range(4)]
    body = hw.sigma_four(*parts, r=coord.r, i=coord.omega, bar=True)
    flat = Word(body.letters + ((hw.state("K", 1, coord, True), 1),), reduce=False)
    return hw.parse_admissible(flat, "mixed")


def plain_band_input(hw, mixed, by_source, rng):
    """(W, rid): Sigma(w)K1 for a positive w, read in the mixed flavor, and
    a plain rule applicable to it."""
    w = random_word(rng, hw.ee.mbar, rng.randrange(4), positive=True)
    W = hw.parse_admissible(hw.sigma_w(w).flat(), "mixed")
    cands = [rid for rid in by_source[E1] if not rid.bar and mixed.applicable(rid, W) is None]
    return W, rng.choice(cands)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Workload:
    name = ""
    # setup_s is the median of setup_samples samples, each the mean of one
    # set-up in each of setup_rounds rounds spread over the run (run.py,
    # SetupTimer).  Most set-ups take a few milliseconds or less.
    setup_samples = 21
    setup_rounds = 20
    trace_passes = 1  # passes replayed under tracing

    def __init__(self, root):
        self.root = root

    def path(self, *parts):
        return os.path.join(self.root, *parts)

    def setup(self):
        raise NotImplementedError

    def inputs(self, ctx, rng):
        """Endless iterator of passes (lists of inputs)."""
        raise NotImplementedError

    def op(self, ctx, item):
        raise NotImplementedError

    def check(self, ctx, item, result):
        raise NotImplementedError


class Compile(Workload):
    """emit + write_presentation + a sha256/count check, cycling over
    (sample.ee, N=8), (sample.ee, N=12) and the four-relator Ee at N=8,
    one op each per pass: op_p50_ms is the N=12 op, op_p90_ms lies between
    it and the four-relator op.

    All the time goes to presentation/words (normalize_relator, Booth
    rotation, hashing); the relator count grows with N and with Ee.  No
    machine stepping or band check runs, so machine-layer changes leave it
    alone.  The inputs are fixed, so the seed has no effect; (sample.ee,
    N=8) always runs first and pays for filling the symbol-key cache, as
    `smkit present` does on every call."""

    name = "compile"

    def setup(self):
        sample = load_ee_file(self.path("tests", "data", "sample.ee"))
        four = load_ee_file(os.path.join(HERE, "data", "four.ee"))
        return {"inputs": [("sample", Hardware(sample, 8)), ("sample", Hardware(sample, 12)),
                           ("four", Hardware(four, 8))]}

    def inputs(self, ctx, rng):
        ctx["golden"] = load_golden(self.root)
        ctx["round_trip_done"] = False
        while True:
            yield ctx["inputs"]

    def op(self, ctx, item):
        _, hw = item
        pres = presentation.emit(hw)
        buf = io.StringIO()
        presentation.write_presentation(pres, buf)
        text = buf.getvalue()
        return pres, text, hashlib.sha256(text.encode()).hexdigest(), pres.stats()

    def check(self, ctx, item, result):
        label, hw = item
        pres, text, digest, stats = result
        lines = text.count("\n")
        if label == "sample" and hw.N == 8:
            golden = ctx["golden"]
            ok = (digest == golden["sha256"] and stats == golden["stats"]
                  and lines == golden["lines"])
            if ok and not ctx["round_trip_done"]:
                ctx["round_trip_done"] = True
                ok = presentation.read_presentation(io.StringIO(text)) == pres
            return ok
        expect = c4_counts(hw)
        return stats == expect and lines == sum(expect.values()) + 2


def c4_counts(hw):
    """Closed-form relator counts per kind (acceptance criterion C4)."""
    e, mbar, N = len(hw.ee.relators), hw.ee.mbar, hw.N
    nrules = mbar * (1 + 4 * e) + 3 * e + 2 * (e - 1)
    unlocked = {"1": 2, "12": 2, "2": 3, "23": 2, "3": 3,
                "34": 2, "4": 3, "45": 2, "5": 3, "51": 2}
    per_family = {"1": mbar, "12": e - 1, "2": e * mbar, "23": e, "3": e * mbar,
                  "34": e - 1, "4": e * mbar, "45": e, "5": e * mbar, "51": e}
    return {
        "main": nrules * 4 * N,
        "theta_a": sum(per_family[f] * unlocked[f] * N * mbar for f in per_family),
        "a_x": nrules * 3 * N * mbar * mbar,
        "k_x": nrules * 2 * N * mbar * e * 5,
        "bar_main": nrules * 4 * N,
        "bar_theta_a": sum(per_family[f] * unlocked[f] * (N - 1) * mbar for f in per_family),
        "hub": 1,
    }


class Verify(Workload):
    """Build and verify one object per op: bar trapezia of height 1-6 (C5
    shape), plain bands on strict standard words, and one op in ten a band
    with a tampered cell, whose known answer is a violation at that cell.

    Bands, relator-index lookups and the machine replay in verify_trapezium
    do the work; set-up emits the presentation, as `smkit band` and
    `smkit trapezium` do on every call."""

    name = "verify"
    # A set-up emits the presentation (3-5 s); a second one held while the
    # first is in use would show in peak_rss_mb, so all three come first.
    setup_samples = 3
    setup_rounds = 1
    # Op cost grows with height (one relator index per band), so the costs
    # cluster by kind.  The counts put the percentiles inside clusters rather
    # than in the gaps between them: with the three bands, op_p50_ms falls
    # among the height-2 trapezia (ops 5-7 of 12 by cost) and op_p90_ms among
    # the height-6 ones (the top 2 of 12).
    HEIGHTS = (1, 2, 2, 2, 3, 4, 5, 6, 6)

    def setup(self):
        hw = Hardware(load_ee_file(self.path("tests", "data", "sample.ee")), 8)
        mixed = Machine(hw, "mixed")
        return {"hw": hw, "mixed": mixed, "pres": presentation.emit(hw)}

    def inputs(self, ctx, rng):
        hw, mixed = ctx["hw"], ctx["mixed"]
        by_source = signed_rules_by_source(mixed)
        coords = hw.ee.coords()
        tamper_letter = hw.tape(1, BaseLetter("P", 2))
        while True:
            batch = []
            for height in self.HEIGHTS:
                W0, history, _ = exact_walk(
                    mixed, by_source, lambda: bar_word(hw, rng, rng.choice(coords)),
                    rng, height, allow=lambda rid, _: rid.bar)
                batch.append(("trapezium", W0, history, None))
            for tamper in (None, None, tamper_letter):
                W, rid = plain_band_input(hw, mixed, by_source, rng)
                batch.append(("band", W, rid, tamper))
            yield batch

    def op(self, ctx, item):
        kind, W, arg, tamper = item
        pres, mixed = ctx["pres"], ctx["mixed"]
        if kind == "trapezium":
            obj = bands.trapezium(pres, mixed, W, arg)
            return None, bands.verify(obj, pres, mixed)
        obj = bands.theta_band(pres, mixed, W, arg)
        cell = None
        if tamper is not None:
            cell = len(obj.cells) // 2
            c = obj.cells[cell]
            cells = list(obj.cells)
            cells[cell] = bands.Cell(c.kind, c.left, c.right, c.bottom,
                                     c.top * wletter(tamper), c.dir)
            obj = bands.Band(obj.rid, tuple(cells), obj.bottom, obj.top, obj.base)
        return cell, bands.verify(obj, pres, mixed)

    def check(self, ctx, item, result):
        cell, report = result
        if item[3] is None:
            return report == []
        return any(line.startswith(f"cell {cell}:") for line in report)


class Search(Workload):
    """One accept_bfs query per op over the strict and mixed machines.

    Accepted queries are words k seeded steps off Sigma(w)K1, |w| = 2,
    searched with max_steps = k: known answer accepted with |h| <= k.
    Exhausted queries start at coordinate (e,2) or (e,3), which no rule
    connects to (e,1), with max_steps = 3: known answer none, after the full
    frontier.  Nearly all the time is the rejection path of
    Machine.applicable plus Hardware.validate, with no presentation.

    The cost of one query depends mostly on the rule families its walk took
    (single queries of unconstrained walks range over 0.03-2.4 s), so each
    pass holds a fixed number of walks per family sequence below and the
    seed picks the letters, relators and signs.  Walks that start with
    several t1 copies (about 1 s each, a wide frontier at (e,1)) and mixed
    walks longer than three steps are left out.  The counts put the
    percentiles inside clusters of like queries rather than in the gaps
    between them: op_p50_ms among the three-step strict walks (about 65 ms
    scaled on the baseline host; 13 of 28 ops, above 5 cheaper ones) and
    op_p90_ms among the five-step strict walks (about 300 ms; the top 6 of
    28)."""

    name = "search"
    trace_passes = 2
    WALKS = {
        "strict": (("1 12 2", 3), ("1 1 12", 4), ("51 5 5", 4), ("12 23 3", 4),
                   ("12 23 3 3 3", 3), ("51 5 5 5 5", 3)),
        "mixed": (("1 12 2", 1), ("51 5 5", 1), ("12 23 3", 1)),
    }
    EXHAUSTED = (("strict", 2), ("strict", 2), ("strict", 3), ("mixed", 3))
    EXHAUST_STEPS = 3

    def setup(self):
        hw = Hardware(load_ee_file(self.path("tests", "data", "sample.ee")), 8)
        return {"hw": hw, "strict": Machine(hw, "strict"), "mixed": Machine(hw, "mixed")}

    def inputs(self, ctx, rng):
        hw = ctx["hw"]
        by_source = {f: signed_rules_by_source(ctx[f]) for f in ("strict", "mixed")}
        while True:
            batch = []
            for flavor, walks in self.WALKS.items():
                for sequence, count in walks:
                    families = sequence.split()
                    for _ in range(count):
                        _, _, W = exact_walk(
                            ctx[flavor], by_source[flavor],
                            lambda: self._standard(hw, rng, flavor), rng, len(families),
                            allow=lambda rid, step: rid.family == families[step])
                        batch.append((flavor, W, len(families)))
            for flavor, omega in self.EXHAUSTED:
                W = self._standard(hw, rng, flavor).with_coord(hw, Coord(None, omega))
                batch.append((flavor, hw.parse_admissible(W.flat(), flavor), None))
            yield batch

    @staticmethod
    def _standard(hw, rng, flavor):
        return hw.sigma_w(random_word(rng, hw.ee.mbar, 2, positive=flavor == "strict"), flavor)

    def op(self, ctx, item):
        flavor, W, k = item
        return derive.accept_bfs(ctx[flavor], W, self.EXHAUST_STEPS if k is None else k)

    def check(self, ctx, item, trace):
        _, W, k = item
        if k is None:
            return trace is None
        return (trace is not None and trace.ok and len(trace.history) <= k
                and trace.words[0] == W
                and derive.is_accept_target(ctx["hw"], trace.final))


class Combinatorics(Workload):
    """One op is one cyclic Dyck word of length <= 12 over two letters
    (enumerate_pairings + find_minus_pairing) or one pair of uniform x-words
    of at most four syllables (x_words_conjugate), three Dyck words to one
    pair.  The only workload that reaches the Dyck code in words and h2.
    Known answers were computed once by tests/oracles.py
    (perfbench/make_data.py)."""

    name = "combinatorics"
    trace_passes = 2000

    def setup(self):
        return {"hw": Hardware(load_ee_file(self.path("tests", "data", "sample.ee")), 8)}

    def inputs(self, ctx, rng):
        with open(os.path.join(HERE, "data", "combinatorics.json"), encoding="utf-8") as f:
            data = json.load(f)
        dyck = [("dyck", CyclicWord(tuple(DYCK_LETTERS[c] for c in text)), (n, digest, minus))
                for text, n, digest, minus in data["dyck"]]
        xpairs = [("xpair", (self._xword(p["w1"]), self._xword(p["w2"])), p["conjugate"])
                  for p in data["xpairs"]]
        rng.shuffle(dyck)
        rng.shuffle(xpairs)
        k = 0
        while True:
            yield [dyck[(3 * k + j) % len(dyck)] for j in range(3)] + [xpairs[k % len(xpairs)]]
            k += 1

    @staticmethod
    def _xword(runs):
        return CyclicWord(h2.word_of([(words.parse_symbol(tok)[0], e) for tok, e in runs]).letters)

    def op(self, ctx, item):
        kind, arg, _ = item
        if kind == "dyck":
            return words.enumerate_pairings(arg), words.find_minus_pairing(arg)
        return h2.x_words_conjugate(ctx["hw"], *arg)[0]

    def check(self, ctx, item, result):
        kind, _, answer = item
        if kind == "xpair":
            return result == answer
        pairings, minus = result
        n, digest, has_minus = answer
        return (len(pairings) == n and (minus is not None) == has_minus
                and matching_digest({p.matching() for p in pairings}) == digest)


WORKLOADS = {w.name: w for w in (Compile, Verify, Search, Combinatorics)}


# ---------------------------------------------------------------------------
# the CLI, once per traced run
# ---------------------------------------------------------------------------

def cli_inputs(root, rng):
    """Seeded word/history files for the CLI calls: a plain band, a bar
    trapezium of height 3, and a strict word 3 steps off Sigma(w)K1."""
    hw = Hardware(load_ee_file(os.path.join(root, "tests", "data", "sample.ee")), 8)
    mixed, strict = Machine(hw, "mixed"), Machine(hw, "strict")
    by_mixed, by_strict = signed_rules_by_source(mixed), signed_rules_by_source(strict)
    W, rid = plain_band_input(hw, mixed, by_mixed, rng)
    T0, history, _ = exact_walk(mixed, by_mixed,
                                lambda: bar_word(hw, rng, rng.choice(hw.ee.coords())),
                                rng, 3, allow=lambda rid, _: rid.bar)
    families = "12 23 3".split()
    _, _, A = exact_walk(strict, by_strict, lambda: Search._standard(hw, rng, "strict"), rng, 3,
                         allow=lambda rid, step: rid.family == families[step])
    return {
        "band_word": W.text(), "band_rule": repr(rid),
        "trap_word": T0.text(), "trap_history": "\n".join(repr(r) for r in history),
        "accept_word": A.text(),
    }
