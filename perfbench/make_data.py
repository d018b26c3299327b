"""Precompute the known answers of the combinatorics workload.

Run from the repository root:

    python3 perfbench/make_data.py

It writes perfbench/data/combinatorics.json.  Every answer comes from the
brute-force oracles in tests/oracles.py, never from the library code the
benchmark measures:

* dyck: cyclic Dyck words over {a, b} in canonical rotation, written with
  A = a^-1 and B = b^-1.  All words of length <= 10 and a fixed sample of
  the words of length 12.  Each entry is [word, number of pairings, digest
  of the set of pairings, has a minus pairing].
* xpairs: pairs of uniform cyclic x-words of at most four syllables, each
  written as [[x-letter token, exponent], ...], with the oracle's verdict on
  conjugacy.

The file is deterministic: the samples use a fixed seed, so running the
script again reproduces it.
"""

import json
import os
import random
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

from oracles import (  # noqa: E402
    canonical_runs_of_cyclic, has_minus_pairing, noncrossing_inverse_matchings,
    x_conjugacy_closure,
)
from smkit.h2 import run_of, word_of, zone_components  # noqa: E402
from smkit.hardware import Hardware, load_ee_file  # noqa: E402
from smkit.words import CyclicWord, Tape, X, cyclic_reduce, parse_rule  # noqa: E402
from workloads import DYCK_LETTERS, matching_digest  # noqa: E402

OUT = os.path.join(ROOT, "perfbench", "data", "combinatorics.json")
DATA_SEED = 20240811
LONG_SAMPLE = 2048  # length-12 words kept; there are 16,304 in all
XPAIRS = 1024
XRULES = ("t2(r1,1)", "t4(r2,2)", "t1(e,1)", "t3(r1,2)", "t5(e,2)")
CLOSURE_DEPTH = 6

LETTERS = {letter: c for c, letter in DYCK_LETTERS.items()}


def cyclic_dyck_words(max_len):
    """Every cyclic Dyck word of length 2..max_len over two letters: grow
    linearly trivial words by a stack-pruned walk and keep their cyclic
    classes (every cyclic Dyck word has a linearly trivial rotation)."""
    words = set()
    alphabet = list(LETTERS)

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
            elif len(stack) + 1 < budget:
                stack.append((sym, s))
                word.append((sym, s))
                grow(stack, word, budget - 1)
                word.pop()
                stack.pop()

    grow([], [], max_len)
    return sorted(words, key=lambda w: (len(w), [LETTERS[l] for l in w.letters]))


def dyck_entries(rng):
    words = cyclic_dyck_words(12)
    short = [w for w in words if len(w) <= 10]
    long_ = [w for w in words if len(w) == 12]
    chosen = short + sorted(rng.sample(long_, LONG_SAMPLE),
                            key=lambda w: [LETTERS[l] for l in w.letters])
    out = []
    for k, w in enumerate(chosen):
        letters = list(w.letters)
        matchings = noncrossing_inverse_matchings(letters)
        out.append(["".join(LETTERS[l] for l in letters), len(matchings),
                    matching_digest(matchings), has_minus_pairing(letters)])
        if k % 500 == 0:
            print(f"dyck {k}/{len(chosen)}", file=sys.stderr, flush=True)
    return out, len(words)


def zone_moves(hw):
    """Zone pairs joined by one K/L state-letter crossing."""
    moves = {}
    for bl, _ in hw.sigma:
        if bl.kind in "KL":
            zb, za = hw.zones_of(bl)
            moves.setdefault(zb, []).append(za)
            moves.setdefault(za, []).append(zb)
    return moves


def random_runs(rng, zone, rule):
    n = rng.randrange(1, 5)
    runs = []
    i = rng.randrange(1, 3)
    for _ in range(n):
        runs.append((i, rng.choice((1, -1)) * rng.randrange(1, 3)))
        i = 3 - i
    if n > 1 and runs[0][0] == runs[-1][0] and (runs[0][1] > 0) != (runs[-1][1] > 0):
        runs[-1] = (runs[-1][0], -runs[-1][1])  # keep it cyclically reduced
    return [(X(Tape(i, zone), rule), e) for i, e in runs]


def rotate(runs, rng):
    letters = word_of(runs).letters
    if not letters:
        return []
    k = rng.randrange(len(letters))
    return list(run_of(letters[k:] + letters[:k]))


def related_variant(hw, rng, runs, moves):
    """A conjugate of runs: a rotation, a 4-power rescaling and at most two
    zone crossings, in any combination."""
    zone = runs[0][0].tape.zone
    for _ in range(rng.randrange(0, 3)):
        zone = rng.choice(moves[zone])
    scale = 4 if rng.random() < 0.5 else 1
    out = [(X(Tape(sym.tape.i, zone), sym.rule), e * scale) for sym, e in runs]
    return rotate(out, rng)


def unrelated_variant(hw, rng, runs, moves):
    """A near miss: one exponent off by one, one index swapped, or a zone
    outside the crossing component."""
    comp = zone_components(hw)
    kind = rng.randrange(3)
    out = list(runs)
    k = rng.randrange(len(out))
    sym, e = out[k]
    if kind == 0:
        e2 = e + rng.choice((1, -1))
        out[k] = (sym, e2 if e2 else e + 2 * (1 if e > 0 else -1))
    elif kind == 1:
        out[k] = (X(Tape(3 - sym.tape.i, sym.tape.zone), sym.rule), e)
    else:
        far = [z for z in moves if comp[z] != comp[sym.tape.zone]]
        z2 = rng.choice(sorted(far))
        out = [(X(Tape(s.tape.i, z2), s.rule), x) for s, x in out]
    return rotate(out, rng)


def runs_json(runs):
    return [[repr(sym), e] for sym, e in runs]


def cyclic(runs):
    """The cyclically reduced core of a run list, as a cyclic word."""
    return cyclic_reduce(word_of(runs))[1]


def xpair_entries(rng, hw):
    moves = zone_moves(hw)
    rules = [parse_rule(t) for t in XRULES]
    nonp = sorted(moves)
    out = []
    for k in range(XPAIRS):
        runs = random_runs(rng, rng.choice(nonp), rng.choice(rules))
        if k % 2:
            other = unrelated_variant(hw, rng, runs, moves)
        else:
            other = related_variant(hw, rng, runs, moves)
        w1, w2 = cyclic(runs), cyclic(other)
        if not len(w2):
            continue
        verdict = (canonical_runs_of_cyclic(w2) in x_conjugacy_closure(hw, w1, CLOSURE_DEPTH)
                   or canonical_runs_of_cyclic(w1) in x_conjugacy_closure(hw, w2, CLOSURE_DEPTH))
        out.append({"w1": runs_json(run_of(w1.letters)), "w2": runs_json(run_of(w2.letters)),
                    "conjugate": verdict})
    return out


def main():
    rng = random.Random(DATA_SEED)
    hw = Hardware(load_ee_file(os.path.join(ROOT, "tests", "data", "sample.ee")), 8)
    xpairs = xpair_entries(rng, hw)
    dyck, universe = dyck_entries(rng)
    data = {
        "seed": DATA_SEED,
        "dyck_universe": universe,
        "dyck": dyck,
        "xpairs": xpairs,
    }
    with open(OUT, "w", encoding="utf-8") as f:
        json.dump(data, f, separators=(",", ":"))
        f.write("\n")
    print(f"wrote {len(dyck)} Dyck words (of {universe}) and {len(xpairs)} x-word pairs",
          file=sys.stderr)


if __name__ == "__main__":
    main()
