"""Seeded generators for fuzzing: random admissible words, random
applicable rule walks, and tampered bands and trapezia."""

from dataclasses import replace

from smkit.bands import theta_band
from smkit.hardware import BaseLetter
from smkit.words import CyclicWord, State, Tape, Word


def random_positive(rng, mbar, maxlen, minlen=0):
    return tuple((rng.randrange(1, mbar + 1), 1)
                 for _ in range(rng.randrange(minlen, maxlen + 1)))


def random_reduced(rng, mbar, maxlen, minlen=0):
    out = []
    for _ in range(rng.randrange(minlen, maxlen + 1)):
        while True:
            cand = (rng.randrange(1, mbar + 1), rng.choice((1, -1)))
            if not out or out[-1] != (cand[0], -cand[1]):
                out.append(cand)
                break
    return tuple(out)


def random_sigma_word(hw, rng, flavor="strict", maxlen=3):
    if flavor == "strict":
        return hw.sigma_w(random_positive(rng, hw.ee.mbar, maxlen), flavor)
    return hw.sigma_w(random_reduced(rng, hw.ee.mbar, maxlen), flavor)


def random_bar_word(hw, rng, maxlen=2, coord=None, empty_kinds=""):
    """Bar-admissible word over the full base with random zone contents."""
    lens = {k: (0 if k in empty_kinds else maxlen) for k in "KLPR"}
    w1 = random_reduced(rng, hw.ee.mbar, lens["K"])
    w2 = random_reduced(rng, hw.ee.mbar, lens["L"])
    w3 = random_reduced(rng, hw.ee.mbar, lens["P"])
    w4 = random_reduced(rng, hw.ee.mbar, lens["R"])
    if coord is None:
        coords = hw.ee.coords()
        coord = coords[rng.randrange(len(coords))]
    body = hw.sigma_four(w1, w2, w3, w4, r=coord.r, i=coord.omega, bar=True)
    return hw.parse_admissible(body.letters + ((hw.state("K", 1, coord, True), 1),), "bar")


def block_word(hw, rng, j, coord, kinds="KLPR", flavor="strict", maxlen=3):
    """Admissible word over the standard block lL_j..rR_j with random
    contents (positive in the constrained zones for the strict flavor)."""
    lL = hw.left_letter_of_L(j)
    states = [lL, (BaseLetter("L", j), 1), (BaseLetter("P", j), 1),
              (BaseLetter("R", j), 1), hw.succ((BaseLetter("R", j), 1))]
    letters = []
    for k, y in enumerate(states):
        letters.append((hw.state(y[0].kind, y[0].j, coord), y[1]))
        if k == len(states) - 1:
            break
        zone = hw.zone_after(y)
        if zone.kind == "P":
            w = random_reduced(rng, hw.ee.mbar, maxlen)
        else:
            w = random_positive(rng, hw.ee.mbar, maxlen)
        for i, s in w:
            letters.append((hw.tape(i, zone), s))
    return hw.parse_admissible(letters, flavor)


def applicable_rules(machine, W, coords_first=True):
    out = []
    for rid in machine.rules:
        for signed in (rid, rid.inverse):
            src, _ = machine.coords_of(signed)
            if src != W.coord:
                continue
            if machine.applicable(signed, W) is None:
                out.append(signed)
    return out


def random_walk(machine, W, rng, steps, allow=None, reduced=True):
    """Random applicable history from W; returns (history, trace words)."""
    h = []
    words = [W]
    for _ in range(steps):
        cands = applicable_rules(machine, words[-1])
        if allow is not None:
            cands = [rid for rid in cands if allow(rid)]
        if reduced and h:
            cands = [rid for rid in cands if rid != h[-1].inverse]
        if not cands:
            break
        rid = cands[rng.randrange(len(cands))]
        h.append(rid)
        words.append(machine._apply(rid, words[-1]))
    return tuple(h), words


def _changed_letter(hw, letters, rng):
    """letters with one tape or state letter changed: a tape letter's
    index, a state letter's sign."""
    letters = list(letters)
    p = rng.choice([k for k, (sym, _) in enumerate(letters) if isinstance(sym, (State, Tape))])
    sym, s = letters[p]
    if isinstance(sym, State):
        letters[p] = (sym, -s)
    else:
        letters[p] = (hw.tape(sym.i % hw.ee.mbar + 1, sym.zone, sym.bar), s)
    return Word(letters, reduce=False)


def tampered_bands(machine, band, rng):
    """(edit, copy of band with that one edit) for each kind of edit, the
    cell, letter or rule picked with rng: one cell replaced by a cell the
    machine built for band's rule on another letter, or by one it built for
    another signed rule (of the same kind when there is one, and left out
    when the machine has built no such cell); one cell's ``dir`` flipped;
    one cell dropped or repeated; one letter of the bottom or top label
    changed (a tape letter's index, a state letter's sign).

    The replacement cells are the very objects of the machine's cell cache,
    so a presentation that has checked the bands they came from holds them
    in its cell memo."""
    cells = list(band.cells)
    out = []

    def edit(name, k, new):
        """band with cell k replaced by the cells new."""
        out.append((name, replace(band, cells=tuple(cells[:k] + new + cells[k + 1:]))))

    def swap_in(name, pool):
        k = rng.randrange(len(cells))
        pool = [c for c in pool if c != cells[k]]
        pool = [c for c in pool if c.kind == cells[k].kind] or pool
        if pool:
            edit(name, k, [rng.choice(pool)])

    memo = machine._cell_memo
    swap_in("letter cell", memo[band.rid].values())
    others = [rid for rid in memo if rid != band.rid]
    if others:
        swap_in("rule cell", memo[rng.choice(others)].values())
    k = rng.randrange(len(cells))
    edit("dir", k, [replace(cells[k], dir=-cells[k].dir)])
    edit("dropped", rng.randrange(len(cells)), [])
    k = rng.randrange(len(cells))
    edit("repeated", k, [cells[k], cells[k]])
    side = rng.choice(("bottom", "top"))
    out.append(("label", replace(band, **{side: _changed_letter(
        machine.hw, getattr(band, side).letters, rng)})))
    return out


def tampered_trapezia(machine, trap, words, rng):
    """(edit, copy of trap with that one edit) for each kind of edit, the
    band, letter or rule picked with rng: a band dropped (height >= 2),
    repeated, or swapped with the next one (height >= 2); a band replaced
    by its mirror, the band of the inverse rule over the word above it; one
    letter of a band's bottom or top label changed (a tape letter's index,
    a state letter's sign); two cells of a band swapped; a band replaced by
    the band of another rule that applies to the same word, when one does.
    ``words`` are the words of trap's computation, bottom first."""
    bands, history = list(trap.bands), trap.history
    n = len(bands)

    def with_bands(new):
        return replace(trap, bands=tuple(new))

    def with_band(i, band):
        return with_bands(bands[:i] + [band] + bands[i + 1:])

    out = []
    if n > 1:
        i = rng.randrange(n)
        out.append(("dropped", with_bands(bands[:i] + bands[i + 1:])))
    i = rng.randrange(n)
    out.append(("repeated", with_bands(bands[:i + 1] + bands[i:])))
    if n > 1:
        i = rng.randrange(n - 1)
        out.append(("swapped", with_bands(bands[:i] + [bands[i + 1], bands[i]] + bands[i + 2:])))
    i = rng.randrange(n)
    out.append(("mirror", with_band(i, theta_band(None, machine, words[i + 1],
                                                  history[i].inverse))))
    i = rng.randrange(n)
    side = rng.choice(("bottom", "top"))
    out.append(("letter", with_band(i, replace(bands[i], **{side: _changed_letter(
        machine.hw, getattr(bands[i], side).letters, rng)}))))
    i = rng.randrange(n)
    cells = list(bands[i].cells)
    p, q = sorted(rng.sample(range(len(cells)), 2))
    cells[p], cells[q] = cells[q], cells[p]
    out.append(("cells", with_band(i, replace(bands[i], cells=tuple(cells)))))
    others = [(k, [rid for rid in applicable_rules(machine, words[k])
                   if rid.bar and rid != history[k]]) for k in range(n)]
    others = [(k, rids) for k, rids in others if rids]
    if others:
        k, rids = rng.choice(others)
        out.append(("rule", with_band(k, theta_band(None, machine, words[k], rng.choice(rids)))))
    return out


def dyck_words(max_len):
    """Every non-empty cyclic Dyck word of length <= max_len over a, b, in
    canonical rotation, shortest first.

    Linear words are grown letter by letter with a stack of their unreduced
    letters, while the stack fits in the letters left, and kept when the
    stack is empty.  A rotation of a freely trivial word is freely trivial,
    so each cyclic word shows up in all its rotations and only the least
    one is kept, compared on letter codes 0-3 that order a, a^-1, b, b^-1
    as ``letter_key`` does."""
    letters = (("a", 1), ("a", -1), ("b", 1), ("b", -1))
    out, stack, word = [], [], []

    def grow():
        n = len(word)
        if n and not stack:
            w = tuple(word)
            twice = w + w
            if all(twice[k:k + n] >= w for k in range(1, n)):
                out.append(CyclicWord(letters[code] for code in w))
        if n == max_len or len(stack) > max_len - n:
            return
        for code in range(4):
            word.append(code)
            if stack and stack[-1] == code ^ 1:
                stack.pop()
                grow()
                stack.append(code ^ 1)
            else:
                stack.append(code)
                grow()
                stack.pop()
            word.pop()

    grow()
    return sorted(out, key=lambda w: (len(w), str(w.letters)))
