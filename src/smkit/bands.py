"""Theta-bands and trapezia: cell-level diagram fragments that simulate
single rule applications and whole computations.

A band over (W, tau) is the row of cells obtained by attaching one main
cell to every state letter of W and one theta-tape cell to every tape
letter, gluing consecutive cells along their shared theta-edges.  For plain
rules the bottom path reads alpha_tau(W) and the top path the
alpha_{tau^-1}-decorated image of (flanks + W o tau); bar bands carry no
x-letters and read W and flanks + (W o tau) directly.  The band of tau^-1
over W, the vertical mirror of the positive band over W o tau^-1, is built
in one pass over W o tau^-1 with every cell upside down (dir -1).

A trapezium is its stack of bar bands, bottom first, whose tops chain
graphically onto the next band's bottoms, and it holds nothing else: its
history is the bands' rules, its bottom band 0's bottom and its top the
last band's top.  The construction requires the bottom word to start and
end with K-type letters, which makes every trim word empty and the chaining
exact.

A check walks each band once: it compares the freely reduced letters of
the cells with the band's labels without building words, and projects
each label to its tape and state letters once, for the growth bound and
for the replay of the history alike; in a trapezium a band's bottom equal
to the top beneath it takes that top's projection.  A projection is a
letter tuple, compared with its step's ``flat()``; band 0's bottom
projection is what the replay parses.  Building takes a bar band's labels
from the words W and W o tau (with the flanks), so the check is the one
place that reduces the cells' letters; a plain band's labels are its
cells' letters, freely reduced.  Labels and cells are ``Word``s built
through its constructor: a label is reduced once, and a cell, spelled
reduced, is not reduced again.

Building spells each distinct cell once per Machine, which keeps it under
its signed rule and the one letter it is drawn on.  Verification checks
each cell object once per Presentation and Machine: the presentation keeps
a memo per machine (held weakly) of every cell that passed all the cell
checks in a band of its signed rule, by identity, and a band of that rule
checked with that machine skips them for that cell.  A cell equal
to a remembered one but another object, one that failed, or one in a band
of another rule is checked in full.  So callers that build and check many
diagrams over one machine and one presentation gain the most.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from .hardware import AdmissibleWord
from .presentation import Presentation, _alpha_letters, normalize_relator
from .smachine import Machine, is_reduced_history
from .words import RuleId, State, Tape, Theta, Word, free_reduce, word_to_text


class BandError(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class Cell:
    kind: str  # "main" | "theta_a" | "bar_main" | "bar_theta_a"
    left: Theta
    right: Theta
    bottom: Word
    top: Word
    dir: int = 1  # +1: theta edges point up (source side down); -1: mirrored

    def boundary(self):
        """left^-dir bottom right^dir top^-1, freely reduced once."""
        return Word(((self.left, -self.dir), *self.bottom.letters,
                     (self.right, self.dir), *self.top.inverse().letters))


@dataclass(frozen=True)
class Band:
    rid: RuleId
    cells: tuple
    bottom: Word  # reduced label of the bottom path
    top: Word  # reduced label of the top path
    base: tuple  # unsigned basic letters


def theta_band(pres: Presentation, machine: Machine, W: AdmissibleWord, rid: RuleId):
    """The band simulating one application of rid to W; cells are verified
    against the presentation by ``verify``.  Building reads no relator:
    ``pres`` may be None."""
    return _band_step(machine, W, rid)[0]


def _band_step(machine, W, rid):
    """(band of rid over W, W o rid), built in one pass: its cells sit on the
    word rid's positive form applies to (W, or W o rid for a negative rid),
    upside down for a negative rid.

    A cell depends on nothing but the signed rule and the one letter of that
    word it is drawn on, so each is built once per machine and kept in
    ``machine._cell_memo[rid]`` under that letter: a state letter for a main
    cell, a tape letter for a theta cell.  A tape cell's theta zone is its
    sector's, which is the zone of the tape letter itself in every word
    ``Machine.apply`` accepts, so the letter alone is the key.

    A bar band's labels are read off the words: the ``Word``s of the
    letters of W and of W o rid with the flanks, ``flat()`` spliced in as
    it is (see below), one scan of free reduction each when already
    reduced.  A plain band's labels are its cells' letters, freely
    reduced."""
    out = machine.apply(rid, W)
    pos, d = rid.positive, rid.sign
    src = W if d > 0 else out
    memo = machine._cell_memo.get(rid)
    if memo is None:
        memo = machine._cell_memo.setdefault(rid, {})
    rule = machine.rule(rid)
    hw = machine.hw
    bar = rid.bar
    cells = []
    for k, y in enumerate(src.states):
        cell = memo.get(y)
        if cell is None:
            st, s = y
            lzone, rzone = hw.zones_of(st.base)[::s]
            left_part, right_part = machine._parts(pos, st.kind, st.j, s)
            st2 = hw.state(st.kind, st.j, rule.dst, bar)
            # the state letter separates two reduced tape words, and alpha
            # keeps a reduced word reduced, so the image is spelled reduced
            # at once
            image = (*left_part, (st2, s), *right_part)
            if not bar:
                image = tuple(_alpha_letters(pos.inverse, image))
            ends = (Word((y,), reduce=False), Word(image, reduce=False))[::d]  # (bottom, top)
            cell = memo[y] = Cell("bar_main" if bar else "main", Theta(pos, lzone),
                                  Theta(pos, rzone), *ends, d)
        cells.append(cell)
        if k == len(src.inners):
            break
        for letter in src.inners[k]:
            cell = memo.get(letter)
            if cell is None:
                st, s = y
                theta = Theta(pos, hw.zone_after((st.base, s)))
                if bar:
                    bottom = top = Word((letter,), reduce=False)
                else:
                    # alpha_rid below and alpha_{rid^-1} above, whatever rid's sign
                    bottom = Word(_alpha_letters(rid, (letter,)), reduce=False)
                    top = Word(_alpha_letters(rid.inverse, (letter,)), reduce=False)
                cell = memo[letter] = Cell("bar_theta_a" if bar else "theta_a", theta,
                                           theta, bottom, top, d)
            cells.append(cell)
    if bar:
        # up to free reduction, the cells below src's letters spell src and
        # those above spell src o pos between the flanks: the parts pos
        # attaches outside src's first and last state letters (none at a
        # K-type letter)
        (st, s), (st2, s2) = src.states[0], src.states[-1]
        image = (*machine._parts(pos, st.kind, st.j, s)[0],
                 *(out if d > 0 else W).flat(),
                 *machine._parts(pos, st2.kind, st2.j, s2)[1])
        bottom, top = (Word(src.flat()), Word(image))[::d]
    else:
        bottom = Word(chain.from_iterable(c.bottom.letters for c in cells))
        top = Word(chain.from_iterable(c.top.letters for c in cells))
    return Band(rid, tuple(cells), bottom, top, src.base()), out


@dataclass(frozen=True)
class Trapezium:
    """A stack of bands, bottom first, and nothing else: the history, the
    bottom label and the top label are read off the bands."""
    bands: tuple

    def __post_init__(self):
        if not self.bands:
            raise BandError("a trapezium has at least one band")

    @property
    def history(self):
        """The bands' rules, bottom to top."""
        return tuple(band.rid for band in self.bands)

    @property
    def bottom(self):
        return self.bands[0].bottom

    @property
    def top(self):
        return self.bands[-1].top

    @property
    def height(self):
        return len(self.bands)

    def side_words(self):
        """(left, right) side labels, read bottom to top."""
        left = [(band.cells[0].left, band.cells[0].dir) for band in self.bands]
        right = [(band.cells[-1].right, band.cells[-1].dir) for band in self.bands]
        return Word(left, reduce=False), Word(right, reduce=False)


def trapezium(pres: Presentation, machine: Machine, W: AdmissibleWord, history):
    """Stack of bar bands simulating the computation W o history.

    history must be freely reduced and consist of bar rules; W must start
    and end with K-type state letters so that every trim word is empty and
    band tops chain graphically.  ``pres`` is not read and may be None."""
    if not history:
        raise BandError("empty history")
    if not is_reduced_history(history):
        raise BandError("history is not freely reduced")
    if any(not rid.bar for rid in history):
        raise BandError("trapezia are built over the bar machine")
    if W.states[0][0].kind != "K" or W.states[-1][0].kind != "K":
        raise BandError("bottom word must start and end with K-type letters")
    bands = []
    cur = W
    for rid in history:
        band, cur = _band_step(machine, cur, rid)
        bands.append(band)
    return Trapezium(tuple(bands))


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

_AK = (Tape, State)


def _project_ak(w):
    """The tape and state letters of w, freely reduced."""
    return free_reduce([l for l in w.letters if isinstance(l[0], _AK)])


def verify_band(band: Band, pres: Presentation, machine: Machine):
    """Cell-by-cell check of a band; returns a list of violations."""
    return _check_band(band, pres, machine)[0]


def _check_band(band, pres, machine, pb=None):
    """(violations, bottom projection, top projection) of a band: the
    projections the growth bound measures are the ones the trapezium replay
    compares, so each is taken once.  ``pb``, when given, is the bottom's
    projection, already taken."""
    report = []
    if pb is None:
        pb = _project_ak(band.bottom)
    pt = _project_ak(band.top)
    rid = band.rid
    rule = machine.rule(rid)
    if rule is None:
        return [f"unknown rule {rid!r}"], pb, pt
    index = pres.index()
    memo = pres._cell_memo.get(machine)
    if memo is None:
        memo = pres._cell_memo[machine] = {}
    # every cell's theta edges name the band's rule and point its way
    own = (rid.positive, rid.positive, rid.sign)
    bottom, top = [], []  # the cells' letters, concatenated
    for k, cell in enumerate(band.cells):
        bottom += cell.bottom.letters
        top += cell.top.letters
        hit = memo.get(id(cell))
        if hit is not None and hit[1] == rid:
            continue  # this very cell passed every check in a band of rid
        ok = (getattr(cell.left, "rule", None), getattr(cell.right, "rule", None),
              cell.dir) == own
        if not ok:
            report.append(f"cell {k}: theta edges {cell.left!r}, {cell.right!r} "
                          f"with dir {cell.dir} are not of {rid!r}")
        try:
            relator = normalize_relator(cell.boundary())
        except Exception as e:
            report.append(f"cell {k}: boundary did not normalize: {e}")
            continue
        rel = index.get(relator)
        if rel is None:
            report.append(f"cell {k}: boundary is not a relator")
        elif rel.kind != cell.kind:
            report.append(f"cell {k}: relator kind {rel.kind} != {cell.kind}")
        elif ok:
            # holding the cell keeps its id from naming another object
            memo[id(cell)] = (cell, rid)
    for k, (c1, c2) in enumerate(zip(band.cells, band.cells[1:])):
        if c1.right != c2.left or c1.dir != c2.dir:
            report.append(f"cells {k},{k + 1}: theta edges {c1.right!r} != {c2.left!r}")
    # the cells' letters, freely reduced, spell the labels
    if free_reduce(bottom) != band.bottom.letters:
        report.append("bottom label mismatch")
    if free_reduce(top) != band.top.letters:
        report.append("top label mismatch")
    hw = machine.hw
    signed = [(sym.base, s) for sym, s in band.bottom if isinstance(sym, State)]
    b1 = tuple([y for y, _ in signed])
    b2 = tuple([sym.base for sym, _ in band.top if isinstance(sym, State)])
    if b1 != b2 or b1 != band.base:
        report.append("top and bottom bases differ")
    # 2-letter base shapes and the locked fold-back exclusion
    for (y, s), (y2, s2) in zip(signed, signed[1:]):
        fold = (y2, s2) == (y, -s)
        if not fold and (y2, s2) != hw.succ((y, s)):
            report.append(f"illegal 2-letter base {y}^{s} {y2}^{s2}")
        if fold and hw.zone_after((y, s)).kind in rule.locks:
            report.append(f"fold-back at {y}^{s} in a locked zone")
    bc = len(band.base) * hw.ee.c
    if abs(len(pt) - len(pb)) > bc:
        report.append("band growth exceeds base-length * max-relator-length")
    return report, pb, pt


def verify_trapezium(trap: Trapezium, pres: Presentation, machine: Machine):
    """Band checks plus gluing, mirror bands and the simulated computation:
    band 0's bottom projection must parse, the bands' rules must run from
    it, and each band's projections must be the words of its two steps."""
    report = []
    bands = trap.bands
    # glued[i]: band i's bottom is band i-1's top, the word beneath it, so
    # the band check takes that top's projection rather than projecting the
    # same word again
    glued = [False] + [b1.top == b2.bottom for b1, b2 in zip(bands, bands[1:])]
    checked = []
    for i, band in enumerate(bands):
        checked.append(_check_band(band, pres, machine, checked[-1][2] if glued[i] else None))
    for i, (msgs, _, _) in enumerate(checked):
        report += [f"band {i}: {msg}" for msg in msgs]
    for i, (b1, b2) in enumerate(zip(bands, bands[1:])):
        if not glued[i + 1]:
            report.append(f"bands {i},{i + 1}: top does not glue onto bottom")
        if b2.rid == b1.rid.inverse:
            report.append(f"bands {i},{i + 1}: mirror bands (reducible pair)")
    # the side projections must replay as a computation, letter for letter;
    # the band checks projected every band label already
    try:
        W0 = machine.hw.parse_admissible(checked[0][1], machine.flavor)
    except Exception as e:
        report.append(f"bottom does not parse: {e}")
        return report
    trace = machine.run(W0, [band.rid for band in bands])
    if not trace.ok:
        k, diag = trace.failure
        report.append(f"history does not run: step {k} failed: {diag}")
        return report
    steps = [W.flat() for W in trace.words]
    for i, (_, pb, pt) in enumerate(checked):
        if pb != steps[i]:
            report.append(f"band {i}: bottom projection is not step {i}")
        if pt != steps[i + 1]:
            report.append(f"band {i}: top projection is not step {i + 1}")
    return report


def verify(obj, pres: Presentation, machine: Machine):
    if isinstance(obj, Band):
        return verify_band(obj, pres, machine)
    if isinstance(obj, Trapezium):
        return verify_trapezium(obj, pres, machine)
    raise TypeError(f"cannot verify {obj!r}")


# ---------------------------------------------------------------------------
# serialization (for golden tests and the CLI)
# ---------------------------------------------------------------------------

def band_text(band: Band):
    lines = [f"band {band.rid!r} cells={len(band.cells)}"]
    for k, c in enumerate(band.cells):
        lines.append(
            f"cell {k} {c.kind} left={c.left!r} right={c.right!r} "
            f"bottom={word_to_text(c.bottom)} top={word_to_text(c.top)}")
    lines.append(f"bottom: {word_to_text(band.bottom)}")
    lines.append(f"top: {word_to_text(band.top)}")
    return "\n".join(lines)


def trapezium_text(trap: Trapezium):
    lines = [f"trapezium height={trap.height}"]
    for i, band in enumerate(trap.bands):
        lines.append(f"# band {i}")
        lines.append(band_text(band))
    return "\n".join(lines)
