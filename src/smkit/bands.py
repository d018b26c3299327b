"""Theta-bands and trapezia: cell-level diagram fragments that simulate
single rule applications and whole computations.

A band over (W, tau) is the row of cells obtained by attaching one main
cell to every state letter of W and one theta-tape cell to every tape
letter, gluing consecutive cells along their shared theta-edges.  For plain
rules the bottom path reads alpha_tau(W) and the top path the
alpha_{tau^-1}-decorated image of (flanks + W o tau); bar bands carry no
x-letters and read W and flanks + (W o tau) directly.  Bands for negative
rules are the vertical mirrors of the positive bands over W o tau.

A trapezium is a stack of bar bands whose tops chain graphically onto the
next band's bottoms; the construction requires the bottom word to start
and end with K-type letters, which makes every trim word empty and the
chaining exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from .hardware import AdmissibleWord
from .presentation import Presentation, alpha, normalize_relator
from .smachine import Machine, NotApplicable, is_reduced_history
from .words import RuleId, State, Tape, Theta, Word, word_to_text


class BandError(ValueError):
    pass


@dataclass(frozen=True)
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

    def mirror(self):
        return Cell(self.kind, self.left, self.right, self.top, self.bottom,
                    -self.dir)


@dataclass(frozen=True)
class Band:
    rid: RuleId
    cells: tuple
    bottom: Word  # reduced label of the bottom path
    top: Word  # reduced label of the top path
    base: tuple  # unsigned basic letters

    def mirror(self):
        return Band(self.rid.inverse, tuple(c.mirror() for c in self.cells),
                    self.top, self.bottom, self.base)


def theta_band(pres: Presentation, machine: Machine, W: AdmissibleWord, rid: RuleId):
    """The band simulating one application of rid to W; cells are verified
    against the presentation by ``verify``.  Building reads no relator:
    ``pres`` may be None."""
    return _band_step(machine, W, rid)[0]


def _band_step(machine, W, rid):
    """(band of rid over W, W o rid), with W o rid built by one step."""
    out, diag = machine.step(rid, W)
    if diag is not None:
        raise NotApplicable(diag)
    if rid.sign < 0:
        return _positive_band(machine, out, rid.positive).mirror(), out
    return _positive_band(machine, W, rid), out


def _positive_band(machine, W, rid):
    """Cells of the band of a positive rule rid known to apply to W."""
    rule = machine.rule(rid)
    hw = machine.hw
    bar = rid.bar
    cells = []
    for k, (st, s) in enumerate(W.states):
        zb, za = hw.zones_of(st.base)
        lzone, rzone = (zb, za) if s > 0 else (za, zb)
        left_part, right_part = machine._parts(rid, st.kind, st.j, s)
        st2 = hw.state(st.kind, st.j, rule.dst, bar)
        bottom = Word(((st, s),), reduce=False)
        top = left_part * Word(((st2, s),), reduce=False) * right_part
        if not bar:
            top = alpha(rid.inverse, top)
        cells.append(Cell("bar_main" if bar else "main",
                          Theta(rid, lzone), Theta(rid, rzone), bottom, top))
        if k == len(W.inners):
            break
        zone = hw.zone_after((st.base, s))
        for sym, e in W.inners[k]:
            one = Word(((sym, e),), reduce=False)
            bottom = one if bar else alpha(rid, one)
            top = one if bar else alpha(rid.inverse, one)
            cells.append(Cell("bar_theta_a" if bar else "theta_a",
                              Theta(rid, zone), Theta(rid, zone), bottom, top))
    bottom = Word(chain.from_iterable(c.bottom.letters for c in cells))
    top = Word(chain.from_iterable(c.top.letters for c in cells))
    return Band(rid, tuple(cells), bottom, top, W.base())


@dataclass(frozen=True)
class Trapezium:
    history: tuple
    bands: tuple
    bottom: Word
    top: Word

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
    return Trapezium(tuple(history), tuple(bands), bands[0].bottom, bands[-1].top)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def _project_ak(w):
    return w.project(lambda sym: isinstance(sym, (Tape, State)))


def verify_band(band: Band, pres: Presentation, machine: Machine):
    """Cell-by-cell check of a band; returns a list of violations."""
    report = []
    index = pres.index()
    rule = machine.rule(band.rid)
    if rule is None:
        return [f"unknown rule {band.rid!r}"]
    for k, cell in enumerate(band.cells):
        try:
            rel = normalize_relator(cell.boundary())
        except Exception as e:
            report.append(f"cell {k}: boundary did not normalize: {e}")
            continue
        hit = index.get(rel)
        if hit is None:
            report.append(f"cell {k}: boundary is not a relator")
        elif hit.kind != cell.kind:
            report.append(f"cell {k}: relator kind {hit.kind} != {cell.kind}")
    for k, (c1, c2) in enumerate(zip(band.cells, band.cells[1:])):
        if c1.right != c2.left or c1.dir != c2.dir:
            report.append(f"cells {k},{k + 1}: theta edges {c1.right!r} != {c2.left!r}")
    bottom = Word(chain.from_iterable(c.bottom.letters for c in band.cells))
    top = Word(chain.from_iterable(c.top.letters for c in band.cells))
    if bottom != band.bottom:
        report.append("bottom label mismatch")
    if top != band.top:
        report.append("top label mismatch")
    hw = machine.hw
    b1 = tuple(sym.base for sym, _ in band.bottom if isinstance(sym, State))
    b2 = tuple(sym.base for sym, _ in band.top if isinstance(sym, State))
    if b1 != b2 or b1 != band.base:
        report.append("top and bottom bases differ")
    # 2-letter base shapes and the locked fold-back exclusion
    signed = [(sym.base, s) for sym, s in band.bottom if isinstance(sym, State)]
    for (y, s), (y2, s2) in zip(signed, signed[1:]):
        fold = (y2, s2) == (y, -s)
        if not fold and (y2, s2) != hw.succ((y, s)):
            report.append(f"illegal 2-letter base {y}^{s} {y2}^{s2}")
        if fold and hw.zone_after((y, s)).kind in rule.locks:
            report.append(f"fold-back at {y}^{s} in a locked zone")
    bc = len(band.base) * hw.ee.c
    if abs(len(_project_ak(band.top)) - len(_project_ak(band.bottom))) > bc:
        report.append("band growth exceeds base-length * max-relator-length")
    return report


def verify_trapezium(trap: Trapezium, pres: Presentation, machine: Machine):
    """Band checks plus gluing, history and the simulated computation."""
    report = []
    for i, band in enumerate(trap.bands):
        for msg in verify_band(band, pres, machine):
            report.append(f"band {i}: {msg}")
    if not is_reduced_history(trap.history):
        report.append("history is not reduced")
    for i, (b1, b2) in enumerate(zip(trap.bands, trap.bands[1:])):
        if b1.top != b2.bottom:
            report.append(f"bands {i},{i + 1}: top does not glue onto bottom")
        if b2.rid == b1.rid.inverse:
            report.append(f"bands {i},{i + 1}: mirror bands (reducible pair)")
    if tuple(b.rid for b in trap.bands) != tuple(trap.history):
        report.append("band rules disagree with the history")
    # the side projections must replay as a computation, letter for letter
    try:
        W0 = machine.hw.parse_admissible(_project_ak(trap.bottom), machine.flavor)
    except Exception as e:
        report.append(f"bottom does not parse: {e}")
        return report
    trace = machine.run(W0, trap.history)
    if not trace.ok:
        report.append(f"history does not run: {trace.failure}")
        return report
    for i, band in enumerate(trap.bands):
        if _project_ak(band.bottom) != trace.words[i].flat():
            report.append(f"band {i}: bottom projection is not step {i}")
        if _project_ak(band.top) != trace.words[i + 1].flat():
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
