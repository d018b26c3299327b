"""Compiling machines into a group presentation.

Every positive plain rule tau contributes, per unsigned basic letter z,

    main:     th(tau, zone-before-z)^-1 z(r,l) th(tau, zone-after-z)
              = alpha_{tau^-1}(v_z) z(r',l') alpha_{tau^-1}(u_z)

plus, per zone not locked by tau and tape letter a, the commutation-style

    theta_a:  th(tau, zone)^-1 alpha_tau(a) th(tau, zone) = alpha_{tau^-1}(a)

plus, per non-P zone and tape letters a, b over it,

    a_x:      a x(b,tau) a^-1 = x(b,tau)^4      (K- and L-zones)
              a^-1 x(b,tau) a = x(b,tau)^4      (R-zones)

plus, per K/L basic letter z, coordinate pair and tape letter b after z,

    k_x:      z(r,i) x(b,tau) z(r,i)^-1 = x(b',tau)^(1 or 4)

with b' the brother of b in the zone before z (exponent 4 at L-letters).
Bar rules contribute the same main/theta_a families with barred letters,
all x-letters erased and the j=1 zone letters dropped; finally there is the
single hub relator.  Relators for negative rules are consequences and are
not emitted.  Every relator is stored in its canonical form, the
lexicographically least of the cyclic rotations of itself and its inverse,
before deduplication.  That form is a tuple of (letter, sign) pairs, the
one representation of a relator: ``normalize_relator`` returns it, a
``Relation`` is one object holding its kind and that tuple, and the
relator index (``Presentation.index``) is keyed by those tuples, so its
hashing runs in C.  The hub, and the main and bar_main relators at the
base letters a rule acts at (v_z or u_z not empty), vary with the rule and
go through ``normalize_relator``.  Every other kind is fixed-shape, and so
is a main or bar_main relator at a letter the rule does not act at:
th^-1 z th z'^-1, read from its least state letter.  Those are spelled in
their canonical form directly, as ``rule_relations`` explains, each as one
tuple of (letter, sign) pairs built once per symbol and shared by every
rule and every emit.  The tape and state letters of every relator come
from tables built once per machine, so once per ``emit``
(``_RelatorLetters``: the tape letters of each zone, plain and bar, and
the state letters of each base letter at each coordinate); only the theta
and x letters, which name the rule, are looked up per rule.  A fixed-shape
relation is built in one frame around its letter tuple, with no call per
relation (``_add_relations``).

``emit`` and ``read_presentation`` build a whole presentation: hundreds of
thousands of tuples, words and relations, and no reference cycles.  So
they run with the cyclic garbage collector paused, whose full passes over
that heap would free nothing; reference counting frees it as before.
"""

from __future__ import annotations

import functools
import gc
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Optional
from weakref import WeakKeyDictionary

from .hardware import Hardware
from .smachine import Machine, enumerate_rule_ids
from .words import (
    BaseLetter, RuleId, State, Tape, Theta, Word, X,
    conjugator_length, content_lines, least_rotation, letter_keys, parse_symbol,
    word_to_text,
)

KINDS = ("main", "theta_a", "a_x", "k_x", "bar_main", "bar_theta_a", "hub")


class PresentationError(ValueError):
    pass


# The letter whose base letter or zone is a relation's place, per kind.
_AT = {"main": (State, "base"), "bar_main": (State, "base"), "k_x": (State, "base"),
       "theta_a": (Theta, "zone"), "bar_theta_a": (Theta, "zone"), "a_x": (Tape, "zone")}


@dataclass(frozen=True, slots=True, init=False)
class Relation:
    """One relator of the presentation: its kind and the letters of its
    canonical form (the least of the cyclic rotations of itself and its
    inverse), the tuple ``normalize_relator`` returns.  Its rule and place
    are not stored: the letters name them.  Two relations are equal when
    their kinds and letters are."""

    kind: str
    letters: tuple  # normalized: least of relator/inverse rotations

    def __init__(self, kind, letters: tuple):
        # the slots are set through their descriptors, past the frozen
        # __setattr__ (one Relation per relator)
        if kind not in KINDS:
            raise PresentationError(f"unknown relation kind {kind!r}")
        _set_kind(self, kind)
        _set_letters(self, letters)

    def __repr__(self):
        # the relator spelled out, not its tuple of letter pairs
        return f"Relation(kind={self.kind!r}, relator={_relator_text(self.letters)})"

    # immutable over interned symbols: a copy is the relation itself, so a
    # copied Presentation shares its relations
    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    @property
    def rule(self) -> Optional[RuleId]:
        """The positive rule its theta or x letters name; None for the hub."""
        for sym, _ in self.letters:
            if isinstance(sym, (Theta, X)):
                return sym.rule
        return None

    @property
    def at(self) -> Optional[BaseLetter]:
        """Where the relation sits: the base letter of its state letter
        (main, bar_main, k_x), the zone of its theta letter (theta_a,
        bar_theta_a) or of its tape letter (a_x); None for the hub."""
        if self.kind not in _AT:
            return None
        cls, attr = _AT[self.kind]
        for sym, _ in self.letters:
            if isinstance(sym, cls):
                return getattr(sym, attr)
        return None


_new = object.__new__
_set_kind = Relation.__dict__["kind"].__set__
_set_letters = Relation.__dict__["letters"].__set__


def _relator_text(letters):
    """A relator's letters as ``Relation.__repr__`` and the duplicate-relator
    error spell them: ``CyclicWord('...')``."""
    return f"CyclicWord({word_to_text(letters)!r})"


def normalize_relator(w: Word):
    """Canonical form of the relator w, up to cyclic conjugation and inversion.

    Strips the conjugating prefix and suffix of w, leaving the core c, and
    returns the letters of whichever is lexicographically smaller under
    ``letter_key``, as a tuple: the least rotation of c or the least
    rotation of c^-1.  Raises PresentationError when nothing is left.  For
    w freely reduced the result is cyclically reduced, so normalizing it
    again changes nothing.  Each letter is keyed once; the keys of c^-1 are
    those of c reversed with the sign bit flipped.
    """
    letters = w.letters
    i = conjugator_length(letters)
    core = letters[i:len(letters) - i]
    if not core:
        raise PresentationError("trivial relator")
    keys = letter_keys(core)
    inv_keys = [(key, not neg) for key, neg in reversed(keys)]
    k = least_rotation(keys)
    kinv = least_rotation(inv_keys)
    if keys[k:] + keys[:k] <= inv_keys[kinv:] + inv_keys[:kinv]:
        return core[k:] + core[:k]
    inv = tuple((sym, -sign) for sym, sign in reversed(core))
    return inv[kinv:] + inv[:kinv]


@dataclass(frozen=True)
class Presentation:
    n: int
    ee_label: str = field(compare=False)
    relations: tuple
    _index: MappingProxyType = field(init=False, repr=False, compare=False)
    # bands._check_band's memo: machine -> {id(cell): (cell, signed rule)},
    # for each cell object that passed every cell check (theta edges,
    # boundary a relator, kind) in a band of that rule checked with that
    # machine; holding the cell keeps its id from naming another object.
    # Filled lazily.  The machine is held weakly, so its entries, and the
    # cells they hold, die with it.  It checks cells against this
    # presentation; Machine._cell_memo, the other cell memo, keeps the cells
    # bands._band_step builds, per machine, and checks none.
    _cell_memo: WeakKeyDictionary = field(init=False, repr=False, compare=False,
                                          default_factory=WeakKeyDictionary)

    def __post_init__(self):
        # keyed by letter tuples: each hash runs in C
        index = {rel.letters: rel for rel in self.relations}
        if len(index) != len(self.relations):
            seen = set()
            for rel in self.relations:
                if rel.letters in seen:
                    raise PresentationError(f"duplicate relator {_relator_text(rel.letters)}")
                seen.add(rel.letters)
        object.__setattr__(self, "_index", MappingProxyType(index))

    def __reduce__(self):
        # rebuilt through __post_init__: a fresh index, an empty cell memo
        return Presentation, (self.n, self.ee_label, self.relations)

    def stats(self):
        out = {k: 0 for k in KINDS}
        for rel in self.relations:
            out[rel.kind] += 1
        return out

    def inventory(self):
        from .words import symbol_key
        syms = set()
        for rel in self.relations:
            syms.update(sym for sym, _ in rel.letters)
        return sorted(syms, key=symbol_key)

    def index(self):
        """Read-only map from each normalized relator (the tuple
        ``normalize_relator(w)``) to its Relation.

        Built once, at construction, by the duplicate check; every call
        returns the same mapping."""
        return self._index


# ---------------------------------------------------------------------------
# letter maps
# ---------------------------------------------------------------------------

def alpha(rid: RuleId, w):
    """Decoration map of a rule: interleaves x(a,tau) with the tape letters.

    K/L-zone letters map to x(a,tau) a, P-zone letters stay, R-zone letters
    map to a x(a,tau); state letters are fixed.  For negative rules the
    x-letters are inverted.  Bar rules and bar letters are out of domain.
    """
    return Word(_alpha_letters(rid, w))


def _alpha_letters(rid, letters):
    """The letters of alpha(rid, letters), not freely reduced."""
    if rid.bar:
        raise PresentationError("alpha is only defined for plain rules")
    xsign = rid.sign
    tau = rid.positive
    out = []
    for sym, s in letters:
        if isinstance(sym, State):
            if sym.bar:
                raise PresentationError(f"{sym!r} is out of alpha's domain")
            out.append((sym, s))
            continue
        if not isinstance(sym, Tape) or sym.bar:
            raise PresentationError(f"{sym!r} is out of alpha's domain")
        if sym.zone.kind == "P":
            out.append((sym, s))
            continue
        x = X(sym, tau)
        if sym.zone.kind == "R":
            pair = ((sym, 1), (x, xsign))
        else:
            pair = ((x, xsign), (sym, 1))
        out += [(y, e * s) for y, e in (pair if s > 0 else reversed(pair))]
    return out


def delta(w):
    """Letterwise a_i(z), bar a_i(z) -> a_i; every other generator -> 1."""
    return Word((f"a{sym.i}", s) for sym, s in w if isinstance(sym, Tape))


# The paper's tape-alphabet map of the combined machine (beta) and its map
# for positivity bookkeeping (gamma) have the same letter images as delta.
beta = gamma = delta


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

def emit(hw: Hardware, label=""):
    """The full presentation of the simulating group for (ee, N); ``label``
    names the input in the text format's ``ee-file:`` line.

    The relations of every positive rule, plain rules first and then bar
    rules, each in ``enumerate_rule_ids`` order, followed by the hub.  The
    build creates no reference cycles, so it runs with the cyclic collector
    paused; fixed-shape relators share one letter pair per symbol."""
    with _collector_paused():
        machine = Machine(hw, "mixed")
        rels = [rel for bar in (False, True) for rid in enumerate_rule_ids(hw.ee, bar)
                for rel in rule_relations(machine, rid)]
        rels.append(Relation("hub", normalize_relator(hw.hub())))
        return Presentation(hw.N, label, tuple(rels))


@contextmanager
def _collector_paused():
    """Disable the cyclic garbage collector for the block, and re-enable it
    afterwards only if it was enabled before (see the module docstring)."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def rule_relations(machine: Machine, rid: RuleId):
    """The relations of the positive rule rid of machine, in the order
    ``emit`` lists them: main, then theta_a, then (plain rules only) a_x and
    k_x, or their bar kinds for a bar rule.

    A main relator at a base letter the rule acts at carries the rule's
    tape words v and u, so it is spelled as a tuple of letters and goes
    through ``normalize_relator``.  Every other relator has a fixed shape,
    and is spelled in its canonical form directly.  ``symbol_key`` ranks
    tape < state < theta < x letters, and a positive letter before its
    inverse.  A fixed-shape main relator th(zb)^-1 src th(za) dst^-1 is read
    from src, or from dst (as the inverse) when dst ranks lower.  Every
    other one has exactly one least letter: its positive tape letter, or
    for k_x its positive state letter.  Only the rotation read from that
    letter can be least, and the inverse's one candidate starts at the same
    letter.  The comments below name the first letter where the two differ.

    A relator is one flat tuple of (sym, 1) and (sym, -1) pairs, each built
    once per symbol (``_pair``).  The tape and state letters come from the
    machine's ``_RelatorLetters``, built on the first call, so once per
    ``emit``; only the theta and x letters, which name the rule, are looked
    up per rule.  Each family is spelled by list comprehensions, and each
    of its relations is built in ``_add_relations``, one frame per family."""
    hw = machine.hw
    rule = machine.rules[rid]
    bar = rid.bar
    table = machine._relator_letters
    if table is None:
        table = machine._relator_letters = _RelatorLetters(hw)
    rels = []

    zones = hw.zones
    theta = {z: _pair(Theta(rid, z)) for z in zones}
    # main relations, one per unsigned basic letter:
    # th(zb)^-1 src th(za) (v dst u)^-1
    spelled = []
    states = table.states[bar]
    for (bl, zb, za), (srcp, srcn), (dstp, dstn) in zip(
            table.sigma, states[rule.src], states[rule.dst]):
        (zbp, zbn), (zap, zan) = theta[zb], theta[za]
        if bl.kind not in rule.actions:
            # v = u = 1: read from src, or from dst when it ranks lower
            # (the inverse's least rotation); src is dst at an age rule,
            # and then th(za) before th(za)^-1 picks the first form
            if srcp[0]._key <= dstp[0]._key:
                spelled.append((srcp, zap, dstn, zbn))
            else:
                spelled.append((dstp, zan, srcn, zbp))
            continue
        v, u = machine._parts(rid, bl.kind, bl.j, 1)
        if not bar:
            v, u = _alpha_letters(rid.inverse, v), _alpha_letters(rid.inverse, u)
        # its canonical letters, wrapped with the family's below
        spelled.append(normalize_relator(Word(
            (zbn, srcp, zap, *_inverse(u), dstn, *_inverse(v)))))
    _add_relations(rels, "bar_main" if bar else "main", spelled)
    # the pairs of the tape letters over each zone (none over a bar j=1
    # zone), and for a plain rule those of x(a, tau) over each non-P zone
    tapes = table.tapes[bar]
    xs = {} if bar else {z: [_pair(X(ap[0], rid)) for ap, _ in tapes[z]]
                         for z in zones if z.kind != "P"}
    # theta-tape commutations at unlocked zones:
    # th^-1 alpha_tau(a) th alpha_tau^-1(a)^-1, read from a
    spelled = []
    for zone in zones:
        if zone.kind in rule.locks or (bar and zone.j == 1):
            continue
        thp, thn = theta[zone]
        if bar or zone.kind == "P":
            # alpha fixes a: a th a^-1 th^-1; the inverse reads a th^-1
            spelled += [(ap, thp, an, thn) for ap, an in tapes[zone]]
        elif zone.kind == "R":
            # alpha_tau(a) = a x: a x th x a^-1 th^-1; the inverse reads a x^-1
            spelled += [(ap, xp, thp, xp, an, thn)
                        for (ap, an), (xp, _) in zip(tapes[zone], xs[zone])]
        else:
            # alpha_tau(a) = x a: a th a^-1 x th^-1 x; the inverse reads a x^-1
            spelled += [(ap, thp, an, xp, thn, xp)
                        for (ap, an), (xp, _) in zip(tapes[zone], xs[zone])]
    _add_relations(rels, "bar_theta_a" if bar else "theta_a", spelled)
    if bar:
        return rels
    # tape-x conjugation relations over K/L/R zones, in base-word order:
    # a x a^-1 x^-4 (K, L) and a x^4 a^-1 x^-1 (R, the inverse of
    # a^-1 x a x^-4 read from a); each inverse reads a x^-1
    spelled = []
    for zone, xz in xs.items():
        if zone.kind == "R":
            spelled += [(ap, xp, xp, xp, xp, an, xn) for ap, an in tapes[zone] for xp, xn in xz]
        else:
            spelled += [(ap, xp, an, xn, xn, xn, xn) for ap, an in tapes[zone] for xp, xn in xz]
    _add_relations(rels, "a_x", spelled)
    # state-x crossing relations at K and L letters:
    # z x z^-1 x'^-1 (K) or z x z^-1 x'^-4 (L), read from z; the inverse
    # reads z x^-1
    spelled = []
    for kind, zb, za, zpairs in table.kl:
        xx = [(xp, x2n) for (xp, _), (_, x2n) in zip(xs[za], xs[zb])]
        if kind == "K":
            spelled += [(zp, xp, zn, x2n) for zp, zn in zpairs for xp, x2n in xx]
        else:
            spelled += [(zp, xp, zn, x2n, x2n, x2n, x2n) for zp, zn in zpairs for xp, x2n in xx]
    _add_relations(rels, "k_x", spelled)
    return rels


class _RelatorLetters:
    """The letters of ``rule_relations``' relators that no rule changes, as
    ``_pair`` pairs, for the Hardware of one machine:

    - ``sigma``: per letter of the base word, its base letter, the zone
      before it and the zone after it;
    - ``tapes[bar]``: zone -> the pairs of its plain or bar tape letters
      a_1 .. a_mbar (no bar zone with j=1: it carries none);
    - ``states[bar]``: coordinate -> the pairs of the plain or bar state
      letters at it, one per letter of the base word;
    - ``kl``: per K or L letter of the base word, its kind, the zones
      before and after it, and the pairs of its plain state letters at
      each coordinate in ``ee.coords()`` order (for k_x).

    Kept on the machine (``Machine._relator_letters``) and built once."""

    __slots__ = ("sigma", "tapes", "states", "kl")

    def __init__(self, hw):
        coords = hw.ee.coords()
        indices = range(1, hw.ee.mbar + 1)
        self.sigma = tuple((bl, *hw.zones_of(bl)) for bl, _ in hw.sigma)
        self.tapes = {bar: {z: tuple([_pair(hw.tape(i, z, bar)) for i in indices])
                            for z in hw.zones if not (bar and z.j == 1)}
                      for bar in (False, True)}
        self.states = {bar: {c: tuple([_pair(hw.state(bl.kind, bl.j, c, bar))
                                       for bl, _, _ in self.sigma])
                             for c in coords}
                       for bar in (False, True)}
        plain = self.states[False]
        self.kl = tuple((bl.kind, zb, za, tuple([plain[c][p] for c in coords]))
                        for p, (bl, zb, za) in enumerate(self.sigma) if bl.kind in "KL")


def _add_relations(rels, kind, spelled):
    """Append to rels a Relation of kind for each tuple of letters in
    spelled, each already in canonical rotation.  Each Relation is built
    here, in this one frame, as ``Relation(kind, letters)`` would build it,
    with no call per relation: ``rule_relations`` passes only kinds of
    KINDS, so the kind check would pass."""
    add = rels.append
    for letters in spelled:
        rel = _new(Relation)
        _set_kind(rel, kind)
        _set_letters(rel, letters)
        add(rel)


@functools.cache
def _pair(sym):
    """The letters sym and sym^-1, built once per symbol: symbols are
    interned, so the cache grows no further than the symbol pools."""
    return (sym, 1), (sym, -1)


def _inverse(letters):
    return [(sym, -s) for sym, s in reversed(letters)]


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------

# Relator lines per ``fh.write`` in ``write_presentation``.
_WRITE_LINES = 4096


def write_presentation(p: Presentation, fh):
    """The text of p: its header, then its relator lines a few thousand to
    each ``fh.write``.  One write of it all is no faster, and an unbuffered
    stream (``python -u``) silently drops the rest of a write cut short by a
    reader that closes early; only the next write raises BrokenPipeError,
    which ``smkit present | head`` needs."""
    fh.write(f"n: {p.n}\nee-file: {p.ee_label or '-'}\n")
    rels = p.relations
    for k in range(0, len(rels), _WRITE_LINES):
        fh.write("".join([f"relator {rel.kind}: {word_to_text(rel.letters)}\n"
                          for rel in rels[k:k + _WRITE_LINES]]))


def read_presentation(fh):
    """The Presentation written by ``write_presentation``.  Each distinct
    token is parsed once per call; a relator repeats the few thousand letters
    of the presentation many times over.  Like ``emit``, the build creates
    no reference cycles and runs with the cyclic collector paused.

    A relator that repeats an earlier one is found by ``Presentation``, after
    the read; the line of each relator is kept as it is read, so the error
    names the lines of both."""
    with _collector_paused():
        n = None
        label = ""
        rels = []
        linenos = array("L")  # the line of each relator in rels; no int kept per line
        letters = {}  # token -> (symbol, sign)

        def letter(tok):
            got = letters.get(tok)
            if got is None:
                got = letters[tok] = parse_symbol(tok)
            return got

        for lineno, line in content_lines(fh):
            try:
                if line.startswith("n:"):
                    try:
                        n = int(line[2:])
                    except ValueError:
                        raise PresentationError(
                            f"n must be an integer, got {line[2:].strip()!r}") from None
                elif line.startswith("ee-file:"):
                    label = line[len("ee-file:"):].strip()
                    label = "" if label == "-" else label
                elif line.startswith("relator ") and ":" in line:
                    head, _, body = line.partition(":")
                    w = Word([letter(tok) for tok in body.split()])
                    rels.append(Relation(head[len("relator "):].strip(), normalize_relator(w)))
                    linenos.append(lineno)
                else:
                    raise PresentationError(f"unrecognized line {line!r}")
            except ValueError as e:
                raise PresentationError(f"line {lineno}: {e}") from None
        if n is None:
            raise PresentationError("missing n: header")
        try:
            return Presentation(n, label, tuple(rels))
        except PresentationError as e:  # a repeated relator
            first = {}
            for k, rel in enumerate(rels):
                j = first.setdefault(rel.letters, k)
                if j != k:
                    break
            raise PresentationError(
                f"line {linenos[k]}: {e} (first on line {linenos[j]})") from None
