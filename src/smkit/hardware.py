"""Static hardware: the input presentation, the cyclic base word, zones,
and admissible words.

The cyclic base word (for N even, N >= 8) is

    K1 L1 P1 R1 K2^-1 R2^-1 P2^-1 L2^-1 K3 L3 P3 R3 K4^-1 ...

Every unsigned basic letter z_j occurs exactly once up to sign.  The 4N gaps
between consecutive letters are the tape *zones*; zones are named by unsigned
basic letters so that for every j the four sectors of the j-th block carry

    (lL_j, L_j)-sector : zone K_j      (lL_j = pred of L_j, a K-type letter)
    (L_j,  P_j)-sector : zone L_j
    (P_j,  R_j)-sector : zone P_j
    (R_j, rR_j)-sector : zone R_j      (rR_j = succ of R_j, a K-type letter)

This is the unique naming under which rule insertions, W <-> W^-1 symmetry
and theta-band gluing all agree; note that next to the letter K_j for even j
sit the zones R_j (before) and R_{j-1} (after), not the zone K_j.
``Hardware.zones`` lists the zone of the gap after each letter of the base
word.

The standard words are one walk over the base word and its zones: each
state letter is followed by the tape word of the gap after it, inverted
where the base word reads the gap backward (``sigma_four``).  The hub is
the walk with no tape words, and the bar copy has no tape letters over the
j=1 zones (``tape_word``).

An admissible word is y_1 u_1 y_2 ... y_t u_t y_{t+1} where the y_i are
signed state letters with equal coordinates, y_{i+1} is succ(y_i) or
y_i^-1, each u_i is a word over the tape alphabet of the sector's zone, and
the whole word is freely reduced.  An ``AdmissibleWord`` keeps its state
letters and, for each sector, the tuple of the (symbol, sign) letters of
u_i (``inners``; an empty sector is ``()``); ``flat()`` joins them into one
letter tuple, the word as the machine layer passes it around.  Flavors:

    strict -- letters unbarred; the inner part of a sector is positive when
              the sector ends at L_j/P_j or starts at R_j (and negative in
              the mirrored cases), leaving P-zones and fold-backs like
              L_j L_j^-1 unconstrained.
    bar    -- letters barred (states at coordinate (e,1) and P-zone tape
              letters with index <= m are shared with the plain alphabet);
              every sector of a j=1 zone is empty; no positivity.
    mixed  -- bar-admissible, or the strict shape without positivity.

A word's state letters fix everything about its sectors except the inner
words: whether the states are admissible at all (one coordinate of the
presentation, every letter on the base word, successors or fold-backs),
each sector's zone, the sign a strict sector's inner word needs, which
sectors fold back, and whether the states are plain or bar.
``Hardware.sector_table`` works this out once per states tuple and keeps it
in a SectorTable; the tables are memoized per Hardware under the states
tuple and live as long as it does, one entry per distinct valid states
tuple looked up; an invalid tuple is never stored and raises on every call.
A table also holds the step plans of the rules applied to words with its
states (``SectorTable.plans``, filled by ``Machine._apply``), so they live
as long as the table.

``validate`` reads the table and then checks every inner letter (zone
alphabet, index range, plain or bar letter, positivity, empty j=1 sectors
for bar).  When it passes and the inner words are freely reduced, it
records the table on the word (``AdmissibleWord._table``): the word is then
*trusted* by that Hardware (``Hardware.trusts``).  With the table it
records the shape the word passed (``AdmissibleWord._bar_shape``): plain for
a strict word, bar for a bar word, and for a mixed word the plain shape
when it has it, else the bar one.  A rule's shape check on a trusted word
with that shape walks no letter (``Machine._shape_error``); a mixed word
at (e,1) may have both shapes, and the other one is checked in full.  The
records are not fields, so they stay out of ``==``, ``repr`` and pickles,
and the hash is the same with or without them (the table only saves
hashing the states tuple).  Only ``validate`` (so ``parse_admissible``) and
``Machine._apply`` record them (a step records its rule's shape); words
from ``with_coord``, ``inverse``, hand-built words and words validated by
another Hardware are not trusted, and a step on them runs the full
``validate``.

``parse_admissible`` canonicalizes each distinct state or tape symbol once
per Hardware and remembers the result; a symbol that fails (a tape index
out of range) is never remembered.  ``succ`` and ``zone_after`` fill their
tables the same way, one entry per signed letter looked up.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .words import (
    BaseLetter, Coord, State, Tape, Word, content_lines, free_reduce, is_reduced,
    parse_generators, word_to_text,
)

COORD_E1 = Coord(None, 1)
_LETTERS = (State, Tape)


class EEError(ValueError):
    pass


class AdmissibleError(ValueError):
    """A failed clause of admissibility; ``clause`` is the subclass's name."""

    def __init__(self, detail=""):
        self.clause = type(self).__name__
        self.detail = detail
        super().__init__(f"{self.clause}: {detail}" if detail else self.clause)


class NotReduced(AdmissibleError):
    pass


class BadBasePattern(AdmissibleError):
    pass


class MixedCoordinates(AdmissibleError):
    pass


class PositivityViolation(AdmissibleError):
    @classmethod
    def at(cls, states, k):
        """The violation in sector k of a strict word with these states."""
        return cls(f"sector {k} between {states[k][0]!r} and {states[k + 1][0]!r}")


class BarSectorNotEmpty(AdmissibleError):
    pass


class BadInnerAlphabet(AdmissibleError):
    pass


@dataclass(frozen=True)
class EEPresentation:
    """Finite list of positive relators closed under the priming involution.

    Relators are tuples of generator indices (1..mbar).  The empty relator
    is a member; the non-empty relators are numbered 1.. in input order and
    referenced by that index everywhere (coordinate "e" is the empty one).
    """

    m: int
    mbar: int
    involution: tuple  # involution[i-1] = i', 1-based values
    relators: tuple  # tuple of tuples of ints, () included

    # The tuple coords() returns, kept on the first call; not a field.
    _coords = None

    def __post_init__(self):
        if not (1 <= self.m <= self.mbar):
            raise EEError(f"need 1 <= m <= mbar, got m={self.m}, mbar={self.mbar}")
        if len(self.involution) != self.mbar:
            raise EEError("involution must cover all generators")
        for i, ip in enumerate(self.involution, 1):
            if not 1 <= ip <= self.mbar or self.involution[ip - 1] != i:
                raise EEError(f"involution is not an involution at a{i}")
        if () not in self.relators:
            raise EEError("the empty relator must be listed")
        if len(set(self.relators)) != len(self.relators):
            raise EEError("duplicate relators")
        rels = set(self.relators)
        for r in self.relators:
            for a in r:
                if not 1 <= a <= self.mbar:
                    raise EEError(f"relator letter a{a} out of range")
            if self.prime_word(r) not in rels:
                raise EEError(f"set not closed under priming at {r}")
        for i in range(1, self.mbar + 1):
            ip = self.involution[i - 1]
            if (i, ip) not in rels or (ip, i) not in rels:
                raise EEError(f"missing a{i}a{i}'-relators")

    def prime(self, i):
        return self.involution[i - 1]

    def prime_word(self, r):
        return tuple(self.prime(a) for a in reversed(r))

    @property
    def nonempty(self):
        return tuple(r for r in self.relators if r)

    @property
    def c(self):
        return max(len(r) for r in self.relators)

    def relator(self, r: Optional[int]):
        if r is None:
            return ()
        ne = self.nonempty
        if not 1 <= r <= len(ne):
            raise EEError(f"no relator r{r}")
        return ne[r - 1]

    def coords(self):
        """All (r, omega) coordinate pairs, empty relator first: one tuple,
        built on the first call (loading a presentation builds none)."""
        coords = self._coords
        if coords is None:
            rs = [None] + list(range(1, len(self.nonempty) + 1))
            coords = tuple([Coord(r, i) for r in rs for i in range(1, 6)])
            object.__setattr__(self, "_coords", coords)
        return coords


def load_ee(text):
    """Parse the EE file format (see README): ``key: value`` lines."""
    gens = None
    m = None
    pairs = {}
    relators = []
    for lineno, line in content_lines(text.splitlines()):
        key, colon, value = line.partition(":")
        key, value = key.strip(), value.strip()
        try:
            if not colon:
                raise EEError("expected 'key: value'")
            if key == "m":
                try:
                    m = int(value)
                except ValueError:
                    raise EEError(f"m must be an integer, got {value!r}") from None
                continue
            if key not in ("generators", "involution", "relator"):
                raise EEError(f"unknown key {key!r}")
            word = parse_generators(value)
            letters = [i for i, sign in word if sign > 0]
            if len(letters) < len(word):
                raise EEError(f"inverse generator in {value!r}")
            if key == "generators":
                if letters != list(range(1, len(letters) + 1)):
                    raise EEError("generators must be a1..a<mbar> in order")
                gens = letters
            elif key == "involution":
                if len(letters) != 2:
                    raise EEError("involution takes two generators")
                a, b = letters
                pairs[a] = b
                pairs[b] = a
            else:
                relators.append(tuple(letters))
        except ValueError as e:
            raise EEError(f"line {lineno}: {e}") from None
    if gens is None or m is None or not relators:
        raise EEError("file needs generators:, m:, and relator: lines")
    mbar = len(gens)
    try:
        involution = tuple(pairs[i] for i in range(1, mbar + 1))
    except KeyError as e:
        raise EEError(f"generator a{e.args[0]} missing from involution") from None
    return EEPresentation(m=m, mbar=mbar, involution=involution, relators=tuple(relators))


def load_ee_file(path):
    with open(path, encoding="utf-8") as f:
        return load_ee(f.read())


class SectorTable:
    """What a states tuple fixes about its sectors, whatever their inner
    words: the zone of each sector, the sign its inner word needs in the
    strict flavor (+1, -1 or None), whether the sector folds back (y y^-1),
    and the first state letter that is not plain (not bar), or None.

    ``hw`` is the Hardware that built the table, ``states_hash`` the hash of
    the states tuple, and ``plans`` maps a signed rule to its step plan on
    these states (filled by ``Machine._apply``)."""

    __slots__ = ("hw", "states_hash", "zones", "signs", "folds", "not_plain", "not_bar", "plans")

    def __init__(self, hw, states_hash, zones, signs, folds, not_plain, not_bar):
        self.hw = hw
        self.states_hash = states_hash
        self.zones = zones
        self.signs = signs
        self.folds = folds
        self.not_plain = not_plain
        self.not_bar = not_bar
        self.plans = {}


class Hardware:
    """Precomputed base-word geometry for a given presentation and N."""

    def __init__(self, ee: EEPresentation, N: int = 8):
        if N < 8 or N % 2:
            raise ValueError(f"N must be even and >= 8, got {N}")
        self.ee = ee
        self.N = N
        sigma = []
        zones = []
        for j in range(1, N + 1):
            if j % 2:
                sigma += [(BaseLetter(k, j), 1) for k in "KLPR"]
                zones += [BaseLetter(k, j) for k in "KLPR"]
            else:
                sigma += [(BaseLetter(k, j), -1) for k in "KRPL"]
                zones += [BaseLetter(k, j) for k in "RPLK"]
        self.sigma = tuple(sigma)  # the cyclic base word, 4N signed letters
        self.zones = tuple(zones)  # zones[p]: the zone of the gap after sigma[p]
        self._pos = {bl: p for p, (bl, _) in enumerate(sigma)}
        self._orient = {bl: s for bl, s in sigma}
        self._succ = {}  # signed letter -> its successor, filled by succ
        self._zone_after = {}  # signed letter -> zone, filled by zone_after
        self._canon = {}  # State/Tape symbol -> its canonical form, by parse_admissible
        self._zone_components = None  # filled by h2.zone_components
        self._sector_tables = {}  # states tuple -> SectorTable, by sector_table
        # the letters on either side of each gap, in its zone's canonical
        # direction: forward in odd blocks, backward in even ones
        self._flanks = {zone: (y, y2) if y[1] > 0 else ((y2[0], -y2[1]), (y[0], -y[1]))
                        for y, zone, y2 in zip(sigma, zones, sigma[1:] + sigma[:1])}

    # -- signed-letter geometry ------------------------------------------

    def succ(self, y):
        """The signed letter after y along the base word (looked up once per
        letter, then remembered)."""
        nxt = self._succ.get(y)
        if nxt is None:
            bl, s = y
            p = self._pos[bl]
            if s == self._orient[bl]:
                nxt = self.sigma[(p + 1) % len(self.sigma)]
            else:
                nb, ns = self.sigma[(p - 1) % len(self.sigma)]
                nxt = (nb, -ns)
            self._succ[y] = nxt
        return nxt

    def pred(self, y):
        bl, s = self.succ((y[0], -y[1]))
        return (bl, -s)

    def zone_after(self, y):
        """Zone of the sector that starts at the signed letter y (looked up
        once per letter, then remembered)."""
        zone = self._zone_after.get(y)
        if zone is None:
            bl, s = y
            p = self._pos[bl]
            if s != self._orient[bl]:
                p -= 1
            zone = self._zone_after[y] = self.zones[p % len(self.sigma)]
        return zone

    def zones_of(self, z: BaseLetter):
        """(zone before z, zone after z) along z's positive direction."""
        return self.zone_after((z, -1)), self.zone_after((z, 1))

    def zone_flanks(self, zone: BaseLetter):
        """(left, right) signed letters of the zone in canonical direction."""
        return self._flanks[zone]

    def left_letter_of_L(self, j):
        return self._flanks[BaseLetter("K", j)][0]

    # -- letter constructors (identification-aware) -----------------------

    def tape(self, i, zone, bar=False):
        if not 1 <= i <= self.ee.mbar:
            raise BadInnerAlphabet(f"a{i} out of range 1..{self.ee.mbar}")
        if bar and zone.kind == "P" and i <= self.ee.m:
            bar = False  # shared with the plain alphabet
        return Tape(i, zone, bar)

    def state(self, kind, j, coord, bar=False):
        if bar and coord == COORD_E1:
            bar = False  # shared with the plain alphabet
        return State(kind, j, coord, bar)

    def tape_word(self, w, zone, bar=False, invert=False):
        """Copy of w (a sequence of (index, sign) pairs) in the zone alphabet,
        inverted when ``invert`` is set, as its freely reduced letter tuple.
        The bar copy has no tape letters over the j=1 zones, so there it is
        ``()`` whatever w is."""
        if bar and zone.j == 1:
            return ()
        seq = [(self.tape(i, zone, bar), s) for i, s in w]
        if invert:
            seq = [(t, -s) for t, s in reversed(seq)]
        return free_reduce(seq)

    def plain_tape_ok(self, t: Tape):
        return not t.bar

    def bar_tape_ok(self, t: Tape):
        return t.bar or (t.zone.kind == "P" and t.i <= self.ee.m)

    def plain_state_ok(self, st: State):
        return not st.bar

    def bar_state_ok(self, st: State):
        return st.bar or st.coord == COORD_E1

    # -- standard words ---------------------------------------------------

    def hub(self):
        """The hub: the base word decorated with coordinates (e,1)."""
        return self.sigma_four((), (), (), ())

    def sigma_four(self, w1, w2, w3, w4, r=None, i=1, bar=False):
        """The block word family of the four-slot standard words: one walk
        over the base word, each state letter at coordinate (r, i) followed
        by the tape word of the gap after it.

        The K_j-zone carries w1, L_j w2, P_j w3 and R_j w4, inverted where
        the base word reads the gap backward (the even blocks).  The bar
        variant bars the letters, and its j=1 zones carry none (see
        ``tape_word``).  Returns a plain Word (no trailing state letter).
        """
        coord = Coord(r, i)
        slots = {"K": w1, "L": w2, "P": w3, "R": w4}
        letters = []
        for (bl, s), zone in zip(self.sigma, self.zones):
            letters.append((self.state(bl.kind, bl.j, coord, bar), s))
            letters += self.tape_word(slots[zone.kind], zone, bar, s < 0)
        return Word(letters)

    def sigma_w(self, w, flavor="strict"):
        """Sigma(w) with the trailing K1(e,1): the standard admissible word
        whose P-zones carry copies of w (bar flavor empties block 1)."""
        if flavor == "strict" and not all(s > 0 for _, s in w):
            raise PositivityViolation("sigma_w needs a positive word for the strict flavor")
        bar = flavor == "bar"
        body = self.sigma_four((), (), w, (), r=None, i=1, bar=bar)
        return self.parse_admissible(body.letters + ((self.state("K", 1, COORD_E1, bar), 1),),
                                     flavor)

    # -- admissible words -------------------------------------------------

    def parse_admissible(self, w, flavor="strict"):
        """Validate and sector an admissible word; raises AdmissibleError.

        Letters are canonicalized on ingest: barred states at (e,1) and
        barred P-zone letters with index <= m name the same generators as
        their plain brothers and are stored unbarred.  Each distinct symbol
        is canonicalized once per Hardware; one that fails (a tape index out
        of range) is never remembered and raises on every call."""
        memo = self._canon
        canon = []
        for sym, s in w:
            if isinstance(sym, _LETTERS):
                c = memo.get(sym)
                if c is None:
                    if isinstance(sym, State):
                        c = self.state(sym.kind, sym.j, sym.coord, sym.bar)
                    else:
                        c = self.tape(sym.i, sym.zone, sym.bar)
                    memo[sym] = c
                sym = c
            canon.append((sym, s))
        letters = tuple(canon)
        if not letters:
            raise BadBasePattern("empty word")
        if not is_reduced(letters):
            raise NotReduced(word_to_text(letters))
        states = []
        inners = []
        current = []
        for sym, s in letters:
            if isinstance(sym, State):
                if states:
                    inners.append(tuple(current))
                current = []
                states.append((sym, s))
            elif isinstance(sym, Tape):
                if not states:
                    raise BadBasePattern("word must start with a state letter")
                current.append((sym, s))
            else:
                raise BadInnerAlphabet(f"{sym!r} is not a state or tape letter")
        if current:
            raise BadBasePattern("word must end with a state letter")
        if not states:
            raise BadBasePattern("need at least one state letter")
        aw = AdmissibleWord(flavor, tuple(states), tuple(inners))
        self.validate(aw)
        return aw

    def sector_table(self, states):
        """The SectorTable of a states tuple: its structure checked once.

        The checks are those at the head of ``validate``, in its order: one
        coordinate (MixedCoordinates), one of ``ee.coords()``, every state
        letter on the base word at this N and each adjacent pair a successor
        or a fold-back (BadBasePattern).  Only tuples that pass are
        remembered, so an invalid tuple raises the same error on every call.
        """
        table = self._sector_tables.get(states)
        if table is None:
            table = self._sector_tables[states] = self._build_sector_table(states)
        return table

    def _build_sector_table(self, states):
        coord = states[0][0].coord
        for st, _ in states:
            if st.coord != coord:
                raise MixedCoordinates(f"{st!r} vs coordinate {coord!r}")
        if coord not in self.ee.coords():
            raise BadBasePattern(f"{states[0][0]!r}: {coord!r} names no relator "
                                 f"and age of the presentation")
        for st, _ in states:
            if st.base not in self._pos:
                raise BadBasePattern(f"{st!r} is not on the base word at N={self.N}")
        for (st, s), (st2, s2) in zip(states, states[1:]):
            y, y2 = (st.base, s), (st2.base, s2)
            if y2 != self.succ(y) and y2 != (y[0], -y[1]):
                raise BadBasePattern(f"{st!r}^{s} followed by {st2!r}^{s2}")
        pairs = tuple(zip(states, states[1:]))
        return SectorTable(
            self, hash(states),
            zones=tuple(self.zone_after((st.base, s)) for (st, s), _ in pairs),
            signs=tuple(self.positivity_sign(y, y2) for y, y2 in pairs),
            folds=tuple(st2 is st and s2 == -s for (st, s), (st2, s2) in pairs),
            not_plain=next((st for st, _ in states if not self.plain_state_ok(st)), None),
            not_bar=next((st for st, _ in states if not self.bar_state_ok(st)), None),
        )

    def trusts(self, aw):
        """True when this Hardware validated ``aw`` (or built it in a step
        from a word it trusted): ``aw`` carries one of its sector tables."""
        return aw._table is not None and aw._table.hw is self

    def validate(self, aw):
        """Check every clause of admissibility for ``aw.flavor``; raises the
        first AdmissibleError.  Free reduction is not a clause here
        (``parse_admissible`` checks it), but a step hands a trusted word's
        unchanged sectors to its trusted result as they are, so the sector
        table is recorded on ``aw`` only when every inner word is freely
        reduced (``is_reduced``)."""
        table = self.sector_table(aw.states)
        mbar = self.ee.mbar
        for k, (zone, inner) in enumerate(zip(table.zones, aw.inners)):
            for sym, _ in inner:
                if sym.zone != zone:
                    raise BadInnerAlphabet(
                        f"sector {k}: {sym!r} is not in the {zone!r}-zone alphabet")
                if not 1 <= sym.i <= mbar:
                    raise BadInnerAlphabet(f"sector {k}: index of {sym!r} out of range")
        bar = aw.flavor == "bar"
        if aw.flavor == "strict":
            self._validate_strict(aw, table)
        elif bar:
            self.validate_bar_shape(aw, table)
        elif aw.flavor == "mixed":
            try:
                self.validate_plain_shape(aw, table)
            except AdmissibleError:
                self.validate_bar_shape(aw, table)
                bar = True
        else:
            raise ValueError(f"unknown flavor {aw.flavor!r}")
        if all(is_reduced(inner) for inner in aw.inners):
            object.__setattr__(aw, "_table", table)
            object.__setattr__(aw, "_bar_shape", bar)

    def validate_plain_shape(self, aw, table=None):
        """Plain state and tape letters only; ``table`` is the sector table
        of ``aw.states`` when the caller has it."""
        if table is None:
            table = self.sector_table(aw.states)
        if table.not_plain is not None:
            raise BadInnerAlphabet(f"{table.not_plain!r} is not a plain state letter")
        for inner in aw.inners:
            for sym, _ in inner:
                if not self.plain_tape_ok(sym):
                    raise BadInnerAlphabet(f"{sym!r} is not a plain tape letter")

    def _validate_strict(self, aw, table):
        self.validate_plain_shape(aw, table)
        for k, (need, inner) in enumerate(zip(table.signs, aw.inners)):
            if need and any(s != need for _, s in inner):
                raise PositivityViolation.at(aw.states, k)

    def validate_bar_shape(self, aw, table=None):
        """Bar state and tape letters only, empty j=1 sectors; ``table`` as
        for ``validate_plain_shape``."""
        if table is None:
            table = self.sector_table(aw.states)
        if table.not_bar is not None:
            raise BadInnerAlphabet(f"{table.not_bar!r} is not a bar state letter")
        for k, (zone, inner) in enumerate(zip(table.zones, aw.inners)):
            if zone.j == 1 and inner:
                raise BarSectorNotEmpty(f"sector {k} in zone {zone!r}")
            for sym, _ in inner:
                if not self.bar_tape_ok(sym):
                    raise BadInnerAlphabet(f"{sym!r} is not a bar tape letter")

    @staticmethod
    def positivity_sign(y1, y2):
        """Required inner sign (+1, -1 or None) for a strict sector y1..y2.

        Sectors ending at L_j/P_j or starting at R_j are positive; the
        mirrored ones are negative; everything else is unconstrained.
        """
        (st1, s1), (st2, s2) = y1, y2
        if (st2.kind in "LP" and s2 > 0) or (st1.kind == "R" and s1 > 0):
            return 1
        if (st1.kind in "LP" and s1 < 0) or (st2.kind == "R" and s2 < 0):
            return -1
        return None


@dataclass(frozen=True)
class AdmissibleWord:
    flavor: str
    states: tuple  # (State, sign) pairs
    inners: tuple  # letter tuple per sector, len == len(states) - 1

    # The SectorTable of the Hardware that validated the word, or None, and
    # the shape the word passed then: True for the bar shape, False for the
    # plain one, None when untrusted.  Set together, only by
    # Hardware.validate and Machine._apply, and not fields.
    _table = None
    _bar_shape = None

    def __hash__(self):
        # Equal words hash equally with or without a recorded table: the
        # table only keeps the hash of the states tuple, so a trusted word's
        # states are not hashed again.
        table = self._table
        return hash((self.flavor, hash(self.states) if table is None else table.states_hash,
                     self.inners))

    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("_table", None)
        state.pop("_bar_shape", None)
        return state

    @property
    def coord(self):
        return self.states[0][0].coord

    def base(self):
        return tuple(st.base for st, _ in self.states)

    def signed_base(self):
        return tuple((st.base, s) for st, s in self.states)

    def flat(self):
        letters = list(self.states[:1])
        for y, inner in zip(self.states[1:], self.inners):
            letters += inner
            letters.append(y)
        return tuple(letters)

    def __len__(self):
        return len(self.states) + sum(len(i) for i in self.inners)

    def text(self):
        return word_to_text(self.flat())

    def sector(self, k):
        return (self.states[k], self.inners[k], self.states[k + 1])

    def with_coord(self, hw, coord, bar=None):
        states = []
        for st, s in self.states:
            b = st.bar if bar is None else bar
            states.append((hw.state(st.kind, st.j, coord, b), s))
        return AdmissibleWord(self.flavor, tuple(states), self.inners)

    def inverse(self):
        states = tuple((st, -s) for st, s in reversed(self.states))
        inners = tuple(tuple((t, -e) for t, e in reversed(inner))
                       for inner in reversed(self.inners))
        return AdmissibleWord(self.flavor, states, inners)
