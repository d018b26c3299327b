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

An admissible word is y_1 u_1 y_2 ... y_t u_t y_{t+1} where the y_i are
signed state letters with equal coordinates, y_{i+1} is succ(y_i) or
y_i^-1, each u_i is a word over the tape alphabet of the sector's zone, and
the whole word is freely reduced.  Flavors:

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
*trusted* by that Hardware (``Hardware.trusts``).  The record is not a
field, so it stays out of ``==``, ``repr`` and pickles, and the hash is the
same with or without it (the table only saves hashing the states tuple).
Only ``validate`` (so ``parse_admissible``) and ``Machine._apply`` record a
table; words from ``with_coord``, ``inverse``, hand-built words and words
validated by another Hardware are not trusted, and a step on them runs the
full ``validate``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .words import (
    BaseLetter, Coord, State, Tape, Word, is_reduced, word_to_text,
)

COORD_E1 = Coord(None, 1)


class EEError(ValueError):
    pass


class AdmissibleError(ValueError):
    def __init__(self, clause, detail=""):
        self.clause = clause
        self.detail = detail
        super().__init__(f"{clause}: {detail}" if detail else clause)


class NotReduced(AdmissibleError):
    def __init__(self, detail=""):
        super().__init__("NotReduced", detail)


class BadBasePattern(AdmissibleError):
    def __init__(self, detail=""):
        super().__init__("BadBasePattern", detail)


class MixedCoordinates(AdmissibleError):
    def __init__(self, detail=""):
        super().__init__("MixedCoordinates", detail)


class PositivityViolation(AdmissibleError):
    def __init__(self, detail=""):
        super().__init__("PositivityViolation", detail)

    @classmethod
    def at(cls, states, k):
        """The violation in sector k of a strict word with these states."""
        return cls(f"sector {k} between {states[k][0]!r} and {states[k + 1][0]!r}")


class BarSectorNotEmpty(AdmissibleError):
    def __init__(self, detail=""):
        super().__init__("BarSectorNotEmpty", detail)


class BadInnerAlphabet(AdmissibleError):
    def __init__(self, detail=""):
        super().__init__("BadInnerAlphabet", detail)


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
        """All (r, omega) coordinate pairs, empty relator first."""
        rs = [None] + list(range(1, len(self.nonempty) + 1))
        return [Coord(r, i) for r in rs for i in range(1, 6)]


def load_ee(text):
    """Parse the EE file format (see README); '#' starts a comment."""
    gens = None
    m = None
    pairs = {}
    relators = []
    saw_relator_line = False
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise EEError(f"line {lineno}: expected 'key: value'")
        key, _, value = line.partition(":")
        key, value = key.strip(), value.strip()
        if key == "generators":
            gens = [_gen_index(tok, lineno) for tok in value.split()]
            if gens != list(range(1, len(gens) + 1)):
                raise EEError(f"line {lineno}: generators must be a1..a<mbar> in order")
        elif key == "involution":
            toks = value.split()
            if len(toks) != 2:
                raise EEError(f"line {lineno}: involution takes two generators")
            a, b = (_gen_index(t, lineno) for t in toks)
            pairs[a] = b
            pairs[b] = a
        elif key == "m":
            m = int(value)
        elif key == "relator":
            saw_relator_line = True
            relators.append(tuple(_gen_index(t, lineno) for t in value.split()))
        else:
            raise EEError(f"line {lineno}: unknown key {key!r}")
    if gens is None or m is None or not saw_relator_line:
        raise EEError("file needs generators:, m:, and relator: lines")
    mbar = len(gens)
    try:
        involution = tuple(pairs[i] for i in range(1, mbar + 1))
    except KeyError as e:
        raise EEError(f"generator a{e.args[0]} missing from involution") from None
    return EEPresentation(m=m, mbar=mbar, involution=involution, relators=tuple(relators))


def _gen_index(tok, lineno):
    if not tok.startswith("a") or not tok[1:].isdigit():
        raise EEError(f"line {lineno}: bad generator token {tok!r}")
    return int(tok[1:])


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
        self._zone_after_pos = tuple(zones)  # zone of the gap after position p
        self._pos = {bl: p for p, (bl, _) in enumerate(sigma)}
        self._orient = {bl: s for bl, s in sigma}
        self._zone_after = {}  # signed letter -> zone, filled by zone_after
        self._zone_components = None  # filled by h2.zone_components
        self._sector_tables = {}  # states tuple -> SectorTable, by sector_table
        self._flanks = {}
        for j in range(1, N + 1):
            L, P, R = (BaseLetter(k, j) for k in "LPR")
            lL = self.pred((L, 1))
            rR = self.succ((R, 1))
            self._flanks[BaseLetter("K", j)] = (lL, (L, 1))
            self._flanks[L] = ((L, 1), (P, 1))
            self._flanks[P] = ((P, 1), (R, 1))
            self._flanks[R] = ((R, 1), rR)

    # -- signed-letter geometry ------------------------------------------

    def succ(self, y):
        bl, s = y
        p = self._pos[bl]
        if s == self._orient[bl]:
            nb, ns = self.sigma[(p + 1) % len(self.sigma)]
            return (nb, ns)
        nb, ns = self.sigma[(p - 1) % len(self.sigma)]
        return (nb, -ns)

    def pred(self, y):
        bl, s = y
        p = self._pos[bl]
        if s == self._orient[bl]:
            nb, ns = self.sigma[(p - 1) % len(self.sigma)]
            return (nb, ns)
        nb, ns = self.sigma[(p + 1) % len(self.sigma)]
        return (nb, -ns)

    def zone_after(self, y):
        """Zone of the sector that starts at the signed letter y (looked up
        once per letter, then remembered)."""
        zone = self._zone_after.get(y)
        if zone is None:
            bl, s = y
            p = self._pos[bl]
            if s != self._orient[bl]:
                p -= 1
            zone = self._zone_after[y] = self._zone_after_pos[p % len(self.sigma)]
        return zone

    def zone_before(self, y):
        return self.zone_after((y[0], -y[1]))

    def zones_of(self, z: BaseLetter):
        """(zone before z, zone after z) along z's positive direction."""
        return self.zone_before((z, 1)), self.zone_after((z, 1))

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
        """Copy of w (a sequence of (index, sign) pairs) in the zone alphabet."""
        seq = [(self.tape(i, zone, bar), s) for i, s in w]
        if invert:
            seq = [(t, -s) for t, s in reversed(seq)]
        return Word(seq)

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
        return Word(((State(bl.kind, bl.j, COORD_E1), s) for bl, s in self.sigma),
                    reduce=False)

    def sigma_four(self, w1, w2, w3, w4, r=None, i=1, bar=False):
        """The block word family of the four-slot standard words.

        Block j carries w1 in its K_j-zone, w2 in L_j, w3 in P_j, w4 in R_j;
        even blocks appear inverted.  The bar variant empties block 1 and
        bars the letters.  Returns a plain Word (no trailing state letter).
        """
        coord = Coord(r, i)
        letters = []
        for j in range(1, self.N + 1):
            wpart = []
            for kind, w in (("L", w1), ("P", w2), ("R", w3)):
                zone = self.zone_before((BaseLetter(kind, j), 1))
                if not (bar and zone.j == 1):
                    wpart += list(self.tape_word(w, zone, bar).letters)
                wpart.append((self.state(kind, j, coord, bar), 1))
            zone = self.zone_after((BaseLetter("R", j), 1))
            if not (bar and zone.j == 1):
                wpart += list(self.tape_word(w4, zone, bar).letters)
            ksign = 1 if j % 2 else -1
            if j % 2 == 0:
                wpart = [(sym, -s) for sym, s in reversed(wpart)]
            letters += [(self.state("K", j, coord, bar), ksign)] + wpart
        return Word(letters)

    def sigma_w(self, w, flavor="strict"):
        """Sigma(w) with the trailing K1(e,1): the standard admissible word
        whose P-zones carry copies of w (bar flavor empties block 1)."""
        if flavor == "strict" and not all(s > 0 for _, s in w):
            raise PositivityViolation("sigma_w needs a positive word for the strict flavor")
        bar = flavor == "bar"
        body = self.sigma_four((), (), w, (), r=None, i=1, bar=bar)
        flat = Word(body.letters + ((self.state("K", 1, COORD_E1, bar), 1),), reduce=False)
        return self.parse_admissible(flat, flavor)

    # -- admissible words -------------------------------------------------

    def parse_admissible(self, w, flavor="strict"):
        """Validate and sector an admissible word; raises AdmissibleError.

        Letters are canonicalized on ingest: barred states at (e,1) and
        barred P-zone letters with index <= m name the same generators as
        their plain brothers and are stored unbarred."""
        letters = tuple(w.letters) if isinstance(w, Word) else tuple(w)
        canon = []
        for sym, s in letters:
            if isinstance(sym, State):
                sym = self.state(sym.kind, sym.j, sym.coord, sym.bar)
            elif isinstance(sym, Tape):
                sym = self.tape(sym.i, sym.zone, sym.bar)
            canon.append((sym, s))
        letters = tuple(canon)
        if not letters:
            raise BadBasePattern("empty word")
        if not is_reduced(letters):
            raise NotReduced(word_to_text(Word(letters, reduce=False)))
        states = []
        inners = []
        current = []
        for sym, s in letters:
            if isinstance(sym, State):
                if states:
                    inners.append(Word(current, reduce=False))
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
        (``parse_admissible`` checks it), but a step on a trusted word relies
        on it, so the sector table is recorded on ``aw`` only when every
        inner word is freely reduced."""
        table = self.sector_table(aw.states)
        mbar = self.ee.mbar
        reduced = True
        for k, (zone, inner) in enumerate(zip(table.zones, aw.inners)):
            last = None
            for letter in inner.letters:
                sym = letter[0]
                if sym.zone != zone:
                    raise BadInnerAlphabet(
                        f"sector {k}: {sym!r} is not in the {zone!r}-zone alphabet")
                if not 1 <= sym.i <= mbar:
                    raise BadInnerAlphabet(f"sector {k}: index of {sym!r} out of range")
                if last is not None and last[0] is sym and last[1] != letter[1]:
                    reduced = False
                last = letter
        if aw.flavor == "strict":
            self._validate_strict(aw, table)
        elif aw.flavor == "bar":
            self.validate_bar_shape(aw, table)
        elif aw.flavor == "mixed":
            try:
                self.validate_plain_shape(aw, table)
            except AdmissibleError:
                self.validate_bar_shape(aw, table)
        else:
            raise ValueError(f"unknown flavor {aw.flavor!r}")
        if reduced:
            object.__setattr__(aw, "_table", table)

    def validate_plain_shape(self, aw, table=None):
        """Plain state and tape letters only; ``table`` is the sector table
        of ``aw.states`` when the caller has it."""
        if table is None:
            table = self.sector_table(aw.states)
        if table.not_plain is not None:
            raise BadInnerAlphabet(f"{table.not_plain!r} is not a plain state letter")
        for inner in aw.inners:
            for sym, _ in inner.letters:
                if not self.plain_tape_ok(sym):
                    raise BadInnerAlphabet(f"{sym!r} is not a plain tape letter")

    def _validate_strict(self, aw, table):
        self.validate_plain_shape(aw, table)
        for k, (need, inner) in enumerate(zip(table.signs, aw.inners)):
            if need and any(s != need for _, s in inner.letters):
                raise PositivityViolation.at(aw.states, k)

    def validate_bar_shape(self, aw, table=None):
        """Bar state and tape letters only, empty j=1 sectors; ``table`` as
        for ``validate_plain_shape``."""
        if table is None:
            table = self.sector_table(aw.states)
        if table.not_bar is not None:
            raise BadInnerAlphabet(f"{table.not_bar!r} is not a bar state letter")
        for k, (zone, inner) in enumerate(zip(table.zones, aw.inners)):
            if zone.j == 1 and inner.letters:
                raise BarSectorNotEmpty(f"sector {k} in zone {zone!r}")
            for sym, _ in inner.letters:
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
    inners: tuple  # Word per sector, len == len(states) - 1

    # The SectorTable of the Hardware that validated the word, or None; set
    # only by Hardware.validate and Machine._apply, and not a field.
    _table = None

    def __hash__(self):
        # Equal words hash equally with or without a recorded table: the
        # table only keeps the hash of the states tuple, so a trusted word's
        # states are not hashed again.
        table = self._table
        return hash((self.flavor, hash(self.states) if table is None else table.states_hash,
                     tuple([inner.letters for inner in self.inners])))

    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("_table", None)
        return state

    @property
    def coord(self):
        return self.states[0][0].coord

    def base(self):
        return tuple(st.base for st, _ in self.states)

    def signed_base(self):
        return tuple((st.base, s) for st, s in self.states)

    def flat(self):
        letters = []
        for k, (st, s) in enumerate(self.states):
            letters.append((st, s))
            if k < len(self.inners):
                letters += list(self.inners[k].letters)
        return Word(letters, reduce=False)

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
        inners = tuple(w.inverse() for w in reversed(self.inners))
        return AdmissibleWord(self.flavor, states, inners)
