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
before deduplication.  Main, bar_main and hub relators vary with the rule
and go through ``normalize_relator``; the fixed-shape kinds (theta_a,
bar_theta_a, a_x, k_x) are spelled in their canonical form directly, as
``rule_relations`` explains, each as one tuple of the (letter, sign) pairs
its rule shares among all its relators.

``emit`` and ``read_presentation`` build a whole presentation: hundreds of
thousands of tuples, words and relations, and no reference cycles.  So
they run with the cyclic garbage collector paused, whose full passes over
that heap would free nothing; reference counting frees it as before.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Optional

from .hardware import Hardware
from .smachine import Machine, enumerate_rule_ids
from .words import (
    BaseLetter, CyclicWord, RuleId, State, Tape, Theta, Word, X,
    conjugator_length, least_rotation, letter_keys, parse_symbol, word_to_text,
)

KINDS = ("main", "theta_a", "a_x", "k_x", "bar_main", "bar_theta_a", "hub")


class PresentationError(ValueError):
    pass


class NonUniformIndex(ValueError):
    pass


# The letter whose base letter or zone is a relation's place, per kind.
_AT = {"main": (State, "base"), "bar_main": (State, "base"), "k_x": (State, "base"),
       "theta_a": (Theta, "zone"), "bar_theta_a": (Theta, "zone"), "a_x": (Tape, "zone")}


@dataclass(frozen=True, slots=True)
class Relation:
    """One relator of the presentation.  Its rule and place are not stored:
    the letters of the relator name them."""

    kind: str
    relator: CyclicWord  # normalized: least of relator/inverse rotations

    def __post_init__(self):
        if self.kind not in KINDS:
            raise PresentationError(f"unknown relation kind {self.kind!r}")

    @property
    def rule(self) -> Optional[RuleId]:
        """The positive rule its theta or x letters name; None for the hub."""
        for sym, _ in self.relator:
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
        for sym, _ in self.relator:
            if isinstance(sym, cls):
                return getattr(sym, attr)
        return None


def normalize_relator(w: Word):
    """Canonical form of the relator w, up to cyclic conjugation and inversion.

    Strips the conjugating prefix and suffix of w, leaving the core c, and
    returns whichever is lexicographically smaller under ``letter_key``: the
    least rotation of c or the least rotation of c^-1.  Raises
    PresentationError when nothing is left.  For w freely reduced the result
    is cyclically reduced, so normalizing it again changes nothing.  Each
    letter is keyed once; the keys of c^-1 are those of c reversed with the
    sign bit flipped.
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
        return CyclicWord._rotated(core[k:] + core[:k])
    inv = tuple((sym, -sign) for sym, sign in reversed(core))
    return CyclicWord._rotated(inv[kinv:] + inv[:kinv])


@dataclass(frozen=True)
class Presentation:
    n: int
    ee_label: str = field(compare=False)
    relations: tuple
    _index: MappingProxyType = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        index = {rel.relator: rel for rel in self.relations}  # one hash per relator
        if len(index) != len(self.relations):
            seen = set()
            for rel in self.relations:
                if rel.relator in seen:
                    raise PresentationError(f"duplicate relator {rel.relator!r}")
                seen.add(rel.relator)
        object.__setattr__(self, "_index", MappingProxyType(index))

    def stats(self):
        out = {k: 0 for k in KINDS}
        for rel in self.relations:
            out[rel.kind] += 1
        return out

    def inventory(self):
        from .words import symbol_key
        syms = set()
        for rel in self.relations:
            syms.update(sym for sym, _ in rel.relator)
        return sorted(syms, key=symbol_key)

    def index(self):
        """Read-only map from each normalized relator to its Relation.

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


def letter_index(sym):
    if isinstance(sym, Tape):
        return sym.zone.j
    if isinstance(sym, State):
        return sym.j
    if isinstance(sym, Theta):
        return sym.zone.j
    if isinstance(sym, X):
        return sym.tape.zone.j
    raise NonUniformIndex(f"{sym!r} carries no block index")


def shift_index(w, j2, bar_mode=False):
    """Replace the uniform block index of every letter of w by j2.

    With bar_mode and j2 == 1 all tape letters are removed (the bar copy of
    the index-1 block carries none)."""
    idx = {letter_index(sym) for sym, _ in w}
    if len(idx) > 1:
        raise NonUniformIndex(f"indices {sorted(idx)} mixed")
    out = []
    for sym, s in w:
        if isinstance(sym, Tape):
            if bar_mode and j2 == 1:
                continue
            sym = Tape(sym.i, BaseLetter(sym.zone.kind, j2), sym.bar)
        elif isinstance(sym, State):
            sym = State(sym.kind, j2, sym.coord, sym.bar)
        elif isinstance(sym, Theta):
            sym = Theta(sym.rule, BaseLetter(sym.zone.kind, j2))
        elif isinstance(sym, X):
            sym = X(Tape(sym.tape.i, BaseLetter(sym.tape.zone.kind, j2)), sym.rule)
        out.append((sym, s))
    return Word(out)


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

def emit(hw: Hardware, label=""):
    """The full presentation of the simulating group for (ee, N); ``label``
    names the input in the text format's ``ee-file:`` line.

    The relations of every positive rule, plain rules first and then bar
    rules, each in ``enumerate_rule_ids`` order, followed by the hub.  The
    build creates no reference cycles, so it runs with the cyclic collector
    paused; fixed-shape relators share their letter pairs within a rule."""
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

    Main relators carry the rule's tape words v and u, so each is spelled
    as a tuple of letters and goes through ``normalize_relator``.  Every
    other relator has a fixed shape, and is spelled in its canonical form
    directly.  ``symbol_key`` ranks tape < state < theta < x letters, and a
    positive letter before its inverse.  Each such relator has exactly one
    least letter: its positive tape letter, or for k_x its positive state
    letter.  Only the rotation read from that letter can be least, and the
    inverse's one candidate starts at the same letter.  The comments below
    name the first letter where the two differ.  Each letter's (sym, 1) and
    (sym, -1) pair is built once per rule, and a fixed-shape relator is one
    flat tuple of those pairs."""
    hw = machine.hw
    rule = machine.rules[rid]
    bar = rid.bar
    rels = []
    add = rels.append

    indices = range(1, hw.ee.mbar + 1)
    zones = hw.zones
    theta = {z: _pair(Theta(rid, z)) for z in zones}
    # main relations, one per unsigned basic letter
    kind = "bar_main" if bar else "main"
    for bl, _ in hw.sigma:
        zb, za = hw.zones_of(bl)
        src = hw.state(bl.kind, bl.j, rule.src, bar)
        dst = hw.state(bl.kind, bl.j, rule.dst, bar)
        v, u = (part.letters for part in machine._parts(rid, bl.kind, bl.j, 1))
        if not bar:
            v, u = _alpha_letters(rid.inverse, v), _alpha_letters(rid.inverse, u)
        # th(zb)^-1 src th(za) (v dst u)^-1
        add(Relation(kind, normalize_relator(Word(
            (theta[zb][1], (src, 1), theta[za][0], *_inverse(u),
             (dst, -1), *_inverse(v))))))
    # the (a, 1), (a, -1) pairs of the tape letters over each zone (none
    # over a bar j=1 zone), and for a plain rule those of x(a, tau)
    tapes = {z: [_pair(hw.tape(i, z, bar)) for i in indices]
             for z in zones if not (bar and z.j == 1)}
    xs = {} if bar else {z: [_pair(X(ap[0], rid)) for ap, _ in tapes[z]] for z in zones}
    # theta-tape commutations at unlocked zones:
    # th^-1 alpha_tau(a) th alpha_tau^-1(a)^-1, read from a
    kind = "bar_theta_a" if bar else "theta_a"
    for zone in zones:
        if zone.kind in rule.locks or (bar and zone.j == 1):
            continue
        thp, thn = theta[zone]
        if bar or zone.kind == "P":
            # alpha fixes a: a th a^-1 th^-1; the inverse reads a th^-1
            for ap, an in tapes[zone]:
                add(Relation(kind, CyclicWord._rotated((ap, thp, an, thn))))
        elif zone.kind == "R":
            # alpha_tau(a) = a x: a x th x a^-1 th^-1; the inverse reads a x^-1
            for (ap, an), (xp, _) in zip(tapes[zone], xs[zone]):
                add(Relation(kind, CyclicWord._rotated((ap, xp, thp, xp, an, thn))))
        else:
            # alpha_tau(a) = x a: a th a^-1 x th^-1 x; the inverse reads a x^-1
            for (ap, an), (xp, _) in zip(tapes[zone], xs[zone]):
                add(Relation(kind, CyclicWord._rotated((ap, thp, an, xp, thn, xp))))
    if bar:
        return rels
    # tape-x conjugation relations over K/L/R zones:
    # a x a^-1 x^-4 (K, L) and a x^4 a^-1 x^-1 (R, the inverse of
    # a^-1 x a x^-4 read from a); each inverse reads a x^-1
    for zone in zones:
        if zone.kind == "P":
            continue
        for ap, an in tapes[zone]:
            for xp, xn in xs[zone]:
                if zone.kind == "R":
                    letters = (ap, xp, xp, xp, xp, an, xn)
                else:
                    letters = (ap, xp, an, xn, xn, xn, xn)
                add(Relation("a_x", CyclicWord._rotated(letters)))
    # state-x crossing relations at K and L letters:
    # z x z^-1 x'^-1 (K) or z x z^-1 x'^-4 (L), read from z; the inverse
    # reads z x^-1
    for bl, _ in hw.sigma:
        if bl.kind not in "KL":
            continue
        zb, za = hw.zones_of(bl)
        for coord in hw.ee.coords():
            zp, zn = _pair(State(bl.kind, bl.j, coord))
            for (xp, _), (_, x2n) in zip(xs[za], xs[zb]):
                if bl.kind == "K":
                    letters = (zp, xp, zn, x2n)
                else:
                    letters = (zp, xp, zn, x2n, x2n, x2n, x2n)
                add(Relation("k_x", CyclicWord._rotated(letters)))
    return rels


def _pair(sym):
    """The letters sym and sym^-1."""
    return (sym, 1), (sym, -1)


def _inverse(letters):
    return [(sym, -s) for sym, s in reversed(letters)]


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------

def write_presentation(p: Presentation, fh):
    fh.write(f"n: {p.n}\n")
    fh.write(f"ee-file: {p.ee_label or '-'}\n")
    for rel in p.relations:
        fh.write(f"relator {rel.kind}: {word_to_text(rel.relator)}\n")


def read_presentation(fh):
    """The Presentation written by ``write_presentation``.  Each distinct
    token is parsed once per call; a relator repeats the few thousand letters
    of the presentation many times over.  Like ``emit``, the build creates
    no reference cycles and runs with the cyclic collector paused."""
    with _collector_paused():
        n = None
        label = ""
        rels = []
        letters = {}  # token -> (symbol, sign)

        def letter(tok):
            got = letters.get(tok)
            if got is None:
                got = letters[tok] = parse_symbol(tok)
            return got

        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("n:"):
                n = int(line[2:].strip())
            elif line.startswith("ee-file:"):
                label = line[len("ee-file:"):].strip()
                label = "" if label == "-" else label
            elif line.startswith("relator "):
                head, _, body = line.partition(":")
                kind = head.split()[1]
                try:
                    w = Word([letter(tok) for tok in body.split()])
                except Exception as e:
                    raise PresentationError(f"line {lineno}: {e}") from None
                rels.append(Relation(kind, normalize_relator(w)))
            else:
                raise PresentationError(f"line {lineno}: unrecognized line {line!r}")
        if n is None:
            raise PresentationError("missing n: header")
        return Presentation(n, label, tuple(rels))
