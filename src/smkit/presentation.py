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
not emitted; every relator is normalized to the lexicographically least of
the cyclic rotations of itself and its inverse before deduplication.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Optional

from .hardware import Hardware
from .smachine import Machine, enumerate_rule_ids
from .words import (
    BaseLetter, CyclicWord, RuleId, State, Tape, Theta, Word, X,
    conjugator_length, least_rotation, letter_key, parse_word, word_to_text,
)

KINDS = ("main", "theta_a", "a_x", "k_x", "bar_main", "bar_theta_a", "hub")


class PresentationError(ValueError):
    pass


class NonUniformIndex(ValueError):
    pass


# The letter whose base letter or zone is a relation's place, per kind.
_AT = {"main": (State, "base"), "bar_main": (State, "base"), "k_x": (State, "base"),
       "theta_a": (Theta, "zone"), "bar_theta_a": (Theta, "zone"), "a_x": (Tape, "zone")}


@dataclass(frozen=True)
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
    keys = [letter_key(l) for l in core]
    inv_keys = [(sym, 1 - sign) for sym, sign in reversed(keys)]
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
        index = {}
        for rel in self.relations:
            if rel.relator in index:
                raise PresentationError(f"duplicate relator {rel.relator!r}")
            index[rel.relator] = rel
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
    rules, each in ``enumerate_rule_ids`` order, followed by the hub."""
    machine = Machine(hw, "mixed")
    rels = [rel for bar in (False, True) for rid in enumerate_rule_ids(hw.ee, bar)
            for rel in rule_relations(machine, rid)]
    rels.append(Relation("hub", normalize_relator(hw.hub())))
    return Presentation(hw.N, label, tuple(rels))


def rule_relations(machine: Machine, rid: RuleId):
    """The relations of the positive rule rid of machine, in the order
    ``emit`` lists them: main, then theta_a, then (plain rules only) a_x and
    k_x, or their bar kinds for a bar rule.

    Each relator is spelled once as a tuple of letters and freely reduced
    once, by the Word that ``normalize_relator`` receives."""
    hw = machine.hw
    rule = machine.rules[rid]
    bar = rid.bar
    rels = []

    def add(kind, letters):
        rels.append(Relation(kind, normalize_relator(Word(letters))))

    indices = range(1, hw.ee.mbar + 1)
    zones = [hw.zone_after((bl, s)) for bl, s in hw.sigma]
    theta = {z: Theta(rid, z) for z in zones}
    # main relations, one per unsigned basic letter
    for bl, _ in hw.sigma:
        zb, za = hw.zones_of(bl)
        src = hw.state(bl.kind, bl.j, rule.src, bar)
        dst = hw.state(bl.kind, bl.j, rule.dst, bar)
        v, u = (part.letters for part in machine._parts(rid, bl.kind, bl.j, 1))
        if not bar:
            v, u = _alpha_letters(rid.inverse, v), _alpha_letters(rid.inverse, u)
        # th(zb)^-1 src th(za) (v dst u)^-1
        add("bar_main" if bar else "main",
            ((theta[zb], -1), (src, 1), (theta[za], 1), *_inverse(u),
             (dst, -1), *_inverse(v)))
    # theta-tape commutations at unlocked zones
    for zone in zones:
        if zone.kind in rule.locks or (bar and zone.j == 1):
            continue
        th = theta[zone]
        for i in indices:
            a = ((hw.tape(i, zone, bar), 1),)
            top, bot = (a, a) if bar else \
                (_alpha_letters(rid, a), _alpha_letters(rid.inverse, a))
            add("bar_theta_a" if bar else "theta_a",
                ((th, -1), *top, (th, 1), *_inverse(bot)))
    if bar:
        return rels
    tapes = {z: [hw.tape(i, z) for i in indices] for z in zones}
    xs = {z: [X(t, rid) for t in tapes[z]] for z in zones}
    # tape-x conjugation relations over K/L/R zones
    for zone in zones:
        if zone.kind == "P":
            continue
        ax = 1 if zone.kind in "KL" else -1
        for a in tapes[zone]:
            for x in xs[zone]:
                add("a_x", ((a, ax), (x, 1), (a, -ax)) + ((x, -1),) * 4)
    # state-x crossing relations at K and L letters
    for bl, _ in hw.sigma:
        if bl.kind not in "KL":
            continue
        zb, za = hw.zones_of(bl)
        exp = 1 if bl.kind == "K" else 4
        for coord in hw.ee.coords():
            z = State(bl.kind, bl.j, coord)
            for x, x2 in zip(xs[za], xs[zb]):
                add("k_x", ((z, 1), (x, 1), (z, -1)) + ((x2, -1),) * exp)
    return rels


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
    n = None
    label = ""
    rels = []
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
                w = parse_word(body)
            except Exception as e:
                raise PresentationError(f"line {lineno}: {e}") from None
            rels.append(Relation(kind, normalize_relator(w)))
        else:
            raise PresentationError(f"line {lineno}: unrecognized line {line!r}")
    if n is None:
        raise PresentationError("missing n: header")
    return Presentation(n, label, tuple(rels))
