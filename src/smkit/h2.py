"""The x-letter fragment: flank words, rewrite certificates, and the
conjugacy criterion for cyclic x-words.

Words here are handled as entry lists (symbol, exponent) with
arbitrary-precision exponents: conjugation through a tape letter multiplies
or divides x-exponents by 4, so exponents of size 4^k appear at word length
k and literal letters are not an option.

A rewrite certificate is a list of single-relator steps, each carried with
a repetition count (x^(4e) a -> a x^e is e applications of one tape-x
relator); replaying the steps from the declared source must reproduce the
declared target exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType

from .hardware import AdmissibleWord, Hardware, PositivityViolation
from .presentation import _alpha_letters
from .words import BaseLetter, RuleId, State, Tape, Word, X


class CertificateError(ValueError):
    pass


def run_of(w):
    """Run-length form of a word: merge equal adjacent symbols."""
    runs = []
    for sym, s in w:
        if runs and runs[-1][0] == sym:
            e = runs[-1][1] + s
            runs.pop()
            if e:
                runs.append((sym, e))
        else:
            runs.append((sym, s))
    return tuple(runs)


def word_of(runs):
    """Expand run-length form; exponents must be small enough to expand."""
    out = []
    for sym, e in runs:
        out += [(sym, 1 if e > 0 else -1)] * abs(e)
    return Word(out)


def xpower(entries):
    """Validate an x-power word: alternating x-letters, nonzero exponents."""
    entries = run_of(entries) if entries else ()
    for sym, e in entries:
        if not isinstance(sym, X) or not e:
            raise CertificateError(f"bad x-power entry ({sym!r}, {e})")
    return entries


def is_fourth_power_product(runs):
    """True iff the reduced word is a product of fourth powers of letters."""
    return all(e % 4 == 0 for _, e in runs)


@dataclass(frozen=True)
class Step:
    kind: str  # "ax" (K/L zones), "ax_r" (R zones), "kx" (L state letters)
    pos: int  # index into the entry list
    count: int  # signed repetition count (the x exponent after the step)

    def __repr__(self):
        return f"Step({self.kind},{self.pos},{self.count})"


@dataclass(frozen=True)
class RewriteCertificate:
    source: tuple  # entry list
    target: tuple
    steps: tuple

    def replay(self):
        """Apply the steps to the source; raises unless the target appears."""
        cur = list(self.source)
        for step in self.steps:
            cur = apply_step(cur, step)
        if tuple(cur) != self.target:
            raise CertificateError("replay did not reach the declared target")
        return tuple(cur)

    def max_exponent(self):
        return max((abs(e) for sym, e in self.source if isinstance(sym, X)),
                   default=0)


def apply_step(cur, step):
    p, c = step.pos, step.count
    if not 0 <= p + 1 < len(cur):
        raise CertificateError(f"{step!r}: position out of range")
    a, b = cur[p], cur[p + 1]
    if step.kind == "ax":
        # x(b,tau)^(4c) a  ->  a x(b,tau)^c   for a, b over one K/L zone
        x, tape = a, b
        if not (isinstance(x[0], X) and isinstance(tape[0], Tape) and tape[1] == 1):
            raise CertificateError(f"{step!r}: pattern mismatch")
        if x[0].tape.zone != tape[0].zone or tape[0].zone.kind not in "KL":
            raise CertificateError(f"{step!r}: zone mismatch")
        if x[1] != 4 * c:
            raise CertificateError(f"{step!r}: exponent is {x[1]}, not 4*{c}")
        repl = [tape, (x[0], c)]
    elif step.kind == "ax_r":
        # a x(d,tau)^(4c)  ->  x(d,tau)^c a   for a, d over one R zone
        tape, x = a, b
        if not (isinstance(tape[0], Tape) and tape[1] == 1 and isinstance(x[0], X)):
            raise CertificateError(f"{step!r}: pattern mismatch")
        if x[0].tape.zone != tape[0].zone or tape[0].zone.kind != "R":
            raise CertificateError(f"{step!r}: zone mismatch")
        if x[1] != 4 * c:
            raise CertificateError(f"{step!r}: exponent is {x[1]}, not 4*{c}")
        repl = [(x[0], c), tape]
    elif step.kind == "kx":
        # x(b',tau)^(4c) L_j -> L_j x(b,tau)^c across an L letter, where b'
        # is the K_j-zone brother of the L_j-zone letter b
        x, st = a, b
        if not (isinstance(x[0], X) and isinstance(st[0], State) and st[1] == 1
                and st[0].kind == "L"):
            raise CertificateError(f"{step!r}: pattern mismatch")
        if x[0].tape.zone != BaseLetter("K", st[0].j):
            raise CertificateError(f"{step!r}: zone mismatch")
        if x[1] != 4 * c:
            raise CertificateError(f"{step!r}: exponent is {x[1]}, not 4*{c}")
        moved = X(Tape(x[0].tape.i, BaseLetter("L", st[0].j)), x[0].rule)
        repl = [st, (moved, c)]
    else:
        raise CertificateError(f"unknown step kind {step.kind!r}")
    return cur[:p] + [r for r in repl if r[1]] + cur[p + 2:]


def x_flank(hw: Hardware, W: AdmissibleWord, rid: RuleId):
    """Flank words X1, X1' with X1 * F * X1' = alpha_rid(F), certified.

    F is the fragment of W strictly between its K-type end letters; W must
    have the 5-letter base lL_j L_j P_j R_j rR_j with positive contents in
    its K-, L- and R-zones.  X1 is over the x-letters of the K_j-zone, X1'
    over those of the R_j-zone; exponent magnitudes stay below
    4^(|w1|+|w2|+|w4|+1).  Negative rules produce the inverted decorations.
    """
    if rid.bar:
        raise PositivityViolation("x_flank is defined for plain rules")
    if len(W.states) != 5:
        raise ValueError("need a word with base lL_j L_j P_j R_j rR_j")
    j = W.states[1][0].j
    expect = (hw.left_letter_of_L(j), (BaseLetter("L", j), 1), (BaseLetter("P", j), 1),
              (BaseLetter("R", j), 1), hw.succ((BaseLetter("R", j), 1)))
    if W.signed_base() != expect:
        raise ValueError(f"base must be the standard block for j={j}")
    w1, w2, w3, w4 = W.inners
    for name, w in (("w1", w1), ("w2", w2), ("w4", w4)):
        if not all(s > 0 for _, s in w):
            raise PositivityViolation(f"{name} must be positive")
    tau, sgn = rid.positive, rid.sign
    k, l, m = len(w1), len(w2), len(w4)
    kzone = BaseLetter("K", j)

    x1 = [(X(sym, tau), sgn * 4 ** t) for t, (sym, _) in enumerate(w1)]
    x1 += [(X(hw.tape(sym.i, kzone), tau), sgn * 4 ** (k + 1 + t))
           for t, (sym, _) in enumerate(w2)]
    x1p = [(X(sym, tau), sgn * 4 ** (m - 1 - t)) for t, (sym, _) in enumerate(w4)]

    frag = list(w1) + [W.states[1]] + list(w2) + [W.states[2]] + \
        list(w3) + [W.states[3]] + list(w4)
    source = tuple(x1 + frag + x1p)
    target = tuple(_alpha_letters(rid, frag))

    steps = []
    cur = list(source)

    def cross(kind, pos):
        xat = pos + 1 if kind == "ax_r" else pos
        c = cur[xat][1] // 4
        step = Step(kind, pos, c)
        steps.append(step)
        return apply_step(cur, step)

    remaining = k + l
    for t in range(k):  # decorate w1, consuming one block entry per letter
        for q in range(2 * t + remaining - 1, 2 * t, -1):
            cur = cross("ax", q)
        remaining -= 1
    for q in range(2 * k + remaining - 1, 2 * k - 1, -1):  # cross the L letter
        cur = cross("kx", q)
    for t in range(l):  # decorate w2
        for q in range(2 * k + 1 + 2 * t + remaining - 1, 2 * k + 1 + 2 * t, -1):
            cur = cross("ax", q)
        remaining -= 1
    rstate = 2 * k + 1 + 2 * l + 1 + len(w3)
    for t in range(m):  # pull the right flank through w4
        pos = rstate + m + t + 1
        for _ in range(m - 1 - t):
            pos -= 1
            cur = cross("ax_r", pos)

    cert = RewriteCertificate(source, target, tuple(steps))
    if tuple(cur) != target:
        raise CertificateError("flank construction did not reach alpha(W)")
    return xpower(x1), xpower(x1p), cert


# ---------------------------------------------------------------------------
# uniform and related words
# ---------------------------------------------------------------------------

def is_uniform(w):
    """The common non-P zone of a nonempty cyclically reduced x-word, or None."""
    letters = list(w)
    if not letters:
        return None
    zones = set()
    for sym, _ in letters:
        if not isinstance(sym, X):
            return None
        zones.add(sym.tape.zone)
    if len(zones) != 1:
        return None
    return zones.pop()


def zone_components(hw):
    """Partition of the zones under the state-letter crossing moves, as a
    map from each zone to its component's representative.

    L_j crosses between the K_j- and L_j-zones, odd K_j between K_{j-1} and
    K_j, even K_j between R_j and R_{j-1}; P-zones are isolated.  Built on
    the first call for a Hardware and kept on it; the map is read-only."""
    comp = hw._zone_components
    if comp is None:
        comp = hw._zone_components = MappingProxyType(_zone_partition(hw))
    return comp


def _zone_partition(hw):
    parent = {}

    def find(z):
        parent.setdefault(z, z)
        while parent[z] != z:
            parent[z] = parent[parent[z]]
            z = parent[z]
        return z

    def union(a, b):
        parent[find(a)] = find(b)

    for bl, _ in hw.sigma:
        find(hw.zone_after((bl, 1)))
        if bl.kind in "KL":
            zb, za = hw.zones_of(bl)
            union(zb, za)
    return {z: find(z) for z in parent}


def _pattern(runs):
    return tuple((sym.tape.i, sym.rule) for sym, _ in runs)


def _ratio_power_of_4(e1, e2):
    """t with e2 == 4^t * e1, else None."""
    if e1 == 0 or e2 == 0 or (e1 > 0) != (e2 > 0):
        return None
    a, b, t = abs(e1), abs(e2), 0
    while a < b:
        a *= 4
        t += 1
    while b < a:
        b *= 4
        t -= 1
    return t if a == b else None


def are_related(hw, w1, w2):
    """Letterwise power/zone-shift equivalence of two uniform words.

    True iff both words are uniform, have the same letter pattern (tape
    index and rule preserved positionwise), their zones lie in one crossing
    component, and the exponent vectors agree up to one global factor 4^t.
    These are exactly the substitutions realized by conjugation along tape
    letters (exponent scaling) and K/L state letters (zone shifts)."""
    r1, r2 = run_of(w1), run_of(w2)
    z1, z2 = is_uniform(r1), is_uniform(r2)
    if z1 is None or z2 is None:
        return False
    comp = zone_components(hw)
    if comp[z1] != comp[z2]:
        return False
    if _pattern(r1) != _pattern(r2):
        return False
    t = _ratio_power_of_4(r1[0][1], r2[0][1])
    if t is None:
        return False
    return all(_ratio_power_of_4(e1, e2) == t
               for (_, e1), (_, e2) in zip(r1, r2))


def x_words_conjugate(hw, w1, w2):
    """Conjugacy decision for nonempty cyclically reduced x-words.

    Conjugate iff one is a cyclic permutation of the other, or cyclic shifts
    of the two are related uniform words.  Returns (flag, witness) where the
    witness names the rotation offset or the relating shift.  An empty word,
    a letter that is not an x-letter, and an x-letter whose tape or rule
    index is outside 1..mbar, whose zone block is outside 1..N or whose rule
    names a relator the presentation lacks are ValueErrors."""
    mbar, nrel = hw.ee.mbar, len(hw.ee.nonempty)
    for w in (w1, w2):
        if len(w) == 0:
            raise ValueError("words must be nonempty")
        last = None
        for sym, _ in w:
            if sym is last:
                continue  # a run of one letter is checked once
            last = sym
            if not isinstance(sym, X):
                raise ValueError(f"{sym!r} is not an x-letter")
            tape, rule = sym.tape, sym.rule
            for i in (tape.i, 1 if rule.i is None else rule.i):
                if i < 1:
                    raise ValueError(f"{sym!r}: index {i} is below 1")
                if i > mbar:
                    raise ValueError(f"{sym!r}: index exceeds mbar = {mbar}")
            if tape.zone.j < 1:
                raise ValueError(f"{sym!r}: zone {tape.zone!r} is below block 1")
            if tape.zone.j > hw.N:
                raise ValueError(f"{sym!r}: zone {tape.zone!r} is beyond N = {hw.N}")
            if rule.r is not None and not 1 <= rule.r <= nrel:
                raise ValueError(f"{sym!r}: no relator r{rule.r}")
    if w1 == w2:
        return True, "cyclic permutation"
    lin1 = list(w1)
    for kk, rot in enumerate(w2.rotations()):
        if are_related(hw, lin1, list(rot)):
            return True, f"related after rotating by {kk}"
    return False, None
