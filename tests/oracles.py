"""Independent brute-force oracles used by the tests.

Nothing here shares code paths with the library algorithms it checks:
free reduction deletes the leftmost adjacent inverse pair until none is
left, matchings are enumerated over all position pairings and filtered, the
x-word conjugacy oracle is a plain breadth-first closure over the
elementary conjugation moves, relator canonicalization strips and rotates
letter by letter, trying every rotation, the fixed-shape and main relators
are spelled as the paper writes each relation, the block-index shift
rebuilds every letter from its fields, admissibility is checked letter
by letter with no sector table, rule application checks a rule, then
builds and validates its result twice with no step plan and tape parts
spelled letter by letter (no ``Hardware.tape_word``), pair nesting
compares every arc with every other, the minus pairing is searched for
over every non-crossing matching, a theta-band is the positive band of its
rule's positive form, mirrored cell by cell for a negative rule, a band is
checked cell by cell with no memo, a trapezium is checked band by band and
replayed step by step with nothing reused, the symbol order is recomputed
from the fields, zone components are grown by search, the base-word
geometry is read off hw.sigma and the zone-naming rule, the standard words
are built block by block, an acceptance target is checked sector by sector
from each sector's letter, and the acceptance search keys its words on
their text.
"""

import functools
import itertools
from collections import deque

from smkit.bands import Band, Cell
from smkit.h2 import is_uniform, run_of
from smkit.hardware import (
    AdmissibleError, AdmissibleWord, BadBasePattern, BadInnerAlphabet, BarSectorNotEmpty,
    MixedCoordinates, PositivityViolation,
)
from smkit.presentation import PresentationError, alpha
from smkit.smachine import Diagnosis
from smkit.words import (
    FAMILIES, KINDS, BaseLetter, Coord, CyclicWord, DyckPairing, State, Tape, Theta,
    Word, X, is_dyck, letter_key,
)


def all_perfect_matchings(positions):
    positions = list(positions)
    if not positions:
        yield []
        return
    first = positions[0]
    for k in range(1, len(positions)):
        rest = positions[1:k] + positions[k + 1:]
        for sub in all_perfect_matchings(rest):
            yield [(first, positions[k])] + sub


def _crossing(n, p, q):
    (a, b), (c, d) = sorted(p), sorted(q)
    return (a < c < b) != (a < d < b)


def noncrossing_inverse_matchings(word):
    """All non-crossing perfect matchings pairing mutually inverse letters."""
    n = len(word)
    out = set()
    if n == 0 or n % 2:
        return out
    for matching in all_perfect_matchings(range(n)):
        if any(word[p][0] != word[q][0] or word[p][1] != -word[q][1]
               for p, q in matching):
            continue
        if any(_crossing(n, p, q) for p, q in itertools.combinations(matching, 2)):
            continue
        out.add(frozenset(frozenset(p) for p in matching))
    return out


def _cyclically_balanced(brackets, matching_by_open):
    """Check that the forced bracket word matches each open with its pair."""
    n = len(brackets)
    depth = 0
    best, start = None, 0
    for k, (kind, _) in enumerate(brackets):
        depth += 1 if kind == "(" else -1
        if best is None or depth < best:
            best, start = depth, k + 1
    stack = []
    for k in range(n):
        kind, pos = brackets[(start + k) % n]
        if kind == "(":
            stack.append(pos)
        else:
            if not stack or matching_by_open.get(stack.pop()) != pos:
                return False
    return not stack


def has_minus_pairing(word):
    """Brute force: some non-crossing inverse matching admits the all-minus
    orientation (open parenthesis at the negative letter of every pair)."""
    n = len(word)
    for matching in noncrossing_inverse_matchings(word):
        opens = {}
        closes = {}
        for pair in matching:
            p, q = tuple(pair)
            neg = p if word[p][1] < 0 else q
            pos = q if neg == p else p
            opens[neg] = pos
            closes[pos] = neg
        # the open bracket sits just before its (negative) letter and the
        # close just after its (positive) letter, so walking the positions
        # in cyclic order and emitting each position's single bracket gives
        # the bracket word in its cyclic order
        seq = [("(", p) if p in opens else (")", p) for p in range(n)]
        if _cyclically_balanced(seq, opens):
            return True
    return False


# ---------------------------------------------------------------------------
# x-word conjugacy closure
# ---------------------------------------------------------------------------

def _zone_moves(hw):
    moves = []
    for bl, _ in hw.sigma:
        if bl.kind in "KL":
            zb, za = zones_of(hw, bl)
            moves.append((za, zb))
            moves.append((zb, za))
    return moves


def _canonical_runs(runs):
    """Least rotation of a cyclic run list, merging the wrap-around run."""
    runs = list(runs)
    if len(runs) >= 2 and runs[0][0] == runs[-1][0]:
        runs = [(runs[0][0], runs[0][1] + runs[-1][1])] + runs[1:-1]
    if not runs:
        return ()
    rots = [tuple(runs[k:] + runs[:k]) for k in range(len(runs))]
    from smkit.words import symbol_key
    return min(rots, key=lambda r: [(symbol_key(s), e) for s, e in r])


def canonical_runs_of_cyclic(w: CyclicWord):
    return _canonical_runs(run_of(w.letters))


def x_conjugacy_closure(hw, w: CyclicWord, depth):
    """Canonical run forms reachable from w by the elementary conjugation
    moves: letterwise fourth power (and its inverse where exponents allow)
    and zone shifts across K/L state letters.  Membership of a cyclic word
    is tested via canonical_runs_of_cyclic."""
    moves = _zone_moves(hw)
    start = canonical_runs_of_cyclic(w)
    seen = {start}
    frontier = [start]
    for _ in range(depth):
        nxt = []
        for runs in frontier:
            zone = is_uniform(runs)
            if zone is None:
                continue
            cands = [tuple((sym, 4 * e) for sym, e in runs)]
            if all(e % 4 == 0 for _, e in runs):
                cands.append(tuple((sym, e // 4) for sym, e in runs))
            for src, dst in moves:
                if src == zone:
                    cands.append(tuple(
                        (X(Tape(sym.tape.i, dst), sym.rule), e) for sym, e in runs))
            for cand in cands:
                cc = _canonical_runs(cand)
                if cc not in seen:
                    seen.add(cc)
                    nxt.append(cc)
        frontier = nxt
    return seen


# ---------------------------------------------------------------------------
# relator canonicalization
# ---------------------------------------------------------------------------

def free_reduce(letters):
    """The freely reduced tuple of ``letters``: delete the leftmost adjacent
    inverse pair, again and again, until none is left."""
    letters = list(letters)
    k = 0
    while k < len(letters) - 1:
        (a, s), (b, t) = letters[k], letters[k + 1]
        if a == b and s == -t:
            del letters[k:k + 2]
            k = 0
        else:
            k += 1
    return tuple(letters)


def least_rotation_index(letters):
    """Smallest k whose rotation letters[k:] + letters[:k] is least under
    letter_key, by comparing every rotation."""
    keys = [letter_key(l) for l in letters]
    rots = [keys[k:] + keys[:k] for k in range(len(keys))]
    return rots.index(min(rots)) if rots else 0


def cyclic_reduce(w):
    """(conjugator, core) letter tuples of a Word: strip one inverse pair of
    end letters at a time, then put the core in its least rotation."""
    letters = list(w.letters)
    pre = []
    while len(letters) >= 2 and letters[0][0] == letters[-1][0] \
            and letters[0][1] == -letters[-1][1]:
        pre.append(letters[0])
        letters = letters[1:-1]
    k = least_rotation_index(letters)
    return tuple(pre + letters[:k]), tuple(letters[k:] + letters[:k])


def normalize_relator(w):
    """Letters of the canonical relator: the cyclic cores of w and of w^-1,
    each in least rotation, and the smaller of the two under letter_key."""
    a = cyclic_reduce(w)[1]
    b = cyclic_reduce(w.inverse())[1]
    if not a:
        raise PresentationError("trivial relator")
    ka = [letter_key(l) for l in a]
    kb = [letter_key(l) for l in b]
    return a if ka <= kb else b


def fixed_shape_relators(machine, rid):
    """(kind, letters) of the theta_a or bar_theta_a, a_x and k_x relators
    of the positive rule rid, in emission order: each relation spelled as
    the paper writes it, then put in canonical form by ``normalize_relator``
    above."""
    hw, bar = machine.hw, rid.bar
    rule = machine.rules[rid]
    zones = [hw.zone_after(y) for y in hw.sigma]
    indices = range(1, hw.ee.mbar + 1)

    def alpha(a, sign):
        """alpha of the rule tau^sign at the tape letter a."""
        if bar or a.zone.kind == "P":
            return [(a, 1)]
        x = (X(a, rid), sign)
        return [(a, 1), x] if a.zone.kind == "R" else [x, (a, 1)]

    def relator(kind, letters):
        return kind, normalize_relator(Word(letters))

    out = []
    for zone in zones:
        if zone.kind in rule.locks or (bar and zone.j == 1):
            continue
        th = Theta(rid, zone)
        for i in indices:
            a = hw.tape(i, zone, bar)
            # th^-1 alpha_tau(a) th = alpha_tau^-1(a)
            bottom = [(y, -s) for y, s in reversed(alpha(a, -1))]
            out.append(relator("bar_theta_a" if bar else "theta_a",
                               [(th, -1)] + alpha(a, 1) + [(th, 1)] + bottom))
    if bar:
        return out
    for zone in zones:
        if zone.kind == "P":
            continue
        s = -1 if zone.kind == "R" else 1
        for i in indices:
            for k in indices:
                a, x = hw.tape(i, zone), X(hw.tape(k, zone), rid)
                # a x a^-1 = x^4 (K, L) or a^-1 x a = x^4 (R)
                out.append(relator("a_x", [(a, s), (x, 1), (a, -s)] + [(x, -1)] * 4))
    for bl, _ in hw.sigma:
        if bl.kind not in "KL":
            continue
        before, after = hw.zones_of(bl)
        e = 1 if bl.kind == "K" else 4
        for coord in hw.ee.coords():
            z = State(bl.kind, bl.j, coord)
            for i in indices:
                x, brother = X(hw.tape(i, after), rid), X(hw.tape(i, before), rid)
                # z x z^-1 = x'^e, e = 1 (K) or 4 (L)
                out.append(relator("k_x", [(z, 1), (x, 1), (z, -1)] + [(brother, -1)] * e))
    return out


def main_relators(machine, rid):
    """(kind, letters) of the main or bar_main relators of the positive rule
    rid, one per unsigned basic letter z in base-word order: the relation
    th(zone before z)^-1 z th(zone after z) = alpha(v) z' alpha(u), with z'
    at the rule's target coordinate and v, u the tape words of ``_parts``
    above (alpha of the inverse rule for a plain rule, none for a bar
    rule), put in canonical form by ``normalize_relator`` above."""
    hw, bar = machine.hw, rid.bar
    rule = machine.rules[rid]

    def state(bl, coord):
        # the bar alphabet shares the plain state letters at (e,1)
        return State(bl.kind, bl.j, coord, bar and coord != Coord(None, 1))

    out = []
    for bl, _ in hw.sigma:
        z, z2 = state(bl, rule.src), state(bl, rule.dst)
        before, after = zones_of(hw, bl)
        v, u = _parts(machine, rule, 1, z, 1)
        if not bar:
            v, u = alpha(rid.inverse, v).letters, alpha(rid.inverse, u).letters
        lhs = [(Theta(rid, before), -1), (z, 1), (Theta(rid, after), 1)]
        rhs = list(v) + [(z2, 1)] + list(u)
        word = Word(lhs + [(y, -s) for y, s in reversed(rhs)])
        out.append(("bar_main" if bar else "main", normalize_relator(word)))
    return out


# ---------------------------------------------------------------------------
# block-index shift: a relator's letters moved from one j-block to another
# ---------------------------------------------------------------------------

class NonUniformIndex(ValueError):
    pass


def letter_index(sym):
    """The block index j of a structured letter."""
    if isinstance(sym, (Tape, Theta)):
        return sym.zone.j
    if isinstance(sym, State):
        return sym.j
    if isinstance(sym, X):
        return sym.tape.zone.j
    raise NonUniformIndex(f"{sym!r} carries no block index")


def shift_index(w, j2, bar_mode=False):
    """Replace the uniform block index of every letter of w by j2, field by
    field; raises NonUniformIndex when the letters of w sit in more than one
    block.  With bar_mode and j2 == 1 all tape letters are removed (the bar
    copy of the index-1 block carries none)."""
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
# base-word geometry, from hw.sigma and the zone-naming rule alone
# ---------------------------------------------------------------------------

# The zone of a gap by the unordered kinds of its two letters: (lL_j, L_j)
# is the K_j-zone, (L_j, P_j) the L_j-zone, (P_j, R_j) the P_j-zone and
# (R_j, rR_j) the R_j-zone, where lL_j and rR_j are K-type letters.
_GAP_KIND = {frozenset("KL"): "K", frozenset("LP"): "L", frozenset("PR"): "P",
             frozenset("KR"): "R"}


def gap_zone(a, b):
    """The zone of the gap between the adjacent base letters a and b, in
    either order: j is that of the letter that is not of kind K."""
    return BaseLetter(_GAP_KIND[frozenset((a.kind, b.kind))], (b if a.kind == "K" else a).j)


def gap_zones(hw):
    """The zone of the gap after each position of the base word."""
    sigma = hw.sigma
    return [gap_zone(sigma[p][0], sigma[(p + 1) % len(sigma)][0]) for p in range(len(sigma))]


def _readings(hw):
    """The cyclic base word read forward and backward (its inverse)."""
    return hw.sigma, tuple((bl, -s) for bl, s in reversed(hw.sigma))


@functools.cache
def _neighbours(hw):
    """Signed letter -> (the letter before it, the letter after it) in the
    reading of the base word that contains it."""
    out = {}
    for word in _readings(hw):
        for p, y in enumerate(word):
            out[y] = (word[p - 1], word[(p + 1) % len(word)])
    return out


def succ(hw, y):
    return _neighbours(hw)[y][1]


def pred(hw, y):
    return _neighbours(hw)[y][0]


def zone_after(hw, y):
    """Zone of the sector starting at the signed letter y."""
    return gap_zone(y[0], succ(hw, y)[0])


def zones_of(hw, z):
    return gap_zone(pred(hw, (z, 1))[0], z), zone_after(hw, (z, 1))


def zone_flanks(hw, zone):
    """The letters on either side of the zone, read in the direction in
    which its L, P and R letters are positive."""
    for word in _readings(hw):
        for y, y2 in zip(word, word[1:] + word[:1]):
            if gap_zone(y[0], y2[0]) == zone and all(
                    s > 0 for bl, s in (y, y2) if bl.kind != "K"):
                return y, y2
    raise KeyError(zone)


def sigma_four(hw, w1, w2, w3, w4, r=None, i=1, bar=False):
    """The four-slot standard word block by block: block j is K_j followed
    by w1 L_j w2 P_j w3 R_j w4 over its zones, and an even block is that
    word inverted (K_j^-1 first); the bar variant drops the letters of the
    j=1 zones."""
    coord = Coord(r, i)
    letters = []
    for j in range(1, hw.N + 1):
        wpart = []
        for kind, w in (("L", w1), ("P", w2), ("R", w3)):
            zone = zones_of(hw, BaseLetter(kind, j))[0]
            if not (bar and zone.j == 1):
                wpart += [(hw.tape(a, zone, bar), e) for a, e in w]
            wpart.append((hw.state(kind, j, coord, bar), 1))
        zone = zones_of(hw, BaseLetter("R", j))[1]
        if not (bar and zone.j == 1):
            wpart += [(hw.tape(a, zone, bar), e) for a, e in w4]
        ksign = 1 if j % 2 else -1
        if j % 2 == 0:
            wpart = [(sym, -s) for sym, s in reversed(wpart)]
        letters += [(hw.state("K", j, coord, bar), ksign)] + wpart
    return Word(letters)


# ---------------------------------------------------------------------------
# rule application: check, then build the result (and build it again)
# ---------------------------------------------------------------------------

# Hardware.validate and its shape checks as they were before the sector
# table: every structural fact is looked up again on every call.

def validate(hw, aw):
    states, inners = aw.states, aw.inners
    coord = states[0][0].coord
    for st, _ in states:
        if st.coord != coord:
            raise MixedCoordinates(f"{st!r} vs coordinate {coord!r}")
    for (st, s), (st2, s2) in zip(states, states[1:]):
        y, y2 = (st.base, s), (st2.base, s2)
        if y2 != hw.succ(y) and y2 != (y[0], -y[1]):
            raise BadBasePattern(f"{st!r}^{s} followed by {st2!r}^{s2}")
    for k, inner in enumerate(inners):
        zone = zone_after(hw, (states[k][0].base, states[k][1]))
        for sym, _ in inner:
            if sym.zone != zone:
                raise BadInnerAlphabet(
                    f"sector {k}: {sym!r} is not in the {zone!r}-zone alphabet")
            if not 1 <= sym.i <= hw.ee.mbar:
                raise BadInnerAlphabet(f"sector {k}: index of {sym!r} out of range")
    if aw.flavor == "strict":
        _validate_strict(hw, aw)
    elif aw.flavor == "bar":
        validate_bar_shape(hw, aw)
    elif aw.flavor == "mixed":
        try:
            validate_plain_shape(hw, aw)
        except AdmissibleError:
            validate_bar_shape(hw, aw)
    else:
        raise ValueError(f"unknown flavor {aw.flavor!r}")


def validate_plain_shape(hw, aw):
    for st, _ in aw.states:
        if not hw.plain_state_ok(st):
            raise BadInnerAlphabet(f"{st!r} is not a plain state letter")
    for inner in aw.inners:
        for sym, _ in inner:
            if not hw.plain_tape_ok(sym):
                raise BadInnerAlphabet(f"{sym!r} is not a plain tape letter")


def _validate_strict(hw, aw):
    validate_plain_shape(hw, aw)
    for k, inner in enumerate(aw.inners):
        need = hw.positivity_sign(aw.states[k], aw.states[k + 1])
        if need and any(s != need for _, s in inner):
            raise PositivityViolation(
                f"sector {k} between {aw.states[k][0]!r} and {aw.states[k + 1][0]!r}")


def validate_bar_shape(hw, aw):
    for st, _ in aw.states:
        if not hw.bar_state_ok(st):
            raise BadInnerAlphabet(f"{st!r} is not a bar state letter")
    for k, inner in enumerate(aw.inners):
        zone = zone_after(hw, (aw.states[k][0].base, aw.states[k][1]))
        if zone.j == 1 and len(inner):
            raise BarSectorNotEmpty(f"sector {k} in zone {zone!r}")
        for sym, _ in inner:
            if not hw.bar_tape_ok(sym):
                raise BadInnerAlphabet(f"{sym!r} is not a bar tape letter")


def _parts(machine, rule, sign, st, s):
    """(left, right) letter tuples the rule tau^sign attaches around the
    letter st^s, each spelled letter by letter in its zone's alphabet and
    freely reduced here; the bar copy has none over a j=1 zone."""
    hw = machine.hw
    bar = rule.rid.bar
    zb, za = zone_after(hw, (st.base, -1)), zone_after(hw, (st.base, 1))
    v = rule.v_spec(st.kind)
    u = rule.u_spec(st.kind)
    if sign < 0:
        v = tuple((i, -e) for i, e in reversed(v))
        u = tuple((i, -e) for i, e in reversed(u))

    def mat(spec, zone, invert):
        if bar and zone.j == 1:
            return ()
        letters = [(hw.tape(i, zone, bar), e) for i, e in spec]
        if invert:
            letters = [(t, -e) for t, e in reversed(letters)]
        return free_reduce(letters)

    if s > 0:
        return mat(v, zb, False), mat(u, za, False)
    return mat(u, za, True), mat(v, zb, True)


def applicable(machine, rid, W):
    """None when rid applies to W, else the Diagnosis of the first failure."""
    rule = machine.rules.get(rid.positive)
    if rule is None:
        return Diagnosis("UnknownRule", repr(rid))
    try:
        if rid.bar:
            validate_bar_shape(machine.hw, W)
        else:
            validate_plain_shape(machine.hw, W)
    except AdmissibleError as e:
        return Diagnosis("FlavorMismatch", e.clause)
    src = rule.src if rid.sign > 0 else rule.dst
    if W.coord != src:
        return Diagnosis("CoordMismatch", f"word at {W.coord!r}, rule needs {src!r}")
    for k in range(len(W.inners)):
        (st, s), inner, (st2, s2) = W.sector(k)
        zone = zone_after(machine.hw, (st.base, s))
        if zone.kind in rule.locks:
            if (st2, s2) == (st, -s):
                return Diagnosis("ForbiddenSectorShape",
                                 f"fold-back at {st!r}^{s} in locked {zone!r}-zone")
            if len(inner):
                return Diagnosis("LockedSectorNonEmpty", repr(zone))
    try:
        apply(machine, rid, W)
    except AdmissibleError as e:
        return Diagnosis("ResultNotAdmissible", e.clause)
    return None


def apply(machine, rid, W):
    """W o rid, validated; raises AdmissibleError when not admissible."""
    rule = machine.rules[rid.positive]
    dst = rule.dst if rid.sign > 0 else rule.src
    states = []
    parts = []
    for st, s in W.states:
        states.append((machine.hw.state(st.kind, st.j, dst, rid.bar), s))
        parts.append(_parts(machine, rule, rid.sign, st, s))
    inners = []
    for k, inner in enumerate(W.inners):
        inners.append(free_reduce(parts[k][1] + inner + parts[k + 1][0]))
    out = AdmissibleWord(W.flavor, tuple(states), tuple(inners))
    validate(machine.hw, out)
    return out


def step(machine, rid, W):
    """(W o rid, None) or (None, Diagnosis), the way Machine.step answers."""
    diag = applicable(machine, rid, W)
    if diag is not None:
        return None, diag
    return apply(machine, rid, W), None


def band(machine, W, rid):
    """The theta-band of rid over W as the paper draws it: the positive band
    of rid's positive form over the word it applies to (W, or W o rid for a
    negative rid), every cell then mirrored for a negative rid."""
    hw = machine.hw
    pos = rid.positive
    rule = machine.rules[pos]
    if rid.sign < 0:
        W = apply(machine, rid, W)
    cells = []
    for k, (st, s) in enumerate(W.states):
        zb, za = zones_of(hw, st.base)
        left, right = _parts(machine, rule, 1, st, s)
        top = Word(left + ((hw.state(st.kind, st.j, rule.dst, pos.bar), s),) + right)
        if not pos.bar:
            top = alpha(pos.inverse, top)
        cells.append(Cell("bar_main" if pos.bar else "main", Theta(pos, zb if s > 0 else za),
                          Theta(pos, za if s > 0 else zb), Word(((st, s),)), top))
        if k == len(W.inners):
            break
        theta = Theta(pos, zone_after(hw, (st.base, s)))
        for letter in W.inners[k]:
            a = Word((letter,))
            if pos.bar:
                cells.append(Cell("bar_theta_a", theta, theta, a, a))
            else:
                cells.append(Cell("theta_a", theta, theta, alpha(pos, a), alpha(pos.inverse, a)))
    bottom = Word([l for c in cells for l in c.bottom.letters])
    top = Word([l for c in cells for l in c.top.letters])
    base = tuple(st.base for st, _ in W.states)
    if rid.sign > 0:
        return Band(rid, tuple(cells), bottom, top, base)
    cells = [Cell(c.kind, c.left, c.right, c.top, c.bottom, -c.dir) for c in cells]
    return Band(rid, tuple(cells), top, bottom, base)


def verify_band(band, pres, machine):
    """The report of ``bands.verify_band``, from the definitions and with no
    memo: every cell is checked in full, against ``pres.index()`` (that of
    a full ``emit``), every time.

    Per cell: both theta edges name the band's rule's positive form and the
    cell points the rule's way (dir is its sign); the boundary
    left^-dir bottom right^dir top^-1, canonicalized by
    ``normalize_relator``, is a relator, of the cell's kind.  Then
    neighbouring cells share their theta edge and dir; the cells' bottoms,
    and their tops, freely reduce to the band's labels; both labels read
    the band's base; each two state letters in a row are a legal base
    shape (the successor along the base word, or the fold-back y^s y^-s,
    not at a zone the rule locks); and the tape-and-state projections of
    the labels differ in length by at most |base| times the longest relator
    of the input."""
    hw = machine.hw
    rid = band.rid
    pos = rid.positive
    if pos not in machine.rules:
        return [f"unknown rule {rid!r}"]
    rule = machine.rules[pos]
    index = pres.index()
    report = []
    for k, cell in enumerate(band.cells):
        if not (isinstance(cell.left, Theta) and isinstance(cell.right, Theta)
                and cell.left.rule == pos and cell.right.rule == pos and cell.dir == rid.sign):
            report.append(f"cell {k}: theta edges {cell.left!r}, {cell.right!r} "
                          f"with dir {cell.dir} are not of {rid!r}")
        try:
            letters = ([(cell.left, -cell.dir)] + list(cell.bottom.letters)
                       + [(cell.right, cell.dir)]
                       + [(sym, -sign) for sym, sign in reversed(cell.top.letters)])
            relator = normalize_relator(Word(free_reduce(letters), reduce=False))
        except Exception as e:
            report.append(f"cell {k}: boundary did not normalize: {e}")
            continue
        rel = index.get(relator)
        if rel is None:
            report.append(f"cell {k}: boundary is not a relator")
        elif rel.kind != cell.kind:
            report.append(f"cell {k}: relator kind {rel.kind} != {cell.kind}")
    for k in range(len(band.cells) - 1):
        c1, c2 = band.cells[k], band.cells[k + 1]
        if c1.right != c2.left or c1.dir != c2.dir:
            report.append(f"cells {k},{k + 1}: theta edges {c1.right!r} != {c2.left!r}")
    for name, label in (("bottom", band.bottom), ("top", band.top)):
        spelled = [l for c in band.cells for l in getattr(c, name).letters]
        if free_reduce(spelled) != tuple(label.letters):
            report.append(f"{name} label mismatch")
    signed = [(sym.base, s) for sym, s in band.bottom.letters if isinstance(sym, State)]
    top_base = [sym.base for sym, _ in band.top.letters if isinstance(sym, State)]
    if [y for y, _ in signed] != top_base or tuple(top_base) != tuple(band.base):
        report.append("top and bottom bases differ")
    for (y, s), (y2, s2) in zip(signed, signed[1:]):
        if (y2, s2) == (y, -s):
            if zone_after(hw, (y, s)).kind in rule.locks:
                report.append(f"fold-back at {y}^{s} in a locked zone")
        elif (y2, s2) != succ(hw, (y, s)):
            report.append(f"illegal 2-letter base {y}^{s} {y2}^{s2}")
    grown = [len(free_reduce([l for l in label.letters if isinstance(l[0], (Tape, State))]))
             for label in (band.bottom, band.top)]
    if abs(grown[1] - grown[0]) > len(band.base) * max(len(r) for r in hw.ee.relators):
        report.append("band growth exceeds base-length * max-relator-length")
    return report


def verify_trapezium(trap, pres, machine):
    """The report of ``bands.verify_trapezium``, from the definitions, with
    no memo and nothing carried from one check to the next.

    Each band's report (``verify_band`` above), its lines prefixed
    ``band i: ``; then per pair of neighbouring bands, the lower top equal
    to the upper bottom and the two not mirror bands.  Then the
    tape-and-state projection of band 0's bottom, freely reduced here, must
    parse in the machine's flavor and the bands' rules must run from it rule
    by rule through ``step`` above; at the first failure the report ends
    there, with the line ``smkit run`` prints for it.  Last, band i's bottom
    projection must be the letters of step i and its top projection those
    of step i + 1."""
    bands = trap.bands
    report = []
    for i, band in enumerate(bands):
        report += [f"band {i}: {line}" for line in verify_band(band, pres, machine)]
    for i in range(len(bands) - 1):
        if bands[i].top != bands[i + 1].bottom:
            report.append(f"bands {i},{i + 1}: top does not glue onto bottom")
        if bands[i + 1].rid == bands[i].rid.inverse:
            report.append(f"bands {i},{i + 1}: mirror bands (reducible pair)")

    def projection(label):
        return free_reduce([l for l in label.letters if isinstance(l[0], (Tape, State))])

    try:
        W = machine.hw.parse_admissible(projection(bands[0].bottom), machine.flavor)
    except Exception as e:
        report.append(f"bottom does not parse: {e}")
        return report
    steps = [W]
    for k, band in enumerate(bands):
        out, diag = step(machine, band.rid, steps[-1])
        if diag is not None:
            report.append(f"history does not run: step {k} failed: {diag}")
            return report
        steps.append(out)
    for i, band in enumerate(bands):
        for name, label, k in (("bottom", band.bottom, i), ("top", band.top, i + 1)):
            if projection(label) != steps[k].flat():
                report.append(f"band {i}: {name} projection is not step {k}")
    return report


# ---------------------------------------------------------------------------
# nesting of oriented Dyck pairs
# ---------------------------------------------------------------------------

def _inside(n, open_pos, close_pos):
    """Positions strictly inside the clockwise arc open_pos..close_pos."""
    out = []
    k = (open_pos + 1) % n
    while k != close_pos:
        out.append(k)
        k = (k + 1) % n
    return out


def nesting(n, oriented_pairs):
    """Parent table for oriented pairs, or None if some pair holds another
    pair only in part or holds one whose arc is not inside its own; the
    parent is the pair with the smallest arc holding both positions."""
    insides = []
    for (o, c) in oriented_pairs:
        inside = set(_inside(n, o, c))
        for (o2, c2) in oriented_pairs:
            if (o2, c2) == (o, c):
                continue
            hit = len({o2, c2} & inside)
            if hit == 1:
                return None
            if hit == 2 and not set(_inside(n, o2, c2)) <= inside:
                return None
        insides.append(inside)
    parents = []
    for k, (o, c) in enumerate(oriented_pairs):
        best = -1
        for k2, inside2 in enumerate(insides):
            if k2 != k and o in inside2 and c in inside2:
                if best < 0 or len(inside2) < len(insides[best]):
                    best = k2
        parents.append(best)
    return tuple(parents)


def _matchings(word, positions):
    """All non-crossing inverse-letter perfect matchings of ``positions``,
    leftmost position first, partners scanned left to right."""
    if not positions:
        yield []
        return
    p = positions[0]
    sym, sign = word[p]
    for idx in range(1, len(positions)):
        q = positions[idx]
        if word[q] == (sym, -sign):
            for left in _matchings(word, positions[1:idx]):
                for right in _matchings(word, positions[idx + 1:]):
                    yield [(p, q)] + left + right


def minus_pairing_search(w):
    """First pairing (enumeration order) all of whose pairs read (z^-1, z).

    The search over every non-crossing matching that the library ran before
    its bracket scan: each matching is oriented at its negative letters and
    kept when ``nesting`` accepts it.
    """
    if len(w) == 0:
        return DyckPairing(w, (), ())
    if len(w) % 2 or not is_dyck(w):
        return None
    for matching in _matchings(w.letters, list(range(len(w)))):
        oriented = []
        for p, q in matching:
            if w[p][1] < 0:
                oriented.append((p, q))
            else:
                oriented.append((q, p))
        oriented = tuple(sorted(oriented))
        parents = nesting(len(w), oriented)
        if parents is not None:
            return DyckPairing(w, oriented, parents)
    return None


# ---------------------------------------------------------------------------
# symbol order, recomputed from the fields on every call
# ---------------------------------------------------------------------------

def _rule_key(rule):
    return (rule.bar, FAMILIES.index(rule.family), -1 if rule.r is None else rule.r,
            -1 if rule.i is None else rule.i, rule.sign)


def symbol_key(sym):
    """The total order on symbols, unmemoized: kind tag, bar, indices."""
    if isinstance(sym, str):
        return (0, sym)
    if isinstance(sym, Tape):
        return (1, sym.bar, KINDS.index(sym.zone.kind), sym.zone.j, sym.i)
    if isinstance(sym, State):
        return (2, sym.bar, KINDS.index(sym.kind), sym.j,
                -1 if sym.coord.r is None else sym.coord.r, sym.coord.omega)
    if isinstance(sym, Theta):
        return (3, _rule_key(sym.rule), KINDS.index(sym.zone.kind), sym.zone.j)
    if isinstance(sym, X):
        return (4, symbol_key(sym.tape), _rule_key(sym.rule))
    raise TypeError(f"not a word symbol: {sym!r}")


# ---------------------------------------------------------------------------
# zone components, rebuilt on every call
# ---------------------------------------------------------------------------

def zone_components(hw):
    """Zone -> component representative under the K/L crossing moves: each
    zone's component is grown by search, and its least zone (in base-word
    order) represents it."""
    zones = gap_zones(hw)
    order = {z: p for p, z in enumerate(zones)}
    moves = {}
    for za, zb in _zone_moves(hw):
        moves.setdefault(za, set()).add(zb)
    out = {}
    for z in zones:
        if z in out:
            continue
        comp, todo = {z}, [z]
        while todo:
            for nb in moves.get(todo.pop(), ()):
                if nb not in comp:
                    comp.add(nb)
                    todo.append(nb)
        rep = min(comp, key=order.__getitem__)
        for member in comp:
            out[member] = rep
    return out


# ---------------------------------------------------------------------------
# acceptance targets, and a search deduplicating on serialized words
# ---------------------------------------------------------------------------

def is_accept_target(hw, W):
    """True iff W is graphically Sigma(v)^s K1(e,1) for some word v, s >= 1,
    block 1 allowed empty (the bar shape): the signed base is checked whole,
    then each sector's zone is looked up from the letter it starts at."""
    if W.coord != Coord(None, 1):
        return False
    n = len(hw.sigma)
    sb = W.signed_base()
    if len(sb) < n + 1 or (len(sb) - 1) % n:
        return False
    s = (len(sb) - 1) // n
    if sb != tuple(hw.sigma) * s + ((hw.sigma[0][0], 1),):
        return False
    ref = None
    for k in range(len(W.inners)):
        (st, sg), inner, _ = W.sector(k)
        zone = zone_after(hw, (st.base, sg))
        if zone.kind != "P":
            if len(inner):
                return False
            continue
        # a sector the base word reads backward holds v inverted
        content = inner if sg > 0 else reversed(inner)
        got = tuple((t.i, e * sg) for t, e in content)
        if zone.j == 1 and not got:
            continue  # bar shape
        if ref is None:
            ref = got
        elif got != ref:
            return False
    return True


def accept_bfs(machine, W, max_steps):
    """Breadth-first search keyed on W.text(), the way the library searched
    before it keyed on the words themselves."""
    from smkit.smachine import Trace
    hw = machine.hw
    if is_accept_target(hw, W):
        return Trace((), (W,), None)
    start = W.text()
    seen = {start: (None, None)}
    frontier = deque([(W, start, 0)])
    while frontier:
        cur, key, depth = frontier.popleft()
        if depth >= max_steps:
            continue
        for rid, nxt in machine.applicable_rules(cur):
            nkey = nxt.text()
            if nkey in seen:
                continue
            seen[nkey] = (key, rid)
            if is_accept_target(hw, nxt):
                h = []
                k = nkey
                while seen[k][0] is not None:
                    k, rid2 = seen[k]
                    h.append(rid2)
                h.reverse()
                return machine.run(W, tuple(h))
            frontier.append((nxt, nkey, depth + 1))
    return None
