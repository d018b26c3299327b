"""Independent brute-force oracles used by the tests.

Nothing here shares code paths with the library algorithms it checks:
matchings are enumerated over all position pairings and filtered, the
x-word conjugacy oracle is a plain breadth-first closure over the
elementary conjugation moves, relator canonicalization strips and
rotates letter by letter, trying every rotation, rule application checks a
rule, then builds and validates its result twice with unmemoized tape
parts, pair nesting compares every arc with every other, the symbol order
is recomputed from the fields, zone components are grown by search, and
the acceptance search keys its words on their text.
"""

import itertools
from collections import deque

from smkit.h2 import is_uniform, run_of
from smkit.hardware import AdmissibleError, AdmissibleWord
from smkit.presentation import PresentationError
from smkit.smachine import Diagnosis
from smkit.words import (
    EMPTY, FAMILIES, KINDS, CyclicWord, State, Tape, Theta, X, letter_key,
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
            zb, za = hw.zones_of(bl)
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


# ---------------------------------------------------------------------------
# rule application: check, then build the result (and build it again)
# ---------------------------------------------------------------------------

def zone_after(hw, y):
    """Zone of the sector starting at the signed letter y, from the base
    word's positions."""
    bl, s = y
    p = hw._pos[bl]
    if s == hw._orient[bl]:
        return hw._zone_after_pos[p]
    return hw._zone_after_pos[(p - 1) % len(hw.sigma)]


def _parts(machine, rule, sign, st, s):
    hw = machine.hw
    zb, za = zone_after(hw, (st.base, -1)), zone_after(hw, (st.base, 1))
    v = rule.v_spec(st.kind)
    u = rule.u_spec(st.kind)
    if sign < 0:
        v = tuple((i, -e) for i, e in reversed(v))
        u = tuple((i, -e) for i, e in reversed(u))

    def mat(spec, zone, invert):
        if rule.rid.bar and zone.j == 1:
            return EMPTY
        return hw.tape_word(spec, zone, rule.rid.bar, invert)

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
            machine.hw.validate_bar_shape(W)
        else:
            machine.hw.validate_plain_shape(W)
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
        inners.append(parts[k][1] * inner * parts[k + 1][0])
    out = AdmissibleWord(W.flavor, tuple(states), tuple(inners))
    machine.hw.validate(out)
    return out


def step(machine, rid, W):
    """(W o rid, None) or (None, Diagnosis), the way Machine.step answers."""
    diag = applicable(machine, rid, W)
    if diag is not None:
        return None, diag
    return apply(machine, rid, W), None


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
    order = {z: p for p, z in enumerate(hw._zone_after_pos)}
    moves = {}
    for za, zb in _zone_moves(hw):
        moves.setdefault(za, set()).add(zb)
    out = {}
    for z in hw._zone_after_pos:
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
# acceptance search, deduplicating on serialized words
# ---------------------------------------------------------------------------

def accept_bfs(machine, W, max_steps):
    """Breadth-first search keyed on W.text(), the way the library searched
    before it keyed on the words themselves."""
    from smkit.derive import is_accept_target
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
