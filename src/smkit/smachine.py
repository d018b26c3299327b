"""Rules, machines, rule application, computations and their measures.

A positive rule acts on every j-block the same way.  Per basic-letter kind
it either locks the sector to the letter's right (the inner part must be
empty) or rewrites z -> v z u with v over the zone before z and u over the
zone after z, and it moves the coordinates (r, omega) -> (r', omega').

The ten positive families (i ranges over tape indices, r over relators):

    t1(e,i)    P -> a_i P a_i^-1          locks K,R     (e,1)  -> (e,1)
    t12(r)     transition                 locks K,R     (e,1)  -> (r,2)
    t2(r,i)    L -> a_i L a_i^-1          locks R       (r,2)  -> (r,2)
    t23(r)     transition                 locks L,R     (r,2)  -> (r,3)
    t3(r,i)    R -> a_i^-1 R a_i          locks L       (r,3)  -> (r,3)
    t34(r)     L -> r L   (r non-empty)   locks L,P     (r,3)  -> (r,4)
    t4(r,i)    L -> a_i L a_i^-1          locks P       (r,4)  -> (r,4)
    t45(r)     transition                 locks K,P     (r,4)  -> (r,5)
    t5(r,i)    R -> a_i^-1 R a_i          locks K       (r,5)  -> (r,5)
    t51(r)     transition                 locks K,R     (r,5)  -> (e,1)

Negative rules are computed views (v, u inverted, coordinates swapped).
The bar machine has the same table with barred letters, except that letters
of the j=1 zones are dropped from every v and u.

A rule never changes a word's base, so what it does to a word W is fixed by
the rule and W's state letters; only the inner words vary.  ``_apply``
compiles this once into a step plan, memoized per Machine under the key
(signed rule, W.states): the result's states tuple, and the tape words to
attach on either side of each sector that changes.  Applying the plan
copies W's inner words, rebuilds each changed sector with one free
reduction and keeps the other sectors' words.  The plans live as long as
the Machine, like the tape parts behind them (``_parts``, at most signed
rules x 4N x 2 entries); they grow with signed rules x distinct states
tuples seen.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .hardware import AdmissibleError, AdmissibleWord, Hardware
from .words import (
    AGE_FAMILIES, BaseLetter, Coord, RuleId, EMPTY, TRANSITION_FAMILIES, Word,
)

LOCKS = {
    "1": frozenset("KR"), "12": frozenset("KR"), "2": frozenset("R"),
    "23": frozenset("LR"), "3": frozenset("L"), "34": frozenset("LP"),
    "4": frozenset("P"), "45": frozenset("KP"), "5": frozenset("K"),
    "51": frozenset("KR"),
}

# acting letter kind per family, with (v, u) as words over (index, sign)
def _actions(ee, rid):
    i, f = rid.i, rid.family
    if f == "1":
        return {"P": (((i, 1),), ((i, -1),))}
    if f in ("2", "4"):
        return {"L": (((i, 1),), ((i, -1),))}
    if f in ("3", "5"):
        return {"R": (((i, -1),), ((i, 1),))}
    if f == "34":
        return {"L": (tuple((a, 1) for a in ee.relator(rid.r)), ())}
    return {}


def _coords(rid):
    f, r = rid.family, rid.r
    table = {
        "1": (Coord(None, 1), Coord(None, 1)),
        "12": (Coord(None, 1), Coord(r, 2)),
        "2": (Coord(r, 2), Coord(r, 2)),
        "23": (Coord(r, 2), Coord(r, 3)),
        "3": (Coord(r, 3), Coord(r, 3)),
        "34": (Coord(r, 3), Coord(r, 4)),
        "4": (Coord(r, 4), Coord(r, 4)),
        "45": (Coord(r, 4), Coord(r, 5)),
        "5": (Coord(r, 5), Coord(r, 5)),
        "51": (Coord(r, 5), Coord(None, 1)),
    }
    return table[f]


@dataclass(frozen=True)
class Rule:
    rid: RuleId  # positive
    src: Coord
    dst: Coord
    locks: frozenset
    actions: dict  # kind -> (v_spec, u_spec), specs over (index, sign)

    def v_spec(self, kind):
        return self.actions.get(kind, ((), ()))[0]

    def u_spec(self, kind):
        return self.actions.get(kind, ((), ()))[1]


class NotApplicable(ValueError):
    def __init__(self, diagnosis):
        self.diagnosis = diagnosis
        super().__init__(str(diagnosis))


@dataclass(frozen=True)
class Diagnosis:
    code: str  # CoordMismatch | LockedSectorNonEmpty | ForbiddenSectorShape
    #            | ResultNotAdmissible | UnknownRule | FlavorMismatch
    detail: str = ""

    def __str__(self):
        return f"{self.code}({self.detail})" if self.detail else self.code


def enumerate_rule_ids(ee, bar=False):
    """All positive rule names, in the canonical deterministic order."""
    out = []
    nr = len(ee.nonempty)
    every_r = [None] + list(range(1, nr + 1))
    nonempty_r = list(range(1, nr + 1))
    for f in ("1", "12", "2", "23", "3", "34", "4", "45", "5", "51"):
        if f == "1":
            out += [RuleId(f, None, i, bar) for i in range(1, ee.mbar + 1)]
        elif f in ("12", "34"):
            out += [RuleId(f, r, None, bar) for r in nonempty_r]
        elif f in AGE_FAMILIES:
            out += [RuleId(f, r, i, bar) for r in every_r for i in range(1, ee.mbar + 1)]
        else:
            out += [RuleId(f, r, None, bar) for r in every_r]
    return out


class Machine:
    """An S-machine over a Hardware: a rule table closed under inversion."""

    def __init__(self, hardware: Hardware, flavor: str):
        if flavor not in ("strict", "bar", "mixed"):
            raise ValueError(f"unknown flavor {flavor!r}")
        self.hw = hardware
        self.ee = hardware.ee
        self.flavor = flavor
        bars = {"strict": (False,), "bar": (True,), "mixed": (False, True)}[flavor]
        self.rules = {}
        for bar in bars:
            for rid in enumerate_rule_ids(self.ee, bar):
                src, dst = _coords(rid)
                self.rules[rid] = Rule(rid, src, dst, LOCKS[rid.family],
                                       _actions(self.ee, rid))
        self._by_src = None  # source coordinate -> signed candidates, on first use
        self._part_memo = {}
        self._plans = {}  # (signed rule, states tuple) -> step plan, by _apply

    def rule_ids(self):
        return list(self.rules)

    def rule(self, rid: RuleId):
        return self.rules.get(rid.positive)

    def coords_of(self, rid):
        rule = self.rules[rid.positive]
        return (rule.src, rule.dst) if rid.sign > 0 else (rule.dst, rule.src)

    # -- applying rules --------------------------------------------------

    def _parts(self, rid, kind, j, s):
        """(left, right) tape words the signed rule rid attaches around one
        occurrence of the signed basic letter (kind_j)^s.

        They depend on nothing else, so they are memoized per machine under
        the key (rid, kind, j, s): at most (signed rules) x 4N x 2 entries.
        """
        key = (rid, kind, j, s)
        hit = self._part_memo.get(key)
        if hit is not None:
            return hit
        hw = self.hw
        rule = self.rules[rid.positive]
        zb, za = hw.zones_of(BaseLetter(kind, j))
        v = rule.v_spec(kind)
        u = rule.u_spec(kind)
        if rid.sign < 0:
            v = tuple((i, -e) for i, e in reversed(v))
            u = tuple((i, -e) for i, e in reversed(u))

        def mat(spec, zone, invert):
            if rid.bar and zone.j == 1:
                return EMPTY
            return hw.tape_word(spec, zone, rid.bar, invert)

        if s > 0:
            hit = mat(v, zb, False), mat(u, za, False)
        else:
            hit = mat(u, za, True), mat(v, zb, True)
        self._part_memo[key] = hit
        return hit

    def step(self, rid: RuleId, W: AdmissibleWord):
        """Apply rid to W in one pass: (W o rid, None) when rid applies,
        else (None, Diagnosis) naming the first failed check.

        The checks run in this order: the rule exists (UnknownRule), W has
        the rule's plain or bar shape (FlavorMismatch), W sits at the rule's
        source coordinate (CoordMismatch), every sector in a locked zone is
        empty and no fold-back (ForbiddenSectorShape, LockedSectorNonEmpty),
        and the result is admissible (ResultNotAdmissible).  The result is
        built and validated once.
        """
        rule = self.rules.get(rid.positive)
        if rule is None:
            return None, Diagnosis("UnknownRule", repr(rid))
        err = self._shape_error(W, rid.bar)
        if err is not None:
            return None, Diagnosis("FlavorMismatch", err.clause)
        src = rule.src if rid.sign > 0 else rule.dst
        if W.coord != src:
            return None, Diagnosis("CoordMismatch", f"word at {W.coord!r}, rule needs {src!r}")
        table = self.hw.sector_table(W.states)
        for k, (zone, fold, inner) in enumerate(zip(table.zones, table.folds, W.inners)):
            if zone.kind in rule.locks:
                if fold:
                    st, s = W.states[k]
                    return None, Diagnosis("ForbiddenSectorShape",
                                           f"fold-back at {st!r}^{s} in locked {zone!r}-zone")
                if inner.letters:
                    return None, Diagnosis("LockedSectorNonEmpty", repr(zone))
        try:
            return self._apply(rid, W), None
        except AdmissibleError as e:
            return None, Diagnosis("ResultNotAdmissible", e.clause)

    def applicable(self, rid: RuleId, W: AdmissibleWord):
        """None when applicable, else a Diagnosis naming the first failure."""
        return self.step(rid, W)[1]

    def _apply(self, rid, W):
        """W o rid, validated; the checks before it are the caller's."""
        key = (rid, W.states)
        plan = self._plans.get(key)
        if plan is None:
            plan = self._plans[key] = self._plan(rid, W.states)
        states, changes = plan
        inners = W.inners
        if changes:
            inners = list(inners)
            for k, right, left in changes:
                inners[k] = Word(right + inners[k].letters + left)
            inners = tuple(inners)
        out = AdmissibleWord(W.flavor, states, inners)
        self.hw.validate(out)
        return out

    def _plan(self, rid, states):
        """The step plan of rid on words with these state letters: the
        result's states tuple, and (k, right, left) letter tuples for each
        sector k whose inner word becomes right + inner + left, freely
        reduced; the sectors not listed keep their inner words."""
        rule = self.rules[rid.positive]
        dst = rule.dst if rid.sign > 0 else rule.src
        state, parts = self.hw.state, self._parts
        out = tuple((state(st.kind, st.j, dst, rid.bar), s) for st, s in states)
        sides = [parts(rid, st.kind, st.j, s) for st, s in states]
        changes = tuple((k, sides[k][1].letters, sides[k + 1][0].letters)
                        for k in range(len(states) - 1)
                        if sides[k][1].letters or sides[k + 1][0].letters)
        return out, changes

    def apply(self, rid: RuleId, W: AdmissibleWord):
        out, diag = self.step(rid, W)
        if diag is not None:
            raise NotApplicable(diag)
        return out

    def run(self, W: AdmissibleWord, history):
        """Apply a history stepwise; never raises, failures end the trace."""
        words = [W]
        for k, rid in enumerate(history):
            out, diag = self.step(rid, words[-1])
            if diag is not None:
                return Trace(tuple(history), tuple(words), (k, diag))
            words.append(out)
        return Trace(tuple(history), tuple(words), None)

    def applicable_rules(self, W):
        """[(rid, W o rid)] for every signed rule rid that applies to W.

        The order is canonical: rules in the order of ``self.rules``, each
        positive rule before its inverse; the rids are exactly those whose
        ``applicable`` is None.  Only the rules whose source coordinate is
        W.coord are looked at, the plain and bar shape checks and the lock
        scan run once per W, and each result is built and validated once.
        """
        if self._by_src is None:
            self._by_src = self._index_sources()
        shape_ok = {}
        blocked = self._blocked_kinds(W)
        out = []
        for rid, locks in self._by_src.get(W.coord, ()):
            ok = shape_ok.get(rid.bar)
            if ok is None:
                ok = shape_ok[rid.bar] = self._shape_error(W, rid.bar) is None
            if not ok or locks & blocked:
                continue
            try:
                out.append((rid, self._apply(rid, W)))
            except AdmissibleError:
                pass
        return out

    def _index_sources(self):
        """Signed rules with their locks, grouped by source coordinate, each
        group in the canonical order of ``applicable_rules``."""
        by_src = {}
        for rid, rule in self.rules.items():
            by_src.setdefault(rule.src, []).append((rid, rule.locks))
            by_src.setdefault(rule.dst, []).append((rid.inverse, rule.locks))
        return by_src

    def _shape_error(self, W, bar):
        """The AdmissibleError of W's bar or plain shape check, or None."""
        try:
            if bar:
                self.hw.validate_bar_shape(W)
            else:
                self.hw.validate_plain_shape(W)
        except AdmissibleError as e:
            return e
        return None

    def _blocked_kinds(self, W):
        """Zone kinds of the sectors of W that are non-empty or fold back:
        a rule applies only if it locks none of them."""
        table = self.hw.sector_table(W.states)
        return {zone.kind for zone, fold, inner in zip(table.zones, table.folds, W.inners)
                if fold or inner.letters}

    # -- content-independent sector transport ----------------------------

    def sector_growth(self, sector, history):
        """Inner-part-independent growth (u, v) of a sector under a history.

        sector is a pair of signed basic letters ((z, s), (z', s')) with
        z' following z.  Returns (u, v) with  z W' z' o h  =  z1 u W' v z'1
        in the free group for every inner part W'.  Histories touching a
        rule that locks the sector's zone are rejected (the action is then
        only defined on empty inner parts).
        """
        (z, s), (z2, s2) = sector
        if (z2, s2) != self.hw.succ((z, s)) and (z2, s2) != (z, -s):
            raise ValueError("not a sector shape")
        zone = self.hw.zone_after((z, s))
        u, v = EMPTY, EMPTY
        coord = None
        for rid in history:
            rule = self.rule(rid)
            if rule is None:
                raise ValueError(f"unknown rule {rid!r}")
            src, dst = self.coords_of(rid)
            if coord is not None and src != coord:
                raise ValueError(f"coordinate break at {rid!r}")
            coord = dst
            if zone.kind in rule.locks:
                raise ValueError(f"{rid!r} locks the {zone!r}-zone: undefined action")
            right = self._parts(rid, z.kind, z.j, s)[1]
            left = self._parts(rid, z2.kind, z2.j, s2)[0]
            u = right * u
            v = v * left
        return u, v


@dataclass(frozen=True)
class Trace:
    history: tuple
    words: tuple  # words[0] and one word per applied step
    failure: Optional[tuple]  # (step index, Diagnosis) or None

    @property
    def ok(self):
        return self.failure is None

    @property
    def final(self):
        return self.words[-1]


# ---------------------------------------------------------------------------
# Histories and their combinatorics
# ---------------------------------------------------------------------------

def parse_history(text):
    from .words import parse_rule
    return tuple(parse_rule(line.strip()) for line in text.splitlines()
                 if line.strip() and not line.strip().startswith("#"))


def history_text(history):
    from .words import rule_token
    return "\n".join(rule_token(rid) for rid in history)


def reduce_history(history):
    out = []
    for rid in history:
        if out and out[-1] == rid.inverse:
            out.pop()
        else:
            out.append(rid)
    return tuple(out)


def is_reduced_history(history):
    return all(b != a.inverse for a, b in zip(history, history[1:]))


def inverse_history(history):
    return tuple(rid.inverse for rid in reversed(history))


def brief_history(history):
    """Factor a history into transition letters and maximal ages.

    Returns a tuple of symbols like ("(12)", "(2)", ...); inverse transition
    rules print the same as positive ones.
    """
    out = []
    prev_age = None
    for rid in history:
        sym = f"({rid.family})"
        if rid.family in TRANSITION_FAMILIES:
            out.append(sym)
            prev_age = None
        else:
            if sym != prev_age:
                out.append(sym)
            prev_age = sym
    return tuple(out)


# Automaton for subwords of f0 h1 f1 ... hs fs where the h's are historical
# periods (12)(2)(23)(3)(34)(4)(45)(5)(51) or inverses with optionally empty
# ages and the f's are single (1)-ages.
_PERIOD = ("(12)", "(2)", "(23)", "(3)", "(34)", "(4)", "(45)", "(5)", "(51)")


def _history_graph():
    nodes = {}
    edges = {}

    def add(node, sym):
        nodes[node] = sym
        edges[node] = set()

    for d, seq in (("F", _PERIOD), ("B", tuple(reversed(_PERIOD)))):
        for k, sym in enumerate(seq):
            add((d, k), sym)
    add(("J", 0), "(1)")
    for d, seq in (("F", _PERIOD), ("B", tuple(reversed(_PERIOD)))):
        for k in range(len(seq) - 1):
            edges[(d, k)].add((d, k + 1))
            if k + 2 < len(seq) and len(seq[k + 1]) == 3:  # age slot, may be empty
                edges[(d, k)].add((d, k + 2))  # ages may be empty
        for tgt in (("J", 0), ("F", 0), ("B", 0)):
            edges[(d, len(seq) - 1)].add(tgt)
    edges[("J", 0)] = {("F", 0), ("B", 0)}
    return nodes, edges


_HIST_NODES, _HIST_EDGES = _history_graph()


def is_historical_form(brief):
    """True iff brief is a subword of periods separated by (1)-ages."""
    brief = tuple(brief)
    if not brief:
        return True
    states = {n for n, sym in _HIST_NODES.items() if sym == brief[0]}
    for sym in brief[1:]:
        states = {n2 for n in states for n2 in _HIST_EDGES[n]
                  if _HIST_NODES[n2] == sym}
        if not states:
            return False
    return True


def diff(w):
    """Positive minus negative tape-letter occurrences."""
    letters = w.flat() if isinstance(w, AdmissibleWord) else w
    from .words import Tape
    return sum(s for sym, s in letters if isinstance(sym, Tape))


def prefix(history, t):
    if not 0 <= t <= len(history):
        raise ValueError(f"prefix length {t} out of range 0..{len(history)}")
    return tuple(history[:t])


def s34_count(history, t):
    return sum(1 for rid in prefix(history, t) if rid.family == "34")
