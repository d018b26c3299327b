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
of the j=1 zones are dropped from every v and u (``Hardware.tape_word``
builds no bar letters there).

A rule never changes a word's base, so what it does to a word W is fixed by
the rule and W's state letters; only the inner words vary.  ``_apply``
compiles this once into a step plan: the result's states tuple and its
SectorTable, and the tape words to attach on either side of each sector
that changes.  The plan hangs on the SectorTable of W's states
(``table.plans[rid]``), so it depends only on the Hardware and the signed
rule, is shared by every Machine over that Hardware, and lives as long as
the table: one plan per signed rule applied per distinct states tuple.
The tape parts behind it are letter tuples, like the sectors of an
``AdmissibleWord``, memoized per Machine (``_parts``, at most signed rules
x 4N x 2 entries).

Every changed sector becomes right + inner + left, freely reduced once
(``free_reduce``), whatever the word; the tuple ``free_reduce`` returns is
the result's sector as it is, and unchanged sectors are W's own tuples.
A word the Hardware trusts (it validated the word, or built it in a step
from a trusted word; see ``hardware``) carries its table and the plain or
bar shape it passed, so a step reads the table without hashing the states
tuple, checks the rule's shape without walking the letters when it is the
recorded one (``_shape_error``), and skips the full ``Hardware.validate`` on
the result.  The zone, index and plain/bar letter clauses hold by
construction of the tape parts, and the result's states have the rule's
plain or bar shape.  What is left is the sign of the letters in a strict
sector that needs one and whose attached words do not all have it: every
inner letter of a trusted strict word already has that sign, so a letter of
the reduced sector with another sign is an attached one that survived.  The
first sector holding one is the PositivityViolation the full ``validate``
would raise first, and is raised as such.  A result that passes carries its
table and the rule's shape, and is trusted in turn.  When W is not trusted,
or its flavor asks for the other shape (a strict W under a bar rule, a bar W
under a plain rule), the full ``validate`` runs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from .hardware import AdmissibleError, AdmissibleWord, Hardware, PositivityViolation
from .words import (
    AGE_FAMILIES, FAMILIES, BaseLetter, Coord, RuleId, TRANSITION_FAMILIES, TokenError, Word,
    content_lines, family_relators, free_reduce, parse_rule, rule_token,
)

# One row per family, the table of the module docstring: source and target age, the zone
# kinds it locks, and the letter kind it acts at with the sign of the tape
# letter it attaches before that letter (the inverse letter goes after);
# t34 attaches its relator before L instead, and transitions act at none.
FAMILY_ROWS = {
    "1": (1, 1, frozenset("KR"), "P", 1),
    "12": (1, 2, frozenset("KR"), None, None),
    "2": (2, 2, frozenset("R"), "L", 1),
    "23": (2, 3, frozenset("LR"), None, None),
    "3": (3, 3, frozenset("L"), "R", -1),
    "34": (3, 4, frozenset("LP"), "L", None),
    "4": (4, 4, frozenset("P"), "L", 1),
    "45": (4, 5, frozenset("KP"), None, None),
    "5": (5, 5, frozenset("K"), "R", -1),
    "51": (5, 1, frozenset("KR"), None, None),
}


def _build_rule(ee, rid):
    """The positive rule rid from its family's row; age 1 sits at the empty
    relator."""
    src, dst, locks, kind, sign = FAMILY_ROWS[rid.family]
    actions = {}
    if sign is not None:
        actions[kind] = (((rid.i, sign),), ((rid.i, -sign),))
    elif kind is not None:  # t34
        actions[kind] = (tuple((a, 1) for a in ee.relator(rid.r)), ())
    return Rule(rid, Coord(None if src == 1 else rid.r, src),
                Coord(None if dst == 1 else rid.r, dst), locks, actions)


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
    indices = range(1, ee.mbar + 1)
    return [RuleId(f, r, i, bar) for f in FAMILIES
            for r in family_relators(f, len(ee.nonempty))
            for i in (indices if f in AGE_FAMILIES else (None,))]


class Machine:
    """An S-machine over a Hardware: a rule table closed under inversion."""

    def __init__(self, hardware: Hardware, flavor: str):
        if flavor not in ("strict", "bar", "mixed"):
            raise ValueError(f"unknown flavor {flavor!r}")
        self.hw = hardware
        self.ee = hardware.ee
        self.flavor = flavor
        bars = {"strict": (False,), "bar": (True,), "mixed": (False, True)}[flavor]
        self.rules = {rid: _build_rule(self.ee, rid)
                      for bar in bars for rid in enumerate_rule_ids(self.ee, bar)}
        self.distance = self._distances()
        self._by_src = None  # source coordinate -> signed candidates, on first use
        self._part_memo = {}
        # bands._band_step's cells: signed rule -> {letter: Cell}, keyed by
        # the state or tape letter a cell is drawn on, so at most
        # 2 x (state letters + tape letters) per rule.  Filled lazily.
        # Every band over this machine reuses these objects, so
        # Presentation._cell_memo, the other cell memo, which remembers by
        # identity each cell object that passed its checks, checks each of
        # them once per presentation, and forgets them with this machine.
        self._cell_memo = {}
        # presentation.rule_relations' letter tables: the tape and state
        # letter pairs its relators take whatever the rule.  Built on first
        # use, so once per emit.
        self._relator_letters = None

    def rule_ids(self):
        return list(self.rules)

    def rule(self, rid: RuleId):
        return self.rules.get(rid.positive)

    def coords_of(self, rid):
        rule = self.rules[rid.positive]
        return (rule.src, rule.dst) if rid.sign > 0 else (rule.dst, rule.src)

    # -- applying rules --------------------------------------------------

    def _parts(self, rid, kind, j, s):
        """(left, right) tape parts the signed rule rid attaches around one
        occurrence of the signed basic letter (kind_j)^s: the pair of letter
        tuples ``Hardware.tape_word`` returns, kept as they are.

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
        if s > 0:
            hit = hw.tape_word(v, zb, rid.bar), hw.tape_word(u, za, rid.bar)
        else:
            hit = hw.tape_word(u, za, rid.bar, True), hw.tape_word(v, zb, rid.bar, True)
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
        try:
            table = self._table_of(W)
        except AdmissibleError as e:
            return None, Diagnosis("FlavorMismatch", e.clause)
        err = self._shape_error(W, rid.bar, table)
        if err is not None:
            return None, Diagnosis("FlavorMismatch", err.clause)
        src = rule.src if rid.sign > 0 else rule.dst
        if W.coord != src:
            return None, Diagnosis("CoordMismatch", f"word at {W.coord!r}, rule needs {src!r}")
        for k, (zone, fold, inner) in enumerate(zip(table.zones, table.folds, W.inners)):
            if zone.kind in rule.locks:
                if fold:
                    st, s = W.states[k]
                    return None, Diagnosis("ForbiddenSectorShape",
                                           f"fold-back at {st!r}^{s} in locked {zone!r}-zone")
                if inner:
                    return None, Diagnosis("LockedSectorNonEmpty", repr(zone))
        try:
            return self._apply(rid, W, table), None
        except AdmissibleError as e:
            return None, Diagnosis("ResultNotAdmissible", e.clause)

    def applicable(self, rid: RuleId, W: AdmissibleWord):
        """None when applicable, else a Diagnosis naming the first failure."""
        return self.step(rid, W)[1]

    def _table_of(self, W):
        """The SectorTable of W's states: the one W carries when this
        Machine's Hardware trusts W, else looked up (raising the
        AdmissibleError of invalid states)."""
        table = W._table
        if table is None or table.hw is not self.hw:
            table = self.hw.sector_table(W.states)
        return table

    def _apply(self, rid, W, table=None):
        """W o rid, validated; the checks before it are the caller's.
        ``table`` is the SectorTable of W's states when the caller has it.

        Each changed sector becomes right + inner + left, freely reduced
        once: the result holds the tuple ``free_reduce`` returns, and W's
        own tuples for the sectors the plan leaves alone.  On a trusted W
        whose flavor takes the rule's shape, what is left to check is the
        sign of the letters of a strict sector whose plan names one (see the
        module docstring): the first sector with a letter of another sign is
        the first error ``validate`` would raise, and a result without one
        is trusted.  Every other case runs the full ``validate``."""
        if table is None:
            table = self._table_of(W)
        plan = table.plans.get(rid)
        if plan is None:
            plan = table.plans[rid] = self._plan(rid, W.states)
        states, changes, out_table = plan
        fast = W._table is table and W.flavor != ("strict" if rid.bar else "bar")
        strict = fast and W.flavor == "strict"
        inners = W.inners
        if changes:
            inners = list(inners)
            for k, right, left, need in changes:
                inner = free_reduce(right + inners[k] + left)
                if strict and need is not None and any(e != need for _, e in inner):
                    raise PositivityViolation.at(states, k)
                inners[k] = inner
            inners = tuple(inners)
        out = AdmissibleWord(W.flavor, states, inners)
        if fast:
            object.__setattr__(out, "_table", out_table)
            object.__setattr__(out, "_bar_shape", rid.bar)
        else:
            self.hw.validate(out)
        return out

    def _plan(self, rid, states):
        """The step plan of rid on words with these state letters: the
        result's states tuple; (k, right, left, need) for each sector k whose
        inner word becomes right + inner + left, freely reduced (right and
        left are ``_parts`` letter tuples; the sectors not listed keep their
        inner words), where need is the sign every letter of the sector
        must have in a strict word, or None when every letter of right and
        left has it or the sector needs none; and the result's
        SectorTable."""
        rule = self.rules[rid.positive]
        dst = rule.dst if rid.sign > 0 else rule.src
        state, parts = self.hw.state, self._parts
        out = tuple((state(st.kind, st.j, dst, rid.bar), s) for st, s in states)
        out_table = self.hw.sector_table(out)
        sides = [parts(rid, st.kind, st.j, s) for st, s in states]
        changes = []
        for k, need in enumerate(out_table.signs):
            right, left = sides[k][1], sides[k + 1][0]
            if right or left:
                if need is not None and all(e == need for _, e in right + left):
                    need = None
                changes.append((k, right, left, need))
        return out, tuple(changes), out_table

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

    def applicable_rules(self, W, reach=None, back=None):
        """[(rid, W o rid)] for every signed rule rid that applies to W.

        The order is canonical: rules in the order of ``self.rules``, each
        positive rule before its inverse; the rids are exactly those whose
        ``applicable`` is None.  Only the rules whose source coordinate is
        W.coord are looked at, the plain and bar shape checks and the lock
        scan run once per W, and each result is built and validated once.

        With ``reach`` set, a rule whose target coordinate is more than
        ``reach`` steps from (e,1) (or has no path there; see
        ``distance``) is skipped before any check and never built: the
        result is the rules of the full list that lead within reach, in
        the same order.

        ``back`` is a pair (rid, word) whose word the caller vouches is
        W o rid, such as the step back to the word W was built from.  Its
        rid runs the same reach, shape and lock checks as every other rule;
        if it passes, the pair itself is listed at rid's place and W o rid
        is never built.
        """
        back_rid = None if back is None else back[0]
        shape_ok = {}
        table = self._table_of(W)
        blocked = self._blocked_kinds(W, table)
        out = []
        for rid, locks, dist in self._candidates(W.coord):
            if reach is not None and dist > reach:
                continue
            ok = shape_ok.get(rid.bar)
            if ok is None:
                ok = shape_ok[rid.bar] = self._shape_error(W, rid.bar, table) is None
            if not ok or locks & blocked:
                continue
            if rid is back_rid:
                out.append(back)
                continue
            try:
                out.append((rid, self._apply(rid, W, table)))
            except AdmissibleError:
                pass
        return out

    def beyond(self, coord, reach):
        """How many signed rules leaving ``coord`` lead to a coordinate more
        than ``reach`` steps from (e,1): those ``applicable_rules(W, reach)``
        skips for a word W at ``coord``."""
        return sum(1 for _, _, dist in self._candidates(coord) if dist > reach)

    def _candidates(self, coord):
        """(rid, locks, distance of rid's target to (e,1)) for each signed
        rule leaving ``coord``, in the canonical order."""
        if self._by_src is None:
            self._by_src = self._index_sources()
        return self._by_src.get(coord, ())

    def _distances(self):
        """Coordinate -> the fewest rule steps from it to (e,1), by a
        breadth-first search over the rules' src/dst pairs (an undirected
        graph, since every rule has its inverse).  Coordinates with no path
        to (e,1), such as (e,2) and (e,3), are left out."""
        adjacent = {}
        for rule in self.rules.values():
            adjacent.setdefault(rule.src, set()).add(rule.dst)
            adjacent.setdefault(rule.dst, set()).add(rule.src)
        start = Coord(None, 1)
        distance = {start: 0}
        queue = deque([start])
        while queue:
            coord = queue.popleft()
            for nxt in adjacent.get(coord, ()):
                if nxt not in distance:
                    distance[nxt] = distance[coord] + 1
                    queue.append(nxt)
        return distance

    def _index_sources(self):
        """Signed rules with their locks and the distance of their target
        coordinate to (e,1) (infinite when there is no path), grouped by
        source coordinate, each group in the canonical order of
        ``applicable_rules``."""
        far = float("inf")
        by_src = {}
        for rid, rule in self.rules.items():
            by_src.setdefault(rule.src, []).append(
                (rid, rule.locks, self.distance.get(rule.dst, far)))
            by_src.setdefault(rule.dst, []).append(
                (rid.inverse, rule.locks, self.distance.get(rule.src, far)))
        return by_src

    def _shape_error(self, W, bar, table):
        """The AdmissibleError of W's bar or plain shape check against W's
        SectorTable, or None.  A trusted word records the shape it passed
        when it was validated or built (``AdmissibleWord._bar_shape``), so
        for that shape its letters are not walked again; only the other
        shape of a mixed word is checked in full."""
        if W._table is table and W._bar_shape == bar:
            return None
        try:
            if bar:
                self.hw.validate_bar_shape(W, table)
            else:
                self.hw.validate_plain_shape(W, table)
        except AdmissibleError as e:
            return e
        return None

    def _blocked_kinds(self, W, table):
        """Zone kinds of the sectors of W (with SectorTable ``table``) that
        are non-empty or fold back: a rule applies only if it locks none of
        them."""
        return {zone.kind for zone, fold, inner in zip(table.zones, table.folds, W.inners)
                if fold or inner}

    # -- content-independent sector transport ----------------------------

    def sector_growth(self, sector, history):
        """Inner-part-independent growth (u, v) of a sector under a history.

        sector is a pair of signed basic letters ((z, s), (z', s')) with
        z' following z.  Returns (u, v) with  z W' z' o h  =  z1 u W' v z'1
        in the free group for every inner part W'.  Histories touching a
        rule that locks the sector's zone are rejected (the action is then
        only defined on empty inner parts).  The ``_parts`` letter tuples
        are joined along the history and each side is freely reduced once,
        into a ``Word``.
        """
        (z, s), (z2, s2) = sector
        if (z2, s2) != self.hw.succ((z, s)) and (z2, s2) != (z, -s):
            raise ValueError("not a sector shape")
        zone = self.hw.zone_after((z, s))
        u, v = (), ()
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
            u = right + u
            v = v + left
        return Word(u), Word(v)


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
    """The rules of a history text: one rule token per line, under the line
    rule of ``words.content_lines``."""
    history = []
    for lineno, line in content_lines(text.splitlines()):
        try:
            history.append(parse_rule(line))
        except TokenError as e:
            raise TokenError(f"line {lineno}: {e}") from None
    return tuple(history)


def history_text(history):
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
_PERIOD = tuple(f"({f})" for f in FAMILIES[1:])


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
