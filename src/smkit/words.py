"""Free-group words and cyclic words over the machine alphabets.

Letters are pairs (symbol, sign).  Symbols are either plain strings (used by
the generic cyclic-word / pairing tools) or one of the structured symbol
kinds below:

    BaseLetter  -- unsigned basic letter z_j, z in {K,L,P,R}; doubles as the
                   name of the tape zone sitting next to it (see hardware).
    Coord       -- (r, omega) coordinate pair carried by state letters.
    RuleId      -- name of a machine rule; also usable as a history letter.
    Tape        -- tape letter a_i(zone), optionally barred.
    State       -- state letter z_j(r, omega), optionally barred.
    Theta       -- theta letter th(rule, zone).
    X           -- letter x(a_i(zone), rule).

The text grammar (one token per letter, whitespace separated, optional
``^-1`` suffix):

    tape   := ["~"] "a" INT "(" ZONE ")"          a3(L2), ~a1(P4)
    state  := ["~"] ZONE "(" COORD "," INT ")"    K1(e,1), ~P3(r2,4)
    theta  := "th(" RULE "," ZONE ")"
    xlet   := "x(" tape "," RULE ")"
    ZONE   := ("K"|"L"|"P"|"R") INT
    COORD  := "e" | "r" INT
    RULE   := ["~"] "t" FAMILY "(" args ")",  FAMILY in
              {1,12,2,23,3,34,4,45,5,51}; e.g. t1(e,3), t34(r2), ~t2(r1,4)

Tokens without parentheses are plain symbols (the Dyck tools use those).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

KINDS = "KLPR"
FAMILIES = ("1", "12", "2", "23", "3", "34", "4", "45", "5", "51")
TRANSITION_FAMILIES = frozenset(("12", "23", "34", "45", "51"))
AGE_FAMILIES = frozenset(("1", "2", "3", "4", "5"))


class TokenError(ValueError):
    """Raised when a word / rule token does not match the grammar."""


@dataclass(frozen=True, order=True)
class BaseLetter:
    kind: str
    j: int

    def __repr__(self):
        return f"{self.kind}{self.j}"


@dataclass(frozen=True)
class Coord:
    r: Optional[int]  # None = empty relator, else 1-based index into Ē\{∅}
    omega: int

    def __repr__(self):
        return f"({coord_token(self.r)},{self.omega})"


@dataclass(frozen=True)
class RuleId:
    family: str
    r: Optional[int]
    i: Optional[int]
    bar: bool = False
    sign: int = 1

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise TokenError(f"unknown rule family {self.family!r}")

    @property
    def positive(self):
        return RuleId(self.family, self.r, self.i, self.bar, 1)

    @property
    def inverse(self):
        return RuleId(self.family, self.r, self.i, self.bar, -self.sign)

    def __repr__(self):
        return rule_token(self)


@dataclass(frozen=True)
class Tape:
    i: int
    zone: BaseLetter
    bar: bool = False

    def __repr__(self):
        return f"{'~' if self.bar else ''}a{self.i}({self.zone!r})"


@dataclass(frozen=True)
class State:
    kind: str
    j: int
    coord: Coord
    bar: bool = False

    @property
    def base(self):
        return BaseLetter(self.kind, self.j)

    def __repr__(self):
        return f"{'~' if self.bar else ''}{self.kind}{self.j}{self.coord!r}"


@dataclass(frozen=True)
class Theta:
    rule: RuleId  # positive, sign +1
    zone: BaseLetter

    @property
    def bar(self):
        return self.rule.bar

    def __repr__(self):
        return f"th({self.rule!r},{self.zone!r})"


@dataclass(frozen=True)
class X:
    tape: Tape  # non-bar, non-P zone
    rule: RuleId  # positive, non-bar

    def __repr__(self):
        return f"x({self.tape!r},{self.rule!r})"


def _rule_key(rule):
    return (rule.bar, FAMILIES.index(rule.family), -1 if rule.r is None else rule.r,
            -1 if rule.i is None else rule.i, rule.sign)


@lru_cache(maxsize=None)
def symbol_key(sym):
    """Total order on symbols: kind tag, bar, indices; stable across runs."""
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


def letter_key(letter):
    sym, sign = letter
    return (symbol_key(sym), 0 if sign > 0 else 1)


def free_reduce(letters):
    """Freely reduce a sequence of (symbol, sign) pairs."""
    out = []
    for sym, sign in letters:
        if out and out[-1][0] == sym and out[-1][1] == -sign:
            out.pop()
        else:
            out.append((sym, sign))
    return tuple(out)


class Word:
    """Immutable freely reduced word: a tuple of (symbol, sign) letters."""

    __slots__ = ("letters",)

    def __init__(self, letters=(), reduce=True):
        letters = tuple(letters)
        object.__setattr__(self, "letters", free_reduce(letters) if reduce else letters)

    def __setattr__(self, *a):
        raise AttributeError("Word is immutable")

    def __len__(self):
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __getitem__(self, idx):
        got = self.letters[idx]
        return Word(got, reduce=False) if isinstance(idx, slice) else got

    def __eq__(self, other):
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self):
        return hash(self.letters)

    def __mul__(self, other):
        return Word(self.letters + other.letters)

    def inverse(self):
        return Word(tuple((s, -e) for s, e in reversed(self.letters)), reduce=False)

    def __repr__(self):
        return f"Word({word_to_text(self)!r})"

    def is_empty(self):
        return not self.letters

    def project(self, keep):
        """Projection: drop letters whose symbol fails the ``keep`` predicate."""
        return Word(l for l in self.letters if keep(l[0]))


EMPTY = Word()


def wletter(sym, sign=1):
    return Word(((sym, sign),), reduce=False)


def word_from(symbols):
    return Word((s, 1) for s in symbols)


def is_positive(w):
    """True iff every letter of ``w`` has sign +1 (vacuous for the empty word)."""
    return all(sign > 0 for _, sign in w)


def is_reduced(letters):
    return tuple(letters) == free_reduce(letters)


def least_rotation(keys):
    """Index of the lexicographically least rotation of a key sequence
    (Booth's algorithm)."""
    n = len(keys)
    if n == 0:
        return 0
    keys = keys * 2
    f = [-1] * (2 * n)
    k = 0
    for j in range(1, 2 * n):
        sj = keys[j]
        i = f[j - k - 1]
        while i != -1 and sj != keys[k + i + 1]:
            if sj < keys[k + i + 1]:
                k = j - i - 1
            i = f[i]
        if sj != keys[k + i + 1]:
            if sj < keys[k]:
                k = j
            f[j - k] = -1
        else:
            f[j - k] = i + 1
    return k


def _canonical_rotation(letters):
    """Index of the least rotation of ``letters`` under ``letter_key``."""
    return least_rotation([letter_key(l) for l in letters])


def conjugator_length(letters):
    """Largest i such that letters[:i] is the inverse of letters[-i:] and at
    least one letter is left between them (none when len(letters) == 2i)."""
    i, j = 0, len(letters)
    while j - i >= 2 and letters[i][0] == letters[j - 1][0] \
            and letters[i][1] == -letters[j - 1][1]:
        i += 1
        j -= 1
    return i


def cyclic_reduce(w):
    """Split w = conjugator * core * conjugator^-1 with core cyclically
    reduced and in canonical rotation.  Returns (conjugator, core)."""
    letters = w.letters
    i = conjugator_length(letters)
    core = letters[i:len(letters) - i]
    k = _canonical_rotation(core)
    return (Word(letters[:i] + core[:k], reduce=False),
            CyclicWord._rotated(core[k:] + core[:k]))


class CyclicWord:
    """Cyclic word stored in its canonical rotation (lexicographically least
    under ``letter_key``).  Letters are kept as given: Dyck words are
    cyclically trivial, so reduction is never implicit; ``cyclic_reduce``
    produces cyclically reduced cores."""

    __slots__ = ("letters",)

    def __init__(self, letters):
        letters = tuple(letters)
        k = _canonical_rotation(letters)
        letters = letters[k:] + letters[:k]
        object.__setattr__(self, "letters", letters)

    @classmethod
    def _rotated(cls, letters):
        """A CyclicWord from a tuple already in canonical rotation; skips
        the Booth pass of ``__init__``."""
        self = object.__new__(cls)
        object.__setattr__(self, "letters", letters)
        return self

    def __setattr__(self, *a):
        raise AttributeError("CyclicWord is immutable")

    def __len__(self):
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __getitem__(self, i):
        return self.letters[i % len(self.letters)]

    def __eq__(self, other):
        return isinstance(other, CyclicWord) and self.letters == other.letters

    def __hash__(self):
        return hash(self.letters)

    def __repr__(self):
        return f"CyclicWord({word_to_text(self)!r})"

    def rotations(self):
        n = len(self.letters)
        for k in range(n):
            yield self.letters[k:] + self.letters[:k]

    def word(self):
        return Word(self.letters, reduce=False)


def is_dyck(w: CyclicWord):
    """A Dyck word is a cyclically freely trivial word."""
    letters = free_reduce(w.letters)
    return 2 * conjugator_length(letters) == len(letters)


# ---------------------------------------------------------------------------
# Dyck pairings
# ---------------------------------------------------------------------------

class PairingError(ValueError):
    pass


@dataclass(frozen=True)
class DyckPairing:
    """Cancellation pairing of a cyclic Dyck word.

    ``pairs`` are oriented: (open_pos, close_pos), the inside being the
    clockwise arc open..close.  ``parents`` maps a pair to the innermost pair
    containing it (None for roots); together with ``pairs`` this is the
    nesting forest.
    """

    word: CyclicWord
    pairs: tuple
    parents: tuple  # parent index per pair, -1 for roots

    def matching(self):
        return frozenset(frozenset(p) for p in self.pairs)

    def pair_of(self, pos):
        for p in self.pairs:
            if pos in p:
                return p
        raise PairingError(f"position {pos} not paired")

    def ancestors(self, pair):
        try:
            idx = self.pairs.index(tuple(pair))
        except ValueError:
            raise PairingError(f"pair {pair} not in pairing")
        out = []
        k = self.parents[idx]
        while k >= 0:
            out.append(self.pairs[k])
            k = self.parents[k]
        return out


def _nesting(n, oriented_pairs):
    """Parent table for oriented pairs, or None if the nesting is inconsistent.

    A valid cancellation scheme has, for each pair, all other pairs either
    completely inside its clockwise open..close arc or completely outside,
    and the insides ordered by containment.  Then no arc covers a cut of
    least bracket depth, and reading the brackets from there every close
    meets its own open on top of the stack, whose next entry is the parent.
    Pairs oriented at min/max position always pass with the cut before 0.
    """
    event = [None] * n
    for k, (o, c) in enumerate(oriented_pairs):
        event[o] = (k, True)
        event[c] = (k, False)
    depth = low = cut = 0
    for p in range(n):
        depth += 1 if event[p][1] else -1
        if depth < low:
            low, cut = depth, p + 1
    parents = [-1] * len(oriented_pairs)
    stack = []
    for p in range(cut, cut + n):
        k, opens = event[p % n]
        if opens:
            parents[k] = stack[-1] if stack else -1
            stack.append(k)
        elif not stack or stack.pop() != k:
            return None
    return tuple(parents)


def _matchings(word, positions):
    """All non-crossing inverse-letter perfect matchings of ``positions``.

    ``positions`` is a list of word positions describing an arc; leftmost
    position is matched first, scanning partners left to right.
    """
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


def _canonical_orientation(n, matching):
    """Orient pairs by the cut before position 0: open at min, close at max."""
    return tuple(sorted((min(p, q), max(p, q)) for p, q in matching))


def _make_pairing(word, oriented):
    parents = _nesting(len(word), oriented)
    if parents is None:
        return None
    return DyckPairing(word, oriented, parents)


def enumerate_pairings(w: CyclicWord, limit=None):
    """Distinct cancellation pairings of ``w`` in leftmost-first DFS order.

    Pairings are identified with their (unoriented) non-crossing matchings;
    each is returned with the canonical orientation induced by cutting the
    canonical rotation before position 0.  A non-Dyck word yields [].
    """
    if len(w) == 0:
        return [DyckPairing(w, (), ())]
    if len(w) % 2 or not is_dyck(w):
        return []
    out = []
    for matching in _matchings(w.letters, list(range(len(w)))):
        pairing = _make_pairing(w, _canonical_orientation(len(w), matching))
        if pairing is not None:
            out.append(pairing)
            if limit is not None and len(out) >= limit:
                break
    return out


def find_minus_pairing(w: CyclicWord):
    """First pairing (enumeration order) all of whose pairs read (z^-1, z).

    The minus condition forces each pair's orientation: open at the negative
    letter.  Absent when no matching admits a consistent nesting.
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
        pairing = _make_pairing(w, tuple(sorted(oriented)))
        if pairing is not None:
            return pairing
    return None


def classify_pair(w: CyclicWord, pairing: DyckPairing, pair):
    """Classify ``pair`` as (minus|plus, normal|abnormal).

    minus: reads (z^-1, z) from its open position.  normal: every containing
    pair consists of occurrences of the same letter as this pair.
    """
    pair = tuple(pair)
    if pair not in pairing.pairs:
        if (pair[1], pair[0]) in pairing.pairs:
            pair = (pair[1], pair[0])
        else:
            raise PairingError(f"pair {pair} not in pairing")
    open_pos, _ = pair
    shape = "minus" if w[open_pos][1] < 0 else "plus"
    sym = w[open_pos][0]
    normal = all(w[anc[0]][0] == sym for anc in pairing.ancestors(pair))
    return shape, "normal" if normal else "abnormal"


# ---------------------------------------------------------------------------
# Token grammar
# ---------------------------------------------------------------------------

_PLAIN_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*$")
_ZONE_RE = re.compile(r"([KLPR])(\d+)$")
_TAPE_RE = re.compile(r"(~?)a(\d+)\(([KLPR]\d+)\)$")
_STATE_RE = re.compile(r"(~?)([KLPR])(\d+)\((e|r\d+),(\d+)\)$")
_RULE_RE = re.compile(r"(~?)t(1|12|2|23|3|34|4|45|5|51)\(([^()]*)\)$")


def coord_token(r):
    return "e" if r is None else f"r{r}"


def _parse_coord_token(tok):
    if tok == "e":
        return None
    if tok.startswith("r") and tok[1:].isdigit():
        return int(tok[1:])
    raise TokenError(f"bad coordinate {tok!r}")


def parse_zone(tok):
    m = _ZONE_RE.match(tok)
    if not m:
        raise TokenError(f"bad zone {tok!r}")
    return BaseLetter(m.group(1), int(m.group(2)))


def rule_token(rule):
    bar = "~" if rule.bar else ""
    if rule.family in AGE_FAMILIES:
        body = f"{coord_token(rule.r)},{rule.i}"
    else:
        body = coord_token(rule.r)
    suffix = "^-1" if rule.sign < 0 else ""
    return f"{bar}t{rule.family}({body}){suffix}"


def parse_rule(tok):
    tok = tok.strip()
    sign = 1
    if tok.endswith("^-1"):
        sign, tok = -1, tok[:-3]
    m = _RULE_RE.match(tok)
    if not m:
        raise TokenError(f"bad rule token {tok!r}")
    bar, family, args = m.group(1) == "~", m.group(2), m.group(3)
    parts = [p.strip() for p in args.split(",")] if args.strip() else []
    if family in AGE_FAMILIES:
        if len(parts) != 2:
            raise TokenError(f"rule {tok!r}: family {family} needs (coord,i)")
        r, i = _parse_coord_token(parts[0]), int(parts[1])
    else:
        if len(parts) != 1:
            raise TokenError(f"rule {tok!r}: family {family} needs (coord)")
        r, i = _parse_coord_token(parts[0]), None
    if family == "1" and r is not None:
        raise TokenError(f"rule {tok!r}: family 1 carries the empty coordinate")
    if family in ("12", "34") and r is None:
        raise TokenError(f"rule {tok!r}: family {family} needs a non-empty relator")
    return RuleId(family, r, i, bar, sign)


def _split_args(body):
    """Split on top-level commas of a parenthesised argument list."""
    parts, depth, cur = [], 0, []
    for ch in body:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


def symbol_token(sym, sign=1):
    suffix = "^-1" if sign < 0 else ""
    if isinstance(sym, str):
        return sym + suffix
    return repr(sym) + suffix


def parse_symbol(tok):
    """Parse one token into (symbol, sign)."""
    tok = tok.strip()
    sign = 1
    if tok.endswith("^-1"):
        sign, tok = -1, tok[:-3]
    if "(" not in tok:
        if not _PLAIN_RE.match(tok):
            raise TokenError(f"bad token {tok!r}")
        return tok, sign
    m = _TAPE_RE.match(tok)
    if m:
        return Tape(int(m.group(2)), parse_zone(m.group(3)), m.group(1) == "~"), sign
    m = _STATE_RE.match(tok)
    if m:
        coord = Coord(_parse_coord_token(m.group(4)), int(m.group(5)))
        return State(m.group(2), int(m.group(3)), coord, m.group(1) == "~"), sign
    if tok.startswith("th(") and tok.endswith(")"):
        parts = _split_args(tok[3:-1])
        if len(parts) != 2:
            raise TokenError(f"bad theta token {tok!r}")
        rule = parse_rule(parts[0])
        if rule.sign < 0:
            raise TokenError(f"theta token {tok!r}: rule must be positive")
        return Theta(rule, parse_zone(parts[1])), sign
    if tok.startswith("x(") and tok.endswith(")"):
        parts = _split_args(tok[2:-1])
        if len(parts) != 2:
            raise TokenError(f"bad x token {tok!r}")
        tape, tsign = parse_symbol(parts[0])
        if not isinstance(tape, Tape) or tsign < 0 or tape.bar:
            raise TokenError(f"bad x token {tok!r}: needs a positive plain tape letter")
        if tape.zone.kind == "P":
            raise TokenError(f"bad x token {tok!r}: no x letters over P zones")
        rule = parse_rule(parts[1])
        if rule.bar or rule.sign < 0:
            raise TokenError(f"bad x token {tok!r}: rule must be positive and plain")
        return X(tape, rule), sign
    raise TokenError(f"bad token {tok!r}")


def parse_word(text, reduce=True):
    return Word((parse_symbol(tok) for tok in text.split()), reduce=reduce)


def word_to_text(w):
    return " ".join(symbol_token(sym, sign) for sym, sign in w)
