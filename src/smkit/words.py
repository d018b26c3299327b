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

Structured symbols are interned: each class keeps one pool, and calling the
constructor with fields equal to an earlier call's returns that same
object, so equal symbols are identical and compare by identity.  The
presentation of the simulating group has tens of thousands of relators over
a few thousand distinct letters, and a symbol nests others (an X holds a
Tape holding a BaseLetter, and a RuleId), so without interning every hash,
comparison and sort key would walk the nesting again.  Each symbol computes
at construction, once: its hash (that of its field tuple, as for a frozen
dataclass), its ``symbol_key``, its text token and, for a State, its
``base`` letter.  The pools live as long as the process and hold one entry
per distinct symbol ever built.

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
from functools import total_ordering
from itertools import islice

KINDS = "KLPR"
FAMILIES = ("1", "12", "2", "23", "3", "34", "4", "45", "5", "51")
TRANSITION_FAMILIES = frozenset(("12", "23", "34", "45", "51"))
AGE_FAMILIES = frozenset(("1", "2", "3", "4", "5"))


class TokenError(ValueError):
    """Raised when a word / rule token does not match the grammar."""


class _Symbol:
    """Base of the interned structured symbols.

    Each subclass keeps a ``_pool`` from field tuples to symbols; its
    ``__new__`` returns the pooled symbol when there is one and otherwise
    builds it with ``_build`` and pools it.  Equal symbols are therefore
    identical and compare by identity (``object.__eq__``).  The hash is that
    of the field tuple, computed once; ``_token`` is the text token (also
    the repr).
    """

    __slots__ = ("_hash", "_token")
    _fields = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return self._token

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self._fields)


def _build(cls, fields, token, **derived):
    """A new, not yet pooled symbol of ``cls`` with ``fields``.

    Each constructor pools it with one ``dict.setdefault`` once every check
    has passed, so a rejected symbol is never pooled, and when two threads
    build the same symbol at once both get the one that went in first."""
    self = object.__new__(cls)
    for name, value in zip(cls._fields, fields):
        object.__setattr__(self, name, value)
    for name, value in derived.items():
        object.__setattr__(self, name, value)
    object.__setattr__(self, "_hash", hash(fields))
    object.__setattr__(self, "_token", token)
    return self


@total_ordering
class BaseLetter(_Symbol):
    __slots__ = ("kind", "j")
    _fields = ("kind", "j")
    _pool = {}

    def __new__(cls, kind, j):
        fields = (kind, j)
        self = cls._pool.get(fields)
        if self is None:
            self = cls._pool.setdefault(fields, _build(cls, fields, f"{kind}{j}"))
        return self

    def __lt__(self, other):
        if not isinstance(other, BaseLetter):
            return NotImplemented
        return (self.kind, self.j) < (other.kind, other.j)


class Coord(_Symbol):
    __slots__ = ("r", "omega")  # r: None = empty relator, else 1-based index into Ē\{∅}
    _fields = ("r", "omega")
    _pool = {}

    def __new__(cls, r, omega):
        fields = (r, omega)
        self = cls._pool.get(fields)
        if self is None:
            token = f"({coord_token(r)},{omega})"
            self = cls._pool.setdefault(fields, _build(cls, fields, token))
        return self


class RuleId(_Symbol):
    """Name of a signed rule.  ``positive`` (the same rule with sign +1) is
    stored at construction; ``_rkey`` is its part of the symbol order."""

    __slots__ = ("family", "r", "i", "bar", "sign", "positive", "_rkey")
    _fields = ("family", "r", "i", "bar", "sign")
    _pool = {}

    def __new__(cls, family, r, i, bar=False, sign=1):
        fields = (family, r, i, bar, sign)
        self = cls._pool.get(fields)
        if self is None:
            if family not in FAMILIES:
                raise TokenError(f"unknown rule family {family!r}")
            body = f"{coord_token(r)},{i}" if family in AGE_FAMILIES else coord_token(r)
            token = f"{'~' if bar else ''}t{family}({body}){'^-1' if sign < 0 else ''}"
            rkey = (bar, FAMILIES.index(family), -1 if r is None else r,
                    -1 if i is None else i, sign)
            self = _build(cls, fields, token, _rkey=rkey)
            positive = self if sign == 1 else cls(family, r, i, bar, 1)
            object.__setattr__(self, "positive", positive)
            self = cls._pool.setdefault(fields, self)
        return self

    @property
    def inverse(self):
        return RuleId(self.family, self.r, self.i, self.bar, -self.sign)


class _Letter(_Symbol):
    """A structured symbol that can be a word letter; ``_key`` is its
    ``symbol_key``."""

    __slots__ = ("_key",)


class Tape(_Letter):
    __slots__ = ("i", "zone", "bar")
    _fields = ("i", "zone", "bar")
    _pool = {}

    def __new__(cls, i, zone, bar=False):
        fields = (i, zone, bar)
        self = cls._pool.get(fields)
        if self is None:
            token = f"{'~' if bar else ''}a{i}({zone._token})"
            key = (1, bar, KINDS.index(zone.kind), zone.j, i)
            self = cls._pool.setdefault(fields, _build(cls, fields, token, _key=key))
        return self


class State(_Letter):
    """State letter; ``base`` is its unsigned basic letter, built once."""

    __slots__ = ("kind", "j", "coord", "bar", "base")
    _fields = ("kind", "j", "coord", "bar")
    _pool = {}

    def __new__(cls, kind, j, coord, bar=False):
        fields = (kind, j, coord, bar)
        self = cls._pool.get(fields)
        if self is None:
            token = f"{'~' if bar else ''}{kind}{j}{coord._token}"
            key = (2, bar, KINDS.index(kind), j,
                   -1 if coord.r is None else coord.r, coord.omega)
            self = cls._pool.setdefault(fields, _build(
                cls, fields, token, base=BaseLetter(kind, j), _key=key))
        return self


class Theta(_Letter):
    __slots__ = ("rule", "zone")  # rule: positive, sign +1
    _fields = ("rule", "zone")
    _pool = {}

    def __new__(cls, rule, zone):
        fields = (rule, zone)
        self = cls._pool.get(fields)
        if self is None:
            token = f"th({rule._token},{zone._token})"
            key = (3, rule._rkey, KINDS.index(zone.kind), zone.j)
            self = cls._pool.setdefault(fields, _build(cls, fields, token, _key=key))
        return self

    @property
    def bar(self):
        return self.rule.bar


class X(_Letter):
    __slots__ = ("tape", "rule")  # tape: non-bar, non-P zone; rule: positive, non-bar
    _fields = ("tape", "rule")
    _pool = {}

    def __new__(cls, tape, rule):
        fields = (tape, rule)
        self = cls._pool.get(fields)
        if self is None:
            token = f"x({tape._token},{rule._token})"
            key = (4, tape._key, rule._rkey)
            self = cls._pool.setdefault(fields, _build(cls, fields, token, _key=key))
        return self


def symbol_key(sym):
    """Total order on symbols: kind tag, bar, indices; stable across runs."""
    if isinstance(sym, str):
        return (0, sym)
    if isinstance(sym, _Letter):
        return sym._key
    raise TypeError(f"not a word symbol: {sym!r}")


def letter_key(letter):
    sym, sign = letter
    return (sym._key if isinstance(sym, _Letter) else symbol_key(sym),
            0 if sign > 0 else 1)


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

    def __reduce__(self):
        return Word, (self.letters, False)

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

_new_object = object.__new__
_set_letters = Word.__dict__["letters"].__set__


def reduced_word(letters):
    """The Word over ``letters``, a tuple the caller knows to be freely
    reduced: built without a copy, a check or a call of ``__init__``."""
    w = _new_object(Word)
    _set_letters(w, letters)
    return w


def wletter(sym, sign=1):
    return Word(((sym, sign),), reduce=False)


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


def _bracket_scan(opens):
    """Stack matching of a cyclic bracket word, or None if it is unbalanced.

    ``opens[p]`` says whether position p opens a bracket; every other
    position closes one.  The scan cuts after the first position of least
    running depth.  When the total depth is 0, the depth read from that cut
    never drops below 0, so every close pops an open and the stack ends
    empty.  Returns ``(pairs, parent)``: the (open, close) pairs in the
    order they close, and for each open position the open that was on top
    of the stack when it was pushed (-1 for none; unused at closes).
    """
    n = len(opens)
    depth = low = cut = 0
    for p in range(n):
        depth += 1 if opens[p] else -1
        if depth < low:
            low, cut = depth, p + 1
    if depth:
        return None
    pairs, parent, stack = [], [-1] * n, []
    for p in range(cut, cut + n):
        p %= n
        if opens[p]:
            parent[p] = stack[-1] if stack else -1
            stack.append(p)
        else:
            pairs.append((stack.pop(), p))
    return pairs, parent


def _nesting(n, oriented_pairs):
    """Parent table for oriented pairs, or None if the nesting is inconsistent.

    A valid cancellation scheme has, for each pair, all other pairs either
    completely inside its clockwise open..close arc or completely outside,
    and the insides ordered by containment.  Then no arc covers a cut of
    least bracket depth, and the bracket scan pops each pair's own open at
    its close; the parent is the pair whose open was below it on the stack.
    Pairs oriented at min/max position always pass with the cut before 0.
    """
    opens = [False] * n
    pair_at = [0] * n
    for k, (o, c) in enumerate(oriented_pairs):
        opens[o] = True
        pair_at[o] = pair_at[c] = k
    pairs, parent = _bracket_scan(opens)
    if any(pair_at[o] != pair_at[c] for o, c in pairs):
        return None
    return tuple(-1 if parent[o] < 0 else pair_at[parent[o]] for o, _ in oriented_pairs)


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


def enumerate_pairings(w: CyclicWord, limit=None):
    """Distinct cancellation pairings of ``w`` in leftmost-first DFS order,
    at most ``limit`` of them (all when ``limit`` is None).

    Pairings are identified with their (unoriented) non-crossing matchings;
    each is returned with the canonical orientation induced by cutting the
    canonical rotation before position 0.  A non-Dyck word yields [].
    Raises ValueError for a negative ``limit``.
    """
    if limit is not None and limit < 0:
        raise ValueError(f"pairing limit must be >= 0, got {limit}")
    if not is_dyck(w):
        return []
    n = len(w)
    out = []
    for matching in islice(_matchings(w.letters, list(range(n))), limit):
        oriented = _canonical_orientation(n, matching)
        out.append(DyckPairing(w, oriented, _nesting(n, oriented)))
    return out


def find_minus_pairing(w: CyclicWord):
    """The minus pairing of ``w``: the pairing all of whose pairs read
    (z^-1, z), or None when ``w`` has none.

    The minus condition fixes every bracket: a negative letter opens a pair
    and a positive letter closes one.  A consistent nesting of pairs of a
    cyclic bracket word is the stack matching from a cut of least depth, and
    that matching depends only on the brackets, so the minus pairing is
    forced and unique when it exists, and one bracket scan finds it.  It
    exists iff the scan balances and every pair it pops reads z^-1 ... z
    with the same symbol z.  Such a matching pairs inverse letters without
    crossings, so ``w`` is then a Dyck word.
    """
    letters = w.letters
    scan = _bracket_scan([sign < 0 for _, sign in letters])
    if scan is None:
        return None
    pairs, parent = scan
    if any(letters[o][0] != letters[c][0] for o, c in pairs):
        return None
    pairs.sort()
    index = {o: k for k, (o, _) in enumerate(pairs)}
    return DyckPairing(w, tuple(pairs), tuple(index.get(parent[o], -1) for o, _ in pairs))


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
    return rule._token


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
    if isinstance(sym, str):
        tok = sym
    elif isinstance(sym, _Symbol):
        tok = sym._token
    else:
        tok = repr(sym)
    return tok + "^-1" if sign < 0 else tok


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
