"""History generators for the standard simulation moves, plus a bounded
acceptance search.

insertion_history realizes the relator insertion/deletion on standard words:
move P to the insertion point, then cycle through the ten phases

    (1)* (12) (2)* (23) (3)* (34) (4)* (45) (5)* (51) (1)*

carrying the prefix through the K-zone, parking the suffix in the R-zone,
inserting the relator next to L, and walking everything back.  Deletion is
the formal inverse of the matching insertion.

bar_conjugated_insertion realizes w -> reduced(w u r u^-1) over the bar
machine, where the two-sided copy moves of the bar families stand in for
positivity-breaking transports.
"""

from __future__ import annotations

from collections import deque

from .hardware import AdmissibleWord, Hardware
from .smachine import Machine, Trace, inverse_history
from .words import RuleId, free_reduce

COPY_FAMILIES = ("1", "2", "3", "4", "5")


class DeriveError(ValueError):
    pass


def _check_positive(w):
    w = tuple(w)
    if any(s <= 0 for _, s in w):
        raise DeriveError("word must be positive")
    return w


def copy_history(g, word, r=None, bar=True):
    """The copy of ``word`` in the rules of family g.

    word is a sequence of (index, sign) pairs; the result applies, letter by
    letter, tau(g, r, i)^sign.  Family 1 forces the empty coordinate.
    """
    if g not in COPY_FAMILIES:
        raise DeriveError(f"family {g!r} is not a copy family")
    rc = None if g == "1" else r
    return tuple(RuleId(g, rc, i, bar, s) for i, s in word)


def insertion_history(hw: Hardware, w, pos, r, delete=False):
    """History h with Sigma(w)K1 o h = Sigma(w')K1, w' = w with the relator
    r inserted at pos (or deleted from pos, as the formal inverse)."""
    w = _check_positive(w)
    if r is None:
        raise DeriveError("insertion needs a non-empty relator")
    rel = hw.ee.relator(r)
    if delete:
        if not (0 <= pos and pos + len(rel) <= len(w)):
            raise DeriveError("deletion range out of bounds")
        if tuple(i for i, _ in w[pos:pos + len(rel)]) != rel:
            raise DeriveError(f"word does not carry r{r} at position {pos}")
        rest = w[:pos] + w[pos + len(rel):]
        return inverse_history(insertion_history(hw, rest, pos, r))
    if not 0 <= pos <= len(w):
        raise DeriveError("insertion position out of bounds")
    w1, w2 = w[:pos], w[pos:]
    w1r = w1 + tuple((a, 1) for a in rel)
    h = []
    h += [RuleId("1", None, i, False, 1) for i, _ in w1]
    h.append(RuleId("12", r, None, False, 1))
    h += [RuleId("2", r, i, False, 1) for i, _ in w1]
    h.append(RuleId("23", r, None, False, 1))
    h += [RuleId("3", r, i, False, 1) for i, _ in reversed(w2)]
    h.append(RuleId("34", r, None, False, 1))
    h += [RuleId("4", r, i, False, -1) for i, _ in reversed(w1r)]
    h.append(RuleId("45", r, None, False, 1))
    h += [RuleId("5", r, i, False, -1) for i, _ in w2]
    h.append(RuleId("51", r, None, False, 1))
    h += [RuleId("1", None, i, False, -1) for i, _ in reversed(w1r)]
    return tuple(h)


# Measured once from the choreography above: |h| = 4|w1| + 2|w2| + 2|r| + 5,
# so |h| <= LENGTH_L*(|w| + |w'|) + LENGTH_C.
LENGTH_L = 2
LENGTH_C = 5


def derivation_history(hw: Hardware, w0, steps):
    """Concatenated insertion/deletion histories for a monoid derivation.

    steps: iterable of (op, pos, r) with op in {"insert", "delete"}.
    Returns (history, final_word).
    """
    w = _check_positive(w0)
    h = []
    for op, pos, r in steps:
        rel = hw.ee.relator(r)
        if op == "insert":
            h += insertion_history(hw, w, pos, r)
            w = w[:pos] + tuple((a, 1) for a in rel) + w[pos:]
        elif op == "delete":
            h += insertion_history(hw, w, pos, r, delete=True)
            w = w[:pos] + w[pos + len(rel):]
        else:
            raise DeriveError(f"unknown step {op!r}")
    return tuple(h), w


def _inv_letters(word):
    return tuple((i, -s) for i, s in word)


def _rev(word):
    return tuple(reversed(word))


def bar_conjugated_insertion(hw: Hardware, w, u, r):
    """History h over the bar machine with
    barSigma(w)K1 o h = barSigma(w')K1 and w' = reduce(w u r u^-1)."""
    if r is None:
        raise DeriveError("conjugated insertion needs a relator index")
    rel = tuple((a, 1) for a in hw.ee.relator(r))
    w, u = free_reduce(w), free_reduce(u)
    p = free_reduce(w + u)           # parked prefix w u
    q = free_reduce(p + rel)         # w u r
    h = []
    h += copy_history("1", p)                       # L <- p, P <- u^-1
    h.append(RuleId("12", r, None, True, 1))
    h += copy_history("2", p, r)                    # K <- p, L empty
    h.append(RuleId("23", r, None, True, 1))
    h += copy_history("3", _inv_letters(u), r)      # P empty, R <- u^-1
    h.append(RuleId("34", r, None, True, 1))        # K <- p r
    h += copy_history("4", _inv_letters(_rev(q)), r)  # K empty, L <- q
    h.append(RuleId("45", r, None, True, 1))
    h += copy_history("5", _rev(u), r)              # R empty, P <- u^-1
    h.append(RuleId("51", r, None, True, 1))
    h += copy_history("1", _inv_letters(_rev(q)))   # L empty, P <- q u^-1
    return tuple(h)


# ---------------------------------------------------------------------------
# Bounded acceptance search
# ---------------------------------------------------------------------------

def is_accept_target(hw: Hardware, W: AdmissibleWord):
    """True iff W is graphically Sigma(v)^s K1(e,1) for some word v, s >= 1
    (bar shape allowed: block 1 carries no tape letters)."""
    from .words import Coord
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
        zone = hw.zone_after((st.base, sg))
        if zone.kind != "P":
            if len(inner):
                return False
            continue
        content = inner if sg > 0 else inner.inverse()
        got = tuple((t.i, e) for t, e in content)
        if zone.j == 1 and not got:
            continue  # bar shape
        if ref is None:
            ref = got
        elif got != ref:
            return False
    return True


def accept_bfs(machine: Machine, W: AdmissibleWord, max_steps, stats=None):
    """Deterministic breadth-first search for an accepting computation.

    Explores applicable rules in the machine's canonical order up to depth
    max_steps, deduplicating on the words themselves (all of the machine's
    flavor, so equal words are equal texts); returns the first trace
    reaching a Sigma(v)^s K1 word, or None.

    When ``stats`` is a dict, the search writes into it on return: the
    nodes ``expanded`` (their applicable rules listed), the words
    ``generated`` by those rules, the ``dedup_hits`` among them, the size of
    ``seen`` and why it stopped (``stop``): ``"accepted"``, ``"depth"``
    (some node sat at max_steps and was not expanded) or ``"exhausted"``
    (the frontier emptied below the limit).  A negative max_steps is a
    ValueError."""
    if max_steps < 0:
        raise ValueError(f"max_steps must be at least 0, got {max_steps}")
    hw = machine.hw
    expanded = generated = dedup_hits = 0
    cut = False
    seen = {W: (None, None)}

    def done(trace):
        if stats is not None:
            stop = "accepted" if trace is not None else "depth" if cut else "exhausted"
            stats.update(expanded=expanded, generated=generated, dedup_hits=dedup_hits,
                         seen=len(seen), stop=stop)
        return trace

    if is_accept_target(hw, W):
        return done(Trace((), (W,), None))
    frontier = deque([(W, 0)])
    while frontier:
        cur, depth = frontier.popleft()
        if depth >= max_steps:
            cut = True
            continue
        expanded += 1
        pairs = machine.applicable_rules(cur)
        generated += len(pairs)
        for rid, nxt in pairs:
            size = len(seen)
            seen.setdefault(nxt, (cur, rid))  # one hash of nxt, new or not
            if len(seen) == size:
                dedup_hits += 1
                continue
            if is_accept_target(hw, nxt):
                h = []
                k = nxt
                while seen[k][0] is not None:
                    k, rid2 = seen[k]
                    h.append(rid2)
                h.reverse()
                return done(machine.run(W, tuple(h)))
            frontier.append((nxt, depth + 1))
    return done(None)
