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

from .hardware import COORD_E1, AdmissibleWord, Hardware
from .smachine import Machine, Trace, inverse_history
from .words import AGE_FAMILIES, EMPTY_RELATOR_FAMILIES, FAMILIES, RuleId, free_reduce


class DeriveError(ValueError):
    pass


def _check_word(hw, w, positive=False):
    """w as a tuple, once every letter names a generator of hw's
    presentation (and, with ``positive``, has sign +1)."""
    w = tuple(w)
    mbar = hw.ee.mbar
    for i, s in w:
        if not 1 <= i <= mbar:
            raise DeriveError(f"a{i} names no generator (mbar = {mbar})")
        if positive and s <= 0:
            raise DeriveError("word must be positive")
    return w


def copy_history(g, word, r=None, bar=True):
    """The copy of ``word`` in the rules of family g.

    word is a sequence of (index, sign) pairs; the result applies, letter by
    letter, tau(g, r, i)^sign.  Family 1 forces the empty coordinate.
    """
    if g not in AGE_FAMILIES:
        raise DeriveError(f"family {g!r} is not a copy family")
    rc = None if g in EMPTY_RELATOR_FAMILIES else r
    return tuple(RuleId(g, rc, i, bar, s) for i, s in word)


def _cycle(r, bar, *ages):
    """One walk round the ten-phase cycle: the copies (``copy_history``) of
    the six words ``ages`` in the families 1, 2, 3, 4, 5, 1 of FAMILIES,
    joined by its five transitions, all at relator r."""
    h = []
    for k, word in enumerate(ages):
        if k:
            h.append(RuleId(FAMILIES[2 * k - 1], r, None, bar))
        h += copy_history(FAMILIES[2 * k % len(FAMILIES)], word, r, bar)
    return tuple(h)


def _inv_letters(word):
    return tuple((i, -s) for i, s in word)


def _rev(word):
    return tuple(reversed(word))


def insertion_history(hw: Hardware, w, pos, r, delete=False):
    """History h with Sigma(w)K1 o h = Sigma(w')K1, w' = w with the relator
    r inserted at pos (or deleted from pos, as the formal inverse)."""
    w = _check_word(hw, w, positive=True)
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
    back = _inv_letters(_rev(w1 + tuple((a, 1) for a in rel)))
    return _cycle(r, False, w1, w1, _rev(w2), back, _inv_letters(w2), back)


# Measured once from the choreography above: |h| = 4|w1| + 2|w2| + 2|r| + 5,
# so |h| <= LENGTH_L*(|w| + |w'|) + LENGTH_C.
LENGTH_L = 2
LENGTH_C = 5


def derivation_history(hw: Hardware, w0, steps):
    """Concatenated insertion/deletion histories for a monoid derivation.

    steps: iterable of (op, pos, r) with op in {"insert", "delete"}.
    Returns (history, final_word).
    """
    w = _check_word(hw, w0, positive=True)
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


def bar_conjugated_insertion(hw: Hardware, w, u, r):
    """History h over the bar machine with
    barSigma(w)K1 o h = barSigma(w')K1 and w' = reduce(w u r u^-1)."""
    if r is None:
        raise DeriveError("conjugated insertion needs a relator index")
    w, u = free_reduce(_check_word(hw, w)), free_reduce(_check_word(hw, u))
    rel = tuple((a, 1) for a in hw.ee.relator(r))
    p = free_reduce(w + u)           # parked prefix w u
    q = free_reduce(p + rel)         # w u r
    return _cycle(r, True,
                  p,                          # (1): L <- p, P <- u^-1
                  p,                          # (12), (2): K <- p, L empty
                  _inv_letters(u),            # (23), (3): P empty, R <- u^-1
                  _inv_letters(_rev(q)),      # (34): K <- p r; (4): K empty, L <- q
                  _rev(u),                    # (45), (5): R empty, P <- u^-1
                  _inv_letters(_rev(q)))      # (51), (1): L empty, P <- q u^-1


# ---------------------------------------------------------------------------
# Bounded acceptance search
# ---------------------------------------------------------------------------

def is_accept_target(hw: Hardware, W: AdmissibleWord):
    """True iff W is graphically Sigma(v)^s K1(e,1) for some word v, s >= 1
    (bar shape allowed: block 1 carries no tape letters).

    Once the signed base is Sigma^s K1(e,1), sector k follows the letter
    ``hw.sigma[k % 4N]``, so it sits in the zone ``hw.zones[k % 4N]``."""
    if W.coord != COORD_E1:
        return False
    n = len(hw.sigma)
    sb = W.signed_base()
    if len(sb) < n + 1 or (len(sb) - 1) % n:
        return False
    s = (len(sb) - 1) // n
    sigma = hw.sigma * s
    if sb != sigma + hw.sigma[:1]:
        return False
    ref = None
    for (_, sg), zone, inner in zip(sigma, hw.zones * s, W.inners):
        if zone.kind != "P":
            if inner:
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


def accept_bfs(machine: Machine, W: AdmissibleWord, max_steps, stats=None, max_nodes=None):
    """Deterministic breadth-first search for an accepting computation.

    Explores applicable rules in the machine's canonical order up to depth
    max_steps, deduplicating on the words themselves (all of the machine's
    flavor, so equal words are equal texts); returns the first trace
    reaching a Sigma(v)^s K1 word, or None.

    A target sits at (e,1), so a node at depth d expands with
    ``reach = max_steps - d - 1``: ``applicable_rules`` builds only the
    words whose coordinate is at most that many steps from (e,1)
    (``Machine.distance``).  No word it skips could reach a target in the
    steps left, and the words it builds come in the order of the full
    search, so the returned trace is the one the unpruned search returns.

    Each word is built once.  A frontier entry carries the step back to the
    word it was built from, and ``applicable_rules`` lists that pair at its
    rule's place instead of rebuilding the parent, which is counted in
    ``generated`` and ``dedup_hits`` like any word seen before.  The trace
    holds the words the search built, read back along ``seen``, with no
    replay.

    When ``stats`` is a dict, the search writes into it on return: the
    nodes ``expanded`` (their applicable rules listed), the words
    ``generated`` by those rules, the ``dedup_hits`` among them, the
    candidate rules ``pruned`` (not tried, their target coordinate being
    out of reach), the size of ``seen`` and why it stopped (``stop``):
    ``"accepted"``, ``"depth"`` (some node sat at max_steps and was not
    expanded, or some rule was pruned), ``"exhausted"`` (the frontier
    emptied below the limit) or ``"budget"`` (``seen`` grew past
    ``max_nodes`` words; None, the default, sets no budget).  Pruned words
    are never built, so ``seen`` is ``1 + generated - dedup_hits`` unless
    the search was accepted or over budget.  A negative max_steps or a
    max_nodes below 1 is a ValueError."""
    if max_steps < 0:
        raise ValueError(f"max_steps must be at least 0, got {max_steps}")
    if max_nodes is not None and max_nodes < 1:
        raise ValueError(f"max_nodes must be at least 1, got {max_nodes}")
    hw = machine.hw
    expanded = generated = dedup_hits = pruned = 0
    cut = over = False
    seen = {W: (None, None)}

    def done(trace):
        if stats is not None:
            stop = ("accepted" if trace is not None else "budget" if over
                    else "depth" if cut or pruned else "exhausted")
            stats.update(expanded=expanded, generated=generated, dedup_hits=dedup_hits,
                         pruned=pruned, seen=len(seen), stop=stop)
        return trace

    if is_accept_target(hw, W):
        return done(Trace((), (W,), None))
    frontier = deque([(W, 0, None)])
    while frontier:
        cur, depth, back = frontier.popleft()
        if depth >= max_steps:
            cut = True
            continue
        expanded += 1
        reach = max_steps - depth - 1
        if stats is not None:  # only the stats read the count
            pruned += machine.beyond(cur.coord, reach)
        pairs = machine.applicable_rules(cur, reach, back)
        generated += len(pairs)
        for rid, nxt in pairs:
            size = len(seen)
            seen.setdefault(nxt, (cur, rid))  # one hash of nxt, new or not
            if len(seen) == size:
                dedup_hits += 1
                continue
            if is_accept_target(hw, nxt):
                h, words = [], [nxt]
                k = nxt
                while seen[k][0] is not None:
                    k, rid2 = seen[k]
                    h.append(rid2)
                    words.append(k)
                return done(Trace(tuple(reversed(h)), tuple(reversed(words)), None))
            if max_nodes is not None and len(seen) > max_nodes:
                over = True
                return done(None)
            frontier.append((nxt, depth + 1, (rid.inverse, cur)))
    return done(None)
