"""Command-line front end.

Exit codes: 0 = success / positive answer, 1 = negative answer (rule not
applicable, no pairing, not conjugate, search exhausted or over its node
budget), 2 = input or usage error, 141 = stdout closed by its reader
(``smkit present ... | head``), with nothing printed, as for a writer that
SIGPIPE killed.  Word/history arguments accept either inline tokens or a
path to a file holding them.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import hardware
from .bands import theta_band, trapezium, band_text, trapezium_text, verify
from .derive import (
    DeriveError, accept_bfs, bar_conjugated_insertion, derivation_history,
    insertion_history,
)
from .h2 import x_words_conjugate
from .presentation import Presentation, emit, rule_relations, write_presentation
from .smachine import (
    Machine, NotApplicable, brief_history, is_historical_form, parse_history,
    history_text,
)
from .words import (
    FAMILIES, CyclicWord, TokenError, content_lines, parse_generators, parse_relator_name,
    parse_rule, parse_word, word_to_text,
)


def _slurp(value):
    if value is not None and os.path.exists(value):
        with open(value, encoding="utf-8") as f:
            return f.read()
    return value


def _int_at_least(low):
    """argparse type: an integer no smaller than ``low``.  Named ``int``, so
    argparse reports a non-integer as ``invalid int value``."""
    def parse(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    parse.__name__ = "int"
    return parse


def _load_hw(args):
    ee = hardware.load_ee_file(args.ee)
    return hardware.Hardware(ee, args.n)


def _known_rules(machine, history):
    """history, once every rule in it is a rule of machine; an unknown rule
    is an input error."""
    for rid in history:
        if machine.rule(rid) is None:
            raise ValueError(f"unknown rule {rid!r} for the {machine.flavor} machine")
    return history


def _machine_word(hw, args, flavor):
    text = _slurp(args.word)
    return hw.parse_admissible(parse_word(text, reduce=False), flavor)


def cmd_present(args):
    hw = _load_hw(args)
    pres = emit(hw, label=os.path.basename(args.ee))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            write_presentation(pres, f)
    else:
        write_presentation(pres, sys.stdout)
    if args.stats:
        for kind, count in pres.stats().items():
            print(f"{kind}: {count}", file=sys.stderr)
    return 0


def cmd_run(args):
    hw = _load_hw(args)
    machine = Machine(hw, args.flavor)
    W = _machine_word(hw, args, args.flavor)
    h = _known_rules(machine, parse_history(_slurp(args.history)))
    trace = machine.run(W, h)
    for k, word in enumerate(trace.words):
        print(f"{k}: {word.text()}")
    if not trace.ok:
        k, diag = trace.failure
        print(f"step {k} failed: {diag}", file=sys.stderr)
        return 1
    return 0


def cmd_derive_insert(args):
    """A bar history appends the conjugate u r u^-1 to the word, so --delete
    and --pos apply only to plain histories and --conjugator only to bar
    ones; an option that does not apply is a usage error."""
    if args.bar and args.delete:
        raise ValueError("--delete does not apply with --bar")
    if args.bar and args.pos is not None:
        raise ValueError("--pos does not apply with --bar")
    if not args.bar and args.conjugator is not None:
        raise ValueError("--conjugator applies only with --bar")
    hw = _load_hw(args)
    w = parse_generators(_slurp(args.word) or "")
    r = parse_relator_name(args.relator)
    if args.bar:
        u = parse_generators(_slurp(args.conjugator) or "")
        h = bar_conjugated_insertion(hw, w, u, r)
        machine = Machine(hw, "bar")
        W0 = hw.sigma_w(w, flavor="bar")
    else:
        h = insertion_history(hw, w, args.pos or 0, r, delete=args.delete)
        machine = Machine(hw, "strict")
        W0 = hw.sigma_w(w)
    print(history_text(h))
    if args.verify:
        trace = machine.run(W0, h)
        for k, word in enumerate(trace.words):
            print(f"{k}: {word.text()}", file=sys.stderr)
        if not trace.ok:
            print(f"verification failed: {trace.failure}", file=sys.stderr)
            return 1
    return 0


def cmd_derive_chain(args):
    hw = _load_hw(args)
    w = parse_generators(_slurp(args.word) or "")
    steps = []
    for lineno, line in content_lines(_slurp(args.steps).splitlines()):
        try:
            op, pos, r = line.split()
            if op not in ("insert", "delete"):
                raise ValueError
            steps.append((op, int(pos), parse_relator_name(r)))
        except TokenError as e:
            raise TokenError(f"steps line {lineno}: {e}") from None
        except ValueError:
            raise ValueError(f"steps line {lineno}: expected 'insert|delete <pos> "
                             f"<relator>', got {line!r}") from None
    h, final = derivation_history(hw, w, steps)
    print(history_text(h))
    if args.verify:
        machine = Machine(hw, "strict")
        trace = machine.run(hw.sigma_w(w), h)
        ok = trace.ok and trace.final == hw.sigma_w(final)
        print(f"final word: {' '.join(f'a{i}' for i, _ in final)}", file=sys.stderr)
        if not ok:
            print("verification failed", file=sys.stderr)
            return 1
    return 0


def cmd_accept(args):
    hw = _load_hw(args)
    machine = Machine(hw, args.flavor)
    W = _machine_word(hw, args, args.flavor)
    stats = {}
    trace = accept_bfs(machine, W, args.max_steps, stats, args.max_nodes)
    if trace is None:
        print(f"no accepting computation found ({stats['stop']}; "
              f"{stats['expanded']} nodes expanded)", file=sys.stderr)
        return 1
    print(history_text(trace.history))
    print(f"accepted: {trace.final.text()}", file=sys.stderr)
    return 0


def _rules_presentation(machine, history):
    """The relations of the positive rules of history.  A cell of a band of
    rule tau carries tau's theta letters, so no other relator can match it:
    checked against these, a band or trapezium over history gets the same
    report as against the whole presentation."""
    rids = dict.fromkeys(rid.positive for rid in history)
    return Presentation(machine.hw.N, "", tuple(
        rel for rid in rids for rel in rule_relations(machine, rid)))


def cmd_band(args):
    hw = _load_hw(args)
    machine = Machine(hw, "mixed")
    W = _machine_word(hw, args, "mixed")
    (rid,) = _known_rules(machine, (parse_rule(args.rule),))
    band = theta_band(None, machine, W, rid)
    print(band_text(band))
    return _verified(band, machine, (rid,)) if args.verify else 0


def cmd_trapezium(args):
    hw = _load_hw(args)
    machine = Machine(hw, "mixed")
    W = _machine_word(hw, args, "mixed")
    h = _known_rules(machine, parse_history(_slurp(args.history)))
    trap = trapezium(None, machine, W, h)
    print(trapezium_text(trap))
    return _verified(trap, machine, h) if args.verify else 0


def _verified(obj, machine, history):
    """``--verify``'s exit code for a band or trapezium over history: 1 when
    ``verify`` against the relations of history's rules reports anything,
    each line printed to stderr as ``violation: <line>``, else 0."""
    report = verify(obj, _rules_presentation(machine, history), machine)
    for line in report:
        print(f"violation: {line}", file=sys.stderr)
    return 1 if report else 0


def cmd_dyck(args):
    from .words import enumerate_pairings, find_minus_pairing, is_dyck
    w = CyclicWord(parse_word(_slurp(args.word), reduce=False).letters)
    if not is_dyck(w):
        print("not a Dyck word", file=sys.stderr)
        return 1
    print(f"canonical: {word_to_text(w)}")
    if args.minus:
        pairing = find_minus_pairing(w)
        if pairing is None:
            print("no minus pairing", file=sys.stderr)
            return 1
        print(f"minus pairing: {sorted(pairing.pairs)}")
        return 0
    pairings = enumerate_pairings(w, args.limit)
    for k, pairing in enumerate(pairings):
        print(f"{k}: {sorted(pairing.pairs)}")
    return 0 if pairings else 1


def cmd_brief(args):
    h = parse_history(_slurp(args.history))
    b = brief_history(h)
    print("".join(b))
    print(f"historical form: {is_historical_form(b)}", file=sys.stderr)
    return 0


def cmd_xconj(args):
    hw = _load_hw(args)
    from .words import cyclic_reduce
    w1 = cyclic_reduce(parse_word(_slurp(args.w1)))[1]
    w2 = cyclic_reduce(parse_word(_slurp(args.w2)))[1]
    flag, witness = x_words_conjugate(hw, w1, w2)
    if flag:
        print(f"conjugate: {witness}")
        return 0
    print("not conjugate")
    return 1


def cmd_stats(args):
    hw = _load_hw(args)
    ee = hw.ee
    from .smachine import enumerate_rule_ids
    rids = enumerate_rule_ids(ee)
    per = {}
    for rid in rids:
        per[rid.family] = per.get(rid.family, 0) + 1
    print(f"generators: {ee.mbar} (m = {ee.m})")
    print(f"relators: {len(ee.relators)} (max length {ee.c})")
    print(f"N: {hw.N}, base letters: {len(hw.sigma)}, zones: {len(hw.sigma)}")
    print(f"positive rules: {len(rids)}")
    for fam in FAMILIES:
        print(f"  t{fam}: {per.get(fam, 0)}")
    return 0


def build_parser():
    p = argparse.ArgumentParser(prog="smkit", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--ee", required=True, help="presentation file")
        sp.add_argument("--n", type=int, default=8, help="block count (even, >= 8)")

    sp = sub.add_parser("present", help="compile the machine into relators")
    common(sp)
    sp.add_argument("--out")
    sp.add_argument("--stats", action="store_true")
    sp.set_defaults(fn=cmd_present)

    sp = sub.add_parser("run", help="run a history on an admissible word")
    common(sp)
    sp.add_argument("--word", required=True)
    sp.add_argument("--history", required=True)
    sp.add_argument("--flavor", choices=("strict", "bar", "mixed"), default="strict")
    sp.set_defaults(fn=cmd_run)

    dp = sub.add_parser("derive", help="generate simulation histories")
    dsub = dp.add_subparsers(dest="derive_command", required=True)
    sp = dsub.add_parser("insert", help="relator insertion/deletion history")
    common(sp)
    sp.add_argument("--word", default="")
    sp.add_argument("--pos", type=int, help="position in the word (default 0; not with --bar)")
    sp.add_argument("--relator", required=True)
    sp.add_argument("--delete", action="store_true", help="delete the relator (not with --bar)")
    sp.add_argument("--bar", action="store_true")
    sp.add_argument("--conjugator", help="bar insertion's conjugating word (only with --bar)")
    sp.add_argument("--verify", action="store_true")
    sp.set_defaults(fn=cmd_derive_insert)
    sp = dsub.add_parser("chain", help="history for a sequence of steps")
    common(sp)
    sp.add_argument("--word", default="")
    sp.add_argument("--steps", required=True,
                    help="lines: insert|delete <pos> <relator>")
    sp.add_argument("--verify", action="store_true")
    sp.set_defaults(fn=cmd_derive_chain)

    sp = sub.add_parser("accept", help="bounded search for an accepting run")
    common(sp)
    sp.add_argument("--word", required=True)
    sp.add_argument("--max-steps", type=_int_at_least(0), required=True)
    sp.add_argument("--max-nodes", type=_int_at_least(1), default=1_000_000,
                    help="stop once the search has seen more words than this "
                         "(default: %(default)s, about 0.5 GB)")
    sp.add_argument("--flavor", choices=("strict", "bar", "mixed"), default="strict")
    sp.set_defaults(fn=cmd_accept)

    sp = sub.add_parser("band", help="build and check one theta band")
    common(sp)
    sp.add_argument("--word", required=True)
    sp.add_argument("--rule", required=True)
    sp.add_argument("--verify", action="store_true")
    sp.set_defaults(fn=cmd_band)

    sp = sub.add_parser("trapezium", help="build and check a trapezium")
    common(sp)
    sp.add_argument("--word", required=True)
    sp.add_argument("--history", required=True)
    sp.add_argument("--verify", action="store_true")
    sp.set_defaults(fn=cmd_trapezium)

    sp = sub.add_parser("dyck", help="pairings of a cyclic Dyck word")
    sp.add_argument("--word", required=True)
    sp.add_argument("--minus", action="store_true")
    sp.add_argument("--limit", type=_int_at_least(1))
    sp.set_defaults(fn=cmd_dyck)

    sp = sub.add_parser("brief", help="brief history of a rule sequence")
    sp.add_argument("--history", required=True)
    sp.set_defaults(fn=cmd_brief)

    sp = sub.add_parser("xconj", help="conjugacy of cyclic x-words")
    common(sp)
    sp.add_argument("--w1", required=True)
    sp.add_argument("--w2", required=True)
    sp.set_defaults(fn=cmd_xconj)

    sp = sub.add_parser("stats", help="machine summary for a presentation")
    common(sp)
    sp.set_defaults(fn=cmd_stats)
    return p


def main(argv=None):
    p = build_parser()
    args = p.parse_args(argv)
    try:
        return args.fn(args)
    except NotApplicable as e:
        print(f"not applicable: {e}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The reader of stdout has gone (`smkit present ... | head`).  Send
        # what is still buffered to the null device, so the interpreter's
        # last flush is silent, and exit as SIGPIPE would have.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except (TokenError, DeriveError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
