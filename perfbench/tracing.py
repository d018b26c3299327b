"""Spans around the library's public functions, for the traced run only.

``Tracer.install`` replaces each function listed in ``_target_list`` on its module
or class with a wrapper that records one span (name, start, end, parent)
and, for a few functions, a count taken from the arguments or the result.
``uninstall`` puts the originals back.  Spans stay in memory, in flat
arrays, until ``write`` stores them; self times and the per-layer metrics
are computed from them afterwards.
"""

from __future__ import annotations

import json
import os
from array import array
from time import perf_counter


def _target_list():
    from smkit import bands, derive, h2, hardware, presentation, smachine, words

    # (owner, attribute, span name); normalize_relator is imported into
    # bands by name, so both bindings are wrapped under one span name.
    return [
        (presentation, "emit", "presentation.emit"),
        (presentation, "write_presentation", "presentation.write"),
        (presentation, "normalize_relator", "presentation.normalize_relator"),
        (bands, "normalize_relator", "presentation.normalize_relator"),
        (presentation.Presentation, "index", "presentation.index"),
        (words, "cyclic_reduce", "words.cyclic_reduce"),
        (words, "enumerate_pairings", "words.enumerate_pairings"),
        (words, "find_minus_pairing", "words.find_minus_pairing"),
        (hardware.Hardware, "validate", "hardware.validate"),
        (smachine.Machine, "applicable", "smachine.applicable"),
        (smachine.Machine, "_apply", "smachine.apply"),
        (smachine.Machine, "applicable_rules", "smachine.applicable_rules"),
        (smachine.Machine, "run", "smachine.run"),
        (derive, "accept_bfs", "derive.accept_bfs"),
        (bands, "theta_band", "bands.theta_band"),
        (bands, "verify_band", "bands.verify_band"),
        (h2, "x_words_conjugate", "h2.x_words_conjugate"),
    ]


class Tracer:
    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.names = []
        self._name_ids = {}
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.outermost = array("b")  # 0 when a span of the same name is open above it
        self._open = []  # open spans per name id
        self.counts = {}
        self._stack = []
        self._saved = []

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self._open.append(0)
        return self._name_ids[name]

    def _count(self, key, n):
        self.counts[key] = self.counts.get(key, 0) + n

    def _hooks(self):
        """Counts taken at the boundary: name -> f(args, result)."""
        def applicable(args, result):
            self._count("smachine.applicable.accepted", result is None)

        def pairings(args, result):
            self._count("words.pairings", len(result))

        def cells(args, result):
            self._count("bands.cells", len(args[0].cells))

        def relators(args, result):
            self._count("presentation.relators", len(result.relations))

        def text_bytes(args, result):
            self._count("presentation.text_bytes", args[1].tell())  # a fresh StringIO

        return {
            "presentation.emit": relators,
            "presentation.write": text_bytes,
            "smachine.applicable": applicable,
            "words.enumerate_pairings": pairings,
            "bands.verify_band": cells,
        }

    def wrap(self, name, fn, hook=None):
        nid = self._name_id(name)
        stack = self._stack
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        outermost, open_ = self.outermost, self._open
        clock = self.clock

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            outermost.append(open_[nid] == 0)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            open_[nid] += 1
            starts[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                open_[nid] -= 1
                stack.pop()
            if hook is not None:
                hook(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        hooks = self._hooks()
        for owner, attr, name in _target_list():
            fn = owner.__dict__[attr]
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self.wrap(name, fn, hooks.get(name)))

    def uninstall(self):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved = []

    # -- analysis ---------------------------------------------------------

    def summary(self):
        """Per span name: calls, total time of outermost spans (recursion
        counted once) and self time (duration minus direct children)."""
        n = len(self.start)
        child = [0.0] * n
        for k in range(n):
            p = self.parent[k]
            if p >= 0:
                child[p] += self.end[k] - self.start[k]
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        for k in range(n):
            rec = out[self.names[self.name[k]]]
            dur = self.end[k] - self.start[k]
            rec["calls"] += 1
            rec["self_s"] += dur - child[k]
            if self.outermost[k]:
                rec["total_s"] += dur
        return out

    def write(self, directory, stem, extra):
        """Spans as raw arrays in native byte order, plus a JSON index that
        describes the layout and holds the summary."""
        os.makedirs(directory, exist_ok=True)
        bin_path = os.path.join(directory, stem + ".spans")
        with open(bin_path, "wb") as f:
            for arr in (self.name, self.parent, self.start, self.end, self.outermost):
                arr.tofile(f)
        index = {
            "spans": len(self.start),
            "names": self.names,
            "layout": [["name", "i", self.name.itemsize], ["parent", "q", 8],
                       ["start_s", "d", 8], ["end_s", "d", 8], ["outermost", "b", 1]],
            "summary": self.summary(),
            "counts": self.counts,
        }
        index.update(extra)
        with open(os.path.join(directory, stem + ".json"), "w", encoding="utf-8") as f:
            json.dump(index, f, indent=1, sort_keys=True)
            f.write("\n")
