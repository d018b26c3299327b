"""smkit benchmark: one workload, one process, one closed-loop client.

Run from the repository root:

    python3 perfbench/run.py --workload verify --seed 1 --seconds 10 --trace 0

The library is imported from src/ of the checkout this file sits in.  The
run builds its inputs from --seed, sets up the program several times
(setup_s is the median), then runs the number of whole passes of ops whose
time comes closest to --seconds, checking every result against its known
answer.  Times are scaled to a reference host speed measured alongside the
ops (speed.py).  The last line of stdout is one JSON object: correct,
attempted, failed, metrics.

--trace 0 reports the end-to-end metrics of BENCHMARK.json.  --trace 1 does
the same untraced loop, then sets up once more and replays the first passes
twice, plain and with spans around the library's public functions, calls
each CLI command once in a subprocess, and reports the per-layer metrics
(plus the tracing overhead); the spans go to .bench_out/ under the checkout.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import traceback
from array import array
from time import perf_counter

from speed import Speedometer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")
CLI_TIMEOUT_S = 150


class SetupTimer:
    """setup_s samples: ``wl.setup_samples`` of them, each the mean scaled
    time of the set-ups made for it in ``wl.setup_rounds`` rounds.  A round
    makes one set-up per sample.  The first round runs before the ops and
    returns the context they use; the others run between ops, spread over
    the run in proportion to the op time spent, so the set-ups see the same
    stretches of the run as the ops do."""

    def __init__(self, wl, seconds, meter):
        self.wl = wl
        self.seconds = seconds
        self.meter = meter
        self.spans = [[] for _ in range(wl.setup_samples)]
        self.rounds = 0

    def round(self):
        ctx = None
        gc.collect()
        for spans in self.spans:
            ctx = None
            mark = self.meter.mark()
            ctx = self.wl.setup()
            spans.append(self.meter.span(mark))
        self.rounds += 1
        gc.collect()
        return ctx

    def between_ops(self, busy):
        due = 1 + (self.wl.setup_rounds - 1) * min(busy / self.seconds, 1.0)
        while self.rounds < min(int(due), self.wl.setup_rounds):
            self.round()

    def finish(self):
        while self.rounds < self.wl.setup_rounds:
            self.round()

    def samples(self):
        """Per sample, the mean of its set-up times, scaled (speed.py)."""
        return [statistics.fmean(net * self.meter.scale(t0, t1) for t0, t1, net in spans)
                for spans in self.spans]


class Ops:
    """The timed ops of a run: start, end and net time of each (speed.py)."""

    def __init__(self):
        self.start = array("d")
        self.end = array("d")
        self.net = array("d")

    def __len__(self):
        return len(self.net)

    def add(self, span):
        t0, t1, net = span
        self.start.append(t0)
        self.end.append(t1)
        self.net.append(net)

    def scaled(self, meter):
        return [net * meter.scale(t0, t1)
                for t0, t1, net in zip(self.start, self.end, self.net)]


def run_passes(wl, ctx, passes, seconds, min_passes, meter, between_ops=None):
    """Closed loop over whole passes: at least ``min_passes``, and as many
    as bring the scaled time spent in ops closest to ``seconds`` (stop once
    less than half a mean pass is left), so the number of passes does not
    follow the host's speed.  ``between_ops(busy)`` is called after each op
    with the op time so far.  Returns (ops, failed, number of
    passes, the first ``min_passes`` passes)."""
    ops = Ops()
    failed = 0
    done = 0
    kept = []  # only these: memory held for every pass would grow with the op count
    busy = 0.0
    for batch in passes:
        for item in batch:
            mark = meter.mark()
            try:
                result = wl.op(ctx, item)
            except Exception:
                ops.add(meter.span(mark))
                busy += ops.net[-1] * meter.recent_scale()
                traceback.print_exc()
                failed += 1
                if between_ops is not None:
                    between_ops(busy)
                continue
            ops.add(meter.span(mark))
            busy += ops.net[-1] * meter.recent_scale()
            if not wl.check(ctx, item, result):
                print(f"wrong answer: {wl.name} {item!r:.200}", file=sys.stderr)
                failed += 1
            result = None  # let a large result (a presentation) go before the next op
            if between_ops is not None:
                between_ops(busy)
        done += 1
        if len(kept) < min_passes:
            kept.append(batch)
        if done >= min_passes and busy + busy / done / 2 >= seconds:
            break
    return ops, failed, done, kept


def end_to_end(setup_times, latencies, attempted, failed, peak_rss_kb):
    """``setup_times`` and ``latencies`` in seconds, scaled (speed.py)."""
    lat_ms = sorted(x * 1000.0 for x in latencies)
    return {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_ms": statistics.median(lat_ms),
        "op_p90_ms": statistics.quantiles(lat_ms, n=10, method="inclusive")[8],
        "ok_ratio": 1.0 - failed / attempted,
        "peak_rss_mb": peak_rss_kb / 1024.0,
    }


def replay(wl, ctx, passes, meter):
    """Set up once more and run ``passes`` again.  Returns (set-up span,
    ops, failed); scale them with ``scaled_wall`` once ``meter`` stops."""
    mark = meter.mark()
    ctx.update(wl.setup())
    setup_span = meter.span(mark)
    ops, failed, _, _ = run_passes(wl, ctx, iter(passes), 0.0, len(passes), meter)
    return setup_span, ops, failed


def scaled_wall(meter, setup_span, ops):
    t0, t1, net = setup_span
    return net * meter.scale(t0, t1) + sum(ops.scaled(meter))


def run_cli(rng, golden):
    """Each CLI command once, in a subprocess, on seeded files.  Returns
    ({metric: seconds}, failures)."""
    from workloads import cli_inputs

    d = os.path.join(OUT, "cli")
    os.makedirs(d, exist_ok=True)
    files = {}
    for key, text in cli_inputs(ROOT, rng).items():
        files[key] = os.path.join(d, key + ".txt")
        with open(files[key], "w", encoding="utf-8") as f:
            f.write(text + "\n")
    with open(files["band_rule"], encoding="utf-8") as f:
        rule = f.read().strip()
    ee = os.path.join(ROOT, "tests", "data", "sample.ee")
    present_out = os.path.join(d, "present.txt")
    calls = {
        "cli.present_s": ["present", "--ee", ee, "--n", "8", "--out", present_out],
        "cli.band_s": ["band", "--ee", ee, "--word", files["band_word"], "--rule", rule,
                       "--verify"],
        "cli.trapezium_s": ["trapezium", "--ee", ee, "--word", files["trap_word"],
                            "--history", files["trap_history"], "--verify"],
        "cli.accept_s": ["accept", "--ee", ee, "--word", files["accept_word"],
                         "--max-steps", "4"],
    }
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    times, failures = {}, 0
    for metric, argv in calls.items():
        t0 = perf_counter()
        try:
            proc = subprocess.run([sys.executable, "-m", "smkit.cli"] + argv, cwd=ROOT, env=env,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                  timeout=CLI_TIMEOUT_S)
            code = proc.returncode
        except subprocess.TimeoutExpired:
            code = None
        times[metric] = perf_counter() - t0
        ok = code == 0
        if ok and metric == "cli.present_s":
            ok = present_matches_golden(present_out, golden)
        if not ok:
            print(f"CLI {argv[0]} failed: exit {code}", file=sys.stderr)
            failures += 1
    return times, failures


def present_matches_golden(path, golden):
    """`smkit present` writes the file name into the header; with the
    header of the library's default label the text must hash to the golden
    digest."""
    with open(path, encoding="utf-8") as f:
        lines = f.read().split("\n")
    if len(lines) < 2 or not lines[1].startswith("ee-file: "):
        return False
    lines[1] = "ee-file: -"
    text = "\n".join(lines)
    return (hashlib.sha256(text.encode()).hexdigest() == golden["sha256"]
            and text.count("\n") == golden["lines"])


def per_layer(tracer, cli_times, overhead_s):
    s = tracer.summary()
    counts = tracer.counts

    def calls(name):
        return s[name]["calls"] if name in s else 0

    def total(name):
        return s[name]["total_s"] if name in s else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    cells = counts.get("bands.cells", 0)
    nodes = calls("smachine.applicable_rules")  # only accept_bfs expands nodes
    m = {
        "presentation.emit_s": total("presentation.emit"),
        "presentation.normalize_relator.calls": calls("presentation.normalize_relator"),
        "presentation.normalize_relator_s": total("presentation.normalize_relator"),
        "presentation.write_s": total("presentation.write"),
        "presentation.relators": counts.get("presentation.relators", 0),
        "presentation.text_bytes": counts.get("presentation.text_bytes", 0),
        "presentation.index.calls": calls("presentation.index"),
        "presentation.index_s": total("presentation.index"),
        "words.cyclic_reduce.calls": calls("words.cyclic_reduce"),
        "words.cyclic_reduce_s": total("words.cyclic_reduce"),
        "words.enumerate_pairings_s": total("words.enumerate_pairings"),
        "words.find_minus_pairing_s": total("words.find_minus_pairing"),
        "words.pairings": counts.get("words.pairings", 0),
        "hardware.validate.calls": calls("hardware.validate"),
        "hardware.validate_s": total("hardware.validate"),
        "smachine.applicable.calls": calls("smachine.applicable"),
        "smachine.applicable_s": total("smachine.applicable"),
        "smachine.applicable.accept_ratio": ratio(counts.get("smachine.applicable.accepted", 0),
                                                  calls("smachine.applicable")),
        "smachine.apply.calls": calls("smachine.apply"),
        "smachine.apply_s": total("smachine.apply"),
        "smachine.run_s": total("smachine.run"),
        "derive.accept_bfs_self_s": s["derive.accept_bfs"]["self_s"]
        if "derive.accept_bfs" in s else 0.0,
        "derive.bfs_nodes": nodes,
        "derive.bfs_nodes_per_s": ratio(nodes, total("derive.accept_bfs")),
        "bands.theta_band_s": total("bands.theta_band"),
        "bands.verify_band.calls": calls("bands.verify_band"),
        "bands.verify_band_s": total("bands.verify_band"),
        "bands.cells_per_s": ratio(cells, total("bands.verify_band")),
        "h2.x_words_conjugate.calls": calls("h2.x_words_conjugate"),
        "h2.x_words_conjugate_s": total("h2.x_words_conjugate"),
        "trace.overhead_s": overhead_s,
        "trace.spans": len(tracer.start),
    }
    m.update(cli_times)
    return m


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "smkit", "__init__.py")):
        print(f"perfbench: no smkit sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from tracing import Tracer
    from workloads import WORKLOADS, load_golden

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload](ROOT)
    rng = random.Random(args.seed)

    meter = Speedometer()
    meter.start()
    try:
        setup = SetupTimer(wl, args.seconds, meter)
        ctx = setup.round()
        passes = wl.inputs(ctx, rng)
        min_passes = wl.trace_passes if args.trace else 1
        ops, failed, done, kept = run_passes(wl, ctx, passes, args.seconds, min_passes,
                                             meter, setup.between_ops)
        setup.finish()
    finally:
        meter.stop()
    # Read before the latencies are post-processed: lists of them grow with
    # the op count, which moves with the host's speed.
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    attempted = len(ops)
    print(f"{wl.name}: {attempted} ops in {done} passes, {sum(ops.net):.3f} s busy, "
          f"{failed} failed, {len(meter.took)} reference samples of "
          f"{meter.mean_reference_s() * 1000:.3f} ms", file=sys.stderr)

    if not args.trace:
        metrics = end_to_end(setup.samples(), ops.scaled(meter), attempted, failed,
                             peak_rss_kb)
        declared = spec["end_to_end"]
    else:
        # The overhead compares the same set-up and passes run twice more,
        # without and with the spans, in scaled time (speed.py); the spans
        # read a clock that stands still while the reference runs.
        meter.start()
        try:
            untraced_setup, untraced, untraced_failed = replay(wl, ctx, kept, meter)
            tracer = Tracer(meter.net_clock)
            tracer.install()
            try:
                traced_setup, traced, traced_failed = replay(wl, ctx, kept, meter)
            finally:
                tracer.uninstall()
        finally:
            meter.stop()
        untraced_wall = scaled_wall(meter, untraced_setup, untraced)
        traced_wall = scaled_wall(meter, traced_setup, traced)
        cli_times, cli_failed = run_cli(rng, load_golden(ROOT))
        attempted += len(untraced) + len(traced) + len(cli_times)
        failed += untraced_failed + traced_failed + cli_failed
        metrics = per_layer(tracer, cli_times, traced_wall - untraced_wall)
        metrics["bench.reference_ms"] = meter.mean_reference_s() * 1000.0
        declared = spec["per_layer"]
        tracer.write(OUT, f"trace-{wl.name}", {
            "workload": wl.name, "seed": args.seed, "traced_ops": len(traced),
            "traced_wall_s": traced_wall, "untraced_wall_s": untraced_wall,
        })

    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(metrics):
        raise SystemExit(f"perfbench: metrics {sorted(set(units) ^ set(metrics))} "
                         "disagree with BENCHMARK.json")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
