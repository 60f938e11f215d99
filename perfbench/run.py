"""Benchmark of permdec's cycle-decision stack.

    python3 perfbench/run.py --workload cd2cf --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout: permdec is imported from its
``src`` directory, never from an installed copy.  One workload runs in this
one single-threaded process:

1. set-up: import permdec and load the workload's inputs with
   ``permdec.serialize`` (timed from the process's start; each part is
   scaled to reference seconds by a yardstick read around it);
2. whole rounds of the workload's fixed op list until ``--seconds`` have
   passed; every round starts from freshly loaded expressions (reloading
   is not timed), so cache filling is part of the work, and every answer is
   checked against the benchmark's own oracle.  Op times are read against
   a yardstick of fixed work run between the ops, and given in reference
   seconds (see ``YARDSTICKS``); ``ops_per_s`` and ``op_p99_ms`` take the
   median of the rounds' figures;
3. with ``--trace 0``: one more round with ``_decide``/``fwd``/``bwd``
   counted, and the end-to-end metrics; with ``--trace 1``: the rounds run
   under the layer tracer instead, the per-layer metrics are printed and
   the layer spans written to ``perfbench/results/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import time

_START_WALL = time.perf_counter()
_START_CPU = time.process_time()  # interpreter start-up before this line

import argparse
import json
import math
import os
import resource
import statistics
import sys
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import workloads as wl  # noqa: E402
import tracer as tr  # noqa: E402

ROUND_ERRORS_SHOWN = 3


class SetupError(Exception):
    """The checkout holds no permdec sources to benchmark."""


def import_permdec():
    if not os.path.isfile(os.path.join(SRC, "permdec", "__init__.py")):
        raise SetupError(f"no permdec package under {SRC}")
    sys.path.insert(0, SRC)
    import permdec
    if os.path.dirname(os.path.abspath(permdec.__file__)) != os.path.join(SRC, "permdec"):
        raise SetupError(f"imported permdec from {permdec.__file__}, not from {SRC}")
    import permdec.serialize
    return permdec


def load_inputs(pd, plan: wl.Plan) -> dict:
    return {name: pd.serialize.loads(text) for name, text in plan.texts.items()}


# The host's speed moves by up to ~2x within seconds (README, "Host
# speed").  So op times are read against a yardstick run between the ops: a
# slice of fixed work of the benchmark's own, of the kind the workload's ops
# mostly do.  Times are reported in reference seconds, the seconds they
# would take on a host that runs the slice in its reference time.  Set-up is
# mostly imports, so it has a yardstick of its own that works as an import
# does.
SLICE_EVERY_NS = 20_000_000
SLICE_CODES = (77, 1000, 1234, 2345)
SLICE_WIDE_INT = (1 << 196_000) // 7  # as wide as the 14-transposition eta codes
REF_SETUP_YARDSTICK_S = 12e-3


def interpreter_slice() -> None:
    """Small-integer pure Python: the benchmark's own machine interpreter."""
    for code in SLICE_CODES:
        wl.machine_halting_time(code, 40)


def bigint_slice() -> None:
    """Big-integer arithmetic on numbers of 196,000 bits."""
    x = SLICE_WIDE_INT
    for _ in range(5):
        x = x * 12_345_678_901 // 98_765 + SLICE_WIDE_INT


# Plan.yardstick -> (slice, its wall time on the reference host in ns)
YARDSTICKS = {
    "interpreter": (interpreter_slice, 150_000),
    "bigint": (bigint_slice, 450_000),
}


def slice_ns(work) -> int:
    """Wall time of one slice of a yardstick."""
    t0 = time.perf_counter_ns()
    work()
    return time.perf_counter_ns() - t0


def setup_yardstick_ns() -> int:
    """Wall time of the set-up yardstick: read, compile and run the source
    of workloads.py, as an import does with a module; median of three."""

    def once() -> int:
        t0 = time.perf_counter_ns()
        with open(wl.__file__) as fh:
            code = compile(fh.read(), wl.__file__, "exec")
        exec(code, {"__name__": wl.__name__})
        return time.perf_counter_ns() - t0

    return statistics.median(once() for _ in range(3))


def run_round(pd, plan: wl.Plan, env: dict, latencies: list):
    """Run every op once; return (answers, op time in reference seconds).
    A slice of the plan's yardstick runs before the first op and after every
    stretch of ops that took 20 ms; a stretch's op latencies are scaled by
    the mean of the two slices around it, and appended to `latencies` in
    reference ns."""
    work, ref_ns = YARDSTICKS[plan.yardstick]
    calls = wl.CALLS
    answers = []
    clock = time.perf_counter_ns
    total = 0.0
    stretch: list[int] = []

    def close(before: int) -> int:
        nonlocal total
        after = slice_ns(work)
        k = 2 * ref_ns / (before + after)
        latencies.extend(ns * k for ns in stretch)
        total += sum(stretch) * k
        stretch.clear()
        return after

    before = slice_ns(work)
    begin = clock()
    for op in plan.ops:
        t0 = clock()
        try:
            ans = calls[op.call](pd, env, *op.args)
        except Exception as exc:  # a failing op is counted, not fatal
            ans = wl.Raised(exc)
        t1 = clock()
        stretch.append(t1 - t0)
        answers.append(ans)
        if t1 - begin >= SLICE_EVERY_NS:
            before = close(before)
            begin = clock()
    if stretch:
        close(before)
    return answers, total / 1e9


class Tally:
    """Ops attempted and failed over the rounds of one run.  An op fails when
    it raises or answers wrongly; only a wrong answer makes the run incorrect."""

    def __init__(self, plan: wl.Plan):
        self.plan = plan
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.shown = 0

    def add(self, answers: list) -> None:
        bad = self.plan.failed_ops(answers)
        self.attempted += len(answers)
        self.failed += len(bad)
        self.wrong += sum(not isinstance(answers[i], wl.Raised) for i in bad)
        for i in sorted(bad)[: max(0, ROUND_ERRORS_SHOWN - self.shown)]:
            op = self.plan.ops[i]
            print(f"failed op {i}: {op.call}{op.args} -> {answers[i]!r}, "
                  f"expected {op.expected!r}", file=sys.stderr)
            if isinstance(answers[i], wl.Raised):
                traceback.print_exception(answers[i].exc, file=sys.stderr)
            self.shown += 1


def timed_rounds(pd, plan, env, seconds, tally):
    """Whole rounds until `seconds` have passed (at least one); return the
    op time of each round (reference s) and the 99th percentile over the op
    list of each op's mean latency over the rounds (reference ns).  An op's
    latency in one round can be inflated by something outside the program
    (an interrupt, a neighbour on the host); its mean over the rounds
    dilutes that, so the percentile follows the ops the program makes slow.
    Memory holds one round's latencies and one sum per op, so it does not
    grow with the number of rounds."""
    times = []
    sums = [0.0] * len(plan.ops)
    latencies: list[float] = []
    deadline = time.perf_counter() + seconds
    while True:
        latencies.clear()
        answers, op_s = run_round(pd, plan, env, latencies)
        tally.add(answers)
        times.append(op_s)
        sums = [s + ns for s, ns in zip(sums, latencies)]
        if time.perf_counter() >= deadline:
            return times, percentile(sums, 99) / len(times)
        env = load_inputs(pd, plan)


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(len(s) * q / 100) - 1)]


def count_round(pd, plan, tally):
    """One round with _decide/fwd/bwd counted; return (decides, perm_steps)."""
    counter = tr.Tracer(pd, full=False)
    env = load_inputs(pd, plan)
    with counter:
        answers, _ = run_round(pd, plan, env, [])
    tally.add(answers)
    return counter.decides(), counter.perm_steps()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.PLANS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    # set-up is start-up, the import and the loading; each part is scaled to
    # reference seconds by the set-up yardstick read just before and after
    # it.  Making the inputs and reading the yardstick are the benchmark's
    # own work, so they sit between the parts, untimed.
    start_s = _START_CPU + (time.perf_counter() - _START_WALL)
    yards = [setup_yardstick_ns()]
    t0 = time.perf_counter()
    try:
        pd = import_permdec()
    except (SetupError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t0
    yards.append(setup_yardstick_ns())
    plan = wl.PLANS[args.workload](args.seed)
    yards.append(setup_yardstick_ns())
    t0 = time.perf_counter()
    env = load_inputs(pd, plan)
    load_s = time.perf_counter() - t0
    yards.append(setup_yardstick_ns())
    ref = REF_SETUP_YARDSTICK_S * 1e9
    setup_s = (start_s * ref / yards[0] + import_s * 2 * ref / (yards[0] + yards[1])
               + load_s * 2 * ref / (yards[2] + yards[3]))
    setup_wall_s = start_s + import_s + load_s

    tally = Tally(plan)
    if args.trace:
        try:
            metrics = tr.traced_run(
                pd, plan, args.seconds, tally, load_inputs, run_round,
                os.path.join(HERE, "results", f"spans-{args.workload}-{args.seed}.jsonl"))
        except tr.InstrumentationError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 3
    else:
        times, p99_ns = timed_rounds(pd, plan, env, args.seconds, tally)
        rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        try:
            decides, perm_steps = count_round(pd, plan, tally)
        except tr.InstrumentationError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 3
        print(f"perfbench: {len(times)} rounds; wall set-up {setup_wall_s:.4f} s; "
              f"set-up yardsticks {', '.join(f'{y / 1e6:.2f}' for y in yards)} ms", file=sys.stderr)
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (len(plan.ops) / statistics.median(times), "op/s"),
            "op_p99_ms": (p99_ns / 1e6, "ms"),
            "peak_rss_mib": (rss_mib, "MiB"),
            "decides": (decides, "count"),
            "perm_steps": (perm_steps, "count"),
        }
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
