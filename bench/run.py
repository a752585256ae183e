#!/usr/bin/env python3
"""engelcalc benchmark: time to a correct verdict, end to end and per layer.

    python3 bench/run.py --workload catalog|sampled|laws --seed N \\
                         --seconds S --trace 0|1

One process, one thread, one closed-loop caller: each item starts when the
previous one has returned.  With ``--trace 0`` the run executes as many whole
rounds of items as fill ``--seconds`` at the workload's nominal round time
(see ``rounds_for``) and prints the end-to-end metrics.  With ``--trace 1`` the
first ``trace_items`` items of the workload run once untraced and once under
the tracer, and the per-layer metrics are printed; the traced work is fixed
by the seed, so its counts repeat exactly.

Times are in reference seconds.  A shared host's speed can drift by a third
within a minute, for the program and any other code alike.  So a fixed piece
of exact arithmetic, the reference probe, is timed between every two items,
and each item's wall time is divided by the mean probe time within
``WINDOW_S`` of it: one reference millisecond is the time the probe takes.
A single probe reads the speed over one millisecond, which flickers, so the
window is wide; it follows drift over tens of seconds, which is what differs
between runs.  The mean, not the median: the speed often flickers between
two levels, and an item runs at their average, not at the more common one.
The raw wall-clock figures are printed on a ``#`` line.

Every run uses the hash seed 0 (the script re-executes itself to set it):
set and dict layouts decide the order of some exact computations, and a
random hash seed per run would add its own spread to the timings.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Lines before it,
starting with ``#``, record the environment and the verdict counts.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from fractions import Fraction
from pathlib import Path

import workloads
from tracer import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_PROBES = 9
REF_S = 1e-3        # the reference probe takes one reference millisecond
PROBE_SHARE = 0.03  # probing after an item lasts at least this share of it
WINDOW_S = 5.0      # probes this close to an item set its speed
WORKLOADS = ("catalog", "sampled", "laws")
MAX_TRACEBACKS = 3


def load_program():
    """Import engelcalc from this checkout's ``src``; nothing else will do."""
    sys.path.insert(0, str(ROOT / "src"))
    import engelcalc
    # every layer now: a missing module fails before any output, and the
    # tracer finds each one in sys.modules
    from engelcalc import (catalog, cli, engelcheck, framecalc, geiges,  # noqa: F401
                           laws, manifest, trigring)

    where = Path(engelcalc.__file__).resolve().parent
    if where != ROOT / "src" / "engelcalc":
        raise SystemExit(f"error: engelcalc imported from {where}, not from this checkout")


def make_workload(name: str, seed: int, workdir: Path):
    if name == "catalog":
        return workloads.CatalogWorkload(ROOT, seed)
    if name == "sampled":
        return workloads.SampledWorkload(seed, workdir)
    return workloads.LawsWorkload(seed)


def reference_probe() -> float:
    """Wall seconds taken by a fixed piece of exact arithmetic.

    The work is unrelated to the program but made of the same operations
    (``Fraction`` products and sums, small dict updates), so it slows down
    and speeds up with the host in the same way.
    """
    t0 = time.perf_counter()
    acc: dict[tuple[int, int], Fraction] = {}
    total = Fraction(0)
    for i in range(1, 86):
        q = Fraction(i, i + 7) * Fraction(2 * i + 1, 3 * i + 2)
        total += q
        acc[i % 13, i % 7] = acc.get((i % 13, i % 7), 0) + q
    return time.perf_counter() - t0


class ProbeLog:
    """Reference probes taken between timed work, with their times."""

    def __init__(self):
        self.at: list[float] = []      # midpoint of each probe, perf_counter
        self.took: list[float] = []    # wall seconds of each probe

    def gap(self, seconds: float) -> None:
        """Probe after work that took ``seconds``: once, or longer after more."""
        for _ in range(max(1, round(PROBE_SHARE * seconds / REF_S))):
            t = time.perf_counter()
            took = reference_probe()
            self.at.append(t + took / 2)
            self.took.append(took)

    def scale(self, t0: float, t1: float) -> float:
        """Reference seconds of wall interval [t0, t1]."""
        w = max(WINDOW_S, t1 - t0)
        lo, hi = bisect.bisect_left(self.at, t0 - w), bisect.bisect_right(self.at, t1 + w)
        return (t1 - t0) * REF_S / statistics.fmean(self.took[lo:hi])


def setup_time(workload: str, seed: int) -> tuple[float, float]:
    """Set-up time in reference and in wall seconds: median of fresh processes.

    Each sample runs from starting an interpreter to its first item being
    ready.
    """
    probes, spans = ProbeLog(), []
    probes.gap(0.0)
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-only"],
            cwd=ROOT, stdout=subprocess.PIPE)
        try:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
        finally:
            proc.stdout.close()
            proc.wait()
        if line.strip() != b"ready" or proc.returncode != 0:
            raise SystemExit("error: set-up probe did not reach its first item")
        spans.append((t0, t1))
        probes.gap(t1 - t0)
    return (statistics.median(probes.scale(t0, t1) for t0, t1 in spans),
            statistics.median(t1 - t0 for t0, t1 in spans))


def environment() -> str:
    commit = "unknown"
    try:
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel",
                              "HEAD"], capture_output=True, text=True, timeout=30)
        lines = res.stdout.split()
        if res.returncode == 0 and len(lines) == 2 and Path(lines[0]) == ROOT:
            commit = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    return (f"python={platform.python_version()} "
            f"nproc={len(os.sched_getaffinity(0))} commit={commit}")


class Runner:
    """Runs items, times them, and tallies verdicts."""

    def __init__(self):
        self.probes = ProbeLog()
        self.spans: list[tuple[float, float, bool]] = []  # (start, end, returned)
        self.verdicts: dict[str, int] = {}
        self.failed = 0
        self.first: tuple | None = None   # (item, output) of the first item

    @property
    def attempted(self) -> int:
        return len(self.spans)

    def run(self, item, call=None) -> None:
        """Run one item (through ``call`` if given), then probe."""
        if not self.probes.at:
            self.probes.gap(0.0)
        t0 = time.perf_counter()
        try:
            out = call(item.label, item.run) if call else item.run()
        except (Exception, SystemExit):
            t1 = time.perf_counter()
            self.failed += 1
            if self.failed <= MAX_TRACEBACKS:
                print(f"# item {item.label} raised:", file=sys.stderr)
                traceback.print_exc()
            self.spans.append((t0, t1, False))
            self.probes.gap(t1 - t0)
            return
        t1 = time.perf_counter()
        self.spans.append((t0, t1, True))
        self.probes.gap(t1 - t0)
        verdict = item.check(out)
        self.verdicts[verdict] = self.verdicts.get(verdict, 0) + 1
        if self.first is None:
            self.first = (item, out)

    def times(self, start: int = 0, stop: int | None = None,
              returned: bool = False) -> tuple[list[float], list[float]]:
        """(reference, wall) seconds of items ``start:stop``.

        With ``returned`` only the items that returned count.
        """
        spans = [sp for sp in self.spans[start:stop] if sp[2] or not returned]
        return ([self.probes.scale(t0, t1) for t0, t1, _ in spans],
                [t1 - t0 for t0, t1, _ in spans])

    def rerun_first(self) -> bool:
        """Identical runs must emit identical output: re-run the first item."""
        if self.first is None:
            return True
        item, out = self.first
        try:
            return item.run() == out
        except (Exception, SystemExit):
            traceback.print_exc()
            return False

    def wrong(self) -> int:
        return sum(n for v, n in self.verdicts.items() if v != workloads.RIGHT)

    def correct(self, stable: bool) -> bool:
        return (stable and self.failed == 0 and self.attempted > 0
                and self.verdicts.get(workloads.WRONG, 0) == 0)

    def summary(self, stable: bool) -> str:
        w = workloads
        return (f"# verdicts: wrong {self.wrong()}/{self.attempted} "
                f"(tolerance {self.verdicts.get(w.TOLERANCE, 0)}, "
                f"sampling {self.verdicts.get(w.SAMPLING, 0)}, "
                f"other {self.verdicts.get(w.WRONG, 0)}); "
                f"failed {self.failed}/{self.attempted}; "
                f"rerun identical: {'yes' if stable else 'NO'}")


def prepared(items):
    for item in items:
        if item.prepare is not None:
            item.prepare()
    return items


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples beyond); with fewer than eleven
    samples this is the maximum with none beyond.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def rounds_for(wl, seconds: float) -> int:
    """Whole rounds that fill at least ``seconds`` at the nominal round time.

    The work of a run is fixed by the seed and ``--seconds``, not by how fast
    the host or the program happens to be: a mix of items of very different
    cost has its median and tail at fixed ranks only if the number of rounds
    is fixed.  A faster program finishes the same work sooner.
    """
    return max(1, math.ceil(seconds / wl.round_seconds))


def measure(wl, seconds: float, runner: Runner) -> dict:
    rounds = rounds_for(wl, seconds)
    for r in range(rounds):
        for item in prepared(wl.round(r)):
            runner.run(item)
    busy = sum(runner.times()[0])
    lat, wall = runner.times(returned=True)
    lat, wall = lat or [busy], wall or [busy]
    value, pct, beyond = tail(lat)
    print(f"# {wl.name}: {runner.attempted} items in {rounds} rounds, "
          f"{busy:.3f} reference s busy; tail = p{pct:.1f} ({beyond} beyond, n={len(lat)})")
    print(f"# wall clock: {sum(wall):.3f} s busy, p50 {statistics.median(wall) * 1e3:.3f} ms, "
          f"tail {tail(wall)[0] * 1e3:.3f} ms; reference probe median "
          f"{statistics.median(runner.probes.took) * 1e3:.4f} ms over {len(runner.probes.took)}")
    return {
        "items_per_s": (runner.attempted / busy, "1/s"),
        "item_ms_p50": (statistics.median(lat) * 1e3, "ms"),
        "item_ms_tail": (value * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def measure_traced(wl, runner: Runner, trace_path: Path) -> dict:
    items, r = [], 0
    while len(items) < wl.trace_items:
        items += wl.round(r)
        r += 1
    items = prepared(items[:wl.trace_items])
    n = len(items)
    for item in items:
        runner.run(item)
    tracer = Tracer()
    tracer.install()
    try:
        for item in items:
            runner.run(item, tracer.run_item)
    finally:
        tracer.uninstall()
    plain, traced = sum(runner.times(0, n)[0]), sum(runner.times(n, 2 * n)[0])
    metrics = tracer.metrics(n)
    metrics["trace.overhead_ratio"] = (traced / plain, "ratio")
    trace_path.write_text(json.dumps({
        "workload": wl.name, "overhead_ratio": traced / plain,
        "untraced_s": plain, "traced_s": traced, **tracer.dump()}) + "\n")
    print(f"# {wl.name}: {n} items, {plain:.3f} reference s untraced, "
          f"{traced:.3f} traced; spans in {trace_path.relative_to(ROOT)}")
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=27.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": "0"})

    load_program()
    if args.setup_only:
        make_workload(args.workload, args.seed, OUT).round(0)
        print("ready", flush=True)
        return 0

    print(f"# env {environment()} workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        wl = make_workload(args.workload, args.seed, workdir)
        runner = Runner()
        if args.trace:
            trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            metrics = measure_traced(wl, runner, trace_path)
        else:
            setup, setup_wall = setup_time(args.workload, args.seed)
            print(f"# setup: {setup_wall:.4f} wall s, median of {SETUP_PROBES} processes")
            metrics = {"setup_s": (setup, "s"), **measure(wl, args.seconds, runner)}
        stable = runner.rerun_first()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(runner.summary(stable))
    print(json.dumps({
        "correct": runner.correct(stable),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
