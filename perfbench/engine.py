"""The closed measurement loop shared by every workload.

One caller runs a workload's ops back to back, a whole pass over a pool
of items at a time, until the run's seconds are spent.  Each pass draws a
fresh pool from the seed and the pass number, so no op repeats the input
of an earlier one.  Each op is timed on its own and its output is checked
after the timer stops, with no tracing installed, so the timed region
holds only the call into the package.  An op that raises counts as
failed and the run goes on.  The first pass is not timed; the
deterministic counts are taken on it.

Other tenants of a small shared machine slow every op by up to 1.7x for
seconds at a time, and those slow spells fill anywhere from none to
nearly all of a run, so percentiles over the raw times follow them.  The
machine's speed is therefore sampled between ops with a fixed
calibration loop that never calls the package and runs with the garbage
collector off, so nothing the package does (a bigger heap, a cache that
fills) can slow it.  Each op's time is scaled by ``CAL_NOMINAL_S`` over
the median calibration time around it: the timing metrics are those the
op would show at the speed where one calibration sample takes
``CAL_NOMINAL_S``.  Each timing metric is the median, over timed passes,
of its value on one pass.  The raw figures are printed beside them and
reported by the traced run.
"""

from __future__ import annotations

import gc
import resource
import signal
import statistics
import time
import traceback
from array import array
from dataclasses import dataclass, field

from tracing import Tracer

# Calibration: one sample is ``CAL_LOOPS`` rounds of small-integer
# recursion and dict updates.  ``CAL_NOMINAL_S`` is roughly what one
# sample takes on an idle 2-core x86-64 machine under CPython 3.10.
CAL_LOOPS = 70
CAL_NOMINAL_S = 100e-6
# One sample is taken in every gap between ops, and a timer signal takes
# one every ``CAL_PERIOD_S`` while an op runs; the op's time leaves out
# the time of the samples taken inside it.
CAL_PERIOD_S = 0.02
# Samples taken during an op, or this close before it starts or after it
# ends, count towards its slowdown.
CAL_REACH_S = 0.025


def _spin(n: int) -> int:
    return n if n < 2 else _spin(n - 1) + _spin(n - 2)


def calibration_sample() -> float:
    """Seconds one calibration sample takes, with collection off."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        table: dict[int, int] = {}
        for i in range(CAL_LOOPS):
            table[i & 7] = table.get(i & 7, 0) + _spin(6)
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()


def slowdown_now() -> float:
    """The machine's slowdown right now, from 200 calibration samples
    (about 20 ms)."""
    return statistics.median([calibration_sample() for _ in range(200)]) / CAL_NOMINAL_S


@dataclass
class Pass:
    """One timed pass: each op's seconds per unit and its start and end
    times, and the calibration samples with the times they ended."""
    op_s: array = field(default_factory=lambda: array("d"))
    op_start: array = field(default_factory=lambda: array("d"))
    op_end: array = field(default_factory=lambda: array("d"))
    cal_s: array = field(default_factory=lambda: array("d"))
    cal_at: array = field(default_factory=lambda: array("d"))
    # (start, seconds) of the samples the timer took during the current op.
    inside: list[tuple[float, float]] = field(default_factory=list)

    def calibrate(self) -> None:
        self.cal_s.append(calibration_sample())
        self.cal_at.append(time.perf_counter())

    def on_timer(self, signum, frame) -> None:
        start = time.perf_counter()
        self.calibrate()
        self.inside.append((start, time.perf_counter() - start))

    def record(self, start: float, end: float, units: int) -> float:
        """Record an op that ran from ``start`` to ``end``; its seconds,
        less those of the samples taken inside it."""
        seconds = end - start - sum(d for at, d in self.inside if at < end)
        self.inside.clear()
        self.op_s.append(seconds / units)
        self.op_start.append(start)
        self.op_end.append(end)
        return seconds

    def slowdowns(self) -> list[float]:
        """Each op's slowdown: the median calibration sample taken within
        ``CAL_REACH_S`` of it, over ``CAL_NOMINAL_S``.  Every op has
        samples right before and right after it."""
        out = []
        lo = 0
        for start, end in zip(self.op_start, self.op_end):
            while self.cal_at[lo] < start - CAL_REACH_S:
                lo += 1
            hi = lo
            while hi < len(self.cal_at) and self.cal_at[hi] <= end + CAL_REACH_S:
                hi += 1
            out.append(statistics.median(self.cal_s[lo:hi]) / CAL_NOMINAL_S)
        return out

    def corrected(self) -> list[float]:
        return [t / s for t, s in zip(self.op_s, self.slowdowns())]


@dataclass
class Measurement:
    attempted: int = 0
    failed: int = 0
    passes: list[Pass] = field(default_factory=list)
    traced_passes: list[Pass] = field(default_factory=list)
    traced_units: int = 0
    traced_busy: float = 0.0
    tracer: Tracer | None = None


def timed_op(workload, item, tracer: Tracer | None, timings: Pass | None = None):
    """One op: its output (or the exception it raised), and its start and
    end times.  The tracer, if any, is installed for the op alone; with
    ``timings``, the calibration timer runs for the op alone."""
    if tracer is not None:
        tracer.install()
    if timings is not None:
        signal.signal(signal.SIGALRM, timings.on_timer)
        signal.setitimer(signal.ITIMER_REAL, CAL_PERIOD_S, CAL_PERIOD_S)
    try:
        start = time.perf_counter()
        try:
            out = workload.op(item)
        except Exception as err:    # a failed op, not a crash
            out = err
        return out, start, time.perf_counter()
    finally:
        if timings is not None:
            signal.setitimer(signal.ITIMER_REAL, 0)
        if tracer is not None:
            tracer.uninstall()


def failed_units(workload, item, out) -> int:
    if isinstance(out, Exception):
        workload.problems.append(
            f"{workload.name} op raised: "
            + "".join(traceback.format_exception(type(out), out, out.__traceback__)))
        return workload.units
    return workload.check(item, out)


def measure(workload, seconds: float, trace: bool) -> Measurement:
    """Run passes until ``seconds`` have gone by.  With ``trace``, passes
    alternate untraced and traced, so the two see the same conditions.
    Each output is checked, and dropped, right after its op."""
    m = Measurement(tracer=Tracer() if trace else None)
    workload.recording = True
    for item in workload.pool:      # the untimed first pass
        out, _, _ = timed_op(workload, item, None)
        m.attempted += workload.units
        m.failed += failed_units(workload, item, out)
    workload.recording = False
    start = time.perf_counter()
    pass_no = 1
    while pass_no <= (2 if trace else 1) or time.perf_counter() - start < seconds:
        pool = workload.make_pool(pass_no)
        traced = trace and pass_no % 2 == 0
        timings = Pass()
        (m.traced_passes if traced else m.passes).append(timings)
        timings.calibrate()
        for item in pool:
            out, began, ended = timed_op(workload, item, m.tracer if traced else None, timings)
            seconds_taken = timings.record(began, ended, workload.units)
            timings.calibrate()
            if traced:
                m.traced_units += workload.units
                m.traced_busy += seconds_taken
            m.attempted += workload.units
            m.failed += failed_units(workload, item, out)
        pass_no += 1
    return m


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def timings(times: list[float]) -> dict:
    return {
        "ops_per_s": (1 / statistics.fmean(times), "ops/s"),
        "latency_p50_ms": (1e3 * statistics.median(times), "ms"),
        "latency_p99_ms": (1e3 * percentile(times, 99), "ms"),
    }


def median_timings(passes: list[Pass], times_of) -> dict:
    """Each timing metric as the median, over passes, of its value on the
    ops of one pass: a call or a pass that the calibration did not set
    right moves it less than it would move the figure over all ops."""
    per_pass = [timings(times_of(p)) for p in passes]
    return {name: (statistics.median(t[name][0] for t in per_pass), unit)
            for name, (_, unit) in per_pass[0].items()}


def corrected_times(passes: list[Pass]) -> list[float]:
    return [t for p in passes for t in p.corrected()]


def median_slowdown(passes: list[Pass]) -> float:
    return statistics.median([s for p in passes for s in p.slowdowns()])


def end_to_end(m: Measurement, summary: dict[str, float], setup_s: float) -> dict:
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    corrected = median_timings(m.passes, Pass.corrected)
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": corrected["ops_per_s"],
        "latency_p50_ms": corrected["latency_p50_ms"],
        "steps_per_op": (summary["steps_per_op"], "steps"),
        "step_ratio": (summary["step_ratio"], "x"),
        "residual_nodes": (summary["residual_nodes"], "nodes"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def ungated(m: Measurement) -> dict:
    """Timings of the untraced passes that are reported but carry no
    bound: the corrected p99, whose tail does not follow the calibration
    loop from one state of the machine to another; the timings before
    calibration; and the median slowdown that calibration divided out."""
    out = {"latency_p99_ms": median_timings(m.passes, Pass.corrected)["latency_p99_ms"]}
    out.update({f"raw.{name}": value
                for name, value in median_timings(m.passes, lambda p: p.op_s).items()})
    out["calibration.slowdown"] = (median_slowdown(m.passes), "x")
    return out


def per_layer(m: Measurement) -> dict:
    out = m.tracer.layer_metrics(m.traced_units, m.traced_busy)
    overhead = 1 - (statistics.fmean(corrected_times(m.passes))
                    / statistics.fmean(corrected_times(m.traced_passes)))
    out["trace.overhead_share"] = (overhead, "fraction")
    out.update(ungated(m))
    return out
