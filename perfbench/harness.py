"""Run one workload: set up, measure for a given number of seconds, check
every output, and compute the metrics named in BENCHMARK.json.

A run sends the workload's fixed list of requests over and over, one cycle
after another.  The timed run (trace off) gives the end-to-end metrics.
The host it runs on changes speed by itself, by up to 80% in phases that
can outlast a run, so every timed call is scaled by the host's speed while
it ran: a fixed pure-Python reference loop is timed between any two timed
calls and, through an interval timer, every PROBE_EVERY_S during a call,
and a call of t seconds (the loops' own time taken out) during which the
loop took c_1 ... c_k seconds counts as t * mean(REFERENCE_S / c_i).  The
times reported are thus those of a host on which the loop takes
REFERENCE_S; a request's time is the median of its scaled samples over the
run.  The traced run alternates an untraced and a traced cycle and gives
the per-layer metrics; since every cycle sends the same requests, its
counts repeat exactly.
"""

from __future__ import annotations

import resource
import signal
import statistics
import time

from spans import NULL_TRACER, Tracer
from workloads import WORKLOADS

SETUPS_PER_CYCLE = 10   # set-ups timed between the requests of each cycle
TRACED_SETUPS = 5
REFERENCE_S = 1e-3      # the reference loop's time at the reference speed
REFERENCE_RUNS = 3      # loops per reading between calls; the reading is their median
PROBE_EVERY_S = 0.02    # a reading of one loop this often while a call runs


class _Mod:
    def mul_add(self, a, b, p):
        return (a * b + 7) % p


_MOD = _Mod()
_ROWS = tuple(tuple((i * 31 + j) % 97 for j in range(24)) for i in range(24))


def reference_loop():
    """Fixed pure-Python work of the kind spweil does (small-integer
    arithmetic modulo a prime, tuple indexing, method calls), about 1 ms on
    a 2-vCPU Xeon guest.  It does not touch spweil, so a change to the
    program does not change it, and it makes no container objects, so it
    does not move the garbage collector's schedule in the call it probes."""
    m, p, rows, acc = _MOD, 1000003, _ROWS, 0
    for k in range(8):
        for i in range(24):
            row, s = rows[i], 0
            for j in range(24):
                s = m.mul_add(s + row[j], rows[j][i] + k, p)
            acc ^= s
    return acc


def host_speed():
    """Time of one reference loop now: the median of REFERENCE_RUNS loops."""
    times = []
    for _ in range(REFERENCE_RUNS):
        start = time.perf_counter()
        reference_loop()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Clock:
    """Times calls as measured; samples holds (what, seconds, seconds)."""

    def __init__(self):
        self.samples = []

    def time(self, what, fn):
        start = time.perf_counter()
        try:
            return fn()
        finally:
            elapsed = time.perf_counter() - start
            self.samples.append((what, elapsed, elapsed))

    @property
    def last(self):
        return self.samples[-1][1]


class HostClock(Clock):
    """Times calls in seconds at the reference speed: samples holds (what,
    seconds as measured, seconds at the reference speed).

    While a call runs, an interval timer interrupts it every PROBE_EVERY_S
    to time one reference loop (a probe), and the probes' own time is taken
    out of the call's.  The call's time is then scaled by the mean of
    REFERENCE_S / c over the probes c made during it and the readings just
    before and after it, so every stretch of a long call is scaled by the
    host's speed in that stretch."""

    def __init__(self):
        super().__init__()
        self.before = host_speed()
        self._probes, self._probe_s = [], 0.0

    def _probe(self, signum, frame):
        start = time.perf_counter()
        reference_loop()
        spent = time.perf_counter() - start
        self._probes.append(spent)
        self._probe_s += spent

    def time(self, what, fn):
        self._probes, self._probe_s = [self.before], 0.0
        previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        start = time.perf_counter()
        try:
            return fn()
        finally:
            elapsed = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            elapsed -= self._probe_s
            self.before = host_speed()
            speed = statistics.fmean(REFERENCE_S / c for c in [*self._probes, self.before])
            self.samples.append((what, elapsed, elapsed * speed))


class Run:
    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failures = []

    def record(self, what, problem):
        """Count one output check; problem is None when it passed."""
        self.attempted += 1
        if problem:
            self.failures.append(f"{what}: {problem}")

    def send(self, request, tracer, clock):
        """Do one request, timed by clock, and check its output; returns its
        time in seconds as measured."""
        tracer.set_request(request.name)
        try:
            with tracer.span(self.workload.command), tracer.instrumented():
                result = clock.time(request.name, request.work)
            problem = request.check(result)
        except Exception as exc:  # a failed request is counted, not fatal
            problem = f"{type(exc).__name__}: {exc}"
        self.record(request.name, problem)
        return clock.last


def measure(run, seconds, min_cycles=3):
    """Timed run: the end-to-end metrics.  Set-ups are timed between the
    requests, spread over the whole run like the request times.  At least
    min_cycles cycles, so that a median can set aside a cycle that met a
    burst the scaling did not follow."""
    workload = run.workload
    requests = workload.requests(workload.setup())
    stride = max(1, len(requests) // SETUPS_PER_CYCLE)
    clock, cycles = HostClock(), 0
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        for i, request in enumerate(requests):
            if i % stride == 0:
                clock.time("setup", workload.setup)
            run.send(request, NULL_TRACER, clock)
        cycles += 1
        now = time.perf_counter()
        if cycles >= min_cycles and now - start + (now - t0) > seconds:
            break
    scaled, measured = {}, {}
    for what, seconds_measured, seconds_scaled in clock.samples:
        scaled.setdefault(what, []).append(seconds_scaled)
        measured.setdefault(what, []).append(seconds_measured)
    times = [statistics.median(scaled[request.name]) for request in requests]
    metrics = {
        "setup_s": statistics.median(scaled["setup"]),
        "wall_s": sum(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "request_p50_ms": statistics.median(times) * 1e3,
        "request_p90_ms": statistics.quantiles(times, n=10, method="inclusive")[8] * 1e3,
    }
    return metrics, {
        "cycles": cycles, "setups": len(scaled["setup"]),
        "measured_s": time.perf_counter() - start,
        "reference_s": REFERENCE_S,
        "request_ms": {r.name: t * 1e3 for r, t in zip(requests, times)},
        "unscaled_wall_s": sum(statistics.median(measured[r.name]) for r in requests),
        "unscaled_setup_s": statistics.median(measured["setup"]),
        "samples": clock.samples,
    }


def _layer_metric(span_name):
    # "operators.materialize.fourier" -> "operators.materialize_s.fourier"
    layer, op, *rest = span_name.split(".")
    return ".".join([layer, op + "_s", *rest])


def _cycle(run, requests, tracer):
    clock = Clock()
    return sum(run.send(request, tracer, clock) for request in requests)


def measure_traced(run, seconds, layer_names):
    """Traced run: the per-layer metrics, per cycle."""
    workload = run.workload
    tracer = Tracer()
    weil_generators_s = []
    for _ in range(TRACED_SETUPS):
        first = len(tracer.spans)
        with tracer.span("setup"), tracer.instrumented():
            state = workload.setup()
        weil_generators_s.append(tracer.self_times(first)["generators.weil_generators"])
    requests = workload.requests(state)

    plain, traced, per_cycle, counts = [], [], [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        plain.append(_cycle(run, requests, NULL_TRACER))
        first = len(tracer.spans)
        tracer.counts.clear()
        traced.append(_cycle(run, requests, tracer))
        counts.append(dict(tracer.counts))
        per_cycle.append(tracer.self_times(first))
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            break
    run.record("traced cycles", None if all(c == counts[0] for c in counts)
               else "counts differ between identical traced cycles")

    metrics = dict.fromkeys(layer_names, 0)
    for name in set().union(*per_cycle):
        metric = _layer_metric(name)
        if metric in metrics:
            metrics[metric] = statistics.median(times[name] for times in per_cycle)
    metrics.update((name, n) for name, n in counts[0].items() if name in metrics)
    metrics["generators.weil_generators_s"] = statistics.median(weil_generators_s)
    metrics["trace_overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1
    return metrics, {"cycles": 2 * len(traced), "counts": counts[0]}, tracer


def run_workload(name, seed, seconds, trace=False, layer_names=(), controls=None, **limits):
    """Measure one workload.  controls: keyword arguments for the workload
    (mutate, order: the negative controls); limits: min_cycles of the timed
    run."""
    run = Run(WORKLOADS[name](seed, **(controls or {})))
    tracer = None
    if trace:
        metrics, info, tracer = measure_traced(run, seconds, layer_names)
    else:
        metrics, info = measure(run, seconds, **limits)
    return {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": metrics,
        "failures": run.failures,
        "info": info,
    }, tracer
