"""Benchmark for elicit: end-to-end metrics, or per-layer metrics when traced.

Usage, from the root of a checkout:

    python3 bench/run.py --workload freeness --seed 1 --seconds 30 --trace 0

Workloads are described in ``workloads.py``.  Every request's output is
checked; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``, and the lines before
it name each metric with its unit.

``--trace 0`` measures the untraced program for ``--seconds`` seconds (and
for at least 100 requests, so that p90 has ten samples beyond it) and
reports the end-to-end metrics.  ``setup_s`` is the median over several
fresh processes, started at even intervals through the run, of importing
the program, generating the first input and running one warm-up request.

``--trace 1`` runs a fixed, seed-determined list of requests three times:
untraced, then traced twice (see ``spans.py``).  It reports per-layer calls,
self time and Fraction constructions from the first traced pass, and fails
the run when the traced outputs differ from the untraced ones by one byte,
when the two traced passes disagree on any count, or when a span the
workload is expected to reach recorded no calls.

Times are reported at reference host speed.  On a shared host a core
switches between a fast and a slow state (about 2x apart) many times a
second, and the share of time spent slow drifts by 20-30% over minutes,
which moves every request alike.  So after each untraced request the
benchmark times ``calibrate``, a fixed loop of stdlib Fraction arithmetic
that no change to elicit can touch.  Each request and each setup probe is
scaled by the host's speed around it: the reference mean calibration time
over the mean of the ``LOCAL_WINDOW`` calibrations nearest to it.  One
calibration lands in one state, so only a mean of several tracks the share
of slow time.  Throughput, p50 and setup come from the scaled times.  The
90th percentile is set by requests that ran mostly slow, which a mean does
not describe, so the raw p90 is scaled by the reference p90 calibration
time over the run's p90 calibration time instead.  Traced sums are scaled
by the run's mean calibration.  The raw figures are printed too.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
from fractions import Fraction
from time import perf_counter

import spans
from workloads import WORKLOADS, ProgramMissing, load_program

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

MIN_REQUESTS = 100
SETUP_PROBES = 11
PROBE_TIMEOUT_S = 60

# Typical mean and 90th percentile of calibrate() times, in ms, on the
# reference host: 2-core Intel Xeon, Python 3.11.7.  They fix units only;
# comparisons between runs never depend on their values.
CALIBRATION_REF_MS = {"mean": 10.0, "p90": 11.0}
# Calibrations averaged around each request to estimate the host's speed.
LOCAL_WINDOW = 11

END_TO_END = (
    ("setup_s", "s"),
    ("checks_per_s", "checks/s"),
    ("request_p50_ms", "ms"),
    ("request_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def per_layer_metrics() -> list[tuple[str, str]]:
    """Every (name, unit) a traced run reports, in order."""
    out = []
    for name in spans.span_names():
        count = "points" if name == spans.LATTICE else "calls"
        out += [(f"{name}.{count}", "count"), (f"{name}.self_s", "s"), (f"{name}.fractions", "count")]
    out += [
        ("suites.checks", "count"),
        ("fractions.new.calls", "count"),
        ("fractions.new_per_check", "count/check"),
        ("contracts.rewards_used_ratio", "ratio"),
        ("arbitrage.baseline_evals_per_deviation", "evals/deviation"),
        ("trace.untraced_wall_s", "s"),
        ("trace.traced_wall_s", "s"),
        ("trace.uncovered_s", "s"),
        ("trace.overhead_ratio", "ratio"),
    ]
    return out


def calibrate() -> float:
    """Seconds one fixed loop of Fraction arithmetic takes on this host now."""
    start = perf_counter()
    rng = random.Random(5)
    xs = [Fraction(rng.randrange(1, 10**4), 10**4) for _ in range(40)]
    total = Fraction(0)
    for a in xs:
        for b in xs[:20]:
            total += a * b - b / 7
    return perf_counter() - start


def _inputs(workload, seed: int) -> random.Random:
    return random.Random(f"{workload.name}:{seed}")


def _p90(values: list[float]) -> float:
    """Nearest-rank 90th percentile."""
    ordered = sorted(values)
    return ordered[math.ceil(0.9 * len(ordered)) - 1]


def setup_probe(workload, seed: int) -> float:
    """Import, first input and one warm-up request, in this fresh process."""
    start = perf_counter()
    load_program(ROOT, workload.entry)
    first = workload.make_input(_inputs(workload, seed))
    workload.request(first)
    return perf_counter() - start


def measure_setup(workload, seed: int) -> float:
    """Setup time of one fresh process."""
    command = [
        sys.executable, os.path.abspath(__file__),
        "--workload", workload.name, "--seed", str(seed),
        "--seconds", "1", "--trace", "0", "--setup-probe",
    ]
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S
    )
    if done.returncode != 0:
        raise RuntimeError(f"setup probe failed:\n{done.stderr}")
    return float(done.stdout.strip().splitlines()[-1])


def _attempt(workload, item):
    """One untraced request: (seconds, output, error message or None)."""
    start = perf_counter()
    try:
        output = workload.request(item)
    except Exception as exc:  # a failed request is counted, not fatal
        return perf_counter() - start, None, f"{type(exc).__name__}: {exc}"
    elapsed = perf_counter() - start
    return elapsed, output, workload.verify(output)


def _local_speed(calibrations: list[float], index: int) -> float:
    """Mean calibration time over the window centred on one request."""
    half = LOCAL_WINDOW // 2
    return statistics.fmean(calibrations[max(0, index - half):index + half + 1])


def measured_run(workload, seed: int, seconds: float) -> dict:
    load_program(ROOT, workload.entry)
    rng = _inputs(workload, seed)
    _attempt(workload, workload.make_input(rng))
    attempts, calibrations, probes = [], [], []
    start = perf_counter()
    deadline = start + seconds
    while perf_counter() < deadline or len(attempts) < MIN_REQUESTS:
        # Setup probes are spread over the run so that they meet the same
        # host speeds as the requests; their time is not run time.
        due = start + len(probes) * seconds / SETUP_PROBES
        if len(probes) < SETUP_PROBES and perf_counter() >= due:
            probe_start = perf_counter()
            probes.append((measure_setup(workload, seed), len(attempts)))
            deadline += perf_counter() - probe_start
            continue
        elapsed, _, error = _attempt(workload, workload.make_input(rng))
        attempts.append((elapsed, error))
        calibrations.append(calibrate())
    failures = [error for _, error in attempts if error]
    for error in failures[:5]:
        print(f"failed request: {error}", file=sys.stderr)
    # With no success the figures describe failed requests, and the run
    # reports itself incorrect.
    kept = [i for i, (_, error) in enumerate(attempts) if not error] or range(len(attempts))
    raw = [attempts[i][0] for i in kept]
    ref = CALIBRATION_REF_MS
    scaled = [attempts[i][0] * ref["mean"] / (_local_speed(calibrations, i) * 1000) for i in kept]
    setups = [
        setup * ref["mean"] / (_local_speed(calibrations, min(i, len(calibrations) - 1)) * 1000)
        for setup, i in probes
    ]
    cal_p90 = _p90(calibrations) * 1000
    metrics = {
        "setup_s": statistics.median(setups),
        "checks_per_s": workload.checks() * len(scaled) / sum(scaled),
        "request_p50_ms": statistics.median(scaled) * 1000,
        "request_p90_ms": _p90(raw) * 1000 * ref["p90"] / cal_p90,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = [
        f"requests = {len(attempts)} (closed loop, 1 client), failed = {len(failures)}",
        f"error_rate = {len(failures) / len(attempts)} ({len(failures)}/{len(attempts)})",
        f"percentiles over n = {len(raw)} requests",
        f"calibration ms: mean {statistics.fmean(calibrations) * 1000:.3f}, "
        f"p90 {cal_p90:.3f}; reference {CALIBRATION_REF_MS}",
        f"raw: setup_s = {statistics.median(s for s, _ in probes)!r} s, "
        f"request_p50_ms = {statistics.median(raw) * 1000!r} ms, "
        f"request_p90_ms = {_p90(raw) * 1000!r} ms, "
        f"checks_per_s = {workload.checks() * len(raw) / sum(raw)!r}",
    ]
    return _result(not failures, len(attempts), len(failures), metrics, END_TO_END, notes)


def _traced_pass(workload, items):
    tracer = spans.Tracer()
    outputs, errors = [], []
    with tracer.installed():
        for item in items:
            try:
                with tracer.span(spans.REQUEST):
                    output = workload.request(item, tracer.span)
            except Exception as exc:  # a failed request is counted, not fatal
                output = None
                errors.append(f"{type(exc).__name__}: {exc}")
            outputs.append(output)
    errors += [workload.verify(o) for o in outputs if o is not None]
    rendered = [None if o is None else workload.render(o) for o in outputs]
    return tracer.summary(), rendered, errors


def _layer_metrics(workload, summary: dict, requests: int) -> dict:
    layers, counters = summary["layers"], summary["counters"]
    metrics = {}
    for name in spans.span_names():
        entry = layers.get(name, {"calls": 0, "self_s": 0.0, "fractions": 0})
        if name == spans.LATTICE:
            metrics[f"{name}.points"] = counters["lattice_points"]
        else:
            metrics[f"{name}.calls"] = entry["calls"]
        metrics[f"{name}.self_s"] = entry["self_s"]
        metrics[f"{name}.fractions"] = entry["fractions"]
    checks = workload.checks() * requests
    fractions = sum(e["fractions"] for e in layers.values()) + summary["outside_fractions"]
    deviations = layers.get("arbitrage.check_dominance", {}).get("calls", 0)
    computed = counters["rewards_computed"]
    metrics.update({
        "suites.checks": checks,
        "fractions.new.calls": fractions,
        "fractions.new_per_check": fractions / checks,
        "contracts.rewards_used_ratio": counters["rewards_used"] / computed if computed else 0.0,
        "arbitrage.baseline_evals_per_deviation": (
            counters["baseline_evals"] / deviations if deviations else 0.0
        ),
        "trace.traced_wall_s": summary["root_wall_s"],
        "trace.uncovered_s": layers.get(spans.REQUEST, {"self_s": 0.0})["self_s"],
    })
    return metrics


def _counts(metrics: dict) -> dict:
    """The metrics that must repeat exactly: everything but times."""
    return {
        k: v for k, v in metrics.items()
        if not k.endswith("_s") and k != "trace.overhead_ratio"
    }


def traced_run(workload, seed: int) -> dict:
    load_program(ROOT, workload.entry)
    rng = _inputs(workload, seed)
    items = [workload.make_input(rng) for _ in range(workload.trace_requests)]
    _attempt(workload, items[0])
    untraced_s, plain, problems, calibrations = 0.0, [], [], []
    for item in items:
        elapsed, output, error = _attempt(workload, item)
        calibrations.append(calibrate())
        untraced_s += elapsed
        plain.append(None if output is None else workload.render(output))
        if error:
            problems.append(error)
    first, first_out, first_errors = _traced_pass(workload, items)
    second, second_out, second_errors = _traced_pass(workload, items)
    problems += [e for e in first_errors + second_errors if e]
    failed = len(problems)
    metrics = _layer_metrics(workload, first, len(items))
    metrics["trace.untraced_wall_s"] = untraced_s
    metrics["trace.overhead_ratio"] = metrics["trace.traced_wall_s"] / untraced_s
    for label, outputs in (("first", first_out), ("second", second_out)):
        for k, (a, b) in enumerate(zip(plain, outputs)):
            if a != b:
                problems.append(f"{label} traced pass changed the output of request {k + 1}")
    repeat = _counts(_layer_metrics(workload, second, len(items)))
    for key, value in _counts(metrics).items():
        if repeat[key] != value:
            problems.append(f"count {key} differs between traced passes: {value} vs {repeat[key]}")
    for name in workload.expected_spans:
        if first["layers"].get(name, {}).get("calls", 0) == 0:
            problems.append(f"coverage: span {name} recorded no calls")
    for problem in problems[:10]:
        print(f"trace check failed: {problem}", file=sys.stderr)
    scale = CALIBRATION_REF_MS["mean"] / 1000 / statistics.fmean(calibrations)
    for key in metrics:
        if key.endswith("_s"):
            metrics[key] *= scale
    notes = [
        f"traced requests = {len(items)} per pass, spans recorded = {first['spans']}",
        f"host speed scale = {scale!r}",
        f"uncovered wall time = {metrics['trace.uncovered_s']:.6f} s of "
        f"{metrics['trace.traced_wall_s']:.6f} s traced",
    ]
    attempted = 3 * len(items)
    return _result(not problems, attempted, failed, metrics, per_layer_metrics(), notes)


def _result(correct, attempted, failed, metrics, units, notes) -> dict:
    for note in notes:
        print(note)
    for name, unit in units:
        print(f"{name} = {metrics[name]!r} {unit}")
    return {
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    workload = WORKLOADS[args.workload]
    try:
        if args.setup_probe:
            print(repr(setup_probe(workload, args.seed)))
            return 0
        if args.trace:
            result = traced_run(workload, args.seed)
        else:
            result = measured_run(workload, args.seed, args.seconds)
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
