"""blockcert benchmark: one command, seeded inputs, every metric with its unit.

Run from the root of a checkout::

    python3 perfbench/run.py --workload cert-n4 --seed 1 --seconds 25 --trace 0

The package is imported from ``src/`` of the checkout and driven through its
top-level exports, in this process and thread, as a closed loop with one
caller: the next request starts when the previous one has returned.  Every
request also runs, right before or after it (alternately), on the frozen copy
of the package in ``perfbench/blockcert_seed``.  The end-to-end timing metrics
are the package's latencies relative to that copy's on the same requests, so
that drift in the speed of a shared machine cancels out.  The copy's outputs
must match the package's byte for byte.  Peak memory is measured in a child
process that runs the package alone (``perfbench/memory_probe.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
list every metric by name and unit, the raw latencies included.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` runs a fixed prefix of the
inputs untraced and traced, and reports the per-layer metrics of
``perfbench/tracing.py`` and the tracing overhead.  The exit code is 0 when
every output is correct, 1 when one is not, and 2 when a package cannot be
imported or the arguments are wrong.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import itertools
import json
import math
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

from tracing import Tracer
from workloads import WORKLOAD_NAMES, Tally, make_workload

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_REPEATS = 5


def fresh_import(name: str, parent: Path):
    """Import package ``name`` afresh from directory ``parent``."""
    for module in [m for m in sys.modules if m == name or m.startswith(name + ".")]:
        del sys.modules[module]
    if str(parent) not in sys.path:
        sys.path.insert(0, str(parent))
    package = importlib.import_module(name)
    if Path(package.__file__).resolve().parent != parent / name:
        raise ImportError(f"{name} was imported from {package.__file__}, not from {parent}")
    return package


def load_package():
    """The package under test, from src/ of this checkout."""
    return fresh_import("blockcert", ROOT / "src")


def load_seed_copy():
    """The frozen copy every request is compared with."""
    return fresh_import("blockcert_seed", BENCH_DIR)


def set_up(name: str, seed: int):
    """Import, input generation and warm-up, repeated.

    Returns the last set-up's package, workload, first ``workload.chunk``
    units and the rest of their stream, and the median set-up time.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        pkg = load_package()
        workload = make_workload(name)
        stream = workload.units(pkg, seed)
        chunk = list(itertools.islice(stream, workload.chunk))
        workload.warm_up(pkg)
        times.append(perf_counter() - start)
    return pkg, workload, chunk, stream, statistics.median(times)


def run_one(workload, pkg, unit, tally: Tally, tracer=None, check=True):
    """Run one unit's requests (traced when ``tracer`` is given), then check its output.

    Returns the output, or None when a request raised.  Checks run untraced.
    """
    try:
        if tracer is None:
            out = workload.run_unit(pkg, unit, tally)
        else:
            with tracer.installed(pkg):
                tracer.active = True
                try:
                    out = workload.run_unit(pkg, unit, tally)
                finally:
                    tracer.active = False
    except Exception:  # a failed request is counted and reported, the run goes on
        tally.fail(f"{workload.name}: {traceback.format_exc(limit=-3)}")
        return None
    if check:
        try:
            workload.check(pkg, unit, out, tally)
        except Exception:
            tally.fail(f"{workload.name}: check raised {traceback.format_exc(limit=-3)}")
    return out


def measure(workload, pkg, seed_pkg, pairs, seconds):
    """Run unit pairs on the package and on the frozen copy.

    Which goes first alternates from unit to unit within a pass, and the
    pattern flips from pass to pass, so every unit of a pass sees both orders.
    Stops at the end of the first pass that ends after ``seconds``.  Returns
    the two tallies, the number of passes, and the sha256 and size of the
    package's outputs, each of which must equal the copy's.
    """
    mine, theirs = Tally(), Tally()
    digest = hashlib.sha256()
    size = passes = position = 0
    start = perf_counter()
    for k, (unit, seed_unit) in enumerate(pairs):
        copy_first = (position + passes) % 2 == 1
        if copy_first:
            seed_out = run_one(workload, seed_pkg, seed_unit, theirs, check=False)
        out = run_one(workload, pkg, unit, mine)
        if not copy_first:
            seed_out = run_one(workload, seed_pkg, seed_unit, theirs, check=False)
        if out is not None and seed_out is not None:
            data = workload.output_bytes(pkg, out)
            if data != workload.output_bytes(seed_pkg, seed_out):
                mine.fail(f"{workload.name}: output {k} differs from the frozen copy's")
            digest.update(data + b"\n")
            size += len(data) + 1
        position = 0 if unit.ends_pass else position + 1
        passes += unit.ends_pass
        if unit.ends_pass and perf_counter() - start >= seconds:
            break
    return mine, theirs, passes, digest.hexdigest(), size


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least 10 samples above it: (value, percentile)."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def package_peak_rss(name: str, seed: int, units: int) -> float:
    """Peak resident memory in MiB of a child process that runs the package alone."""
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "memory_probe.py"), name, str(seed), str(units)],
        capture_output=True, text=True, timeout=90,
    )
    if done.returncode:
        raise RuntimeError(f"memory probe exited with {done.returncode}: {done.stderr[-2000:]}")
    return float(done.stdout.split()[-1])


def end_to_end(mine: Tally, theirs: Tally, setup_s: float, peak_rss_mb: float | None) -> dict:
    """Latencies relative to the frozen copy's on the same requests, set-up time and memory."""
    pairs = list(zip(mine.requests, theirs.requests))
    # The slowest tenth, and at least the 10 slowest, chosen by both latencies, so that
    # noise in one side's timings does not bias the ratio.
    sums = sorted(ours + ref for ours, ref in pairs)
    cut = min(p90(sums), sums[max(len(sums) - 10, 0)])
    slowest = [(ours, ref) for ours, ref in pairs if ours + ref >= cut]
    metrics = {
        "request_vs_seed_p50": (statistics.median(ours / ref for ours, ref in pairs), "ratio"),
        "tail_time_vs_seed": (math.fsum(ours for ours, _ in slowest)
                              / math.fsum(ref for _, ref in slowest), "ratio"),
        "time_vs_seed": (math.fsum(mine.requests) / math.fsum(theirs.requests), "ratio"),
        "setup_s": (setup_s, "s"),
    }
    if peak_rss_mb is not None:
        metrics["peak_rss_mb"] = (peak_rss_mb, "MiB")
    return metrics


def details(mine: Tally, theirs: Tally, passes: int, wall_s: float, digest: str,
            size: int) -> list[str]:
    """Raw latencies and per-phase figures, with percentiles and sample counts."""
    lines = []
    for label, tally in (("", mine), ("seed_copy.", theirs)):
        requests = tally.requests
        lines.append(f"{label}request_ms_p50 {1000 * statistics.median(requests):.4f} ms")
        lines.append(f"{label}request_ms_p90 {1000 * p90(requests):.4f} ms")
        lines.append(f"{label}requests_per_s {len(requests) / math.fsum(requests):.4f} 1/s")
    for phase, samples in sorted(mine.phases.items()):
        value, percentile = tail(samples)
        lines.append(f"{phase}_ms_p50 {1000 * statistics.median(samples):.4f} ms")
        lines.append(f"{phase}_ms_tail {1000 * value:.4f} ms "
                     f"(p{percentile:.2f} of {len(samples)} samples)")
    if "decompose" in mine.phases:
        lines.append(f"certs_per_s {len(mine.requests) / math.fsum(mine.requests):.4f} 1/s")
        lines.append(f"cert_bytes {size} bytes (sha256 {digest})")
    if "hilbert" in mine.phases:
        lines.append(f"hilbert_s {math.fsum(mine.phases['hilbert']) / passes:.4f} s (per pass)")
    lines.append(f"wall_s {wall_s:.4f} s (package and frozen copy)")
    lines.append(f"failed_ratio {mine.failed / len(mine.requests):.6f} ratio "
                 f"({mine.failed} of {len(mine.requests)})")
    return lines


def run_untraced(name: str, seed: int, seconds: float):
    pkg, workload, chunk, stream, setup_s = set_up(name, seed)
    seed_pkg = load_seed_copy()
    seed_workload = make_workload(name)
    seed_workload.warm_up(seed_pkg)
    seed_units = seed_workload.units(seed_pkg, seed)
    pairs = zip(itertools.chain(chunk, stream), seed_units)
    start = perf_counter()
    mine, theirs, passes, digest, size = measure(workload, pkg, seed_pkg, pairs, seconds)
    wall_s = perf_counter() - start
    mine.failed += theirs.failed
    mine.problems += theirs.problems
    try:
        peak_rss_mb = package_peak_rss(name, seed, workload.memory_units)
    except (RuntimeError, ValueError, IndexError, subprocess.TimeoutExpired) as exc:
        mine.fail(f"{name}: {exc}")
        peak_rss_mb = None
    if not mine.requests or not theirs.requests:  # every request raised: nothing to measure
        return 1, mine, {}, []
    metrics = end_to_end(mine, theirs, setup_s, peak_rss_mb)
    lines = [f"{key} {value:.4f} {unit}" for key, (value, unit) in metrics.items()]
    lines += details(mine, theirs, passes, wall_s, digest, size)
    return len(mine.requests), mine, metrics, lines


def run_traced(name: str, seed: int):
    """Each unit of a fixed prefix of the inputs run untraced and traced, in alternating order.

    Alternating cancels drift in machine speed out of the tracing overhead.
    """
    pkg, workload, chunk, _stream, _setup_s = set_up(name, seed)
    tracer = Tracer()
    untraced, traced = Tally(), Tally()
    for k, unit in enumerate(chunk[:workload.trace_units]):
        if k % 2:
            run_one(workload, pkg, unit, traced, tracer)
        run_one(workload, pkg, unit, untraced)
        if not k % 2:
            run_one(workload, pkg, unit, traced, tracer)
    untraced_s, traced_s = math.fsum(untraced.requests), math.fsum(traced.requests)
    metrics = tracer.metrics(traced_s - untraced_s, untraced_s)
    for layer in workload.exercised:
        if not metrics[layer][0]:
            traced.fail(f"{name}: per-layer metric {layer} is zero but the workload exercises it")
    traced.failed += untraced.failed
    traced.problems += untraced.problems
    lines = [f"{key} {value} {unit}" for key, (value, unit) in metrics.items()]
    lines.append(f"trace.units {workload.trace_units} "
                 f"(untraced {untraced_s:.4f} s, traced {traced_s:.4f} s)")
    return len(untraced.requests) + len(traced.requests), traced, metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="time after which an untraced run stops at the end of a pass")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        load_package()
        load_seed_copy()
    except ImportError as exc:
        print(f"error: cannot import the package or its frozen copy: {exc}", file=sys.stderr)
        return 2
    if args.trace:
        attempted, tally, metrics, lines = run_traced(args.workload, args.seed)
    else:
        attempted, tally, metrics, lines = run_untraced(args.workload, args.seed, args.seconds)
    print(f"# {args.workload} seed={args.seed} trace={args.trace}")
    for line in lines:
        print(f"  {line}")
    for problem in tally.problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    correct = tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": tally.failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
