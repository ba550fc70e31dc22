"""One workload in one fresh process: set up, warm up, measure, summarise.

Run by ``run.py``, never by hand in a timed setting::

    python3 perfbench/worker.py --workload bus-ddcr --seed 1 --seconds 20 \
        --tmp DIR [--size smoke] [--setup-only] [--spans FILE]

Prints one JSON object.  Every host time is CPU time at a *reference
host speed*: the workload's own CPU time (``time.process_time``) scaled by
:data:`spec.REF_CALIB_S` over what :func:`calibrate`, a fixed pure-Python
loop, reads around it.  On a shared host both clocks move with the
co-tenants: wall time counts the time they hold the CPU, and CPU time
still swings by up to 1.6x in phases of tens of seconds as they load the
core's other hyperthread or the package's clock, which the loop tracks
(correlation 0.86 with a bus iteration's CPU time).  The raw CPU figures
are reported beside the scaled ones.

Set-up time runs from interpreter start to the end of one warm-up
iteration, so it covers importing the modules the workload drives,
generating its inputs from the seed, building the system and the
warm-up.  The timed phase then runs whole iterations, calibrating after
each simulation run and at each of serve-city's pauses, until
``--seconds`` of wall time have passed.  With
``--spans`` every call into the instrumented layers is recorded and
written to ``FILE`` at exit.
"""

import argparse
import contextlib
import json
import math
import os
import pathlib
import resource
import statistics
import sys
import time

# The persistent xi-table store would read and write ``.repro-cache``;
# every process computes its tables afresh instead.
os.environ["REPRO_XI_CACHE"] = "off"

import spans  # noqa: E402
import spec  # noqa: E402
import workloads  # noqa: E402


def calibrate() -> list[float]:
    """CPU times of three runs of a fixed pure-Python loop: the host probe.

    Timed on this thread alone, so CPU that the program burns on other
    threads cannot pass for a slower host.
    """
    times = []
    for _ in range(3):
        started = time.thread_time()
        acc = 0
        for i in range(200_000):
            acc = (acc + i * i) % 1_000_003
        times.append(time.thread_time() - started)
    return times


def quantile(ordered: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank quantile of sorted samples, and the samples beyond it."""
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


@contextlib.contextmanager
def collect_notes(notes: list):
    """Record every channel run's returned fallback note."""
    from repro.net.channel import BroadcastChannel

    original = BroadcastChannel.__dict__["run"]

    def run(self, *args, **kwargs):
        note = original(self, *args, **kwargs)
        notes.append(note)
        return note

    BroadcastChannel.run = run
    try:
        yield
    finally:
        BroadcastChannel.run = original


def measure(workload, seconds: float, recorder) -> dict:
    """Whole iterations until ``seconds`` of wall time have passed.

    An iteration is timed in chunks: the whole of a simulation run, or
    the traces between two of serve-city's pauses.  Each chunk's CPU time
    is scaled to the reference host speed by the median of the
    calibration runs just before and just after it, and so are the
    latencies of its ops.  ``cpu_s`` is the unscaled sum.
    """
    latencies: list[float] = []
    iteration_s: list[float] = []
    calib: list[float] = []
    fingerprints = set()
    ops = attempted = failed = iterations = 0
    cpu_s = ref_s = 0.0
    op_scope = recorder.op_scope if recorder is not None else None
    wall, cpu = time.perf_counter, time.process_time
    before = calibrate()
    calib += before
    started, cpu_started = wall(), cpu()
    while True:
        #: (latency samples so far, CPU seconds, scale) per chunk.
        chunks: list[tuple[int, float, float]] = []
        began = cpu()

        def pause(done: int) -> None:
            nonlocal before, began
            took = cpu() - began
            after = calibrate()
            calib.extend(after)
            scale = spec.REF_CALIB_S / statistics.median(before + after)
            chunks.append((done, took, scale))
            before = after
            began = cpu()

        iteration = workload.iterate(op_scope, pause)
        pause(len(iteration.latencies or ()))
        took = sum(chunk_s for _, chunk_s, _ in chunks)
        scaled = sum(chunk_s * scale for _, chunk_s, scale in chunks)
        iterations += 1
        iteration_s.append(took)
        cpu_s += took
        ref_s += scaled
        ops += iteration.ops
        attempted += iteration.attempted
        failed += iteration.failed
        fingerprints.add(iteration.fingerprint)
        if iteration.latencies is None:
            latencies.extend([scaled] * iteration.ops)
        else:
            first = 0
            for done, _, scale in chunks:
                latencies.extend(
                    x * scale for x in iteration.latencies[first:done]
                )
                first = done
        if wall() - started >= seconds:
            break
    timed_s = cpu() - cpu_started
    wall_s = wall() - started
    latencies.sort()
    p50, _ = quantile(latencies, 0.50)
    p99, beyond = quantile(latencies, 0.99)
    return {
        "iterations": iterations,
        "iteration_s": iteration_s,
        "calib_s": statistics.median(calib),
        "timed_s": timed_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "ops": ops,
        "attempted": attempted,
        "failed": failed,
        "ops_per_s": ops / ref_s,
        "cpu_ops_per_s": ops / cpu_s,
        "op_p50_us": p50 * 1e6,
        "op_p99_us": p99 * 1e6,
        "latency_samples": len(latencies),
        "p99_beyond": beyond,
        "fingerprints": sorted(fingerprints),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES),
                        default="full")
    parser.add_argument("--tmp", required=True,
                        help="scratch directory for journals and exports")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", help="record spans and write them here")
    args = parser.parse_args(argv)

    workload = workloads.build(
        args.workload, args.seed, args.size, pathlib.Path(args.tmp)
    )
    warm = workload.iterate()
    setup_cpu_s = time.process_time()
    out = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": (
            setup_cpu_s * spec.REF_CALIB_S / statistics.median(calibrate())
        ),
        "setup_cpu_s": setup_cpu_s,
        "warm_fingerprint": warm.fingerprint,
    }
    if not args.setup_only:
        from repro.net.engine import resolve_engine

        out["engine"] = resolve_engine(None)
        notes: list = []
        counters = {"arrivals": 0}
        recorder = None
        if args.spans:
            recorder = spans.SpanRecorder()

            def count_arrivals(loaded: int) -> None:
                counters["arrivals"] += loaded

            scope = spans.instrument(recorder, {
                "BroadcastChannel.run": notes.append,
                "Station.load_arrivals": count_arrivals,
            })
        elif workload.name != "serve-city":
            scope = collect_notes(notes)
        else:
            scope = contextlib.nullcontext()
        with scope:
            out.update(measure(workload, args.seconds, recorder))
        if recorder is not None:
            recorder.write(args.spans)
        out["counters"] = counters
        out["channel_runs"] = len(notes)
        out["fallback_runs"] = sum(note is not None for note in notes)
        out["fallback_notes"] = sorted({n for n in notes if n is not None})
        out["summary"] = workload.summary()
        out["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        )
    json.dump(out, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
