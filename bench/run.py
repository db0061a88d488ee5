"""coverfree benchmark: one closed-loop, single-threaded workload per run.

    python3 bench/run.py --workload certify --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
With ``--trace 0`` the run times whole decks of ops until ``--seconds`` have
passed and prints the end-to-end metrics. With ``--trace 1`` it runs a fixed
number of decks once traced and once untraced, and prints the per-layer
metrics, the self time of every layer and the tracing overhead; it also
writes its spans to ``.bench_build/``. Every op's output is checked. The
last line of standard output is one JSON object; the lines before it are
the same figures for people. See README.md for what each workload is for.

The op times are scaled to a reference host speed. A shared host's speed
drifts by up to 2x over seconds to minutes, and every wall time drifts with
it. So the run times a fixed pure-Python loop (:func:`ref_ms`) right before
every op and after the last, and scales each op's wall time by ``REF_MS`` /
the mean of the loop's times just before and just after it. On a host where
the loop takes ``REF_MS``, a scaled time is the wall time. The printed lines
give the wall times too. ``setup_s`` is wall time: imports and file I/O do
not slow down with the host as the loop does.
"""

from time import perf_counter

_STARTED = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from math import ceil  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_build"

# set-ups per timed run; setup_s reports their median
SETUP_REPS = 3
# median ms of ref_ms() on the 2-vCPU Xeon VM (2.1 GHz, Python 3.11.7) where
# the bounds were set; scaled times are wall times at this loop speed
REF_MS = 0.22


def ref_ms() -> float:
    """ms of the fastest of three passes of a fixed pure-Python loop that
    calls no library code.

    It gauges the host's speed at the moment; the scaled times divide it
    out. An interrupt slows one pass, not the fastest of three.
    """
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        acc, seen = 0, {}
        for i in range(1000):
            acc += (i * 2654435761 & 0xFFFF).bit_count()
            seen[i & 63] = acc
        best = min(best, perf_counter() - t0)
    return best * 1e3


def _import_library():
    """Import the library from this checkout, or exit 1 if it has none."""
    if not (SRC / "coverfree" / "__init__.py").is_file():
        sys.exit(f"run.py: no coverfree sources under {SRC}; run it from a checkout")
    sys.path.insert(0, str(SRC))
    import coverfree.gf
    import layers
    import workloads

    return coverfree.gf, layers, workloads


def host_ref_ms(reps: int = 9) -> float:
    """Median of ``reps`` passes of :func:`ref_ms`."""
    return statistics.median(ref_ms() for _ in range(reps))


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(ceil(q * len(sorted_values)) - 1, 0)]


def _scale(seconds: float, ref_before: float, ref_after: float) -> float:
    """Wall ``seconds`` at the reference speed, given the loop's times just
    before and just after them."""
    return seconds * REF_MS * 2 / (ref_before + ref_after)


def _run_decks(decks, layers, state, tracer=None):
    """Run every op of ``decks``; returns (op latencies in s, failed ops,
    ref_ms() before each op and once after the last)."""
    latencies, failed, refs = [], 0, []
    for deck in decks:
        for label, op in deck:
            if tracer is not None:
                tracer.op = len(latencies)
                op = tracer.wrap("bench.op", op)
            refs.append(ref_ms())
            t0 = perf_counter()
            try:
                op(layers, state)
            except Exception as exc:  # every failure is counted, none skipped
                failed += 1
                if failed <= 5:
                    print(f"op failed: {label}: {type(exc).__name__}: {str(exc)[:200]}",
                          file=sys.stderr)
            latencies.append(perf_counter() - t0)
    refs.append(ref_ms())
    return latencies, failed, refs


def timed_run(gf, layers_mod, workload, seed: int, seconds: float, import_s: float):
    """End-to-end metrics, untraced."""
    layers = layers_mod.Layers()
    setups = []
    for _ in range(SETUP_REPS):
        state = None  # free the previous set-up's matrices before building new ones
        gf.field.cache_clear()  # each set-up builds its GF tables, as a fresh process does
        t0 = perf_counter()
        state = workload.setup(layers, WORKDIR)
        setups.append(perf_counter() - t0)

    def decks():
        index = 0
        start = perf_counter()
        while index == 0 or perf_counter() - start < seconds:
            yield workload.deck(state, seed, index)
            index += 1

    latencies, failed, refs = _run_decks(decks(), layers, state)
    scaled = [_scale(lat, refs[i], refs[i + 1]) for i, lat in enumerate(latencies)]
    n = len(scaled)
    ranked, wall = sorted(scaled), sorted(latencies)
    metrics = {
        "setup_s": (import_s + statistics.median(setups), "s"),
        "ops_per_s": (n / sum(scaled), "1/s"),
        "op_ms_p50": (_percentile(ranked, 0.5) * 1e3, "ms"),
        "op_ms_p90": (_percentile(ranked, 0.9) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    notes = {
        "setup_s": f"imports {import_s:.4f} s + median of {SETUP_REPS} set-ups "
        + ", ".join(f"{s:.4f}" for s in setups),
        "ops_per_s": f"n = {n} ops; wall {n / sum(latencies):.4g}/s",
        "op_ms_p50": f"n = {n}; wall {_percentile(wall, 0.5) * 1e3:.4g} ms",
        "op_ms_p90": f"n = {n}, {n - ceil(0.9 * n)} samples above it; "
        f"wall {_percentile(wall, 0.9) * 1e3:.4g} ms",
        "peak_rss_mb": "ru_maxrss",
        "ref_ms": f"loop before each op: median {statistics.median(refs):.4f}, "
        f"min {min(refs):.4f}, max {max(refs):.4f}; REF_MS = {REF_MS}",
    }
    return metrics, notes, n, failed


def traced_run(layers_mod, workload, seed: int):
    """Per-layer metrics from a traced pass over fixed decks, and the
    tracing overhead against an untraced pass over the same decks."""
    ref_before = host_ref_ms()
    tracer = layers_mod.Tracer()
    layers = layers_mod.Layers(tracer)
    state = tracer.wrap("bench.setup", workload.setup)(layers, WORKDIR)
    decks = [workload.deck(state, seed, i) for i in range(workload.trace_decks)]
    traced_latencies, failed, _ = _run_decks(decks, layers, state, tracer)
    latencies, untraced_failed, _ = _run_decks(decks, layers_mod.Layers(), state)
    n = len(latencies)
    tracer.write(WORKDIR / f"spans-{workload.name}-{seed}.jsonl")
    metrics = layers_mod.per_layer_metrics(tracer)
    traced, untraced = n / sum(traced_latencies), n / sum(latencies)
    metrics["trace.ops_per_s"] = (traced, "1/s")
    metrics["trace.untraced_ops_per_s"] = (untraced, "1/s")
    metrics["trace.overhead_ratio"] = (1.0 - traced / untraced, "ratio")
    metrics["host.ref_ms"] = (statistics.median([ref_before, host_ref_ms()]), "ms")
    notes = {"trace.ops_per_s": f"{n} ops in {workload.trace_decks} decks, traced and untraced"}
    return metrics, notes, 2 * n, failed + untraced_failed


def main(argv=None) -> int:
    gf, layers_mod, workloads = _import_library()
    import_s = perf_counter() - _STARTED
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    workload = workloads.WORKLOADS[args.workload]
    WORKDIR.mkdir(exist_ok=True)
    if args.trace:
        metrics, notes, attempted, failed = traced_run(layers_mod, workload, args.seed)
    else:
        metrics, notes, attempted, failed = timed_run(
            gf, layers_mod, workload, args.seed, args.seconds, import_s
        )
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print(f"{'op_fail_ratio':32s} {failed / attempted:<14.6g} {'':8s} ({failed} of {attempted} ops)")
    for name, (value, unit) in sorted(metrics.items()) if args.trace else metrics.items():
        note = f"({notes[name]})" if name in notes else ""
        shown = f"{value:<14d}" if isinstance(value, int) else f"{value:<14.6g}"
        print(f"{name:32s} {shown} {unit:8s} {note}")
    for name, note in notes.items():
        if name not in metrics:
            print(f"{name:32s} {note}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
