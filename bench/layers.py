"""The benchmark's calls into coverfree's public functions, and their trace.

Every call a workload makes into the library goes through a :class:`Layers`
object. Untraced, its attributes are the library functions themselves, so
the timed run pays nothing for the indirection. Traced, each attribute is a
wrapper that records one span per call (name, start, end, the op that caused
it, and the enclosing span) plus the machine-independent counts named in
``COUNTERS``. Spans are kept in memory and written out when the run ends.

Spans are taken at the library's public boundary only, from the benchmark's
side: work a public function does inside the library (``codes`` and the GF
evaluation inside ``rs_cff``, the ``is_cff`` calls inside ``max_r`` and
``min_N_bruteforce``) is part of the caller's span.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

from coverfree import bounds, construct, core, gf, grouptest, verify
from coverfree.verify import BudgetExceededError, pair_count

# the library's modules that the workloads reach, plus the benchmark itself
LAYERS = ("gf", "construct", "core", "verify", "bounds", "grouptest", "bench")


def _blocks(counts: Counter, args: tuple, kwargs: dict, result: Any) -> None:
    if isinstance(result, tuple):
        counts["construct.blocks"] += result[0].num_blocks


def _is_cff(counts: Counter, args: tuple, kwargs: dict, result: Any) -> None:
    params = args[1]
    counts["verify.is_cff.pairs_offered"] += pair_count(params.T, params.w, params.r)
    counts["verify.is_cff.refuted"] += not result.ok


def _max_r(counts: Counter, args: tuple, kwargs: dict, result: Any) -> None:
    # max_r runs one exhaustive scan per r = 1, 2, ... and stops at the first
    # refuted r or at r = T - w
    m, w = args[0], args[1]
    last = min(result + 1, m.num_blocks - w)
    counts["verify.max_r.pairs_offered"] += sum(
        pair_count(m.num_blocks, w, r) for r in range(1, last + 1)
    )


def _check_claim(counts: Counter, args: tuple, kwargs: dict, result: Any) -> None:
    counts["verify.check_claim.sampled"] += result.method == "sampled"


def _file_bytes(key: str) -> Callable[[Counter, tuple, dict, Any], None]:
    def count(counts: Counter, args: tuple, kwargs: dict, result: Any) -> None:
        counts[key] += os.path.getsize(args[0])

    return count


def _items_scanned(counts: Counter, args: tuple, kwargs: dict, result: Any) -> None:
    counts["grouptest.decode.items_scanned"] += args[0].num_blocks


class Tracer:
    """In-memory span log with per-boundary counts.

    A span is ``(name, start, end, op, parent)``: ``op`` is the op index (or
    ``"setup"``) that caused it and ``parent`` the index of the enclosing
    span in :attr:`spans`, or -1.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int | str, int]] = []
        self.counts: Counter = Counter()
        self.op: int | str = "setup"
        self._stack: list[int] = []

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        counter: Callable[[Counter, tuple, dict, Any], None] | None = None,
    ) -> Callable[..., Any]:
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(self.spans)
            self.spans.append((name, 0.0, 0.0, self.op, self._stack[-1] if self._stack else -1))
            self._stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BudgetExceededError:
                if name.startswith("verify."):
                    self.counts["verify.budget_refusals"] += 1
                raise
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, self.op, self.spans[index][4])
            if counter is not None:
                counter(self.counts, args, kwargs, result)
            return result

        return traced

    def write(self, path: Path) -> None:
        """One JSON array per line: name, start, end, op, parent."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def busy(self, prefix: str) -> tuple[int, float]:
        """(calls, seconds) over spans named ``prefix`` or ``prefix.*``."""
        calls, seconds = 0, 0.0
        for name, start, end, _, _ in self.spans:
            if name == prefix or name.startswith(prefix + "."):
                calls += 1
                seconds += end - start
        return calls, seconds

    def self_seconds(self) -> dict[str, float]:
        """Per layer: span durations minus the time their child spans cover."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, _, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        out = dict.fromkeys(LAYERS, 0.0)
        for (name, _, _, _, _), seconds in zip(self.spans, own):
            out[name.split(".", 1)[0]] += seconds
        return out


class Layers:
    """The public functions the workloads call, traced when given a tracer.

    ``counts`` takes outcome counts that only the caller can judge, such as
    exact decodes; without a tracer they are kept and discarded.
    """

    def __init__(self, tracer: Tracer | None = None) -> None:
        self.tracer = tracer
        self.counts: Counter = tracer.counts if tracer is not None else Counter()

        def w(name, fn, counter=None):
            return fn if tracer is None else tracer.wrap(name, fn, counter)

        self.field = w("gf.field", gf.field)
        self.rs_cff = w("construct.rs_cff", construct.rs_cff, _blocks)
        self.oa_construct = w("construct.oa_construct", construct.oa_construct)
        self.oa_to_packing = w("construct.oa_to_packing", construct.oa_to_packing)
        self.packing_to_cff = w("construct.packing_to_cff", construct.packing_to_cff, _blocks)
        self.recursive_cff = w("construct.recursive_cff", construct.recursive_cff, _blocks)
        self.random_cff = w("construct.random_cff", construct.random_cff, _blocks)
        self.random_uniform_cff = w(
            "construct.random_uniform_cff", construct.random_uniform_cff, _blocks
        )
        self.is_cff = w("verify.is_cff", verify.is_cff, _is_cff)
        self.max_r = w("verify.max_r", verify.max_r, _max_r)
        self.replay = w("verify.replay", verify.ViolationWitness.replay)
        self.check_claim = w("verify.check_claim", verify.check_claim, _check_claim)
        self.full_report = w("bounds.full_report", bounds.full_report)
        self.min_N_bruteforce = w("bounds.min_N_bruteforce", bounds.min_N_bruteforce)
        self.write_matrix_file = w(
            "core.format", core.write_matrix_file, _file_bytes("core.format.bytes")
        )
        self.read_matrix_file = w(
            "core.parse", core.read_matrix_file, _file_bytes("core.parse.bytes")
        )
        self.encode = w("grouptest.encode", grouptest.encode)
        self.inject_errors = w("grouptest.inject_errors", grouptest.inject_errors)
        self.decode = w("grouptest.decode", grouptest.decode, _items_scanned)


def per_layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of a traced run, as name -> (value, unit)."""
    out: dict[str, tuple[float, str]] = {}
    counts = tracer.counts
    out["gf.field.ms"] = (tracer.busy("gf.field")[1] * 1e3, "ms")
    for prefix, with_calls in (
        ("construct", True),
        ("verify.is_cff", True),
        ("verify.max_r", True),
        ("verify.replay", False),
        ("verify.check_claim", False),
        ("bounds.full_report", True),
        ("bounds.min_N_bruteforce", True),
        ("grouptest.encode", False),
        ("grouptest.inject_errors", False),
        ("grouptest.decode", False),
        ("core.format", False),
        ("core.parse", False),
    ):
        calls, seconds = tracer.busy(prefix)
        if with_calls:
            out[f"{prefix}.calls"] = (calls, "count")
        out[f"{prefix}.busy_s"] = (seconds, "s")
    for key in (
        "construct.blocks",
        "verify.is_cff.refuted",
        "verify.is_cff.pairs_offered",
        "verify.max_r.pairs_offered",
        "verify.budget_refusals",
        "verify.check_claim.sampled",
        "grouptest.decode.items_scanned",
    ):
        out[key] = (counts[key], "count")
    out["core.format.bytes"] = (counts["core.format.bytes"], "bytes")
    out["core.parse.bytes"] = (counts["core.parse.bytes"], "bytes")
    rounds = tracer.busy("grouptest.decode")[0]
    out["grouptest.decode.exact"] = (
        counts["grouptest.decode.exact"] / rounds if rounds else 0.0,
        "ratio",
    )
    for layer, seconds in tracer.self_seconds().items():
        out[f"{layer}.self_s"] = (seconds, "s")
    out["trace.spans"] = (len(tracer.spans), "count")
    return out
