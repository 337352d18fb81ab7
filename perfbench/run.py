"""Benchmark of the svbraid library, one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/`` there and nowhere else.  Workloads (see ``workloads.py``):

  equiv-normalise  ``equivalent`` on pairs with equal Gauss diagrams
  equiv-search     ``equivalent`` under a node budget on pairs that pass
                   every screen
  algebra          the per-word pipeline and the diagram-level checks

With ``--trace 0`` the workload's items are run in passes for about S
seconds, every result is checked against ``ref``, and the end-to-end
metrics are printed:

  setup_s                median time, over fresh processes started at even
                         intervals through the run, to import the library
                         and build the relation tables
  ops_per_s              items per second, from each item's median time
  latency_p50_ms         median of the items' median times
  latency_tail_ms        the item time with ten items beyond it
  settled_ratio          share of items with a checked, decided result
                         (not Unknown, no exception, check passed)
  certificate_moves_p50  median length of the Equivalent certificates
                         (grouped median, as lengths are whole numbers)
  peak_rss_mb            peak resident memory of this process

With ``--trace 1`` one untraced pass is followed by one traced pass, and
the per-layer metrics are printed; the spans go to ``.perfbench/``.

The last line of output is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is non-zero when any result is
wrong or the library cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SETUP_PROBES = 15


def _import_library():
    src = ROOT / "src"
    if not (src / "svbraid" / "__init__.py").is_file():
        sys.exit(f"no svbraid sources under {src}")
    sys.path.insert(0, str(src))
    import svbraid

    if not Path(svbraid.__file__).resolve().is_relative_to(src.resolve()):
        sys.exit(f"svbraid imported from {svbraid.__file__}, not from {src}")


def probe_setup(strands) -> float:
    """Set-up time of one fresh process (see ``setup_probe.py``)."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(ROOT),
           *map(str, strands)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=60,
                         check=True)
    return float(out.stdout.strip().splitlines()[-1])


class Tally:
    """Per-item timings and outcomes over one or more passes."""

    def __init__(self, count: int):
        self.samples = [[] for _ in range(count)]
        self.per_pass: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.unsettled = 0
        self.moves: list[int] = []
        self.errors: list[str] = []

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(what)


def run_pass(workload, tally: Tally, check: bool, between_items=None) -> None:
    from workloads import CheckFailed

    for k, item in enumerate(workload.items):
        if between_items is not None:
            between_items()
        tally.attempted += 1
        start = time.perf_counter()
        try:
            result = workload.run(item)
        except Exception as exc:  # an exception is a failed item, reported
            tally.fail(f"item {k}: {type(exc).__name__}: {exc}")
            continue
        finally:  # a failed item's time counts like any other
            tally.samples[k].append(time.perf_counter() - start)
        if not check:
            continue
        try:
            outcome = workload.check(item, result)
        except CheckFailed as exc:
            tally.fail(f"item {k}: {exc}")
            continue
        tally.unsettled += not outcome.settled
        if outcome.moves is not None:
            tally.moves.append(outcome.moves)
    if workload.per_pass is not None:
        start = time.perf_counter()
        try:
            lengths = workload.per_pass()
        except Exception as exc:  # a wrong diagram-level result fails the pass
            tally.fail(f"diagram checks: {type(exc).__name__}: {exc}")
        else:
            tally.moves.extend(lengths)
        tally.per_pass.append(time.perf_counter() - start)


def latencies(tally: Tally) -> list[float]:
    """Each item's median time over the passes that ran it, sorted."""
    return sorted(statistics.median(s) for s in tally.samples if s)


def pass_seconds(tally: Tally) -> float:
    """Time of one pass, from each item's median time and the median time
    of the once-per-pass work, so that a slow moment of the machine during
    one pass does not count."""
    extra = statistics.median(tally.per_pass) if tally.per_pass else 0.0
    return sum(latencies(tally)) + extra


def end_to_end(workload, seconds: float):
    tally = Tally(len(workload.items))
    probe_setup(workload.strands)  # warm-up: may still write bytecode caches
    setup: list[float] = []
    start = time.perf_counter()

    def between_items():
        # Set-up probes at even intervals, so that a slow moment of the
        # machine weighs on set-up no more than on the items.
        if (len(setup) < SETUP_PROBES and time.perf_counter() - start
                >= len(setup) * seconds / SETUP_PROBES):
            setup.append(probe_setup(workload.strands))

    passes = 0
    while True:
        run_pass(workload, tally, check=True, between_items=between_items)
        passes += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / passes > seconds:
            break
    while len(setup) < SETUP_PROBES:
        setup.append(probe_setup(workload.strands))
    setup_s = statistics.median(setup)
    lat = latencies(tally)
    tail_rank = len(lat) - 10
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(lat) / pass_seconds(tally), "1/s"),
        "latency_p50_ms": (1e3 * statistics.median(lat), "ms"),
        "latency_tail_ms": (1e3 * lat[max(tail_rank, 1) - 1], "ms"),
        "settled_ratio": (1 - (tally.failed + tally.unsettled) / tally.attempted,
                          "ratio"),
        "certificate_moves_p50": (
            statistics.median_grouped(tally.moves) if tally.moves else 0.0,
            "moves"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MB"),
    }
    notes = [f"passes: {passes}", f"items per pass: {len(lat)}",
             f"latency_tail_ms is p{100 * tail_rank / len(lat):.1f} of "
             f"{len(lat)} items",
             f"unsettled (Unknown) items: {tally.unsettled}"]
    return tally, metrics, notes


def per_layer(workload, seed: int):
    from tracing import Tracer, layer_names

    plain = Tally(len(workload.items))
    run_pass(workload, plain, check=True)
    tracer = Tracer()
    traced = Tally(len(workload.items))
    with tracer.patched():
        run_pass(workload, traced, check=False)
    values = tracer.layer_metrics()
    values["trace.overhead_ratio"] = pass_seconds(plain) / pass_seconds(traced)
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    tracer.dump(out_dir / f"trace-{workload.name}-seed{seed}.tsv")
    metrics = {name: (values[name], unit) for name, unit, _ in layer_names()}
    plain.failed += traced.failed
    plain.errors += traced.errors
    return plain, metrics, [f"spans: {values['trace.spans']}"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_library()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed)
    if args.trace:
        tally, metrics, notes = per_layer(workload, args.seed)
    else:
        tally, metrics, notes = end_to_end(workload, args.seconds)
    for name, (value, unit) in metrics.items():
        print(f"{name:52s} {value:14.6g} {unit}")
    for line in notes + [f"workload inputs: {json.dumps(workload.notes)}"]:
        print(f"# {line}")
    for error in tally.errors:
        print(f"# FAILED {error}", file=sys.stderr)
    correct = tally.failed == 0
    print(json.dumps({
        "correct": correct, "attempted": tally.attempted, "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    sys.stdout.flush()
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
