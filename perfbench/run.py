"""Repository benchmark: one workload, one seed, one closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The run sets up the workload several
times (input generation, pool or server start, one untimed warm-up op at
full size) and reports the median set-up time, then runs ops back to
back for ``--seconds`` seconds, checking every output against
union-find truth.  After closing everything it fails the run if a child
process, a ``/dev/shm`` segment or a temp entry is left over.  Reported
times are scaled to the reference host's speed by a fixed kernel timed
between units (``hygiene.SpeedProbe``); the record keeps the measured
values.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` installs the
layer wrappers on every other unit of work and prints the per-layer
metrics, the span coverage of op wall time and the tracing overhead
(traced vs untraced units of the same run).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record
(host, generator call, every metric, the per-layer self-time table) is
written to ``perfbench/results/``, and a traced run also writes its spans
there.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import statistics
import sys
import time

import hygiene
from spans import PLAN_NAMES, Tracer, child_cover_ns, layer_key

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Set-up is repeated at least this many times, and until this much
#: set-up time has accumulated (at most ``SETUP_MAX`` times).
SETUP_MIN, SETUP_SECONDS, SETUP_MAX = 3, 3.0, 7

END_TO_END = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "throughput_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: Units of ``throughput_per_s`` per workload.
THROUGHPUT_UNIT = {
    "paper_expanders": "input edges labelled/s",
    "portfolio_process": "input edges labelled/s",
    "stream_churn": "events/s",
    "service_rpc": "requests/s",
}


def per_layer_names() -> "list[str]":
    return [
        "core.regularize_ms",
        "core.randomize_ms",
        "core.random_graph_cc_ms",
        "core.verify_ms",
        "core.randomize_share",
        "core.walk_steps",
        "core.walk_ns_per_step",
        "engines.features_ms",
        "engines.run_ms",
        *(f"mpc.plan_ms.{name}" for name in (*PLAN_NAMES, "other")),
        "mpc.plans",
        "mpc.rounds",
        "mpc.exchanges",
        "mpc.bytes_exchanged",
        "mpc.process.barriers",
        "mpc.process.shm_bytes_copied",
        "mpc.arena.recycled_ratio",
        "mpc.rpc.frames",
        "mpc.rpc.payload_bytes",
        "mpc.rpc.dedup_ratio",
        "mpc.worker_peak_rss_mb",
        "sketch.update_ms",
        "sketch.decode_ms",
        "sketch.ns_per_event",
        "streaming.decode_failures",
        "streaming.full_recomputes",
        "streaming.oracle_ms",
        "service.hit_ms_p50",
        "service.miss_ms_p50",
        "service.compute_ms",
        "service.overhead_ms",
        "service.hit_rate",
        "trace.coverage",
        "trace.overhead",
        "error_rate",
    ]


PER_LAYER_UNITS = {
    "core.randomize_share": "ratio",
    "core.walk_steps": "count",
    "core.walk_ns_per_step": "ns",
    "mpc.plans": "count",
    "mpc.rounds": "count",
    "mpc.exchanges": "count",
    "mpc.bytes_exchanged": "bytes",
    "mpc.process.barriers": "count",
    "mpc.process.shm_bytes_copied": "bytes",
    "mpc.arena.recycled_ratio": "ratio",
    "mpc.rpc.frames": "count",
    "mpc.rpc.payload_bytes": "bytes",
    "mpc.rpc.dedup_ratio": "ratio",
    "mpc.worker_peak_rss_mb": "MB",
    "sketch.ns_per_event": "ns",
    "streaming.decode_failures": "count",
    "streaming.full_recomputes": "count",
    "service.hit_rate": "ratio",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
    "error_rate": "ratio",
}


def unit_of(name: str) -> str:
    return PER_LAYER_UNITS.get(name, "ms" if "_ms" in name else "count")


class Run:
    """The op/check/count hooks a workload's ``step`` calls."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.recording = False
        self.ops: "list[dict]" = []
        self.unit = 0
        self.failed = 0
        self.attempted = 0
        self._op_id = 0

    @contextlib.contextmanager
    def op(self, kind: str, work: float):
        self._op_id += 1
        self.tracer.op_id = self._op_id
        with self.tracer.span("op", kind=kind):
            start = time.perf_counter_ns()
            yield
            ns = time.perf_counter_ns() - start
        if self.recording:
            self.attempted += 1
            self.ops.append(
                {"id": self._op_id, "unit": self.unit, "kind": kind, "ns": ns,
                 "work": work, "traced": self.tracer.enabled}
            )

    def check(self, ok: bool) -> None:
        if not ok:
            if self.recording:
                self.failed += 1
            else:
                raise RuntimeError("warm-up op returned a wrong answer")

    def count(self, name: str, value: float) -> None:
        self.tracer.count(name, value)


def median(values, default=0.0) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else default


def backend_snapshot(backend) -> dict:
    if backend is None:
        return {}
    stats = backend.stats().to_json()
    return {
        "mpc.exchanges": stats["exchanges"],
        "mpc.bytes_exchanged": stats["bytes_exchanged"],
        "mpc.process.barriers": stats["dispatch"]["barriers"],
        "mpc.process.shm_bytes_copied": stats["dispatch"]["shm_bytes_copied"],
        "arena.leases": stats["arena"]["leases"],
        "arena.recycled": stats["arena"]["recycled"],
        "mpc.rpc.frames": stats["transport"]["op_frames"],
        "mpc.rpc.payload_bytes": stats["transport"]["op_wire_bytes"],
        "rpc.digest_hits": stats["transport"]["digest_hits"],
        "rpc.digest_misses": stats["transport"]["digest_misses"],
    }


def layer_metrics(run: Run, tracer, unit_deltas, workload, worker_rss) -> "tuple[dict, list]":
    """Per-layer metrics and the self-time table of a traced run."""
    spans = tracer.finished()
    cover = child_cover_ns(spans)
    traced_units = sorted({op["unit"] for op in run.ops if op["traced"]})
    plain_units = sorted({op["unit"] for op in run.ops if not op["traced"]})
    unit_of_op = {op["id"]: op["unit"] for op in run.ops}
    unit_wall: "dict[int, int]" = {}
    for op in run.ops:
        unit_wall[op["unit"]] = unit_wall.get(op["unit"], 0) + op["ns"]

    # Inclusive ns per (unit, layer), and self ns per layer over the run.
    inclusive: "dict[int, dict[str, int]]" = {u: {} for u in traced_units}
    self_ns: "dict[str, int]" = {}
    op_ns = covered = 0
    for span in spans:
        unit = unit_of_op.get(span["op"])
        if unit is None:
            continue  # warm-up
        duration = span["end_ns"] - span["start_ns"]
        own = duration - cover.get(span["index"], 0)
        if span["name"] == "op":
            op_ns += duration
            covered += cover.get(span["index"], 0)
            key = "op (uncovered)"
        else:
            key = layer_key(span)
            per_unit = inclusive[unit]
            per_unit[key] = per_unit.get(key, 0) + duration
        self_ns[key] = self_ns.get(key, 0) + own

    counts: "dict[int, dict[str, float]]" = {u: {} for u in traced_units}
    for op_id, values in tracer.counts.items():
        unit = unit_of_op.get(op_id)
        if unit in counts:
            for name, value in values.items():
                counts[unit][name] = counts[unit].get(name, 0) + value

    def ms(layer):
        return median(inclusive[u].get(layer, 0) / 1e6 for u in traced_units)

    def per_unit_count(name):
        return median(counts[u].get(name, 0) for u in traced_units)

    def total_ns(layer):
        return sum(inclusive[u].get(layer, 0) for u in traced_units)

    def total_count(name):
        return sum(counts[u].get(name, 0) for u in traced_units)

    def delta(name):
        return median(d.get(name, 0) for d in unit_deltas)

    def delta_total(name):
        return sum(d.get(name, 0) for d in unit_deltas)

    traced_wall = sum(unit_wall[u] for u in traced_units)
    steps = total_count("core.walk_steps")
    events = total_count("sketch.events")
    leases = delta_total("arena.leases")
    lookups = delta_total("rpc.digest_hits") + delta_total("rpc.digest_misses")
    kinds = {}
    for op in run.ops:
        if op["traced"]:
            kinds.setdefault(op["kind"], []).append(op["ns"] / 1e6)
    hit_ms = median(kinds.get("hit", []))
    miss_ms = median(kinds.get("miss", []))
    compute_ms = ms("service.compute") if kinds.get("miss") else 0.0

    metrics = {name: ms(name[: -len("_ms")]) for name in (
        "core.regularize_ms", "core.randomize_ms", "core.random_graph_cc_ms",
        "core.verify_ms", "engines.features_ms", "engines.run_ms",
        "sketch.update_ms", "sketch.decode_ms", "streaming.oracle_ms",
    )}
    for plan in (*PLAN_NAMES, "other"):
        metrics[f"mpc.plan_ms.{plan}"] = ms(f"mpc.plan_ms.{plan}")
    counters = workload.counters()
    metrics.update({
        "core.randomize_share": total_ns("core.randomize") / traced_wall if traced_wall else 0.0,
        "core.walk_steps": per_unit_count("core.walk_steps"),
        "core.walk_ns_per_step": total_ns("core.randomize") / steps if steps else 0.0,
        "mpc.plans": per_unit_count("mpc.plans"),
        "mpc.rounds": per_unit_count("mpc.rounds"),
        "mpc.exchanges": delta("mpc.exchanges"),
        "mpc.bytes_exchanged": delta("mpc.bytes_exchanged"),
        "mpc.process.barriers": delta("mpc.process.barriers"),
        "mpc.process.shm_bytes_copied": delta("mpc.process.shm_bytes_copied"),
        "mpc.arena.recycled_ratio": delta_total("arena.recycled") / leases if leases else 0.0,
        "mpc.rpc.frames": delta("mpc.rpc.frames"),
        "mpc.rpc.payload_bytes": delta("mpc.rpc.payload_bytes"),
        "mpc.rpc.dedup_ratio": delta_total("rpc.digest_hits") / lookups if lookups else 0.0,
        "mpc.worker_peak_rss_mb": worker_rss,
        "sketch.ns_per_event": total_ns("sketch.update") / events if events else 0.0,
        "streaming.decode_failures": counters.get("streaming.decode_failures", 0),
        "streaming.full_recomputes": counters.get("streaming.full_recomputes", 0),
        "service.hit_ms_p50": hit_ms,
        "service.miss_ms_p50": miss_ms,
        "service.compute_ms": compute_ms,
        "service.overhead_ms": miss_ms - compute_ms if kinds.get("miss") else 0.0,
        "service.hit_rate": counters.get("service.hit_rate", 0.0),
        "trace.coverage": covered / op_ns if op_ns else 0.0,
        "trace.overhead": (
            median(unit_wall[u] for u in traced_units)
            / median(unit_wall[u] for u in plain_units) - 1.0
            if traced_units and plain_units else 0.0
        ),
    })
    total_self = sum(self_ns.values()) or 1
    table = sorted(
        ({"layer": key, "self_ms": ns / 1e6, "self_share": ns / total_self}
         for key, ns in self_ns.items()),
        key=lambda row: -row["self_ms"],
    )
    return metrics, table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro package under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    cls = WORKLOADS[args.workload]
    scope = hygiene.RunScope(os.path.relpath(HERE))
    tracer = Tracer()
    run = Run(tracer)
    probe = hygiene.SpeedProbe()

    # Set-up, repeated: the median of several warm set-ups is what a
    # later change could move; one cold start is mostly page faults.
    setups = []
    workload = None
    try:
        while len(setups) < SETUP_MIN or (
            sum(setups) < SETUP_SECONDS and len(setups) < SETUP_MAX
        ):
            if workload is not None:
                workload.close()
            start = time.perf_counter()
            workload = cls(args.seed)
            workload.start()
            workload.step(run)  # the untimed warm-up op
            setups.append(time.perf_counter() - start)
            probe.sample(setups[-1])

        run.recording = True
        unit_deltas = []
        deadline = time.perf_counter() + args.seconds
        while run.unit == 0 or time.perf_counter() < deadline:
            traced = bool(args.trace) and run.unit % 2 == 0
            if traced:
                tracer.install()
                before = backend_snapshot(workload.backend)
            start = time.perf_counter()
            try:
                workload.step(run)
            except Exception as exc:  # noqa: BLE001 - counted, run ends
                run.attempted += 1
                run.failed += 1
                print(f"perfbench: op failed: {exc!r}", file=sys.stderr)
                break
            finally:
                if traced:
                    tracer.uninstall()
            if traced:
                after = backend_snapshot(workload.backend)
                unit_deltas.append({k: after[k] - before[k] for k in after})
            run.unit += 1
            probe.sample(time.perf_counter() - start)
        worker_rss = max(
            (hygiene.peak_rss_mb(pid) for pid in hygiene.children()), default=0.0
        )
        if args.trace:
            layers, table = layer_metrics(run, tracer, unit_deltas, workload, worker_rss)
    finally:
        if workload is not None:
            workload.close()
    leaks = scope.leaks()

    latencies = sorted(op["ns"] / 1e6 for op in run.ops)
    busy_s = sum(op["ns"] for op in run.ops) / 1e9
    measured = {
        "setup_s": median(setups),
        "op_p50_ms": median(latencies),
        "throughput_per_s": sum(op["work"] for op in run.ops) / busy_s if busy_s else 0.0,
        "peak_rss_mb": hygiene.peak_rss_mb(),
    }
    speed = probe.factor()
    end_to_end = {
        "setup_s": measured["setup_s"] * speed,
        "op_p50_ms": measured["op_p50_ms"] * speed,
        "throughput_per_s": measured["throughput_per_s"] / speed,
        "peak_rss_mb": measured["peak_rss_mb"],
    }
    error_rate = run.failed / run.attempted if run.attempted else 1.0
    correct = run.failed == 0 and not leaks and run.attempted > 0
    record = {
        "workload": cls.name,
        "why": cls.why,
        "generator": cls.generator,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": hygiene.host(),
        "setups_s": setups,
        "ops": len(latencies),
        "op_ms": [round(op["ns"] / 1e6, 4) for op in run.ops],
        "units": run.unit,
        "attempted": run.attempted,
        "failed": run.failed,
        "error_rate": error_rate,
        "leaks": leaks,
        "throughput_unit": THROUGHPUT_UNIT[cls.name],
        "speed_factor": speed,
        "probe_ms": {"median": median(probe.samples_ms), "samples": len(probe.samples_ms)},
        "end_to_end": end_to_end,
        "measured": measured,
    }
    if len(latencies) >= 100:
        record["op_p90_ms"] = latencies[int(0.9 * len(latencies))] * speed
    if args.trace:
        layers["error_rate"] = error_rate
        record["per_layer"] = layers
        record["self_time"] = table
        record["chosen_engines"] = sorted({
            name.split(".", 2)[2]
            for values in tracer.counts.values() for name in values
            if name.startswith("engines.chosen.")
        })
        metrics = {
            name: {"value": float(layers[name]), "unit": unit_of(name)}
            for name in per_layer_names()
        }
    else:
        metrics = {
            name: {"value": float(end_to_end[name]), "unit": unit}
            for name, unit in END_TO_END.items()
        }

    results = os.path.join(HERE, "results")
    os.makedirs(results, exist_ok=True)
    stem = os.path.join(results, f"{cls.name}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as handle:
        json.dump(record, handle, indent=2)
    if args.trace:
        with open(stem + "-spans.json", "w") as handle:
            json.dump(tracer.finished(), handle)

    for name, entry in metrics.items():
        print(f"{name:36s} {entry['value']:>16.6g} {entry['unit']}")
    if args.trace:
        print(f"{'layer (self time)':36s} {'ms':>16s} share")
        for row in table:
            print(f"{row['layer']:36s} {row['self_ms']:>16.3f} {row['self_share']:.3f}")
    for leak in leaks:
        print(f"perfbench: leak after close: {leak}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
