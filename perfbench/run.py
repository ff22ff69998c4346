"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload idle_cores --seed 1 --seconds 44 --trace 0

``--trace 0`` repeats the workload for ``--seconds`` with no tracing
and reports the end-to-end metrics of ``BENCHMARK.json``.  ``--trace 1``
alternates untraced and traced repeats and reports the per-layer
metrics, the tracing overhead and the share of the timed region no
layer span covers.  Every repeat checks every answer against an exact
reference, and every repeat of a run, traced or not, must reproduce one
determinism fingerprint.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it, prefixed ``detail``, records the environment, each metric's
quartiles over repeats and the sample counts behind each percentile.
The exit code is 0 only when every answer was right and every
fingerprint agreed; without the repository's ``src/`` next to this
directory it is 2 and nothing is printed to standard output.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

#: Extra set-ups per run, timed and discarded, for the set-up median.
SETUP_PROBES = 10

#: End-to-end metric -> unit, in BENCHMARK.json's order.
END_TO_END = {
    "setup_s": "s",
    "query_qps": "1/s",
    "query_p50_us": "us",
    "query_p99_us": "us",
    "sim_response_s": "sim_s",
    "peak_rss_mb": "MB",
}

#: Workload-level end-to-end figures that only some workloads have;
#: printed with the end-to-end metrics, and reported by the traced run
#: (measured on its untraced repeats) as ``workload.*`` metrics.
WORKLOAD_FIGURES = {
    "idle_actions_per_s": "1/s",
    "write_p50_us": "us",
    "write_p99_us": "us",
    "restart_s": "s",
    "failed_op_ratio": "ratio",
}

#: Per-layer metric -> (unit, the end-to-end figure it should move and
#: on which workload), in BENCHMARK.json's order.  Layers a workload
#: never enters read 0 there.
PER_LAYER = {
    "engine.session.self_s": (
        "s", "query_p50_us on idle_cores and rw_durable"),
    "engine.pending.busy_s": (
        "s", "query_p50_us on rw_durable; unchanged on idle_cores"),
    "engine.pending.merge_ratio": (
        "ratio", "query_p50_us on rw_durable; unchanged on idle_cores"),
    "storage.updates.busy_s": ("s", "write_p50_us on rw_durable"),
    "storage.updates.pending_rows_end": ("count", "write_p50_us on rw_durable"),
    "online.monitor.busy_s": (
        "s", "query_qps on serve_shared, query_p50_us on idle_cores"),
    "holistic.ranking.busy_s": (
        "s", "query_qps on serve_shared, query_p50_us on idle_cores"),
    "holistic.kernel.self_s": ("s", "query_p50_us on idle_cores"),
    "holistic.scheduler.busy_s": ("s", "idle_actions_per_s on rw_durable"),
    "holistic.scheduler.actions": ("count", "idle_actions_per_s on rw_durable"),
    "holistic.scheduler.useful_ratio": (
        "ratio", "idle_actions_per_s on rw_durable"),
    "cracking.index.busy_s": (
        "s", "query_p50_us on idle_cores and rw_durable"),
    "cracking.index.cracks_per_query": (
        "count", "query_p50_us on idle_cores and rw_durable"),
    "cracking.index.pieces_end": (
        "count", "query_p50_us on idle_cores and rw_durable"),
    "cracking.index.avg_piece_rows": (
        "count", "query_p50_us on idle_cores and rw_durable"),
    "cracking.batch.busy_s": (
        "s", "query_qps and query_p99_us on serve_shared"),
    "serving.frontend.self_s": (
        "s", "query_qps and query_p99_us on serve_shared"),
    "serving.frontend.windows": (
        "count", "query_qps and query_p99_us on serve_shared"),
    "serving.frontend.window_rows_mean": (
        "count", "query_qps and query_p99_us on serve_shared"),
    "cracking.concurrency.latch_s": (
        "s", "query_p50_us and idle_actions_per_s on idle_cores"),
    "cracking.concurrency.worker_crack_s": (
        "s", "idle_actions_per_s on idle_cores"),
    "holistic.workers.actions": (
        "count", "query_p50_us and idle_actions_per_s on idle_cores"),
    "holistic.workers.stalls": (
        "count", "query_p50_us and idle_actions_per_s on idle_cores"),
    "holistic.workers.restarts": (
        "count", "query_p50_us and idle_actions_per_s on idle_cores"),
    "persist.manager.busy_s": (
        "s", "idle_actions_per_s and query_qps on rw_durable"),
    "persist.manager.checkpoints": (
        "count", "idle_actions_per_s and query_qps on rw_durable"),
    "persist.manager.bytes_written": (
        "bytes", "idle_actions_per_s and query_qps on rw_durable"),
    "persist.manager.carried_ratio": (
        "ratio", "idle_actions_per_s and query_qps on rw_durable"),
    "persist.restore.busy_s": ("s", "restart_s on rw_durable"),
    "workload.idle_actions_per_s": (
        "1/s", "end-to-end, rw_durable, idle_cores"),
    "workload.write_p50_us": ("us", "end-to-end, rw_durable"),
    "workload.write_p99_us": ("us", "end-to-end, rw_durable"),
    "workload.restart_s": ("s", "end-to-end, rw_durable"),
    "trace.overhead_s": ("s", "tracing cost: traced minus untraced wall"),
    "trace.uncovered_share": (
        "ratio", "share of the timed region outside every layer span"),
}


def bootstrap() -> None:
    """Put the repository's ``src/`` and root on ``sys.path``.

    Exits with code 2 when ``src/repro`` is missing: the benchmark
    measures the program next to it, never an installed copy.
    """
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program to measure: {src / 'repro'} is missing",
            file=sys.stderr,
        )
        sys.exit(2)
    for path in (str(ROOT), str(src)):
        if path not in sys.path:
            sys.path.insert(0, path)


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def figure(value: float, per_repeat: list[float]) -> dict[str, object]:
    """A reported value with the quartiles of its per-repeat values
    (``statistics.quantiles``)."""
    if len(per_repeat) == 1:
        q1 = q3 = per_repeat[0]
    else:
        q1, _, q3 = statistics.quantiles(per_repeat, n=4)
    return {
        "value": value, "q1": q1, "q3": q3, "repeats": len(per_repeat),
        "per_repeat": per_repeat,
    }


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            loose = ROOT / ".git" / name
            if loose.is_file():
                return loose.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown"


def environment(workload) -> dict[str, object]:
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": _commit(),
        "machine": platform.machine(),
        **workload.environment(),
    }


def _per_repeat_figures(sample) -> dict[str, float | None]:
    """End-to-end and workload figures of one repeat."""
    queries = sample.query_ns
    writes = sample.write_ns
    return {
        "setup_s": sample.setup_s,
        "query_qps": len(queries) / (sum(sample.busy_ns) / 1e9),
        "query_p50_us": percentile(queries, 50) / 1e3,
        "query_p99_us": percentile(queries, 99) / 1e3,
        "sim_response_s": sample.sim_response_s,
        "idle_actions_per_s": (
            sample.idle_actions / sample.idle_s if sample.idle_s else None
        ),
        "write_p50_us": percentile(writes, 50) / 1e3 if writes else None,
        "write_p99_us": percentile(writes, 99) / 1e3 if writes else None,
        "restart_s": sample.restart_s,
    }


def _replay_fastest(samples, attr: str) -> np.ndarray:
    """Each timed operation's fastest wall time over the repeats.

    Every repeat replays identical inputs, so operation ``i`` does the
    same work each time.  On a shared host, other tenants only ever
    slow an operation down, for stretches of a second or more; over a
    dozen replays each operation meets a quiet moment, so its fastest
    replay is the program's own cost and depends far less on how busy
    the host was during the run than a median does.
    """
    return np.min(
        np.asarray([getattr(s, attr) for s in samples], dtype=np.float64),
        axis=0,
    )


def _figures(samples) -> dict[str, dict[str, object] | None]:
    """Every end-to-end and workload figure of the untraced repeats.

    Throughput and latency percentiles come from the operations'
    fastest replays; the other figures are medians over repeats.
    """
    per_repeat = [_per_repeat_figures(s) for s in samples]
    figures: dict[str, dict[str, object] | None] = {}
    for name in per_repeat[0]:
        values = [figures_of[name] for figures_of in per_repeat]
        figures[name] = (
            figure(statistics.median(values), values)
            if all(v is not None for v in values)
            else None
        )
    queries = _replay_fastest(samples, "query_ns")
    figures["query_qps"]["value"] = len(queries) / (
        _replay_fastest(samples, "busy_ns").sum() / 1e9
    )
    for kind, latencies in (
        ("query", queries),
        ("write", _replay_fastest(samples, "write_ns")),
    ):
        for q in (50, 99):
            stats = figures[f"{kind}_p{q}_us"]
            if stats is not None:
                stats["value"] = percentile(latencies, q) / 1e3
                stats["samples"] = len(latencies)
                stats["beyond"] = int(len(latencies) * (100 - q) / 100)
    return figures


def _layer_values(sample, summary, observed) -> dict[str, float]:
    """Per-layer metrics of one traced repeat."""
    layers = summary.layers
    keys = summary.keys

    def busy(name: str, table=layers) -> float:
        entry = table.get(name)
        return entry.busy_s if entry else 0.0

    def self_time(name: str, table=layers) -> float:
        entry = table.get(name)
        return entry.self_s if entry else 0.0

    counters = {**sample.counters, **observed}
    pending_calls = counters.get("engine.pending.calls", 0)
    written = counters.get("persist.manager.arrays_written", 0)
    carried = counters.get("persist.manager.arrays_carried", 0)
    main = summary.top_level_s.get("MainThread", 0.0)
    values = {
        "engine.session.self_s": self_time("engine.session"),
        "engine.pending.busy_s": busy("engine.pending"),
        "engine.pending.merge_ratio": (
            counters.get("engine.pending.rewritten", 0) / pending_calls
            if pending_calls
            else 0.0
        ),
        "storage.updates.busy_s": busy("storage.updates"),
        "online.monitor.busy_s": busy("online.monitor"),
        "holistic.ranking.busy_s": busy("holistic.ranking"),
        "holistic.kernel.self_s": self_time("holistic.kernel"),
        "holistic.scheduler.busy_s": busy("holistic.scheduler"),
        "cracking.index.busy_s": busy("cracking.index"),
        "cracking.batch.busy_s": busy("cracking.batch"),
        "serving.frontend.self_s": self_time("serving.frontend"),
        "cracking.concurrency.latch_s": self_time(
            "cracking.concurrency/select_range", keys
        ),
        "cracking.concurrency.worker_crack_s": busy(
            "cracking.concurrency/crack_value", keys
        ),
        "persist.manager.busy_s": busy("persist.manager"),
        "persist.manager.checkpoints": counters.get(
            "persist.manager.checkpoints", 0
        ),
        "persist.manager.bytes_written": counters.get(
            "persist.manager.bytes_written", 0
        ),
        "persist.manager.carried_ratio": (
            carried / (written + carried) if written + carried else 0.0
        ),
        "persist.restore.busy_s": busy("persist.restore"),
        "trace.uncovered_share": max(0.0, 1.0 - main / sample.timed_s),
    }
    for name in PER_LAYER:
        if name not in values and name in counters:
            values[name] = counters[name]
    return values


def measure(args, workload_cls, workdir: Path) -> dict[str, object]:
    """Run repeats for ``args.seconds``; return the result document."""
    from perfbench import tracing

    workload = workload_cls(args.seed, args.size, workdir)
    # The inputs are the benchmark's objects, not the program's: keep
    # the collector from traversing them inside the timed regions.
    gc.collect()
    gc.freeze()
    # Set-up is short next to a repeat: probe it a few extra times so
    # its median rests on more than the repeats alone.
    setup_s = []
    for _ in range(SETUP_PROBES):
        started = perf_counter()
        state = workload.setup()
        setup_s.append(perf_counter() - started)
        workload.teardown(state)
    tracer = tracing.Tracer() if args.trace else None
    installed = None
    untraced: list = []
    traced: list = []
    started = perf_counter()
    try:
        while True:
            trace_this = tracer is not None and len(traced) < len(untraced)
            if trace_this and installed is None:
                installed = tracing.install(tracer)
            elif not trace_this and installed is not None:
                installed.remove()
                installed = None
            # Reclaim the previous engine now, outside any timed region,
            # so neither its garbage nor its memory carries over.
            gc.collect()
            began = perf_counter()
            sample = workload.repeat(tracer.reset if trace_this else (lambda: None))
            if trace_this:
                # Reduce now: the next traced repeat clears the spans.
                sample.layer_values = _layer_values(
                    sample,
                    tracing.summarize(tracer.threads()),
                    tracer.counters,
                )
                traced.append(sample)
            else:
                untraced.append(sample)
            done = len(untraced) >= 1 and (tracer is None or len(traced) >= 1)
            # Stop before a repeat that would end past the time budget.
            now = perf_counter()
            if done and now - started + (now - began) > args.seconds:
                break
    finally:
        if installed is not None:
            installed.remove()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    samples = untraced + traced
    attempted = sum(s.attempted for s in samples)
    failed = sum(s.failed for s in samples)
    # Repeats see the same inputs, so a defect repeats its message.
    problems = list(dict.fromkeys(p for s in samples for p in s.problems))
    fingerprints = sorted({s.fingerprint for s in samples})
    if len(fingerprints) != 1:
        problems.append(f"determinism fingerprint diverged: {fingerprints}")
    figures = _figures(untraced)
    probes = setup_s + [s.setup_s for s in samples]
    figures["setup_s"] = figure(statistics.median(probes), probes)
    detail: dict[str, object] = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(workload),
        "repeats": {"untraced": len(untraced), "traced": len(traced)},
        "fingerprints": fingerprints,
        "figures": figures,
        "problems": problems[:20],
    }
    metrics: dict[str, dict[str, object]] = {}
    if tracer is None:
        for name, unit in END_TO_END.items():
            if name == "peak_rss_mb":
                value = peak_rss_mb
            else:
                value = figures[name]["value"]
            metrics[name] = {"value": value, "unit": unit}
    else:
        per_layer = {
            name: statistics.median(
                s.layer_values.get(name, 0.0) for s in traced
            )
            for name in PER_LAYER
        }
        for name in WORKLOAD_FIGURES:
            if f"workload.{name}" in PER_LAYER:
                stats = figures[name]
                per_layer[f"workload.{name}"] = (
                    stats["value"] if stats else 0.0
                )
        per_layer["trace.overhead_s"] = statistics.median(
            s.timed_s for s in traced
        ) - statistics.median(s.timed_s for s in untraced)
        detail["trace_overhead_share"] = per_layer[
            "trace.overhead_s"
        ] / statistics.median(s.timed_s for s in untraced)
        for name, (unit, _moves) in PER_LAYER.items():
            metrics[name] = {"value": per_layer[name], "unit": unit}
    detail["failed_op_ratio"] = failed / max(1, attempted)
    return {
        "detail": detail,
        "result": {
            "correct": failed == 0 and not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        },
    }


def render(document: dict[str, object]) -> str:
    """Human-readable lines: every metric by name with its unit."""
    detail = document["detail"]
    result = document["result"]
    lines = [
        f"perfbench {detail['workload']} seed={detail['seed']} "
        f"trace={detail['trace']} repeats={detail['repeats']}"
    ]
    figures = detail["figures"]
    for name, unit in {**END_TO_END, **WORKLOAD_FIGURES}.items():
        if name == "peak_rss_mb":
            continue
        if name == "failed_op_ratio":
            lines.append(
                f"  {name:<22} {detail['failed_op_ratio']:.6g} {unit} "
                f"({result['failed']}/{result['attempted']} ops)"
            )
            continue
        stats = figures.get(name)
        if stats is None:
            lines.append(f"  {name:<22} n/a in this workload")
            continue
        spread = (
            f"{stats['repeats']} repeats: "
            f"q1 {stats['q1']:.6g}, q3 {stats['q3']:.6g}"
        )
        if "samples" in stats:
            spread += (
                f"; over {stats['samples']} fastest replays, "
                f"{stats['beyond']} beyond"
            )
        lines.append(f"  {name:<22} {stats['value']:.6g} {unit} ({spread})")
    for name, metric in result["metrics"].items():
        if name in END_TO_END and name != "peak_rss_mb":
            continue
        moves = f"  [{PER_LAYER[name][1]}]" if name in PER_LAYER else ""
        lines.append(
            f"  {name:<36} {metric['value']:<12.6g} {metric['unit']}{moves}"
        )
    for problem in detail["problems"]:
        lines.append(f"  PROBLEM: {problem}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="input size; tiny is for the benchmark's own tests",
    )
    args = parser.parse_args(argv)
    bootstrap()
    from perfbench.workloads import WORKLOADS

    workload_cls = WORKLOADS.get(args.workload)
    if workload_cls is None:
        parser.error(
            f"unknown workload {args.workload!r}; "
            f"choose from {', '.join(WORKLOADS)}"
        )
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        document = measure(args, workload_cls, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    print(render(document))
    print("detail " + json.dumps(document["detail"], sort_keys=True))
    print(json.dumps(document["result"]))
    return 0 if document["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
