"""The repository's benchmark: one workload, one seed, checked results.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each repetition runs in a fresh,
single-threaded ``worker.py`` process, one at a time, so memory and
set-up time never carry over from an earlier run.

``--trace 0`` runs each of the workload's scenario instances (sub-seeds
of ``--seed``), then repeats them in turn while another repetition fits
in ``--seconds``, at least once, and reports the end-to-end metrics:
throughput and set-up time in seconds at the nominal host speed of
:mod:`hostspeed` (every repetition samples the host while it runs),
memory as the median over the repetitions, the protocol's figures pooled
over the instances.  ``--trace 1`` runs the first instance once untraced
and once with every layer wrapped by :mod:`tracer`, and reports the
per-layer metrics.

Correctness: every repetition of a seed, traced or not, must reproduce
the run's outcome exactly (the clock is virtual, so it is
deterministic), the outcome must pass :func:`workloads.sanity_errors`,
and a traced run must account for its whole wall time and leave the
workload's idle layers uncalled.  The last line printed is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the exit code
is 1 when a check failed, 2 when the benchmark could not run at all.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from hostspeed import speed  # noqa: E402
from workloads import (  # noqa: E402
    DETERMINISTIC_FIELDS,
    WORKLOADS,
    Workload,
    instance_seed,
    sanity_errors,
)

#: Wall-time limit of one benchmark run: a worker still running when it
#: expires is stopped and the run fails.
RUN_LIMIT_S = 170.0
#: Where traced runs leave their spans and every run its full record.
OUT_DIR = HERE / "out"


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def spawn(
    workload: Workload, seed: int, deadline: float, spans: Optional[Path] = None,
    host_speed: bool = False,
) -> Dict[str, Any]:
    """Run one repetition in a fresh worker process; returns its report.

    ``spans`` traces the run into that file; ``host_speed`` samples the
    host's speed beside it.  The worker is stopped if it is still running
    at ``deadline`` (a ``time.perf_counter`` value)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", workload.name, "--seed", str(seed)]
    if spans is not None:
        cmd += ["--trace", str(spans)]
    if host_speed:
        cmd.append("--host-speed")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.perf_counter()),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"run exceeded its {RUN_LIMIT_S:.0f} s limit") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(
            f"worker exited with {proc.returncode}:\n{proc.stderr[-3000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def reproduction_errors(label: str, first: Dict[str, Any], other: Dict[str, Any]) -> List[str]:
    """Fields of ``other``'s outcome that differ from ``first``'s."""
    a, b = first["outcome"], other["outcome"]
    return [
        f"{label}: {field} differs ({a[field]!r:.80} vs {b[field]!r:.80})"
        for field in DETERMINISTIC_FIELDS
        if a[field] != b[field]
    ]


def metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


# ------------------------------------------------------------- untraced run
def end_to_end(workload: Workload, seed: int, seconds: float):
    """Run every instance, then repeat them in turn while another
    repetition still fits in ``seconds``; at least one repeat checks
    reproduction."""
    seeds = [instance_seed(seed, i) for i in range(workload.instances)]
    started = time.perf_counter()
    deadline = started + RUN_LIMIT_S
    reps: List[Dict[str, Any]] = []
    while True:
        reps.append(
            spawn(workload, seeds[len(reps) % len(seeds)], deadline, host_speed=True)
        )
        elapsed = time.perf_counter() - started
        if len(reps) > len(seeds) and elapsed * (len(reps) + 1) / len(reps) > seconds:
            break
    firsts = reps[: len(seeds)]
    errors = []
    for i, rep in enumerate(reps):
        if i < len(seeds):
            errors += sanity_errors(workload, rep["outcome"])
        else:
            errors += reproduction_errors(
                f"repeat of seed {rep['seed']}", firsts[i % len(seeds)], rep
            )
    outcomes = [r["outcome"] for r in firsts]
    # Each instance's run time at nominal host speed, the median over its
    # repetitions, so an instance counts once however often it repeated.
    run_s = [
        statistics.median(
            r["wall_s"] * speed(*r["run_chunks"]) for r in reps[i :: len(seeds)]
        )
        for i in range(len(seeds))
    ]
    # A build lasts a few chunk intervals, so the host's speed during the
    # builds is pooled over the whole run.
    setup_speed = speed(
        sum(r["setup_chunks"][0] for r in reps), sum(r["setup_chunks"][1] for r in reps)
    )
    metrics = {
        "peer_periods_per_s": metric(
            sum(o["attempted"] for o in outcomes) / sum(run_s), "1/s"
        ),
        "stable_continuity": metric(
            statistics.fmean(o["stable_continuity"] for o in outcomes), "ratio"
        ),
        "control_overhead": metric(
            statistics.fmean(o["control_overhead"] for o in outcomes), "ratio"
        ),
        "wire_bytes_per_peer_period": metric(
            sum(o["bytes_on_wire"] for o in outcomes)
            / sum(o["live_peer_periods"] for o in outcomes), "B"
        ),
        "setup_s": metric(
            statistics.median(s for r in reps for s in r["setup_s"]) * setup_speed, "s"
        ),
        "peak_rss_mb": metric(statistics.median(r["peak_rss_mb"] for r in reps), "MB"),
    }
    # Operations are the instances' distinct peer-periods; repeats only
    # reproduce them, so the count does not depend on machine speed.
    attempted = sum(o["attempted"] for o in outcomes)
    failed = sum(o["failed"] for o in outcomes)
    return reps, metrics, attempted, failed, errors


# --------------------------------------------------------------- traced run
def per_layer(workload: Workload, seed: int):
    OUT_DIR.mkdir(exist_ok=True)
    seed = instance_seed(seed, 0)
    deadline = time.perf_counter() + RUN_LIMIT_S
    base = spawn(workload, seed, deadline)
    traced = spawn(
        workload, seed, deadline, OUT_DIR / f"spans-{workload.name}-seed{seed}.npz"
    )
    errors = sanity_errors(workload, base["outcome"])
    errors += reproduction_errors("traced run", base, traced)

    layers, counters = traced["layers"], traced["counters"]
    o, t = traced["outcome"], traced["outcome"]["transport"]
    live = workload.engine != "sim"

    def calls(name: str) -> int:
        return layers.get(name, {}).get("calls", 0)

    def count(key: str) -> float:
        return counters.get(key, 0.0)

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    m: Dict[str, Dict[str, Any]] = {
        "scenarios.build_s": metric(statistics.median(traced["setup_s"]), "s"),
    }
    timed = (
        "sim.step", "core.schedule", "core.predict", "core.ondemand.retrieve",
        "dht.route", "membership.overhear", "core.overlay.repair",
        "runtime.wire.encode", "runtime.wire.encode_batch", "runtime.wire.decode",
        "runtime.transport.inbox_put", "runtime.links.send", "runtime.slim.step",
    )
    for name in timed:
        m[f"{name}.calls"] = metric(calls(name), "count")
        m[f"{name}.self_s"] = metric(layers.get(name, {}).get("self_s", 0.0), "s")
    m["core.candidates.self_s"] = metric(
        layers.get("core.candidates", {}).get("self_s", 0.0), "s"
    )
    dropped = (
        t.get("inbox_dropped_data", 0) + t.get("inbox_dropped_control", 0)
        + t.get("pending_shed", 0)
    )
    m.update({
        "core.request_yield": metric(
            ratio(o["segments_scheduled_delivered"], count("core.schedule.requests")), "ratio"),
        "core.predict.trigger_ratio": metric(
            ratio(count("core.predict.triggered"), calls("core.predict")), "ratio"),
        "core.ondemand.prefetch_overhead": metric(o["prefetch_overhead"], "ratio"),
        "core.ondemand.waste_ratio": metric(
            ratio(count("core.ondemand.wasted"), count("core.ondemand.prefetches")), "ratio"),
        "dht.route.hops_mean": metric(
            ratio(count("dht.route.hops"), calls("dht.route")), "hops"),
        "dht.route.success_ratio": metric(
            ratio(count("dht.route.succeeded"), calls("dht.route")), "ratio"),
        "runtime.wire.frames_per_batch": metric(
            ratio(count("runtime.wire.batch_frames_in"),
                  count("runtime.wire.batch_frames_out")), "frames"),
        "runtime.wire.gossip_delta_ratio": metric(
            ratio(t.get("gossip_bytes", 0), t.get("gossip_bytes_full", 0)), "ratio"),
        "runtime.transport.inbox_high_watermark": metric(
            t.get("inbox_high_watermark", 0), "frames"),
        "runtime.transport.send_stalls": metric(t.get("send_stalls", 0), "count"),
        "runtime.transport.credits_granted": metric(t.get("credits_granted", 0), "count"),
        "runtime.transport.dropped": metric(dropped, "frames"),
        "runtime.transport.drop_ratio": metric(
            ratio(dropped, o["messages_sent"]) if live else 0.0, "ratio"),
        "runtime.peer.messages_per_peer_period": metric(
            ratio(o["messages_sent"], o["live_peer_periods"]) if live else 0.0, "msgs"),
        "runtime.peer.map_desyncs": metric(t.get("map_desyncs", 0), "count"),
        "runtime.peer.map_desync_ratio": metric(
            ratio(t.get("map_desyncs", 0), t.get("map_deltas_sent", 0)), "ratio"),
        "runtime.peer.link_resets": metric(t.get("link_resets", 0), "count"),
        "runtime.peer.link_resets_per_departure": metric(
            ratio(t.get("link_resets", 0), o["peers_left"]) if live else 0.0, "ratio"),
        "runtime.slim.bytes_per_peer": metric(ratio(o["slim_bytes"], o["slim_peers"]), "B"),
        "playback.stall_ratio": metric(ratio(o["failed"], o["attempted"]), "ratio"),
    })

    wall = traced["wall_s"]
    self_total = sum(entry["self_s"] for entry in layers.values())
    other = wall - self_total
    m["runtime.other_s"] = metric(other, "s")
    m["runtime.wall_s"] = metric(wall, "s")
    m["obs.trace_overhead_ratio"] = metric(wall / base["wall_s"], "ratio")

    tolerance = 1e-6 * max(1.0, wall)
    roots = traced["roots"]
    if abs(self_total - roots["root_s"]) > tolerance or roots["max_overlap_s"] > tolerance:
        errors.append(
            f"span accounting broken: self times {self_total:.6f} s, root spans "
            f"{roots['root_s']:.6f} s, worst root overlap {roots['max_overlap_s']:.2e} s"
        )
    if other < -tolerance:
        errors.append(f"self times {self_total:.6f} s exceed the run's wall {wall:.6f} s")
    for name in workload.idle_layers:
        if calls(name):
            errors.append(f"{name} was called {calls(name)} times; {workload.name} must not reach it")
    return [base, traced], m, o["attempted"], o["failed"], errors


def print_layers(traced: Dict[str, Any]) -> None:
    layers = traced["layers"]
    print(f"  {'layer':30} {'calls':>10} {'self_s':>10}")
    for name in sorted(layers, key=lambda n: -layers[n]["self_s"]):
        if not layers[name]["calls"]:
            continue
        print(f"  {name:30} {layers[name]['calls']:>10} {layers[name]['self_s']:>10.4f}")
    for name in traced.get("unhooked") or ():
        print(f"  {name:30} {'unhooked':>10}")
    self_total = sum(entry["self_s"] for entry in layers.values())
    print(
        f"  self times {self_total:.4f} s + other {traced['wall_s'] - self_total:.4f} s"
        f" = run wall {traced['wall_s']:.4f} s"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source under {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    try:
        if args.trace:
            reps, metrics, attempted, failed, errors = per_layer(workload, args.seed)
        else:
            reps, metrics, attempted, failed, errors = end_to_end(
                workload, args.seed, args.seconds
            )
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = [m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]]
    if sorted(expected) != sorted(metrics):
        print(f"perfbench: metrics {sorted(metrics)} do not match BENCHMARK.json "
              f"{sorted(expected)}", file=sys.stderr)
        return 2

    platform = {"nproc": os.cpu_count(), "python": reps[0]["python"], "numpy": reps[0]["numpy"]}
    print(
        f"perfbench {workload.name} seed={args.seed} trace={args.trace} "
        f"repetitions={len(reps)} nproc={platform['nproc']} "
        f"python={platform['python']} numpy={platform['numpy']}"
    )
    if args.trace:
        print_layers(reps[1])
    else:
        speeds = [speed(*r["run_chunks"]) for r in reps]
        raw = sum(r["outcome"]["attempted"] for r in reps) / sum(r["wall_s"] for r in reps)
        print(f"  host speed {min(speeds):.3f}-{max(speeds):.3f} of nominal; "
              f"throughput at the host's own speed {raw:.6g} 1/s")
    for name, entry in metrics.items():
        print(f"  {name:42} {entry['value']:>16.6g} {entry['unit']}")
    for error in errors:
        print(f"CHECK FAILED: {error}")
    print(f"checks: {'ok' if not errors else f'{len(errors)} failed'}")

    result = {
        "correct": not errors,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    }
    OUT_DIR.mkdir(exist_ok=True)
    record = dict(result, workload=workload.name, seed=args.seed, trace=args.trace,
                  platform=platform, errors=errors, repetitions=reps)
    (OUT_DIR / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8"
    )
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
