"""The benchmark's workloads: what each one builds, runs and reports.

Every workload runs on a deterministic clock — the discrete-event
simulator, or the live runtime on :class:`~repro.runtime.clock.
VirtualClockEventLoop` — so the offered load is open-loop in simulated
time and a given seed always produces the same protocol outcome.  Only
wall time depends on how fast the program runs.

The workload seed reaches the program through
``ScenarioSpec.scaled(seed=...)``; nothing else about the inputs varies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Tuple


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    Attributes:
        name: the ``--workload`` name.
        scenario: built-in scenario from :mod:`repro.scenarios.library`.
        engine: ``"sim"`` (:class:`~repro.core.system.StreamingSystem`),
            ``"live"`` (:class:`~repro.runtime.swarm.LiveSwarm`) or
            ``"hybrid"`` (:class:`~repro.runtime.slim.HybridSwarm`), the
            last two on the virtual clock.
        num_nodes: overlay size (for ``"hybrid"`` the total population,
            live core plus slim tier).
        rounds: scheduling periods per run.
        instances: distinct scenario instances (sub-seeds) one benchmark
            run covers; the protocol's figures are pooled over them, so
            one run's result does not hinge on a single topology.
        idle_layers: traced layers this workload must never call; the
            traced run fails its correctness check if one is called.
        setups: builds timed per repetition; ``setup_s`` is the median
            of all of them, so a workload that builds in a few
            milliseconds times more builds.
    """

    name: str
    scenario: str
    engine: str
    num_nodes: int
    rounds: int
    instances: int
    idle_layers: Tuple[str, ...] = ()
    setups: int = 3


#: Layers of the live runtime; the simulator must never reach them.
RUNTIME_LAYERS = (
    "runtime.wire.encode",
    "runtime.wire.encode_batch",
    "runtime.wire.decode",
    "runtime.transport.inbox_put",
    "runtime.links.send",
    "runtime.slim.step",
)

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="sim-dynamic",
            scenario="paper-dynamic",
            engine="sim",
            num_nodes=200,
            rounds=16,
            instances=6,
            idle_layers=RUNTIME_LAYERS,
        ),
        Workload(
            name="live-static",
            scenario="static",
            engine="live",
            num_nodes=200,
            rounds=10,
            instances=3,
            idle_layers=("core.overlay.repair", "runtime.slim.step"),
        ),
        Workload(
            name="hybrid-flash-1m",
            scenario="flash-crowd",
            engine="hybrid",
            num_nodes=1_000_050,
            rounds=15,
            instances=3,
            setups=9,
        ),
    )
}


def instance_seed(seed: int, instance: int) -> int:
    """Scenario seed of instance ``instance`` of benchmark seed ``seed``."""
    return seed * 100 + instance


def setup(workload: Workload, seed: int) -> Any:
    """Build the workload's system, ready to run: spec, overlay, peers."""
    from repro.scenarios import builtin_scenario

    spec = builtin_scenario(workload.scenario).scaled(
        num_nodes=workload.num_nodes, rounds=workload.rounds, seed=seed
    )
    if workload.engine == "sim":
        return spec.build_system().build()
    from repro.runtime import HybridSwarm, LiveSwarm

    swarm_cls = HybridSwarm if workload.engine == "hybrid" else LiveSwarm
    return swarm_cls(spec, clock="virtual").build()


def summarize(workload: Workload, system: Any, result: Any) -> Dict[str, Any]:
    """The run's outcome as plain numbers.

    ``attempted`` counts peer-periods (one peer attempting one period of
    playback, the tracker's ``nodes_sampled``); ``failed`` counts the
    stalled ones.  ``live_peer_periods`` counts only peers that exchange
    wire frames (all of them on ``live``, the core on ``hybrid``) and is
    the base of the per-peer-period traffic figures.
    """
    from repro.net.message import MessageKind

    tracker = result.tracker
    attempted = sum(tracker.nodes_sampled)
    played = sum(
        round(c * n) for c, n in zip(tracker.continuity, tracker.nodes_sampled)
    )
    out: Dict[str, Any] = {
        "attempted": int(attempted),
        "failed": int(attempted - played),
        "stable_continuity": result.stable_continuity(),
        "control_overhead": result.control_overhead(),
        "prefetch_overhead": result.prefetch_overhead(),
        "continuity_series": list(tracker.continuity),
        "slim_peer_periods": 0,
        "slim_bytes": 0,
        "slim_peers": 0,
    }
    if workload.engine == "sim":
        ledger = system.ledger
        # No wire: the paper's message-size model stands in for it.
        out.update(
            messages_sent=ledger.total_count(),
            bytes_on_wire=ledger.total_bits() / 8.0,
            peers_left=sum(r.nodes_left for r in result.rounds),
            segments_scheduled_delivered=ledger.count_of(MessageKind.DATA_SCHEDULED),
            transport={},
        )
    else:
        out.update(
            messages_sent=result.messages_sent,
            bytes_on_wire=result.bytes_on_wire,
            peers_left=result.peers_left,
            segments_scheduled_delivered=result.ledger.count_of(
                MessageKind.DATA_SCHEDULED
            ),
            transport=result.transport.to_dict(),
        )
        if workload.engine == "hybrid":
            out.update(
                slim_peer_periods=sum(total for _, total in system.slim.history),
                slim_bytes=system.slim.memory_bytes,
                slim_peers=system.slim.count,
                total_peers=result.fidelity["total_peers"],
            )
    out["live_peer_periods"] = out["attempted"] - out["slim_peer_periods"]
    return out


#: Outcome fields that must repeat exactly for a given seed — across
#: fresh processes, and between a traced and an untraced run.
DETERMINISTIC_FIELDS = (
    "attempted",
    "failed",
    "stable_continuity",
    "control_overhead",
    "prefetch_overhead",
    "messages_sent",
    "bytes_on_wire",
    "continuity_series",
    "transport",
)


def sanity_errors(workload: Workload, outcome: Dict[str, Any]) -> list:
    """Plausibility checks on one run's outcome; returns error strings."""
    errors = []
    if outcome["attempted"] <= 0:
        errors.append("no peer-period was attempted")
    if not 0.0 < outcome["stable_continuity"] <= 1.0:
        errors.append(f"stable continuity {outcome['stable_continuity']} outside (0, 1]")
    for key in ("control_overhead", "prefetch_overhead"):
        if not 0.0 < outcome[key] < 1.0:
            errors.append(f"{key} {outcome[key]} outside (0, 1)")
    if outcome["messages_sent"] <= 0 or outcome["bytes_on_wire"] <= 0:
        errors.append("no traffic was recorded")
    if outcome["segments_scheduled_delivered"] <= 0:
        errors.append("no segment was delivered by the data scheduler")
    if len(outcome["continuity_series"]) != workload.rounds:
        errors.append(
            f"{len(outcome['continuity_series'])} periods recorded, "
            f"expected {workload.rounds}"
        )
    if workload.engine == "hybrid" and outcome.get("total_peers") != workload.num_nodes:
        errors.append(
            f"hybrid population {outcome.get('total_peers')} != {workload.num_nodes}"
        )
    return errors
