"""Deterministic discrete-event engine tying nodes, radio, attacker and IDS.

One ``Simulation`` owns its pending events as time buckets: ``_buckets`` maps
each pending millisecond to a list of ``(handler, args)`` in scheduling order,
and a heap of ``(time, bucket)`` entries holds one entry per distinct time.
The run loop pops a time and calls its bucket front to back; an event
scheduled for the current time joins the end of the running bucket.  Events
therefore run in time order and first in, first out within a time, which is
the determinism rule.  Each event names the bound method that handles it, so
there is no table between event and code.  Many events share a time (the
probe strobes that a DIO replay sets off end together), so the heap orders
only the distinct times.

All randomness comes from named per-subsystem streams derived from the run
seed (topology, radio, mobility, jitter), so toggling one subsystem cannot
perturb another's draws.  Virtual time is integer milliseconds.

``Simulation.positions`` is the one owner of geometry: a list of ``[x, y]``
indexed by node id, built once by ``_build_positions`` (attackers where
``attack.place`` puts them) and read in place by the in-range lists,
mobility and the ``position`` records.  ``nodes`` holds RPL state for the
gateway and the sensors only; attackers live in ``attackers`` with their
captured DIO alone, and tick when ``attack.attacker_step`` says.  The
detectors sit beside RPL: ``detectors`` maps each protected node (the
gateway and the sensors) to its ``IdsState``, empty when the IDS is off.
A sensor's data sequence number rides on its ``_generate_data`` event.

The MAC abstraction is thin: multicast frames (only ``dio`` and ``dis``)
cost one short airtime unit and are never retried; unicast frames strobe for
a long airtime per attempt until the destination acknowledges, and a node
that is mid-transmission cannot hear incoming frames.  Whether a unicast was
acknowledged is the radio's answer: the engine builds its ``Radio`` with the
attacker ids as the addresses that never acknowledge.  A ``Frame`` is a
slotted dataclass, and a failed data attempt re-queues the same frame with
its ``attempt`` bumped rather than building a new one.  A link probe is
per-link state, not a frame: each (node, target) pair has one slotted
``Probe``, made on its first request and reused by every later chain of
strobes, and its ``ready_at`` is the time before which no new chain starts
(infinite while one is in flight, then the chain's end plus the cooldown).
Its strobes run in trains, below.  Every frame and strobe charges the
congestion window of every node in range of the sender; the radio applies
those charges when a draw in the same window reads a load, so every draw
sees the same load as if each frame were charged on arrival.  Each sender's
in-range receivers are kept as an exact list, computed on the sender's first
transmission after a mobility step (the only times positions change), so
every later frame of it computes no distances.  The radio may hold a row
until its frame's window ends, so rows are replaced (the cache is cleared),
never edited in place.

Probe strobes are most of an attack run's events, so the strobes that end in
the same millisecond and sit next to each other in its bucket are queued as
one event, a train, that runs them in queue order.  A train's args are the
list of its strobing probes itself (every other event's args are a tuple),
so a strobe joins a train exactly when that train is the last entry of its
end time's bucket, and otherwise starts a new train.  Nothing runs between
two adjacent strobes of a bucket, so running them from one event keeps first
in, first out within the millisecond, and every delivery, draw and record
stays in the same order.  While a train runs, a failed strobe goes straight
back on the air, into the train that the last re-queue joined if it ends at
the same time; that train is forgotten whenever a chain ends, because the
end of a chain may queue other events.

Protocol timings are the fixed module constants below, not configuration:
broadcast and unicast airtime, probe strobes and cooldown, data retries and
backoff, forwarding and DAO delays, and the mobility step.  The detector has
no timer here: ``ids.process_dio`` decides on each reception whether its
periodic check is due, and answers with its ``(kind, subject)`` events,
which ``_receive_dio`` records as they come, or ``None``, which it records
as an ``ids_discard`` before dropping the copy.
"""

from __future__ import annotations

import heapq
import logging
import math
import random
from collections.abc import Callable
from dataclasses import dataclass

from . import ids as ids_mod
from . import metrics as metrics_mod
from . import rpl
from .attack import AttackerState, attacker_step, place
from .config import ScenarioConfig
from .ids import IdsState
from .radio import Mobility, Radio
from .rpl import DioMessage, NodeState, Role

BROADCAST_AIRTIME_MS = 10  # multicast dio/dis, never retried
UNICAST_AIRTIME_MS = 30  # duty-cycled unicast, strobe until the ack
PROBE_ATTEMPTS = 5
PROBE_COOLDOWN_MS = 1000
DATA_RETRIES = 1  # retransmissions per hop attempt chain
RETRY_BACKOFF_MS = 150
FWD_DELAY_MIN_MS = 20
FWD_DELAY_MAX_MS = 80
DAO_DELAY_MS = 100
MOBILITY_STEP_MS = 1000
LAYOUT_TRIES = 200  # random sensor layouts drawn before giving up on connectivity

log = logging.getLogger("rplsim")


@dataclass(slots=True)
class Frame:
    kind: str  # dio | dis | dao | dao_ack | data; probes are ``Probe``s
    src: int
    dst: int | None  # None = multicast
    payload: object = None
    airtime_ms: int = 0
    attempt: int = 1


@dataclass(slots=True)
class Probe:
    """``src``'s link probe of ``dst``: one per pair, reused by every chain."""

    src: int
    dst: int
    attempt: int = 1
    # no new chain before this time: inf while one is in flight, then the
    # end of its chain plus the cooldown
    ready_at: float = 0


@dataclass
class DataPacket:
    origin: int
    seq: int
    created_ms: int
    path: list[int]


class _InRange(dict):
    """Sender id -> ``Radio.in_range`` row, computed on first lookup; clear when positions move."""

    def __init__(self, radio: Radio, positions: list[list[float]]):
        super().__init__()
        self.radio, self.positions = radio, positions

    def __missing__(self, node: int) -> list[int]:
        row = self[node] = self.radio.in_range(self.positions, node)
        return row


def _stream(seed: int, name: str) -> random.Random:
    # string seeding hashes with sha512: stable across processes and runs
    return random.Random(f"{seed}/{name}")


class Simulation:
    def __init__(self, scenario: ScenarioConfig, seed: int):
        self.scenario = scenario
        self.seed = seed
        self.now = 0
        self._end_ms = scenario.duration_ms  # nothing is scheduled past it
        # one heap entry per pending time; its bucket runs first in, first out
        self._heap: list[tuple[int, list[tuple[Callable, tuple]]]] = []
        self._buckets: dict[int, list[tuple[Callable, tuple]]] = {}
        self.trace: list[tuple] = []

        self.rng_topology = _stream(seed, "topology")
        self.rng_radio = _stream(seed, "radio")
        self.rng_jitter = _stream(seed, "jitter")

        # attackers replay DIOs but never acknowledge a unicast
        self.radio = Radio(
            scenario.radio, self.rng_radio, scenario.n_nodes, silent=scenario.attacker_ids
        )
        self.positions = self._build_positions()
        self.nodes: dict[int, NodeState] = {
            node_id: NodeState(
                id=node_id,
                role=Role.ROOT if node_id == scenario.root_id else Role.SENSOR,
            )
            for node_id in (scenario.root_id, *scenario.sensor_ids)
        }
        protected = self.nodes if scenario.ids_enabled else ()
        self.detectors = {node_id: IdsState(scenario.ids) for node_id in protected}
        self.attackers = {a: AttackerState(scenario.attacker) for a in scenario.attacker_ids}

        self.mobility = Mobility(
            scenario.mobility,
            lambda node_id: _stream(seed, f"mobility/{node_id}"),
            [n for n in range(scenario.n_nodes) if n != scenario.root_id],
        )

        self._tx_free_at = [0] * scenario.n_nodes  # when each transmitter idles
        self._in_range = _InRange(self.radio, self.positions)
        # node id -> target -> Probe; a request builds no key tuple
        self._probes: list[dict[int, Probe]] = [{} for _ in range(scenario.n_nodes)]

        self._record(
            0,
            -1,
            "run_info",
            scenario.name,
            seed,
            scenario.n_sensors,
            scenario.n_attackers,
            scenario.attacker.attack_start_ms,
            scenario.duration_ms,
            min(scenario.attacker_ids, default=-1),
        )
        self._schedule_initial()

    # -- construction ------------------------------------------------------

    def _build_positions(self) -> list[list[float]]:
        scenario = self.scenario
        if scenario.positions:
            return [[x, y] for _, x, y in sorted(scenario.positions)]
        w, h = scenario.mobility.area
        rng = self.rng_topology
        reach = scenario.radio.tx_range_m
        legit = [[w / 2.0, h / 2.0]]  # the root, then the sensors in id order
        for _ in range(LAYOUT_TRIES):
            legit[1:] = [[rng.random() * w, rng.random() * h] for _ in scenario.sensor_ids]
            neighbours = [self.radio.in_range(legit, node) for node in range(len(legit))]
            seen, frontier = {scenario.root_id}, [scenario.root_id]
            while frontier:
                fresh = [n for n in neighbours[frontier.pop()] if n not in seen]
                seen.update(fresh)
                frontier += fresh
            if len(seen) == len(legit):
                break
        else:
            raise ValueError(
                f"seed {self.seed}: no connected layout of {scenario.n_sensors} sensors "
                f"in {LAYOUT_TRIES} tries with tx_range_m = {reach}"
            )
        # anchors: legit nodes whose tables are big enough for the fence to discriminate
        anchors = [p for p, near in zip(legit, neighbours) if len(near) >= 5]
        placed, stranded = place(anchors, reach, scenario.mobility.area, scenario.n_attackers, rng)
        for index in stranded:
            log.warning(
                "seed %d: attacker %d has no well-connected node within 0.8 x range",
                self.seed,
                scenario.attacker_ids[index],
            )
        return legit + placed

    def _schedule_initial(self) -> None:
        scenario = self.scenario
        for node_id, node in self.nodes.items():
            fire = rpl.trickle_reset(node.trickle, 0, self.rng_jitter)
            self._schedule(fire, self._on_trickle_fire, (node_id, node.trickle.generation))
        for sensor in scenario.sensor_ids:
            offset = int(self.rng_jitter.random() * scenario.data_interval_ms)
            self._schedule(offset, self._generate_data, (sensor, 1))
        for attacker in scenario.attacker_ids:
            # asked before time 0 it names its first tick, so a tick at 0 runs in queue order
            _, first_ms = attacker_step(attacker, self.attackers[attacker], -1)
            self._schedule(first_ms, self._on_attack_step, (attacker,))
        if self.mobility.mobile_ids:
            self._schedule(MOBILITY_STEP_MS, self._on_mobility_step, ())
        for at_ms in scenario.global_repairs_ms:
            self._schedule(at_ms, self._on_global_repair, ())

    # -- plumbing ----------------------------------------------------------

    def _schedule(self, t: int, handler: Callable, args: tuple) -> None:
        """Queue ``handler(*args)`` at ``t``; nothing past the run's end."""
        if t > self._end_ms:
            return
        assert t >= self.now, "events may only be scheduled at >= current time"
        bucket = self._buckets.get(t)
        if bucket is None:
            bucket = self._buckets[t] = []
            heapq.heappush(self._heap, (t, bucket))
        bucket.append((handler, args))

    def _record(self, t: int, node: int, kind: str, *details) -> None:
        self.trace.append((t, node, kind, *details))

    # -- transmission ------------------------------------------------------

    def _reserve(self, src: int, airtime_ms: int, not_before: int) -> int:
        """Queue ``airtime_ms`` on ``src``'s transceiver (FIFO in call order);
        returns when that airtime ends."""
        tx_free_at = self._tx_free_at
        end = tx_free_at[src] = max(not_before, tx_free_at[src]) + airtime_ms
        return end

    def _transmit(self, frame: Frame, not_before: int) -> None:
        """Send a multicast or unicast frame; ``_on_delivery`` runs when its
        airtime ends."""
        frame.airtime_ms = BROADCAST_AIRTIME_MS if frame.dst is None else UNICAST_AIRTIME_MS
        end = self._reserve(frame.src, frame.airtime_ms, not_before)
        self._schedule(end, self._on_delivery, (frame,))

    def _on_delivery(self, frame: Frame) -> None:
        dst = frame.dst
        got = self.radio.deliver(
            self.now, frame.airtime_ms, self._in_range[frame.src], self._tx_free_at, dst
        )
        if dst is None:
            if frame.kind == "dio":
                self._receive_dio(got, frame.payload)
            else:  # dis: attackers ignore solicitations
                for node in (self.nodes[i] for i in got if i not in self.attackers):
                    self._apply_actions(node, rpl.handle_dis(node))
            return
        # a unicast's result is whether its addressee acknowledged
        if frame.kind == "data":
            self._data_outcome(self.nodes[frame.src], frame, got)
        elif frame.kind == "dao" and got:
            self._record(self.now, dst, "dao_ack_sent", frame.src)
            self._transmit(Frame("dao_ack", dst, frame.src), self.now)
        # dao/dao_ack get no retries and no ETX accounting

    # -- reception ---------------------------------------------------------

    def _receive_dio(self, got: list[int], dio: DioMessage) -> None:
        """Attackers overhear; detectors drop a blocked sender's copy; RPL gets the rest."""
        now, src, nodes, attackers, trace = self.now, dio.src, self.nodes, self.attackers, self.trace
        detectors = self.detectors
        for node_id in got:
            if node_id in attackers:
                attackers[node_id].overhear(dio)
                continue
            detector = detectors.get(node_id)
            if detector is not None:
                events = ids_mod.process_dio(detector, src, now)
                if events is None:
                    trace.append((now, node_id, "ids_discard", src))
                    continue
                for kind, subject in events:
                    trace.append((now, node_id, kind, subject))
            node = nodes[node_id]
            self._apply_actions(node, rpl.handle_dio(node, dio))

    def _apply_actions(self, node: NodeState, actions: list[tuple]) -> None:
        for action in actions:
            name = action[0]
            if name == "probe":
                self._maybe_probe(node, action[1])
            elif name == "trickle_reset":
                fire = rpl.trickle_reset(node.trickle, self.now, self.rng_jitter)
                self._schedule(fire, self._on_trickle_fire, (node.id, node.trickle.generation))
                self._record(self.now, node.id, "trickle_reset")
            elif name == "parent_switch":
                old = -1 if action[1] is None else action[1]
                self._record(self.now, node.id, "parent_switch", old, action[2])
                self._maybe_probe(node, action[2])  # validate the new link
            elif name == "parent_lost":
                self._record(self.now, node.id, "parent_lost")
            elif name == "send_dao":
                self._record(self.now, node.id, "dao_sent", action[1])
                self._transmit(Frame("dao", node.id, action[1]), self.now + DAO_DELAY_MS)

    # -- probing -----------------------------------------------------------

    def _maybe_probe(self, node: NodeState, target: int) -> None:
        probes = self._probes[node.id]
        probe = probes.get(target)
        if probe is None:
            probe = probes[target] = Probe(node.id, target)
        elif probe.ready_at > self.now:
            return
        probe.ready_at = math.inf
        probe.attempt = 1
        # probing an unresponsive candidate strobes its whole budget
        end = self._reserve(node.id, self.scenario.radio.strobe_airtime_ms, self.now)
        self._queue_strobe(probe, end)

    def _queue_strobe(self, probe: Probe, end: int) -> list[Probe]:
        """Queue a strobe ending at ``end``: at the train that is the last
        entry of that time's bucket, else as a new train.  Returns the train,
        which later strobes ending at ``end`` may join while nothing else is
        queued."""
        bucket = self._buckets.get(end)
        if bucket is not None:
            last = bucket[-1][1]
            if last.__class__ is list:  # only a strobe train's args are a list
                last.append(probe)
                return last
        train = [probe]
        self._schedule(end, self._on_strobe_train, train)
        return train

    def _on_strobe_train(self, *train: Probe) -> None:
        """Run the strobes of one train in order; a failed one with budget left
        goes straight back on the air."""
        now, tx_free_at, in_range = self.now, self._tx_free_at, self._in_range
        deliver = self.radio.deliver
        strobe_ms = self.scenario.radio.strobe_airtime_ms
        # the train the last re-queue joined, and its end time; nothing else
        # is queued until a chain ends
        tail, tail_end = None, None
        for probe in train:
            src = probe.src
            acked = deliver(now, strobe_ms, in_range[src], tx_free_at, probe.dst)
            if acked or probe.attempt >= PROBE_ATTEMPTS:
                tail = tail_end = None
                # the cooldown is set before the result is applied, which
                # may ask for a probe of the same target
                probe.ready_at = now + PROBE_COOLDOWN_MS
                node = self.nodes[src]
                self._apply_actions(node, rpl.note_probe_result(node, probe.dst, acked))
                continue
            # _reserve's end time, computed here: a re-queue ending when the
            # last one did joins its train without a call (strobes are most
            # events of an attack run)
            probe.attempt += 1
            free = tx_free_at[src]
            end = tx_free_at[src] = (free if free > now else now) + strobe_ms
            if end == tail_end:
                tail.append(probe)
            else:
                tail, tail_end = self._queue_strobe(probe, end), end

    # -- data path ---------------------------------------------------------

    def _generate_data(self, sensor_id: int, seq: int) -> None:
        packet = DataPacket(origin=sensor_id, seq=seq, created_ms=self.now, path=[sensor_id])
        self._send_data_hop(self.nodes[sensor_id], packet, self.now)
        self._schedule(
            self.now + self.scenario.data_interval_ms, self._generate_data, (sensor_id, seq + 1)
        )

    def _send_data_hop(self, node: NodeState, packet: DataPacket, not_before: int) -> None:
        origin_hop = node.id == packet.origin
        if origin_hop:
            self._record(self.now, node.id, "data_sent", packet.seq, 1)
        if node.preferred_parent is None:
            self._record(self.now, node.id, "data_drop", packet.origin, packet.seq, "no_parent")
            return
        self._transmit(Frame("data", node.id, node.preferred_parent, payload=packet), not_before)

    def _data_outcome(self, node: NodeState, frame: Frame, acked: bool) -> None:
        packet: DataPacket = frame.payload
        if acked:
            self._apply_actions(
                node, rpl.note_link_outcome(node, frame.dst, frame.attempt, True)
            )
            self._forward_data(self.nodes[frame.dst], packet)
            return
        if frame.attempt <= DATA_RETRIES:
            if node.id == packet.origin:
                self._record(self.now, node.id, "data_sent", packet.seq, frame.attempt + 1)
            frame.attempt += 1
            jitter = int(self.rng_jitter.random() * RETRY_BACKOFF_MS)
            self._transmit(frame, self.now + RETRY_BACKOFF_MS + jitter)
            return
        self._apply_actions(
            node, rpl.note_link_outcome(node, frame.dst, frame.attempt, False)
        )
        self._record(self.now, node.id, "data_drop", packet.origin, packet.seq, "link_loss")

    def _forward_data(self, node: NodeState, packet: DataPacket) -> None:
        if node.role is Role.ROOT:
            self._record(
                self.now, node.id, "data_delivered", packet.origin, packet.seq, packet.created_ms
            )
            return
        if node.id in packet.path:
            self._record(self.now, node.id, "loop_drop", packet.origin, packet.seq)
            return
        packet.path.append(node.id)
        delay = FWD_DELAY_MIN_MS + int(
            self.rng_jitter.random() * (FWD_DELAY_MAX_MS - FWD_DELAY_MIN_MS)
        )
        self._send_data_hop(node, packet, self.now + delay)

    # -- timers ------------------------------------------------------------

    def _on_trickle_fire(self, node_id: int, generation: int) -> None:
        node = self.nodes[node_id]
        ts = node.trickle
        if generation != ts.generation:
            return  # superseded by a reset
        if node.joined:
            if ts.counter < rpl.TRICKLE_K:
                dio = DioMessage(src=node.id, version=node.version, rank=node.rank)
                self._record(self.now, node.id, "dio_sent", node.rank, node.version)
                self._transmit(Frame("dio", node.id, None, payload=dio), self.now)
        else:
            self._record(self.now, node.id, "dis_sent")
            self._transmit(Frame("dis", node.id, None), self.now)
        fire = rpl.trickle_after_fire(ts, self.now, self.rng_jitter)
        self._schedule(fire, self._on_trickle_fire, (node_id, ts.generation))

    def _on_attack_step(self, attacker_id: int) -> None:
        dio, next_ms = attacker_step(attacker_id, self.attackers[attacker_id], self.now)
        if dio is not None:
            self._record(self.now, attacker_id, "dio_sent", dio.rank, dio.version)
            self._transmit(Frame("dio", attacker_id, None, payload=dio), self.now)
        self._schedule(next_ms, self._on_attack_step, (attacker_id,))

    def _on_mobility_step(self) -> None:
        self.mobility.move(self.positions, MOBILITY_STEP_MS, self.now)
        self._in_range.clear()
        if self.scenario.trace_positions:
            for node_id, (x, y) in enumerate(self.positions):
                self._record(self.now, node_id, "position", f"{x:.3f}", f"{y:.3f}")
        self._schedule(self.now + MOBILITY_STEP_MS, self._on_mobility_step, ())

    def _on_global_repair(self) -> None:
        root = self.nodes[self.scenario.root_id]
        actions = rpl.global_repair(root)
        self._record(self.now, root.id, "global_repair", root.version)
        self._apply_actions(root, actions)

    # -- main loop ---------------------------------------------------------

    def run(self) -> tuple["metrics_mod.RunMetrics", list[tuple]]:
        heap, buckets = self._heap, self._buckets
        pop = heapq.heappop
        while heap:
            t, bucket = pop(heap)
            self.now = t
            for handler, args in bucket:  # grows while it runs: events at now
                handler(*args)
            del buckets[t]
        return metrics_mod.from_trace(self.trace), self.trace


def run(scenario: ScenarioConfig, seed: int):
    """Run one replication; returns (metrics, trace)."""
    return Simulation(scenario, seed).run()
