"""Deterministic discrete-event engine tying nodes, radio, attacker and IDS.

One ``Simulation`` owns an event heap keyed by (time, sequence number); all
randomness comes from named per-subsystem streams derived from the run seed
(topology, radio, mobility, jitter), so toggling one subsystem cannot perturb
another's draws.  Virtual time is integer milliseconds.

The MAC abstraction is thin: multicast frames (only ``dio`` and ``dis``) cost
one short airtime unit and are never retried; unicast frames strobe for a
long airtime per attempt until the destination acknowledges (attackers never
acknowledge), and a node that is mid-transmission cannot hear incoming
frames.  A ``Frame`` is a slotted dataclass, and a failed attempt re-queues
the same frame with its ``attempt`` bumped rather than building a new one.
Probe strobes have their own delivery handler, which re-queues a failed
strobe in place.  Every frame charges the congestion window of every node in
range of the sender.  Each sender's in-range receivers are kept as an exact
list, rebuilt at start and after every mobility step (the only times
positions change), so delivering a frame computes no distances.

Protocol timings are the fixed module constants below, not configuration:
unicast airtime, probe strobes and cooldown, data retries and backoff,
forwarding and DAO delays, and the mobility and detector timer periods.
"""

from __future__ import annotations

import enum
import heapq
import math
import random
from dataclasses import dataclass

from . import ids as ids_mod
from . import metrics as metrics_mod
from . import rpl
from .attack import AttackerState, attacker_step
from .config import ScenarioConfig
from .ids import ACCEPTED, DISCARDED, IdsState
from .radio import Mobility, Radio
from .rpl import DataPacket, DioMessage, NodeState, Role

UNICAST_AIRTIME_MS = 30  # duty-cycled unicast, strobe until the ack
PROBE_ATTEMPTS = 5
PROBE_COOLDOWN_MS = 1000
DATA_RETRIES = 1  # retransmissions per hop attempt chain
RETRY_BACKOFF_MS = 150
FWD_DELAY_MIN_MS = 20
FWD_DELAY_MAX_MS = 80
DAO_DELAY_MS = 100
MOBILITY_STEP_MS = 1000
IDS_TICK_MS = 1000


class EventKind(enum.IntEnum):
    MSG_DELIVERY = 0
    TRICKLE_FIRE = 1
    DATA_GEN = 2
    MOBILITY_STEP = 3
    ATTACK_STEP = 4
    IDS_TICK = 5
    SCRIPT = 6
    PROBE_DELIVERY = 7


@dataclass(slots=True)
class Frame:
    kind: str  # dio | dis | dao | dao_ack | probe | data
    src: int
    dst: int | None  # None = multicast
    payload: object = None
    airtime_ms: int = 0
    attempt: int = 1
    max_attempts: int = 1


def _stream(seed: int, name: str) -> random.Random:
    # string seeding hashes with sha512: stable across processes and runs
    return random.Random(f"{seed}/{name}")


class Simulation:
    def __init__(self, scenario: ScenarioConfig, seed: int):
        self.scenario = scenario
        self.seed = seed
        self.now = 0
        self._seq = 0
        self._heap: list[tuple[int, int, int, tuple]] = []
        self.trace: list[tuple] = []

        self.rng_topology = _stream(seed, "topology")
        self.rng_radio = _stream(seed, "radio")
        self.rng_jitter = _stream(seed, "jitter")

        self.radio = Radio(scenario.radio, self.rng_radio, scenario.n_nodes)
        self.nodes: dict[int, NodeState] = {}
        self.attackers: dict[int, AttackerState] = {}
        self._build_nodes()

        self.mobility = Mobility(
            scenario.mobility,
            lambda node_id: _stream(seed, f"mobility/{node_id}"),
            [n for n in sorted(self.nodes) if n != scenario.root_id],
        )

        self._tx_free_at = [0] * scenario.n_nodes  # when each transmitter idles
        self._rebuild_neighbor_cache()
        self._probe_done_at: dict[tuple[int, int], int] = {}

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

    def _build_nodes(self) -> None:
        scenario = self.scenario
        positions = self._build_positions()
        for node_id in range(scenario.n_nodes):
            if node_id == scenario.root_id:
                role = Role.ROOT
            elif node_id in scenario.sensor_ids:
                role = Role.SENSOR
            else:
                role = Role.ATTACKER
            node = NodeState(
                id=node_id,
                role=role,
                position=positions[node_id],
                objective=scenario.objective,
                dodag_id=scenario.root_id,
            )
            if scenario.ids_enabled and role is not Role.ATTACKER:
                node.ids = IdsState(scenario.ids)
            if role is Role.ATTACKER:
                self.attackers[node_id] = AttackerState(scenario.attacker)
            self.nodes[node_id] = node

    def _build_positions(self) -> dict[int, list[float]]:
        scenario = self.scenario
        if scenario.topology == "explicit":
            return {addr: [x, y] for addr, x, y in scenario.positions}
        w, h = scenario.mobility.area
        rng = self.rng_topology
        reach = scenario.radio.tx_range_m
        positions = {scenario.root_id: [w / 2.0, h / 2.0]}
        for _ in range(200):
            for sensor in scenario.sensor_ids:
                positions[sensor] = [rng.random() * w, rng.random() * h]
            if self._connected(positions, reach):
                break
        legit = [positions[i] for i in sorted(positions)]
        # well-connected legit nodes: their neighbor tables will be large
        # enough for the quartile fence to have any discriminating power
        anchors = [
            p
            for p in legit
            if sum(1 for q in legit if q is not p and math.dist(p, q) <= reach) >= 5
        ]
        # attackers go one per quadrant; each gets 100 tries to land within
        # 0.8 x range of an anchor no earlier attacker reaches, then keeps its
        # last candidate, which may have no anchor within 0.8 x range at all
        placed: list[list[float]] = []
        for index, attacker in enumerate(scenario.attacker_ids):
            qx, qy = index % 2, (index // 2) % 2
            candidate = None
            for _ in range(100):
                candidate = [
                    (qx + rng.random()) * w / 2.0,
                    (qy + rng.random()) * h / 2.0,
                ]
                victims = [
                    p for p in anchors if math.dist(candidate, p) <= 0.8 * reach
                ]
                if not victims:
                    continue
                private = [
                    p
                    for p in victims
                    if all(math.dist(other, p) > reach for other in placed)
                ]
                if private:
                    break
            positions[attacker] = candidate
            placed.append(candidate)
        return positions

    @staticmethod
    def _connected(positions: dict[int, list[float]], reach: float) -> bool:
        ids = sorted(positions)
        seen = {ids[0]}
        frontier = [ids[0]]
        while frontier:
            here = positions[frontier.pop()]
            for other in ids:
                if other not in seen and math.dist(here, positions[other]) <= reach:
                    seen.add(other)
                    frontier.append(other)
        return len(seen) == len(ids)

    def _schedule_initial(self) -> None:
        scenario = self.scenario
        for node_id in sorted(self.nodes):
            node = self.nodes[node_id]
            if node.role is Role.ATTACKER:
                continue
            fire = rpl.trickle_reset(node.trickle, 0, self.rng_jitter)
            self._schedule(fire, EventKind.TRICKLE_FIRE, (node_id, node.trickle.generation))
        for sensor in scenario.sensor_ids:
            offset = int(self.rng_jitter.random() * scenario.data_interval_ms)
            self._schedule(offset, EventKind.DATA_GEN, (sensor,))
        for attacker in scenario.attacker_ids:
            self._schedule(
                scenario.attacker.attack_start_ms, EventKind.ATTACK_STEP, (attacker,)
            )
        if self.mobility.mobile_ids:
            self._schedule(MOBILITY_STEP_MS, EventKind.MOBILITY_STEP, ())
        if scenario.ids_enabled:
            self._schedule(IDS_TICK_MS, EventKind.IDS_TICK, ())
        for at_ms, action in scenario.script:
            self._schedule(at_ms, EventKind.SCRIPT, (action,))

    # -- plumbing ----------------------------------------------------------

    def _schedule(self, t: int, kind: EventKind, payload: tuple) -> None:
        if t > self.scenario.duration_ms:
            return
        assert t >= self.now, "events may only be scheduled at >= current time"
        self._seq += 1
        heapq.heappush(self._heap, (t, self._seq, int(kind), payload))

    def _record(self, t: int, node: int, kind: str, *details) -> None:
        self.trace.append((t, node, kind, *details))

    def _rebuild_neighbor_cache(self) -> None:
        positions = [self.nodes[i].position for i in range(self.scenario.n_nodes)]
        self._in_range = self.radio.in_range_lists(positions)

    # -- transmission ------------------------------------------------------

    def _airtime(self, frame: Frame) -> int:
        if frame.dst is None:
            return self.scenario.radio.airtime_per_msg_ms
        if frame.kind == "probe":
            # probing an unresponsive candidate strobes its whole budget
            return self.scenario.radio.strobe_airtime_ms
        return UNICAST_AIRTIME_MS

    def _transmit(self, node: NodeState, frame: Frame, not_before: int, kind: int = 0) -> None:
        """Queue one frame on the node's transceiver (FIFO in call order).

        The hot path of every frame, so it pushes the ``kind`` delivery event
        itself with ``_schedule``'s rules: nothing past the run's end, never
        earlier than now.
        """
        airtime = frame.airtime_ms = self._airtime(frame)
        tx_free_at = self._tx_free_at
        end = tx_free_at[node.id] = max(not_before, tx_free_at[node.id]) + airtime
        if end > self.scenario.duration_ms:
            return
        assert end >= self.now, "events may only be scheduled at >= current time"
        self._seq += 1
        heapq.heappush(self._heap, (end, self._seq, kind, (frame,)))

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
                    self._apply_actions(node, rpl.handle_dis(node, self.now))
            return
        # an attacker target consumed its loss draw but never acknowledges
        acked = got and dst not in self.attackers
        if frame.kind == "data":
            self._data_outcome(self.nodes[frame.src], frame, acked)
        elif frame.kind == "dao" and acked:
            parent = self.nodes[dst]
            self._record(self.now, dst, "dao_ack_sent", frame.src)
            self._transmit(parent, Frame("dao_ack", dst, frame.src), self.now)
        # dao/dao_ack get no retries and no ETX accounting

    # -- reception ---------------------------------------------------------

    def _receive_dio(self, got: list[int], dio: DioMessage) -> None:
        """Attackers overhear; detectors drop a blocked sender's copy; RPL gets the rest."""
        now, src, nodes, attackers, trace = self.now, dio.src, self.nodes, self.attackers, self.trace
        for node_id in got:
            node = nodes[node_id]
            if node_id in attackers:
                distance = math.dist(node.position, nodes[src].position)
                attackers[node_id].overhear(dio, distance, now)
                continue
            if node.ids is not None:
                verdict = ids_mod.process_dio(node.ids, src, now)
                if verdict is DISCARDED:
                    trace.append((now, node_id, "ids_discard", src))
                    continue
                if verdict is not ACCEPTED:
                    for subject in verdict.newly_suspected:
                        trace.append((now, node_id, "ids_suspect", subject))
                    for subject in verdict.newly_blocked:
                        trace.append((now, node_id, "ids_block", subject))
                    if verdict.overflow:
                        trace.append((now, node_id, "ids_overflow", src))
            self._apply_actions(node, rpl.handle_dio(node, dio, now))

    def _apply_actions(self, node: NodeState, actions: list[tuple]) -> None:
        for action in actions:
            name = action[0]
            if name == "probe":
                self._maybe_probe(node, action[1])
            elif name == "trickle_reset":
                fire = rpl.trickle_reset(node.trickle, self.now, self.rng_jitter)
                self._schedule(
                    fire, EventKind.TRICKLE_FIRE, (node.id, node.trickle.generation)
                )
                self._record(self.now, node.id, "trickle_reset")
            elif name == "parent_switch":
                old = -1 if action[1] is None else action[1]
                self._record(self.now, node.id, "parent_switch", old, action[2])
                self._maybe_probe(node, action[2])  # validate the new link
            elif name == "parent_lost":
                self._record(self.now, node.id, "parent_lost")
            elif name == "send_dao":
                self._record(self.now, node.id, "dao_sent", action[1])
                frame = Frame("dao", node.id, action[1])
                self._transmit(node, frame, self.now + DAO_DELAY_MS)

    # -- probing -----------------------------------------------------------

    def _maybe_probe(self, node: NodeState, target: int) -> None:
        if target in node.probes_in_flight:
            return
        last = self._probe_done_at.get((node.id, target), -PROBE_COOLDOWN_MS)
        if last + PROBE_COOLDOWN_MS > self.now:
            return
        node.probes_in_flight.add(target)
        frame = Frame("probe", node.id, target, max_attempts=PROBE_ATTEMPTS)
        self._transmit(node, frame, self.now, int(EventKind.PROBE_DELIVERY))

    def _on_probe_delivery(self, frame: Frame) -> None:
        """One strobe: a failed attempt with budget left goes straight back on the air."""
        now, src, dst = self.now, frame.src, frame.dst
        tx_free_at = self._tx_free_at
        got = self.radio.deliver(now, frame.airtime_ms, self._in_range[src], tx_free_at, dst)
        acked = got and dst not in self.attackers  # attackers draw, never acknowledge
        if not acked and frame.attempt < frame.max_attempts:
            # the heap held the only reference: re-queue it as _transmit
            # would, at the airtime it already has, with _schedule's horizon
            frame.attempt += 1
            end = tx_free_at[src] = max(now, tx_free_at[src]) + frame.airtime_ms
            if end <= self.scenario.duration_ms:
                self._seq += 1
                heapq.heappush(self._heap, (end, self._seq, 7, (frame,)))  # PROBE_DELIVERY
            return
        self._probe_outcome(self.nodes[src], frame, acked)

    def _probe_outcome(self, node: NodeState, frame: Frame, acked: bool) -> None:
        node.probes_in_flight.discard(frame.dst)
        self._probe_done_at[(node.id, frame.dst)] = self.now
        self._apply_actions(node, rpl.note_probe_result(node, frame.dst, acked))

    # -- data path ---------------------------------------------------------

    def _generate_data(self, sensor_id: int) -> None:
        node = self.nodes[sensor_id]
        node.data_seq += 1
        packet = DataPacket(
            origin=sensor_id,
            seq=node.data_seq,
            created_ms=self.now,
            path=[sensor_id],
        )
        self._send_data_hop(node, packet, self.now)
        self._schedule(
            self.now + self.scenario.data_interval_ms, EventKind.DATA_GEN, (sensor_id,)
        )

    def _send_data_hop(self, node: NodeState, packet: DataPacket, not_before: int) -> None:
        origin_hop = node.id == packet.origin
        if origin_hop:
            self._record(self.now, node.id, "data_sent", packet.seq, 1)
        if node.preferred_parent is None:
            self._record(self.now, node.id, "data_drop", packet.origin, packet.seq, "no_parent")
            return
        frame = Frame(
            "data",
            node.id,
            node.preferred_parent,
            payload=packet,
            max_attempts=1 + DATA_RETRIES,
        )
        self._transmit(node, frame, not_before)

    def _data_outcome(self, node: NodeState, frame: Frame, acked: bool) -> None:
        packet: DataPacket = frame.payload
        if acked:
            self._apply_actions(
                node, rpl.note_link_outcome(node, frame.dst, frame.attempt, True)
            )
            self._forward_data(self.nodes[frame.dst], packet)
            return
        if frame.attempt < frame.max_attempts:
            if node.id == packet.origin:
                self._record(self.now, node.id, "data_sent", packet.seq, frame.attempt + 1)
            frame.attempt += 1
            jitter = int(self.rng_jitter.random() * RETRY_BACKOFF_MS)
            self._transmit(node, frame, self.now + RETRY_BACKOFF_MS + jitter)
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
            if ts.counter < ts.redundancy_k:
                dio = DioMessage(
                    src=node.id,
                    dodag_id=node.dodag_id,
                    version=node.version,
                    rank=node.rank,
                )
                self._record(self.now, node.id, "dio_sent", node.rank, node.version)
                self._transmit(node, Frame("dio", node.id, None, payload=dio), self.now)
        else:
            self._record(self.now, node.id, "dis_sent")
            self._transmit(node, Frame("dis", node.id, None), self.now)
        fire = rpl.trickle_after_fire(ts, self.now, self.rng_jitter)
        self._schedule(fire, EventKind.TRICKLE_FIRE, (node_id, ts.generation))

    def _on_attack_step(self, attacker_id: int) -> None:
        node = self.nodes[attacker_id]
        state = self.attackers[attacker_id]
        dio = attacker_step(node, state, self.now)
        if dio is not None:
            self._record(self.now, attacker_id, "dio_sent", dio.rank, dio.version)
            self._transmit(node, Frame("dio", attacker_id, None, payload=dio), self.now)
        self._schedule(
            self.now + state.config.replay_interval_ms,
            EventKind.ATTACK_STEP,
            (attacker_id,),
        )

    def _on_ids_tick(self) -> None:
        for node_id in sorted(self.nodes):
            node = self.nodes[node_id]
            if node.ids is not None:
                ids_mod.tick(node.ids, self.now)
        self._schedule(self.now + IDS_TICK_MS, EventKind.IDS_TICK, ())

    def _on_mobility_step(self) -> None:
        positions = {i: self.nodes[i].position for i in self.nodes}
        self.mobility.move(positions, MOBILITY_STEP_MS, self.now)
        self._rebuild_neighbor_cache()
        if self.scenario.trace_positions:
            for node_id in sorted(self.nodes):
                x, y = self.nodes[node_id].position
                self._record(self.now, node_id, "position", f"{x:.3f}", f"{y:.3f}")
        self._schedule(self.now + MOBILITY_STEP_MS, EventKind.MOBILITY_STEP, ())

    def _on_script(self, action: str) -> None:
        if action == "global_repair":
            root = self.nodes[self.scenario.root_id]
            rpl.global_repair(root)
            self._record(self.now, root.id, "global_repair", root.version)
            self._apply_actions(root, [("trickle_reset",)])
        else:
            raise ValueError(f"unknown script action: {action}")

    # -- main loop ---------------------------------------------------------

    def run(self) -> tuple["metrics_mod.RunMetrics", list[tuple]]:
        duration = self.scenario.duration_ms
        handlers = (  # indexed by EventKind value
            self._on_delivery,
            self._on_trickle_fire,
            self._generate_data,
            self._on_mobility_step,
            self._on_attack_step,
            self._on_ids_tick,
            self._on_script,
            self._on_probe_delivery,
        )
        heap = self._heap
        pop = heapq.heappop
        while heap:
            t, _, kind, payload = pop(heap)
            if t > duration:
                break
            assert t >= self.now
            self.now = t
            handlers[kind](*payload)
        return metrics_mod.from_trace(self.trace), self.trace


def run(scenario: ScenarioConfig, seed: int):
    """Run one replication; returns (metrics, trace)."""
    return Simulation(scenario, seed).run()
