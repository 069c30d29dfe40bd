"""Engine-level tests: determinism, stream isolation, topology invariants."""

from __future__ import annotations

import gc
import math
import types
import weakref
from dataclasses import fields, replace

import pytest

from rplsim import engine, ids, rpl
from rplsim.config import ConfigError, ScenarioConfig, make_variant
from rplsim.radio import MobilityConfig, Radio, RadioConfig
from rplsim.rpl import Role

from . import pins


def small_base(**kwargs):
    defaults = dict(
        name="small",
        duration_ms=400_000,
        n_sensors=8,
        n_attackers=2,
        radio=RadioConfig(tx_range_m=65.0),
    )
    defaults.update(kwargs)
    return ScenarioConfig(**defaults)


class TestLayerContract:
    """The benchmark counts detector work by wrapping ``ids.process_dio``."""

    def test_every_discard_is_seen_through_the_module_attribute(self, monkeypatch):
        discards = 0
        original = ids.process_dio

        def counting(state, src, now):
            nonlocal discards
            events = original(state, src, now)
            discards += events is None
            return events

        monkeypatch.setattr(ids, "process_dio", counting)
        _, trace = engine.run(make_variant(small_base(), "cosec", "static", 1000), 1)
        assert discards > 0
        assert discards == sum(1 for rec in trace if rec[2] == "ids_discard")


class TestDetectorSchedule:
    def test_each_node_checks_on_its_first_reception_per_grid_interval(self, monkeypatch):
        sc = make_variant(small_base(), "cosec", "static", 1000)  # 400 s
        activation, period = sc.ids.activation_delay_ms, sc.ids.check_period_ms
        sim = engine.Simulation(sc, 1)
        node_of = {id(state): node for node, state in sim.detectors.items()}
        accepted, checks = [], []
        original_process, original_check = ids.process_dio, ids.check_malicious

        def process(state, src, now):
            events = original_process(state, src, now)
            if events is not None:
                accepted.append((node_of[id(state)], now))
            return events

        def check(state):
            checks.append((node_of[id(state)], sim.now))
            return original_check(state)

        monkeypatch.setattr(ids, "process_dio", process)
        monkeypatch.setattr(ids, "check_malicious", check)
        sim.run()
        first = {}
        for node, now in accepted:
            if now >= activation:
                first.setdefault((node, (now - activation) // period), (node, now))
        assert min(now for _, now in checks) >= activation
        assert checks == list(first.values())
        assert len({interval for _, interval in first}) == 10  # 120 s to 400 s


class TestDeterminism:
    def test_same_seed_same_trace_and_metrics(self):
        sc = make_variant(small_base(), "cosec", "static", 1000)
        m1, t1 = engine.run(sc, seed=7)
        m2, t2 = engine.run(sc, seed=7)
        assert t1 == t2
        assert m1 == m2

    def test_different_seeds_differ(self):
        sc = make_variant(small_base(), "baseline", "static")
        _, t1 = engine.run(sc, seed=1)
        _, t2 = engine.run(sc, seed=2)
        assert t1 != t2

    def test_attack_toggle_does_not_perturb_mobility(self):
        """Named RNG streams: trajectories only consume the mobility stream."""
        base = small_base()
        quiet = engine.Simulation(make_variant(base, "baseline", "mobile"), seed=11)
        quiet.run()
        noisy = engine.Simulation(make_variant(base, "attack", "mobile", 1000), seed=11)
        noisy.run()
        for sensor in base.sensor_ids:
            assert quiet.positions[sensor] == noisy.positions[sensor]


class TestDispatchOrder:
    """Events run in time order, and first in, first out within one millisecond."""

    def test_handlers_run_in_time_then_scheduling_order(self):
        sc = ScenarioConfig(name="empty", duration_ms=10_000, n_sensors=0, n_attackers=0)
        sim = engine.Simulation(sc, seed=1)
        ran = []
        # name -> what its handler schedules: (time, or None for now, name)
        children = {
            "a": [(None, "a1"), (20, "a2")],
            "a1": [(None, "a11")],
            "c": [(None, "c1"), (10, "c2"), (None, "c3")],
        }

        def note(name):
            ran.append((sim.now, name))
            for t, child in children.get(name, ()):
                sim._schedule(sim.now if t is None else t, note, (child,))

        for t, name in [(10, "a"), (10, "b"), (20, "d"), (5, "c"), (10, "e"),
                        (10_000, "last"), (10_001, "late")]:
            sim._schedule(t, note, (name,))
        sim.run()
        assert ran == [
            (5, "c"), (5, "c1"), (5, "c3"),
            (10, "a"), (10, "b"), (10, "e"), (10, "c2"), (10, "a1"), (10, "a11"),
            (20, "d"), (20, "a2"),
            (10_000, "last"),
        ]
        # nothing is left pending: a second run dispatches no event
        assert not sim._heap
        records = len(sim.trace)
        sim.run()
        assert len(ran) == 12 and len(sim.trace) == records

    @staticmethod
    def watch_strobes(monkeypatch, strobes):
        """A short static attack run, the time ``at`` that ``strobes``
        strobes queued at 0 end, and the list that names each strobe from
        sensors 1-3 at the first attacker delivered at ``at``."""
        sc = make_variant(small_base(duration_ms=1_000), "attack", "static", 1000)
        sim = engine.Simulation(sc, seed=1)
        at = strobes * sc.radio.strobe_airtime_ms
        sender = {id(sim._in_range[src]): src for src in (1, 2, 3)}
        ran = []
        real_deliver = Radio.deliver

        def deliver(radio, now, airtime_ms, receivers, tx_free_at, draw_for=None):
            if now == at and id(receivers) in sender and draw_for == sc.attacker_ids[0]:
                ran.append(f"strobe {sender[id(receivers)]}")
            return real_deliver(radio, now, airtime_ms, receivers, tx_free_at, draw_for)

        monkeypatch.setattr(Radio, "deliver", deliver)
        return sim, at, ran

    def test_a_strobe_does_not_run_ahead_of_an_event_queued_before_it(self, monkeypatch):
        sim, end, ran = self.watch_strobes(monkeypatch, 1)
        attacker = sim.scenario.attacker_ids[0]
        sim._maybe_probe(sim.nodes[1], attacker)
        sim._schedule(end, ran.append, ("note",))
        sim._maybe_probe(sim.nodes[2], attacker)
        sim.run()
        assert ran == ["strobe 1", "note", "strobe 2"]

    def test_strobes_queued_next_to_each_other_run_as_one_train(self, monkeypatch):
        sim, end, ran = self.watch_strobes(monkeypatch, 1)
        attacker = sim.scenario.attacker_ids[0]
        trains = []
        real_train = engine.Simulation._on_strobe_train

        def on_strobe_train(self, *train):
            trains.append((self.now, [frame.src for frame in train]))
            real_train(self, *train)

        monkeypatch.setattr(engine.Simulation, "_on_strobe_train", on_strobe_train)
        sim._maybe_probe(sim.nodes[1], attacker)
        sim._maybe_probe(sim.nodes[2], attacker)
        sim.run()
        assert ran == ["strobe 1", "strobe 2"]
        assert (end, [1, 2]) in trains
        assert not sim._heap  # nothing is left pending

    def test_a_retry_does_not_run_ahead_of_an_event_a_chain_end_queued(self, monkeypatch):
        sim, end, ran = self.watch_strobes(monkeypatch, 2)  # the retries' end
        strobe_ms = sim.scenario.radio.strobe_airtime_ms
        attacker = sim.scenario.attacker_ids[0]
        real_note = rpl.note_probe_result

        def note_probe_result(node, target, ok):
            # the end of a chain may queue any event, here one at the time
            # the running train's retries end
            if sim.now == strobe_ms:
                sim._schedule(end, ran.append, ("note",))
            return real_note(node, target, ok)

        monkeypatch.setattr(rpl, "note_probe_result", note_probe_result)
        # one train at strobe_ms: node 2's strobe is its chain's last, the
        # others fail and retry
        for src, attempt in ((1, 1), (2, engine.PROBE_ATTEMPTS), (3, 1)):
            frame = engine.Frame("probe", src, attacker, airtime_ms=strobe_ms, attempt=attempt)
            sim._queue_strobe(frame, sim._reserve(frame, 0))
        sim.run()
        assert ran == ["strobe 1", "note", "strobe 3"]


class TestScenarioEdges:
    def test_root_only_network_reports_null_pdr(self):
        sc = ScenarioConfig(name="empty", duration_ms=300_000, n_sensors=0, n_attackers=0)
        metrics, _ = engine.run(sc, seed=1)
        assert metrics.pdr is None
        assert metrics.ae2ed_ms is None
        assert metrics.data_sent == 0

    def test_run_info_carries_ground_truth(self):
        sc = make_variant(small_base(), "attack", "static", 2000)
        _, trace = engine.run(sc, seed=3)
        info = next(rec for rec in trace if rec[2] == "run_info")
        assert info[5] == 8 and info[6] == 2  # sensors, attackers
        assert info[7] == 90_000

    def test_events_never_scheduled_in_the_past(self):
        # the engine asserts monotonicity internally; a full run exercises it
        sc = make_variant(small_base(), "cosec", "mobile", 1000)
        engine.run(sc, seed=5)


class TestTopologyInvariants:
    def _forest_assertions(self, sim):
        root_id = sim.scenario.root_id
        for node in sim.nodes.values():
            if node.role is not Role.SENSOR or not node.joined:
                continue
            # follow parent pointers to the root without revisiting
            seen = {node.id}
            here = node
            while here.id != root_id:
                parent = here.preferred_parent
                assert parent is not None
                assert parent not in seen, "parent pointers form a cycle"
                seen.add(parent)
                # advertised rank of the parent is strictly below own rank
                assert here.candidates[parent].advertised_rank < here.rank
                here = sim.nodes[parent]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_loop_freedom_random_20_node_topologies(self, seed):
        sc = ScenarioConfig(
            name="loopfree",
            duration_ms=400_000,
            n_sensors=20,
            n_attackers=0,
            radio=RadioConfig(base_loss=0.0, congestion_model="none"),
        )
        sim = engine.Simulation(sc, seed=seed)
        _, trace = sim.run()
        assert not [rec for rec in trace if rec[2] == "loop_drop"]
        self._forest_assertions(sim)
        for node in sim.nodes.values():
            if node.role is Role.SENSOR:
                assert node.joined

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_trickle_interval_bounds(self, seed):
        sc = make_variant(small_base(duration_ms=600_000), "baseline", "static")
        sim = engine.Simulation(sc, seed=seed)
        sim.run()
        for node in sim.nodes.values():
            ts = node.trickle
            assert rpl.TRICKLE_IMIN_MS <= ts.interval_ms <= rpl.TRICKLE_IMAX_MS

    def test_dio_budget_log_in_stable_window(self):
        """No-reset window of i_min * 2^d holds at most d+1 emissions."""
        sc = ScenarioConfig(
            name="budget",
            duration_ms=1_800_000,
            n_sensors=8,
            n_attackers=0,
            radio=RadioConfig(base_loss=0.0, congestion_model="none"),
        )
        _, trace = engine.run(sc, seed=9)
        resets = {}
        for rec in trace:
            if rec[2] == "trickle_reset":
                resets.setdefault(rec[1], []).append(rec[0])
        dios = {}
        for rec in trace:
            if rec[2] == "dio_sent":
                dios.setdefault(rec[1], []).append(rec[0])
        for node_id, times in dios.items():
            last_reset = max(resets.get(node_id, [0]))
            for d in range(rpl.TRICKLE_DOUBLINGS + 1):
                window = rpl.TRICKLE_IMIN_MS << d
                start = last_reset
                end = start + window
                count = sum(1 for t in times if start < t <= end)
                assert count <= d + 1


class TestLosslessDelivery:
    def test_pdr_one_after_convergence(self):
        sc = ScenarioConfig(
            name="lossless",
            duration_ms=1_800_000,
            n_sensors=16,
            n_attackers=0,
            radio=RadioConfig(base_loss=0.0, congestion_model="none"),
        )
        _, trace = engine.run(sc, seed=1)
        converged = max(rec[0] for rec in trace if rec[2] == "parent_switch")
        sent = {
            (rec[1], rec[3])
            for rec in trace
            if rec[2] == "data_sent" and rec[0] > converged
        }
        delivered = {(rec[3], rec[4]) for rec in trace if rec[2] == "data_delivered"}
        assert sent, "expected traffic after convergence"
        assert sent <= delivered

    def test_default_radio_regression_17_nodes(self):
        sc = make_variant(
            ScenarioConfig(name="reg", n_sensors=16, n_attackers=0), "baseline", "static"
        )
        metrics, _ = engine.run(sc, seed=1)
        assert metrics.pdr >= 0.9
        assert metrics.loop_drops == 0


class TestDataPath:
    def test_forwarding_loop_dropped_with_diagnostic(self):
        sc = ScenarioConfig(
            name="loop",
            duration_ms=5_000,
            n_sensors=2,
            n_attackers=0,
            positions=((0, 0.0, 0.0), (1, 30.0, 0.0), (2, 60.0, 0.0)),
            radio=RadioConfig(base_loss=0.0, congestion_model="none"),
        )
        sim = engine.Simulation(sc, seed=1)
        # force a stale two-node cycle by hand, then inject a packet
        from rplsim.engine import DataPacket
        from rplsim.rpl import Candidate

        n1, n2 = sim.nodes[1], sim.nodes[2]
        n1.candidates[2] = Candidate(addr=2, advertised_rank=256, version=1, confirmed=True)
        n2.candidates[1] = Candidate(addr=1, advertised_rank=256, version=1, confirmed=True)
        n1.rank, n1.preferred_parent = 384, 2
        n2.rank, n2.preferred_parent = 384, 1
        packet = DataPacket(origin=1, seq=1, created_ms=0, path=[1])
        sim._send_data_hop(n1, packet, 0)
        sim.run()
        assert any(rec[2] == "loop_drop" for rec in sim.trace)

    def test_parentless_sensor_counts_sent_but_lost(self):
        # the sensor sits far outside everyone's radio range
        sc = ScenarioConfig(
            name="orphan",
            duration_ms=300_000,
            n_sensors=2,
            n_attackers=0,
            positions=((0, 0.0, 0.0), (1, 30.0, 0.0), (2, 500.0, 500.0)),
            radio=RadioConfig(base_loss=0.0, congestion_model="none"),
        )
        metrics, trace = engine.run(sc, seed=1)
        orphan_sent = [rec for rec in trace if rec[2] == "data_sent" and rec[1] == 2]
        orphan_drops = [
            rec
            for rec in trace
            if rec[2] == "data_drop" and rec[1] == 2 and rec[5] == "no_parent"
        ]
        assert len(orphan_sent) == len(orphan_drops) >= 4  # one per minute
        delivered_from_orphan = [
            rec for rec in trace if rec[2] == "data_delivered" and rec[3] == 2
        ]
        assert not delivered_from_orphan
        assert metrics.pdr < 1.0


class TestGlobalRepair:
    def test_global_repair_rebuilds_dodag(self):
        sc = ScenarioConfig(
            name="repair",
            duration_ms=600_000,
            n_sensors=8,
            n_attackers=0,
            radio=RadioConfig(tx_range_m=65.0, base_loss=0.0, congestion_model="none"),
            global_repairs_ms=(300_000,),
        )
        sim = engine.Simulation(sc, seed=2)
        _, trace = sim.run()
        assert [rec for rec in trace if rec[2] == "global_repair"] == [(300_000, 0, "global_repair", 2)]
        for node in sim.nodes.values():
            assert node.version == 2
            if node.role is Role.SENSOR:
                assert node.joined  # everyone re-joined the new version

    @pytest.mark.parametrize("at_ms", [-1, 10_001])
    def test_repair_outside_the_run_rejected(self, at_ms):
        # before the start it would be an event in the past; after the end
        # it would silently never run
        with pytest.raises(ConfigError, match="global_repairs_ms must lie within 0..duration_ms"):
            ScenarioConfig(name="bad", duration_ms=10_000, global_repairs_ms=(1000, at_ms))

    def test_repairs_at_both_ends_of_the_run_are_kept(self):
        sc = ScenarioConfig(
            name="ends", duration_ms=10_000, n_sensors=2, n_attackers=0,
            global_repairs_ms=(0, 10_000),
        )
        _, trace = engine.run(sc, seed=1)
        assert [rec[:2] for rec in trace if rec[2] == "global_repair"] == [(0, 0), (10_000, 0)]


class TestPositionTrace:
    def test_positions_recorded_when_enabled(self):
        sc = make_variant(
            small_base(duration_ms=10_000, trace_positions=True), "baseline", "mobile"
        )
        _, trace = engine.run(sc, seed=1)
        recs = [rec for rec in trace if rec[2] == "position"]
        assert recs
        x = float(recs[0][3])
        assert 0.0 <= x <= 150.0

    def test_attackers_move_in_a_mobile_attack_run(self):
        sc = make_variant(
            small_base(duration_ms=10_000, trace_positions=True), "attack", "mobile", 1000
        )
        _, trace = engine.run(sc, seed=1)
        for attacker in sc.attacker_ids:
            places = {rec[3:] for rec in trace if rec[2] == "position" and rec[1] == attacker}
            assert len(places) > 1


class TestInRangeLists:
    @staticmethod
    def brute_force(sim):
        reach = sim.scenario.radio.tx_range_m
        pos = sim.positions
        return [
            [j for j in range(len(pos)) if j != i and math.dist(pos[i], pos[j]) <= reach]
            for i in range(len(pos))
        ]

    @staticmethod
    def mobile_sim():
        sc = make_variant(small_base(radio=RadioConfig(tx_range_m=50.0)), "attack", "mobile")
        return engine.Simulation(sc, seed=4)

    def test_lists_match_distance_scan_while_nodes_move(self):
        sim = self.mobile_sim()
        n_nodes = sim.scenario.n_nodes
        seen = [[sim._in_range[i] for i in range(n_nodes)]]
        assert seen[0] == self.brute_force(sim)
        for _ in range(50):
            sim.now += engine.MOBILITY_STEP_MS
            sim._on_mobility_step()
            seen.append([sim._in_range[i] for i in range(n_nodes)])
            assert seen[-1] == self.brute_force(sim)
        # the topology really changed and some pairs are out of range
        assert any(a != b for a, b in zip(seen, seen[1:]))
        assert any(len(lst) < n_nodes - 1 for lst in seen[-1])

    def test_a_row_is_computed_on_first_use_after_a_step(self, monkeypatch):
        computed = []
        real_in_range = Radio.in_range

        def in_range(radio, positions, node):
            computed.append(node)
            return real_in_range(radio, positions, node)

        monkeypatch.setattr(Radio, "in_range", in_range)
        sim = self.mobile_sim()
        computed.clear()  # the layout search reads every row
        sim.now += engine.MOBILITY_STEP_MS
        sim._on_mobility_step()
        assert computed == []  # a step followed by no transmission
        row = sim._in_range[3]
        assert sim._in_range[3] is row and computed == [3]
        sim.now += engine.MOBILITY_STEP_MS
        sim._on_mobility_step()
        sim._in_range[3]
        assert computed == [3, 3]

    def test_rows_handed_to_the_radio_are_never_edited(self, monkeypatch):
        """The radio may hold a receiver list until its frame's window ends."""
        held = []  # (window, the list passed, a copy taken at the call)
        checked, rows_seen = 0, set()
        real_deliver = Radio.deliver

        def deliver(radio, now, airtime_ms, receivers, tx_free_at, draw_for=None):
            nonlocal checked
            win = now // radio.config.window_ms
            while held and held[0][0] < win:
                _, row, copy = held.pop(0)
                assert row == copy
                checked += 1
            rows_seen.add(tuple(receivers))
            held.append((win, receivers, list(receivers)))
            return real_deliver(radio, now, airtime_ms, receivers, tx_free_at, draw_for)

        monkeypatch.setattr(Radio, "deliver", deliver)
        sc = make_variant(
            small_base(duration_ms=300_000, radio=RadioConfig(tx_range_m=50.0)),
            "cosec",
            "mobile",
            1000,
        )
        engine.Simulation(sc, seed=4).run()
        for _, row, copy in held:
            assert row == copy
        assert checked > 2_000
        assert len(rows_seen) > 200  # the rows really change as nodes move


class TestAirtime:
    def test_unicast_airtime_is_an_engine_constant(self, monkeypatch):
        assert "unicast_airtime_ms" not in {f.name for f in fields(RadioConfig)}
        sim = engine.Simulation(small_base(), 1)
        data, dio = engine.Frame("data", 1, 0), engine.Frame("dio", 2, None)
        sim._transmit(data, 0)
        sim._transmit(dio, 0)
        assert data.airtime_ms == engine.UNICAST_AIRTIME_MS == 30
        assert dio.airtime_ms == sim.scenario.radio.airtime_per_msg_ms
        # a probe strobes for the configured strobe airtime instead
        queued = []
        monkeypatch.setattr(sim, "_queue_strobe", lambda frame, end: queued.append((frame, end)))
        sim._maybe_probe(sim.nodes[3], 0)
        strobe_ms = sim.scenario.radio.strobe_airtime_ms
        assert [(f.kind, f.airtime_ms, end) for f, end in queued] == [
            ("probe", strobe_ms, strobe_ms)
        ]


class TestRetryChains:
    """Failed unicast attempts re-queue their frame until the budget is spent."""

    def run_watched(self, monkeypatch, seed):
        sc = make_variant(small_base(), "attack", "static", 1000)
        sim = engine.Simulation(sc, seed)
        # static: each sender's receiver list is one fixed object, so its
        # identity names the sender of every delivered frame
        sender = {id(sim._in_range[src]): src for src in range(sc.n_nodes)}
        events = []
        real_deliver, real_note = Radio.deliver, rpl.note_probe_result
        real_link = rpl.note_link_outcome

        def deliver(radio, now, airtime_ms, receivers, tx_free_at, draw_for=None):
            events.append(("tx", now, sender[id(receivers)], draw_for, airtime_ms))
            return real_deliver(radio, now, airtime_ms, receivers, tx_free_at, draw_for)

        def note_probe_result(node, target, ok):
            events.append(("note", sim.now, node.id, target, ok))
            return real_note(node, target, ok)

        def note_link_outcome(node, neighbor, attempts, delivered):
            events.append(("link", sim.now, node.id, neighbor, attempts, delivered))
            return real_link(node, neighbor, attempts, delivered)

        monkeypatch.setattr(Radio, "deliver", deliver)
        monkeypatch.setattr(rpl, "note_probe_result", note_probe_result)
        monkeypatch.setattr(rpl, "note_link_outcome", note_link_outcome)
        sim.run()
        return sim, events

    def test_strobes_at_an_attacker_come_in_whole_chains(self, monkeypatch):
        sim, events = self.run_watched(monkeypatch, seed=1)
        strobe_ms = sim.scenario.radio.strobe_airtime_ms
        chains = 0
        for attacker in sim.attackers:
            for src in sorted(set(sim.nodes) - set(sim.attackers)):
                seq = [
                    ev
                    for ev in events
                    if ev[2] == src
                    and ev[3] == attacker
                    and (ev[0] == "note" or ev[4] == strobe_ms)
                ]
                while len(seq) > engine.PROBE_ATTEMPTS:
                    chain, note = seq[: engine.PROBE_ATTEMPTS], seq[engine.PROBE_ATTEMPTS]
                    assert [ev[0] for ev in chain] == ["tx"] * engine.PROBE_ATTEMPTS
                    assert note == ("note", chain[-1][1], src, attacker, False)
                    seq = seq[engine.PROBE_ATTEMPTS + 1 :]
                    if seq:  # the next chain starts only after the cooldown
                        assert seq[0][1] >= note[1] + engine.PROBE_COOLDOWN_MS + strobe_ms
                    chains += 1
                # a chain the end of the run cut short
                assert all(ev[0] == "tx" for ev in seq)
        assert chains > 100

    def test_no_event_is_pushed_past_the_run_end(self, monkeypatch):
        # wrapped at the module's heapq name, as the benchmark counts pops;
        # a heap entry is (time, bucket), pushed once per distinct time
        pushed = []
        real_heapq = engine.heapq

        def heappush(heap, item):
            pushed.append(item)
            real_heapq.heappush(heap, item)

        counting = types.SimpleNamespace(**{**vars(real_heapq), "heappush": heappush})
        monkeypatch.setattr(engine, "heapq", counting)

        def requeue_times():
            # a probe frame is a member of one strobe train per strobe: every
            # appearance after its first is a re-queue of a failed strobe
            seen, times = set(), []
            for t, bucket in sorted(pushed, key=lambda item: item[0]):
                for handler, args in bucket:
                    if handler.__func__ is engine.Simulation._on_strobe_train:
                        for frame in args:
                            if id(frame) in seen:
                                times.append(t)
                            seen.add(id(frame))
            return times

        sc = make_variant(small_base(), "attack", "static", 1000)
        engine.run(sc, 1)
        assert max(t for t, _ in pushed) <= sc.duration_ms
        requeued = requeue_times()
        assert len(requeued) > 1000
        # end a run 1 ms before a re-queued strobe lands: the attempt before
        # it fails as it did, and its re-queue must be dropped
        cut = requeued[len(requeued) // 2] - 1
        sc = replace(sc, duration_ms=cut)
        pushed.clear()
        engine.run(sc, 1)
        assert max(t for t, _ in pushed) <= cut

    def test_a_lost_data_frame_is_sent_again_as_attempt_two(self, monkeypatch):
        sim, events = self.run_watched(monkeypatch, seed=1)
        resent = [rec for rec in sim.trace if rec[2] == "data_sent" and rec[4] == 2]
        assert resent
        unicast_ms = engine.UNICAST_AIRTIME_MS
        for t, node, *_ in resent:
            # the first attempt went to the air and was lost just now
            lost = next(
                i
                for i, ev in enumerate(events)
                if ev[:3] == ("tx", t, node) and ev[4] == unicast_ms
            )
            # the same frame comes back after the backoff and ends its chain
            # as attempt 2, to the same parent
            outcome = next(ev for ev in events[lost:] if ev[0] == "link" and ev[2] == node)
            assert outcome[3:5] == (events[lost][3], 2)
            assert outcome[1] >= t + engine.RETRY_BACKOFF_MS + unicast_ms


class TestNoReferenceCycles:
    """A finished run is freed by reference counting alone.

    A cycle through the ``Simulation`` (say, one of its bound methods stored
    on itself) keeps each finished run alive until the next collection, and
    a batch's peak memory grows with it.
    """

    @pytest.mark.parametrize("label", ["static-attack-r1s", "mobile-cosec-r1s"])
    def test_a_finished_simulation_is_freed_on_del(self, label):
        scenario = pins.pinned_variants()[label]
        gc.disable()
        try:
            sim = engine.Simulation(scenario, 1)
            sim.run()
            alive = weakref.ref(sim)
            del sim
            assert alive() is None
        finally:
            gc.enable()
