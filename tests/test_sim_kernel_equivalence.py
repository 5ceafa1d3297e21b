"""Differential tests: optimized event kernel vs the frozen seed kernel.

Every workload here is built twice through the simulator construction
factories — once on :mod:`repro.sim` (calendar-queue scheduler, true
cancellation, allocation-free signal hot paths) and once on
:mod:`repro.sim.reference` (the seed's flat heapq and token-based
inertial no-ops) — and the observable behaviour is pinned bit-identical:

* the (time, value) trace of **every net the circuit created**,
* rising/falling transition counters (the power-model inputs),
* process wakeup order (logged by the testbench processes),
* link measurements (accept/delivery timestamps, received values),
* per-group activity-monitor transitions,
* the rendered VCD text.

``events_executed`` is deliberately *not* compared: the seed executed
superseded inertial drives, and inertial drives of the value a net
already holds, as no-op callbacks; the optimized kernel cancels the
former and elides the latter (that difference is itself pinned below).
"""

import io
import random

import pytest

import repro.sim as OPT
import repro.sim.reference as REF
from repro.elements.fourphase import WireBufferStage
from repro.elements.gates import Inverter, Mux2, Nand2, Nor2, Xor2
from repro.elements.latches import (
    DLatch,
    FlagSynchronizer,
    LatchBus,
    RegisterBus,
)
from repro.elements.ringosc import RingOscillator
from repro.link import LinkConfig, LinkTestbench, build_i1, build_i2, build_i3
from repro.link.wiring import AsyncWireBufferChain, wire
from repro.sim import Delay, SimulationError, Tracer, WaitValue, write_vcd
from repro.tech import st012
from repro.tech.technology import GateDelays

STACKS = (OPT, REF)


def snapshot(sim):
    """Every created net's name, counters and full (time, value) trace."""
    return [
        (sig.name, sig.rising, sig.falling, tuple(sig.trace or ()))
        for sig in sim.created_signals
    ]


def enable_all_traces(sim):
    for sig in sim.created_signals:
        sig.enable_trace()


def run_on_both(build, *args, **kwargs):
    """Build + run ``build(stack, sim, log)`` on both kernels; return both
    observation dicts (observations must already include everything the
    caller wants compared)."""
    results = []
    for stack in STACKS:
        sim = stack.Simulator()
        log = []
        obs = build(stack, sim, log, *args, **kwargs)
        obs["nets"] = snapshot(sim)
        obs["wakeups"] = tuple(log)
        results.append(obs)
    return results


# ----------------------------------------------------------------------
# raw kernel: scheduling order across the near/far band boundary
# ----------------------------------------------------------------------
class TestSchedulerOrderEquivalence:
    @pytest.mark.parametrize("seed", [1, 7, 2008])
    def test_random_event_order_matches_reference(self, seed):
        """Random schedules spanning several NEAR_WINDOWs, with nested
        reschedules, execute in the identical global order."""

        def run(stack):
            sim = stack.Simulator()
            rng = random.Random(seed)
            order = []

            def make(tag, depth):
                def fire():
                    order.append((sim.now, tag))
                    if depth < 3 and rng.random() < 0.4:
                        # respawn into the same or a later band
                        sim.schedule(
                            rng.choice([0, 0, 1, 40, 7_000, 90_000]),
                            make(f"{tag}.{depth}", depth + 1),
                        )
                return fire

            for i in range(150):
                sim.schedule(rng.randrange(0, 250_000), make(str(i), 0))
            sim.run()
            return order

        assert run(OPT) == run(REF)

    @pytest.mark.parametrize("seed", [3, 11])
    def test_sliced_runs_and_step_match_reference(self, seed):
        """The same random run(until=...) slices execute the events in
        the same order, and end at the same time, on both kernels; one
        whole run() matches the reference stepped one event at a
        time."""

        def populate(sim):
            rng = random.Random(seed)
            order = []
            for i in range(80):
                when = rng.randrange(0, 180_000)
                sim.schedule(when, lambda i=i: order.append((sim.now, i)))
            return order

        def sliced(stack):
            sim = stack.Simulator()
            order = populate(sim)
            rng = random.Random(seed)
            while sim.pending_events:
                sim.run(until=sim.now + rng.randrange(1, 50_000))
            return order, sim.now

        ref = REF.Simulator()
        stepped = populate(ref)
        while ref.step():
            pass

        whole_sim = OPT.Simulator()
        whole = populate(whole_sim)
        whole_sim.run()
        assert sliced(OPT) == sliced(REF)
        assert sliced(OPT)[0] == whole == stepped
        assert whole_sim.now == ref.now == stepped[-1][0]

    def test_same_time_fifo_across_band_migration(self):
        """Events at one timestamp scheduled before and after the horizon
        migration keep their FIFO order."""

        def run(stack):
            sim = stack.Simulator()
            order = []
            far = sim.NEAR_WINDOW + 1234 if hasattr(sim, "NEAR_WINDOW") \
                else 66770
            # two events at the same far timestamp, then advance time and
            # add two more at the (now near) same timestamp
            sim.schedule(far, lambda: order.append("a"))
            sim.schedule(far, lambda: order.append("b"))
            sim.run(until=far - 10)
            sim.schedule(far - sim.now, lambda: order.append("c"))
            sim.schedule(far - sim.now, lambda: order.append("d"))
            sim.run()
            return order

        assert run(OPT) == run(REF) == ["a", "b", "c", "d"]


# ----------------------------------------------------------------------
# gate networks (combinational + SR-latch feedback)
# ----------------------------------------------------------------------
def build_gate_network(stack, sim, log, seed):
    delays = GateDelays()
    a = sim.signal("a")
    b = sim.signal("b")
    c = sim.signal("c")
    s = sim.signal("s")
    r = sim.signal("r")
    n1 = Nand2(sim, a, b, delays=delays, name="n1")
    x1 = Xor2(sim, n1.output, c, delays=delays, name="x1")
    Inverter(sim, x1.output, delays=delays, name="inv")
    Mux2(sim, a, x1.output, c, delays=delays, name="mux")
    # cross-coupled NOR SR latch: real feedback through the kernel
    q = sim.signal("q")
    qn = sim.signal("qn", init=1)
    Nor2(sim, r, qn, out=q, delays=delays, name="norq")
    Nor2(sim, s, q, out=qn, delays=delays, name="norqn")

    targets = [a, b, c, s, r]

    def stim():
        rng = random.Random(seed)
        for i in range(150):
            tgt = targets[rng.randrange(len(targets))]
            value = rng.getrandbits(1)
            delay = rng.choice([0, 1, 3, 7, 45, 130, 400])
            inertial = rng.random() < 0.5
            tgt.drive(value, delay, inertial=inertial)
            log.append((sim.now, "stim", i))
            yield Delay(rng.choice([5, 17, 33, 90]))

    enable_all_traces(sim)
    stack.spawn(sim, stim(), "stim")
    sim.run(until=60_000)
    return {}


class TestGateEquivalence:
    @pytest.mark.parametrize("seed", [2, 19, 41, 2008])
    def test_random_gate_stimulus(self, seed):
        opt, ref = run_on_both(build_gate_network, seed)
        assert opt == ref


# ----------------------------------------------------------------------
# latches, registers, flag synchronizers (clocked workload)
# ----------------------------------------------------------------------
def build_latch_workload(stack, sim, log, seed):
    delays = GateDelays()
    clock = stack.Clock(sim, 3334, "clk")
    d_bus = sim.bus(8, "d")
    enable = sim.signal("en")
    gate = sim.signal("g")
    wr_en = sim.signal("wr")
    clear = sim.signal("clr")
    d_bit = sim.signal("dbit")
    RegisterBus(sim, d_bus, clock.signal, enable, delays=delays, name="reg")
    LatchBus(sim, d_bus, gate, delays=delays, name="lat")
    DLatch(sim, d_bit, gate, delays=delays, name="dlat")
    FlagSynchronizer(sim, clock.signal, wr_en, clear, delays, "flag")

    def stim():
        rng = random.Random(seed)
        for i in range(80):
            d_bus.set(rng.getrandbits(8))
            d_bit.set(rng.getrandbits(1))
            enable.set(rng.getrandbits(1))
            gate.drive(rng.getrandbits(1), rng.choice([0, 20, 90]))
            if rng.random() < 0.4:
                wr_en.set(rng.getrandbits(1))
            if rng.random() < 0.2:
                clear.pulse(width=60, delay=rng.choice([5, 40]))
            log.append((sim.now, "stim", i))
            yield Delay(rng.choice([400, 1100, 1700, 3334]))

    enable_all_traces(sim)
    stack.spawn(sim, stim(), "stim")
    sim.run(until=120_000)
    return {"cycles": clock.cycles}


class TestLatchEquivalence:
    @pytest.mark.parametrize("seed", [5, 23, 2008])
    def test_clocked_storage(self, seed):
        opt, ref = run_on_both(build_latch_workload, seed)
        assert opt == ref


# ----------------------------------------------------------------------
# four-phase wire-buffer chain (handshake workload)
# ----------------------------------------------------------------------
def build_fourphase_chain(stack, sim, log, n_buffers, n_tokens):
    tech = st012()
    data_in = sim.bus(8, "din")
    req_in = sim.signal("req")
    chain = AsyncWireBufferChain(
        sim, data_in, req_in, n_buffers,
        t_p_ps=tech.handshake.t_p_per_segment,
        delays=tech.gates,
        ctl_delay_ps=tech.handshake.t_wire_buffer_ctl,
        name="chain",
    )
    ack_back = sim.signal("ackback")
    wire(chain.ack_out, ack_back, tech.handshake.t_p_per_segment)
    received = []

    def source():
        for i in range(n_tokens):
            data_in.set((0xA5 + i * 31) & 0xFF)
            yield Delay(tech.gates.mux2)
            req_in.set(1)
            log.append((sim.now, "src.req", i))
            yield WaitValue(ack_back, 1)
            req_in.set(0)
            yield WaitValue(ack_back, 0)

    def sink():
        for i in range(n_tokens):
            yield WaitValue(chain.req_out, 1)
            received.append(chain.data_out.value)
            log.append((sim.now, "snk.got", i))
            yield Delay(40)
            chain.ack_in.set(1)
            yield WaitValue(chain.req_out, 0)
            chain.ack_in.set(0)

    enable_all_traces(sim)
    stack.spawn(sim, source(), "src")
    stack.spawn(sim, sink(), "snk")
    sim.run(max_events=5_000_000)
    return {"received": tuple(received)}


class TestFourPhaseEquivalence:
    @pytest.mark.parametrize("n_buffers,n_tokens", [(2, 6), (4, 10)])
    def test_wire_buffer_chain(self, n_buffers, n_tokens):
        opt, ref = run_on_both(build_fourphase_chain, n_buffers, n_tokens)
        assert opt == ref
        assert len(opt["received"]) == n_tokens


# ----------------------------------------------------------------------
# single elements with tight feedback timing
# ----------------------------------------------------------------------
def build_ringosc(stack, sim, log):
    enable = sim.signal("en")
    osc = RingOscillator(sim, enable, stages=5, name="osc")
    edges = []
    osc.out.on_change(lambda sig: edges.append((sim.now, sig.value)))
    enable.pulse(width=4_000, delay=100)
    enable.pulse(width=2_500, delay=9_000)
    enable_all_traces(sim)
    sim.run(until=20_000)
    return {"edges": tuple(edges)}


def build_fourphase_stage(stack, sim, log):
    tech = st012()
    data = sim.bus(4, "d")
    req = sim.signal("req")
    ack = sim.signal("ack")
    stage = WireBufferStage(sim, data, req, ack, tech.gates,
                            tech.handshake.t_wire_buffer_ctl, "wbuf")

    def stim():
        for i in range(6):
            data.set(i * 3 & 0xF)
            req.set(1)
            yield WaitValue(stage.req_out, 1)
            log.append((sim.now, "ctl.up", i))
            ack.set(1)
            req.set(0)
            yield WaitValue(stage.req_out, 0)
            ack.set(0)
            log.append((sim.now, "ctl.down", i))
            yield Delay(200)

    enable_all_traces(sim)
    stack.spawn(sim, stim(), "stim")
    sim.run(max_events=1_000_000)
    return {}


class TestElementEquivalence:
    def test_ring_oscillator(self):
        opt, ref = run_on_both(build_ringosc)
        assert opt == ref
        assert len(opt["edges"]) > 10

    def test_wire_buffer_stage_handshake(self):
        opt, ref = run_on_both(build_fourphase_stage)
        assert opt == ref


# ----------------------------------------------------------------------
# full serializer link testbenches (the bench workloads)
# ----------------------------------------------------------------------
BUILDERS = {"I1": build_i1, "I2": build_i2, "I3": build_i3}


def build_link_workload(stack, sim, log, kind, config, n_flits,
                        stall_pattern=None, gals=False):
    clock = stack.Clock.from_mhz(sim, 300, "clk")
    rx_clock = None
    kwargs = {}
    if gals:
        rx_clock = stack.Clock.from_mhz(sim, 100, "rxclk", start_delay_ps=777)
        kwargs["rx_clk"] = rx_clock.signal
    link = BUILDERS[kind](sim, clock.signal, config, st012(), **kwargs)
    enable_all_traces(sim)
    bench = LinkTestbench(sim, clock, link, rx_clock=rx_clock)
    flits = [(0xA5A5A5A5, 0x5A5A5A5A)[i % 2] for i in range(n_flits)]
    m = bench.run(flits, stall_pattern=stall_pattern)
    groups = {
        group: link.monitor.transitions(group)
        for group in link.monitor.groups
    }
    vcd = io.StringIO()
    tracer = Tracer()
    tracer.watch(*sim.created_signals)
    write_vcd(tracer, vcd)
    return {
        "accepted": link.flits_accepted(),
        "delivered": link.flits_delivered(),
        "values": tuple(m.received_values),
        "accept_times": tuple(m.accept_times_ps),
        "delivery_times": tuple(m.delivery_times_ps),
        "groups": groups,
        "wire_count": link.wire_count,
        "vcd": vcd.getvalue(),
    }


class TestLinkEquivalence:
    @pytest.mark.parametrize("kind", ["I1", "I2", "I3"])
    def test_link_bit_identical(self, kind):
        opt, ref = run_on_both(
            build_link_workload, kind, LinkConfig(), 12
        )
        assert opt == ref
        assert opt["values"] == tuple(
            (0xA5A5A5A5, 0x5A5A5A5A)[i % 2] for i in range(12)
        )

    @pytest.mark.parametrize("kind", ["I2", "I3"])
    def test_link_with_backpressure(self, kind):
        opt, ref = run_on_both(
            build_link_workload, kind, LinkConfig(), 8,
            stall_pattern=(1, 0, 0),
        )
        assert opt == ref

    def test_i3_sixteen_bit_slices(self):
        opt, ref = run_on_both(
            build_link_workload, "I3", LinkConfig(slice_width=16), 8
        )
        assert opt == ref

    def test_i3_gals_receive_clock(self):
        opt, ref = run_on_both(
            build_link_workload, "I3", LinkConfig(), 8, gals=True
        )
        assert opt == ref


# ----------------------------------------------------------------------
# determinism property (satellite): interleaved transport + inertial
# drives on shared nets, serial re-runs and cross-kernel
# ----------------------------------------------------------------------
class TestForceEquivalence:
    def test_force_release_interleaving_matches_reference(self):
        """Forced windows interact with in-flight drives identically on
        both kernels: a drive maturing inside the window is blocked, a
        drive maturing after release() applies (regression: an earlier
        force() cancelled the pending drive outright)."""

        def run(stack):
            sim = stack.Simulator()
            sig = sim.signal("s")
            sig.enable_trace()
            sig.drive(1, delay=100, inertial=True)   # matures post-release
            sig.drive(0, delay=100, inertial=False)  # transport, same time
            sim.run(until=10)
            sig.force(0)
            sim.run(until=50)
            sig.release()
            sim.run(until=200)
            sig.force(1)
            sig.drive(0, delay=20, inertial=True)    # matures mid-force
            sim.run(until=300)
            sig.release()
            sim.run()
            return sig.value, tuple(sig.trace), sig.rising, sig.falling

        assert run(OPT) == run(REF)


class TestBusDriveEquivalence:
    def test_inertial_bus_drive_reasserts_over_inflight_transport(self):
        """A bus bit already at its target value must still be driven:
        the scheduled inertial apply re-asserts the bit at maturity,
        overriding a transport drive that lands in between (regression:
        an earlier skip-unchanged-bits optimization diverged here)."""

        def run(stack):
            sim = stack.Simulator()
            bus = sim.bus(4, "b")
            # transport drive to bit 0 lands at t=60
            bus[0].drive(1, delay=60, inertial=False)
            # inertial bus drive of 0b0000 matures at t=100: bit 0 is
            # "already 0" at schedule time but must be re-asserted
            bus.drive(0b0000, delay=100, inertial=True)
            enable_all_traces(sim)
            sim.run()
            return bus.value, sim.now, snapshot(sim)

        assert run(OPT) == run(REF)
        value, now, _nets = run(OPT)
        assert value == 0
        assert now == 100

    @pytest.mark.parametrize("seed", [17, 71])
    def test_random_bus_drive_interleaving(self, seed):
        """Randomized Bus.drive / Bus.set / per-bit transport mixes."""

        def run(stack):
            sim = stack.Simulator()
            bus = sim.bus(8, "b")

            def stim():
                rng = random.Random(seed)
                for _ in range(120):
                    roll = rng.random()
                    if roll < 0.45:
                        bus.drive(rng.getrandbits(8),
                                  rng.choice([0, 15, 40, 90]),
                                  inertial=True)
                    elif roll < 0.7:
                        bus[rng.randrange(8)].drive(
                            rng.getrandbits(1),
                            rng.choice([5, 25, 70]),
                            inertial=False,
                        )
                    else:
                        bus.set(rng.getrandbits(8))
                    yield Delay(rng.choice([7, 19, 42]))

            enable_all_traces(sim)
            stack.spawn(sim, stim(), "stim")
            sim.run(until=15_000)
            return snapshot(sim)

        assert run(OPT) == run(REF)


class TestDeterminismProperty:
    @pytest.mark.parametrize(
        "seed", [13, 99, 31337] + [s for s in range(1, 39) if s != 13])
    def test_shared_net_drive_interleaving(self, seed):
        """Seeded random schedules of transport + inertial drives, direct
        sets and force/release windows on shared nets produce identical
        traces on serial re-runs of the optimized kernel and between
        both kernels.  Delays are multiples of one step, so drives from
        different writers keep colliding on the same timestamp — the
        FIFO slots elided no-op drives must be revived into."""

        def run(stack):
            sim = stack.Simulator()
            nets = [sim.signal(f"n{i}") for i in range(4)]
            # a listener net: every driver net fans into an XOR chain so
            # drive ordering is observable beyond the driven net itself
            x1 = Xor2(sim, nets[0], nets[1], name="x1")
            Xor2(sim, x1.output, nets[2], name="x2")

            def driver(rng_seed):
                rng = random.Random(rng_seed)
                for _ in range(120):
                    tgt = nets[rng.randrange(len(nets))]
                    tgt.drive(
                        rng.getrandbits(1),
                        rng.choice([0, 4, 8, 12, 60, 150]),
                        inertial=rng.random() < 0.5,
                    )
                    yield Delay(rng.choice([4, 8, 12, 56]))

            def writer(rng_seed):
                rng = random.Random(rng_seed)
                for _ in range(80):
                    tgt = nets[rng.randrange(len(nets))]
                    roll = rng.random()
                    if roll < 0.6:
                        tgt.set(rng.getrandbits(1))
                    elif roll < 0.8:
                        tgt.force(rng.getrandbits(1))
                    else:
                        tgt.release()
                    yield Delay(rng.choice([4, 8, 20]))

            enable_all_traces(sim)
            stack.spawn(sim, driver(seed), "d1")
            stack.spawn(sim, driver(seed * 31 + 7), "d2")
            stack.spawn(sim, writer(seed * 17 + 3), "w")
            sim.run(until=30_000)
            for net in nets:
                net.release()
            sim.run()
            return snapshot(sim), sim.now

        first = run(OPT)
        assert first == run(OPT), \
            f"seed {seed}: optimized kernel is not deterministic"
        assert first == run(REF), \
            f"seed {seed}: optimized kernel diverged from seed kernel"


class TestNoOpElisionEquivalence:
    """Directed cases for the elided no-op inertial drive: every way a
    shadow can be revived, dropped or left to mature, run on both
    kernels with traces, transition order and ``now`` compared."""

    @staticmethod
    def _run(scenario):
        """``scenario(stack, sim, log)`` on both kernels; every created
        net traced and every transition logged in order."""
        results = []
        for stack in STACKS:
            sim = stack.Simulator()
            log = []
            scenario(stack, sim, log)
            results.append(
                (snapshot(sim), tuple(log), sim.now, sim.pending_events))
        return results

    @staticmethod
    def _nets(sim, log, *names):
        nets = [sim.signal(name) for name in names]
        for net in nets:
            net.enable_trace()
            net.on_change(
                lambda sig: log.append((sim.now, sig.name, sig.value)))
        return nets

    def test_set_before_maturity_revives(self):
        def scenario(stack, sim, log):
            (a,) = self._nets(sim, log, "a")
            a.drive(0, delay=100)  # the net is 0: elided
            sim.run(until=40)
            a.set(1)  # the seed's pending apply restores 0 at t=100
            sim.run()

        opt, ref = self._run(scenario)
        assert opt == ref
        assert opt[1] == ((40, "a", 1), (100, "a", 0))

    def test_transport_apply_before_maturity_revives(self):
        def scenario(stack, sim, log):
            (a,) = self._nets(sim, log, "a")
            a.drive(0, delay=100)
            a.drive(1, delay=30, inertial=False)
            sim.run()

        opt, ref = self._run(scenario)
        assert opt == ref
        assert opt[1] == ((30, "a", 1), (100, "a", 0))

    @pytest.mark.parametrize("writer_first", [True, False])
    def test_change_at_maturity(self, writer_first):
        """A change at W itself: ahead of the shadow's FIFO slot the
        apply still restores the old value; behind it the apply already
        ran as a no-op and the change stands."""

        def scenario(stack, sim, log):
            (a,) = self._nets(sim, log, "a")
            other = sim.signal("other")  # keeps W's bucket non-empty
            other.drive(1, delay=100)

            def flip():
                a.set(1)

            if writer_first:
                sim.schedule(100, flip)
                a.drive(0, delay=100)
            else:
                a.drive(0, delay=100)
                sim.schedule(100, flip)
            sim.run()

        opt, ref = self._run(scenario)
        assert opt == ref
        final = opt[0][0][3][-1]
        assert final == ((100, 0) if writer_first else (100, 1))

    @pytest.mark.parametrize("reverse", [True, False])
    @pytest.mark.parametrize("between", [False, True])
    def test_revivals_keep_elision_order(self, between, reverse):
        """Two shadows on two nets revived in either order mature in
        elision order (sharing one anchor, or split by a real event
        queued between them)."""

        def scenario(stack, sim, log):
            a, b = self._nets(sim, log, "a", "b")
            a.drive(0, delay=100)
            if between:
                sim.schedule(100, lambda: log.append((sim.now, "mid")))
            b.drive(0, delay=100)
            first, second = (b, a) if reverse else (a, b)
            sim.run(until=10)
            first.set(1)
            sim.run(until=20)
            second.set(1)
            sim.run()

        opt, ref = self._run(scenario)
        assert opt == ref
        matured = [entry[1] for entry in opt[1] if entry[0] == 100]
        assert matured == (["a", "mid", "b"] if between else ["a", "b"])

    @pytest.mark.parametrize("release_at", [50, 150])
    def test_force_and_release_inside_window(self, release_at):
        """A force revives the shadow; the revived apply is blocked while
        forced and applies once released before W."""

        def scenario(stack, sim, log):
            (a,) = self._nets(sim, log, "a")
            a.drive(0, delay=100)
            sim.run(until=10)
            a.force(1)
            sim.run(until=release_at)
            a.release()
            sim.run()

        opt, ref = self._run(scenario)
        assert opt == ref
        assert opt[0][0][3][-1] == ((100, 0) if release_at < 100
                                    else (10, 1))

    def test_run_until_maturity_then_set(self):
        """run(until=W) stops before W's events: a set at W comes ahead
        of the shadow's slot."""

        def scenario(stack, sim, log):
            (a,) = self._nets(sim, log, "a")
            a.drive(0, delay=100)
            sim.run(until=100)
            a.set(1)
            sim.run()

        opt, ref = self._run(scenario)
        assert opt == ref
        assert opt[1] == ((100, "a", 1), (100, "a", 0))

    def test_set_after_drained_maturity_is_dropped(self):
        def scenario(stack, sim, log):
            (a,) = self._nets(sim, log, "a")
            a.drive(0, delay=100)
            sim.run()
            a.set(1)
            sim.run()

        opt, ref = self._run(scenario)
        assert opt == ref
        assert opt[0][0][3] == ((0, 0), (100, 1))

    @pytest.mark.parametrize("superseded", [False, True])
    def test_now_after_drain(self, superseded):
        """A run that empties the queue ends at the last elided W, where
        the seed ends after executing (or skipping the cancelled) no-op."""

        def scenario(stack, sim, log):
            (a,) = self._nets(sim, log, "a")
            a.drive(0, delay=500)
            if superseded:
                a.drive(0, delay=200)
            sim.run()

        opt, ref = self._run(scenario)
        assert opt == ref
        assert opt[2] == 500

    def test_bus_drive_shadows_revived_by_bus_set(self):
        def scenario(stack, sim, log):
            bus = sim.bus(4, "b")
            for net in bus:
                net.enable_trace()
                net.on_change(
                    lambda sig: log.append((sim.now, sig.name, sig.value)))
            bus.drive(0b0101, delay=100)  # bits 1 and 3 are no-ops
            sim.run(until=30)
            bus.set(0b1010)
            sim.run()

        opt, ref = self._run(scenario)
        assert opt == ref
        assert opt[0][-1][3][-1] == (100, 0)

    def test_revival_counted(self):
        sim = OPT.Simulator()
        a = sim.signal("a")
        a.drive(0, delay=100)
        assert (sim.drives_elided, sim.pending_events) == (1, 0)
        a.set(1)
        assert (sim.drives_elided, sim.pending_events) == (0, 1)


class TestDesignPathForceEquivalence:
    """Satellite: force/release via hierarchical design paths is
    bit-identical across the optimized and reference kernels — a
    path-addressed stuck-at fault injected mid-stream perturbs both
    kernels the same way, scalar and bus targets alike."""

    def _run(self, stack):
        from repro.design import Design, LinkBench

        sim = stack.Simulator()
        design = Design(
            LinkBench(kind="I3", config=LinkConfig(), tech=st012(),
                      freq_mhz=300.0, clock_cls=stack.Clock)
        ).elaborate(sim)
        link = design.top.link
        enable_all_traces(sim)
        link.flit_in.set(0xA5A5A5A5)
        link.valid_in.set(1)
        sim.run(until=40_000)
        # stuck-at-1 backpressure on the receive side, by path
        design.force("i3.a2s.stall", 1)
        sim.run(until=120_000)
        design.release("i3.a2s.stall")
        sim.run(until=200_000)
        # bus-wide stuck-at fault on the transmit flit, by path
        design.force("i3.s2a.flit_in", 0x0F0F0F0F)
        sim.run(until=260_000)
        design.release("i3.s2a.flit_in")
        link.valid_in.set(0)
        sim.run(until=320_000)
        probes = (
            design.find("i3.wdes.out.data").value,
            design.find("i3.s2a.stall").value,
            design.find("i3.a2s.flit_out").value,
        )
        return probes, snapshot(sim)

    def test_path_force_release_bit_identical(self):
        opt = self._run(OPT)
        ref = self._run(REF)
        assert opt == ref
        # the forced window must actually have perturbed the stream
        _probes, nets = opt
        stall_traces = [
            trace for name, _r, _f, trace in nets
            if name == "i3.a2s.stall"
        ]
        assert stall_traces and len(stall_traces[0]) >= 2


# ----------------------------------------------------------------------
# the one pinned *difference*: superseded drives and the event budget
# ----------------------------------------------------------------------
class TestCancellationDivergence:
    def _pulse_storm(self, stack, max_events):
        """300 superseding inertial drives, then one maturing one."""
        sim = stack.Simulator()
        sig = sim.signal("s")
        for i in range(300):
            sig.drive(i & 1, delay=500, inertial=True)
        sig.drive(1, delay=500, inertial=True)
        sim.run(max_events=max_events)
        return sim, sig

    def test_budget_counts_only_live_events(self):
        """Seed regression: superseded inertial drives executed as no-op
        callbacks and burned the max_events budget; with true
        cancellation only the one live drive counts."""
        sim, sig = self._pulse_storm(OPT, max_events=10)
        assert sig.value == 1
        assert sim.events_executed == 1
        # the 150 drives of 0 hold the net's value and are elided; the
        # 150 drives of 1 before the last are cancelled
        assert sim.events_cancelled == 150
        assert sim.drives_elided == 150
        # the same storm spuriously trips the seed kernel's livelock guard
        with pytest.raises(SimulationError, match="budget"):
            self._pulse_storm(REF, max_events=10)
        # ... and the final value still agrees when the budget allows it
        _, ref_sig = self._pulse_storm(REF, max_events=1000)
        assert ref_sig.value == 1
