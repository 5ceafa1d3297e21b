"""Tests for the hierarchical design API (repro.design).

Covers the Component/Port layer (declaration, connection checking,
elaboration onto both kernels), path addressing (find/force/release),
the differential guarantee that a design-built link is bit-identical to
a legacy-built one, the tree-walking analysis functions pinned against
the hand-maintained module tables, and the mesh/registry/CLI surface.
"""

import io

import pytest

import repro.sim as OPT
import repro.sim.reference as REF
from repro.analysis.area import (
    instance_area_rows,
    link_area,
    link_area_from_tree,
)
from repro.analysis.power import activity_by_instance
from repro.analysis.report import render_design_summary
from repro.analysis.timing import (
    link_timing_from_tree,
    per_transfer_cycle_delay,
    per_word_cycle_delay,
)
from repro.analysis.wires import link_wire_count_from_tree
from repro.design import Component, Design, DesignError, LinkBench, MeshDesign
from repro.design.component import Port
from repro.elements.gates import And2, Inverter, Xor2
from repro.link import LinkConfig, LinkTestbench, build_i1, build_i2, build_i3
from repro.noc.topology import Port as NocPort
from repro.noc.topology import Topology
from repro.sim import Simulator, Tracer, write_vcd
from repro.tech import st012

FLITS = [(0xA5A5A5A5, 0x5A5A5A5A)[i % 2] for i in range(8)]


def snapshot(sim):
    return [
        (sig.name, sig.rising, sig.falling, tuple(sig.trace or ()))
        for sig in sim.created_signals
    ]


def enable_all_traces(sim):
    for sig in sim.created_signals:
        sig.enable_trace()


# ----------------------------------------------------------------------
# a small declarative component used across the unit tests
# ----------------------------------------------------------------------
class HalfAdder(Component):
    def __init__(self, name=None):
        super().__init__(name)
        self.a = self.port_in("a")
        self.b = self.port_in("b")
        self.s = self.port_out("s")
        self.c = self.port_out("c")

    def build(self, sim):
        self.xor = self.adopt(
            Xor2(sim, self.net("a"), self.net("b"), out=self.net("s"),
                 name=self.sub("xor")),
            leaf="xor",
        )
        self.andg = self.adopt(
            And2(sim, self.net("a"), self.net("b"), out=self.net("c"),
                 name=self.sub("and")),
            leaf="and",
        )


class TwoStage(Component):
    """Two half-adders wired through the declarative connect layer."""

    def __init__(self, name="two"):
        super().__init__(name)
        self.x = self.port_in("x")
        self.y = self.port_in("y")
        self.out = self.port_out("out")
        self.ha1 = self.add("ha1", HalfAdder())
        self.ha2 = self.add("ha2", HalfAdder())
        self.connect(self.x, self.ha1.a)
        self.connect(self.y, self.ha1.b)
        self.connect(self.ha1.s, self.ha2.a)
        self.connect(self.ha1.c, self.ha2.b)
        self.connect(self.ha2.s, self.out)


class TestComponentBasics:
    def test_paths_and_tree(self):
        top = TwoStage()
        paths = [path for path, _ in top.walk()]
        assert paths == ["two", "two.ha1", "two.ha2"]
        text = top.tree()
        assert "ha1 <HalfAdder>" in text
        assert "a:in" in text and "s:out" in text

    def test_duplicate_child_rejected(self):
        top = Component("t")
        top.add("x", Component())
        with pytest.raises(DesignError, match="already has a child"):
            top.add("x", Component())

    def test_child_cannot_have_two_parents(self):
        child = Component("c")
        Component("p1").add("c", child)
        with pytest.raises(DesignError, match="already belongs"):
            Component("p2").add("c", child)

    def test_duplicate_port_rejected(self):
        comp = Component("t")
        comp.port_in("a")
        with pytest.raises(DesignError, match="already declares"):
            comp.port_out("a")

    def test_width_mismatch_rejected(self):
        top = Component("t")
        a = top.port_in("a", width=8)
        b = top.port_out("b", width=4)
        with pytest.raises(DesignError, match="width mismatch"):
            top.connect(a, b)

    def test_in_cannot_drive_sibling_from_child(self):
        top = Component("t")
        c1 = top.add("c1", Component())
        c2 = top.add("c2", Component())
        src = c1.port_in("i")
        dst = c2.port_in("i")
        with pytest.raises(DesignError, match="cannot drive"):
            top.connect(src, dst)

    def test_out_cannot_be_sink_between_siblings(self):
        top = Component("t")
        c1 = top.add("c1", Component())
        c2 = top.add("c2", Component())
        src = c1.port_out("o")
        dst = c2.port_out("o")
        with pytest.raises(DesignError, match="cannot be driven"):
            top.connect(src, dst)

    def test_two_drivers_rejected(self):
        top = Component("t")
        c1 = top.add("c1", Component())
        c2 = top.add("c2", Component())
        c3 = top.add("c3", Component())
        sink = c3.port_in("i")
        top.connect(c1.port_out("o"), sink)
        with pytest.raises(DesignError, match="driven by"):
            top.connect(c2.port_out("o"), sink)

    def test_rejected_connection_leaves_groups_untouched(self):
        """Regression: a second-driver rejection must not have already
        merged the net groups — the loser keeps its own net."""
        top = Component("t")
        c1 = top.add("c1", Component())
        c2 = top.add("c2", Component())
        c3 = top.add("c3", Component())
        winner = c1.port_out("o")
        loser = c2.port_out("o")
        sink = c3.port_in("i")
        top.connect(winner, sink)
        with pytest.raises(DesignError):
            top.connect(loser, sink)
        top.elaborate(Simulator())
        assert sink.net is winner.net
        assert loser.net is not winner.net
        assert loser.net.name == "t.c2.o"

    def test_input_cannot_alias_internally_driven_net(self):
        """Regression: a parent 'in' port must not merge onto a net a
        child output already drives — that net would have two sources."""
        top = Component("t")
        c1 = top.add("c1", Component())
        c2 = top.add("c2", Component())
        x = top.port_in("x")
        sink = c2.port_in("i")
        top.connect(c1.port_out("o"), sink)
        with pytest.raises(DesignError, match="cannot also feed"):
            top.connect(x, sink)
        # ... and the rejected input kept its own net
        top.elaborate(Simulator())
        assert x.net is not sink.net
        assert x.net.name == "t.x"

    def test_two_same_level_inputs_cannot_share_a_sink(self):
        top = Component("t")
        c1 = top.add("c1", Component())
        sink = c1.port_in("i")
        top.connect(top.port_in("x"), sink)
        with pytest.raises(DesignError, match="cannot also feed"):
            top.connect(top.port_in("y"), sink)

    def test_driver_cannot_join_an_externally_fed_net(self):
        top = Component("t")
        c1 = top.add("c1", Component())
        c2 = top.add("c2", Component())
        sink = c2.port_in("i")
        top.connect(top.port_in("x"), sink)
        with pytest.raises(DesignError, match="already fed"):
            top.connect(c1.port_out("o"), sink)

    def test_driver_satisfying_a_childs_input_chain_allowed(self):
        """c2's internal chain makes c2.i a provisional feed; a sibling
        output later supplying that input is the one true source."""

        class Chained(Component):
            def __init__(self, name=None):
                super().__init__(name)
                self.i = self.port_in("i")
                inner = self.add("inner", Component())
                self.connect(self.i, inner.port_in("i"))

        top = Component("t")
        c1 = top.add("c1", Component())
        c2 = top.add("c2", Chained())
        top.connect(c1.port_out("o"), c2.i)
        top.elaborate(Simulator())
        assert c2.i.net.name == "t.c1.o"

    def test_input_chain_through_hierarchy_allowed(self):
        """A top input feeding a child input that a deeper build then
        feeds onward is one source, not two — must stay legal."""

        class Inner(Component):
            def __init__(self, name=None):
                super().__init__(name)
                self.i = self.port_in("i")

            def build(self, sim):
                self.adopt(Inverter(sim, self.net("i"),
                                    name=self.sub("inv")))

        class Outer(Component):
            def __init__(self, name=None):
                super().__init__(name)
                self.i = self.port_in("i")
                inner = self.add("inner", Inner())
                self.connect(self.i, inner.i)

        top = Component("t")
        outer = top.add("o1", Outer())
        x = top.port_in("x")
        top.connect(x, outer.i)
        top.elaborate(Simulator())
        assert outer.i.net is x.net

    def test_foreign_port_rejected(self):
        top = Component("t")
        other = Component("o")
        with pytest.raises(DesignError, match="not a port of"):
            top.connect(other.port_out("x"), top.port_out("y"))

    def test_unelaborated_net_access_raises(self):
        comp = Component("t")
        port = comp.port_in("a")
        with pytest.raises(DesignError, match="not elaborated"):
            _ = port.net

    def test_elaborate_twice_rejected(self):
        top = HalfAdder("ha")
        top.elaborate(Simulator())
        with pytest.raises(DesignError, match="already elaborated"):
            top.elaborate(Simulator())

    def test_elaborate_from_child_rejected(self):
        top = TwoStage()
        with pytest.raises(DesignError, match="root"):
            top.ha1.elaborate(Simulator())

    def test_adopt_derives_leaf_from_tree_path(self):
        """Regression: a declarative component adopting a sub()-named
        eager element without an explicit leaf= must strip its *path*
        prefix (its leaf name is set by the parent, not its class)."""

        class PathNamed(Component):
            def __init__(self, name=None):
                super().__init__(name)
                self.a = self.port_in("a")

            def build(self, sim):
                self.adopt(Inverter(sim, self.net("a"),
                                    name=self.sub("inv")))

        top = Component("top")
        stage = top.add("st1", PathNamed())
        top.elaborate(Simulator())
        assert list(stage.children) == ["inv"]
        assert top.find("st1.inv").name == "top.st1.inv"


class TestElaboration:
    def test_nets_named_by_hierarchy_path(self):
        top = TwoStage()
        sim = Simulator()
        top.elaborate(sim)
        names = {sig.name for sig in sim.created_signals}
        # port nets take the path of their driving (or outermost) port
        assert "two.x" in names
        assert "two.ha1.s" in names  # ha1.s drives ha2.a: driver names it
        assert "two.ha1.xor.out" not in names  # xor drives the port net
        # eager leaf gates name their own internal nets by instance path
        assert any(n.startswith("two.ha1.") for n in names)

    def test_logic_settles_correctly(self):
        top = TwoStage()
        sim = Simulator()
        top.elaborate(sim)
        x, y = top.find("x"), top.find("y")
        sim.run(until=10_000)
        x.set(1)
        y.set(1)
        sim.run(until=20_000)
        # x=1,y=1: ha1.s=0, ha1.c=1 -> ha2: a=0,b=1 -> s=1
        assert top.find("out").value == 1

    def test_same_description_elaborates_on_both_kernels(self):
        def run(stack):
            sim = stack.Simulator()
            top = TwoStage()
            top.elaborate(sim)
            enable_all_traces(sim)
            x, y = top.find("x"), top.find("y")
            for i in range(12):
                x.drive(i & 1, delay=i * 700, inertial=False)
                y.drive((i >> 1) & 1, delay=i * 700 + 300,
                        inertial=False)
            sim.run()
            return snapshot(sim)

        assert run(OPT) == run(REF)

    def test_bind_attaches_existing_net(self):
        sim = Simulator()
        clk = sim.signal("ext.clk")
        top = HalfAdder("ha")
        top.bind(top.a, clk)
        top.elaborate(sim)
        assert top.net("a") is clk

    def test_bound_width_mismatch_rejected(self):
        sim = Simulator()
        bus = sim.bus(8, "ext.bus")
        top = Component("t")
        port = top.port_in("a", width=4)
        with pytest.raises(DesignError, match="width"):
            top.bind(port, bus)


class TestPathAddressing:
    def make_link(self, kind="I3"):
        sim = Simulator()
        clock = OPT.Clock.from_mhz(sim, 300, "clk")
        builders = {"I1": build_i1, "I2": build_i2, "I3": build_i3}
        link = builders[kind](sim, clock.signal, LinkConfig(), st012())
        return sim, clock, link

    def test_find_resolves_children_ports_and_attributes(self):
        sim, _clock, link = self.make_link()
        design = Design(link, sim)
        # child chain + attribute fallback
        assert design.find("i3.s2a.flag0.flag_a").name == "i3.s2a.flag0.a"
        # port on an eager component
        assert design.find("s2a.stall").name == "i3.s2a.stall"
        # bracket indexing into lists and buses
        assert design.find("wdes.sreg.stages[1]").width == 8
        assert design.find("s2a.flit_in[3]").name == "i3.s2a.flitin[3]"

    def test_find_error_lists_candidates(self):
        sim, _clock, link = self.make_link()
        design = Design(link, sim)
        with pytest.raises(DesignError, match="children"):
            design.find("i3.nonexistent.x")

    def test_find_typo_suggests_nearest_path(self):
        sim, _clock, link = self.make_link()
        design = Design(link, sim)
        with pytest.raises(DesignError, match="did you mean") as err:
            design.find("i3.s2a.flagg0")
        # the suggestion is the full dotted path — the same form lint
        # findings use — so it pastes straight back into find()
        assert "'i3.s2a.flag0'" in str(err.value)
        design.find("i3.s2a.flag0")  # and it resolves

    def test_find_typo_suggests_ports_too(self):
        sim, _clock, link = self.make_link()
        design = Design(link, sim)
        with pytest.raises(DesignError, match="did you mean") as err:
            design.find("s2a.stal")
        assert "stall" in str(err.value)

    def test_find_with_no_near_match_falls_back_to_listing(self):
        sim, _clock, link = self.make_link()
        design = Design(link, sim)
        with pytest.raises(DesignError) as err:
            design.find("i3.zzzzqqqq")
        message = str(err.value)
        assert "did you mean" not in message
        assert "children" in message

    def test_force_release_scalar_by_path(self):
        sim, _clock, link = self.make_link()
        design = Design(link, sim)
        design.force("i3.s2a.stall", 1)
        assert link.s2a.stall.value == 1
        assert link.s2a.stall.is_forced
        design.release("i3.s2a.stall")
        assert not link.s2a.stall.is_forced

    def test_force_release_bus_by_path(self):
        sim, _clock, link = self.make_link()
        design = Design(link, sim)
        design.force("i3.s2a.flit_in", 0xDEADBEEF)
        assert link.s2a.flit_in.value == 0xDEADBEEF
        assert all(sig.is_forced for sig in link.s2a.flit_in.signals)
        design.release("i3.s2a.flit_in")
        assert not any(sig.is_forced for sig in link.s2a.flit_in.signals)

    def test_force_overflow_rejected(self):
        sim, _clock, link = self.make_link()
        design = Design(link, sim)
        with pytest.raises(DesignError, match="does not fit"):
            design.force("i3.s2a.flit_in", 1 << 32)

    def test_force_on_component_rejected(self):
        sim, _clock, link = self.make_link()
        design = Design(link, sim)
        with pytest.raises(DesignError, match="not a net"):
            design.force("i3.s2a", 1)

    def test_nets_by_instance_partitions_created_signals(self):
        sim, _clock, link = self.make_link()
        design = Design(link, sim)
        grouped = design.nets_by_instance()
        total = sum(len(nets) for nets in grouped.values())
        assert total == len(sim.created_signals)
        # the clock is testbench-level (owned by no instance)
        assert [s.name for s in grouped[""]] == ["clk"]
        # FIFO register nets live under their own register instance
        assert any("i3.s2a.reg0" in path for path in grouped)

    def test_i1_nets_attributed_to_the_pipeline_instance(self):
        """Regression: the I1 wrapper shares its name prefix with the
        pipeline it wraps; the pipeline (which created the nets) must
        own them, not the wrapper."""
        sim, _clock, link = self.make_link("I1")
        grouped = Design(link, sim).nets_by_instance()
        assert "i1" not in grouped  # wrapper created no nets itself
        pipe_nets = grouped["i1.pipe"]
        assert len(pipe_nets) == len(sim.created_signals) - 1  # - clk
        assert any(sig.name == "i1.st0.valid" for sig in pipe_nets)


# ----------------------------------------------------------------------
# the acceptance-criterion differential: design-built I3 testbench is
# bit-identical to the legacy construction path, on both kernels
# ----------------------------------------------------------------------
def run_legacy(stack, kind="I3"):
    sim = stack.Simulator()
    clock = stack.Clock.from_mhz(sim, 300, "clk")
    builders = {"I1": build_i1, "I2": build_i2, "I3": build_i3}
    link = builders[kind](sim, clock.signal, LinkConfig(), st012())
    enable_all_traces(sim)
    bench = LinkTestbench(sim, clock, link)
    m = bench.run(FLITS)
    vcd = io.StringIO()
    tracer = Tracer()
    tracer.watch(*sim.created_signals)
    write_vcd(tracer, vcd)
    return {
        "nets": snapshot(sim),
        "values": tuple(m.received_values),
        "delivery_times": tuple(m.delivery_times_ps),
        "vcd": vcd.getvalue(),
    }


def run_design(stack, kind="I3"):
    sim = stack.Simulator()
    design = Design(
        LinkBench(kind=kind, config=LinkConfig(), tech=st012(),
                  freq_mhz=300.0, clock_cls=stack.Clock)
    ).elaborate(sim)
    bench_comp = design.top
    enable_all_traces(sim)
    bench = LinkTestbench(sim, bench_comp.clock, bench_comp.link)
    m = bench.run(FLITS)
    vcd = io.StringIO()
    tracer = Tracer()
    tracer.watch(*sim.created_signals)
    write_vcd(tracer, vcd)
    return {
        "nets": snapshot(sim),
        "values": tuple(m.received_values),
        "delivery_times": tuple(m.delivery_times_ps),
        "vcd": vcd.getvalue(),
    }


class TestDesignVsLegacyDifferential:
    @pytest.mark.parametrize("kind", ["I1", "I2", "I3"])
    def test_design_build_bit_identical_to_legacy(self, kind):
        assert run_design(OPT, kind) == run_legacy(OPT, kind)

    def test_design_build_bit_identical_on_reference_kernel(self):
        assert run_design(REF) == run_legacy(REF)

    def test_design_build_bit_identical_across_kernels(self):
        assert run_design(OPT) == run_design(REF)

    def test_design_path_probe_during_run(self):
        sim = Simulator()
        design = Design(
            LinkBench(kind="I3", config=LinkConfig(), tech=st012())
        ).elaborate(sim)
        link = design.top.link
        link.flit_in.set(0xA5A5A5A5)
        link.valid_in.set(1)
        sim.run(until=200_000)
        # the word made it through the serializer chain: probe by path
        assert design.find("tb.i3.wdes.out.data").value == 0xA5A5A5A5


# ----------------------------------------------------------------------
# tree-walking analysis pinned against the module tables
# ----------------------------------------------------------------------
class TestTreeWalkingAnalysis:
    @pytest.mark.parametrize("kind", ["I1", "I2", "I3"])
    @pytest.mark.parametrize("n_buffers", [2, 4, 6])
    def test_area_from_tree_pins_module_table(self, kind, n_buffers):
        tech = st012()
        sim = Simulator()
        clock = OPT.Clock.from_mhz(sim, 300, "clk")
        builders = {"I1": build_i1, "I2": build_i2, "I3": build_i3}
        link = builders[kind](
            sim, clock.signal, LinkConfig(n_buffers=n_buffers), tech
        )
        from_tree = link_area_from_tree(link, tech)
        from_table = link_area(tech, kind, n_buffers)
        assert from_tree.modules == from_table.modules
        assert from_tree.quantities == from_table.quantities
        assert from_tree.total_um2 == pytest.approx(from_table.total_um2)
        # canonical Table 2 row order is preserved
        assert list(from_tree.modules) == list(from_table.modules)

    def test_instance_area_rows_carry_paths(self):
        tech = st012()
        sim = Simulator()
        clock = OPT.Clock.from_mhz(sim, 300, "clk")
        link = build_i2(sim, clock.signal, LinkConfig(), tech)
        rows = instance_area_rows(link, tech)
        paths = [path for path, _label, _area in rows]
        assert "i2.s2a" in paths
        assert "i2.chain.s0" in paths  # wire-buffer stage, per instance

    @pytest.mark.parametrize("kind", ["I1", "I2", "I3"])
    def test_wire_count_from_tree_pins_link_attribute(self, kind):
        sim = Simulator()
        clock = OPT.Clock.from_mhz(sim, 300, "clk")
        builders = {"I1": build_i1, "I2": build_i2, "I3": build_i3}
        link = builders[kind](sim, clock.signal, LinkConfig(), st012())
        assert link_wire_count_from_tree(link) == link.wire_count

    def test_timing_from_tree_pins_analytical_models(self):
        tech = st012()
        sim = Simulator()
        clock = OPT.Clock.from_mhz(sim, 300, "clk")
        i2 = build_i2(sim, clock.signal, LinkConfig(), tech)
        i3 = build_i3(sim, clock.signal, LinkConfig(), tech, name="i3b")
        assert (
            link_timing_from_tree(i2, tech).cycle_delay_ps
            == per_transfer_cycle_delay(tech.handshake, 4, 4).cycle_delay_ps
        )
        assert (
            link_timing_from_tree(i3, tech).cycle_delay_ps
            == per_word_cycle_delay(tech.handshake, 4, 4).cycle_delay_ps
        )
        i1 = build_i1(sim, clock.signal, LinkConfig(), tech)
        with pytest.raises(ValueError, match="clock-bound"):
            link_timing_from_tree(i1, tech)

    def test_activity_by_instance_totals_match_global_counters(self):
        sim = Simulator()
        clock = OPT.Clock.from_mhz(sim, 300, "clk")
        link = build_i3(sim, clock.signal, LinkConfig(), st012())
        bench = LinkTestbench(sim, clock, link)
        bench.run(FLITS[:4])
        rows = activity_by_instance(link, sim)
        total = sum(transitions for *_head, transitions, _sw in rows)
        expected = sum(
            sig.rising + sig.falling for sig in sim.created_signals
        )
        assert total == expected
        # the testbench adopted the link, so its root path is "tb.i3"
        assert rows[0][0] == "tb.i3"

    def test_render_design_summary_lists_instances(self):
        sim = Simulator()
        clock = OPT.Clock.from_mhz(sim, 300, "clk")
        link = build_i3(sim, clock.signal, LinkConfig(), st012())
        text = render_design_summary(Design(link, sim))
        assert "SyncToAsyncInterface" in text
        assert "nets" in text


# ----------------------------------------------------------------------
# mesh design: path-addressed links, domains, campaign hooks
# ----------------------------------------------------------------------
class TestMeshDesign:
    def test_paths_and_lookup(self):
        mesh = MeshDesign(Topology(3, 3))
        link = mesh.link_by_path("node[1][2].west")
        assert link.src == (2, 1)
        assert link.noc_port is NocPort.WEST
        assert mesh.link_path((2, 1), NocPort.WEST) == "node[1][2].west"
        assert mesh.find("node[1][2].west") is link

    def test_degrade_attaches_params_and_tag(self):
        mesh = MeshDesign(Topology(2, 2))
        marker = object()
        mesh.degrade("node[0][0].east", marker)
        hook = mesh.link_params_for()
        assert hook((0, 0), NocPort.EAST, (1, 0)) is marker
        assert hook((0, 0), NocPort.NORTH, (0, 1)) is None
        assert "[degraded]" in mesh.tree()

    def test_degrade_unknown_path_raises(self):
        mesh = MeshDesign(Topology(2, 2))
        with pytest.raises(DesignError):
            mesh.degrade("node[0][0].west", object())  # edge of mesh

    def test_domains_and_cross_domain_links(self):
        mesh = MeshDesign(Topology(4, 4))
        counts = mesh.assign_domains(
            lambda node: "slow" if node.x >= 2 else "fast"
        )
        assert counts == {"fast": 8, "slow": 8}
        crossing = mesh.cross_domain_links()
        # the domain wall crosses 4 rows, links in both directions
        assert len(crossing) == 8
        assert all(
            mesh.node_at(link.src).domain != mesh.node_at(link.dst).domain
            for link in crossing
        )


class TestScenarioDesignHooks:
    def test_fault_injection_explicit_paths(self):
        from repro.experiments import fault_injection

        result = fault_injection.run(
            mesh_size=3, cycles=150,
            fault_paths="node[0][0].east,node[1][1].north",
        )
        assert not result.failures()
        assert "node[0][0].east" in result.description

    def test_fault_injection_design_hook(self):
        from repro.runner import registry

        registry.load_builtin()
        sc = registry.get("fault-injection")
        assert sc.has_design
        design = sc.design_for(overrides={"mesh_size": 3})
        degraded = [
            path for path, comp in design.top.walk()
            if getattr(comp, "tag", None) == "degraded"
        ]
        assert len(degraded) == 3  # default n_faults

    def test_gals_design_hook_assigns_domains(self):
        from repro.runner import registry

        registry.load_builtin()
        design = registry.get("gals-mesh").design_for()
        domains = {
            comp.domain
            for _path, comp in design.top.walk()
            if hasattr(comp, "domain")
        }
        assert domains == {"fast", "slow"}

    def test_throughput_design_hook_is_elaborated(self):
        from repro.runner import registry

        registry.load_builtin()
        design = registry.get("throughput").design_for()
        assert design.is_elaborated
        assert design.find("tb.i3.s2a.stall").name == "i3.s2a.stall"

    def test_scenario_without_design_raises(self):
        from repro.runner import registry

        registry.load_builtin()
        with pytest.raises(registry.ScenarioError, match="no design"):
            registry.get("fig12").design_for()


class TestCli:
    def test_inspect_tree(self, capsys):
        from repro.__main__ import main

        assert main(["inspect", "gals-mesh", "--tree",
                     "--set", "mesh_size=2"]) == 0
        out = capsys.readouterr().out
        assert "node[0][0] <MeshNode>" in out
        assert "domain" in out

    def test_inspect_summary_table(self, capsys):
        from repro.__main__ import main

        assert main(["inspect", "fault-injection",
                     "--set", "mesh_size=2"]) == 0
        out = capsys.readouterr().out
        assert "MeshDesign" in out
        assert "instance" in out

    def test_inspect_without_design_errors(self, capsys):
        from repro.__main__ import main

        with pytest.raises(SystemExit):
            main(["inspect", "fig12"])
        err = capsys.readouterr().err
        assert "no design tree" in err

    def test_inspect_compiled_prints_levelized_stats(self, capsys):
        from repro.__main__ import main

        assert main(["inspect", "compiled-fault-campaign",
                     "--compiled", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "lanes per word:  64" in out
        assert "gates per level" in out
        # the scenario batches along its seed axis: the packing
        # estimate tells a sweep author what one word can carry
        assert "batch packing: up to 16" in out

    def test_inspect_compiled_explains_uncompilable_designs(
            self, capsys):
        from repro.__main__ import main

        assert main(["inspect", "gals-mesh", "--compiled",
                     "--set", "mesh_size=2"]) == 0
        out = capsys.readouterr().out
        assert "not compilable:" in out

    def test_list_verbose_prints_param_specs(self, capsys):
        from repro.__main__ import main

        assert main(["list", "--verbose"]) == 0
        out = capsys.readouterr().out
        # typed parameter rows: name, type, default, choices
        assert "param" in out and "type" in out and "choices" in out
        assert "mesh_size" in out
        assert "fast-mode overrides" in out
        assert "design tree (see: inspect)" in out

    def test_list_verbose_with_tag_filter(self, capsys):
        from repro.__main__ import main

        assert main(["list", "--verbose", "--tags", "gals"]) == 0
        out = capsys.readouterr().out
        assert "gals-mesh" in out
        assert "fig12" not in out
