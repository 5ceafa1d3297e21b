"""Unit tests for mesh/torus topologies and XY routing."""

import pytest

from repro.noc import Port, Topology, next_hop, xy_route


class TestPort:
    def test_opposites(self):
        assert Port.NORTH.opposite == Port.SOUTH
        assert Port.EAST.opposite == Port.WEST
        assert Port.LOCAL.opposite == Port.LOCAL


class TestTopology:
    def test_node_count(self):
        assert Topology(4, 4).n_nodes == 16
        assert Topology(2, 3).n_nodes == 6

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Topology(0, 4)

    def test_nodes_cover_grid(self):
        topo = Topology(3, 2)
        nodes = list(topo.nodes())
        assert len(nodes) == 6
        assert (0, 0) in nodes and (2, 1) in nodes

    def test_mesh_neighbor_edges(self):
        topo = Topology(3, 3)
        assert topo.neighbor((0, 0), Port.WEST) is None
        assert topo.neighbor((0, 0), Port.EAST) == (1, 0)
        assert topo.neighbor((0, 0), Port.NORTH) == (0, 1)
        assert topo.neighbor((2, 2), Port.NORTH) is None

    def test_torus_wraps(self):
        topo = Topology(3, 3, torus=True)
        assert topo.neighbor((0, 0), Port.WEST) == (2, 0)
        assert topo.neighbor((2, 2), Port.NORTH) == (2, 0)

    def test_local_has_no_neighbor(self):
        assert Topology(2, 2).neighbor((0, 0), Port.LOCAL) is None

    def test_directed_link_count_mesh(self):
        # 4x4 mesh: 2*(3*4)*2 = 48 directed links
        assert Topology(4, 4).n_directed_links == 48

    def test_directed_link_count_torus(self):
        # every node has 4 out-links
        assert Topology(4, 4, torus=True).n_directed_links == 64

    def test_links_3x3(self):
        links = set(Topology(3, 3).links())
        assert len(links) == 24
        assert ((0, 0), Port.EAST, (1, 0)) in links
        assert ((1, 0), Port.WEST, (0, 0)) in links
        # a mesh corner has no link off the edge
        assert not any(src == (0, 0) and port in (Port.SOUTH, Port.WEST)
                       for src, port, _dst in links)
        assert {src for src, _port, _dst in links} == \
            set(Topology(3, 3).nodes())

    def test_average_hop_count_2x2(self):
        # pairs at distance 1 (8 ordered) and 2 (4 ordered): mean = 4/3
        assert Topology(2, 2).average_hop_count() == pytest.approx(4 / 3)

    # every mesh and torus size the tests build, pinned to the values
    # the all-pairs shortest paths of networkx gave (exact floats)
    @pytest.mark.parametrize("cols,rows,torus,expected", [
        (1, 1, False, 0.0), (2, 1, False, 1.0), (4, 1, False, 20 / 12),
        (2, 2, False, 16 / 12), (2, 3, False, 50 / 30),
        (3, 2, False, 50 / 30), (3, 3, False, 2.0),
        (3, 5, False, 2.6666666666666665),
        (5, 3, False, 2.6666666666666665), (4, 4, False, 640 / 240),
        (5, 5, False, 2000 / 600), (8, 8, False, 21504 / 4032),
        (1, 1, True, 0.0), (2, 1, True, 1.0),
        (4, 1, True, 1.3333333333333333), (2, 2, True, 16 / 12),
        (3, 3, True, 108 / 72), (3, 5, True, 2.0), (5, 3, True, 420 / 210),
        (4, 4, True, 512 / 240), (5, 5, True, 1500 / 600),
        (8, 8, True, 4.063492063492063),
    ])
    def test_average_hop_count_pinned(self, cols, rows, torus, expected):
        topo = Topology(cols, rows, torus=torus)
        assert topo.average_hop_count() == expected

    def test_in_bounds(self):
        topo = Topology(3, 3)
        assert topo.in_bounds((2, 2))
        assert not topo.in_bounds((3, 0))


class TestXYRoute:
    def test_x_before_y(self):
        topo = Topology(4, 4)
        route = xy_route((0, 0), (2, 3), topo)
        assert route == [Port.EAST, Port.EAST,
                         Port.NORTH, Port.NORTH, Port.NORTH]

    def test_west_and_south(self):
        topo = Topology(4, 4)
        route = xy_route((3, 3), (1, 0), topo)
        assert route == [Port.WEST, Port.WEST,
                         Port.SOUTH, Port.SOUTH, Port.SOUTH]

    def test_same_node_empty_route(self):
        assert xy_route((1, 1), (1, 1), Topology(4, 4)) == []

    def test_route_length_is_manhattan_distance(self):
        topo = Topology(5, 5)
        route = xy_route((0, 4), (4, 0), topo)
        assert len(route) == 8

    def test_out_of_bounds_rejected(self):
        with pytest.raises(ValueError):
            xy_route((0, 0), (9, 9), Topology(4, 4))

    def test_torus_takes_short_way_around(self):
        topo = Topology(4, 4, torus=True)
        route = xy_route((0, 0), (3, 0), topo)
        assert route == [Port.WEST]  # wrap is shorter than 3 hops east

    def test_next_hop_local_at_destination(self):
        assert next_hop((2, 2), (2, 2), Topology(4, 4)) == Port.LOCAL

    def test_next_hop_follows_route(self):
        topo = Topology(4, 4)
        assert next_hop((0, 0), (2, 0), topo) == Port.EAST
        assert next_hop((2, 0), (2, 3), topo) == Port.NORTH

    def test_route_walk_reaches_destination(self):
        topo = Topology(4, 4)
        pos = (0, 3)
        dest = (3, 1)
        for _ in range(20):
            if pos == dest:
                break
            port = next_hop(pos, dest, topo)
            pos = topo.neighbor(pos, port)
        assert pos == dest


class TestCompiledNextHop:
    """The compiled fast router must agree with next_hop everywhere."""

    @pytest.mark.parametrize("torus", [False, True])
    @pytest.mark.parametrize("cols,rows", [(1, 1), (2, 2), (3, 5),
                                           (4, 4), (5, 3), (8, 8)])
    def test_agrees_with_next_hop_on_all_pairs(self, cols, rows, torus):
        from repro.noc.topology import compile_next_hop

        topo = Topology(cols, rows, torus=torus)
        fast = compile_next_hop(topo)
        for src in topo.nodes():
            for dest in topo.nodes():
                assert fast(src, dest) is next_hop(src, dest, topo), \
                    (src, dest, cols, rows, torus)

    def test_compiled_router_is_reused_by_the_network(self):
        from repro.link.behavioral import derive_link_params
        from repro.noc import Network
        from repro.tech import st012

        topo = Topology(3, 3)
        net = Network(topo, derive_link_params(st012(), "I3", 300))
        route_fn = net.switches[(0, 0)].route_fn
        assert route_fn((0, 0), (2, 1)) is Port.EAST
        assert route_fn.__name__ == "fast_next_hop"
