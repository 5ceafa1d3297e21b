"""Unit tests for traffic generation."""

import pytest

from repro.noc import Topology, TrafficConfig, TrafficGenerator


class TestTrafficConfig:
    def test_defaults(self):
        cfg = TrafficConfig()
        assert cfg.pattern == "uniform"
        assert 0 < cfg.injection_rate <= 1

    def test_rate_bounds(self):
        with pytest.raises(ValueError):
            TrafficConfig(injection_rate=1.5)
        with pytest.raises(ValueError):
            TrafficConfig(injection_rate=-0.1)

    def test_packet_length_bound(self):
        with pytest.raises(ValueError):
            TrafficConfig(packet_length=0)


class TestTrafficGenerator:
    def test_unknown_pattern_rejected(self):
        with pytest.raises(ValueError):
            TrafficGenerator(Topology(4, 4), TrafficConfig(pattern="zigzag"))

    def test_hotspot_needs_coordinate(self):
        with pytest.raises(ValueError):
            TrafficGenerator(Topology(4, 4), TrafficConfig(pattern="hotspot"))

    def test_hotspot_out_of_bounds_rejected(self):
        with pytest.raises(ValueError, match=r"hotspot \(4, 0\)"):
            TrafficGenerator(
                Topology(4, 4),
                TrafficConfig(pattern="hotspot", hotspot=(4, 0)),
            )

    def test_deterministic_given_seed(self):
        topo = Topology(4, 4)
        runs = []
        for _ in range(2):
            gen = TrafficGenerator(
                topo, TrafficConfig(injection_rate=0.3, seed=77)
            )
            pairs = [
                (p.src, p.dest)
                for c in range(50)
                for p in gen.packets_for_cycle(c)
            ]
            runs.append(pairs)
        assert runs[0] == runs[1]

    def test_different_seeds_differ(self):
        topo = Topology(4, 4)
        gens = [
            TrafficGenerator(topo, TrafficConfig(injection_rate=0.3, seed=s))
            for s in (1, 2)
        ]
        seqs = [
            [(p.src, p.dest) for c in range(50)
             for p in g.packets_for_cycle(c)]
            for g in gens
        ]
        assert seqs[0] != seqs[1]

    def test_injection_rate_respected(self):
        topo = Topology(4, 4)
        cfg = TrafficConfig(injection_rate=0.2, packet_length=4, seed=3)
        gen = TrafficGenerator(topo, cfg)
        cycles = 4000
        flits = sum(
            p.length_flits
            for c in range(cycles)
            for p in gen.packets_for_cycle(c)
        )
        measured = flits / (cycles * topo.n_nodes)
        assert measured == pytest.approx(0.2, rel=0.1)

    def test_uniform_never_self_addressed(self):
        topo = Topology(4, 4)
        gen = TrafficGenerator(topo, TrafficConfig(injection_rate=0.5, seed=5))
        for c in range(100):
            for p in gen.packets_for_cycle(c):
                assert p.src != p.dest

    def test_transpose_pattern(self):
        topo = Topology(4, 4)
        gen = TrafficGenerator(
            topo,
            TrafficConfig(pattern="transpose", injection_rate=0.5, seed=5),
        )
        for c in range(100):
            for p in gen.packets_for_cycle(c):
                assert p.dest == (p.src[1], p.src[0])

    def test_bit_complement_pattern(self):
        topo = Topology(4, 4)
        gen = TrafficGenerator(
            topo,
            TrafficConfig(pattern="bit_complement", injection_rate=0.5,
                          seed=5),
        )
        for c in range(100):
            for p in gen.packets_for_cycle(c):
                assert p.dest == (3 - p.src[0], 3 - p.src[1])

    def test_hotspot_concentrates_traffic(self):
        topo = Topology(4, 4)
        gen = TrafficGenerator(
            topo,
            TrafficConfig(pattern="hotspot", hotspot=(0, 0),
                          hotspot_fraction=0.8, injection_rate=0.5, seed=5),
        )
        dests = [
            p.dest for c in range(300) for p in gen.packets_for_cycle(c)
        ]
        hot = sum(1 for d in dests if d == (0, 0))
        assert hot / len(dests) > 0.5

    def test_neighbor_pattern(self):
        topo = Topology(4, 4)
        gen = TrafficGenerator(
            topo,
            TrafficConfig(pattern="neighbor", injection_rate=0.5, seed=5),
        )
        for c in range(50):
            for p in gen.packets_for_cycle(c):
                assert p.dest == ((p.src[0] + 1) % 4, p.src[1])

    def test_packets_stamped_with_cycle(self):
        topo = Topology(2, 2)
        gen = TrafficGenerator(
            topo, TrafficConfig(injection_rate=1.0, packet_length=1, seed=9)
        )
        for c in (0, 5, 17):
            for p in gen.packets_for_cycle(c):
                assert p.created_cycle == c

