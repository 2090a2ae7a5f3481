import pytest

from byzgather.portgraph import (
    DisconnectedGraph,
    DuplicateEdge,
    DuplicatePort,
    GraphFamily,
    InvalidFamilyParameters,
    PortOutOfRange,
    SelfLoop,
    build,
    generate,
)


def bfs_reachable(g) -> set[int]:
    # Independent reachability oracle: plain BFS over the port interface.
    seen = {0}
    queue = [0]
    while queue:
        v = queue.pop()
        for p in range(1, g.degree(v) + 1):
            u, _ = g.neighbor(v, p)
            if u not in seen:
                seen.add(u)
                queue.append(u)
    return seen


def test_build_smallest_connected_graph():
    g = build(2, [(0, 1)])
    assert g.degree(0) == 1 and g.degree(1) == 1
    assert g.neighbor(0, 1) == (1, 1)


def test_build_three_ring_is_symmetric():
    g = build(3, [(0, 1), (1, 2), (2, 0)])
    for v in range(3):
        assert g.degree(v) == 2


def test_disjoint_pairs_rejected():
    with pytest.raises(DisconnectedGraph):
        build(4, [(0, 1), (2, 3)])


def test_self_loop_rejected():
    with pytest.raises(SelfLoop) as err:
        build(2, [(0, 0), (0, 1)])
    assert err.value.node == 0


def test_duplicate_edge_rejected():
    with pytest.raises(DuplicateEdge):
        build(2, [(0, 1), (1, 0)])


def test_bad_port_assignment_rejected():
    with pytest.raises(DuplicatePort):
        build(3, [(0, 1), (1, 2), (2, 0)], {0: [1, 1]})
    with pytest.raises(DuplicatePort):
        build(3, [(0, 1), (1, 2), (2, 0)], {0: [1]})


def test_port_out_of_range():
    g = build(3, [(0, 1), (1, 2), (2, 0)])
    with pytest.raises(PortOutOfRange):
        g.neighbor(0, 3)
    with pytest.raises(PortOutOfRange):
        g.neighbor(0, 0)


def test_neighbor_is_an_involution_everywhere():
    for family in ("ring", "complete", "path", "random-tree", "random-connected"):
        for n in (3, 5, 8):
            g = generate(GraphFamily(family, n, seed=7))
            for v in range(g.node_count):
                for p in range(1, g.degree(v) + 1):
                    u, q = g.neighbor(v, p)
                    assert g.neighbor(u, q) == (v, p)
                    assert u != v


def test_ports_are_a_bijection_on_degree():
    for family in ("random-tree", "random-connected"):
        g = generate(GraphFamily(family, 9, seed=3))
        for v in range(g.node_count):
            targets = {g.neighbor(v, p)[0] for p in range(1, g.degree(v) + 1)}
            assert len(targets) == g.degree(v)


def test_generate_ring_and_complete_shapes():
    ring = generate(GraphFamily("ring", 5, 0))
    assert all(ring.degree(v) == 2 for v in range(5))
    # Walking one direction around the ring returns after n steps.
    v, p = 0, 1
    nodes = [0]
    for _ in range(5):
        u, q = ring.neighbor(v, p)
        nodes.append(u)
        v, p = u, (2 if q == 1 else 1)
    assert nodes[-1] == 0 and len(set(nodes)) == 5

    k4 = generate(GraphFamily("complete", 4, 1))
    assert all(k4.degree(v) == 3 for v in range(4))


def test_generated_graphs_are_connected():
    for family in ("ring", "complete", "path", "random-tree", "random-connected"):
        for seed in (0, 1, 7):
            g = generate(GraphFamily(family, 8, seed))
            assert bfs_reachable(g) == set(range(8))


def test_same_seed_regenerates_identically():
    a = generate(GraphFamily("random-connected", 8, 7))
    b = generate(GraphFamily("random-connected", 8, 7))
    c = generate(GraphFamily("random-connected", 8, 8))
    assert a.fingerprint() == b.fingerprint()
    assert a.fingerprint() != c.fingerprint()


def test_family_parameter_validation():
    with pytest.raises(InvalidFamilyParameters):
        generate(GraphFamily("ring", 2, 0))
    with pytest.raises(InvalidFamilyParameters):
        generate(GraphFamily("moebius", 5, 0))
    with pytest.raises(InvalidFamilyParameters):
        generate(GraphFamily("path", 0, 0))
