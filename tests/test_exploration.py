import pytest

from conftest import seq_of

from byzgather.exploration import (
    CertificationFailedAfterRetries,
    build_sequence,
    certify,
    exit_port,
    save_sequence,
    walk_visits,
)
from byzgather.portgraph import GraphFamily, build, generate


# One EXPLO step is exit_port(offset, entry port, degree).

def test_explo_step_zero_offset_is_identity():
    assert exit_port(0, 2, 3) == 2


def test_explo_step_wraparound():
    assert exit_port(1, 3, 3) == 1


def test_explo_step_start_convention():
    # The first move enters through virtual port 1: ((1 - 1 + 2) mod 5) + 1 = 3.
    assert exit_port(2, None, 5) == 3


def test_certify_single_node_empty_sequence():
    g = build(1, [])
    assert certify(seq_of([], 1), g).passed


def test_certify_two_nodes_empty_sequence_fails():
    g = build(2, [(0, 1)])
    result = certify(seq_of([], 2), g)
    assert not result.passed
    assert result.uncovered in (0, 1)


def test_certify_two_nodes_one_move():
    g = build(2, [(0, 1)])
    assert certify(seq_of([0], 2), g).passed


def test_certify_matches_hand_walk_on_six_ring():
    # All-zero offsets on a canonically ported ring oscillate between the
    # start and its port-1 neighbor, so coverage must fail from any start.
    g = generate(GraphFamily("ring", 6, 0))
    seq = seq_of([0] * 5, 6)
    assert walk_visits(seq, g, 0) == {0, 1}
    result = certify(seq, g)
    assert not result.passed
    assert result.start == 0 and result.uncovered == 2


def test_walk_visits_agrees_with_direct_simulation():
    g = generate(GraphFamily("random-connected", 7, 3))
    seq = build_sequence(7, 0, [g])
    for start in range(7):
        pos, entry = start, None
        visited = {start}
        for i in range(seq.length):
            d = g.degree(pos)
            e = 1 if entry is None else entry
            pos, entry = g.neighbor(pos, (e - 1 + seq.offsets[i]) % d + 1)
            visited.add(pos)
        assert visited == walk_visits(seq, g, start)
        assert visited == set(range(7))


def test_build_sequence_on_five_ring_needs_at_least_four_moves():
    g = generate(GraphFamily("ring", 5, 0))
    seq = build_sequence(5, 1, [g])
    assert seq.length >= 4
    assert certify(seq, g).passed


def test_build_sequence_is_deterministic():
    g = generate(GraphFamily("ring", 5, 0))
    a = build_sequence(5, 3, [g])
    b = build_sequence(5, 3, [g])
    c = build_sequence(5, 4, [g])
    assert a.offsets == b.offsets
    assert a.offsets != c.offsets or a.length != c.length


def test_build_sequence_single_node_world_is_empty():
    seq = build_sequence(1, 0, [build(1, [])])
    assert seq.length == 0


def test_build_sequence_rejects_oversized_graph():
    g = generate(GraphFamily("ring", 5, 0))
    with pytest.raises(Exception):
        build_sequence(3, 0, [g])


def test_build_sequence_retry_exhaustion():
    g = generate(GraphFamily("ring", 5, 0))
    with pytest.raises(CertificationFailedAfterRetries):
        build_sequence(5, 0, [g], initial_length=1, max_attempts=1)


def test_identical_starts_follow_identical_trajectories():
    g = generate(GraphFamily("random-tree", 6, 2))
    seq = build_sequence(6, 0, [g])

    def trajectory(start):
        pos, entry, out = start, None, [start]
        for i in range(seq.length):
            d = g.degree(pos)
            e = 1 if entry is None else entry
            pos, entry = g.neighbor(pos, (e - 1 + seq.offsets[i]) % d + 1)
            out.append(pos)
        return out

    assert trajectory(3) == trajectory(3)


def test_save_sequence_writes_header_and_offsets(tmp_path):
    g = generate(GraphFamily("ring", 5, 0))
    seq = build_sequence(5, 0, [g])
    path = tmp_path / "seq.txt"
    save_sequence(seq, str(path))
    header, offsets = path.read_text(encoding="utf-8").splitlines()
    assert header == f"{seq.certified_bound} {seq.seed} {seq.length}"
    assert tuple(map(int, offsets.split())) == seq.offsets
