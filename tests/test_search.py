from svbraid.search import SLACK, Unknown, bidirectional_search


def flip_neighbors(caps):
    """Toy moves on strings: append or drop "xx" under the cap, and swap
    a leading "a" and "b" once six x's follow it.  The only path from "a"
    to "b" runs through 7-letter states, past the first cap of 1 + SLACK."""

    def neighbors(state, cap):
        caps.append(cap)
        if len(state) + 2 <= cap:
            yield "grow", len(state), "", "xx", state + "xx"
        if len(state) >= 3:
            yield "shrink", len(state) - 2, "xx", "", state[:-2]
        if len(state) >= 7:
            other = "b" if state[0] == "a" else "a"
            yield "flip", 0, state[0], other, other + state[1:]

    return neighbors


def test_search_widens_its_cap_and_counts_every_round():
    caps = []
    path = bidirectional_search("a", "b", flip_neighbors(caps), max_nodes=100)
    assert SLACK == 4 and sorted(set(caps)) == [5, 7]
    assert [label for label, *_ in path] == ["grow"] * 3 + ["flip"] + ["shrink"] * 3
    state = "a"
    for _, pos, before, after in path:
        assert state[pos:pos + len(before)] == before
        state = state[:pos] + after + state[pos + len(before):]
    assert state == "b"
    # the first round stores a, axx, axxxx and b before its forward side
    # runs out, and the second needs 8 nodes to meet: 11 in all stop it one
    # node over, counting both rounds, and 12 find the path
    assert bidirectional_search("a", "b", flip_neighbors([]), max_nodes=4) \
        == Unknown(4, 3, 0)
    assert bidirectional_search("a", "b", flip_neighbors([]), max_nodes=11) \
        == Unknown(4 + 8, 5, 0)
    assert bidirectional_search("a", "b", flip_neighbors([]), max_nodes=12) == path
