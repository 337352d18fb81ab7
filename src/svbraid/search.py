"""Bounded bidirectional breadth-first search over rewrite moves.

States are opaque hashables: packed strings for words, arrow tuples for
Gauss diagrams.  A neighbor function yields ``(label, position, before,
after, next_state)`` tuples in a fixed order, so runs are deterministic
for a given budget.  The move set must be closed under inversion:
swapping ``before`` and ``after`` of any move is again a legal move.
That lets the backward frontier grow with the same neighbor function.
"""

from __future__ import annotations

from typing import Callable, Hashable, NamedTuple


class SearchStats(NamedTuple):
    nodes: int
    depth_forward: int
    depth_backward: int


Move = tuple  # (label, position, before, after)


def bidirectional_search(start: Hashable, goal: Hashable, neighbors: Callable,
                         *, max_nodes: int) -> list[Move] | SearchStats:
    """Search from both ends; a list of moves transforms start into goal.

    Returns SearchStats instead of a path when the node budget or frontier
    exhaustion stops the search.
    """
    if start == goal:
        return []
    if max_nodes < 2:
        return SearchStats(2, 0, 0)

    seen_f: dict = {start: None}
    seen_b: dict = {goal: None}
    frontier_f = [start]
    frontier_b = [goal]
    depth_f = depth_b = 0

    def stitch(meet) -> list[Move]:
        fwd = []
        state = meet
        while seen_f[state] is not None:
            parent, move = seen_f[state]
            fwd.append(move)
            state = parent
        fwd.reverse()
        state = meet
        while seen_b[state] is not None:
            parent, move = seen_b[state]
            label, pos, before, after = move
            fwd.append((label, pos, after, before))
            state = parent
        return fwd

    while frontier_f and frontier_b:
        forward = len(frontier_f) <= len(frontier_b)
        frontier = frontier_f if forward else frontier_b
        seen, other = (seen_f, seen_b) if forward else (seen_b, seen_f)
        new_frontier = []
        for state in frontier:
            for label, pos, before, after, child in neighbors(state):
                if child in seen:
                    continue
                seen[child] = (state, (label, pos, before, after))
                if child in other:
                    return stitch(child)
                if len(seen_f) + len(seen_b) > max_nodes:
                    return SearchStats(len(seen_f) + len(seen_b), depth_f, depth_b)
                new_frontier.append(child)
        if forward:
            frontier_f = new_frontier
            depth_f += 1
        else:
            frontier_b = new_frontier
            depth_b += 1
    return SearchStats(len(seen_f) + len(seen_b), depth_f, depth_b)
