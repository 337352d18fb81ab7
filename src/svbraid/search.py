"""Bounded bidirectional breadth-first search over rewrite moves.

States are opaque hashables with a length: packed strings for words,
arrow tuples for Gauss diagrams.  A neighbor function takes a state and
a length cap and yields ``(label, position, before, after, next_state)``
tuples in a fixed order, so runs are deterministic for a given budget.
The move set must be closed under inversion: swapping ``before`` and
``after`` of any move is again a legal move.  That lets the backward
frontier grow with the same neighbor function.
"""

from __future__ import annotations

from typing import Callable, Hashable, NamedTuple

SLACK = 4  # the first length cap is the longer end state plus SLACK


class Unknown(NamedTuple):
    """The verdict of a search that ran out of nodes; see ``bidirectional_search``."""

    nodes_explored: int
    depth_forward: int
    depth_backward: int


def bidirectional_search(start: Hashable, goal: Hashable, neighbors: Callable,
                         *, max_nodes: int) -> list[tuple] | Unknown:
    """Search from both ends; a list of moves transforms start into goal.

    States are capped at the longer end plus SLACK; a round that runs out
    of states under the cap with nodes to spare widens it by 2 (no move
    may change length parity) and searches again on the nodes left.
    Returns Unknown instead of a path once ``max_nodes`` states are
    stored: the nodes of all rounds, the depths of the last.
    """
    if start == goal:
        return []

    def stitch(meet) -> list[tuple]:
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

    cap, spent = max(len(start), len(goal)) + SLACK, 0
    while True:
        if max_nodes - spent < 2:
            return Unknown(spent + 2, 0, 0)
        seen_f: dict = {start: None}
        seen_b: dict = {goal: None}
        frontier_f, frontier_b = [start], [goal]
        depth_f = depth_b = 0
        while frontier_f and frontier_b:
            forward = len(frontier_f) <= len(frontier_b)
            frontier = frontier_f if forward else frontier_b
            seen, other = (seen_f, seen_b) if forward else (seen_b, seen_f)
            new_frontier = []
            for state in frontier:
                for label, pos, before, after, child in neighbors(state, cap):
                    if child in seen:
                        continue
                    seen[child] = (state, (label, pos, before, after))
                    if child in other:
                        return stitch(child)
                    if len(seen_f) + len(seen_b) > max_nodes - spent:
                        return Unknown(spent + len(seen_f) + len(seen_b), depth_f, depth_b)
                    new_frontier.append(child)
            if forward:
                frontier_f = new_frontier
                depth_f += 1
            else:
                frontier_b = new_frontier
                depth_b += 1
        spent += len(seen_f) + len(seen_b)
        if spent >= max_nodes:
            return Unknown(spent, depth_f, depth_b)
        cap += 2
