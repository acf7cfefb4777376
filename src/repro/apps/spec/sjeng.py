"""458.sjeng — game-tree search (alpha-beta).

The calibration kernel is a real negamax alpha-beta search over a small
deterministic board game ("pick-a-pile" Nim variant with positional
scoring) that exercises the shape of chess search: deep recursion,
move generation, evaluation at the leaves.  The search reads no seed, so
its footprint is stored (``SjengModel.PROFILE``) and calibration runs no
search: tier-1 tests recompute the profile with alpha-beta and check
alpha-beta against exhaustive minimax, on tiny positions and at the
calibration position.  sjeng's footprint is stack-heavy (recursion) with
small-table heap traffic.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.apps.spec.base import IterationProfile, SpecModel


@dataclass
class SearchStats:
    """Node and operation counts from one search."""

    nodes: int = 0
    evals: int = 0
    cutoffs: int = 0
    moves_generated: int = 0


def legal_moves(piles: tuple[int, ...]) -> list[tuple[int, int]]:
    """(pile index, take count) pairs; up to 3 stones per move."""
    moves = []
    for i, n in enumerate(piles):
        for take in range(1, min(n, 3) + 1):
            moves.append((i, take))
    return moves


def apply_move(piles: tuple[int, ...], move: tuple[int, int]) -> tuple[int, ...]:
    """Board after *move*."""
    i, take = move
    return piles[:i] + (piles[i] - take,) + piles[i + 1 :]


def evaluate(piles: tuple[int, ...]) -> int:
    """Positional evaluation: xor-sum heuristic plus material."""
    xor = 0
    for n in piles:
        xor ^= n
    return (1 if xor else -1) * (1 + sum(piles) % 7)


def negamax(
    piles: tuple[int, ...],
    depth: int,
    alpha: int,
    beta: int,
    stats: SearchStats,
) -> int:
    """Alpha-beta negamax; terminal = no stones or depth exhausted."""
    stats.nodes += 1
    moves = legal_moves(piles)
    stats.moves_generated += len(moves)
    if not moves:
        return -100  # side to move has lost
    if depth == 0:
        stats.evals += 1
        return evaluate(piles)
    best = -(10**9)
    for move in moves:
        score = -negamax(apply_move(piles, move), depth - 1, -beta, -alpha, stats)
        if score > best:
            best = score
        if best > alpha:
            alpha = best
        if alpha >= beta:
            stats.cutoffs += 1
            break
    return best


def minimax_reference(piles: tuple[int, ...], depth: int) -> int:
    """Plain, unpruned minimax: the reference :func:`negamax` is tested
    against, at ``SjengModel.CAL_POSITION`` too.  Calibration never calls it."""
    moves = legal_moves(piles)
    if not moves:
        return -100
    if depth == 0:
        return evaluate(piles)
    return max(-minimax_reference(apply_move(piles, m), depth - 1) for m in moves)


class SjengModel(SpecModel):
    """458.sjeng."""

    name = "458.sjeng"
    input_files = (("sjeng.depth", 150 * 1024),)
    binary_text_kb = 160
    binary_data_kb = 96
    heap_bytes = 2 * 1024 * 1024
    anon_bytes = 180 * 1024  # transposition table (just over the threshold)
    insts_per_op = 11

    CAL_POSITION = (5, 6, 4, 5)
    CAL_DEPTH = 6
    #: Positions searched per simulated iteration.
    POSITIONS_PER_ITERATION = 40
    #: One :func:`negamax` search of ``CAL_POSITION`` to ``CAL_DEPTH``,
    #: times ``POSITIONS_PER_ITERATION``: ``insts_per_op`` instructions
    #: per op (4 per node, 1 per move generated, 6 per leaf evaluation),
    #: a heap reference per 4 moves generated, a transposition probe per
    #: 3 nodes and a recursion frame per node.
    PROFILE = IterationProfile(
        insts=264_303_600,
        heap_refs=2_931_220,
        anon_refs=470_186,
        stack_refs=1_410_560,
    )

    def calibrate(self) -> IterationProfile:
        return self.PROFILE
