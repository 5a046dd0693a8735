"""The array grid generator against the backtracking and per-cell loops it replaced."""

import hashlib

import numpy as np
import pytest

from cnfgrad import datasets as D
from cnfgrad import tasks as TK


def backtracking_boards(side):
    """Every completed board, cell by cell with digits in ascending order."""
    b = int(round(np.sqrt(side)))
    cells = side * side
    out = []
    board = [0] * cells

    def box(r, c):
        return (r // b) * b + c // b

    def fill(pos):
        if pos == cells:
            out.append(tuple(board))
            return
        r, c = divmod(pos, side)
        used = set()
        for p in range(pos):
            rr, cc = divmod(p, side)
            if rr == r or cc == c or box(rr, cc) == box(r, c):
                used.add(board[p])
        for n in range(1, side + 1):
            if n not in used:
                board[pos] = n
                fill(pos + 1)
        board[pos] = 0

    fill(0)
    return out


def per_cell_completion(q, side):
    """Naked singles one cell at a time, with Python sets."""
    board = np.array(q, dtype=np.int64).reshape(side, side)
    b = int(round(np.sqrt(side)))
    while True:
        empties = np.argwhere(board == 0)
        if empties.size == 0:
            return board.reshape(-1)
        progressed = False
        for r, c in empties:
            used = set(board[r, :]) | set(board[:, c])
            used |= set(board[(r // b) * b : (r // b) * b + b, (c // b) * b : (c // b) * b + b].ravel())
            candidates = [n for n in range(1, side + 1) if n not in used]
            if not candidates:
                return None
            if len(candidates) == 1:
                board[r, c] = candidates[0]
                progressed = True
        if not progressed:
            return None


def random_boards(count, seed):
    """Solved boards with 0-16 holes, a third of them with 1-3 cells changed to any digit first."""
    rng = np.random.default_rng(seed)
    solutions = D.solved_boards(4)
    out = np.array(solutions[rng.integers(len(solutions), size=count)])
    for board in out[: count // 3]:
        board[rng.choice(16, size=rng.integers(1, 4), replace=False)] = rng.integers(1, 5)
    for board in out:
        board[rng.choice(16, size=rng.integers(0, 17), replace=False)] = 0
    return out


# sha256 over q then solution bytes of every puzzle, recorded with the backtracking
# and per-cell generator: 200 puzzles per (tier, holes, seed).
PUZZLE_PINS = [
    ("easy", (4, 11), [1, 17], "20903b59a7af59952116a5652d8ea58129f15aa3d96aaef4d50092ad94236ced"),
    ("easy", (4, 11), 3, "31f67857a84ffdee792c992769a1bca792e6334e7199f4ab6df9ac47b12e75e5"),
    ("hard", (6, 12), [1, 17], "c642919494bc766401f7a604c31748b56c0e315e829781739899494f4247c2cb"),
    ("hard", (6, 12), 3, "6c3bcf4d19ac48303eac5623aac15fda1aae6ff61ae7c7019faf86262060833a"),
]


class TestGridUnits:
    @pytest.mark.parametrize("side", [4, 9])
    def test_families_partition_the_cells_and_boxes_are_blocks(self, side):
        b = int(round(np.sqrt(side)))
        rows, cols, boxes = D.grid_units(side)
        for family in (rows, cols, boxes):
            assert sorted(family.ravel().tolist()) == list(range(side * side))
        k = np.arange(side)
        for i in range(side):
            assert rows[i].tolist() == (i * side + k).tolist()
            assert cols[i].tolist() == (k * side + i).tolist()
            # box i is the b x b block at block row i // b, block column i % b, read row by row
            assert boxes[i].tolist() == [(i // b * b + r) * side + i % b * b + c for r in range(b) for c in range(b)]


class TestSolvedBoards:
    @pytest.mark.parametrize("side", [1, 4])
    def test_matches_backtracking_in_order(self, side):
        assert D.solved_boards(side).tolist() == [list(board) for board in backtracking_boards(side)]

    def test_read_only(self):
        with pytest.raises(ValueError):
            D.solved_boards(4)[0, 0] = 0

    @pytest.mark.parametrize("side", [0, 2, 8])
    def test_rejects_non_square_side(self, side):
        with pytest.raises(ValueError, match="positive perfect square"):
            D.solved_boards(side)

    @pytest.mark.parametrize("side", [9, 16])
    def test_refuses_large_sides_fast(self, side, time_limit):
        with time_limit(10, f"solved_boards({side})"):
            with pytest.raises(ValueError, match=r"limited to side <= 4 \(288 boards\); side 9 alone has about 6.7e21"):
                D.solved_boards(side)

    def test_sudoku9_make_data_fails_fast(self, time_limit):
        task = TK.make_task("sudoku9")
        with time_limit(10, "SudokuTask(9).make_data"):
            with pytest.raises(ValueError, match="limited to side <= 4"):
                task.make_data(seed=0, n_train=4, n_test=1)


class TestNakedSingleScreen:
    def test_stack_matches_per_cell_loop(self):
        boards = random_boards(6000, seed=0)
        got = D.naked_single_completion(boards, 4)
        assert len(got) == len(boards)
        outcomes = set()
        for q, result in zip(boards, got):
            want = per_cell_completion(q, 4)
            assert (result is None) == (want is None), q
            if want is not None:
                assert np.array_equal(result, want), q
            outcomes.add((want is None, bool(np.all(q != 0))))
        # stuck and completed boards both occur, and so do boards given full
        assert {(True, False), (False, False), (False, True)} <= outcomes

    def test_one_board_is_the_one_row_case(self):
        for q in random_boards(300, seed=1):
            want = per_cell_completion(q, 4)
            got = D.naked_single_completion(q, 4)
            assert (got is None) == (want is None)
            if want is not None:
                assert got.shape == (16,) and np.array_equal(got, want)

    def test_input_is_not_modified(self):
        q = random_boards(50, seed=2)
        before = q.copy()
        D.naked_single_completion(q, 4)
        assert np.array_equal(q, before)


class TestGenGridPuzzles:
    @pytest.mark.parametrize("tier,holes,seed,digest", PUZZLE_PINS, ids=["easy-s1", "easy-s3", "hard-s1", "hard-s3"])
    def test_output_pinned(self, tier, holes, seed, digest):
        h = hashlib.sha256()
        for inst in D.gen_grid_puzzles(4, 200, tier=tier, seed=seed, holes=holes):
            h.update(inst.q.tobytes())
            h.update(inst.solution.tobytes())
        assert h.hexdigest() == digest

    def test_instances_own_writable_arrays(self):
        puzzles = D.gen_grid_puzzles(4, 3, seed=5)
        boards = D.solved_boards(4).copy()
        for arr in (puzzles.q, puzzles.solution):
            assert arr.flags.writeable and arr.flags.owndata and arr.dtype == np.int64 and arr.shape == (3, 16)
            arr[...] = 0
        # so the stacks are no views of the read-only board cache
        assert np.array_equal(D.solved_boards(4), boards)
