"""Dataset loading and generation for the benchmark tasks.

Everything here is deterministic per seed and self-contained; external
files (IDX images, shortest-path CSV) are optional inputs with strict
format checks. The grid and path generators and the CSV loader return
``Split``s, the arrays the tasks train on.
"""

from __future__ import annotations

import itertools
import struct
from dataclasses import dataclass, fields, replace
from functools import lru_cache

import numpy as np

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


class DataFormatError(ValueError):
    """An external data file does not match its declared format."""


# -- splits ----------------------------------------------------------------------

@dataclass(frozen=True)
class Split:
    """Row i of every field is instance i; ``split[index]`` takes the same rows of every field.

    An index array or a slice gives a split; an int gives one instance's fields, so iterating yields the instances.
    """

    def __len__(self) -> int:
        return len(getattr(self, fields(self)[0].name))

    def __getitem__(self, index) -> "Split":
        return replace(self, **{f.name: getattr(self, f.name)[index] for f in fields(self)})


@dataclass(frozen=True)
class LabelledSplit(Split):
    """Row i of ``features`` is labelled ``labels[i]``; exactly-one marks an unlabelled row with -1."""

    features: np.ndarray
    labels: np.ndarray


@dataclass(frozen=True)
class GridSplit(Split):
    q: np.ndarray  # (n, cells): the puzzles, 0 marks empty
    solution: np.ndarray  # (n, cells)


# -- IDX (MNIST-style) ----------------------------------------------------------

def load_idx(images_path: str, labels_path: str) -> tuple[np.ndarray, np.ndarray]:
    """Read big-endian IDX image/label files into ([0,1] floats, int labels)."""
    with open(images_path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 16:
        raise DataFormatError(f"{images_path}: truncated header")
    magic, count, rows, cols = struct.unpack(">IIII", blob[:16])
    if magic != IDX_IMAGES_MAGIC:
        raise DataFormatError(f"{images_path}: bad magic {magic:#010x} (expected {IDX_IMAGES_MAGIC:#010x})")
    need = 16 + count * rows * cols
    if len(blob) < need:
        raise DataFormatError(f"{images_path}: truncated, {len(blob)} bytes for {count} images of {rows}x{cols}")
    images = np.frombuffer(blob[16:need], dtype=np.uint8).reshape(count, rows * cols)
    images = images.astype(np.float64) / 255.0

    with open(labels_path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 8:
        raise DataFormatError(f"{labels_path}: truncated header")
    magic, lcount = struct.unpack(">II", blob[:8])
    if magic != IDX_LABELS_MAGIC:
        raise DataFormatError(f"{labels_path}: bad magic {magic:#010x} (expected {IDX_LABELS_MAGIC:#010x})")
    if len(blob) < 8 + lcount:
        raise DataFormatError(f"{labels_path}: truncated, {len(blob)} bytes for {lcount} labels")
    if lcount != count:
        raise DataFormatError(f"image/label counts differ: {count} images vs {lcount} labels")
    labels = np.frombuffer(blob[8 : 8 + lcount], dtype=np.uint8).astype(np.int64)
    return images, labels


# -- synthetic class features ----------------------------------------------------

def synthetic_features(count: int, classes: int, noise: float, seed, dim: int = 16) -> tuple[np.ndarray, np.ndarray]:
    """Class c maps to one-hot(c) in the first ``classes`` dims plus noise."""
    if classes > dim:
        raise ValueError(f"{classes} classes do not fit in {dim} feature dims")
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, classes, size=count)
    feats = np.zeros((count, dim), dtype=np.float64)
    feats[np.arange(count), labels] = 1.0
    feats += rng.normal(0.0, noise, size=(count, dim))
    return feats, labels


# -- square grids (Sudoku-style) ---------------------------------------------------

#: Largest side ``solved_boards`` enumerates. Side 4 has 288 boards; side 9
#: has about 6.7e21, which neither backtracking nor arrays can list.
MAX_ENUMERATED_SIDE = 4


def grid_units(side: int) -> np.ndarray:
    """(3, side, side): the cells of each row, column and box of a side x side grid, in that order.

    Cells, units and the cells of a unit go row-major; box i is the i-th b x b block (b * b = side).
    """
    b = int(round(np.sqrt(side)))
    if side < 1 or b * b != side:
        raise ValueError(f"side must be a positive perfect square, got {side}")
    grid = np.arange(side * side).reshape(side, side)
    return np.stack([grid, grid.T, grid.reshape(b, b, b, b).transpose(0, 2, 1, 3).reshape(side, side)])


def _peer_cells(side: int) -> np.ndarray:
    """(cells, 3 * side): the row, column and box cells of each cell, itself included."""
    units = grid_units(side).reshape(-1, side)
    holds = np.any(units[:, :, None] == np.arange(side * side), axis=1).T  # holds[c, u]: unit u holds cell c
    return units[np.nonzero(holds)[1]].reshape(side * side, -1)


@lru_cache(maxsize=None)
def solved_boards(side: int) -> np.ndarray:
    """Every completed board of the given side, one per row, in lexicographic order (288 for 4).

    Boards grow row by row: every partial board is extended by every
    permutation of 1..side, taken in lexicographic order, and the
    extensions that put a digit where a peer cell of an earlier row
    already holds it are dropped. The array is shared through the cache,
    so it is read-only. Sides above ``MAX_ENUMERATED_SIDE`` raise ValueError.
    """
    peers = _peer_cells(side)
    if side > MAX_ENUMERATED_SIDE:
        raise ValueError(
            f"solved_boards({side}): enumerating every board is limited to side <= {MAX_ENUMERATED_SIDE} "
            f"(288 boards); side 9 alone has about 6.7e21"
        )
    perms = np.array(list(itertools.permutations(range(1, side + 1))), dtype=np.int64)
    boards = np.zeros((1, side * side), dtype=np.int64)
    for r in range(side):
        # used[p, c, d]: a peer of the row's cell c holds d in partial board p (empty cells read 0)
        row = slice(r * side, (r + 1) * side)
        used = np.any(boards[:, peers[row], None] == np.arange(side + 1), axis=2)
        clash = used[:, np.arange(side), perms].any(axis=2)
        # nonzero lists (p, j) in row-major order, which keeps the boards lexicographic
        p, j = np.nonzero(~clash)
        boards = boards[p]
        boards[:, row] = perms[j]
    boards.setflags(write=False)
    return boards


def naked_single_completion(q: np.ndarray, side: int) -> list[np.ndarray | None]:
    """Iterate single-candidate deduction on a (B, side * side) stack of boards.

    Gives a list of B results: the completed board, or None where the
    board gets stuck. Each sweep visits the cells that were empty when it
    started, in row-major order, and sees the cells filled earlier in the
    sweep. A cell's candidates are the digits its row, column and box do
    not use; it is filled when exactly one is left. A board is stuck when
    a cell has none, or when a sweep fills nothing; it is done when no
    cell is empty. One cell position is handled for all boards at once.
    """
    cells = side * side
    boards = np.array(q, dtype=np.int64)
    peers = _peer_cells(side)
    digits = np.arange(1, side + 1)
    done = np.zeros(len(boards), dtype=bool)
    active = np.arange(len(boards))
    while active.size:
        empty = boards[active] == 0
        full = ~empty.any(axis=1)
        done[active[full]] = True
        active, empty = active[~full], empty[~full]
        filled = np.zeros(len(active), dtype=bool)
        stuck = np.zeros(len(active), dtype=bool)
        for pos in range(cells):
            sel = np.flatnonzero(empty[:, pos] & ~stuck)
            if not sel.size:
                continue
            rows = active[sel]
            candidates = ~np.any(boards[rows[:, None], peers[pos], None] == digits, axis=1)
            count = candidates.sum(axis=1)
            stuck[sel[count == 0]] = True
            single = count == 1
            boards[rows[single], pos] = np.argmax(candidates[single], axis=1) + 1
            filled[sel[single]] = True
        active = active[filled & ~stuck]
    return [board if ok else None for board, ok in zip(boards, done)]


#: Draws ``gen_grid_puzzles`` may make in a row without finding a new puzzle.
#: The longest run measured on 4x4 boards, easy tier with 12-16 holes, was 565.
PUZZLE_MISS_BUDGET = 10_000

#: Fewest draws ``gen_grid_puzzles`` screens in one ``naked_single_completion`` call.
SCREEN_CHUNK = 256


def gen_grid_puzzles(
    side: int,
    count: int,
    tier: str = "easy",
    seed=0,
    holes: tuple[int, int] = (4, 11),
) -> GridSplit:
    """Sample ``count`` puzzles, as int64 (count, cells) stacks, by blanking cells of random solved boards.

    'easy' keeps only puzzles fully recoverable by repeated single-candidate
    deduction; 'hard' keeps only those that are not. Returned boards are
    distinct from each other. Raises ValueError, naming the tier, the hole
    range and the count, after ``PUZZLE_MISS_BUDGET`` draws in a row yield
    no new puzzle: fewer distinct puzzles may exist than were asked for.

    Each draw picks a board, a hole count and the holes, in that order
    from one seeded stream. Draws are made in chunks of at least as many
    as are still missing, screened with one ``naked_single_completion``
    call, and then taken in draw order; the draws of a chunk that are not
    needed are dropped.
    """
    if tier not in ("easy", "hard"):
        raise ValueError(f"unknown tier {tier!r}")
    solutions = solved_boards(side)
    cells = side * side
    rng = np.random.default_rng(seed)
    seen: set[bytes] = set()
    out = GridSplit(np.empty((count, cells), dtype=np.int64), np.empty((count, cells), dtype=np.int64))
    found = 0
    lo, hi = holes
    misses = 0
    while found < count:
        picks = np.empty(max(SCREEN_CHUNK, count - found), dtype=np.int64)
        qs = np.empty((len(picks), cells), dtype=np.int64)
        for i in range(len(picks)):
            picks[i] = rng.integers(len(solutions))
            k = int(rng.integers(lo, hi + 1))
            qs[i] = solutions[picks[i]]
            qs[i, rng.choice(cells, size=k, replace=False)] = 0
        completed = naked_single_completion(qs, side)
        for q, pick, board in zip(qs, picks, completed):
            if misses == PUZZLE_MISS_BUDGET:
                raise ValueError(
                    f"gen_grid_puzzles: found {found} of {count} distinct {tier} {side}x{side} puzzles "
                    f"with {lo}-{hi} holes; the last {PUZZLE_MISS_BUDGET} draws found no new one"
                )
            misses += 1
            key = q.tobytes()
            if key in seen or (tier == "easy") != (board is not None):
                continue
            seen.add(key)
            out.q[found], out.solution[found] = q, solutions[pick]
            found += 1
            misses = 0
            if found == count:
                break
    return out


# -- shortest-path grid instances ----------------------------------------------------

GRID_SIDE = 4

#: Edges of the 4x4 lattice, horizontals row-major, then verticals; and per node, in edge
#: order, (neighbour, edge index) of each edge that touches it. Both are built once, here.
GRID_EDGES = [(i * GRID_SIDE + j, i * GRID_SIDE + j + 1) for i in range(GRID_SIDE) for j in range(GRID_SIDE - 1)] + [
    (i * GRID_SIDE + j, (i + 1) * GRID_SIDE + j) for i in range(GRID_SIDE - 1) for j in range(GRID_SIDE)
]
GRID_INCIDENCE = tuple(
    tuple((u + v - node, e) for e, (u, v) in enumerate(GRID_EDGES) if node in (u, v)) for node in range(GRID_SIDE * GRID_SIDE)
)


def _unique_shortest_path(present: np.ndarray, s: int, t: int) -> np.ndarray | None:
    keep = present.tolist()
    adj = [[(v, e) for v, e in pairs if keep[e]] for pairs in GRID_INCIDENCE]
    nodes = len(adj)
    dist = np.full(nodes, -1, dtype=np.int64)
    ways = np.zeros(nodes, dtype=np.int64)
    dist[s] = 0
    ways[s] = 1
    frontier = [s]
    while frontier:
        nxt = []
        for u in frontier:
            for v, _ in adj[u]:
                if dist[v] == -1:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        for v in nxt:
            ways[v] = sum(ways[u] for u, _ in adj[v] if dist[u] == dist[v] - 1)
        frontier = nxt
    if dist[t] == -1 or ways[t] != 1:
        return None
    label = np.zeros(len(GRID_EDGES), dtype=bool)
    node = t
    while node != s:
        for u, e in adj[node]:
            if dist[u] == dist[node] - 1 and ways[u] > 0:
                label[e] = True
                node = u
                break
    return label


def gen_path_instances(count: int, seed=0) -> LabelledSplit:
    """Random 4x4 grids with 8 edges removed and a unique shortest path.

    Row i of the float64 (count, 40) features holds the 24 edge-present bits
    then the 16 terminal bits; row i of the bool (count, 24) labels marks the path's edges.
    """
    edges = GRID_EDGES
    nodes = GRID_SIDE * GRID_SIDE
    rng = np.random.default_rng(seed)
    out = LabelledSplit(np.zeros((count, len(edges) + nodes)), np.empty((count, len(edges)), dtype=bool))
    found = 0
    while found < count:
        present = np.ones(len(edges), dtype=np.int8)
        present[rng.choice(len(edges), size=8, replace=False)] = 0
        s, t = rng.choice(nodes, size=2, replace=False)
        label = _unique_shortest_path(present, int(s), int(t))
        if label is None:
            continue
        out.features[found, : len(edges)] = present
        out.features[found, len(edges) + np.array([s, t])] = 1.0
        out.labels[found] = label
        found += 1
    return out


def save_path_csv(split: LabelledSplit, path: str) -> None:
    """One line per instance: its 40 feature bits then its 24 label bits, comma-separated."""
    rows = np.concatenate([split.features, split.labels], axis=1).astype(np.int64)
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(",".join(map(str, row)) + "\n" for row in rows.tolist())


def load_path_csv(path: str) -> LabelledSplit:
    """Each line holds 40 feature bits then 24 label bits, comma-separated; blank lines are skipped."""
    rows: list[list[int]] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                vals = [int(tok) for tok in line.split(",")]
            except ValueError:
                vals = []
            if len(vals) != 64 or any(v not in (0, 1) for v in vals):
                raise DataFormatError(f"{path}:{lineno}: expected 64 comma-separated 0/1 values")
            rows.append(vals)
    bits = np.array(rows, dtype=np.int64).reshape(-1, 64)
    return LabelledSplit(bits[:, :40].astype(np.float64), bits[:, 40:].astype(bool))
