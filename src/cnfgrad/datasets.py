"""Dataset loading and generation for the benchmark tasks.

Everything here is deterministic per seed and self-contained; external
files (IDX images, shortest-path CSV) are optional inputs with strict
format checks.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


class DataFormatError(ValueError):
    """An external data file does not match its declared format."""


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

@dataclass(frozen=True)
class GridInstance:
    """A puzzle board (0 marks empty) and, when known, its solution."""

    q: np.ndarray
    solution: np.ndarray | None = None

    @property
    def side(self) -> int:
        return int(round(np.sqrt(self.q.size)))


def _box_index(r: int, c: int, side: int) -> int:
    b = int(round(np.sqrt(side)))
    return (r // b) * b + c // b


@lru_cache(maxsize=None)
def solved_boards(side: int) -> tuple[tuple[int, ...], ...]:
    """All completed boards of the given side, by backtracking (288 for 4)."""
    b = int(round(np.sqrt(side)))
    if b * b != side:
        raise ValueError(f"side must be a perfect square, got {side}")
    cells = side * side
    out: list[tuple[int, ...]] = []
    board = [0] * cells

    def fill(pos: int) -> None:
        if pos == cells:
            out.append(tuple(board))
            return
        r, c = divmod(pos, side)
        used = set()
        for p in range(pos):
            rr, cc = divmod(p, side)
            if rr == r or cc == c or _box_index(rr, cc, side) == _box_index(r, c, side):
                used.add(board[p])
        for n in range(1, side + 1):
            if n not in used:
                board[pos] = n
                fill(pos + 1)
        board[pos] = 0

    fill(0)
    return tuple(out)


def naked_single_completion(q: np.ndarray, side: int) -> np.ndarray | None:
    """Iterate single-candidate deduction; None if a cell gets stuck.

    A cell is filled only when exactly one digit avoids an immediate
    row/column/box conflict; the loop repeats until complete or stalled.
    """
    board = np.array(q, dtype=np.int64).reshape(side, side)
    while True:
        empties = np.argwhere(board == 0)
        if empties.size == 0:
            return board.reshape(-1)
        progressed = False
        for r, c in empties:
            used = set(board[r, :]) | set(board[:, c])
            b = int(round(np.sqrt(side)))
            used |= set(board[(r // b) * b : (r // b) * b + b, (c // b) * b : (c // b) * b + b].ravel())
            candidates = [n for n in range(1, side + 1) if n not in used]
            if not candidates:
                return None
            if len(candidates) == 1:
                board[r, c] = candidates[0]
                progressed = True
        if not progressed:
            return None


#: Draws ``gen_grid_puzzles`` may make in a row without finding a new puzzle.
#: The longest run measured on 4x4 boards, easy tier with 12-16 holes, was 565.
PUZZLE_MISS_BUDGET = 10_000


def gen_grid_puzzles(
    side: int,
    count: int,
    tier: str = "easy",
    seed=0,
    holes: tuple[int, int] = (4, 11),
) -> list[GridInstance]:
    """Sample puzzles by blanking cells of random solved boards.

    'easy' keeps only puzzles fully recoverable by repeated single-candidate
    deduction; 'hard' keeps only those that are not. Returned boards are
    distinct from each other. Raises ValueError, naming the tier, the hole
    range and the count, after ``PUZZLE_MISS_BUDGET`` draws in a row yield
    no new puzzle: fewer distinct puzzles may exist than were asked for.
    """
    if tier not in ("easy", "hard"):
        raise ValueError(f"unknown tier {tier!r}")
    solutions = solved_boards(side)
    rng = np.random.default_rng(seed)
    seen: set[bytes] = set()
    out: list[GridInstance] = []
    lo, hi = holes
    misses = 0
    while len(out) < count:
        if misses == PUZZLE_MISS_BUDGET:
            raise ValueError(
                f"gen_grid_puzzles: found {len(out)} of {count} distinct {tier} {side}x{side} puzzles "
                f"with {lo}-{hi} holes; the last {PUZZLE_MISS_BUDGET} draws found no new one"
            )
        misses += 1
        sol = np.array(solutions[rng.integers(len(solutions))], dtype=np.int64)
        k = int(rng.integers(lo, hi + 1))
        q = sol.copy()
        q[rng.choice(side * side, size=k, replace=False)] = 0
        key = q.tobytes()
        if key in seen:
            continue
        completed = naked_single_completion(q, side)
        if (tier == "easy") != (completed is not None):
            continue
        seen.add(key)
        out.append(GridInstance(q=q, solution=sol))
        misses = 0
    return out


# -- shortest-path grid instances ----------------------------------------------------

GRID_SIDE = 4


def grid_edges(side: int = GRID_SIDE) -> list[tuple[int, int]]:
    """Edges of the side x side lattice: horizontals row-major, then verticals."""
    edges = []
    for i in range(side):
        for j in range(side - 1):
            edges.append((i * side + j, i * side + j + 1))
    for i in range(side - 1):
        for j in range(side):
            edges.append((i * side + j, (i + 1) * side + j))
    return edges


@dataclass(frozen=True)
class PathInstance:
    """features: 24 edge-present bits then 16 terminal bits; label: path edges."""

    features: np.ndarray
    label: np.ndarray


def _unique_shortest_path(present: np.ndarray, s: int, t: int, side: int = GRID_SIDE) -> np.ndarray | None:
    edges = grid_edges(side)
    nodes = side * side
    adj: list[list[tuple[int, int]]] = [[] for _ in range(nodes)]
    for e, (u, v) in enumerate(edges):
        if present[e]:
            adj[u].append((v, e))
            adj[v].append((u, e))
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
    label = np.zeros(len(edges), dtype=np.int8)
    node = t
    while node != s:
        for u, e in adj[node]:
            if dist[u] == dist[node] - 1 and ways[u] > 0:
                label[e] = 1
                node = u
                break
    return label


def gen_path_instances(count: int, seed=0, removed: int = 8) -> list[PathInstance]:
    """Random 4x4 grids with 8 edges removed and a unique shortest path."""
    edges = grid_edges()
    rng = np.random.default_rng(seed)
    out: list[PathInstance] = []
    while len(out) < count:
        present = np.ones(len(edges), dtype=np.int8)
        present[rng.choice(len(edges), size=removed, replace=False)] = 0
        s, t = rng.choice(GRID_SIDE * GRID_SIDE, size=2, replace=False)
        label = _unique_shortest_path(present, int(s), int(t))
        if label is None:
            continue
        terminals = np.zeros(GRID_SIDE * GRID_SIDE, dtype=np.int8)
        terminals[[s, t]] = 1
        out.append(PathInstance(features=np.concatenate([present, terminals]).astype(np.float64), label=label))
    return out


def save_path_csv(instances: list[PathInstance], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for inst in instances:
            row = np.concatenate([inst.features.astype(np.int64), inst.label.astype(np.int64)])
            fh.write(",".join(str(int(v)) for v in row) + "\n")


def load_path_csv(path: str) -> list[PathInstance]:
    """Each line holds 40 feature bits then 24 label bits, comma-separated."""
    out: list[PathInstance] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            vals = [int(tok) for tok in line.split(",")]
            if len(vals) != 64 or any(v not in (0, 1) for v in vals):
                raise DataFormatError(f"{path}:{lineno}: expected 64 comma-separated 0/1 values")
            out.append(
                PathInstance(
                    features=np.asarray(vals[:40], dtype=np.float64),
                    label=np.asarray(vals[40:], dtype=np.int8),
                )
            )
    return out
