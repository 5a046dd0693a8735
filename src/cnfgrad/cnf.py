"""Propositional CNF theories: parsing, matrices, and exhaustive oracles.

Literals are nonzero DIMACS-style integers: ``+k`` is atom index ``k-1``
positive, ``-k`` the same atom negated. Clause i of a theory is
``literals[indptr[i]:indptr[i + 1]]``. A clause may be empty (it is then
unsatisfiable under every assignment), but no clause may mention the same
atom twice: duplicated or tautological clauses are rejected at
construction time because the loss equations downstream assume one
occurrence per atom per clause.

``ClauseMatrix`` holds clause structure only, with the arrays the loss
kernel reads; the loss and its gradient table are ``closs``'s. Clause
satisfaction by a 0/1 assignment is written once, in
``Assignment.satisfies_clause``, and the literal scan of the deduce rule
once, in ``deduce_set``. ``brute_force`` reports satisfiability, the
model count and the entailed literals, and lists no model.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Sequence

import numpy as np

Clause = tuple[int, ...]

#: Largest atom count the exhaustive oracle will enumerate (2^24 assignments).
ENUM_CAP = 24


class DimacsError(ValueError):
    """Malformed DIMACS / facts / name-map input."""


class CnfTheory:
    """A clause set over ``n`` ordered atoms, stored as CSR literal arrays.

    ``clauses`` (tuples) and ``atom_names`` (listed by ``names``; by
    default ``"1"``..``"n"``) are built on first read.
    """

    def __init__(self, n: int, indptr, literals, names: Callable[[], Iterable[str]] | None = None):
        self.n = n
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.literals = np.asarray(literals, dtype=np.int64)
        if self.indptr[0] != 0 or self.indptr[-1] != self.literals.size or np.any(np.diff(self.indptr) < 0):
            raise ValueError("clause offsets must rise from 0 to the literal count")
        self.indptr.setflags(write=False)
        self.literals.setflags(write=False)
        self._names = names or (lambda: map(str, range(1, n + 1)))
        atoms = np.abs(self.literals)
        bad = (atoms == 0) | (atoms > n)
        # A repeated atom repeats its clause*(n+1)+atom key; stable order keeps the first occurrence first.
        keys = np.repeat(np.arange(self.m), np.diff(self.indptr)) * (n + 1) + np.where(bad, 0, atoms)
        order = np.argsort(keys, kind="stable")
        bad[order[1:][keys[order[1:]] == keys[order[:-1]]]] = True
        if bad.any():
            at = int(np.argmax(bad))
            lit, where = int(self.literals[at]), f"clause {np.searchsorted(self.indptr, at, side='right')}"
            if lit == 0:
                raise DimacsError(f"{where}: literal 0 is reserved as the clause terminator")
            if abs(lit) > n:
                raise DimacsError(f"{where}: variable {abs(lit)} out of range (n={n})")
            raise DimacsError(f"{where}: duplicate or tautological occurrence of variable {abs(lit)}")

    @property
    def m(self) -> int:
        return self.indptr.size - 1

    @cached_property
    def clauses(self) -> tuple[Clause, ...]:
        lits, ends = self.literals.tolist(), self.indptr.tolist()
        return tuple(tuple(lits[a:b]) for a, b in zip(ends, ends[1:]))

    @cached_property
    def atom_names(self) -> tuple[str, ...]:
        names = tuple(self._names())
        if len(names) != self.n:
            raise DimacsError(f"{len(names)} names for {self.n} atoms")
        return names

    def with_atom_names(self, names: Sequence[str]) -> "CnfTheory":
        return CnfTheory(self.n, self.indptr, self.literals, lambda: names)


def theory_from_clauses(clauses: Iterable[Sequence[int]], n: int, names: Callable[[], Iterable[str]] | None = None) -> CnfTheory:
    clauses = list(clauses)
    indptr = np.cumsum([0, *map(len, clauses)])
    return CnfTheory(n, indptr, np.fromiter(itertools.chain.from_iterable(clauses), np.int64, int(indptr[-1])), names)


@dataclass(frozen=True)
class FactVector:
    """Atoms known true, as a 0/1 vector aligned with a theory's signature."""

    bits: np.ndarray

    def __post_init__(self) -> None:
        bits = np.asarray(self.bits, dtype=np.int8)
        if bits.ndim != 1 or not np.all((bits == 0) | (bits == 1)):
            raise ValueError("fact vector must be a 1-D 0/1 array")
        object.__setattr__(self, "bits", bits)

    @property
    def n(self) -> int:
        return int(self.bits.shape[0])

    @property
    def atoms(self) -> frozenset[int]:
        return frozenset(int(j) for j in np.flatnonzero(self.bits))

    @classmethod
    def from_atoms(cls, atoms: Iterable[int], n: int) -> "FactVector":
        bits = np.zeros(n, dtype=np.int8)
        for j in atoms:
            if not 0 <= j < n:
                raise ValueError(f"fact atom index {j} out of range (n={n})")
            bits[j] = 1
        return cls(bits)


@dataclass(frozen=True)
class Assignment:
    """A full 0/1 truth valuation of the signature."""

    bits: np.ndarray

    def __post_init__(self) -> None:
        bits = np.asarray(self.bits, dtype=np.int8)
        if bits.ndim != 1 or not np.all((bits == 0) | (bits == 1)):
            raise ValueError("assignment must be a 1-D 0/1 array")
        object.__setattr__(self, "bits", bits)

    def satisfies_clause(self, clause: Clause) -> bool:
        return any((lit > 0) == bool(self.bits[abs(lit) - 1]) for lit in clause)

    def satisfies(self, theory: CnfTheory) -> bool:
        return all(self.satisfies_clause(cl) for cl in theory.clauses)


@dataclass(frozen=True)
class SatReport:
    """What ``brute_force`` found about a theory under its facts."""

    satisfiable: bool
    model_count: int
    entailed_literals: tuple[int, ...]


# -- DIMACS I/O ---------------------------------------------------------------

def parse_dimacs(text: str) -> CnfTheory:
    """Parse DIMACS CNF text: comments, one ``p cnf n m`` header, m clauses.

    DIMACS variable k becomes atom index k-1 with atom name ``str(k)``;
    literal order inside each clause is preserved.
    """
    header: tuple[int, int] | None = None
    tokens: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if header is not None:
                raise DimacsError(f"line {lineno}: repeated header")
            parts = line.split()
            if len(parts) != 4 or parts[0] != "p" or parts[1] != "cnf":
                raise DimacsError(f"line {lineno}: malformed header {line!r} (expected 'p cnf n m')")
            try:
                n, m = int(parts[2]), int(parts[3])
            except ValueError as exc:
                raise DimacsError(f"line {lineno}: malformed header {line!r}") from exc
            if n < 0 or m < 0:
                raise DimacsError(f"line {lineno}: negative counts in header")
            header = (n, m)
            continue
        if header is None:
            raise DimacsError(f"line {lineno}: clause data before 'p cnf' header")
        for tok in line.split():
            try:
                tokens.append(int(tok))
            except ValueError as exc:
                raise DimacsError(f"line {lineno}: non-integer token {tok!r}") from exc
    if header is None:
        raise DimacsError("missing 'p cnf' header")
    n, m = header

    toks = np.array(tokens, dtype=np.int64)
    ends = np.flatnonzero(toks == 0)
    if toks.size and toks[-1] != 0:
        raise DimacsError(f"clause {ends.size + 1}: missing '0' terminator")
    if ends.size != m:
        raise DimacsError(f"header promises {m} clauses, found {ends.size}")
    return CnfTheory(n, np.concatenate([[0], ends - np.arange(m)]), toks[toks != 0])


def serialize_dimacs(theory: CnfTheory) -> str:
    """Canonical DIMACS text; parsing it reproduces the theory exactly."""
    lines = [f"p cnf {theory.n} {theory.m}"]
    for clause in theory.clauses:
        lines.append(" ".join(str(lit) for lit in clause) + (" 0" if clause else "0"))
    return "\n".join(lines) + "\n"


def parse_facts(text: str, n: int) -> FactVector:
    """Facts file: one positive DIMACS variable per line, 'c' comments allowed."""
    bits = np.zeros(n, dtype=np.int8)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        try:
            var = int(line)
        except ValueError as exc:
            raise DimacsError(f"facts line {lineno}: non-integer {line!r}") from exc
        if var <= 0:
            raise DimacsError(f"facts line {lineno}: facts are atoms, got non-positive {var}")
        if var > n:
            raise DimacsError(f"facts line {lineno}: variable {var} out of range (n={n})")
        bits[var - 1] = 1
    return FactVector(bits)


def serialize_facts(facts: FactVector) -> str:
    return "".join(f"{j + 1}\n" for j in sorted(facts.atoms))


def parse_atom_names(text: str, n: int) -> tuple[str, ...]:
    """Name-map sidecar: line k holds the name of DIMACS variable k."""
    names = [line.rstrip("\n") for line in text.splitlines()]
    while names and names[-1] == "":
        names.pop()
    if len(names) != n:
        raise DimacsError(f"name map has {len(names)} lines for {n} atoms")
    return tuple(names)


def serialize_atom_names(theory: CnfTheory) -> str:
    return "".join(f"{name}\n" for name in theory.atom_names)


# -- clause matrix ------------------------------------------------------------

#: Most slots ``ClauseMatrix.slots`` keeps per kind (512 KiB of int64). Building them costs
#: 10-25 us a call on the small theories; on a larger batch of literals that is a small share
#: of the call, and keeping them would hold rows x nonzeros int64s (128 MB on mnist-add3).
SLOTS_KEPT = 1 << 16


@dataclass
class ClauseMatrix:
    """Sparse m x n matrix over {-1, 0, +1}: row = clause, column = atom.

    Beside the CSR arrays it holds the clause structure the loss kernel
    reads, computed on construction in O(m + nonzeros), never dense, and
    the kernel's ``np.bincount`` slots for the most rows asked so far.
    """

    shape: tuple[int, int]
    indptr: np.ndarray
    indices: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        self.lengths = self.indptr[1:] - self.indptr[:-1]  # (m,) literals per clause
        self.nonempty = np.flatnonzero(self.lengths)  # indices of the clauses with a literal
        self.starts = self.indptr[self.nonempty]  # their first literals, for ``np.add.reduceat``
        self.positive = self.values > 0  # (nnz,) bool: the literal is positive
        self.clause_of = np.repeat(np.arange(self.shape[0]), self.lengths)  # (nnz,) the clause of each literal
        self._slots: dict[bool, np.ndarray] = {}

    def slots(self, rows: int, by_clause: bool) -> np.ndarray:
        """The flat (rows * nonzeros,) ``np.bincount`` slot of each literal of ``rows`` rows, in literal order.

        Row r's literal on clause i and atom j goes to r * m + i by clause,
        else to r * n + j. The array for the most rows asked so far is kept,
        one per kind, up to ``SLOTS_KEPT`` slots; fewer rows read a prefix of it.
        """
        size = rows * self.indices.size
        kept = self._slots.get(by_clause)
        if kept is not None and kept.size >= size:
            return kept[:size]
        width, of = (self.shape[0], self.clause_of) if by_clause else (self.shape[1], self.indices)
        slots = (np.arange(rows)[:, None] * width + of).ravel()
        if size <= SLOTS_KEPT:
            self._slots[by_clause] = slots
        return slots

    def dense(self) -> np.ndarray:
        """Materialize as a fresh float64 array."""
        out = np.zeros(self.shape, dtype=np.float64)
        out[self.clause_of, self.indices] = self.values
        return out


def build_matrix(theory: CnfTheory) -> ClauseMatrix:
    """The theory's matrix; it shares the theory's read-only ``indptr``."""
    return ClauseMatrix((theory.m, theory.n), theory.indptr, np.abs(theory.literals) - 1, np.sign(theory.literals).astype(np.int8))


# -- exhaustive reasoning -----------------------------------------------------

def deduce_set(theory: CnfTheory, facts: FactVector) -> list[int]:
    """Clause indices with all but one literal of the form ¬p for p a fact.

    Equivalently: clause length minus the count of fact-negating literals
    equals 1. With no facts this selects exactly the unit clauses. This
    literal scan is the reference form of the deduce rule; ``closs`` holds
    its array and graph forms.
    """
    if facts.n != theory.n:
        raise ValueError(f"facts length {facts.n} does not match theory n={theory.n}")
    bits = facts.bits.tolist()
    out = []
    for i, clause in enumerate(theory.clauses):
        false_under_facts = sum(1 for lit in clause if lit < 0 and bits[-lit - 1])
        if len(clause) - false_under_facts == 1:
            out.append(i)
    return out


#: Most elements in one (m, chunk) or (chunk, free atoms) array of ``brute_force``.
SCREEN_CHUNK_ELEMENTS = 1 << 20


def brute_force(theory: CnfTheory, facts: FactVector, cap: int = ENUM_CAP) -> SatReport:
    """Enumerate every assignment extending the facts; count models exactly.

    Assignments are packed into uint64 bit patterns, in counter order: bit
    t of the counter sets the t-th free atom. A clause is falsified exactly
    when the assignment, masked to the clause's atoms, equals the mask of
    its negated atoms, so one broadcast over an (m, chunk) array tests
    every clause of a chunk. Chunks are a power of two long, so the free
    bits of a chunk's counters are one table, spread once per call, ORed
    with the chunk's high bits. Arrays hold at most
    ``SCREEN_CHUNK_ELEMENTS`` elements. Deterministic by construction.
    ``cap`` may not exceed ``ENUM_CAP``.
    """
    n = theory.n
    if cap > ENUM_CAP:
        raise ValueError(f"enumeration cap {cap} is above ENUM_CAP = {ENUM_CAP} atoms (2^{ENUM_CAP} assignments)")
    if facts.n != n:
        raise ValueError(f"facts length {facts.n} does not match theory n={n}")
    if n > cap:
        raise ValueError(f"theory has {n} atoms, above the enumeration cap {cap}")

    free = np.flatnonzero(facts.bits == 0)
    base = sum(1 << int(j) for j in np.flatnonzero(facts.bits))
    atom_masks = np.array([sum(1 << (abs(lit) - 1) for lit in clause) for clause in theory.clauses], dtype=np.uint64).reshape(-1, 1)
    neg_masks = np.array([sum(1 << (-lit - 1) for lit in clause if lit < 0) for clause in theory.clauses], dtype=np.uint64).reshape(-1, 1)

    total = 1 << free.size
    per_chunk = SCREEN_CHUNK_ELEMENTS // max(theory.m, free.size, 1)
    chunk = min(total, 1 << max(per_chunk.bit_length() - 1, 0))
    counters = np.arange(chunk, dtype=np.uint64)[:, None]
    table = np.bitwise_or.reduce(
        ((counters >> np.arange(free.size, dtype=np.uint64)) & np.uint64(1)) << free.astype(np.uint64), axis=1
    )
    count = 0
    and_acc = np.uint64((1 << n) - 1)
    or_acc = np.uint64(0)

    for start in range(0, total, chunk):
        high = sum(1 << int(j) for t, j in enumerate(free) if start >> t & 1)
        assign = table | np.uint64(base | high)
        falsified = np.logical_or.reduce((atom_masks & assign) == neg_masks, axis=0)
        models = assign[~falsified]
        count += int(models.size)
        if models.size:
            and_acc &= np.bitwise_and.reduce(models)
            or_acc |= np.bitwise_or.reduce(models)

    entailed: list[int] = []
    if count:
        for j in range(n):
            bit = np.uint64(1) << np.uint64(j)
            if and_acc & bit:
                entailed.append(j + 1)
            elif not (or_acc & bit):
                entailed.append(-(j + 1))

    return SatReport(satisfiable=count > 0, model_count=count, entailed_literals=tuple(entailed))
