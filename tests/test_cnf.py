import numpy as np
import pytest

from cnfgrad import cnf as cnf_module
from cnfgrad.cnf import (
    ENUM_CAP,
    Assignment,
    CnfTheory,
    DimacsError,
    FactVector,
    SatReport,
    brute_force,
    build_matrix,
    deduce_set,
    parse_atom_names,
    parse_dimacs,
    parse_facts,
    serialize_dimacs,
    serialize_facts,
    theory_from_clauses,
)
from cnfgrad.verify import random_facts, random_theory

WORKED = "p cnf 3 2\n-1 -2 3 0\n-1 2 0\n"


class TestParseDimacs:
    def test_worked_example(self):
        theory = parse_dimacs(WORKED)
        assert theory.m == 2 and theory.n == 3
        assert theory.clauses == ((-1, -2, 3), (-1, 2))
        assert theory.atom_names == ("1", "2", "3")

    def test_empty_theory(self):
        theory = parse_dimacs("p cnf 0 0\n")
        assert theory.m == 0 and theory.n == 0

    def test_variable_out_of_range(self):
        with pytest.raises(DimacsError, match="out of range"):
            parse_dimacs("p cnf 2 1\n1 -3 0\n")

    def test_comments_and_blank_lines(self):
        theory = parse_dimacs("c a comment\n\np cnf 2 1\nc mid comment\n1 2 0\n")
        assert theory.clauses == ((1, 2),)

    def test_clause_split_across_lines(self):
        theory = parse_dimacs("p cnf 3 1\n1\n-2\n3 0\n")
        assert theory.clauses == ((1, -2, 3),)

    def test_missing_terminator(self):
        with pytest.raises(DimacsError, match="terminator"):
            parse_dimacs("p cnf 2 1\n1 -2\n")

    def test_clause_count_mismatch(self):
        with pytest.raises(DimacsError, match="promises 2"):
            parse_dimacs("p cnf 2 2\n1 0\n")

    def test_malformed_header(self):
        with pytest.raises(DimacsError, match="header"):
            parse_dimacs("p dnf 2 1\n1 0\n")
        with pytest.raises(DimacsError, match="header"):
            parse_dimacs("1 0\n")

    def test_duplicate_atom_rejected(self):
        with pytest.raises(DimacsError, match="clause 1"):
            parse_dimacs("p cnf 2 1\n1 1 0\n")

    def test_tautology_rejected(self):
        with pytest.raises(DimacsError, match="clause 2"):
            parse_dimacs("p cnf 2 2\n1 0\n2 -2 0\n")

    def test_empty_clause_is_legal(self):
        theory = parse_dimacs("p cnf 2 1\n0\n")
        assert theory.clauses == ((),)


def scan_first_error(clauses, n):
    """The per-literal validation the array check replaced: the message of the first bad literal, or None."""
    for k, clause in enumerate(clauses, start=1):
        seen = set()
        for lit in clause:
            if lit == 0:
                return f"clause {k}: literal 0 is reserved as the clause terminator"
            if abs(lit) > n:
                return f"clause {k}: variable {abs(lit)} out of range (n={n})"
            if abs(lit) in seen:
                return f"clause {k}: duplicate or tautological occurrence of variable {abs(lit)}"
            seen.add(abs(lit))
    return None


class TestArrayInput:
    # Clause 1 is (1, 2), clause 2 is empty, clause 3 holds the last two literals.
    INDPTR = [0, 2, 2, 4]

    @pytest.mark.parametrize(
        "literals,message",
        [
            ([1, 2, 3, 0], "clause 3: literal 0 is reserved as the clause terminator"),
            ([1, 2, -4, 3], "clause 3: variable 4 out of range (n=3)"),
            ([1, 2, -3, 3], "clause 3: duplicate or tautological occurrence of variable 3"),
            ([1, -1, 4, 0], "clause 1: duplicate or tautological occurrence of variable 1"),
        ],
    )
    def test_bad_literal_names_its_clause(self, literals, message):
        with pytest.raises(DimacsError) as info:
            CnfTheory(3, self.INDPTR, np.array(literals))
        assert str(info.value) == message

    def test_offsets_must_cover_the_literals(self):
        for indptr in ([1, 2, 2, 4], [0, 2, 2, 3], [0, 3, 2, 4]):
            with pytest.raises(ValueError, match="clause offsets"):
                CnfTheory(3, indptr, np.array([1, 2, 3, -1]))

    def test_clauses_and_names_are_built_from_the_arrays(self):
        theory = CnfTheory(3, self.INDPTR, np.array([1, -2, -3, 1]), lambda: "abc")
        assert theory.m == 3 and theory.clauses == ((1, -2), (), (-3, 1))
        assert theory.atom_names == ("a", "b", "c")
        with pytest.raises(ValueError, match="read-only"):
            theory.literals[0] = 2

    def test_name_count_is_checked_when_names_are_read(self):
        theory = parse_dimacs(WORKED).with_atom_names(["a", "b"])
        with pytest.raises(DimacsError, match="2 names for 3 atoms"):
            theory.atom_names

    def test_matches_per_literal_scan(self):
        rng = np.random.default_rng(3)
        outcomes = set()
        for _ in range(2000):
            n = int(rng.integers(1, 6))
            clauses = [
                tuple(int(v) for v in rng.integers(-n - 1, n + 2, size=int(rng.integers(0, 4))))
                for _ in range(int(rng.integers(0, 5)))
            ]
            want = scan_first_error(clauses, n)
            outcomes.add(want.split(": ")[1][:8] if want else None)
            if want is None:
                assert theory_from_clauses(clauses, n).clauses == tuple(clauses)
                continue
            with pytest.raises(DimacsError) as info:
                theory_from_clauses(clauses, n)
            assert str(info.value) == want
        assert outcomes == {None, "literal ", "variable", "duplicat"}


class TestSerializeDimacs:
    def test_empty(self):
        assert serialize_dimacs(parse_dimacs("p cnf 0 0\n")) == "p cnf 0 0\n"

    def test_worked_example_round_trip(self):
        assert serialize_dimacs(parse_dimacs(WORKED)) == WORKED

    def test_random_round_trips(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            theory = random_theory(rng, n_max=8, m_max=12, allow_empty=True)
            again = parse_dimacs(serialize_dimacs(theory))
            assert again.clauses == theory.clauses
            assert again.n == theory.n
            # canonical form is a fixed point
            assert serialize_dimacs(again) == serialize_dimacs(theory)


class TestFacts:
    def test_single_fact(self):
        facts = parse_facts("1\n", 3)
        assert facts.bits.tolist() == [1, 0, 0]
        assert facts.atoms == frozenset({0})

    def test_empty_file(self):
        assert parse_facts("", 3).bits.tolist() == [0, 0, 0]

    def test_negative_fact_rejected(self):
        with pytest.raises(DimacsError, match="non-positive"):
            parse_facts("-2\n", 3)

    def test_out_of_range(self):
        with pytest.raises(DimacsError, match="out of range"):
            parse_facts("4\n", 3)

    def test_comments_allowed(self):
        assert parse_facts("c given\n2\n", 3).bits.tolist() == [0, 1, 0]

    def test_round_trip(self):
        facts = parse_facts("1\n3\n", 4)
        assert parse_facts(serialize_facts(facts), 4).bits.tolist() == facts.bits.tolist()


class TestAtomNames:
    def test_sidecar_round_trip(self):
        theory = parse_dimacs(WORKED).with_atom_names(["a", "b", "c"])
        text = "a\nb\nc\n"
        assert parse_atom_names(text, 3) == ("a", "b", "c")

    def test_wrong_length(self):
        with pytest.raises(DimacsError, match="name map"):
            parse_atom_names("a\nb\n", 3)


class TestClauseMatrix:
    def test_worked_example(self):
        matrix = build_matrix(parse_dimacs(WORKED))
        assert matrix.dense().tolist() == [[-1, -1, 1], [-1, 1, 0]]

    def test_empty(self):
        assert build_matrix(parse_dimacs("p cnf 0 0\n")).dense().shape == (0, 0)

    def test_row_literal_counts(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            theory = random_theory(rng, n_max=8, m_max=12, allow_empty=True)
            matrix = build_matrix(theory)
            dense = matrix.dense()
            assert np.diff(matrix.indptr).tolist() == [len(clause) for clause in theory.clauses]
            for i, clause in enumerate(theory.clauses):
                assert np.abs(dense[i]).sum() == len(clause)
                assert (dense[i] * dense[i]).sum() == len(clause)

    def test_matches_per_literal_build(self):
        # The loop build_matrix used before it read the theory's arrays.
        rng = np.random.default_rng(12)
        for _ in range(300):
            theory = random_theory(rng, n_max=8, m_max=12, allow_empty=True)
            indptr, cols, vals = [0], [], []
            for clause in theory.clauses:
                cols += [abs(lit) - 1 for lit in clause]
                vals += [1 if lit > 0 else -1 for lit in clause]
                indptr.append(len(cols))
            matrix = build_matrix(theory)
            arrays = (matrix.indptr, matrix.indices, matrix.values)
            for got, want, dtype in zip(arrays, (indptr, cols, vals), (np.int64, np.int64, np.int8)):
                assert got.dtype == dtype and got.tobytes() == np.array(want, dtype=dtype).tobytes()

    def test_entries_match_literals(self):
        theory = parse_dimacs(WORKED)
        matrix = build_matrix(theory)
        dense = matrix.dense()
        for i, clause in enumerate(theory.clauses):
            for lit in clause:
                assert dense[i, abs(lit) - 1] == (1 if lit > 0 else -1)


class TestBruteForce:
    def test_worked_example_entails_remaining_literals(self):
        theory = parse_dimacs(WORKED)
        report = brute_force(theory, parse_facts("1\n", 3))
        assert report.satisfiable
        # given atom 1, both 2 and 3 are forced
        assert 2 in report.entailed_literals and 3 in report.entailed_literals

    def test_empty_theory(self):
        report = brute_force(parse_dimacs("p cnf 0 0\n"), FactVector(np.zeros(0, dtype=np.int8)))
        assert report.satisfiable and report.model_count == 1

    def test_contradiction(self):
        theory = theory_from_clauses([(1,), (-1,)], 1)
        report = brute_force(theory, FactVector(np.zeros(1, dtype=np.int8)))
        assert not report.satisfiable and report.model_count == 0

    def test_cap_enforced(self):
        theory = theory_from_clauses([], 30)
        with pytest.raises(ValueError, match="cap"):
            brute_force(theory, FactVector(np.zeros(30, dtype=np.int8)))

    def test_model_count_and_models(self):
        # one clause over two atoms: 3 of 4 assignments satisfy it, and no literal holds in all 3
        theory = theory_from_clauses([(1, 2)], 2)
        report = brute_force(theory, FactVector(np.zeros(2, dtype=np.int8)))
        assert report == SatReport(satisfiable=True, model_count=3, entailed_literals=())

    def test_facts_restrict_enumeration(self):
        theory = theory_from_clauses([(1, 2)], 2)
        report = brute_force(theory, parse_facts("1\n", 2))
        assert report.model_count == 2

    def test_against_exhaustive_python(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            theory = random_theory(rng, n_max=6, m_max=10, allow_empty=True)
            facts = random_facts(rng, theory.n)
            report = brute_force(theory, facts)
            models = []
            for value in range(2**theory.n):
                bits = np.array([(value >> j) & 1 for j in range(theory.n)], dtype=np.int8)
                if np.any(bits[facts.bits == 1] == 0):
                    continue
                if Assignment(bits).satisfies(theory):
                    models.append(bits)
            assert report.model_count == len(models)
            assert report.satisfiable == bool(models)
            # a literal is entailed when every model makes it true; with no model, none is reported
            entailed = []
            for j in range(theory.n):
                values = {int(bits[j]) for bits in models}
                if values == {1}:
                    entailed.append(j + 1)
                elif values == {0}:
                    entailed.append(-(j + 1))
            assert report.entailed_literals == tuple(entailed)

    def test_cap_above_enum_cap_refused(self):
        theory = theory_from_clauses([(1, 2)], 2)
        facts = FactVector(np.zeros(2, dtype=np.int8))
        for cap in (ENUM_CAP + 1, 63, 200):
            with pytest.raises(ValueError, match="ENUM_CAP"):
                brute_force(theory, facts, cap=cap)
        assert brute_force(theory, facts, cap=ENUM_CAP).model_count == 3


class TestBruteForceAgainstClauseLoop:
    """The broadcast screen against a per-clause loop over every assignment."""

    @staticmethod
    def reference(theory, facts):
        """(model_count, entailed_literals) from one mask test per clause."""
        n = theory.n
        free = np.flatnonzero(facts.bits == 0)
        base = np.uint64(0)
        for j in np.flatnonzero(facts.bits):
            base |= np.uint64(1) << np.uint64(j)
        full = np.uint64((1 << n) - 1)
        idx = np.arange(1 << free.size, dtype=np.uint64)
        assign = np.full(idx.shape, base, dtype=np.uint64)
        for t, j in enumerate(free):
            assign |= ((idx >> np.uint64(t)) & np.uint64(1)) << np.uint64(j)
        unset = ~assign & full
        sat = np.ones(idx.shape, dtype=bool)
        for clause in theory.clauses:
            p = np.uint64(sum(1 << (lit - 1) for lit in clause if lit > 0))
            q = np.uint64(sum(1 << (-lit - 1) for lit in clause if lit < 0))
            sat &= ((assign & p) != 0) | ((unset & q) != 0)
        models = assign[sat]
        entailed = []
        if models.size:
            and_acc, or_acc = np.bitwise_and.reduce(models), np.bitwise_or.reduce(models)
            for j in range(n):
                bit = np.uint64(1) << np.uint64(j)
                if and_acc & bit:
                    entailed.append(j + 1)
                elif not (or_acc & bit):
                    entailed.append(-(j + 1))
        return int(models.size), tuple(entailed)

    def assert_matches(self, theory, facts):
        report = brute_force(theory, facts)
        count, entailed = self.reference(theory, facts)
        assert report.model_count == count and report.satisfiable == (count > 0)
        assert report.entailed_literals == entailed

    def test_random_theories(self):
        rng = np.random.default_rng(29)
        for _ in range(300):
            theory = random_theory(rng, n_max=10, m_max=20, allow_empty=True)
            self.assert_matches(theory, random_facts(rng, theory.n))

    def test_edge_shapes(self):
        rng = np.random.default_rng(31)
        no_atoms = FactVector(np.zeros(0, dtype=np.int8))
        self.assert_matches(theory_from_clauses([], 0), no_atoms)
        self.assert_matches(theory_from_clauses([()], 0), no_atoms)
        for n in (1, 5, 9):
            self.assert_matches(theory_from_clauses([], n), random_facts(rng, n))
            self.assert_matches(theory_from_clauses([], n), FactVector(np.ones(n, dtype=np.int8)))
        for _ in range(50):
            theory = random_theory(rng, n_max=9, m_max=12, allow_empty=True)
            self.assert_matches(theory, FactVector(np.ones(theory.n, dtype=np.int8)))

    def test_enumeration_over_several_chunks(self):
        # 30 clauses and 16 free atoms: 65,536 assignments in chunks of 32,768
        rng = np.random.default_rng(37)
        clauses = [tuple(int(a + 1) * int(s) for a, s in zip(rng.choice(18, 3, replace=False), rng.choice([-1, 1], 3))) for _ in range(30)]
        theory = theory_from_clauses(clauses, 18)
        facts = FactVector.from_atoms([0, 1], 18)
        assert (1 << 16) > cnf_module.SCREEN_CHUNK_ELEMENTS // 30
        self.assert_matches(theory, facts)

    def test_listing_across_small_chunks(self, monkeypatch):
        # at most 64 elements per chunk array, so the count and the entailment accumulators cross chunk edges
        monkeypatch.setattr(cnf_module, "SCREEN_CHUNK_ELEMENTS", 64)
        rng = np.random.default_rng(41)
        for _ in range(100):
            theory = random_theory(rng, n_max=9, m_max=30, allow_empty=True)
            self.assert_matches(theory, random_facts(rng, theory.n))


class TestDeduceSet:
    def test_worked_example(self):
        theory = parse_dimacs(WORKED)
        assert deduce_set(theory, parse_facts("1\n", 3)) == [1]

    def test_no_facts_selects_unit_clauses(self):
        theory = theory_from_clauses([(1, 2), (-3,), (2,)], 3)
        assert deduce_set(theory, FactVector(np.zeros(3, dtype=np.int8))) == [1, 2]

    def test_literal_by_literal_rescan(self):
        rng = np.random.default_rng(13)
        for _ in range(500):
            theory = random_theory(rng, n_max=9, m_max=14, allow_empty=True)
            facts = random_facts(rng, theory.n)
            expected = []
            for i, clause in enumerate(theory.clauses):
                falsified = 0
                for lit in clause:
                    if lit < 0 and facts.bits[abs(lit) - 1] == 1:
                        falsified += 1
                if len(clause) - falsified == 1:
                    expected.append(i)
            assert deduce_set(theory, facts) == expected

    def test_deduced_literal_is_entailed(self):
        # whenever theory+facts is satisfiable, the remaining literal of a
        # deduce-set clause is entailed
        rng = np.random.default_rng(17)
        checked = 0
        for _ in range(300):
            theory = random_theory(rng, n_max=8, m_max=12)
            facts = random_facts(rng, theory.n)
            report = brute_force(theory, facts)
            if not report.satisfiable:
                continue
            for i in deduce_set(theory, facts):
                clause = theory.clauses[i]
                remaining = [lit for lit in clause if not (lit < 0 and facts.bits[abs(lit) - 1])]
                assert len(remaining) == 1
                assert remaining[0] in report.entailed_literals
                checked += 1
        assert checked > 50