"""Signature tables, probe simulation, and decoding."""

import itertools
import warnings
from collections import Counter
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seppaths import (
    Diagnosis,
    ProbeReport,
    TargetSet,
    decode,
    decoder,
    edge_system,
    incidence,
    make_system,
    signature_table,
    simulate_probes,
    vertex_system,
)
from seppaths import verify
from seppaths.errors import NotCovering, NotSeparating, UnknownElement, UnsupportedTree
from seppaths.oracle import enumerate_trees, min_separating


@pytest.fixture
def p3_table(p3):
    fs = make_system(p3, [(0, 1), (1, 2)])
    return fs, signature_table(fs, TargetSet.edges(p3))


class TestSignatureTable:
    def test_p3_edges(self, p3_table):
        _, table = p3_table
        assert table == {(0, 1): frozenset({0}), (1, 2): frozenset({1})}

    def test_depth2_edge_system(self, depth2):
        fs = edge_system(depth2)
        table = signature_table(fs, TargetSet.edges(depth2))
        assert len(table) == 6
        assert len(set(table.values())) == 6
        assert all(table.values())

    def test_not_separating(self, p4):
        fs = make_system(p4, [(0, 1, 2, 3)])
        with pytest.raises(NotSeparating, match=r"NotSeparated\(0,1\)"):
            signature_table(fs, TargetSet.vertices(p4))

    def test_not_covering(self, p4):
        # signatures {0}, {0,1}, {1}, {} are distinct, but vertex 3 is bare
        fs = make_system(p4, [(0, 1), (1, 2)])
        with pytest.raises(NotCovering, match=r"NotCovered\(3\)"):
            signature_table(fs, TargetSet.vertices(p4))


class TestSimulate:
    def test_edge_fault(self, p3_table):
        fs, _ = p3_table
        assert simulate_probes(fs, (0, 1)).outcomes == (False, True)

    def test_no_fault(self, p3_table):
        fs, _ = p3_table
        assert simulate_probes(fs, None).outcomes == (True, True)

    def test_vertex_fault_matches_incidence(self, double_star):
        fs = vertex_system(double_star)
        report = simulate_probes(fs, 0)
        assert report.failed == incidence(fs, 0)

    def test_unknown_fault(self, p3_table):
        fs, _ = p3_table
        with pytest.raises(UnknownElement):
            simulate_probes(fs, 9)


class TestDecode:
    def test_identified(self, p3_table):
        _, table = p3_table
        diag = decode(table, ProbeReport((False, True)))
        assert diag.kind == Diagnosis.IDENTIFIED
        assert diag.element == (0, 1)

    def test_no_fault(self, p3_table):
        _, table = p3_table
        assert decode(table, ProbeReport((True, True))).kind == Diagnosis.NO_FAULT

    def test_inconsistent(self, p3_table):
        _, table = p3_table
        diag = decode(table, ProbeReport((False, False)))
        assert diag.kind == Diagnosis.INCONSISTENT
        assert diag.failed == {0, 1}

    def test_round_trip_double_star_vertices(self, double_star):
        fs = vertex_system(double_star)
        table = signature_table(fs, TargetSet.vertices(double_star))
        for v in double_star.vertices:
            diag = decode(table, simulate_probes(fs, v))
            assert diag.kind == Diagnosis.IDENTIFIED and diag.element == v

    @settings(max_examples=80, deadline=None)
    @given(st.tuples(*[st.booleans()] * 4))
    def test_never_identifies_without_exact_signature(self, outcomes):
        from seppaths import parse_tree
        from conftest import DEPTH2_TEXT

        depth2 = parse_tree(DEPTH2_TEXT)
        fs = edge_system(depth2)
        table = signature_table(fs, TargetSet.edges(depth2))
        diag = decode(table, ProbeReport(outcomes))
        if diag.kind == Diagnosis.IDENTIFIED:
            assert table[diag.element] == diag.failed
        elif diag.kind == Diagnosis.NO_FAULT:
            assert not diag.failed
        else:
            assert diag.failed not in set(table.values())


def _deployments(t):
    """An edge system and a vertex system of t: the vertex construction
    where it applies, the exact oracle's family elsewhere."""
    vts = TargetSet.vertices(t)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            vfs = vertex_system(t)
    except UnsupportedTree:
        vfs = min_separating(t, vts).system
    return [(edge_system(t), TargetSet.edges(t)), (vfs, vts)]


def _fault_reports(fs, table):
    """The all-pass report, every single fault and every pair of faults."""
    signatures = list(table.values())
    failed_sets = [frozenset(), *signatures]
    failed_sets += [a | b for a, b in itertools.combinations(signatures, 2)]
    return [ProbeReport(tuple(i not in f for i in range(fs.size))) for f in failed_sets]


class TestDecoder:
    def test_matches_the_table_on_every_small_tree(self):
        kinds = Counter()
        for n in range(2, 10):
            for t in enumerate_trees(n):
                for fs, ts in _deployments(t):
                    table = signature_table(fs, ts)
                    owner = {sig: s for s, sig in table.items()}
                    decode_report = decoder(fs, ts)
                    kinds["by sums"] += not isinstance(decode_report, partial)
                    for report in _fault_reports(fs, table):
                        diag = decode_report(report)
                        assert diag == decode(table, report), (t, ts.kind, report)
                        kinds[diag.kind] += 1
                    for a, b in itertools.combinations(ts.elements, 2):
                        third = owner.get(table[a] | table[b])
                        if third is not None and third not in (a, b):
                            kinds["pair equals a third"] += 1
        assert kinds[Diagnosis.INCONSISTENT] and kinds[Diagnosis.NO_FAULT]
        assert kinds["pair equals a third"] > 0 and kinds["by sums"] > 100

    def test_pair_equal_to_a_third_signature_is_that_element(self, p3):
        # the two edges of P3 fail together exactly when vertex 1 does
        fs = make_system(p3, [(0, 1), (1, 2), (0, 1, 2)])
        ts = TargetSet.custom(p3, [1, (0, 1), (1, 2)])
        report = ProbeReport((False, False, False))
        diag = decoder(fs, ts)(report)
        assert diag == decode(signature_table(fs, ts), report)
        assert diag.kind == Diagnosis.IDENTIFIED and diag.element == 1

    def test_reports_past_the_last_path_match_the_table(self, p3_table):
        fs, table = p3_table
        decode_report = decoder(fs, TargetSet.edges(fs.host))
        for outcomes in itertools.product((True, False), repeat=3):
            report = ProbeReport(outcomes)
            assert decode_report(report) == decode(table, report)

    def test_colliding_sums_take_the_table_route(self, monkeypatch, depth2):
        monkeypatch.setattr(verify, "_path_words", lambda m: [1] * m)
        for fs, ts in _deployments(depth2):
            table = signature_table(fs, ts)
            decode_report = decoder(fs, ts)
            assert isinstance(decode_report, partial) and decode_report.func is decode
            for report in _fault_reports(fs, table):
                assert decode_report(report) == decode(table, report)

    @pytest.mark.parametrize("collide", [False, True])
    def test_failing_systems_raise_like_the_table(self, monkeypatch, p4, collide):
        if collide:
            monkeypatch.setattr(verify, "_path_words", lambda m: [1] * m)
        cases = [
            (make_system(p4, [(0, 1, 2, 3)]), NotSeparating, "NotSeparated(0,1)"),
            (make_system(p4, [(0, 1), (1, 2)]), NotCovering, "NotCovered(3)"),
        ]
        for fs, error, message in cases:
            ts = TargetSet.vertices(p4)
            with pytest.raises(error) as from_table:
                signature_table(fs, ts)
            with pytest.raises(error) as from_decoder:
                decoder(fs, ts)
            assert str(from_decoder.value) == str(from_table.value) == message

    @settings(max_examples=80, deadline=None)
    @given(st.tuples(*[st.booleans()] * 4))
    def test_never_identifies_without_exact_signature(self, outcomes):
        from seppaths import parse_tree
        from conftest import DEPTH2_TEXT

        depth2 = parse_tree(DEPTH2_TEXT)
        fs = edge_system(depth2)
        ts = TargetSet.edges(depth2)
        table = signature_table(fs, ts)
        diag = decoder(fs, ts)(ProbeReport(outcomes))
        if diag.kind == Diagnosis.IDENTIFIED:
            assert table[diag.element] == diag.failed
        elif diag.kind == Diagnosis.NO_FAULT:
            assert not diag.failed
        else:
            assert diag.failed not in set(table.values())
