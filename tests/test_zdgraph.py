"""Structure of the class-compressed and expanded zero-divisor graphs."""

from collections import Counter
from math import gcd

import pytest
from totient_reference import totient

from zdpoly import zdgraph
from zdpoly.errors import CapacityError
from zdpoly.zdgraph import (build_class_graph, edge_count, edge_list,
                            expand_vertex_graph, export_dot)


def cliques(cg):
    return [bool(mask >> i & 1) for i, mask in enumerate(cg.neighbors)]


def test_build_rejects_small():
    with pytest.raises(ValueError):
        build_class_graph(1)


def test_class_graph_12():
    cg = build_class_graph(12)
    assert [c.divisor for c in cg.classes] == [2, 3, 4, 6]
    assert [c.size for c in cg.classes] == [2, 2, 2, 1]
    assert cg.neighbors == (0b1000, 0b0100, 0b1010, 0b1101)
    assert cliques(cg) == [False, False, False, True]
    assert cg.adjacency_pairs() == [(0, 3), (1, 2), (2, 3)]
    assert cg.vertex_count == 7
    assert edge_count(cg) == 8


def test_class_graph_75():
    cg = build_class_graph(75)
    assert [(c.divisor, c.size) for c in cg.classes] == [
        (3, 20), (5, 8), (15, 4), (25, 2)]
    assert cg.neighbors == (0b1000, 0b0100, 0b1110, 0b0101)
    assert cliques(cg) == [False, False, True, False]
    assert cg.adjacency_pairs() == [(0, 3), (1, 2), (2, 3)]
    assert cg.vertex_count == 34
    assert edge_count(cg) == 86


def test_clique_rule():
    cg8 = build_class_graph(8)
    assert [c.divisor for c in cg8.classes] == [2, 4]
    assert cliques(cg8) == [False, True]
    cg16 = build_class_graph(16)
    assert [c.divisor for c in cg16.classes] == [2, 4, 8]
    assert cliques(cg16) == [False, True, True]


def test_prime_gives_empty_graph(monkeypatch):
    # Expansion works from the classes, so a prime takes no gcd at all,
    # where a scan of the residues would take n - 1.
    calls = []
    monkeypatch.setattr(zdgraph, "gcd", lambda *a: calls.append(a) or gcd(*a))
    for n in (13, 999983):
        cg = build_class_graph(n)
        assert cg.classes == ()
        assert cg.vertex_count == 0
        assert edge_count(cg) == 0
        vg = expand_vertex_graph(cg)
        assert vg.labels == ()
        assert edge_list(vg) == []
    assert calls == []


def test_adjacency_matrix_invariants():
    for n in (8, 12, 30, 75, 100):
        cg = build_class_graph(n)
        k = len(cg.classes)
        for i in range(k):
            for j in range(k):
                assert (cg.neighbors[i] >> j & 1) == (cg.neighbors[j] >> i & 1)
        assert cg.adjacency_pairs() == [
            (i, j) for i in range(k) for j in range(i + 1, k)
            if (cg.classes[i].divisor * cg.classes[j].divisor) % n == 0]


def test_class_sizes_count_the_vertices_of_each_gcd():
    for n in range(2, 2000):
        cg = build_class_graph(n)
        by_gcd = Counter(gcd(v, n) for v in range(1, n))
        for c in cg.classes:
            assert c.size == by_gcd[c.divisor] == totient(n // c.divisor), n
    # the classes partition the nonzero zero-divisors
    for n in range(2, 10_001):
        assert build_class_graph(n).vertex_count == n - 1 - totient(n), n


def test_neighbor_masks_pin_rule_and_partner():
    for n in range(2, 2000):
        cg = build_class_graph(n)
        divisors = [c.divisor for c in cg.classes]
        k = len(divisors)
        for i, di in enumerate(divisors):
            assert cg.neighbors[i] == sum(
                1 << j for j, dj in enumerate(divisors) if (di * dj) % n == 0)
            # the lowest neighbour is the partner class n/d_i, class k-1-i,
            # which the class engine relies on
            low = cg.neighbors[i] & -cg.neighbors[i]
            assert low.bit_length() - 1 == k - 1 - i, (n, i)
            assert divisors[k - 1 - i] == n // di


def test_expansion_matches_direct_definition():
    for n in range(4, 61):
        vg = expand_vertex_graph(build_class_graph(n))
        zd = [v for v in range(1, n) if gcd(v, n) > 1]
        assert list(vg.labels) == zd
        expected = sorted(
            (u, v) for i, u in enumerate(zd) for v in zd[i + 1:]
            if (u * v) % n == 0)
        assert edge_list(vg) == expected


def test_expansion_consistency_wide():
    for n in range(4, 301):
        cg = build_class_graph(n)
        vg = expand_vertex_graph(cg)
        nv = len(vg.labels)
        assert nv == cg.vertex_count == n - 1 - totient(n)
        assert len(edge_list(vg)) == edge_count(cg)
        for i in range(nv):
            assert vg.closed[i] >> i & 1  # reflexive
            rest = vg.closed[i] & ~(1 << i)
            while rest:
                j = (rest & -rest).bit_length() - 1
                rest &= rest - 1
                assert vg.closed[j] >> i & 1  # symmetric


def test_expansion_classes_are_twins():
    # members of one divisor class share all neighbors outside the class
    for n in (12, 30, 45, 75, 240):
        cg = build_class_graph(n)
        vg = expand_vertex_graph(cg)
        by_class = {}
        for i, v in enumerate(vg.labels):
            by_class.setdefault(gcd(v, n), []).append(i)
        for members in by_class.values():
            bits = sum(1 << i for i in members)
            outside = {vg.closed[i] & ~bits for i in members}
            assert len(outside) == 1


def test_expand_limit(monkeypatch):
    cg = build_class_graph(30)
    monkeypatch.setattr(zdgraph, "VERTEX_LIMIT", 21)
    assert expand_vertex_graph(cg).n == 30
    monkeypatch.setattr(zdgraph, "VERTEX_LIMIT", 20)
    with pytest.raises(CapacityError) as err:
        expand_vertex_graph(cg)
    assert str(err.value) == ("n=30 has 21 vertices, over the expansion "
                              "limit of 20")


def test_export_dot_exact():
    vg = expand_vertex_graph(build_class_graph(6))
    assert export_dot(vg) == (
        'graph zdiv_6 {\n'
        '  "2";\n'
        '  "3";\n'
        '  "4";\n'
        '  "2" -- "3";\n'
        '  "3" -- "4";\n'
        '}\n'
    )


def test_export_dot_line_counts():
    vg = expand_vertex_graph(build_class_graph(75))
    lines = export_dot(vg).splitlines()
    assert lines[0] == "graph zdiv_75 {"
    assert lines[-1] == "}"
    assert len(lines) == 1 + 34 + 86 + 1
    edge_lines = [ln for ln in lines if "--" in ln]
    assert len(edge_lines) == 86
    assert edge_lines == sorted(
        edge_lines, key=lambda ln: tuple(
            int(tok.strip('"')) for tok in ln.strip(" ;").split(" -- ")))
