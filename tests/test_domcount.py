"""Counting engines: brute force, band semantics, and the class engine."""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from band_reference import (Band, band_occupies, band_weight, bands_for_size,
                            pattern_valid, reference_band_poly)

import zdpoly.domcount as dc
from zdpoly.domcount import (DominationKind, brute_force_poly,
                             check_brute_size, class_engine_poly,
                             gamma_from_poly, resolve_brute_limit)
from zdpoly.errors import CapacityError
from zdpoly.polyring import Polynomial, binomial_expand
from zdpoly.zdgraph import (ClassGraph, VertexGraph, build_class_graph,
                            expand_vertex_graph)

ORD = DominationKind.ORDINARY
TOT = DominationKind.TOTAL


def composite_class_graphs(lo, hi, max_classes=99, max_vertices=10 ** 9):
    for n in range(lo, hi + 1):
        cg = build_class_graph(n)
        if (cg.classes and len(cg.classes) <= max_classes
                and cg.vertex_count <= max_vertices):
            yield n, cg


def test_bands_for_size():
    assert bands_for_size(1) == (Band.ZERO, Band.FULL)
    assert bands_for_size(2) == (Band.ZERO, Band.ONE, Band.FULL)
    assert bands_for_size(5) == (Band.ZERO, Band.ONE, Band.MID, Band.FULL)
    with pytest.raises(ValueError):
        bands_for_size(0)


def test_band_weights_tile_all_subsets():
    for m in range(1, 9):
        total = Polynomial()
        for band in bands_for_size(m):
            total = total + band_weight(m, band)
        assert total == binomial_expand(m)


def test_band_weight_values():
    assert band_weight(3, Band.ZERO) == Polynomial([1])
    assert band_weight(3, Band.ONE) == Polynomial([0, 3])
    assert band_weight(3, Band.MID) == Polynomial([0, 0, 3])
    assert band_weight(3, Band.FULL) == Polynomial([0, 0, 0, 1])
    assert band_weight(2, Band.MID) == Polynomial([])
    assert band_occupies(Band.ZERO) is False
    assert band_occupies(Band.ONE) is True


def test_pattern_valid_small_shapes():
    cg4 = build_class_graph(4)  # one class of size 1, clique
    assert pattern_valid((Band.FULL,), cg4, ORD)
    assert not pattern_valid((Band.ZERO,), cg4, ORD)
    assert not pattern_valid((Band.FULL,), cg4, TOT)
    cg9 = build_class_graph(9)  # one class of size 2, clique
    assert pattern_valid((Band.ONE,), cg9, ORD)
    assert pattern_valid((Band.FULL,), cg9, ORD)
    assert not pattern_valid((Band.ONE,), cg9, TOT)
    assert pattern_valid((Band.FULL,), cg9, TOT)
    with pytest.raises(ValueError):
        pattern_valid((Band.ZERO, Band.ZERO), cg9, ORD)


def test_pattern_valid_forced_full_without_neighbors():
    # Z_15 = complete bipartite: a non-clique class with its neighbor class
    # empty must be fully selected for ordinary domination and is hopeless
    # for total domination.
    cg = build_class_graph(15)
    assert pattern_valid((Band.FULL, Band.ZERO), cg, ORD)
    assert not pattern_valid((Band.MID, Band.ZERO), cg, ORD)
    assert not pattern_valid((Band.ONE, Band.ZERO), cg, ORD)
    assert not pattern_valid((Band.FULL, Band.ZERO), cg, TOT)
    assert pattern_valid((Band.ONE, Band.ONE), cg, TOT)


def test_engine_matches_band_reference():
    for n, cg in composite_class_graphs(4, 120, max_classes=6):
        for kind in (ORD, TOT):
            assert class_engine_poly(cg, kind) == reference_band_poly(cg, kind), (n, kind)


def test_engine_matches_brute_small():
    # |V| <= 26 holds for no n > 729; above 20 vertices the high half runs
    for n, cg in composite_class_graphs(4, 729, max_vertices=26):
        vg = expand_vertex_graph(cg)
        for kind in (ORD, TOT):
            assert brute_force_poly(vg, kind) == class_engine_poly(cg, kind), (n, kind)


def test_empty_graph_counts_one_empty_set():
    cg = build_class_graph(11)
    vg = expand_vertex_graph(cg)
    for kind in (ORD, TOT):
        assert brute_force_poly(vg, kind) == Polynomial([1])
        assert class_engine_poly(cg, kind) == Polynomial([1])


def test_single_vertex_graph():
    cg = build_class_graph(4)
    vg = expand_vertex_graph(cg)
    assert brute_force_poly(vg, ORD) == Polynomial([0, 1])
    assert brute_force_poly(vg, TOT) == Polynomial([])
    assert class_engine_poly(cg, ORD) == Polynomial([0, 1])
    assert class_engine_poly(cg, TOT) == Polynomial([])
    assert gamma_from_poly(class_engine_poly(cg, TOT)) is None
    assert gamma_from_poly(class_engine_poly(cg, ORD)) == 1


def test_no_empty_set_dominates_nonempty_graph():
    for n, cg in composite_class_graphs(4, 60):
        assert class_engine_poly(cg, ORD).coefficient(0) == 0
        assert class_engine_poly(cg, TOT).coefficient(0) == 0


def test_singleton_clique_flag_is_indifferent():
    # one-vertex classes count identically with the flag set either way
    for n, idx in ((12, 3), (8, 1), (30, 5)):
        cg = build_class_graph(n)
        cls = cg.classes[idx]
        assert cls.size == 1
        flipped_classes = list(cg.classes)
        flipped_classes[idx] = replace(cls, is_clique=not cls.is_clique)
        flipped = ClassGraph(n=cg.n, classes=tuple(flipped_classes),
                             adjacency=cg.adjacency)
        for kind in (ORD, TOT):
            assert class_engine_poly(flipped, kind) == class_engine_poly(cg, kind)


def test_brute_limit_enforced():
    vg = expand_vertex_graph(build_class_graph(45))  # 20 vertices
    with pytest.raises(CapacityError):
        brute_force_poly(vg, ORD, limit=19)
    assert brute_force_poly(vg, ORD, limit=20).coefficient(0) == 0
    # 63 vertices is the ceiling whatever the limit
    check_brute_size(63, 100)
    with pytest.raises(CapacityError) as err:
        check_brute_size(64, 100)
    assert str(err.value) == ("brute force would enumerate 2^64 vertex "
                              "subsets and stops at 63 vertices")


def _plain_count(closed, kind):
    """Coefficients of the counting polynomial by testing every subset."""
    nv = len(closed)
    nbh = [c & ~(1 << u) if kind is TOT else c for u, c in enumerate(closed)]
    counts = [0] * (nv + 1)
    for subset in range(1 << nv):
        if all(subset & nbh[v] for v in range(nv)):
            counts[subset.bit_count()] += 1
    return Polynomial(counts)


@st.composite
def vertex_graphs(draw):
    """Random simple graphs of up to 12 vertices, twin classes or not."""
    nv = draw(st.integers(0, 12))
    closed = [1 << v for v in range(nv)]
    for u in range(nv):
        for v in range(u + 1, nv):
            if draw(st.booleans()):
                closed[u] |= 1 << v
                closed[v] |= 1 << u
    return VertexGraph(n=0, labels=tuple(range(nv)), closed=tuple(closed))


@pytest.mark.parametrize("low_bits", [dc._BRUTE_LOW_BITS, 3])
@settings(max_examples=60, deadline=None)
@given(vg=vertex_graphs())
def test_brute_matches_plain_count(vg, low_bits):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dc, "_BRUTE_LOW_BITS", low_bits)
        for kind in (ORD, TOT):
            assert brute_force_poly(vg, kind) == _plain_count(vg.closed, kind)


def test_brute_reads_env_for_default_limit(monkeypatch):
    vg = expand_vertex_graph(build_class_graph(45))
    monkeypatch.setenv("ZDPOLY_BRUTE_LIMIT", "10")
    with pytest.raises(CapacityError):
        brute_force_poly(vg, ORD)
    brute_force_poly(vg, ORD, limit=20)  # explicit limit wins


def test_resolve_brute_limit(monkeypatch):
    monkeypatch.delenv("ZDPOLY_BRUTE_LIMIT", raising=False)
    assert resolve_brute_limit() == 26
    assert resolve_brute_limit(12) == 12
    monkeypatch.setenv("ZDPOLY_BRUTE_LIMIT", "18")
    assert resolve_brute_limit() == 18
    assert resolve_brute_limit(30) == 30
    monkeypatch.setenv("ZDPOLY_BRUTE_LIMIT", "many")
    with pytest.raises(ValueError):
        resolve_brute_limit()
    monkeypatch.setenv("ZDPOLY_BRUTE_LIMIT", "-3")
    with pytest.raises(ValueError):
        resolve_brute_limit()
    with pytest.raises(ValueError):
        resolve_brute_limit(-1)


def test_engine_class_capacity():
    # 720720 = 2^4 3^2 5 7 11 13 has 238 classes, far more up-sets than the
    # budget, and 582 479 vertices; the engine refuses before assembly.
    cg = build_class_graph(720720)
    budget = dc.ENGINE_UPSET_BUDGET
    with pytest.raises(CapacityError) as err:
        class_engine_poly(cg, ORD)
    assert str(err.value) == (
        f"counting up-sets of divisor classes for n=720720 reached "
        f"{budget + 1}, over the class-engine budget of {budget}")
    with pytest.raises(CapacityError) as err:
        class_engine_poly(cg, TOT)
    assert str(err.value) == (
        f"n=720720 has 582479 vertices, over the class-engine limit of "
        f"{dc.ENGINE_VERTEX_LIMIT}")


def test_engine_beyond_sweep_reach():
    """n = 360 (22 classes) against the values of the former 2^k sweep, and
    n = 720 (28 classes), which the sweep never finished, against graph
    invariants: D(1) is odd (Brouwer 2009), a connected graph has
    d_|V| = 1 and d_|V|-1 = |V|, and total dominating sets dominate."""
    cg = build_class_graph(360)
    d, dt = class_engine_poly(cg, ORD), class_engine_poly(cg, TOT)
    assert gamma_from_poly(d) == 3 and d.coefficient(3) == 8
    assert gamma_from_poly(dt) == 3
    assert d(1) == int(
        "52106440367825622788765031670830145126573988504341580094137905825"
        "02137623185013")
    assert dt(1) == int(
        "52106440156792287940606943253909558533971493099538253817755912803"
        "56090833797120")

    cg = build_class_graph(720)
    nv = cg.vertex_count
    assert (len(cg.classes), nv) == (28, 527)
    d, dt = class_engine_poly(cg, ORD), class_engine_poly(cg, TOT)
    assert d(1) % 2 == 1
    assert d.degree == nv and d.coefficient(nv) == 1
    assert d.coefficient(nv - 1) == nv
    assert all(dt.coefficient(i) <= d.coefficient(i) for i in range(nv + 1))
    assert gamma_from_poly(d) == gamma_from_poly(dt) == 3


def test_gamma_from_poly():
    assert gamma_from_poly(Polynomial([0, 0, 9, 16])) == 2
    assert gamma_from_poly(Polynomial([1])) is None
    assert gamma_from_poly(Polynomial([])) is None
