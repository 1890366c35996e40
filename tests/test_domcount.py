"""Counting engines: brute force, band semantics, and the class engine."""

import hashlib
import tracemalloc
from collections import Counter
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from band_reference import (Band, band_occupies, band_weight, bands_for_size,
                            pattern_valid, reference_band_poly)

import zdpoly.domcount as dc
from zdpoly.domcount import (DominationKind, brute_force_poly,
                             check_brute_size, class_engine_poly,
                             domination_number, engine_terms,
                             gamma_from_poly, resolve_brute_limit,
                             terms_count)
from zdpoly.errors import CapacityError
from zdpoly.numtheory import factorize
from zdpoly.polyring import Polynomial, binomial_expand, evaluate_at
from zdpoly.zdgraph import (VERTEX_LIMIT, VertexGraph, build_class_graph,
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
    # Every modulus brute force takes: |V| <= 40 holds for no n > 41^2.
    # Each run holds half the vertices, so both grow with |V|, to 20 at 40.
    for n, cg in composite_class_graphs(4, 41 * 41, max_vertices=40):
        vg = expand_vertex_graph(cg)
        for kind in (ORD, TOT):
            assert (brute_force_poly(vg, kind, limit=40)
                    == class_engine_poly(cg, kind)), (n, kind)


@pytest.mark.parametrize("n", [54, 185])
def test_brute_memory_at_the_ceiling(n):
    """With the vertices split in half, n = 185 (40 vertices) holds some
    of brute force's largest tables, 13 MB for D, and n = 54 (35) holds
    4 MB.  Moving two vertices from either run to the other took n = 185
    to 30 MB, and a block run of 16 vertices took it to 124 MB."""
    vg = expand_vertex_graph(build_class_graph(n))
    for kind in (ORD, TOT):
        tracemalloc.start()
        try:
            brute_force_poly(vg, kind)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 << 20, (n, kind, peak)


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


def test_brute_limit_enforced():
    vg = expand_vertex_graph(build_class_graph(45))  # 20 vertices
    with pytest.raises(CapacityError, match="^20 vertices exceeds the "
                                            "brute-force limit of 19$"):
        brute_force_poly(vg, ORD, limit=19)
    assert brute_force_poly(vg, ORD, limit=20).coefficient(0) == 0
    # 40 vertices is the one limit, and a larger limit is capped at it,
    # with the same refusal: n = 82 has 41 vertices.
    check_brute_size(40)
    check_brute_size(40, 100)
    vg = expand_vertex_graph(build_class_graph(82))
    for limit in (None, 41, 100):
        with pytest.raises(CapacityError) as err:
            brute_force_poly(vg, TOT, limit)
        assert str(err.value) == ("41 vertices exceeds the brute-force "
                                  "limit of 40")


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
    """Random simple graphs of up to 12 vertices, each edge drawn alone."""
    nv = draw(st.integers(0, 12))
    closed = [1 << v for v in range(nv)]
    for u in range(nv):
        for v in range(u + 1, nv):
            if draw(st.booleans()):
                closed[u] |= 1 << v
                closed[v] |= 1 << u
    return VertexGraph(n=0, labels=tuple(range(nv)), closed=tuple(closed))


def _brute_matches_plain_count(vg):
    for kind in (ORD, TOT):
        assert brute_force_poly(vg, kind) == _plain_count(vg.closed, kind)


@settings(max_examples=60, deadline=None)
@given(vg=vertex_graphs())
def test_brute_matches_plain_count(vg):
    _brute_matches_plain_count(vg)


@st.composite
def twin_graphs(draw):
    """Graphs of up to 14 vertices rich in twins: each vertex of a random
    base graph of 2-5 vertices becomes a class of 1-4 vertices, an
    independent set (open twins) or a clique (closed twins), joined to the
    classes of its base neighbours; vertices are then shuffled so that twins
    fall on both sides of the brute-force split."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=2, max_size=5)
                 .filter(lambda sizes: sum(sizes) <= 14))
    k = len(sizes)
    joined = {(a, b): draw(st.booleans())
              for a in range(k) for b in range(a + 1, k)}
    cliques = draw(st.lists(st.booleans(), min_size=k, max_size=k))
    owner = [c for c, m in enumerate(sizes) for _ in range(m)]
    nv = len(owner)
    place = draw(st.permutations(range(nv)))
    closed = [0] * nv
    for u in range(nv):
        for v in range(nv):
            a, b = sorted((owner[u], owner[v]))
            if u == v or (cliques[a] if a == b else joined[a, b]):
                closed[place[u]] |= 1 << place[v]
    return VertexGraph(n=0, labels=tuple(range(nv)), closed=tuple(closed))


@settings(max_examples=60, deadline=None)
@given(vg=twin_graphs())
def test_brute_matches_plain_count_on_twins(vg):
    """Twins of a clique class share their closed neighbourhood and those
    of an independent class their open one, so D or D_t counts one
    constraint for them.  Distinct neighbourhoods often share their low
    part, so one group holds several block parts, and many block subsets
    pose the same constraint on the low subsets."""
    _brute_matches_plain_count(vg)


def test_brute_ignores_limit_variable(monkeypatch):
    """The limit follows from the arguments alone: a variable once read as
    the default, ZDPOLY_BRUTE_LIMIT, changes nothing."""
    vg = expand_vertex_graph(build_class_graph(45))  # 20 vertices
    monkeypatch.setenv("ZDPOLY_BRUTE_LIMIT", "10")
    assert resolve_brute_limit() == 40
    assert brute_force_poly(vg, ORD) == class_engine_poly(
        build_class_graph(45), ORD)
    with pytest.raises(CapacityError):
        brute_force_poly(vg, ORD, limit=10)


def test_resolve_brute_limit(monkeypatch):
    assert resolve_brute_limit() == resolve_brute_limit(None) == 40
    assert resolve_brute_limit(12) == 12
    assert resolve_brute_limit(40) == 40
    assert resolve_brute_limit(63) == 40
    with pytest.raises(ValueError):
        resolve_brute_limit(-1)
    # The limit is read when the call is made.
    monkeypatch.setattr(dc, "BRUTE_CEILING", 30)
    assert resolve_brute_limit() == resolve_brute_limit(35) == 30


def test_engine_class_capacity(monkeypatch):
    # 27720 = 2^3 3^2 5 7 11 has 22 divisors with 4 prime factors, and
    # 720720 = 2^4 3^2 5 7 11 13 has 46 with 6; every subset of such a rank
    # level is an antichain, so every engine reader refuses D before the
    # up-set walk starts, and before the vertex limit (720720 is over both).
    limit = dc.ENGINE_UPSET_LIMIT

    def no_walk(*args):
        raise AssertionError("the up-sets were walked")

    with monkeypatch.context() as mp:
        mp.setattr(dc, "_upset_terms", no_walk)
        for n, widest in ((27720, 22), (720720, 46)):
            cg = build_class_graph(n)
            for engine in (class_engine_poly, engine_terms):
                with pytest.raises(CapacityError) as err:
                    engine(cg, ORD)
                assert str(err.value) == (
                    f"n={n} has {widest} divisor classes of one rank, so at "
                    f"least 2^{widest} up-sets, over the class-engine up-set "
                    f"limit of {limit}")
        # Every reader of a table builds output of size |V|, so
        # engine_terms refuses both kinds past the vertex limit: D_t's
        # 720720 (582 479 vertices) and 100800 (77 759), whose widest
        # level has 18 divisors, within the rank bound, before D's walk.
        for n, kind, nv in ((720720, TOT, 582479), (100800, ORD, 77759),
                            (100800, TOT, 77759)):
            for engine in (class_engine_poly, engine_terms):
                with pytest.raises(CapacityError) as err:
                    engine(build_class_graph(n), kind)
                assert str(err.value) == (
                    f"n={n} has {nv} vertices, over the class-engine limit "
                    f"of {VERTEX_LIMIT}")
    # Below the bound the walk counts: 2520's widest level has 11 divisors
    # (2^11 = 2 048 up-sets at least) and it has 59 540 up-sets.
    monkeypatch.setattr(dc, "ENGINE_UPSET_LIMIT", 10_000)
    with pytest.raises(CapacityError) as err:
        engine_terms(build_class_graph(2520), ORD)
    assert str(err.value) == (
        "counting up-sets of divisor classes for n=2520 reached 10001, over "
        "the class-engine up-set limit of 10000")


@pytest.mark.parametrize("kind, work", [(ORD, 28680), (TOT, 5127)])
def test_engine_work_limit_refuses_before_rows(monkeypatch, kind, work):
    """Past ENGINE_WORK_LIMIT, class_engine_poly refuses before the sum
    builds a row; at the limit it answers."""
    cg = build_class_graph(336)

    def no_rows(*args):
        raise AssertionError("a binomial row was built")

    with monkeypatch.context() as mp:
        mp.setattr(dc, "ENGINE_WORK_LIMIT", work - 1)
        mp.setattr(dc, "binomial_expand", no_rows)
        mp.setattr(dc, "_sum_rows", no_rows)
        with pytest.raises(CapacityError) as err:
            class_engine_poly(cg, kind)
    assert str(err.value) == (
        f"summing the binomial rows for n=336 counts {work} operations, "
        f"over the class-engine work limit of {work - 1}")
    monkeypatch.setattr(dc, "ENGINE_WORK_LIMIT", work)
    assert class_engine_poly(cg, kind) == _engine_poly(336, kind)


@pytest.mark.parametrize("n, kind, work, stop", [
    (12, TOT, 56, 4),  # flat: 104
    (60, TOT, 694, 36),  # flat: 1 296
    (78, TOT, 1446, 38),  # flat: 1 488
    (288, ORD, 18336, 0),  # flat: 25 712
    (336, ORD, 28680, 0),  # flat: 72 258
    (336, TOT, 5127, 230),  # flat: 7 536
    (696, ORD, 111156, 0),  # flat: 111 858
    (1590, ORD, 688551, 0),  # flat: 694 358
    (9828, ORD, 26176230, 0),  # flat: 281 757 096
    (20014, ORD, 80076, 10008),  # the flat sum; Horner: over 50 M
])
def test_engine_picks_the_cheaper_sum(n, kind, work, stop):
    """The plan the counted work picks, and its count, which the work
    limit admits: 9828 and 20014 are in reach only through the choice.
    ``stop`` is the lowest row, where Horner stops, or one above the top
    row where the flat sum is picked.  The flat count includes expanding
    each row, so 288 takes Horner, the faster there.  Horner's counted
    adds alone pick it at 60 D_t, 696 and 1590, where it took 0.4-0.7
    times the flat sum's time (2-core Xeon).  D_t's rows start at
    E = |V| - sum (p - 1), so Horner stops there and one row finishes:
    336 D_t took 0.18-0.22 ms so, against 0.41-0.52 flat.  At 12 and 78
    D_t, whose lowest rows are low, running Horner on to x^0 instead took
    9-10 us against 11-12 at 12, and 33-36 against 59-64 at 78 (best of
    nine, three runs, Python 3.11): too little to keep a third plan for."""
    cg = build_class_graph(n)
    rows, got, flat = dc._assemble(dc.engine_terms(cg, kind),
                                   cg.vertex_count)
    assert (got, max(rows) + 1 if flat else min(rows)) == (work, stop)
    assert work <= dc.ENGINE_WORK_LIMIT


def test_term_sum_refuses_any_table_over_the_vertex_limit(monkeypatch):
    """Every term table is summed by sum_terms, so it holds the vertex
    limit for all of them, the class engine's and the closed forms' alike:
    n = 2 * 100003 has 100 003 vertices, and a one-key table on its graph
    is refused, named by the caller's tag, before it is folded."""
    def no_fold(*args):
        raise AssertionError("a table over the vertex limit was folded")

    monkeypatch.setattr(dc, "_assemble", no_fold)
    cg = build_class_graph(200006)
    for what in ("class-engine", "closed-form"):
        with pytest.raises(CapacityError) as err:
            dc.sum_terms(cg, {(1, 0, ()): 1}, what)
        assert str(err.value) == (f"n=200006 has 100003 vertices, over the "
                                  f"{what} limit of {VERTEX_LIMIT}")


@pytest.mark.parametrize("n, used, unused, kind", [
    (336, "_packed_horner_sum", "_window_horner_sum", ORD),  # 248-bit slots
    (2520, "_window_horner_sum", "_packed_horner_sum", ORD),  # 1952 bits
    (336, "_packed_horner_sum", "_window_horner_sum", TOT),  # 16 bits
    (2520, "_packed_horner_sum", "_window_horner_sum", TOT),  # 16 bits
])
def test_horner_sum_picks_its_representation(monkeypatch, n, used, unused,
                                             kind):
    """Horner's sum for D runs on one packed integer at n = 336 and on the
    list window at 2520, and never enters the other: the crossover stays
    between them, below the sizes the reach checks run at.  D_t's table,
    shifted down to its lowest row, spans only sum (p - 1) + 1 values of E
    with counts of +-1, so its slots are narrow and it runs packed at
    both."""
    calls = Counter()

    def spy(*args, sum_rows=getattr(dc, used)):
        calls[used] += 1
        return sum_rows(*args)

    def no_sum(*args):
        raise AssertionError(f"{unused} ran")

    monkeypatch.setattr(dc, used, spy)
    monkeypatch.setattr(dc, unused, no_sum)
    cg = build_class_graph(n)
    poly = class_engine_poly(cg, kind)
    assert calls == {used: 1}
    assert gamma_from_poly(poly) == domination_number(cg, kind)
    assert sum(poly.coeffs) == terms_count(engine_terms(cg, kind))


def _no_window(*args):
    raise AssertionError("the list window ran")


def test_packed_horner_slots_hold_wide_signed_coefficients(monkeypatch):
    """The packed sum sizes its slots from the counts, not from |V|: over
    6 vertices this table sums to coefficients of up to 20 bits, one of
    them negative, which slots of |V| + 2 bits would garble."""
    rows = {6: {0: 3000}, 4: {1: -5000, 2: 7}, 1: {3: 11},
            0: {5: -10 ** 6, 6: 1}}
    monkeypatch.setattr(dc, "_window_horner_sum", _no_window)
    got = dc._sum_rows(rows, 6, False)
    assert got == dc._flat_sum(rows, 6)
    assert got.coeffs == (3000, 13000, 25007, 30039, 25053, -986972, 3008)


@st.composite
def signed_tables(draw, widths=(70,)):
    """(nv, rows): a random signed row table of degree at most nv <= 12,
    with 1 to 20 (E, shift) pairs, E + shift <= nv, each count of exactly
    a drawn one of ``widths`` bits with a random sign, and every E and
    every shift at least a drawn low bound each, so that often no row is
    (1+x)^0 and none starts at x^0."""
    nv = draw(st.integers(0, 12))
    bits = draw(st.sampled_from(widths))
    low_e = draw(st.integers(0, nv))
    low = draw(st.integers(0, nv - low_e))
    rows = {}
    for _ in range(draw(st.integers(1, 20))):
        e = draw(st.integers(low_e, nv - low))
        count = draw(st.integers(2 ** (bits - 1), 2 ** bits - 1))
        rows.setdefault(e, {})[draw(st.integers(low, nv - e))] = (
            count if draw(st.booleans()) else -count)
    return nv, rows


@settings(max_examples=200, deadline=None)
@given(signed_tables())
def test_packed_horner_matches_flat_on_signed_tables(case):
    """The packed sum equals the flat one on random signed tables."""
    nv, rows = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dc, "_window_horner_sum", _no_window)
        assert dc._sum_rows(rows, nv, False) == dc._flat_sum(rows, nv)


@settings(max_examples=200, deadline=None)
@given(signed_tables())
def test_window_horner_matches_flat_on_signed_tables(case):
    """The list window equals the flat sum on random signed tables."""
    nv, rows = case
    assert dc._window_horner_sum(rows, nv) == dc._flat_sum(rows, nv)


@settings(max_examples=300, deadline=None)
@given(signed_tables(widths=(70, 600)))
def test_horner_sum_matches_flat_on_signed_tables(case):
    """By either of _assemble's plans, the flat sum alone or Horner to
    the lowest row, the sum of random signed tables equals the flat sum.
    Horner runs packed on 70-bit counts and on the list window on 600-bit
    counts, past _PACKED_SLOT_BITS."""
    nv, rows = case
    wide = max(abs(c) for shifts in rows.values()
               for c in shifts.values()).bit_length() > dc._PACKED_SLOT_BITS
    used, unused = (("_window_horner_sum", "_packed_horner_sum") if wide
                    else ("_packed_horner_sum", "_window_horner_sum"))
    calls = Counter()

    def spy(*args, horner=getattr(dc, used)):
        calls[used] += 1
        return horner(*args)

    def no_sum(*args):
        raise AssertionError(f"{unused} ran")

    flat = dc._flat_sum(rows, nv)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dc, used, spy)
        mp.setattr(dc, unused, no_sum)
        for plan in (True, False):
            assert dc._sum_rows(rows, nv, plan) == flat, plan
    assert calls == {used: 1}


def test_sums_match_flat_on_engine_tables():
    """For every engine table with n below 1500 whose rows start above
    (1+x)^0, Horner's sum to the lowest row finished by one binomial row
    equals the flat sum of the same rows, whichever plan the counts pick.
    Those are the D_t tables but those of prime powers and 2p.  Every D
    table has a row at (1+x)^0, so its sums are the ones
    test_engine_matches_flat_reference checks."""
    tails = 0
    for n in range(2, 1500):
        cg = build_class_graph(n)
        nv = cg.vertex_count
        for kind in (ORD, TOT):
            rows = dc._assemble(engine_terms(cg, kind), nv)[0]
            if min(rows, default=0):
                assert kind is TOT, n
                tails += 1
                assert (dc._sum_rows(rows, nv, False)
                        == dc._flat_sum(rows, nv)), n
    assert tails == 807


# sha256 of the comma-joined coefficients of class_engine_poly, recorded
# from the trie-fold assembly that multiplied polynomials: 1440 has 34
# classes and many up-set keys, 2904 and 5982 were the fold's slow
# products, 4096 is a prime power and 20014 = 2 * 10007 has 10 007 vertices.
PINNED_DIGESTS = {
    (1440, ORD): "917ac748afba5c31d9233b37bfd9ddf2b1eede5f79a85ede75005567013f31a1",
    (1440, TOT): "23da25091ba5975e1e2dea06f22a97f627285c315e7bbf4a666859ad73b404c9",
    (2904, ORD): "f9c3946fb9cd297b666aab4614f72b93f8f1073415f6a5e86df702955b34be82",
    (2904, TOT): "f82ad35003ccd1a89599c2dedc9419b8b062499ce761c98fe579b5d30b9787ec",
    (4096, ORD): "ed2f459115070d684c7091793c8131c2b79cce819a29e434368a651b5233d536",
    (4096, TOT): "6c0fd97283123be881bd4f76a3d4130d5386fd4c6f63b2eb630681455190df16",
    (5982, ORD): "393e640baa4d760cce2873f4acbaabd1acf32015ff980f4e371b2e3e14b98ec2",
    (5982, TOT): "37393a914de35995552824675f518a47968bae171a2d5e3d30a851543cc02f53",
    (20014, ORD): "4730a6126f32d3659966f15a0facdff2eca4b196c2b3b9217c94c3d0fc4419da",
    (20014, TOT): "c0cf3645e167cf10a0a2b1a01f9dd4de5a642b9305efcc112702a07b090589b3",
}
PINNED_N = sorted({n for n, _ in PINNED_DIGESTS})


@cache
def _engine_poly(n, kind):
    return class_engine_poly(build_class_graph(n), kind)


@pytest.mark.parametrize("n", PINNED_N)
def test_engine_poly_pinned(n):
    for kind in (ORD, TOT):
        coeffs = ",".join(map(str, _engine_poly(n, kind).coeffs))
        assert (hashlib.sha256(coeffs.encode()).hexdigest()
                == PINNED_DIGESTS[n, kind]), (n, kind)


def _flat_reference(terms, nv):
    """The engine's flat assembly before it chose between two sums: each
    key re-expands its 2^|gens| signed powers of (1+x), and each distinct
    row (1+x)^E is added, times its signed count, at each shift."""
    rows = {}  # E -> {shift: signed count of x^shift * (1+x)^E}
    for (shift, free, gens), count in terms.items():
        powers = [(free, count)]
        for m in gens:
            powers = ([(e + m, c) for e, c in powers]
                      + [(e, -c) for e, c in powers])
        for e, c in powers:
            rows.setdefault(e, Counter())[shift] += c
    acc = [0] * (nv + 1)
    for e, shifts in rows.items():
        row = binomial_expand(e).coeffs
        for shift, count in shifts.items():
            if count:
                for d, c in enumerate(row, shift):
                    acc[d] += count * c
    return Polynomial(acc)


def _reference_term(gens, upset, partner, sizes):
    """(shift, free size, sorted generator sizes) of the product of class
    weights for the antichain bitmask ``gens`` and its up-set ``upset``, or
    None when the term drops: one pass over all the classes."""
    shift = free = 0
    gen_sizes = []
    for e, m in enumerate(sizes):
        p = partner[e]
        if upset >> e & 1:
            if gens >> p & 1:
                gen_sizes.append(m)
            elif upset >> p & 1:
                free += m
        elif upset >> p & 1:
            shift += m
        else:
            return None
    return shift, free, tuple(sorted(gen_sizes))


def _reference_upset_terms(cg):
    """(terms, up-sets visited) for D: the engine's up-set walk before it
    read the keys from partner bitmasks.  Antichains are enumerated in
    ascending divisor order, and each up-set's key is read class by class
    by _reference_term."""
    sizes = [c.size for c in cg.classes]
    partner = [(mask & -mask).bit_length() - 1 for mask in cg.neighbors]
    up = [cg.neighbors[p] for p in partner]
    terms = Counter()
    count = 0
    stack = [(0, 0, 0)]
    while stack:
        start, gens, upset = stack.pop()
        count += 1
        key = _reference_term(gens, upset, partner, sizes)
        if key is not None:
            terms[key] += 1
        for j in range(start, len(sizes)):
            if not upset >> j & 1:
                stack.append((j + 1, gens | 1 << j, upset | up[j]))
    return terms, count


def _reference_widest_rank_level(cg):
    """The most classes whose divisors have one count of prime factors
    (with multiplicity), each class's divisor trial-divided."""
    primes = [p for p, _ in factorize(cg.n).factors]
    levels = Counter()
    for c in cg.classes:
        d, rank = c.divisor, 0
        for p in primes:
            while d % p == 0:
                d //= p
                rank += 1
        levels[rank] += 1
    return max(levels.values(), default=0)


def test_widest_rank_level_from_the_exponents():
    for n in range(2, 10_000):
        cg = build_class_graph(n)
        assert (dc._widest_rank_level(cg)
                == _reference_widest_rank_level(cg)), n
    for n, widest in ((27720, 22), (720720, 46)):
        cg = build_class_graph(n)
        assert (dc._widest_rank_level(cg) == widest
                == _reference_widest_rank_level(cg))


def test_upset_walk_matches_reference(monkeypatch):
    """For D at every n below 1200 and at 2520, the engine's key table is
    the reference walk's, and its up-set limit admits exactly as many
    up-sets as the reference visits."""
    for n in [*range(2, 1200), 2520]:
        cg = build_class_graph(n)
        terms, count = _reference_upset_terms(cg)
        monkeypatch.setattr(dc, "ENGINE_UPSET_LIMIT", count)
        assert dc.engine_terms(cg, ORD) == terms, n
        monkeypatch.setattr(dc, "ENGINE_UPSET_LIMIT", count - 1)
        with pytest.raises(CapacityError):
            dc.engine_terms(cg, ORD)


def test_engine_matches_flat_reference(monkeypatch):
    """Every n below 1200, both kinds, against the flat reference on the
    same up-set keys; the sweep takes the flat sum, Horner alone and
    Horner finished by one row above (1+x)^0."""
    plans = Counter()

    def spy(terms, nv, assemble=dc._assemble):
        rows, work, flat = assemble(terms, nv)
        plans["flat" if flat else "row" if min(rows) else "Horner"] += 1
        return rows, work, flat

    monkeypatch.setattr(dc, "_assemble", spy)
    for n in range(2, 1200):
        cg = build_class_graph(n)
        for kind in (ORD, TOT):
            expected = _flat_reference(dc.engine_terms(cg, kind),
                                       cg.vertex_count)
            assert _engine_poly(n, kind) == expected, (n, kind)
    assert set(plans) == {"flat", "Horner", "row"}, plans


def test_engine_count_reads_the_polynomial():
    """gamma read by domination_number and the count read from the up-set
    keys equal gamma_from_poly and the value at 1 of the engine's
    polynomial, primes included.  The pinned n reach shapes the small n do
    not."""
    for n in [*range(2, 501), *PINNED_N]:
        cg = build_class_graph(n)
        for kind in (ORD, TOT):
            p = _engine_poly(n, kind)
            assert domination_number(cg, kind) == gamma_from_poly(p), (n, kind)
            assert terms_count(engine_terms(cg, kind)) == evaluate_at(p, 1), (
                n, kind)


def terms_gamma(cg, terms):
    """``gamma_from_poly`` of the sum of ``terms``, an ``engine_terms``
    table of ``cg``, read from its keys: with no negative count, the least
    positive shift + |gens|, since every term's lowest coefficient is then
    positive; D_t's negative count, at n = p^alpha, takes all of the x
    coefficient, so gamma_t is then 2, or undefined when n = 4."""
    if any(c < 0 for c in terms.values()):
        return 2 if cg.vertex_count >= 2 else None
    return min((shift + len(gens) for shift, _, gens in terms
                if shift + len(gens)), default=None)


def test_walk_matches_the_whole_table():
    """For D at every n below 3000, the bounded walk over the pi-free
    down-sets reads the gamma that terms_gamma reads from the whole up-set
    table, and from its one key for D_t."""
    for n in range(2, 3000):
        cg = build_class_graph(n)
        for kind in (ORD, TOT):
            assert (domination_number(cg, kind)
                    == terms_gamma(cg, engine_terms(cg, kind))), (n, kind)


def test_gamma_follows_the_factorization():
    """gamma and gamma_t of every composite n below 20 000 follow from the
    class graph's factorization alone: gamma is 1 at n = p^alpha and 2p,
    whose vertex n/p or n/2 is joined to all others, and omega(n)
    otherwise; gamma_t is 2 at n = p^alpha, but undefined for the one
    vertex of n = 4, and omega(n) otherwise.  Past 3000, beyond the whole
    table's check, D's walk is the only reader."""
    composites = 0
    for n in range(4, 20_000):
        cg = build_class_graph(n)
        primes = [p for p, _ in cg.factorization.factors]
        if primes == [n]:
            continue
        composites += 1
        omega = len(primes)
        gamma = 1 if omega == 1 or n == 2 * primes[-1] else omega
        gamma_t = None if n == 4 else 2 if omega == 1 else omega
        assert domination_number(cg, ORD) == gamma, n
        assert domination_number(cg, TOT) == gamma_t, n
    assert composites == 17736


@pytest.mark.parametrize("n, ordinary, total", [
    # n = p^alpha: D_t loses its whole x coefficient, so gamma_t is 2, or
    # undefined for the one vertex of n = 4.
    (4, (1, 1), (None, 0)),
    (8, (1, 5), (2, 3)),
    (9, (1, 3), (2, 1)),
    (27, (1, 193), (2, 190)),
    # Vertex 128 is joined to all 126 others, so D_t(1) = 2^126 - 1.
    (2 ** 8, (1, 85070591730234615869302416372014252287), (2, 2 ** 126 - 1)),
    # A prime has an empty graph: only the empty set, and no gamma.
    (7, (None, 1), (None, 1)),
])
def test_engine_count_edge_cases(n, ordinary, total):
    cg = build_class_graph(n)
    for kind, expected in ((ORD, ordinary), (TOT, total)):
        assert (domination_number(cg, kind),
                terms_count(engine_terms(cg, kind))) == expected


def test_engine_counts_are_signed_only_at_the_prime_power_x():
    """terms_gamma reads gamma as the least positive shift + |gens|, and
    D's walk as the least lowest degree of a term, which holds only with
    no negative count.  Below 1200, every count of D's up-set keys is
    positive, and D_t's table has a negative count only at (1, 0, ()), the
    -(p-1)x of n = p^alpha, alpha >= 2, and there."""
    for n in range(2, 1200):
        cg = build_class_graph(n)
        assert all(c > 0 for c in dc.engine_terms(cg, ORD).values()), n
        negative = {key: c for key, c in dc.engine_terms(cg, TOT).items()
                    if c < 0}
        (p, alpha), *others = factorize(n).factors
        if alpha >= 2 and not others:
            assert negative == {(1, 0, ()): 1 - p}, n
        else:
            assert not negative, n


def test_engine_beyond_sweep_reach():
    """n = 360 (22 classes) against the values of the former 2^k sweep, and
    n = 720 (28 classes), which the sweep never finished, against graph
    invariants: D(1) is odd (Brouwer 2009), a connected graph has
    d_|V| = 1 and d_|V|-1 = |V|, and total dominating sets dominate."""
    cg = build_class_graph(360)
    d, dt = class_engine_poly(cg, ORD), class_engine_poly(cg, TOT)
    assert gamma_from_poly(d) == 3 and d.coefficient(3) == 8
    assert gamma_from_poly(dt) == 3
    assert evaluate_at(d, 1) == int(
        "52106440367825622788765031670830145126573988504341580094137905825"
        "02137623185013")
    assert evaluate_at(dt, 1) == int(
        "52106440156792287940606943253909558533971493099538253817755912803"
        "56090833797120")

    cg = build_class_graph(720)
    nv = cg.vertex_count
    assert (len(cg.classes), nv) == (28, 527)
    d, dt = class_engine_poly(cg, ORD), class_engine_poly(cg, TOT)
    assert evaluate_at(d, 1) % 2 == 1
    assert d.degree == nv and d.coefficient(nv) == 1
    assert d.coefficient(nv - 1) == nv
    assert all(dt.coefficient(i) <= d.coefficient(i) for i in range(nv + 1))
    assert gamma_from_poly(d) == gamma_from_poly(dt) == 3


def test_gamma_from_poly():
    assert gamma_from_poly(Polynomial([0, 0, 9, 16])) == 2
    assert gamma_from_poly(Polynomial([1])) is None
    assert gamma_from_poly(Polynomial([])) is None
