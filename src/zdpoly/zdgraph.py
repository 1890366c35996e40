"""Zero-divisor graphs of Z_n, in two representations.

The vertex-level graph has one vertex per nonzero zero-divisor of Z_n, with
u ~ v whenever u*v is 0 mod n.  Grouping vertices by g = gcd(v, n) compresses
this to one node per proper divisor g of n: all gcd(n/g)-class members share
the same neighbors outside the class, classes d_i and d_j are either fully
joined (when n divides d_i * d_j) or fully non-adjacent, and a class is an
internal clique exactly when n divides d^2.  The compressed form is what the
counting engine consumes; the expanded form exists for brute-force checks and
DOT export.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, gcd

from .errors import CapacityError
from .numtheory import proper_divisors, totient

DEFAULT_EXPANSION_LIMIT = 50_000


@dataclass(frozen=True)
class DivisorClass:
    """The vertices v with gcd(v, n) == divisor; there are totient(n/divisor)
    of them, and they form a clique iff n | divisor^2."""

    divisor: int
    size: int
    is_clique: bool


@dataclass(frozen=True)
class ClassGraph:
    """Divisor-class compression of the zero-divisor graph of Z_n.

    ``classes`` is ordered by ascending divisor; ``adjacency`` is a symmetric
    boolean matrix with a False diagonal (internal edges are carried by
    ``is_clique``, not by the matrix).
    """

    n: int
    classes: tuple[DivisorClass, ...]
    adjacency: tuple[tuple[bool, ...], ...]

    @property
    def vertex_count(self) -> int:
        return sum(c.size for c in self.classes)

    def adjacency_pairs(self) -> list[tuple[int, int]]:
        """Index pairs (i, j) with i < j of adjacent classes, lexicographic."""
        k = len(self.classes)
        return [(i, j) for i in range(k) for j in range(i + 1, k)
                if self.adjacency[i][j]]


@dataclass(frozen=True)
class VertexGraph:
    """Explicit graph on the zero-divisor labels themselves.

    ``closed`` holds one bitset per vertex over vertex *indices*: bit v of
    ``closed[u]`` is set iff v == u or labels[u] * labels[v] == 0 mod n.
    """

    n: int
    labels: tuple[int, ...]
    closed: tuple[int, ...]


def build_class_graph(n: int) -> ClassGraph:
    """Compressed zero-divisor graph of Z_n.  n must be >= 2; a prime n yields
    the empty graph (no classes)."""
    if n < 2:
        raise ValueError(f"build_class_graph requires n >= 2, got {n}")
    divisors = proper_divisors(n)
    classes = tuple(
        DivisorClass(divisor=d, size=totient(n // d), is_clique=(d * d) % n == 0)
        for d in divisors
    )
    adjacency = tuple(
        tuple(i != j and (di * dj) % n == 0 for j, dj in enumerate(divisors))
        for i, di in enumerate(divisors)
    )
    return ClassGraph(n=n, classes=classes, adjacency=adjacency)


def expand_vertex_graph(cg: ClassGraph, limit: int = DEFAULT_EXPANSION_LIMIT) -> VertexGraph:
    """Materialize the vertex-level graph from its class form.

    Refuses graphs larger than ``limit`` vertices, since the result is
    quadratic-ish in memory (one bitset per vertex).
    """
    nv = cg.vertex_count
    if nv > limit:
        raise CapacityError(
            f"n={cg.n} expands to {nv} vertices, above the limit of {limit}")
    n = cg.n
    labels = tuple(v for v in range(1, n) if gcd(v, n) > 1)
    closed = []
    # Bitset per class first, then per-vertex closed neighborhoods from the
    # class adjacency; this avoids the quadratic label-by-label product test.
    k = len(cg.classes)
    class_bits = [0] * k
    class_index = {c.divisor: i for i, c in enumerate(cg.classes)}
    vertex_class = []
    for i, v in enumerate(labels):
        ci = class_index[gcd(v, n)]
        vertex_class.append(ci)
        class_bits[ci] |= 1 << i
    neighbor_bits = []
    for ci in range(k):
        bits = 0
        for cj in range(k):
            if cg.adjacency[ci][cj]:
                bits |= class_bits[cj]
        if cg.classes[ci].is_clique:
            bits |= class_bits[ci]
        neighbor_bits.append(bits)
    for i, v in enumerate(labels):
        closed.append(neighbor_bits[vertex_class[i]] | (1 << i))
    return VertexGraph(n=n, labels=labels, closed=tuple(closed))


def edge_count(cg: ClassGraph) -> int:
    """Number of edges of the expanded graph, computed without expanding."""
    total = 0
    for i, j in cg.adjacency_pairs():
        total += cg.classes[i].size * cg.classes[j].size
    for c in cg.classes:
        if c.is_clique:
            total += comb(c.size, 2)
    return total


def edge_list(vg: VertexGraph) -> list[tuple[int, int]]:
    """Edges as label pairs (a, b) with a < b, sorted ascending."""
    edges = []
    for i, u in enumerate(vg.labels):
        nb = vg.closed[i] & ~(1 << i)
        while nb:
            low = nb & -nb
            j = low.bit_length() - 1
            nb ^= low
            if i < j:
                edges.append((u, vg.labels[j]))
    edges.sort()
    return edges


def export_dot(vg: VertexGraph) -> str:
    """Graphviz text: every vertex on its own line, then each edge once with
    the smaller label first, edges sorted ascending."""
    lines = [f"graph zdiv_{vg.n} {{"]
    for v in vg.labels:
        lines.append(f'  "{v}";')
    for a, b in edge_list(vg):
        lines.append(f'  "{a}" -- "{b}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
