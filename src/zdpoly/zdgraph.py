"""Zero-divisor graphs of Z_n, in two representations.

The vertex-level graph has one vertex per nonzero zero-divisor of Z_n, with
u ~ v whenever u*v is 0 mod n.  Grouping vertices by g = gcd(v, n) compresses
this to one node per proper divisor g of n.  Class d is joined to class e
exactly when n | d*e (Anderson and Livingston, J. Algebra 217, 1999): every
vertex of d to every vertex of e, or none, and the members of class d to
each other when n | d^2.  ``ClassGraph.neighbors`` holds that rule as one
bitmask per class; everything else reads the masks.  The compressed form is
what the counting engine consumes; the expanded form exists for brute-force
checks and DOT export.

VERTEX_LIMIT caps every computation that builds data of size |V|:
expansion, the class engine and the closed forms.
"""

from __future__ import annotations

from math import comb, gcd
from typing import NamedTuple

from .errors import CapacityError
from .numtheory import proper_divisors, totient

# Most vertices taken on by anything that builds |V|-sized data.  A counting
# polynomial has |V| + 1 coefficients of up to |V| bits: for n = 70046
# (35 023 vertices) the class engine peaks at 358 MB and `poly --json` at
# 1.15 GB, where n = 720720 (582 479 vertices) would need over 100 GB.  An
# expanded graph holds one |V|-bit set per vertex.
VERTEX_LIMIT = 50_000


class DivisorClass(NamedTuple):
    """The vertices v with gcd(v, n) == divisor; there are totient(n/divisor)
    of them."""

    divisor: int
    size: int


class ClassGraph(NamedTuple):
    """Divisor-class compression of the zero-divisor graph of Z_n.

    ``classes`` is ordered by ascending divisor d_0 < d_1 < ...  Bit j of
    ``neighbors[i]`` is set exactly when n | d_i * d_j, so bit i marks class
    i as an internal clique.  Since n | d_i * d_j iff n/d_i | d_j,
    ``neighbors[i]`` is also the up-set of class n/d_i in the divisibility
    order, and its lowest set bit is that class.
    """

    n: int
    classes: tuple[DivisorClass, ...]
    neighbors: tuple[int, ...]

    @property
    def vertex_count(self) -> int:
        return sum(c.size for c in self.classes)

    def adjacency_pairs(self) -> list[tuple[int, int]]:
        """Index pairs (i, j) with i < j of adjacent classes, lexicographic."""
        k = len(self.classes)
        return [(i, j) for i, mask in enumerate(self.neighbors)
                for j in range(i + 1, k) if mask >> j & 1]


class VertexGraph(NamedTuple):
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
        raise ValueError(f"n must be >= 2, got {n}")
    divisors = proper_divisors(n)
    classes = tuple(DivisorClass(divisor=d, size=totient(n // d))
                    for d in divisors)
    neighbors = tuple(
        sum(1 << j for j, e in enumerate(divisors) if (d * e) % n == 0)
        for d in divisors)
    return ClassGraph(n=n, classes=classes, neighbors=neighbors)


def check_vertex_limit(cg: ClassGraph, what: str) -> None:
    """Raise CapacityError when ``cg`` is over VERTEX_LIMIT, naming ``what``
    refused it."""
    nv = cg.vertex_count
    if nv > VERTEX_LIMIT:
        raise CapacityError(f"n={cg.n} has {nv} vertices, over the {what} "
                            f"limit of {VERTEX_LIMIT}")


def expand_vertex_graph(cg: ClassGraph) -> VertexGraph:
    """Materialize the vertex-level graph from its class form.

    Refuses graphs larger than VERTEX_LIMIT vertices, since the result is
    quadratic-ish in memory (one bitset per vertex).
    """
    check_vertex_limit(cg, "expansion")
    n = cg.n
    labels = tuple(v for v in range(1, n) if gcd(v, n) > 1)
    # Bitset per class first, then one neighbourhood per class by ORing the
    # classes its mask names; this avoids the quadratic label-by-label test.
    class_index = {c.divisor: i for i, c in enumerate(cg.classes)}
    vertex_class = [class_index[gcd(v, n)] for v in labels]
    class_bits = [0] * len(cg.classes)
    for i, ci in enumerate(vertex_class):
        class_bits[ci] |= 1 << i
    # The class bitsets are disjoint, so their sum is their union.
    neighbor_bits = [
        sum(cb for j, cb in enumerate(class_bits) if mask >> j & 1)
        for mask in cg.neighbors]
    closed = tuple(neighbor_bits[ci] | 1 << i
                   for i, ci in enumerate(vertex_class))
    return VertexGraph(n=n, labels=labels, closed=closed)


def edge_count(cg: ClassGraph) -> int:
    """Number of edges of the expanded graph, computed without expanding."""
    sizes = [c.size for c in cg.classes]
    return (sum(sizes[i] * sizes[j] for i, j in cg.adjacency_pairs())
            + sum(comb(m, 2) for i, m in enumerate(sizes)
                  if cg.neighbors[i] >> i & 1))


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
