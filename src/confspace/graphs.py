"""Graph families indexing the graph-side bicomplexes.

A graph here is an edge set on vertices {1..n} with i < j for every edge
(i, j); the "target" of an edge is its second coordinate.  Four families
matter:

* FULL        - all graphs
* NODUPTARGET - no two edges share a target (each component is a tree)
* JFAMILY     - at least two edges share a target
* HFAMILY     - no duplicate targets and vertex 1 isolated

Edge monomials e_{ij} behave like exterior generators in lexicographic
normal order; ``add_edge`` returns the sign of inserting a new generator.
"""

from itertools import combinations, product


FULL = "full"
NODUPTARGET = "noduptarget"
JFAMILY = "jfamily"
HFAMILY = "hfamily"

MAX_VERTICES = 6

ZERO = "zero"  # add_edge result when the edge is already present


class Graph:
    """Immutable graph on vertices {1..n}; edges stored sorted lexicographically."""

    __slots__ = ("n", "edges", "_components", "_hash")

    def __init__(self, n, edges=()):
        edges = tuple(sorted(edges))
        for (i, j) in edges:
            if not (1 <= i < j <= n):
                raise ValueError("bad edge %r for n=%d" % ((i, j), n))
        if len(set(edges)) != len(edges):
            raise ValueError("duplicate edges")
        self.n = n
        self.edges = edges
        self._components = None
        # every basis-key dict operation hashes the graph again
        self._hash = hash((n, edges))

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.edges == other.edges

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "Graph(%d, %r)" % (self.n, list(self.edges))

    @property
    def edge_count(self):
        return len(self.edges)

    def targets(self):
        return [j for (_, j) in self.edges]

    def has_duplicate_target(self):
        ts = self.targets()
        return len(set(ts)) != len(ts)


def components(g):
    """Connected components as sorted vertex lists, ordered by smallest vertex."""
    if g._components is not None:
        return g._components
    parent = list(range(g.n + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for (i, j) in g.edges:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)
    groups = {}
    for v in range(1, g.n + 1):
        groups.setdefault(find(v), []).append(v)
    comps = [sorted(groups[r]) for r in sorted(groups)]
    g._components = comps
    return comps


def component_of(g, vertex):
    """Index (0-based) of the component containing vertex."""
    for s, comp in enumerate(components(g)):
        if vertex in comp:
            return s
    raise ValueError("vertex %d not in graph on %d vertices" % (vertex, g.n))


def in_family(g, family):
    if family == FULL:
        return True
    if family == NODUPTARGET:
        return not g.has_duplicate_target()
    if family == JFAMILY:
        return g.has_duplicate_target()
    if family == HFAMILY:
        return (not g.has_duplicate_target()) and components(g)[0] == [1]
    raise ValueError("unknown family %r" % (family,))


def enumerate_graphs(n, family):
    """All graphs of the family, ordered by edge count then lexicographically.

    The distinct-target families are built directly: each vertex t takes
    at most one source s < t, and none from vertex 1 when it is to stay
    isolated.  The others filter every edge subset."""
    if not (1 <= n <= MAX_VERTICES):
        raise ValueError("n=%d outside the combinatorial guard 1..%d" % (n, MAX_VERTICES))
    if family in (NODUPTARGET, HFAMILY):
        first = 2 if family == HFAMILY else 1
        sources = [[()] + [((s, t),) for s in range(first, t)]
                   for t in range(2, n + 1)]
        edge_sets = [tuple(sorted(sum(choice, ())))
                     for choice in product(*sources)]
        edge_sets.sort(key=lambda es: (len(es), es))
        return [Graph(n, es) for es in edge_sets]
    all_edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    out = []
    for k in range(len(all_edges) + 1):
        for sub in combinations(all_edges, k):
            g = Graph(n, sub)
            if in_family(g, family):
                out.append(g)
    return out


def add_edge(g, i, j):
    """(enlarged graph, insertion sign) or ZERO when (i,j) is already an edge.

    The sign is (-1)^t with t the number of existing edges strictly after
    (i, j) lexicographically: the cost of inserting the new exterior
    generator from the right into the normal-ordered monomial e_G.
    """
    if not i < j:
        raise ValueError("edge must have i < j")
    e = (i, j)
    if e in g.edges:
        return ZERO
    after = sum(1 for f in g.edges if f > e)
    sign = -1 if after % 2 else 1
    return Graph(g.n, g.edges + (e,)), sign
