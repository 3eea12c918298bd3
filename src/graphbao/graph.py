"""Finite undirected loop-free graphs with exact coloring and girth solvers.

Vertices are 0..n-1 and adjacency is one int bitmask per vertex.  Graphs are
immutable after construction and safe to share between workers.  The exact
chromatic solver is a DSATUR-ordered branch and bound intended for graphs of
up to roughly 30 vertices; `brute_force_chromatic` is the slow oracle that
`suite all` cross-checks it against on tiny inputs.  The isomorphism test and
the cover search by maximal independent sets are test oracles
(tests/oracles.py).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .bitset import iter_bits, mask_of

# search_high_girth_chromatic certifies no graph above this many vertices
SEARCH_MAX_VERTICES = 48


@dataclass(frozen=True)
class Graph:
    vertex_count: int
    adj: tuple[int, ...]

    def __post_init__(self):
        if len(self.adj) != self.vertex_count:
            raise ValueError("adjacency table size does not match vertex count")
        full = (1 << self.vertex_count) - 1
        for v, mask in enumerate(self.adj):
            if mask & ~full:
                raise ValueError(f"neighbour index out of range at vertex {v}")
            if mask >> v & 1:
                raise ValueError(f"loop at vertex {v}")
        for u in range(self.vertex_count):
            for v in iter_bits(self.adj[u]):
                if not self.adj[v] >> u & 1:
                    raise ValueError(f"edge {u}-{v} is not symmetric")

    @classmethod
    def from_edges(cls, vertex_count: int, edges) -> "Graph":
        adj = [0] * vertex_count
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise ValueError(f"edge {u}-{v} out of range")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return cls(vertex_count, tuple(adj))

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for u in range(self.vertex_count):
            for v in iter_bits(self.adj[u]):
                if u < v:
                    out.append((u, v))
        return out

    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self.adj) // 2

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def delete_vertex(self, v: int) -> "Graph":
        """Remove vertex v, shifting higher indices down by one."""
        keep = [u for u in range(self.vertex_count) if u != v]
        remap = {u: i for i, u in enumerate(keep)}
        edges = [(remap[a], remap[b]) for a, b in self.edges() if v not in (a, b)]
        return Graph.from_edges(self.vertex_count - 1, edges)


@dataclass(frozen=True)
class VertexMap:
    """A total map between the vertex sets of two graphs."""

    source: Graph
    target: Graph
    mapping: tuple[int, ...]

    def __post_init__(self):
        if len(self.mapping) != self.source.vertex_count:
            raise ValueError("mapping must be total on source vertices")
        for v in self.mapping:
            if not 0 <= v < self.target.vertex_count:
                raise ValueError(f"image vertex {v} out of range")

    def __call__(self, v: int) -> int:
        return self.mapping[v]


def compose_maps(outer: VertexMap, inner: VertexMap) -> VertexMap:
    """outer after inner; requires inner.target == outer.source."""
    if inner.target != outer.source:
        raise ValueError("maps do not compose")
    return VertexMap(inner.source, outer.target,
                     tuple(outer.mapping[v] for v in inner.mapping))


def is_p_morphism(f: VertexMap) -> bool:
    """True iff f maps each neighbourhood onto the image vertex's neighbourhood.

    Equality of the two sets gives both the homomorphism property and the
    back (neighbour-surjectivity) property at once.
    """
    for x in range(f.source.vertex_count):
        image = mask_of(f.mapping[y] for y in iter_bits(f.source.adj[x]))
        if image != f.target.adj[f.mapping[x]]:
            return False
    return True


def is_surjective(f: VertexMap) -> bool:
    return len(set(f.mapping)) == f.target.vertex_count


def is_proper_coloring(g: Graph, colors, color_count: int) -> bool:
    if len(colors) != g.vertex_count:
        return False
    if any(not 0 <= c < color_count for c in colors):
        return False
    return all(colors[u] != colors[v] for u, v in g.edges())


def greedy_clique(g: Graph) -> list[int]:
    """Greedy clique used as a lower bound and for symmetry breaking."""
    candidates = (1 << g.vertex_count) - 1
    clique = []
    while candidates:
        v = max(iter_bits(candidates), key=lambda u: (g.adj[u] & candidates).bit_count())
        clique.append(v)
        candidates &= g.adj[v]
    return clique


def dsatur_greedy(g: Graph) -> tuple[int, ...]:
    """Greedy DSATUR coloring; proper, used as an upper bound."""
    nv = g.vertex_count
    colors = [-1] * nv
    sat = [0] * nv
    for _ in range(nv):
        v = max((u for u in range(nv) if colors[u] < 0),
                key=lambda u: (sat[u].bit_count(), g.degree(u), -u))
        c = 0
        while sat[v] >> c & 1:
            c += 1
        colors[v] = c
        for u in iter_bits(g.adj[v]):
            if colors[u] < 0:
                sat[u] |= 1 << c
    return tuple(colors)


def _try_color(g: Graph, k: int, clique) -> tuple[int, ...] | None:
    """Find a proper k-coloring by DSATUR-ordered backtracking, or None."""
    nv = g.vertex_count
    if nv == 0:
        return ()
    if len(clique) > k or k <= 0:
        return None
    kmask = (1 << k) - 1
    colors = [-1] * nv
    sat = [0] * nv

    def place(v, c):
        changed = []
        colors[v] = c
        for u in iter_bits(g.adj[v]):
            if colors[u] < 0 and not sat[u] >> c & 1:
                sat[u] |= 1 << c
                changed.append(u)
        return changed

    def unplace(v, c, changed):
        colors[v] = -1
        for u in changed:
            sat[u] ^= 1 << c

    for idx, v in enumerate(clique):
        place(v, idx)
    max_color = len(clique) - 1

    def solve():
        nonlocal max_color
        best = -1
        best_key = (-1, -1)
        for u in range(nv):
            if colors[u] < 0:
                key = (sat[u].bit_count(), g.degree(u))
                if key > best_key:
                    best_key = key
                    best = u
        if best < 0:
            return True
        # colors above max_color+1 are interchangeable with max_color+1
        avail = ~sat[best] & kmask & ((1 << min(k, max_color + 2)) - 1)
        for c in iter_bits(avail):
            changed = place(best, c)
            saved = max_color
            max_color = max(max_color, c)
            if solve():
                return True
            max_color = saved
            unplace(best, c, changed)
        return False

    if solve():
        return tuple(colors)
    return None


def chromatic_number(g: Graph) -> tuple[int, tuple[int, ...]]:
    """Exact chromatic number with a witness coloring using exactly that many colors."""
    if g.vertex_count == 0:
        return 0, ()
    clique = greedy_clique(g)
    greedy = dsatur_greedy(g)
    ub = max(greedy) + 1
    for k in range(len(clique), ub):
        witness = _try_color(g, k, clique)
        if witness is not None:
            return k, witness
    return ub, greedy


def brute_force_chromatic(g: Graph) -> tuple[int, tuple[int, ...]]:
    """Oracle: try every assignment with k colors, k ascending. Tiny graphs only."""
    nv = g.vertex_count
    if nv == 0:
        return 0, ()
    edges = g.edges()
    for k in range(1, nv + 1):
        for assignment in itertools.product(range(k), repeat=nv):
            if all(assignment[u] != assignment[v] for u, v in edges):
                return k, assignment
    raise AssertionError("unreachable: nv colors always suffice")


def girth(g: Graph) -> int | None:
    """Length of a shortest cycle; None for acyclic graphs."""
    length, _ = girth_with_cycle(g)
    return length


def girth_with_cycle(g: Graph) -> tuple[int | None, list[int]]:
    """Shortest cycle length plus the vertices of one short closed walk.

    BFS from every vertex; a non-tree edge closes a walk through the root
    whose length is never below the girth, and equals it for roots on a
    shortest cycle.
    """
    nv = g.vertex_count
    best = None
    witness: list[int] = []
    for s in range(nv):
        dist = [-1] * nv
        parent = [-1] * nv
        dist[s] = 0
        queue = [s]
        for u in queue:
            for w in iter_bits(g.adj[u]):
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    queue.append(w)
                elif parent[u] != w and parent[w] != u:
                    cand = dist[u] + dist[w] + 1
                    if best is None or cand < best:
                        best = cand
                        path_u = _walk_to_root(u, parent)
                        path_w = _walk_to_root(w, parent)
                        witness = list(dict.fromkeys(path_u + path_w))
    return best, witness


def _walk_to_root(v: int, parent) -> list[int]:
    out = [v]
    while parent[out[-1]] >= 0:
        out.append(parent[out[-1]])
    return out


def inflate(g: Graph, n: int) -> Graph:
    """Join of n disjoint copies of g: all edges between distinct copies.

    Vertex (x, i) gets index i*|g| + x; this layout is part of the external
    contract and keeps atom enumeration reproducible.
    """
    if n < 1:
        raise ValueError("need at least one copy")
    nv = g.vertex_count
    total = nv * n
    full = (1 << total) - 1
    copy_masks = [((1 << nv) - 1) << (i * nv) for i in range(n)]
    adj = []
    for i in range(n):
        for x in range(nv):
            mask = (g.adj[x] << (i * nv)) | (full ^ copy_masks[i])
            adj.append(mask)
    return Graph(total, tuple(adj))


def disjoint_union(g: Graph, h: Graph) -> Graph:
    nv = g.vertex_count
    edges = g.edges() + [(u + nv, v + nv) for u, v in h.edges()]
    return Graph.from_edges(nv + h.vertex_count, edges)


def mycielskian(g: Graph) -> Graph:
    """Mycielski construction: 2|g|+1 vertices, chi+1, triangle-freeness kept.

    Shadow of vertex x is |g|+x; the apex is vertex 2|g|.
    """
    m = g.vertex_count
    apex = 2 * m
    edges = list(g.edges())
    for u, v in g.edges():
        edges.append((m + u, v))
        edges.append((u, m + v))
    for u in range(m):
        edges.append((apex, m + u))
    return Graph.from_edges(2 * m + 1, edges)


def cycle_graph(m: int) -> Graph:
    if m < 3:
        raise ValueError("cycles need at least 3 vertices")
    return Graph.from_edges(m, [(i, (i + 1) % m) for i in range(m)])


def complete_graph(m: int) -> Graph:
    return Graph.from_edges(m, [(i, j) for i in range(m) for j in range(i + 1, m)])


def path_graph(m: int) -> Graph:
    return Graph.from_edges(m, [(i, i + 1) for i in range(m - 1)])


def search_high_girth_chromatic(min_girth: int, min_chi: int, budget: int = 64,
                                seed: int = 0) -> Graph | None:
    """Seeded search for a graph with girth >= min_girth and chi >= min_chi.

    Trial stream mixes a structured candidate (odd cycle plus Mycielski
    boosts, which pin the girth at 4) with sparse random graphs pruned by
    deleting one vertex per short cycle.  Every returned graph is
    re-certified by the exact girth and chromatic solvers.  None signals an
    exhausted budget, not nonexistence.
    """
    if min_girth < 3 or min_chi < 2:
        raise ValueError("need min_girth >= 3 and min_chi >= 2")
    rng = random.Random(seed)

    def certified(g: Graph) -> bool:
        if g is None or g.vertex_count == 0 or g.vertex_count > SEARCH_MAX_VERTICES:
            return False
        girth_val = girth(g)
        if girth_val is not None and girth_val < min_girth:
            return False
        chi, _ = chromatic_number(g)
        return chi >= min_chi

    def boost_until(g: Graph) -> Graph:
        # Mycielski steps; each adds one to chi and caps the girth at 4.
        while chromatic_number(g)[0] < min_chi and 2 * g.vertex_count + 1 <= SEARCH_MAX_VERTICES:
            if min_girth > 4:
                break
            g = mycielskian(g)
        return g

    def structured_candidate() -> Graph | None:
        m = max(min_girth, 3 if min_chi <= 3 else 5)
        if m % 2 == 0:
            m += 1
        g = cycle_graph(m)
        if min_chi > 3:
            if min_girth > 4:
                return None
            g = boost_until(g)
        return g

    def random_candidate() -> Graph | None:
        nv = rng.randrange(12, 26)
        p = 2.4 / nv
        edges = [(i, j) for i in range(nv) for j in range(i + 1, nv) if rng.random() < p]
        g = Graph.from_edges(nv, edges)
        while g.vertex_count > 3:
            length, walk = girth_with_cycle(g)
            if length is None or length >= min_girth:
                break
            g = g.delete_vertex(rng.choice(walk))
        if g.edge_count() == 0:
            return None
        return boost_until(g)

    for trial in range(budget):
        g = structured_candidate() if trial == 0 else random_candidate()
        if g is not None and certified(g):
            return g
    return None


def graph_to_json(g: Graph) -> dict:
    return {"vertices": g.vertex_count, "edges": [list(e) for e in sorted(g.edges())]}


def graph_from_json(data: dict) -> Graph:
    if not isinstance(data, dict) or "vertices" not in data or "edges" not in data:
        raise ValueError("graph JSON needs 'vertices' and 'edges' fields")
    vertices, edges = data["vertices"], data["edges"]
    if type(vertices) is not int or vertices < 0:  # a bool is no vertex count
        raise ValueError(f"vertex count {vertices!r} is no non-negative integer")
    try:
        pairs = [(u, v) for u, v in edges if type(u) is int and type(v) is int]
    except (TypeError, ValueError):  # not a list, or an edge of other length
        pairs = None
    if pairs is None or len(pairs) != len(edges):
        raise ValueError("graph JSON 'edges' must be a list of integer vertex pairs")
    return Graph.from_edges(vertices, pairs)


def graph_to_dot(g: Graph) -> str:
    lines = ["graph g {"]
    for v in range(g.vertex_count):
        lines.append(f"  {v};")
    for u, v in sorted(g.edges()):
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines)
