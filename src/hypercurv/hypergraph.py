"""Hypergraph representation, validation, metric structure and generators.

A hypergraph is a finite vertex set plus a family of vertex subsets
(hyperedges).  All vertices inside one hyperedge are mutually adjacent, a
path hops from hyperedge to hyperedge, and the graph distance counts the
hyperedges along a shortest path.  Instances are immutable after
construction and safe to share between concurrent solvers.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from importlib import resources

from .errors import (
    BadParams,
    DuplicateHyperedge,
    EmptyInput,
    LoopFound,
    NotConnected,
    NotSimple,
    UnknownVertex,
)


@dataclass(frozen=True)
class ValidationReport:
    connected: bool
    simple: bool
    violations: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations


class Hypergraph:
    """Immutable hypergraph with an incidence index and cached metric.

    Vertices are opaque string labels; dense integer ids are assigned in
    input order so every derived quantity is deterministic.
    """

    def __init__(self, vertices, hyperedges, strict=True, source_lines=None):
        self.vertices: tuple[str, ...] = tuple(vertices)
        self._index: dict[str, int] = {v: i for i, v in enumerate(self.vertices)}
        if len(self._index) != len(self.vertices):
            raise DuplicateHyperedge("duplicate vertex labels in vertex list")
        edges = []
        for e in hyperedges:
            ids = sorted(self._require(v) for v in e)
            if len(set(ids)) != len(ids):
                raise DuplicateHyperedge(f"repeated vertex inside hyperedge {sorted(e)}")
            edges.append(tuple(ids))
        self.edges: tuple[tuple[int, ...], ...] = tuple(edges)
        self.incidence: tuple[tuple[int, ...], ...] = self._build_incidence()
        self._neighbors: list[tuple[int, ...]] | None = None
        self._dist: list[list[int]] | None = None
        self._cut_groups: tuple[tuple[tuple[int, ...], ...], ...] | None = None
        self._report, self._findings = self._validate(source_lines or {})
        if strict:
            self.require_valid()

    # -- construction helpers ------------------------------------------------

    def _require(self, label) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise UnknownVertex(f"unknown vertex {label!r}") from None

    def _build_incidence(self):
        inc = [[] for _ in self.vertices]
        for k, e in enumerate(self.edges):
            for i in e:
                inc[i].append(k)
        return tuple(tuple(lst) for lst in inc)

    def _validate(self, source_lines):
        """The report, and each of its violations with the error class that
        require_valid raises for it."""
        findings = []
        loc = lambda k: source_lines.get(k, f"hyperedge #{k}")
        if not self.vertices or not self.edges:
            findings.append((EmptyInput, "empty vertex or hyperedge set"))
        seen = {}
        for k, e in enumerate(self.edges):
            if len(e) < 2:
                findings.append((LoopFound, f"loop (single-vertex hyperedge) at {loc(k)}"))
            if e in seen:
                findings.append((DuplicateHyperedge,
                                 f"duplicate hyperedge at {loc(k)} (same as {loc(seen[e])})"))
            seen[e] = k
        simple = True
        sets = [frozenset(e) for e in self.edges]
        for a in range(len(sets)):
            for b in range(len(sets)):
                if a != b and sets[a] < sets[b]:
                    simple = False
                    findings.append((NotSimple, f"hyperedge at {loc(a)} contained in {loc(b)}"))
        connected = self._connected()
        if not connected:
            findings.append((NotConnected, "hypergraph is not connected"))
        report = ValidationReport(connected=connected, simple=simple,
                                  violations=tuple(m for _, m in findings))
        return report, tuple(findings)

    def _connected(self) -> bool:
        if not self.vertices:
            return False
        seen = {0}
        queue = deque([0])
        while queue:
            v = queue.popleft()
            for k in self.incidence[v]:
                for w in self.edges[k]:
                    if w not in seen:
                        seen.add(w)
                        queue.append(w)
        return len(seen) == len(self.vertices)

    # -- public surface --------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.vertices)

    def validation_report(self) -> ValidationReport:
        return self._report

    def require_valid(self):
        if self._findings:
            error, message = self._findings[0]
            raise error(message)
        return self

    def vertex_id(self, label: str) -> int:
        return self._require(label)

    def label(self, vid: int) -> str:
        return self.vertices[vid]

    def neighbors(self, vid: int) -> tuple[int, ...]:
        if self._neighbors is None:
            nbrs = []
            for v in range(self.n):
                s = set()
                for k in self.incidence[v]:
                    s.update(self.edges[k])
                s.discard(v)
                nbrs.append(tuple(sorted(s)))
            self._neighbors = nbrs
        return self._neighbors[vid]

    def degree_id(self, vid: int) -> int:
        return len(self.neighbors(vid))

    def distance_matrix(self) -> list[list[int]]:
        """All-pairs graph distance (hyperedge hops), cached."""
        if self._dist is None:
            if not self._report.connected:
                raise NotConnected("distances undefined on a disconnected hypergraph")
            mat = []
            for src in range(self.n):
                dist = [-1] * self.n
                dist[src] = 0
                queue = deque([src])
                while queue:
                    v = queue.popleft()
                    for w in self.neighbors(v):
                        if dist[w] < 0:
                            dist[w] = dist[v] + 1
                            queue.append(w)
                mat.append(dist)
            self._dist = mat
        return self._dist

    def distance_id(self, a: int, b: int) -> int:
        return self.distance_matrix()[a][b]

    def cut_groups(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """Per hyperedge k, the vertex sets of the connected components of
        the hypergraph with k removed, all but one largest, cached.

        Components are found by breadth-first search from the lowest
        unvisited id and listed in that order, each sorted; the first
        largest is left out.  Every other hyperedge lies inside one
        component, so only steps on k move mass between them.  A vertex
        in k alone is a component of its own, and where k is no cut the
        groups are exactly those singletons.
        """
        if self._cut_groups is None:
            out = []
            for k in range(len(self.edges)):
                comp_of = [-1] * self.n
                used = [False] * len(self.edges)
                used[k] = True
                comps = []
                for s in range(self.n):
                    if comp_of[s] >= 0:
                        continue
                    comp_of[s] = len(comps)
                    members = [s]
                    for v in members:  # grows while it is read: a BFS
                        for j in self.incidence[v]:
                            if not used[j]:
                                used[j] = True
                                for w in self.edges[j]:
                                    if comp_of[w] < 0:
                                        comp_of[w] = len(comps)
                                        members.append(w)
                    comps.append(members)
                big = max(range(len(comps)), key=lambda c: len(comps[c]))
                out.append(tuple(tuple(sorted(c)) for i, c in enumerate(comps)
                                 if i != big))
            self._cut_groups = tuple(out)
        return self._cut_groups


# -- module-level operations ---------------------------------------------------


def parse_hypergraph(text: str, strict: bool = True) -> Hypergraph:
    """Parse the ``.hg`` format: one hyperedge per line, labels separated
    by whitespace, ``#`` starts a comment, blank lines ignored.

    With ``strict`` (the default) any validation finding raises the matching
    error naming the offending line; ``strict=False`` keeps non-simple or
    disconnected inputs parseable for inspection.  A line that repeats a
    label raises DuplicateHyperedge either way.
    """
    edges = []
    source_lines = {}
    order: dict[str, None] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        labels = line.split()
        edge = set(labels)
        if len(edge) != len(labels):
            twice = next(v for v in labels if labels.count(v) > 1)
            raise DuplicateHyperedge(f"vertex {twice!r} repeated on line {lineno}")
        for v in labels:
            order.setdefault(v, None)
        source_lines[len(edges)] = f"line {lineno}"
        edges.append(edge)
    if not edges:
        raise EmptyInput("no hyperedges found in input")
    return Hypergraph(order.keys(), edges, strict=strict, source_lines=source_lines)


def graph_distance(H: Hypergraph, x: str, y: str) -> int:
    """Shortest number of hyperedges on a path from x to y."""
    return H.distance_id(H.vertex_id(x), H.vertex_id(y))


def degree(H: Hypergraph, x: str) -> int:
    """Number of vertices adjacent to x (union of x's hyperedges, minus x)."""
    return H.degree_id(H.vertex_id(x))


def diameter(H: Hypergraph) -> int:
    mat = H.distance_matrix()
    return max(max(row) for row in mat)


def clique_expansion(H: Hypergraph) -> Hypergraph:
    """Replace each hyperedge by all of its 2-subsets (deduplicated)."""
    pairs = sorted({(e[i], e[j]) for e in H.edges
                    for i in range(len(e)) for j in range(i + 1, len(e))})
    return Hypergraph(H.vertices, [{H.vertices[a], H.vertices[b]} for a, b in pairs])


def generate(family: str, n: int | None = None) -> Hypergraph:
    """Build one of the named families used throughout the worked examples.

    complete(n>=2), cycle(n>=2), path(n>=1 edges), ladder(n>=1 columns of
    rungs, 2*(n+1) vertices), grid9 (the 3x3 grid covered by four 2x2
    hyperedges, with the center labeled ``x`` and the top-left ``y``; rows
    bottom to top are v1 v2 v3, v4 x v6, y v8 v9), read from the packaged
    ``data/grid9.hg``.
    """
    if family == "complete":
        if n is None or n < 2:
            raise BadParams("complete graph needs n >= 2")
        vs = [f"v{i}" for i in range(n)]
        return Hypergraph(vs, [{vs[i], vs[j]} for i in range(n) for j in range(i + 1, n)])
    if family == "cycle":
        if n is None or n < 2:
            raise BadParams("cycle graph needs n >= 2")
        if n == 2:
            return generate("complete", 2)
        vs = [f"v{i}" for i in range(n)]
        return Hypergraph(vs, [{vs[i], vs[(i + 1) % n]} for i in range(n)])
    if family == "path":
        if n is None or n < 1:
            raise BadParams("path graph needs n >= 1 edges")
        vs = [f"v{i}" for i in range(n + 1)]
        return Hypergraph(vs, [{vs[i], vs[i + 1]} for i in range(n)])
    if family == "ladder":
        if n is None or n < 1:
            raise BadParams("ladder graph needs n >= 1")
        bot = [f"b{i}" for i in range(n + 1)]
        top = [f"t{i}" for i in range(n + 1)]
        edges = [{bot[i], bot[i + 1]} for i in range(n)]
        edges += [{top[i], top[i + 1]} for i in range(n)]
        edges += [{bot[i], top[i]} for i in range(n + 1)]
        return Hypergraph(bot + top, edges)
    if family == "grid9":
        if n is not None:
            raise BadParams("grid9 takes no size parameter")
        grid9 = resources.files(__package__) / "data" / "grid9.hg"
        return parse_hypergraph(grid9.read_text(encoding="utf-8"))
    raise BadParams(f"unknown family {family!r}")
