"""Green's equivalences R, L, D and H on a finite semigroup.

a R b iff aS^1 = bS^1, a L b iff S^1 a = S^1 b, H = R meet L, and D is
the composition R;L, which in the finite case is already the join of R
and L (and equals L;R).
"""

from __future__ import annotations

from typing import NamedTuple

from .semigroups import FiniteSemigroup, derived

Partition = tuple[frozenset[int], ...]


class GreenStructure(NamedTuple):
    r_classes: Partition
    l_classes: Partition
    d_classes: Partition
    h_classes: Partition


def _group_by(keys: list) -> Partition:
    classes: dict = {}
    for a, key in enumerate(keys):
        classes.setdefault(key, []).append(a)
    parts = sorted(classes.values(), key=min)
    return tuple(frozenset(part) for part in parts)


def _strong_components(successors: list) -> list[int]:
    """The strongly connected component of every vertex of the graph
    a -> successors[a], as an index, by Tarjan's algorithm.  It keeps its
    own stack of half-scanned vertices: on the 256-element monoid t4 a
    recursive search would pass the interpreter's recursion limit."""
    n = len(successors)
    index = [-1] * n
    low = [0] * n
    component = [-1] * n
    stack: list[int] = []
    visited = components = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = visited
        visited += 1
        stack.append(root)
        path = [(root, iter(successors[root]))]
        while path:
            v, pending = path[-1]
            for w in pending:
                if index[w] < 0:
                    index[w] = low[w] = visited
                    visited += 1
                    stack.append(w)
                    path.append((w, iter(successors[w])))
                    break
                if component[w] < 0:  # w is on the stack
                    low[v] = min(low[v], index[w])
            else:
                path.pop()
                if path:
                    u = path[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == index[v]:
                    while True:
                        w = stack.pop()
                        component[w] = components
                        if w == v:
                            break
                    components += 1
    return component


@derived
def green_structure(s: FiniteSemigroup) -> GreenStructure:
    """Compute all four partitions.  They are kept on the semigroup
    (``semigroups.derived``) and computed once per instance: the structure
    is reused heavily when many norms are checked against one table.

    Over a generating set G (``s.generators``), b lies in aS^1 iff b is
    reached from a along the right Cayley graph a -> a*g, g in G, since
    every element of S is a product of elements of G.  So the R-classes
    are the strongly connected components of that graph, and the
    L-classes those of the left graph a -> g*a (Froidure & Pin 1997,
    "Algorithms for computing finite semigroups").  H is the pair of an
    element's R- and L-class.  D is the join of R and L: a union-find
    over R-classes merges the R-classes of each L-class.  The cost is
    |G| * n edges for each graph, against n^2 for the principal ideals.
    """
    t = s.table
    gens = s.generators
    left_rows = [t[g] for g in gens]
    r_class = _strong_components([[row[g] for g in gens] for row in t])
    l_class = _strong_components([[row[a] for row in left_rows] for a in s.elements()])

    parent = list(range(s.order))

    def find(x):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    first_r_class: dict[int, int] = {}
    for rc, lc in zip(r_class, l_class):
        parent[find(rc)] = find(first_r_class.setdefault(lc, rc))
    d_class = [find(rc) for rc in r_class]
    return GreenStructure(
        _group_by(r_class),
        _group_by(l_class),
        _group_by(d_class),
        _group_by(list(zip(r_class, l_class))),
    )
