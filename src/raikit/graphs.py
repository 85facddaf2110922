"""Signed weighted directed graphs and the structural predicates built on them.

Arc convention
--------------
``weights[i][j]`` is the weight that node ``j`` exerts **on** node ``i``;
a nonzero entry ``weights[i][j]`` is the arc ``j -> i``.  This is the
row-reads-influences convention used throughout the package: row ``i``
lists who influences ``i``.  It is the single most error-prone convention
in this domain, so every function below states flows in terms of explicit
(i, j) index pairs rather than "source/target" prose.

Weight exactly ``0.0`` means "no arc"; the graph layer applies no epsilon
thresholding (that belongs to the sequence analyzers).
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, fields, is_dataclass
from typing import Container, Iterable, Iterator

import numpy as np

from .tolerances import CUT_ENUMERATION_LIMIT

__all__ = [
    "WeightedDigraph",
    "Cut",
    "SccDecomposition",
    "CutBalanceCertificate",
    "strong_components",
    "is_aperiodic",
    "cut_flow",
    "cut_balance_certificate",
    "graph_to_json",
    "graph_from_json",
    "graph_to_edgelist",
    "graph_from_edgelist",
    "all_cuts",
]


def json_form(value):
    """The JSON form of a result, walked field by field.

    A dataclass becomes ``{field: json_form(value)}``, a ``Cut``
    ``[sorted(left), sorted(right)]``, an ndarray its ``tolist()``, a tuple
    or list a list, a set or frozenset a sorted list; anything else is
    returned as it is."""
    if isinstance(value, (float, int, str, type(None))):
        return value  # first, because histories hold thousands of floats
    if isinstance(value, Cut):
        return [sorted(value.left), sorted(value.right)]
    if is_dataclass(value):
        return {f.name: json_form(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (tuple, list)):
        return [json_form(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return [json_form(v) for v in sorted(value)]
    return value


def dump_json(obj) -> str:
    """The one JSON dump of verdicts and JSON artifacts: sorted keys,
    two-space indent, trailing newline, so equal objects give identical
    bytes."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _check_count(name: str, v) -> None:
    """Reject anything but an integer >= 0; a bool is not an integer here.
    The package's one test of a count: a length, a period, a delay bound."""
    if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or v < 0:
        raise ValueError(f"{name} must be an integer >= 0, got {v!r}")


def _equal(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    if isinstance(a, (tuple, list)):
        return type(a) is type(b) and len(a) == len(b) and all(map(_equal, a, b))
    return bool(a == b)


def fields_equal(self, other) -> bool:
    """Value ``__eq__`` for dataclasses holding arrays: same type, then
    field by field, ``np.array_equal`` on arrays, tuples and lists item by
    item, and ``==`` on the rest."""
    if type(other) is not type(self):
        return NotImplemented
    return all(_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))


class ArrayFields:
    """Base of the array-holding dataclasses (eq=False): fields_equal, unhashable."""

    __eq__ = fields_equal
    __hash__ = None  # type: ignore[assignment]


class Report:
    """Base of the result dataclasses: the JSON form is ``json_form`` of the
    fields, dumped by ``dump_json``."""

    def to_json_obj(self) -> dict:
        return json_form(self)

    def to_json(self) -> str:
        return dump_json(self.to_json_obj())


@dataclass(frozen=True, eq=False)
class WeightedDigraph(ArrayFields):
    """Immutable weighted digraph on nodes ``0..n-1``.

    ``weights[i][j]`` is the weight of arc ``j -> i`` (influence of j on i).
    Self-loops are permitted and weights may be negative; operations that
    require nonnegativity validate it themselves.  Equal when the weights
    are identical; unhashable.
    """

    n: int
    weights: np.ndarray

    def __post_init__(self) -> None:
        _check_count("n", self.n)
        if self.n < 1:
            raise ValueError("node count must be at least 1")
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (self.n, self.n):
            raise ValueError(f"weights must be {self.n}x{self.n}, got {w.shape}")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @classmethod
    def from_weights(cls, rows: Iterable[Iterable[float]]) -> "WeightedDigraph":
        w = np.asarray(list(rows), dtype=float)
        return cls(n=w.shape[0], weights=w)

    def arc_set(self) -> set[tuple[int, int]]:
        """All arcs as (j, i) pairs, j -> i."""
        ii, jj = np.nonzero(self.weights)
        return {(int(j), int(i)) for i, j in zip(ii, jj)}

    def out_neighbors(self, j: int) -> np.ndarray:
        """Nodes i with an arc j -> i, i.e. nonzeros of column j."""
        return np.nonzero(self.weights[:, j])[0]

    def has_negative_weights(self) -> bool:
        return bool(np.any(self.weights < 0))

    def require_nonnegative(self) -> None:
        if self.has_negative_weights():
            raise ValueError("operation requires nonnegative weights")


@dataclass(frozen=True)
class Cut:
    """A bipartition of ``0..n-1`` into nonempty ``left`` (I) and ``right`` (J)."""

    left: frozenset[int]
    right: frozenset[int]

    def __post_init__(self) -> None:
        if not self.left or not self.right:
            raise ValueError("both sides of a cut must be nonempty")
        if self.left & self.right:
            raise ValueError("cut sides must be disjoint")
        object.__setattr__(self, "left", frozenset(int(v) for v in self.left))
        object.__setattr__(self, "right", frozenset(int(v) for v in self.right))

    @classmethod
    def of(cls, left: Iterable[int], n: int) -> "Cut":
        li = frozenset(int(v) for v in left)
        if any(v < 0 or v >= n for v in li):
            raise ValueError("cut members out of range")
        return cls(left=li, right=frozenset(range(n)) - li)

    def validate_for(self, n: int) -> None:
        if self.left | self.right != frozenset(range(n)):
            raise ValueError(f"cut does not partition 0..{n - 1}")


# Rows per membership block of ``cut_blocks``: every block but the last has
# this many, so the arrays built per block stay O(CUT_BLOCK_ROWS * n).
CUT_BLOCK_ROWS = 1024


def cut_blocks(n: int) -> Iterator[tuple[int, np.ndarray]]:
    """All 2^n - 2 ordered cuts (I, I^c) of ``0..n-1`` as membership blocks.

    Yields ``(first_mask, X)`` with ``X`` a boolean array of shape (b, n):
    ``X[r, v]`` is True iff node ``v`` is in I for the cut whose bit mask is
    ``first_mask + r``.  Masks run from 1 to 2^n - 2 in increasing order,
    the order of ``all_cuts``.  Raises ValueError at call time when n
    exceeds ``CUT_ENUMERATION_LIMIT``.
    """
    if n > CUT_ENUMERATION_LIMIT:
        raise ValueError(
            f"cut enumeration limited to n <= {CUT_ENUMERATION_LIMIT}, got n = {n}"
        )
    end = (1 << n) - 1
    bits = 1 << np.arange(n)
    return (
        (lo, (np.arange(lo, min(lo + CUT_BLOCK_ROWS, end))[:, None] & bits) != 0)
        for lo in range(1, end, CUT_BLOCK_ROWS)
    )


def block_flows(X: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``sum over i in I, j in J of w[i][j]`` for every cut row of the
    membership block ``X`` (J the complement of I): the flow along arcs
    J -> I.  The flow along arcs I -> J is ``block_flows(X, w.T)``.

    Computed by einsum without path optimization, so no BLAS kernel is
    involved and the result does not depend on the BLAS build or CPU.
    """
    inside = X.astype(w.dtype)
    return np.einsum("ci,ij,cj->c", inside, w, 1 - inside)


def all_cuts(n: int) -> Iterator[Cut]:
    """All 2^n - 2 ordered cuts (I, I^c) of ``0..n-1``, one ``Cut`` each,
    in the mask order of ``cut_blocks``."""
    nodes = frozenset(range(n))
    for _, X in cut_blocks(n):
        for row in X:
            left = frozenset(np.flatnonzero(row).tolist())
            yield Cut(left=left, right=nodes - left)


@dataclass(frozen=True, eq=False)
class SccDecomposition(ArrayFields):
    """Strongly connected components with condensation and per-component roles.

    ``classification[c]`` is one of ``source`` (condensation in-degree 0 only),
    ``sink`` (out-degree 0 only), ``isolated`` (both), ``internal`` (neither).
    ``is_quasi_strong`` means exactly one component has condensation
    in-degree 0, counting isolated components as sources.
    """

    components: tuple[frozenset[int], ...]
    condensation: WeightedDigraph
    classification: tuple[str, ...]
    is_strong: bool
    is_quasi_strong: bool

    def source_components(self) -> list[int]:
        """Indices of components with condensation in-degree 0."""
        return [c for c, role in enumerate(self.classification) if role in ("source", "isolated")]

    def all_isolated(self) -> bool:
        return all(cl == "isolated" for cl in self.classification)


# A component's role by (condensation in-degree 0, out-degree 0).
_ROLES = {
    (True, True): "isolated",
    (True, False): "source",
    (False, True): "sink",
    (False, False): "internal",
}


def strong_components(g: WeightedDigraph) -> SccDecomposition:
    """Tarjan's algorithm on the arc set of ``g`` plus role classification.

    Components are numbered in the (deterministic) order Tarjan emits them;
    the condensation carries 0/1 weights and is acyclic with no self-arcs.
    """
    n = g.n
    tails, heads = np.nonzero(g.weights.T)  # arcs j -> i by increasing j, then i
    succ: list[list[int]] = [[] for _ in range(n)]
    for j, i in zip(tails.tolist(), heads.tolist()):
        succ[j].append(i)
    index = [-1] * n
    lowlink = [0] * n
    comp_of = [-1] * n  # still -1 for a visited node: it is on the stack
    stack: list[int] = []
    components: list[frozenset[int]] = []
    frames: list[tuple[int, Iterator[int]]] = []  # open nodes, each with its unread arcs
    counter = 0

    def visit(v: int) -> None:
        nonlocal counter
        index[v] = lowlink[v] = counter
        counter += 1
        stack.append(v)
        frames.append((v, iter(succ[v])))

    # Iterative Tarjan; explicit frames avoid recursion limits.
    for root in range(n):
        if index[root] == -1:
            visit(root)
        while frames:
            v, arcs = frames[-1]
            for w in arcs:
                if index[w] == -1:
                    visit(w)
                    break
                if comp_of[w] == -1:
                    lowlink[v] = min(lowlink[v], index[w])
            else:
                frames.pop()
                if lowlink[v] == index[v]:
                    # the stack is in visit order; v and all above it form v's component
                    top = bisect_left(stack, index[v], key=index.__getitem__)
                    members, stack[top:] = stack[top:], []
                    for w in members:
                        comp_of[w] = len(components)
                    components.append(frozenset(members))
                if frames:
                    parent = frames[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[v])

    m = len(components)
    cond = np.zeros((m, m))
    comp = np.array(comp_of)
    cond[comp[heads], comp[tails]] = 1.0  # component comp[tail] influences component comp[head]
    np.fill_diagonal(cond, 0.0)

    sources = ~cond.any(axis=1)  # condensation in-degree 0
    sinks = ~cond.any(axis=0)  # out-degree 0
    return SccDecomposition(
        components=tuple(components),
        condensation=WeightedDigraph(n=m, weights=cond),
        classification=tuple(_ROLES[s, t] for s, t in zip(sources.tolist(), sinks.tolist())),
        is_strong=(m == 1),
        is_quasi_strong=(int(sources.sum()) == 1),
    )


def is_aperiodic(g: WeightedDigraph, component: Iterable[int]) -> bool:
    """True iff the gcd of cycle lengths inside ``component`` is 1.

    ``component`` must induce a strongly connected subgraph of ``g``.
    Computed from BFS levels: the period is gcd over internal arcs u -> v of
    ``level(u) + 1 - level(v)``.  A single node without a self-loop has no
    cycles; its period is undefined and the function returns False.
    """
    comp = sorted(int(v) for v in set(component))
    if not comp:
        raise ValueError("component must be nonempty")
    comp_set = set(comp)
    for v in comp:
        if v < 0 or v >= g.n:
            raise ValueError("component node out of range")

    # Strongly connected iff comp[0] reaches every node and every node
    # reaches comp[0], both inside the component.
    level = reachable(g, [comp[0]], comp_set)
    back = reachable(g, [comp[0]], comp_set, reverse=True)
    if level.keys() != comp_set or back.keys() != comp_set:
        raise ValueError("component is not strongly connected")

    depth = np.array([level[v] for v in comp])
    heads, tails = np.nonzero(g.weights[np.ix_(comp, comp)])  # arcs tail -> head
    return bool(np.gcd.reduce(np.abs(depth[tails] + 1 - depth[heads])) == 1)


def reachable(
    g: WeightedDigraph,
    start: Iterable[int],
    allowed: Container[int] | None = None,
    reverse: bool = False,
) -> dict[int, int]:
    """Breadth-first search from the ``start`` nodes.

    Walks follow arcs u -> v (nonzeros of column u), or with ``reverse``
    run against them (nonzeros of row u: the nodes that influence u).
    Only nodes in ``allowed`` are stepped onto when it is given; start
    nodes always count as reached.  Returns each reached node's BFS level,
    the length of a shortest walk to it from the start set (0 for the
    start nodes themselves).
    """
    level = {int(v): 0 for v in start}
    queue = deque(level)
    while queue:
        u = queue.popleft()
        arcs = g.weights[u, :] if reverse else g.weights[:, u]
        for v in np.flatnonzero(arcs).tolist():
            if v not in level and (allowed is None or v in allowed):
                level[v] = level[u] + 1
                queue.append(v)
    return level


def _max_closure(weight: np.ndarray, forced: np.ndarray) -> tuple[int, frozenset[int]]:
    """The largest total of the integer node ``weight`` over node sets
    closed under ``forced`` (``forced[i][j]`` and j in the set put i in it),
    and the smallest set of that total.  One minimum s-t cut (Picard 1976):
    s -> v of capacity w(v) > 0, v -> t of capacity -w(v) > 0, forcing arcs
    above sum |w| so that no finite cut severs them, and integer flow pushed
    along shortest residual paths; s then still reaches exactly that set."""
    n = len(weight)
    s, t = n, n + 1
    cap = np.zeros((n + 2, n + 2), dtype=np.int64)  # cap[u, v]: residual u -> v
    cap[:n, :n] = forced.T * (int(np.abs(weight).sum()) + 1)
    cap[s, :n], cap[:n, t] = np.maximum(weight, 0), np.maximum(-weight, 0)
    while True:
        level = reachable(WeightedDigraph(n=n + 2, weights=cap.T), [s])
        if t not in level:
            closure = sorted(set(level) - {s})
            return int(weight[closure].sum()), frozenset(closure)
        path = [t]  # walked back from t one BFS level at a time
        while path[-1] != s:
            v = path[-1]
            path.append(next(u for u, d in level.items() if d == level[v] - 1 and cap[u, v] > 0))
        u, v = path[1:], path[:-1]  # the path's arcs u -> v, each once
        push = cap[u, v].min()
        cap[u, v] -= push
        cap[v, u] += push


def cut_flow(g: WeightedDigraph, cut: Cut) -> tuple[float, float]:
    """Windowless cross-flows of a nonnegative graph across ``cut``.

    Returns ``(flow_IJ, flow_JI)`` where, with I = cut.left and J = cut.right,
    ``flow_IJ = sum over i in I, j in J of weights[i][j]`` (arcs J -> I) and
    ``flow_JI = sum over i in I, j in J of weights[j][i]`` (arcs I -> J).
    """
    g.require_nonnegative()
    cut.validate_for(g.n)
    ii = sorted(cut.left)
    jj = sorted(cut.right)
    flow_ij = float(g.weights[np.ix_(ii, jj)].sum())
    flow_ji = float(g.weights[np.ix_(jj, ii)].sum())
    return flow_ij, flow_ji


@dataclass(frozen=True)
class CutBalanceCertificate(Report):
    balanced: bool
    constant_C: float | None
    witness_cut: Cut | None


def cut_balance_certificate(g: WeightedDigraph) -> CutBalanceCertificate:
    """Decide cut-balance and produce either the constant C or a witness cut.

    Balance is decided structurally: the graph is cut-balanced iff every
    strongly connected component is isolated (simultaneously a source and a
    sink of the condensation).  When balanced and n is small enough for
    exhaustive enumeration, ``constant_C`` is the exact maximum of
    flow_IJ / flow_JI over all cuts where the ratio is well defined (at
    least 1, since complementary cuts give reciprocal ratios; 1 when no arc
    crosses any cut), computed from ``cut_blocks`` over the 2^(n-1) - 1
    cuts that keep node n-1 on the right, each with its complement:
    O(2^n n^2) arithmetic in blocks of at most ``CUT_BLOCK_ROWS`` cuts.
    Symmetric weights skip the enumeration: their C is exactly 1.0.  Above
    ``CUT_ENUMERATION_LIMIT`` it is reported as None.  When unbalanced,
    ``witness_cut`` is the downstream closure of a component that receives
    flow: one cross-flow positive and the opposite one zero.  The verdict
    and witness cost O(n^2) and enumerate no cut.
    """
    witness = _unbalanced_cut(g)
    if witness is None:
        return CutBalanceCertificate(
            balanced=True, constant_C=_cut_constant(g.weights), witness_cut=None
        )
    return CutBalanceCertificate(balanced=False, constant_C=None, witness_cut=witness)


def _unbalanced_cut(g: WeightedDigraph) -> Cut | None:
    """None when every strongly connected component of ``g`` is isolated,
    else a cut that receives flow and returns none."""
    g.require_nonnegative()
    dec = strong_components(g)
    if dec.all_isolated():
        return None
    # Take a condensation arc c -> c' and cut along the downstream closure
    # of c', which receives flow but returns none.
    cond = dec.condensation
    ci, cj = next(zip(*np.nonzero(cond.weights)))  # arc cj -> ci in condensation
    closure = reachable(cond, [int(ci)])
    left_nodes = frozenset().union(*(dec.components[c] for c in closure))
    return Cut(left=left_nodes, right=frozenset(range(g.n)) - left_nodes)


def _cut_constant(w: np.ndarray) -> float | None:
    """Largest flow ratio over all cuts of the cut-balanced weights ``w``,
    1.0 when no arc crosses any cut, None above the enumeration limit; a
    ratio past the largest double raises ValueError."""
    n = len(w)
    if n > CUT_ENUMERATION_LIMIT:
        return None
    # Symmetric w gives every cut equal flows both ways; the einsums below
    # would also give exactly 1.0, with identical operands.
    if (w == w.T).all():
        return 1.0
    with np.errstate(over="ignore"):
        overflows = not np.isfinite(w.sum())
    if overflows:
        # No ratio depends on the scale, and 2^k > n^2 bounds every flow
        # below the largest double.
        w = np.ldexp(w, -(n * n).bit_length())
    wt = np.ascontiguousarray(w.T)
    # Masks from `half` on are the complements of the masks below it, whose
    # ratios are the reciprocals: half the cuts suffice.
    constant, half = 1.0, 1 << (n - 1)
    for first, X in cut_blocks(n):
        if first >= half:
            break
        X = X[: half - first]
        f_ij = block_flows(X, w)
        f_ji = block_flows(X, wt)
        both = f_ji > 0  # and so f_ij > 0: the graph is balanced
        if both.any():
            f_ij, f_ji = f_ij[both], f_ji[both]
            with np.errstate(over="ignore", divide="ignore"):
                constant = max(constant, float((f_ij / f_ji).max()), float((f_ji / f_ij).max()))
    if not math.isfinite(constant):
        raise ValueError("cut constant is not finite: a flow ratio exceeds the largest double")
    return constant


# Graph I/O.  The JSON object form {"n": ..., "weights": [[...]]} round-trips
# any graph exactly; numbers are serialized with repr, the shortest decimal
# that parses back to the identical double.


def graph_to_json(g: WeightedDigraph) -> str:
    return json.dumps(json_form(g), sort_keys=True)


def graph_from_json(text: str) -> WeightedDigraph:
    obj = json.loads(text)
    if not isinstance(obj, dict) or "n" not in obj or "weights" not in obj:
        raise ValueError('graph JSON must be an object {"n": ..., "weights": [[...]]}')
    return WeightedDigraph(n=obj["n"], weights=np.asarray(obj["weights"], dtype=float))


def graph_to_edgelist(g: WeightedDigraph) -> str:
    """One line "j i w" per arc j -> i; w in round-trip decimal."""
    lines = []
    for i in range(g.n):
        for j in range(g.n):
            w = g.weights[i][j]
            if w != 0:
                lines.append(f"{j} {i} {float(w)!r}")
    return "\n".join(lines) + ("\n" if lines else "")


def graph_from_edgelist(text: str, n: int | None = None) -> WeightedDigraph:
    """Parse "j i w" lines.  Without an explicit ``n``, trailing isolated
    nodes are unrepresentable and n is inferred as 1 + the largest index."""
    arcs: list[tuple[int, int, float]] = []
    max_node = -1
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"line {ln}: expected 'j i w', got {raw!r}")
        j, i, w = int(parts[0]), int(parts[1]), float(parts[2])
        arcs.append((j, i, w))
        max_node = max(max_node, i, j)
    size = n if n is not None else max_node + 1
    _check_count("n", size)
    if size < 1:
        raise ValueError("empty edge list and no node count given")
    weights = np.zeros((size, size))
    for j, i, w in arcs:
        if i >= size or j >= size:
            raise ValueError(f"arc ({j}, {i}) out of range for n = {size}")
        weights[i][j] = w
    return WeightedDigraph(n=size, weights=weights)
