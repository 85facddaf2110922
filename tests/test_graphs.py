"""Structural graph predicates against brute-force oracles."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from raikit import (
    Cut,
    WeightedDigraph,
    all_cuts,
    cut_balance_certificate,
    cut_flow,
    graph_from_edgelist,
    graph_from_json,
    graph_to_edgelist,
    graph_to_json,
    is_aperiodic,
    strong_components,
)
from raikit.graphs import reachable


def _reach_closure(weights):
    """Floyd-Warshall boolean reachability, arcs j->i from weights[i][j]."""
    n = weights.shape[0]
    R = (weights.T != 0)
    R = R | np.eye(n, dtype=bool)
    for m in range(n):
        R = R | (R[:, m:m + 1] & R[m:m + 1, :])
    return R


def _oracle_components(weights):
    R = _reach_closure(weights)
    mutual = R & R.T
    seen, comps = set(), []
    for v in range(weights.shape[0]):
        if v in seen:
            continue
        comp = tuple(sorted(np.flatnonzero(mutual[v])))
        seen.update(comp)
        comps.append(comp)
    return sorted(comps)


def _simple_cycle_lengths(weights, nodes):
    """All simple cycle lengths inside the node set, by DFS enumeration."""
    nodes = set(nodes)
    lengths = set()

    def walk(start, v, path):
        for u in np.flatnonzero(weights[:, v]):
            u = int(u)
            if u == start:
                lengths.add(len(path))
            elif u in nodes and u not in path and u > start:
                walk(start, u, path + [u])
        if weights[start][start]:
            lengths.add(1)

    for s in sorted(nodes):
        walk(s, s, [s])
    return lengths


def _reference_strong_components(g):
    """Recursive Tarjan reading each node's arcs with ``out_neighbors``,
    roots in node order; components in emission order."""
    index, lowlink, comp_of, stack, components = {}, {}, {}, [], []

    def visit(v):
        index[v] = lowlink[v] = len(index)
        stack.append(v)
        for w in g.out_neighbors(v).tolist():
            if w not in index:
                visit(w)
                lowlink[v] = min(lowlink[v], lowlink[w])
            elif w not in comp_of:
                lowlink[v] = min(lowlink[v], index[w])
        if lowlink[v] == index[v]:
            members = stack[stack.index(v):]
            del stack[stack.index(v):]
            for w in members:
                comp_of[w] = len(components)
            components.append(frozenset(members))

    for root in range(g.n):
        if root not in index:
            visit(root)
    cond = np.zeros((len(components), len(components)))
    for i, j in zip(*np.nonzero(g.weights)):
        if comp_of[i] != comp_of[j]:
            cond[comp_of[i], comp_of[j]] = 1.0
    return components, cond


def _assert_matches_per_node_arcs(w):
    g = WeightedDigraph(n=len(w), weights=np.asarray(w, dtype=float))
    dec = strong_components(g)
    components, cond = _reference_strong_components(g)
    assert dec.components == tuple(components)
    assert dec.condensation.weights.tobytes() == cond.tobytes()


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12), st.integers(0, 2**32 - 1))
def test_strong_components_match_per_node_out_neighbors(n, seed):
    rng = np.random.default_rng(seed)
    w = rng.uniform(-1.0, 1.0, (n, n)) * (rng.random((n, n)) < rng.random())
    w[:, rng.random(n) < 0.2] = 0.0  # nodes with no out-arcs
    w[rng.random(n) < 0.2] = 0.0  # and with no in-arcs
    _assert_matches_per_node_arcs(w)


@pytest.mark.parametrize(
    "w",
    [
        [[0.0]],
        [[1.0]],
        [[-0.5]],
        [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
        [[0.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, -1.0]],  # self-loops only
        [[0.0, -1.0, 0.0], [0.0, 0.0, -2.0], [-3.0, 0.0, 0.0]],  # a negative cycle
        [[0.5, 0.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 1.0, 0.0], [0.0, 0.0, 0.0, 0.0]],
    ],
)
def test_strong_components_of_degenerate_graphs_match_per_node_arcs(w):
    _assert_matches_per_node_arcs(w)


def test_chain_of_components_classification():
    # source {4} feeding an internal 2-cycle {0,1} feeding a sink 2-cycle {2,3}
    w = np.zeros((5, 5))
    w[0][4] = 1.0
    w[0][1] = w[1][0] = 1.0
    w[2][1] = 1.0
    w[2][3] = w[3][2] = 1.0
    dec = strong_components(WeightedDigraph(n=5, weights=w))
    comps = {tuple(sorted(c)): cls for c, cls in zip(dec.components, dec.classification)}
    assert comps[(4,)] == "source"
    assert comps[(0, 1)] == "internal"
    assert comps[(2, 3)] == "sink"
    assert dec.is_quasi_strong and not dec.is_strong


def test_empty_graph_all_isolated():
    dec = strong_components(WeightedDigraph(n=3, weights=np.zeros((3, 3))))
    assert len(dec.components) == 3
    assert set(dec.classification) == {"isolated"}
    assert not dec.is_strong
    assert not dec.is_quasi_strong


def test_components_match_reachability_oracle():
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(2, 8))
        w = (rng.random((n, n)) < 0.3) * rng.random((n, n))
        dec = strong_components(WeightedDigraph(n=n, weights=w))
        assert sorted(tuple(sorted(c)) for c in dec.components) == _oracle_components(w)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**20 - 1), st.integers(2, 6))
def test_condensation_is_acyclic_and_partitions(bits, n):
    w = np.array([[(bits >> (i * n + j)) & 1 for j in range(n)] for i in range(n)], dtype=float)
    dec = strong_components(WeightedDigraph(n=n, weights=w))
    nodes = sorted(v for c in dec.components for v in c)
    assert nodes == list(range(n))
    cond = dec.condensation.weights != 0
    assert not cond.diagonal().any()
    # acyclic: boolean closure of the condensation has empty diagonal
    R = cond.T.copy()
    for m in range(len(dec.components)):
        R = R | (R[:, m:m + 1] & R[m:m + 1, :])
    assert not R.diagonal().any()


def _frame_machine_components(g):
    """The earlier Tarjan: (v, pi) frames resumed by successor position,
    with an on-stack flag, a loop over arcs for the condensation and an
    if-chain for the roles.  Kept as the oracle of the iterator-driven DFS."""
    n = g.n
    succ = [g.out_neighbors(v).tolist() for v in range(n)]
    index, lowlink, on_stack = [-1] * n, [0] * n, [False] * n
    stack, comp_of, components, counter = [], [-1] * n, [], 0
    for root in range(n):
        if index[root] != -1:
            continue
        frames = [(root, 0)]
        while frames:
            v, pi = frames.pop()
            if pi == 0:
                index[v] = lowlink[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            while pi < len(succ[v]):
                w = succ[v][pi]
                pi += 1
                if index[w] == -1:
                    frames.append((v, pi))
                    frames.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    lowlink[v] = min(lowlink[v], index[w])
            if advanced:
                continue
            if lowlink[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp_of[w] = len(components)
                    comp.append(w)
                    if w == v:
                        break
                components.append(frozenset(comp))
            if frames:
                parent, _ = frames[-1]
                lowlink[parent] = min(lowlink[parent], lowlink[v])
    m = len(components)
    cond = np.zeros((m, m))
    ii, jj = np.nonzero(g.weights)
    for i, j in zip(ii, jj):
        ci, cj = comp_of[int(i)], comp_of[int(j)]
        if ci != cj:
            cond[ci][cj] = 1.0
    indeg, outdeg = (cond != 0).sum(axis=1), (cond != 0).sum(axis=0)
    classification = []
    for c in range(m):
        src, snk = indeg[c] == 0, outdeg[c] == 0
        if src and snk:
            classification.append("isolated")
        elif src:
            classification.append("source")
        elif snk:
            classification.append("sink")
        else:
            classification.append("internal")
    n_sources = int(sum(1 for c in range(m) if indeg[c] == 0))
    return tuple(components), cond, tuple(classification), m == 1, n_sources == 1


def _assert_same_as_frame_machine(g):
    components, cond, classification, is_strong, is_quasi_strong = _frame_machine_components(g)
    dec = strong_components(g)
    assert dec.components == components  # the same components in the same order
    assert dec.condensation.weights.shape == cond.shape
    assert dec.condensation.weights.tobytes() == cond.tobytes()
    assert dec.classification == classification
    assert dec.is_strong is is_strong
    assert dec.is_quasi_strong is is_quasi_strong


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 8), st.integers(0, 2**64 - 1))
def test_components_match_the_frame_machine_on_bit_patterns(n, bits):
    w = np.array([[(bits >> (i * n + j)) & 1 for j in range(n)] for i in range(n)], dtype=float)
    _assert_same_as_frame_machine(WeightedDigraph(n=n, weights=w))


@pytest.mark.parametrize("seed", range(8))
def test_components_match_the_frame_machine_on_weighted_graphs(seed):
    rng = np.random.default_rng([26, seed])
    for density in (0.0, 0.02, 0.05, 0.1, 0.2, 0.5, 0.9, 1.0):
        n = int(rng.integers(1, 41))
        w = rng.normal(size=(n, n)) * (rng.random((n, n)) < density)
        _assert_same_as_frame_machine(WeightedDigraph(n=n, weights=w))


def test_components_of_a_long_path_need_no_recursion():
    n = 3000  # far deeper than the default recursion limit
    w = np.eye(n, k=-1)  # arcs j -> j + 1
    dec = strong_components(WeightedDigraph(n=n, weights=w))
    assert dec.components == tuple(frozenset([v]) for v in reversed(range(n)))
    assert dec.classification == ("sink",) + ("internal",) * (n - 2) + ("source",)


def test_quasi_strong_iff_spanning_root():
    rng = np.random.default_rng(5)
    for _ in range(40):
        n = int(rng.integers(2, 7))
        w = (rng.random((n, n)) < 0.25) * 1.0
        g = WeightedDigraph(n=n, weights=w)
        R = _reach_closure(w)
        has_root = any(bool(R[r, :].all()) for r in range(n))
        assert strong_components(g).is_quasi_strong == has_root


def test_aperiodicity_basic_cycles():
    cyc = np.zeros((3, 3))
    for i in range(3):
        cyc[(i + 1) % 3][i] = 1.0
    g = WeightedDigraph(n=3, weights=cyc)
    assert not is_aperiodic(g, (0, 1, 2))
    withloop = cyc.copy()
    withloop[0][0] = 1.0
    assert is_aperiodic(WeightedDigraph(n=3, weights=withloop), (0, 1, 2))


def test_aperiodicity_two_cycle_lengths():
    # cycles of length 2 (1->2->1) and 3 (1->2->3->1) through a shared node
    w = np.zeros((3, 3))
    w[1][0] = 1.0
    w[0][1] = 1.0
    w[2][1] = 1.0
    w[0][2] = 1.0
    g = WeightedDigraph(n=3, weights=w)
    assert is_aperiodic(g, (0, 1, 2))


def test_aperiodicity_rejects_non_strong_component():
    w = np.zeros((2, 2))
    w[1][0] = 1.0
    with pytest.raises(ValueError):
        is_aperiodic(WeightedDigraph(n=2, weights=w), (0, 1))


def test_aperiodicity_matches_cycle_gcd_oracle():
    rng = np.random.default_rng(23)
    checked = 0
    while checked < 30:
        n = int(rng.integers(2, 7))
        w = (rng.random((n, n)) < 0.35) * 1.0
        g = WeightedDigraph(n=n, weights=w)
        for comp in strong_components(g).components:
            solo = next(iter(comp))
            if len(comp) == 1 and not w[solo][solo]:
                continue
            lengths = _simple_cycle_lengths(w, comp)
            expected = bool(lengths) and np.gcd.reduce(sorted(lengths)) == 1
            assert is_aperiodic(g, comp) == expected
            checked += 1


def test_cut_flow_values():
    w = np.array([[0.0, 3.0], [1.0, 0.0]])
    g = WeightedDigraph(n=2, weights=w)
    assert cut_flow(g, Cut.of([0], 2)) == (3.0, 1.0)

    sym = np.array([[0.0, 2.0, 1.0], [2.0, 0.0, 5.0], [1.0, 5.0, 0.0]])
    gs = WeightedDigraph(n=3, weights=sym)
    for cut in all_cuts(3):
        f_ij, f_ji = cut_flow(gs, cut)
        assert f_ij == f_ji


def test_cut_flow_rejects_negative():
    g = WeightedDigraph(n=2, weights=np.array([[0.0, -1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        cut_flow(g, Cut.of([0], 2))


def test_cut_flow_matches_double_loop():
    rng = np.random.default_rng(77)
    for _ in range(25):
        n = int(rng.integers(2, 7))
        w = rng.random((n, n)) * (rng.random((n, n)) < 0.5)
        g = WeightedDigraph(n=n, weights=w)
        for cut in all_cuts(n):
            I, J = cut.left, cut.right
            f_ij = sum(w[i][j] for i in I for j in J)
            f_ji = sum(w[j][i] for i in I for j in J)
            got = cut_flow(g, cut)
            assert got[0] == pytest.approx(f_ij, abs=1e-12)
            assert got[1] == pytest.approx(f_ji, abs=1e-12)


def test_certificate_symmetric_balanced_with_unit_constant():
    w = np.array([[0.0, 2.0, 0.0], [2.0, 0.0, 3.0], [0.0, 3.0, 0.0]])
    cert = cut_balance_certificate(WeightedDigraph(n=3, weights=w))
    assert cert.balanced
    assert cert.constant_C == pytest.approx(1.0)
    assert cert.witness_cut is None


def test_certificate_constant_of_overflowing_cut_flows():
    """Cut flows above the largest double are scaled by a power of two
    first; C does not depend on the scale."""
    w = np.array([[0, 1e308, 1e308], [1e308, 0, 0.5], [1e308, 1e308, 0]])
    for scale in (0, -10):
        cert = cut_balance_certificate(WeightedDigraph(n=3, weights=np.ldexp(w, scale)))
        assert cert.balanced and cert.constant_C == 2.0


@pytest.mark.parametrize(
    "w",
    [
        [[0.0, 1e300], [1e-300, 0.0]],  # the ratio 1e600 overflows
        # flows past the double range are scaled down first, and 5e-324
        # underflows to 0: the ratio 1 / 5e-324 has no double either
        [[0.0, 1.7e308, 5e-324], [1.7e308, 0.0, 0.0], [1.0, 0.0, 0.0]],
    ],
)
def test_certificate_constant_beyond_the_double_range_raises(w):
    """No finite C exists, so the certificate raises, with no overflow or
    division warning on the way."""
    g = WeightedDigraph(n=len(w), weights=np.array(w))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^cut constant is not finite"):
            cut_balance_certificate(g)


def test_certificate_witness_separates_source():
    w = np.zeros((4, 4))
    w[1][0] = 1.0  # 0 feeds the strongly connected pair {1,2}
    w[2][1] = w[1][2] = 1.0
    w[3][2] = 1.0
    cert = cut_balance_certificate(WeightedDigraph(n=4, weights=w))
    assert not cert.balanced
    assert cert.witness_cut is not None
    f_ij, f_ji = cut_flow(WeightedDigraph(n=4, weights=w), cert.witness_cut)
    assert (f_ij > 0) != (f_ji > 0)


def test_four_way_equivalence_small_graphs():
    rng = np.random.default_rng(4)
    for _ in range(60):
        n = int(rng.integers(2, 7))
        w = rng.random((n, n)) * (rng.random((n, n)) < 0.4)
        np.fill_diagonal(w, 0.0)
        g = WeightedDigraph(n=n, weights=w)
        # (i) every cut simultaneously zero or positive in both directions
        by_cuts = all(
            (a > 0) == (b > 0) for a, b in (cut_flow(g, c) for c in all_cuts(n))
        )
        # (ii) arc positivity biconditional: j reaches i iff i reaches j
        R = _reach_closure(w)
        mutual = all(
            R[i][j] == R[j][i] for i in range(n) for j in range(n)
        )
        # (iii) all components isolated
        dec = strong_components(g)
        isolated = all(cls == "isolated" for cls in dec.classification)
        cert = cut_balance_certificate(g)
        assert by_cuts == mutual == isolated == cert.balanced


def test_strong_aperiodic_power_positive():
    rng = np.random.default_rng(9)
    found = 0
    while found < 10:
        n = int(rng.integers(2, 6))
        w = (rng.random((n, n)) < 0.5) * 1.0
        g = WeightedDigraph(n=n, weights=w)
        dec = strong_components(g)
        if not (dec.is_strong and is_aperiodic(g, dec.components[0])):
            continue
        found += 1
        B = (w != 0)
        P = np.eye(n, dtype=bool)
        positive = False
        for _ in range(n * n):
            P = P @ B
            if P.all():
                positive = True
                break
        assert positive


def test_json_and_edgelist_round_trip():
    w = np.array([[0.0, 0.125, 0.0], [0.5, 0.0, 0.0], [0.0, 1.0, 0.25]])
    g = WeightedDigraph(n=3, weights=w)
    assert np.array_equal(graph_from_json(graph_to_json(g)).weights, w)
    text = graph_to_edgelist(g)
    back = graph_from_edgelist(text, n=3)
    assert np.array_equal(back.weights, w)


def test_cut_validation():
    with pytest.raises(ValueError):
        Cut.of([], 3)
    with pytest.raises(ValueError):
        Cut.of([0, 1, 2], 3)
    assert len(list(all_cuts(3))) == 6
    with pytest.raises(ValueError):
        list(all_cuts(25))


def _levels_by_powering(weights, start, allowed, reverse):
    """BFS levels from boolean matrix powering: step[u, v] marks a walk
    step u -> v onto an allowed v; level(v) is the least k with v in
    start * step^k."""
    n = weights.shape[0]
    arcs = (weights != 0) if reverse else (weights.T != 0)
    step = arcs & np.array([allowed is None or v in allowed for v in range(n)])
    frontier = np.array([v in start for v in range(n)])
    seen = frontier.copy()
    levels = {int(v): 0 for v in np.flatnonzero(frontier)}
    for k in range(1, n):
        frontier = (frontier.astype(int) @ step.astype(int) > 0) & ~seen
        levels.update((int(v), k) for v in np.flatnonzero(frontier))
        seen |= frontier
    return levels


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 8),
    st.lists(st.floats(0.0, 1.0), min_size=64, max_size=64),
    st.integers(0, 255),
    st.integers(0, 255),
    st.booleans(),
    st.booleans(),
)
def test_reachable_matches_boolean_powering(n, cells, start_bits, allowed_bits, restrict, reverse):
    # Entries below 0.6 become 0, so about 40% of the arcs are present.
    w = np.array(cells[: n * n]).reshape(n, n)
    w[w < 0.6] = 0.0
    g = WeightedDigraph(n=n, weights=w)
    start = {v for v in range(n) if start_bits >> v & 1} or {0}
    allowed = {v for v in range(n) if allowed_bits >> v & 1} if restrict else None
    got = reachable(g, start, allowed, reverse=reverse)
    assert got == _levels_by_powering(w, start, allowed, reverse)
    if allowed is None:
        # Unrestricted reachability is a row of the transitive closure
        # (columns of it when walking against the arcs).
        R = _reach_closure(w)
        closure = R.T if reverse else R
        assert set(got) == {v for v in range(n) if any(closure[s, v] for s in start)}
