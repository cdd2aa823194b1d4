"""Small builders shared across test modules."""

from hypothesis import strategies as st

from graphcover import (
    INF, Demand, EdsInstance, Graph, MulticutInstance, Rat, RootedTree, build_relaxation,
)
from graphcover.instances import edge_neighborhoods
from graphcover.rationals import ZERO, is_inf


def rat_weights(inst):
    """An eds or multicut instance's node weights, edge weights and
    penalties as dicts of rationals made from its integer units: by node
    id, by edge id, and by edge id or demand index; INF stays INF."""
    g = inst.graph
    demands = range(len(inst.demands)) if isinstance(inst, MulticutInstance) else g.edge_ids()
    return tuple(
        {k: units[k] if is_inf(units[k]) else Rat(units[k], inst.scale) for k in keys}
        for units, keys in zip(
            (inst.node_units, inst.edge_units, inst.penalty_units),
            (range(g.n), g.edge_ids(), demands),
        )
    )


def y_form(inst):
    """The strengthened LP with every demand's y(C,e) kept, the reference
    for the projected model that ``build_relaxation`` builds: the natural
    model, then y(C,e) for each demand C and member e, then per demand its
    cover row, a node row at each node its members touch and a row
    x(e) >= y(C,e) per member.  It is priced in units, as the natural
    model is."""
    model = build_relaxation(inst, "natural")
    model.name = "strengthened"
    g = inst.graph
    if isinstance(inst, EdsInstance):
        nbhd = edge_neighborhoods(g)
        demands = [(e, nbhd[e]) for e in sorted(g.edge_ids())]
    else:
        demands = [(i, sorted(inst.path_edges(i))) for i in range(len(inst.demands))]
    for c, members in demands:
        for e in members:
            model.add_var(f"y_{c}_{e}")
    for c, members in demands:
        coeffs = {f"y_{c}_{e}": 1 for e in members}
        if f"z_{c}" in model.variables:
            coeffs[f"z_{c}"] = 1
        model.add_constraint(f"ycover_{c}", coeffs, ">=", 1)
        at_node = {}
        for e in members:
            for v in g.ends(e):
                at_node.setdefault(v, []).append(e)
        for v in sorted(at_node):
            coeffs = {f"x_v{v}": 1, **{f"y_{c}_{e}": -1 for e in at_node[v]}}
            model.add_constraint(f"ynode_{c}_v{v}", coeffs, ">=", 0)
        for e in members:
            model.add_constraint(f"yedge_{c}_e{e}", {f"x_e{e}": 1, f"y_{c}_{e}": -1}, ">=", 0)
    return model


def two_leaf_star(pi1, pi2, wr=Rat(3), w1=Rat(1), w2=Rat(5)):
    """Root 0 with leaves 1, 2; edge ids are the child ids."""
    tree = RootedTree([0, 0, 0], 0)
    return EdsInstance(
        tree,
        {0: Rat(wr), 1: ZERO, 2: ZERO},
        {1: Rat(w1), 2: Rat(w2)},
        {1: pi1, 2: pi2},
    )


def path_nodes(inst, i):
    """Nodes along demand i's path, from s to t: each path edge is named by
    its lower end, so they are the s-side edges, the lca, then the rest."""
    lca, edges, up = inst.path(i)
    return edges[:up] + (lca,) + edges[up:]


def star_multicut(w1, w2, penalty):
    """Root 0 with leaves 1, 2 and the single demand (1, 2)."""
    tree = RootedTree([0, 0, 0], 0)
    return MulticutInstance(
        tree,
        {v: ZERO for v in range(3)},
        {1: Rat(w1), 2: Rat(w2)},
        [Demand(1, 2, penalty)],
    )


_weights = st.builds(Rat, st.integers(0, 6), st.sampled_from([1, 1, 2, 3]))


@st.composite
def small_multicuts(draw, max_nodes, node_weights=_weights, weights=_weights):
    """Random multicut trees with zero and fractional weights, node weights
    drawn from ``node_weights``, and up to five demands, each with an
    infinite or a finite (possibly zero) penalty; finite edge weights and
    penalties are drawn from ``weights``."""
    n = draw(st.integers(2, max_nodes))
    parent = [0] + [draw(st.integers(0, v - 1)) for v in range(1, n)]
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda p: p[0] != p[1]
    )
    demands = [
        Demand(s, t, draw(st.one_of(st.just(INF), weights)))
        for s, t in draw(st.lists(pairs, min_size=1, max_size=5))
    ]
    return MulticutInstance(
        RootedTree(parent, 0),
        {v: draw(node_weights) for v in range(n)},
        {v: draw(weights) for v in range(1, n)},
        demands,
    )


@st.composite
def small_eds(draw, max_nodes, tree, weights=_weights):
    """Random edge-dominating instances on a rooted tree (``tree``) or on a
    graph with any edge set, with zero and fractional weights and infinite
    or finite (possibly zero) penalties, finite values drawn from
    ``weights``."""
    n = draw(st.integers(1, max_nodes))
    if tree:
        graph = RootedTree([0] + [draw(st.integers(0, v - 1)) for v in range(1, n)], 0)
    else:
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        graph = Graph(n, [p for p in pairs if draw(st.booleans())])
    penalties = st.one_of(st.just(INF), weights)
    return EdsInstance(
        graph,
        {v: draw(weights) for v in range(n)},
        {e: draw(weights) for e in graph.edge_ids()},
        {e: draw(penalties) for e in graph.edge_ids()},
    )


_DIRECTIVE_NAMES = [
    "problem", "nodes", "root", "node", "edge", "demand", "set", "facility", "client", "conn",
    "certificate", "objective", "ratio", "lower", "factor", "xi", "nu", "mu", "witness",
    "processed", "primal", "dual", "bogus",
]
#: Tokens an edit may write into a file: numbers, malformed numbers, kind
#: and directive names, a comment mark, and the empty token, which deletes.
_EDIT_TOKENS = st.sampled_from([
    "0", "1", "2", "7", "-1", "-0", "3/2", "2/4", "1/0", "2/-3", "inf", "-inf", "nan", "1.5",
    "1e3", "+4", "٣", "x", "#", "", "1000001", "99999999999999999999",
    "eds-tree", "eds-general", "multicut-tree", "set-cover", "facility-location",
    *_DIRECTIVE_NAMES,
])


@st.composite
def edited_texts(draw, texts):
    """One of ``texts`` after one to three edits, each replacing a token,
    inserting a line of tokens, deleting a line or duplicating one."""
    lines = draw(st.sampled_from(texts)).splitlines()
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(lines)))
        edit = draw(st.sampled_from(["replace", "insert", "delete", "duplicate"]))
        if edit == "insert" or at == len(lines):
            head = draw(st.sampled_from(_DIRECTIVE_NAMES))
            lines.insert(at, " ".join([head, *draw(st.lists(_EDIT_TOKENS, max_size=4))]))
        elif edit == "replace" and lines[at].split():
            toks = lines[at].split()
            toks[draw(st.integers(0, len(toks) - 1))] = draw(_EDIT_TOKENS)
            lines[at] = " ".join(toks)
        elif edit == "delete":
            del lines[at]
        else:
            lines.insert(at, lines[at])
    return "\n".join(lines) + "\n"
