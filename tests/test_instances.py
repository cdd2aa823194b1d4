"""Graphs, instance types, the text format, generators, and covering reductions."""

import sys
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from graphcover import cli
from graphcover import (
    INF,
    EdsInstance,
    FacilityLocationInstance,
    Graph,
    InstanceError,
    MulticutInstance,
    ParseError,
    Rat,
    RootedTree,
    SetCoverInstance,
    Solution,
    brute_force_eds,
    eds_solution,
    gen_instance,
    parse_instance,
    reduce_to_eds,
    serialize_certificate,
    serialize_instance,
)
from graphcover.instances import GEN_KINDS, Demand, edge_neighborhoods, problem_kind
from graphcover.rationals import ONE, ZERO, is_inf

from _support import edited_texts, path_nodes, rat_weights, small_eds, small_multicuts


# -- graphs -----------------------------------------------------------------


def test_graph_rejects_bad_edges():
    with pytest.raises(InstanceError):
        Graph(2, [(0, 0)])
    with pytest.raises(InstanceError):
        Graph(2, [(0, 1), (1, 0)])
    with pytest.raises(InstanceError):
        Graph(2, [(0, 2)])


def test_rooted_tree_edge_is_child_id():
    tree = RootedTree([0, 0, 1], 0)
    assert tree.edge_ids() == [1, 2]
    assert tree.ends(1) == (0, 1)
    assert tree.ends(2) == (1, 2)
    assert tree.depth == (0, 1, 2)
    with pytest.raises(InstanceError):
        tree.ends(0)


def test_rooted_tree_ancestry_and_lca():
    #       0
    #      / \
    #     1   2
    #    / \
    #   3   4
    tree = RootedTree([0, 0, 0, 1, 1], 0)
    assert tree.lca(3, 4) == 1
    assert tree.lca(3, 2) == 0


def test_rooted_tree_rejects_cycles_and_disconnection():
    with pytest.raises(InstanceError):
        RootedTree([1, 0], 0)[0]  # node 0 is root but parent[0] != 0
    with pytest.raises(InstanceError):
        RootedTree.from_edges(3, [(0, 1)], 0)
    with pytest.raises(InstanceError):
        RootedTree.from_edges(3, [(0, 1), (0, 1)], 0)


def test_edge_neighborhoods_are_closed():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    nb = edge_neighborhoods(g)
    assert nb[0] == (0, 1)
    assert nb[1] == (0, 1, 2)
    assert nb[2] == (1, 2)


def _closed_neighbourhood_solution(inst, edges):
    """eds_solution by its definition: an edge is covered when it lies in
    the closed edge neighbourhood of a chosen edge."""
    g = inst.graph
    edges = tuple(sorted(set(edges)))
    nbhd = edge_neighborhoods(g)
    covered = {f for e in edges for f in nbhd[e]}
    nodes = {v for e in edges for v in g.ends(e)}
    node_weight, edge_weight, penalty = rat_weights(inst)
    return Solution(
        edges,
        sum((edge_weight[e] for e in edges), ZERO),
        sum((node_weight[v] for v in nodes), ZERO),
        sum((penalty[e] for e in g.edge_ids() if e not in covered), ZERO),
    )


@settings(max_examples=150, deadline=None, database=None)
@given(st.one_of(small_eds(max_nodes=9, tree=True), small_eds(max_nodes=7, tree=False)),
       st.data())
def test_eds_solution_matches_closed_neighbourhoods(inst, data):
    ids = inst.graph.edge_ids()
    edges = data.draw(st.lists(st.sampled_from(ids)) if ids else st.just([]))
    assert eds_solution(inst, edges) == _closed_neighbourhood_solution(inst, edges)


def _ancestors(tree, v):
    """v, its parent, and so on up to the root."""
    chain = [v]
    while chain[-1] != tree.root:
        chain.append(tree.parent[chain[-1]])
    return chain


@settings(max_examples=150, deadline=None, database=None)
@given(small_multicuts(max_nodes=12))
def test_demand_paths_match_ancestor_chains(inst):
    n = inst.tree.n
    for i, d in enumerate(inst.demands):
        from_s, from_t = _ancestors(inst.tree, d.s), _ancestors(inst.tree, d.t)
        lca = next(v for v in from_s if v in from_t)
        up = from_s[: from_s.index(lca)]
        down = from_t[: from_t.index(lca)]
        nodes = up + [lca] + down[::-1]  # from s to t
        assert inst.lca(i) == lca
        assert list(inst.path_edges(i)) == up + down[::-1]
        assert inst.path(i) == (lca, tuple(up + down[::-1]), len(up))
        assert list(path_nodes(inst, i)) == nodes
        # the rule places every path node at its index from s, and every
        # other node, and every int that names no node, at -1
        for v in range(n):
            assert inst.place(i, v) == (nodes.index(v) if v in nodes else -1)
        for v in (-1, -n, -n - 1, n, 10**9):
            assert inst.place(i, v) == -1


def test_path_walks_keep_little_beside_their_edge_tuples():
    """On a 2,000-node path rooted at its middle, walking 50 demands from
    near one end to near the other allocates under 3x the edge tuples' own
    size: each walk keeps one record, and no per-demand set."""
    n = 2000
    tree = RootedTree.from_edges(n, [(v, v + 1) for v in range(n - 1)], root=n // 2)
    inst = MulticutInstance(
        tree,
        {v: ZERO for v in range(n)},
        {e: ONE for e in tree.edge_ids()},
        [Demand(i, n - 1 - i, INF) for i in range(50)],
    )
    tracemalloc.start()
    try:
        paths = [inst.path_edges(i) for i in range(len(inst.demands))]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(inst.path(i).up == n // 2 - i for i in range(len(paths)))
    assert peak < 3 * sum(map(sys.getsizeof, paths))


# -- instance validation ----------------------------------------------------


def test_negative_weight_rejected():
    tree = RootedTree([0, 0], 0)
    with pytest.raises(InstanceError):
        EdsInstance(tree, {0: Rat(-1), 1: ZERO}, {1: ZERO}, {1: ZERO})


def test_negative_fractions_rejected_with_their_messages():
    tree = RootedTree([0, 0], 0)
    tiny = Rat(-1, 7)
    cases = [
        (({0: tiny, 1: ZERO}, {1: ZERO}, {1: ZERO}), "node weight of 0 must be finite and nonnegative"),
        (({0: ZERO, 1: ZERO}, {1: tiny}, {1: ZERO}), "edge weight of 1 must be finite and nonnegative"),
        (({0: ZERO, 1: ZERO}, {1: ZERO}, {1: tiny}), "penalty of edge 1 must be nonnegative"),
    ]
    for weights, message in cases:
        with pytest.raises(InstanceError) as err:
            EdsInstance(tree, *weights)
        assert str(err.value) == message
    EdsInstance(tree, {0: Rat(1, 7), 1: ZERO}, {1: ZERO}, {1: INF})
    text = "problem eds-tree\nnodes 2\nroot 0\nnode 0 -1/7\nnode 1 0\nedge 0 1 0 inf\n"
    with pytest.raises(ParseError) as err:
        parse_instance(text)
    assert str(err.value) == "line 4: negative value '-1/7' not allowed here"


def test_infinite_weight_rejected():
    tree = RootedTree([0, 0], 0)
    with pytest.raises(InstanceError):
        EdsInstance(tree, {0: ZERO, 1: ZERO}, {1: INF}, {1: ZERO})


def test_weight_maps_must_cover_exactly():
    tree = RootedTree([0, 0], 0)
    with pytest.raises(InstanceError):
        EdsInstance(tree, {0: ZERO}, {1: ZERO}, {1: ZERO})
    with pytest.raises(InstanceError):
        EdsInstance(tree, {0: ZERO, 1: ZERO}, {1: ZERO}, {})


_EDGE = RootedTree([0, 0], 0)


@pytest.mark.parametrize("make,message", [
    (lambda: Graph(0, []), "graph needs at least one node"),
    (lambda: RootedTree([0, 5], 0), "parent of 1 out of range"),
    (lambda: EdsInstance(_EDGE, {0: ZERO, 1: ZERO}, {}, {1: ZERO}),
     "edge weights must cover exactly the edge set"),
    (lambda: MulticutInstance(_EDGE, {0: ZERO, 1: ZERO}, {1: ZERO}, [Demand(0, 1, Rat(-1))]),
     "demand 0 penalty must be nonnegative"),
    (lambda: SetCoverInstance(1, [(Rat(-1), frozenset({0}))]),
     "set 0 cost must be finite and nonnegative"),
    (lambda: SetCoverInstance(1, [(INF, frozenset({0}))]),
     "set 0 cost must be finite and nonnegative"),
    (lambda: FacilityLocationInstance(1, 2, [ZERO], {}), "one opening cost per facility required"),
    (lambda: FacilityLocationInstance(1, 1, [Rat(-1)], {}),
     "opening costs must be finite and nonnegative"),
    (lambda: FacilityLocationInstance(1, 1, [ZERO], {(0, 0): INF}),
     "connection cost (0,0) must be finite and nonnegative"),
    (lambda: problem_kind(_EDGE), "unknown instance type <class 'graphcover.instances.RootedTree'>"),
    (lambda: gen_instance("random-tree-eds", n=0), "need at least one node"),
    (lambda: gen_instance("random-tree-multicut", n=1, k=1), "demands need at least two nodes"),
    (lambda: gen_instance("random-eds-general", n=3, m=4), "at most 3 edges on 3 nodes"),
], ids=["graph-nodes", "parent", "edge-weights", "demand-penalty", "set-cost", "set-cost-inf",
        "openings", "opening-cost", "conn-cost", "kind", "gen-nodes", "gen-demands", "gen-edges"])
def test_constructor_guards_have_their_messages(make, message):
    with pytest.raises(InstanceError) as err:
        make()
    assert str(err.value) == message


# -- text format ------------------------------------------------------------


def test_parse_two_node_tree():
    text = "problem eds-tree\nnodes 2\nroot 0\nnode 0 0\nnode 1 0\nedge 0 1 1 0\n"
    inst = parse_instance(text)
    assert isinstance(inst, EdsInstance)
    assert isinstance(inst.graph, RootedTree)
    assert inst.graph.n == 2
    assert inst.graph.depth[1] == 1
    assert rat_weights(inst)[1][1] == 1
    inst = parse_instance("problem eds-tree\nnodes 2\nnode 0 1/2\nedge 0 1 2/3 inf\n")
    assert (inst.scale, inst.node_units, inst.edge_units, inst.penalty_units) == (
        6, [3, 0], [0, 4], [0, INF])


def test_an_integer_fraction_parses_as_its_integer():
    text = "problem eds-tree\nnodes 2\nnode 0 {}\nedge 0 1 1 {}\n"
    assert parse_instance(text.format("6/1", "6/1")) == parse_instance(text.format("6", "6"))


def test_parse_negative_weight_reports_line():
    text = "problem eds-tree\nnodes 2\nroot 0\nnode 0 0\nnode 1 0\nedge 0 1 -1 0\n"
    with pytest.raises(ParseError) as err:
        parse_instance(text)
    assert "line 6" in str(err.value)


def test_parse_demand_inf_penalty():
    text = (
        "problem multicut-tree\nnodes 3\nroot 0\n"
        "node 0 0\nnode 1 0\nnode 2 0\n"
        "edge 0 1 1\nedge 0 2 1\n"
        "demand 1 2 inf\n"
    )
    inst = parse_instance(text)
    assert isinstance(inst, MulticutInstance)
    assert is_inf(inst.demands[0].penalty)


def test_parse_rejects_unknown_node():
    text = "problem eds-tree\nnodes 2\nroot 0\nnode 0 0\nnode 1 0\nedge 0 5 1 0\n"
    with pytest.raises(ParseError):
        parse_instance(text)


def test_parse_rejects_inf_weight():
    text = "problem eds-tree\nnodes 2\nroot 0\nnode 0 inf\nnode 1 0\nedge 0 1 1 0\n"
    with pytest.raises(ParseError):
        parse_instance(text)


def test_parse_requires_problem_header():
    with pytest.raises(ParseError) as err:
        parse_instance("nodes 2\n")
    assert "line 1" in str(err.value)


#: Line ends that `str.splitlines` splits on besides "\n"; several of them
#: are also whitespace to `str.split`.
LINE_ENDS = ["\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("end", LINE_ENDS)
def test_instance_lines_split_as_splitlines_splits_them(end):
    for kind, params in GEN_CASES:
        text = serialize_instance(gen_instance(kind, **params))
        assert parse_instance(text.replace("\n", end)) == parse_instance(text), kind
    text = "problem eds-tree\nnodes 2\nroot 0\nnode 0 1\nnode 1 -1\nedge 0 1 1 1\n"
    with pytest.raises(ParseError) as err:
        parse_instance(text.replace("\n", end))
    assert str(err.value) == "line 5: negative value '-1' not allowed here"


# -- structural parse errors ------------------------------------------------

#: The kinds that take each directive.
_TAKEN_BY = {
    "nodes": ("eds-tree", "eds-general", "multicut-tree", "set-cover"),
    "root": ("eds-tree", "multicut-tree"),
    "node": ("eds-tree", "eds-general", "multicut-tree"),
    "edge": ("eds-tree", "eds-general", "multicut-tree"),
    "demand": ("multicut-tree",),
    "set": ("set-cover",),
    "facility": ("facility-location",),
    "client": ("facility-location",),
    "conn": ("facility-location",),
}
_ALL_KINDS = ("eds-tree", "eds-general", "multicut-tree", "set-cover", "facility-location")


def _refusal(directive, kind):
    if directive == "nodes":
        return f"'nodes' is not used by {kind}"
    return f"'{directive}' is not valid for {kind}"


_TREE = "problem eds-tree\nnodes 2\n"
_CUT = "problem multicut-tree\nnodes 3\n"
_GENERAL = "problem eds-general\nnodes 3\n"
_SETS = "problem set-cover\nnodes 2\n"
_FL = "problem facility-location\n"

#: Every ParseError of `parse_instance` that is not about a number token:
#: the file and its exact message.
STRUCTURAL_ERRORS = [
    # each directive under each kind that does not take it; the refusal
    # comes before the field count
    *[(f"problem {kind}\n{directive} 0 0 0 0 0 0\n", f"line 2: {_refusal(directive, kind)}")
      for directive, kinds in _TAKEN_BY.items()
      for kind in _ALL_KINDS if kind not in kinds],
    # field counts
    (_TREE + "nodes\n", "line 3: duplicate 'nodes' line"),
    ("problem eds-tree\nnodes\n", "line 2: 'nodes' takes one argument"),
    ("problem eds-tree\nnodes 2 3\n", "line 2: 'nodes' takes one argument"),
    ("problem set-cover\nnodes\n", "line 2: 'nodes' takes one argument"),
    (_TREE + "root\n", "line 3: 'root' takes one argument"),
    (_CUT + "root 0 1\n", "line 3: 'root' takes one argument"),
    (_TREE + "node 0\n", "line 3: 'node' takes id and weight"),
    (_GENERAL + "node 0 1 2\n", "line 3: 'node' takes id and weight"),
    (_CUT + "node\n", "line 3: 'node' takes id and weight"),
    (_TREE + "edge 0 1 1\n", "line 3: 'edge' takes u, v, weight and penalty here"),
    (_GENERAL + "edge 0 1 1 1 1\n", "line 3: 'edge' takes u, v, weight and penalty here"),
    (_CUT + "edge 0 1 1 1\n", "line 3: 'edge' takes u, v and weight here"),
    (_CUT + "edge 0 1\n", "line 3: 'edge' takes u, v and weight here"),
    (_CUT + "demand 1 2\n", "line 3: 'demand' takes s, t and penalty"),
    (_CUT + "demand 1 2 3 4\n", "line 3: 'demand' takes s, t and penalty"),
    (_SETS + "set\n", "line 3: 'set' takes a cost and member list"),
    (_FL + "facility 0\n", "line 2: 'facility' takes id and opening cost"),
    (_FL + "facility 0 1 2\n", "line 2: 'facility' takes id and opening cost"),
    (_FL + "client\n", "line 2: 'client' takes an id"),
    (_FL + "client 0 1\n", "line 2: 'client' takes an id"),
    (_FL + "conn 0 0\n", "line 2: 'conn' takes client, facility and cost"),
    (_FL + "conn 0 0 1 1\n", "line 2: 'conn' takes client, facility and cost"),
    # duplicates
    ("problem eds-tree\nproblem eds-tree\n", "line 2: duplicate 'problem' line"),
    ("problem eds-tree\n# note\nproblem set-cover\n", "line 3: duplicate 'problem' line"),
    (_TREE + "nodes 2\n", "line 3: duplicate 'nodes' line"),
    (_SETS + "nodes 3\n", "line 3: duplicate 'nodes' line"),
    (_TREE + "root 0\nroot 0\n", "line 4: duplicate 'root' line"),
    (_TREE + "root 1\nroot 1\n", "line 4: duplicate 'root' line"),
    (_TREE + "node 0 1\nnode 0 1\n", "line 4: duplicate weight for node 0"),
    (_CUT + "node 2 1\nnode 1 1\nnode 02 5\n", "line 5: duplicate weight for node 2"),
    (_TREE + "node 7 1\nnode 7 1\n", "line 4: duplicate weight for node 7"),
    (_FL + "facility 0 1\nfacility 0 2\n", "line 3: duplicate facility 0"),
    (_FL + "conn 0 1 1\nconn 0 0 1\nconn 0 1 2\n", "line 4: duplicate connection (0,1)"),
    (_SETS + "set 1 0 1 0\n", "line 3: duplicate members in set"),
    (_SETS + "set 1 1 +1\n", "line 3: duplicate members in set"),
    # header, unknown directives and empty files
    ("", "line 1: empty instance file"),
    ("\n\n", "line 1: empty instance file"),
    ("# only a comment\n   \n", "line 1: empty instance file"),
    ("nodes 2\n", "line 1: the first directive must be 'problem <kind>'"),
    ("# note\n\nnode 0 1\n", "line 3: the first directive must be 'problem <kind>'"),
    ("problem\n", "line 1: unknown problem kind ''"),
    ("problem trees\n", "line 1: unknown problem kind 'trees'"),
    ("problem eds-tree set-cover\n", "line 1: unknown problem kind 'eds-tree set-cover'"),
    ("problem EDS-TREE\n", "line 1: unknown problem kind 'EDS-TREE'"),
    (_TREE + "edges 0 1 1 1\n", "line 3: unknown directive 'edges'"),
    (_FL + "Client 0\n", "line 2: unknown directive 'Client'"),
    ("problem set-cover\ncertificate eds-tree\n", "line 2: unknown directive 'certificate'"),
    # node counts
    ("problem eds-tree\nnodes 0\n", "line 2: node count must be positive"),
    ("problem set-cover\nnodes -4\n", "line 2: node count must be positive"),
    ("problem eds-tree\nnodes 1000001\n", "line 2: node count 1000001 exceeds the limit of 1000000"),
    ("problem multicut-tree\nnodes 99999999999999999999\n",
     "line 2: node count 99999999999999999999 exceeds the limit of 1000000"),
    ("problem eds-tree\nnodes two\n", "line 2: expected an integer, got 'two'"),
    # after the last line: reported at the file's last line, blank ones included
    ("problem eds-tree\nnode 0 1\n", "line 2: missing 'nodes' line"),
    ("problem set-cover\nset 1 0\n\n\n", "line 4: missing 'nodes' line"),
    ("problem multicut-tree\n", "line 1: missing 'nodes' line"),
    (_TREE + "node 2 1\nedge 0 1 1 1\n", "line 3: node id 2 out of range"),
    (_GENERAL + "node -1 1\n", "line 3: node id -1 out of range"),
    (_TREE + "root 2\nedge 0 1 1 1\n", "line 3: root 2 out of range"),
    (_CUT + "root -1\n", "line 3: root -1 out of range"),
    (_TREE, "line 2: a tree on 2 nodes needs 1 edges, got 0"),
    (_CUT + "edge 0 1 1\nedge 1 2 1\nedge 0 2 1\n", "line 5: a tree on 3 nodes needs 2 edges, got 3"),
    (_CUT + "edge 0 1 1\nedge 1 3 1\n", "line 4: edge (1,3) out of range"),
    (_CUT + "edge 0 1 1\nedge 2 2 1\n", "line 4: self-loop at node 2"),
    (_CUT + "edge 0 1 1\nedge 1 0 1\n", "line 4: edges do not form a tree reachable from the root"),
    (_CUT + "root 2\nedge 0 1 1\nedge 0 1 1\n",
     "line 5: edges do not form a tree reachable from the root"),
    (_GENERAL + "edge 0 3 1 1\n", "line 3: edge (0,3) out of range"),
    (_GENERAL + "edge 1 1 1 1\n", "line 3: self-loop at node 1"),
    (_GENERAL + "edge 0 1 1 1\nedge 1 0 1 1\n", "line 4: duplicate edge (1,0)"),
    (_CUT + "edge 0 1 1\nedge 0 2 1\ndemand 1 3 1\n", "line 5: demand 0 endpoints out of range"),
    (_CUT + "edge 0 1 1\nedge 0 2 1\ndemand 1 2 1\ndemand 2 2 inf\n",
     "line 6: demand 1 has identical endpoints"),
    # a set's or a connection's fault: reported at the line holding it
    (_SETS + "set 4\n", "line 3: set 0 is empty"),
    (_SETS + "set 4\nset 1 0\n", "line 3: set 0 is empty"),
    (_SETS + "set 1 0\nset 1 1 2\n", "line 4: set 1 has out-of-range members"),
    (_SETS + "set 1 5\nset 1 0\n", "line 3: set 0 has out-of-range members"),
    (_FL + "facility 0 1\nclient 1\n", "line 3: client ids must be 0..k-1, each once"),
    (_FL + "facility 0 1\nclient 0\nclient 0\n", "line 4: client ids must be 0..k-1, each once"),
    (_FL + "facility 1 1\nclient 0\n", "line 3: facility ids must be 0..k-1, each once"),
    (_FL + "facility 0 1\nclient 0\nconn 0 1 1\n", "line 4: connection (0,1) out of range"),
    (_FL + "facility 0 1\nclient 0\nconn 1 0 1\n# end\n", "line 4: connection (1,0) out of range"),
    (_FL + "facility 0 1\nclient 0\nconn 0 3 2\nclient 1\n", "line 4: connection (0,3) out of range"),
    # two faults on one line or in one file: the first check in order wins
    (_TREE + "node 0 1\nnode 0 x\n", "line 4: duplicate weight for node 0"),
    (_TREE + "node 0 1\nnode 0 inf\n", "line 4: duplicate weight for node 0"),
    (_TREE + "node x 1 2\n", "line 3: 'node' takes id and weight"),
    (_TREE + "node x y\n", "line 3: expected an integer, got 'x'"),
    (_TREE + "nodes x\n", "line 3: duplicate 'nodes' line"),
    (_TREE + "nodes 1 2\n", "line 3: duplicate 'nodes' line"),
    (_TREE + "root 0\nroot 1 2\n", "line 4: duplicate 'root' line"),
    (_FL + "nodes 1 2\n", "line 2: 'nodes' is not used by facility-location"),
    (_SETS + "edge 0 1\n", "line 3: 'edge' is not valid for set-cover"),
    ("problem eds-general\nroot\n", "line 2: 'root' is not valid for eds-general"),
    (_FL + "facility 0 1\nfacility 0 x\n", "line 3: duplicate facility 0"),
    (_FL + "conn 0 0 1\nconn 0 0 -1\n", "line 3: duplicate connection (0,0)"),
    (_FL + "conn 0 x 1\n", "line 2: expected an integer, got 'x'"),
    (_SETS + "set x 0 0\n", "line 3: malformed rational 'x'"),
    (_SETS + "set 1 0 0 y\n", "line 3: expected an integer, got 'y'"),
    (_TREE + "edge 0 1 -1 x\n", "line 3: negative value '-1' not allowed here"),
    (_TREE + "edge 0 x -1 1\n", "line 3: expected an integer, got 'x'"),
    (_CUT + "demand 1 x inf\n", "line 3: expected an integer, got 'x'"),
    (_TREE + "node 5 1\nbogus\n", "line 4: unknown directive 'bogus'"),
    ("problem eds-tree\nproblem nothing\n", "line 2: duplicate 'problem' line"),
    ("node 0 1\nproblem eds-tree\n", "line 1: the first directive must be 'problem <kind>'"),
    ("problem eds-tree # a comment\nnodes 2#\nedge 0 1 1 1 # note\nfoo#bar\n",
     "line 4: unknown directive 'foo'"),
]


@pytest.mark.parametrize("text,message", STRUCTURAL_ERRORS)
def test_structural_parse_errors_have_their_messages(text, message):
    with pytest.raises(ParseError) as err:
        parse_instance(text)
    assert str(err.value) == message


#: Faults of one node, root, edge or demand found after the line loop,
#: each reported at the line holding it, with comments, blank lines and
#: other directives around it.
ROW_ERRORS = [
    ("problem eds-tree\nnode 0 1\nnode 5 1\n# note\nnodes 2\nedge 0 1 1 1\n",
     "line 3: node id 5 out of range"),
    ("problem multicut-tree\nroot 4\n\nnodes 3\nedge 0 1 1\nedge 0 2 1\n",
     "line 2: root 4 out of range"),
    ("problem eds-tree\nnodes 3\nedge 0 1 1 1\nedge 1 3 1 1  # far\nnode 0 1\n",
     "line 4: edge (1,3) out of range"),
    ("problem eds-tree\nnodes 3\nedge 2 2 1 1\nedge 0 1 1 1\n",
     "line 3: self-loop at node 2"),
    ("problem eds-general\nnodes 3\nedge 0 1 1 1\nedge 0 4 1 1\nedge 1 2 1 1\n",
     "line 4: edge (0,4) out of range"),
    ("problem eds-general\nedge 1 1 1 1\nnodes 3\nnode 0 1\n",
     "line 2: self-loop at node 1"),
    ("problem eds-general\nnodes 3\nedge 0 1 1 1\nedge 1 0 1 1\n\nedge 1 2 1 1\n",
     "line 4: duplicate edge (1,0)"),
    ("problem multicut-tree\nnodes 3\ndemand 1 2 1\ndemand 0 3 inf\nedge 0 1 1\nedge 0 2 1\n",
     "line 4: demand 1 endpoints out of range"),
    ("problem multicut-tree\nnodes 3\ndemand 1 1 1\nedge 0 1 1\nedge 0 2 1\n",
     "line 3: demand 0 has identical endpoints"),
]


@pytest.mark.parametrize("text,message", ROW_ERRORS)
def test_row_errors_are_reported_at_their_line(text, message):
    with pytest.raises(ParseError) as err:
        parse_instance(text)
    assert str(err.value) == message


# -- number tokens ----------------------------------------------------------

#: Every place a number token can stand: the file with ``{}`` for the token,
#: the token's line, whether ``inf`` is allowed there, and how to read the
#: parsed value back.
NUMBER_SLOTS = {
    "eds-tree node": ("problem eds-tree\nnodes 2\nnode 0 {}\nedge 0 1 1 1\n",
                      3, False, lambda i: rat_weights(i)[0][0]),
    "eds-tree edge": ("problem eds-tree\nnodes 2\nedge 0 1 {} 1\n",
                      3, False, lambda i: rat_weights(i)[1][1]),
    "eds-tree penalty": ("problem eds-tree\nnodes 2\nedge 0 1 1 {}\n",
                         3, True, lambda i: rat_weights(i)[2][1]),
    "eds-general edge": ("problem eds-general\nnodes 2\nedge 0 1 {} 1\n",
                         3, False, lambda i: rat_weights(i)[1][0]),
    "eds-general penalty": ("problem eds-general\nnodes 2\nnode 1 2\nedge 0 1 1 {}\n",
                            4, True, lambda i: rat_weights(i)[2][0]),
    "multicut edge": ("problem multicut-tree\nnodes 2\nedge 0 1 {}\n",
                      3, False, lambda i: rat_weights(i)[1][1]),
    "multicut demand": ("problem multicut-tree\nnodes 2\nedge 0 1 1\ndemand 0 1 {}\n",
                        4, True, lambda i: i.demands[0].penalty),
    "set cost": ("problem set-cover\nnodes 1\nset {} 0\n", 3, False, lambda i: i.sets[0][0]),
    "facility opening": ("problem facility-location\nfacility 0 {}\nclient 0\n",
                         2, False, lambda i: i.opening[0]),
    "conn cost": ("problem facility-location\nfacility 0 1\nclient 0\nconn 0 0 {}\n",
                  4, False, lambda i: i.conn[(0, 0)]),
}

ACCEPTED_NUMBERS = [
    ("0/7", ZERO), ("+4", Rat(4)), ("-0", ZERO), ("1_000", Rat(1000)),
    ("٣", Rat(3)), ("2/4", Rat(1, 2)), ("6/3", Rat(2)), ("+1/+3", Rat(1, 3)),
]

_HUGE = "7" * 5000
REJECTED_NUMBERS = [
    ("1/0", "denominator must be positive in '1/0'"),
    ("2/-3", "denominator must be positive in '2/-3'"),
    ("1.5", "malformed rational '1.5'"),
    ("1e3", "malformed rational '1e3'"),
    ("nan", "malformed rational 'nan'"),
    ("-inf", "malformed rational '-inf'"),
    ("INF", "malformed rational 'INF'"),
    ("inf/2", "malformed rational 'inf/2'"),
    ("1/2/3", "malformed rational '1/2/3'"),
    ("3/", "malformed rational '3/'"),
    ("-1", "negative value '-1' not allowed here"),
    ("-2/4", "negative value '-2/4' not allowed here"),
    (_HUGE, f"malformed rational '{_HUGE}'"),
    (f"1/{_HUGE}", f"malformed rational '1/{_HUGE}'"),
]


@pytest.mark.parametrize("slot", sorted(NUMBER_SLOTS))
def test_number_tokens_accepted_with_their_values(slot):
    template, _, allow_inf, read = NUMBER_SLOTS[slot]
    for token, value in ACCEPTED_NUMBERS:
        got = read(parse_instance(template.format(token)))
        assert got == value and not is_inf(got), token
    if allow_inf:
        assert is_inf(read(parse_instance(template.format("inf"))))


@pytest.mark.parametrize("slot", sorted(NUMBER_SLOTS))
def test_number_tokens_rejected_with_their_messages(slot):
    template, lineno, allow_inf, _ = NUMBER_SLOTS[slot]
    cases = list(REJECTED_NUMBERS)
    if not allow_inf:
        cases.append(("inf", "'inf' is not allowed here"))
    for token, message in cases:
        with pytest.raises(ParseError) as err:
            parse_instance(template.format(token))
        assert str(err.value) == f"line {lineno}: {message}", token[:20]


# -- integer units ----------------------------------------------------------

#: Weights over mixed denominators, zero among them.
_MIXED = st.builds(Rat, st.integers(0, 30), st.sampled_from([1, 2, 3, 4, 6, 9, 10]))


@settings(max_examples=150, deadline=None, database=None)
@given(st.one_of(small_eds(max_nodes=9, tree=True, weights=_MIXED),
                 small_eds(max_nodes=6, tree=False, weights=_MIXED),
                 small_multicuts(max_nodes=8, node_weights=_MIXED, weights=_MIXED)))
def test_integer_units_match_the_weights(inst):
    cut = isinstance(inst, MulticutInstance)
    columns = rat_weights(inst)
    if cut:  # a demand's penalty is its penalty units over the scale
        assert columns[2] == {i: d.penalty for i, d in enumerate(inst.demands)}
    finite = [w for column in columns for w in column.values() if not is_inf(w)]
    scale = inst.scale
    # scale is the least positive integer that clears every denominator
    assert all((w * scale).denominator == 1 for w in finite)
    assert not any(all((w * s).denominator == 1 for w in finite) for s in range(1, scale))
    # the units are canonical: the rationals they stand for give them again
    rebuilt = (MulticutInstance(inst.tree, *columns[:2], inst.demands) if cut
               else EdsInstance(inst.graph, *columns))
    units = (scale, inst.node_units, inst.edge_units, inst.penalty_units)
    assert (rebuilt.scale, rebuilt.node_units, rebuilt.edge_units, rebuilt.penalty_units) == units

    parsed = parse_instance(serialize_instance(inst))
    assert parsed == inst
    assert (parsed.scale, parsed.node_units, parsed.edge_units, parsed.penalty_units) == units
    # what `solve --certificate` prints and writes
    (lines, cert), (parsed_lines, parsed_cert) = cli._solve(inst), cli._solve(parsed)
    assert lines == parsed_lines
    assert serialize_certificate(cert) == serialize_certificate(parsed_cert)


GEN_CASES = [
    ("star-gap-eds", {"n": 4}),
    ("subdivided-star-multicut", {"n": 3}),
    ("random-tree-eds", {"n": 7, "seed": 3}),
    ("random-tree-multicut", {"n": 7, "k": 3, "seed": 3}),
    ("random-eds-general", {"n": 5, "m": 6, "seed": 3}),
    ("random-set-cover", {"n": 4, "m": 4, "seed": 3}),
    ("random-facility-location", {"clients": 3, "facilities": 2, "seed": 3}),
]


@pytest.mark.parametrize("kind,params", GEN_CASES)
def test_serialize_parse_round_trip(kind, params):
    inst = gen_instance(kind, **params)
    text = serialize_instance(inst)
    again = parse_instance(text)
    assert again == inst
    assert serialize_instance(again) == text


_GEN_TEXTS = [serialize_instance(gen_instance(kind, **params)) for kind, params in GEN_CASES]


@settings(max_examples=700, deadline=None, database=None)
@given(edited_texts(_GEN_TEXTS))
def test_edited_instance_files_parse_or_raise_parse_error(text):
    try:
        parse_instance(text)
    except ParseError:
        pass


# -- generators -------------------------------------------------------------


def test_star_gap_shape_and_optimum():
    inst = gen_instance("star-gap-eds", n=4)
    assert inst.graph.n == 5
    assert len(inst.graph.edge_ids()) == 4
    node_weight, _, penalty = rat_weights(inst)
    assert node_weight[0] == 1
    assert all(node_weight[v] == 0 for v in range(1, 5))
    assert all(is_inf(p) for p in penalty.values())
    assert brute_force_eds(inst).total == 1


def test_subdivided_star_shape():
    inst = gen_instance("subdivided-star-multicut", n=4)
    assert inst.tree.n == 9
    assert len(inst.tree.edge_ids()) == 8
    assert len(inst.demands) == 6  # all leaf pairs
    assert sum(1 for w in rat_weights(inst)[0].values() if w == 1) == 4


def test_generator_determinism():
    a = gen_instance("random-tree-eds", n=6, seed=7)
    b = gen_instance("random-tree-eds", n=6, seed=7)
    assert a == b
    c = gen_instance("random-tree-eds", n=6, seed=8)
    assert a != c


def test_star_kinds_need_two_leaves():
    with pytest.raises(InstanceError):
        gen_instance("star-gap-eds", n=1)
    with pytest.raises(InstanceError):
        gen_instance("subdivided-star-multicut", n=1)


@pytest.mark.parametrize("kind", GEN_KINDS)
def test_every_generator_kind_runs_with_default_parameters(kind):
    text = serialize_instance(gen_instance(kind))
    assert serialize_instance(parse_instance(text)) == text


def test_unknown_kind_rejected():
    with pytest.raises(InstanceError):
        gen_instance("no-such-kind")


def test_problem_kind_names():
    assert problem_kind(gen_instance("star-gap-eds", n=2)) == "eds-tree"
    assert problem_kind(gen_instance("subdivided-star-multicut", n=2)) == "multicut-tree"
    assert problem_kind(gen_instance("random-eds-general", n=4, m=3)) == "eds-general"
    assert problem_kind(gen_instance("random-set-cover")) == "set-cover"
    assert problem_kind(gen_instance("random-facility-location")) == "facility-location"


# -- reductions to edge domination ------------------------------------------


def test_single_set_cover_reduction():
    sc = SetCoverInstance(2, [(Rat(5), frozenset({0, 1}))])
    red = reduce_to_eds(sc)
    assert all(is_inf(p) for p in rat_weights(red.instance)[2].values())
    sol = brute_force_eds(red.instance)
    assert sol.total == 5
    assert not (set(sol.edges) & red.big_m_edges)


def test_single_client_facility_reduction():
    fl = FacilityLocationInstance(1, 1, [Rat(2)], {(0, 0): Rat(3)})
    red = reduce_to_eds(fl)
    sol = brute_force_eds(red.instance)
    assert sol.total == 5
    assert not (set(sol.edges) & red.big_m_edges)


def test_big_m_value():
    fl = FacilityLocationInstance(1, 1, [Rat(2)], {(0, 0): Rat(3)})
    red = reduce_to_eds(fl)
    assert red.big_m == 1 + 2 + 3


def test_set_cover_needs_an_element():
    with pytest.raises(InstanceError, match="at least one element"):
        SetCoverInstance(0, [])


def test_empty_family_is_big_m_dominated():
    sc = SetCoverInstance(2, [])
    red = reduce_to_eds(sc)
    sol = brute_force_eds(red.instance)
    assert sol.total >= red.big_m
    assert set(sol.edges) <= red.big_m_edges


def test_uncovered_client_is_big_m_dominated():
    fl = FacilityLocationInstance(1, 1, [Rat(2)], {})  # client 0 unreachable
    red = reduce_to_eds(fl)
    sol = brute_force_eds(red.instance)
    assert sol.total >= red.big_m
