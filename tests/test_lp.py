"""Exact simplex: optima, infeasibility, unboundedness, and model validation."""

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from graphcover import INF, LpFormatError, LpModel, Rat, simplex_solve
from graphcover import lp
from graphcover.lp import INFEASIBLE, OPTIMAL, UNBOUNDED, dual_model
from graphcover.rationals import ZERO


def test_single_binding_constraint():
    m = LpModel("t1")
    m.add_var("x", obj=Rat(1))
    m.add_constraint("lb", {"x": Rat(1)}, ">=", Rat(3))
    res = simplex_solve(m)
    assert res.status == OPTIMAL
    assert res.value == 3
    assert res["x"] == 3


def test_maximize_up_to_capacity():
    m = LpModel("t2", sense="max")
    m.add_var("x", obj=Rat(1))
    m.add_var("y", obj=Rat(1))
    m.add_constraint("cap", {"x": Rat(1), "y": Rat(1)}, "<=", Rat(5, 2))
    res = simplex_solve(m)
    assert res.status == OPTIMAL
    assert res.value == Rat(5, 2)
    assert res["x"] + res["y"] == Rat(5, 2)


def test_contradictory_bounds_infeasible():
    m = LpModel("t3")
    m.add_var("x")
    m.add_constraint("lo", {"x": Rat(1)}, ">=", Rat(1))
    m.add_constraint("hi", {"x": Rat(1)}, "<=", ZERO)
    assert simplex_solve(m).status == INFEASIBLE


def test_unbounded_detected():
    m = LpModel("t4", sense="max")
    m.add_var("x", obj=Rat(1))
    m.add_constraint("lo", {"x": Rat(1)}, ">=", ZERO)
    assert simplex_solve(m).status == UNBOUNDED


def test_fractional_optimum_is_exact():
    # min 3x + 5y  s.t.  x + 2y >= 1,  2x + y >= 1  ->  x = y = 1/3
    m = LpModel("t5")
    m.add_var("x", obj=Rat(3))
    m.add_var("y", obj=Rat(5))
    m.add_constraint("a", {"x": Rat(1), "y": Rat(2)}, ">=", Rat(1))
    m.add_constraint("b", {"x": Rat(2), "y": Rat(1)}, ">=", Rat(1))
    res = simplex_solve(m)
    assert res.status == OPTIMAL
    assert res.value == Rat(8, 3)
    assert res["x"] == Rat(1, 3) and res["y"] == Rat(1, 3)


def _check_assignment(model, res):
    for c in model.constraints:
        lhs = sum((coef * res.assignment[v] for v, coef in c.coeffs.items()), ZERO)
        if c.relation == "<=":
            assert lhs <= c.rhs, c.name
        else:
            assert lhs >= c.rhs, c.name
    for v in model.variables:
        assert res.assignment[v] >= 0
    obj = sum(
        (coef * res.assignment[v] for v, coef in model.objective.items()), ZERO
    )
    assert obj == res.value


def test_random_models_satisfy_constraints_exactly():
    """Returned assignments obey every row with zero tolerance."""
    solved = 0
    for seed in range(40):
        rng = random.Random(seed)
        m = LpModel(f"rand{seed}", sense=rng.choice(["min", "max"]))
        nv = rng.randint(1, 4)
        for i in range(nv):
            m.add_var(f"v{i}", obj=Rat(rng.randint(-3, 5)))
        for j in range(rng.randint(1, 5)):
            coeffs = {
                f"v{i}": Rat(rng.randint(-2, 3))
                for i in range(nv)
                if rng.random() < 0.8
            }
            m.add_constraint(
                f"c{j}", coeffs, rng.choice(["<=", ">="]), Rat(rng.randint(-2, 6))
            )
        res = simplex_solve(m)
        if res.status == OPTIMAL:
            _check_assignment(m, res)
            solved += 1
    assert solved >= 10


def test_duplicate_variable_rejected():
    m = LpModel("dup")
    m.add_var("x")
    with pytest.raises(LpFormatError):
        m.add_var("x")


def test_unknown_variable_rejected():
    m = LpModel("unk")
    m.add_var("x")
    with pytest.raises(LpFormatError):
        m.add_constraint("c", {"y": Rat(1)}, ">=", ZERO)


def test_float_coefficients_rejected():
    """A coefficient is exact and finite."""
    m = LpModel("flt")
    m.add_var("x")
    with pytest.raises(LpFormatError):
        m.add_constraint("c", {"x": 0.5}, ">=", ZERO)
    with pytest.raises(LpFormatError, match="infinite objective coefficient of y"):
        m.add_var("y", obj=INF)


@pytest.mark.parametrize("relation", [">", "=="])
def test_bad_relation_rejected(relation):
    m = LpModel("rel")
    m.add_var("x")
    with pytest.raises(LpFormatError):
        m.add_constraint("c", {"x": Rat(1)}, relation, ZERO)


# -- against exhaustive vertex enumeration ------------------------------------


def _costs(model, objective, width, sign=1):
    """``sign * objective`` as a standard-form cost vector."""
    c = [sign * Fraction(objective.get(v, 0)) for v in model.variables]
    return c + [Fraction(0)] * (width - len(c))


def _dot(c, y):
    return sum((ci * yi for ci, yi in zip(c, y)), Fraction(0))


def _standard_form(model):
    """``A y = b, y >= 0, minimise c.y``: one column per variable, then one
    slack column per row, all in Fraction."""
    nv = len(model.variables)
    width = nv + len(model.constraints)
    a_rows, b = [], []
    for i, con in enumerate(model.constraints):
        row = [Fraction(con.coeffs.get(v, 0)) for v in model.variables]
        row += [Fraction(0)] * (width - nv)
        row[nv + i] = Fraction(1 if con.relation == "<=" else -1)
        a_rows.append(row)
        b.append(Fraction(con.rhs))
    sign = 1 if model.sense == "min" else -1
    return a_rows, b, _costs(model, model.objective, width, sign), width


def _unique_solution(a_rows, b, cols):
    """The unique y with ``A[:, cols] y = b``, or None."""
    rows = [[row[j] for j in cols] + [bi] for row, bi in zip(a_rows, b)]
    k = len(cols)
    for j in range(k):
        piv = next((i for i in range(j, len(rows)) if rows[i][j] != 0), None)
        if piv is None:
            return None
        rows[j], rows[piv] = rows[piv], rows[j]
        rows[j] = [x / rows[j][j] for x in rows[j]]
        for i, row in enumerate(rows):
            if i != j and row[j] != 0:
                rows[i] = [x - row[j] * y for x, y in zip(row, rows[j])]
    if any(row[k] != 0 for row in rows[k:]):
        return None
    return [row[k] for row in rows[:k]]


def _basic_feasible_solutions(a_rows, b, width):
    for k in range(min(len(a_rows), width) + 1):
        for cols in combinations(range(width), k):
            y = _unique_solution(a_rows, b, cols)
            if y is not None and all(x >= 0 for x in y):
                full = [Fraction(0)] * width
                for j, x in zip(cols, y):
                    full[j] = x
                yield full


def _vertex_enumeration(model):
    """(status, optimal value) from every basic feasible solution, and from
    every extreme ray ``d >= 0, A d = 0, sum d = 1`` for unboundedness."""
    a_rows, b, c, width = _standard_form(model)
    values = [_dot(c, y) for y in _basic_feasible_solutions(a_rows, b, width)]
    if not values:
        return INFEASIBLE, None
    if any(_dot(c, d) < 0 for d in _extreme_rays(a_rows, width)):
        return UNBOUNDED, None
    return OPTIMAL, min(values) if model.sense == "min" else -min(values)


def _extreme_rays(a_rows, width):
    """The extreme rays ``d >= 0, A d = 0``, scaled to ``sum d = 1``."""
    return _basic_feasible_solutions(
        a_rows + [[Fraction(1)] * width], [Fraction(0)] * len(a_rows) + [Fraction(1)], width
    )


def _tiebreak_enumeration(model):
    """For a model with an optimum: the least tie-break value over the
    optimal vertices and the distinct assignments reaching it, or None when
    the tie-break falls along a ray of the optimal face."""
    a_rows, b, c, width = _standard_form(model)
    t = _costs(model, model.tiebreak, width)
    if any(_dot(c, d) == 0 and _dot(t, d) < 0 for d in _extreme_rays(a_rows, width)):
        return None
    vertices = list(_basic_feasible_solutions(a_rows, b, width))
    best = min(_dot(c, y) for y in vertices)
    face = [y for y in vertices if _dot(c, y) == best]
    least = min(_dot(t, y) for y in face)
    minimisers = set()
    for y in face:
        if _dot(t, y) == least:
            minimisers.add(tuple(zip(model.variables, y)))
    return least, [dict(x) for x in minimisers]


_rationals = st.one_of(
    st.just(Fraction(0)),
    st.integers(-3, 3).map(Fraction),
    st.fractions(-3, 3, max_denominator=7),
).map(lambda q: Rat(q.numerator, q.denominator))


@st.composite
def _small_models(draw):
    """At most 3 variables and 5 rows of either relation; zero and negative
    right-hand sides are common, and so are ties for the objective's optimum
    that the tie-break objective has to settle."""
    nv = draw(st.integers(1, 3))
    model = LpModel("prop", sense=draw(st.sampled_from(["min", "max"])))
    for i in range(nv):
        model.add_var(f"x{i}", obj=draw(_rationals), tiebreak=draw(_rationals))
    for j in range(draw(st.integers(1, 5))):
        coeffs = {f"x{i}": draw(_rationals) for i in range(nv)}
        relation = draw(st.sampled_from(["<=", ">="]))
        model.add_constraint(f"c{j}", coeffs, relation, draw(st.one_of(st.just(ZERO), _rationals)))
    return model


@settings(max_examples=150, deadline=None, database=None)
@given(_small_models())
def test_simplex_matches_vertex_enumeration(model):
    """Status and optimum as enumerated; the tie-break takes its least value
    over the optimal vertices, at the one minimiser when there is one, and
    is reported unbounded when it falls along the optimal face."""
    res = simplex_solve(model)
    status, value = _vertex_enumeration(model)
    tiebreak = _tiebreak_enumeration(model) if status == OPTIMAL else None
    if status == OPTIMAL and tiebreak is None:
        status = UNBOUNDED
    assert res.status == status
    if status == OPTIMAL:
        assert res.value == value
        assert isinstance(res.value, Rat)
        assert all(isinstance(x, Rat) for x in res.assignment.values())
        _check_assignment(model, res)
        least, minimisers = tiebreak
        assert _dot([model.tiebreak.get(v, 0) for v in model.variables],
                    [res[v] for v in model.variables]) == least
        if len(minimisers) == 1:
            assert res.assignment == minimisers[0]


def _lexicographic_enumeration(model):
    """For a model whose tie-break has a least value: the lexicographically
    least assignment, in variable order, over the optimal vertices that
    reach it.  That point of the face is a vertex of it: fixing the
    variables one by one at their least values leaves a single point."""
    _, minimisers = _tiebreak_enumeration(model)
    return min(minimisers, key=lambda point: [point[v] for v in model.variables])


@st.composite
def _wide_faces(draw):
    """Up to 5 variables and 4 rows of small integers with a zero or 0/1
    objective, so that the optimal face is often wide and the least point
    takes several stages that each pivot."""
    nv = draw(st.integers(2, 5))
    model = LpModel("face")
    for i in range(nv):
        model.add_var(f"x{i}", obj=draw(st.sampled_from([0, 0, 1])))
    for j in range(draw(st.integers(1, 4))):
        coeffs = {f"x{i}": draw(st.integers(-1, 2)) for i in range(nv)}
        relation = draw(st.sampled_from(["<=", ">=", ">="]))
        model.add_constraint(f"c{j}", coeffs, relation, draw(st.integers(0, 3)))
    return model


def _lexicographic_accepts(model):
    """No tie-break, and no cost of the wrong sign for the sense."""
    sign = 1 if model.sense == "min" else -1
    return not model.tiebreak and all(sign * c >= 0 for c in model.objective.values())


def _without_tiebreak(model):
    model.tiebreak = {}
    return model


@settings(max_examples=200, deadline=None, database=None)
@given(
    st.one_of(_small_models().map(_without_tiebreak).filter(_lexicographic_accepts),
              _wide_faces()),
    st.sampled_from(["objective", "neither"]),
)
def test_lexicographic_solve_is_the_least_optimal_vertex(model, keep):
    """With ``lexicographic`` set, the optimum returned is the
    lexicographically least one, the status and value are the plain
    solve's, and the dual optimum returned with it is feasible for the
    dual at the same value.  Without an objective the whole feasible
    region is the optimal face, so every variable's place counts."""
    if keep == "neither":
        model.objective = {}
    plain = simplex_solve(model)
    model.lexicographic = True
    res = simplex_solve(model)
    assert (res.status, res.value) == (plain.status, plain.value)
    if res.status == OPTIMAL:
        _check_assignment(model, res)
        assert res.assignment == _lexicographic_enumeration(model)
        dual = dual_model(model)
        assert list(res.duals) == dual.variables
        _check_assignment(dual, lp.LpResult(OPTIMAL, res.value, res.duals))


def _refused(change):
    m = LpModel("refused", lexicographic=True)
    m.add_var("x", obj=Rat(1), tiebreak=Rat(1) if change == "tiebreak" else 0)
    m.add_var("y", obj=Rat(-1) if change == "negative-cost" else Rat(2))
    m.add_constraint("c", {"x": Rat(1), "y": Rat(1)}, "<=", Rat(1))
    if change == "max":
        m.sense = "max"
    return m


@pytest.mark.parametrize("change", ["tiebreak", "negative-cost", "max"])
def test_lexicographic_refuses_a_model_whose_dual_starts_infeasible(change):
    """A tie-break or a cost of the wrong sign for the sense (a negative
    one to minimise, a positive one to maximise) is refused."""
    with pytest.raises(LpFormatError, match="lexicographic"):
        simplex_solve(_refused(change))
    m = _refused(change)
    m.lexicographic = False
    assert simplex_solve(m).status == OPTIMAL


@settings(max_examples=150, deadline=None, database=None)
@given(_small_models())
def test_dual_model_obeys_strong_duality(model):
    """Against the primal's vertex enumeration: equal optima, an unbounded
    or infeasible dual of an infeasible primal, an infeasible dual of an
    unbounded one."""
    status, value = _vertex_enumeration(model)
    dual = simplex_solve(dual_model(model))
    if status == OPTIMAL:
        assert (dual.status, dual.value) == (OPTIMAL, value)
    elif status == INFEASIBLE:
        assert dual.status in (UNBOUNDED, INFEASIBLE)
    else:
        assert dual.status == INFEASIBLE


def test_dual_model_transposes_and_keeps_the_name():
    m = LpModel("fam", sense="max")
    m.add_var("x", obj=Rat(2))
    m.add_var("f", obj=Rat(-1))
    m.add_constraint("ge", {"x": Rat(1), "f": Rat(3)}, ">=", Rat(1))
    m.add_constraint("le", {"x": Rat(1, 2)}, "<=", Rat(4))
    m.add_constraint("cap", {"x": Rat(1), "f": Rat(-1)}, "<=", ZERO)
    d = dual_model(m)
    assert (d.name, d.sense, d.variables) == ("fam", "min", ["ge", "le", "cap"])
    # the max primal is negated: a "<=" row flips its sign twice, and the
    # rows read <= -c; a zero rhs leaves no objective term
    assert d.objective == {"ge": Rat(-1), "le": Rat(4)}
    assert [(c.name, c.coeffs, c.relation, c.rhs) for c in d.constraints] == [
        ("x", {"ge": Rat(1), "le": Rat(-1, 2), "cap": Rat(-1)}, "<=", Rat(-2)),
        ("f", {"ge": Rat(3), "cap": Rat(1)}, "<=", Rat(1)),
    ]
    # x <= 8 from "le", f >= x from "cap": 2x - f peaks at x = f = 8
    assert simplex_solve(d).value == simplex_solve(m).value == 8


def test_dual_model_rejects_duplicate_row_names():
    m = LpModel("dup")
    m.add_var("x")
    m.add_constraint("c", {"x": Rat(1)}, ">=", ZERO)
    m.add_constraint("c", {"x": Rat(1)}, "<=", Rat(1))
    with pytest.raises(LpFormatError):
        dual_model(m)
    m.sense = "foo"  # refused by the dual and the solver alike
    for refuses in (dual_model, simplex_solve):
        with pytest.raises(LpFormatError, match="bad sense 'foo'"):
            refuses(m)


def _beale():
    m = LpModel("beale")
    for var, cost in zip("abcd", (Rat(-3, 4), Rat(20), Rat(-1, 2), Rat(6))):
        m.add_var(var, obj=cost)
    m.add_constraint("r1", {"a": Rat(1, 4), "b": Rat(-8), "c": Rat(-1), "d": Rat(9)}, "<=", ZERO)
    m.add_constraint("r2", {"a": Rat(1, 2), "b": Rat(-12), "c": Rat(-1, 2), "d": Rat(3)}, "<=", ZERO)
    m.add_constraint("r3", {"c": Rat(1)}, "<=", Rat(1))
    return m


def test_beale_cycling_example_reaches_blands_rule(monkeypatch):
    """Beale's example cycles under the most-negative-cost rule; after more
    than 40 degenerate pivots in a row Bland's rule breaks the cycle."""
    degenerate = []
    pivot = lp._pivot

    def counting(tab, basis, cost, r, c, holders):
        degenerate.append(tab[r].b == 0)
        pivot(tab, basis, cost, r, c, holders)

    monkeypatch.setattr(lp, "_pivot", counting)
    m = _beale()
    res = simplex_solve(m)
    assert (res.status, res.value) == (OPTIMAL, Rat(-5, 4)) == _vertex_enumeration(m)
    assert degenerate[:41] == [True] * 41
    assert len(degenerate) < 50
    _check_assignment(m, res)


# -- pivot choices against full scans -----------------------------------------


def _scan_choice(tab, basis, cost, bland, lex=None):
    """The entering column and leaving row by a scan of the whole cost row
    and every row in order: the most negative cost (the least negative
    column under Bland's rule), then the least ratio, ties to the least
    basis index, or, given ``lex``, the least row over its pivot cell in
    the order of its rhs and then its cells from column ``lex`` on, as
    Fractions; -1 for none."""
    negative = [(x, j) for j, x in cost.a.items() if x < 0]
    if not negative:
        return -1, -1
    enter = min(j for _, j in negative) if bland else min(negative)[1]
    if lex is not None:
        later = sorted({j for row in tab for j in row.a if j >= lex})
        keys = [([Fraction(row.b, row.a[enter])]
                 + [Fraction(row.a.get(j, 0), row.a[enter]) for j in later], i)
                for i, row in enumerate(tab) if row.a.get(enter, 0) > 0]
        return enter, min(keys)[1] if keys else -1
    leave = -1
    best_b = best_a = 0
    for i, row in enumerate(tab):
        a = row.a.get(enter, 0)
        if a > 0:
            if leave >= 0:
                lhs = row.b * best_a
                rhs = best_b * a
                if lhs > rhs or (lhs == rhs and basis[i] > basis[leave]):
                    continue
            leave = i
            best_b = row.b
            best_a = a
    return enter, leave


def _assert_index(tab, cols):
    """Each row holding a column is in that column's set."""
    assert len(cols) > max((j for row in tab for j in row.a), default=-1)
    for i, row in enumerate(tab):
        for j in row.a:
            assert i in cols[j]


def _solve_with_checked_pivots(model):
    """Solve ``model`` checking every pivot, and the end of each run of
    pivots under one cost row, against :func:`_scan_choice` (Bland's rule
    after more than 40 degenerate pivots in a row).  Before and after each
    pivot every row holding a column must be in that column's set, and
    after it the entering column's set must be the pivot row alone.  A
    lexicographic model's ratio test is checked with its ``lex`` column
    and never falls back to Bland's rule.  Returns the result and the
    number of pivots under Bland's rule."""
    art_start = len(model.variables) + len(model.constraints)
    pivot, until_optimal = lp._pivot, lp._pivot_until_optimal
    run = {"cost": None, "stalled": 0, "bland": 0, "lex": None}

    def checked(tab, basis, cost, r, c, cols):
        _assert_index(tab, cols)
        if not cost.a:  # driving artificials out, in row order
            assert r == min(i for i, col in enumerate(basis) if col >= art_start)
            assert c == min(j for j in tab[r].a if j < art_start)
        else:
            if cost is not run["cost"]:
                run.update(cost=cost, stalled=0)
            bland = run["stalled"] > 40 and run["lex"] is None
            assert (c, r) == _scan_choice(tab, basis, cost, bland, run["lex"])
            run["bland"] += bland
            if not bland:
                run["stalled"] = run["stalled"] + 1 if tab[r].b == 0 else 0
        pivot(tab, basis, cost, r, c, cols)
        _assert_index(tab, cols)
        assert cols[c] == {r}

    def finished(tab, basis, cost, cols, lex=None):
        run["lex"] = lex
        status = until_optimal(tab, basis, cost, cols, lex=lex)
        bland = run["cost"] is cost and run["stalled"] > 40 and lex is None
        enter, leave = _scan_choice(tab, basis, cost, bland, lex)
        assert status == (OPTIMAL if enter < 0 else UNBOUNDED) and leave < 0
        return status

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lp, "_pivot", checked)
        mp.setattr(lp, "_pivot_until_optimal", finished)
        return simplex_solve(model), run["bland"]


_coefficients = st.one_of(
    st.integers(-3, 3),
    st.fractions(-3, 3, max_denominator=4).map(lambda q: Rat(q.numerator, q.denominator)),
)


@st.composite
def _degenerate_models(draw):
    """Up to 8 variables and 8 rows, where every cost favours entering:
    mostly packing rows (nonnegative ``<=``), the rest of any sign and
    relation, and zero right-hand sides are common, so many pivots are
    degenerate and tie on costs and ratios.  Half the models have rows of
    -1, 0 and 1, whose pivots mostly leave the cost row unscaled, and half
    small fractions, whose pivots mostly rescale it; half carry a
    tie-break."""
    nv = draw(st.integers(2, 8))
    model = LpModel("scan", sense=draw(st.sampled_from(["min", "max"])))
    sign = 1 if model.sense == "max" else -1
    tiebreak = draw(st.booleans())
    row_coefficients = st.integers(-1, 1) if draw(st.booleans()) else _coefficients
    for i in range(nv):
        obj = sign * abs(draw(_coefficients))
        model.add_var(f"x{i}", obj=obj, tiebreak=draw(_coefficients) if tiebreak else 0)
    for j in range(draw(st.integers(2, 8))):
        packing = draw(st.integers(0, 2)) > 0
        coeffs = {f"x{i}": draw(row_coefficients) for i in range(nv)}
        if packing:
            coeffs = {var: abs(c) for var, c in coeffs.items()}
        relation = "<=" if packing else draw(st.sampled_from(["<=", ">="]))
        rhs = draw(st.one_of(st.just(0), st.integers(1, 4)))
        model.add_constraint(f"c{j}", coeffs, relation, rhs)
    return model


@settings(max_examples=200, deadline=None, database=None)
@given(_degenerate_models())
def test_pivot_choices_match_full_scans(model):
    """Each pivot enters and leaves where a scan of the whole cost row and
    of every row would, each run of pivots stops where such a scan would,
    and the column index covers the rows' supports."""
    _solve_with_checked_pivots(model)


@settings(max_examples=100, deadline=None, database=None)
@given(_degenerate_models())
def test_lexicographic_pivot_choices_match_full_scans(model):
    """The same, for the dual solve of a lexicographic model: the model's
    costs are negated, so that its dual starts feasible, and its tie-break
    dropped.  Its zero costs make the dual's ratio test tie often."""
    model.objective = {v: -c for v, c in model.objective.items()}
    model.tiebreak = {}
    model.lexicographic = True
    res, bland = _solve_with_checked_pivots(model)
    assert bland == 0
    if res.status == OPTIMAL:
        _check_assignment(model, res)


def test_pivot_choices_match_full_scans_under_blands_rule():
    res, bland = _solve_with_checked_pivots(_beale())
    assert (res.status, res.value) == (OPTIMAL, Rat(-5, 4))
    assert bland > 0


def test_a_long_run_of_blands_rule_matches_full_scans():
    """Beale's example starts Bland's rule, which then walks a chain of
    degenerate rows y(i) <= y(i+1) beside it, up to y(n-1) <= 1, to raise
    y(0): each pivot turns the next column's cost negative, and every
    pivot enters where a full scan would."""
    m = _beale()
    n = 120
    for i in range(n):
        m.add_var(f"y{i}", obj=Rat(-1, 1000) if i == 0 else 0)
    for i in range(n - 1):
        m.add_constraint(f"chain{i}", {f"y{i}": 1, f"y{i + 1}": -1}, "<=", 0)
    m.add_constraint("top", {f"y{n - 1}": 1}, "<=", 1)
    res, bland = _solve_with_checked_pivots(m)
    assert (res.status, res.value) == (OPTIMAL, Rat(-5, 4) - Rat(1, 1000))
    assert bland > 100


# -- the first stage -----------------------------------------------------------


def _leading(model, stage):
    """The model with every row after the first ``stage`` removed."""
    restricted = LpModel("leading", sense=model.sense)
    for v in model.variables:
        restricted.add_var(v, obj=model.objective.get(v, 0))
    for c in model.constraints[:stage]:
        restricted.add_constraint(c.name, c.coeffs, c.relation, c.rhs)
    return restricted


@settings(max_examples=150, deadline=None, database=None)
@given(
    st.one_of(_small_models().map(_without_tiebreak).filter(_lexicographic_accepts),
              _wide_faces()),
    st.data(),
)
def test_stage_value_is_the_optimum_over_the_leading_rows(model, data):
    """A staged lexicographic solve reports the optimum of the model
    restricted to its leading rows, or, where that restriction is
    infeasible, an infeasible model and no stage value; otherwise it
    reaches the unstaged solve's status, value and point."""
    model.lexicographic = True
    plain = simplex_solve(model)
    model.stage = data.draw(st.integers(0, len(model.constraints)))
    res = simplex_solve(model)
    status, value = _vertex_enumeration(_leading(model, model.stage))
    assert status != UNBOUNDED
    if status == INFEASIBLE:
        assert (res.status, res.stage_value) == (INFEASIBLE, None)
        return
    assert res.stage_value == value and isinstance(res.stage_value, Rat)
    assert (res.status, res.value, res.assignment) == (plain.status, plain.value, plain.assignment)


def test_stage_needs_a_lexicographic_model():
    m = LpModel("plain", stage=1)
    m.add_var("x", obj=Rat(1))
    m.add_constraint("lb", {"x": Rat(1)}, ">=", Rat(1))
    with pytest.raises(LpFormatError, match="lexicographic"):
        simplex_solve(m)
    m.lexicographic = True
    assert simplex_solve(m).stage_value == 1


@pytest.mark.parametrize("stage", [-1, 2])
def test_stage_must_count_leading_rows(stage):
    m = LpModel("bad-stage", stage=stage, lexicographic=True)
    m.add_var("x")
    m.add_constraint("lb", {"x": Rat(1)}, ">=", ZERO)
    with pytest.raises(LpFormatError, match="leading rows"):
        simplex_solve(m)


def _staged_at_one(first, second):
    """min x, staged at its first of two rows."""
    m = LpModel("staged", stage=1, lexicographic=True)
    m.add_var("x", obj=Rat(1))
    m.add_constraint("first", {"x": Rat(1)}, *first)
    m.add_constraint("second", {"x": Rat(1)}, *second)
    return m


def test_infeasible_first_stage_reports_an_infeasible_model():
    """x <= -1 alone is infeasible, and so is the model."""
    res = simplex_solve(_staged_at_one(("<=", Rat(-1)), (">=", ZERO)))
    assert (res.status, res.stage_value) == (INFEASIBLE, None)


def test_feasible_first_stage_keeps_its_value_when_the_rest_is_infeasible():
    """x >= 1: the first stage stops at 1, then x <= 0 cannot hold."""
    res = simplex_solve(_staged_at_one((">=", Rat(1)), ("<=", ZERO)))
    assert (res.status, res.stage_value) == (INFEASIBLE, 1)
