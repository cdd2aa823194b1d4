"""Exact linear programming on rationals.

A small sparse two-phase simplex with fraction-free integer rows.  Each
tableau row, the cost row included, holds the integer numerators of its
nonzero cells in a ``{column: int}`` dict, an integer rhs numerator and one
positive denominator shared by the whole row, so the row is ``num / den``.
A model's coefficients are ints or ``Rat`` values: a row of ints is taken
as it is, and any other row is scaled to integers once, when the tableau
is built.  A pivot touches only the rows with a nonzero in the entering
column, and only at the pivot row's nonzero columns, and takes one gcd per
updated row, stopped at 1, instead of one per cell.  Values go back to
``Rat`` only at the end.

So a pivot costs the cells it changes, not the tableau.  A column index
gives the ratio test and the elimination the entering column's rows: a
set per column of the rows holding it, which the rows a pivot clears join
at the pivot row's columns, in one bulk update per column (a row whose
cell cancels stays in the set, and is skipped, until the column next
enters, which costs less than upkeep cell by cell on rows that fill in).
Pricing reads a heap of the negative reduced costs, and Bland's rule a
heap of their columns.  All three choose what a full scan chooses, so the
pivot path is unchanged (README gives timings).

Every comparison is exact (ratios are compared by cross-multiplying
integers) and the pivot rules are fixed: most negative reduced cost, lowest
basis index on equal ratios, Bland's least-index rule after a run of
degenerate pivots, and the least nonzero column when driving artificials
out.  So every solve is deterministic and returns the same vertex as a
dense rational tableau with the same rules, with zero tolerances; Bland's
rule guarantees termination.

A model's tie-break objective is minimised over the optima of its
objective from the same tableau (Isermann, *OR Spektrum* 4, 1982): a
column with a positive reduced cost at the phase-II optimum is zero in
every optimum, so dropping those columns leaves the optimal face, and the
same rules pivot on under the tie-break.  Where the tie-break has one
minimiser on that face, the vertex is that one, whatever the pivot path.

A model may also ask for the lexicographically least optimum in variable
order: ``LpModel.lexicographic``.  It is solved once, through its dual
from the slack basis, with ties in the ratio test broken by the rows'
slack-column cells in row order (Dantzig, Orden, Wolfe, *Pacific J. Math.*
5(2), 1955): the dual of the primal with its costs perturbed by e, e^2,
... in variable order.  So no basis repeats, and the optimal cost row read
at the slack columns is that point, whatever the pivot path; the dual
optimum comes back beside it (``LpResult.duals``).  That dual starts
feasible only with no tie-break and no cost of the wrong sign.

A lexicographic model may also declare a first stage, ``LpModel.stage``:
a count of leading rows.  Those rows are the dual's leading variables, so
phase II first lets only them and the slacks enter, under the same ratio
test, and the optimum there, the model's optimum subject to its leading
rows alone, is reported as ``LpResult.stage_value``; the same tableau then
prices every column and pivots on to the full optimum, the point the
unstaged solve returns.  An infeasible first stage leaves the whole model
infeasible, and the solve reports that with no stage value.

Models hold nonnegative variables and ``<=`` or ``>=`` rows only, so each
variable is one tableau column and each row has one slack (``<=``) or
surplus (``>=``) column after them; a row is first negated if its rhs is
negative, or zero under ``>=``, so artificial columns serve only ``>=``
rows with a positive rhs.

:func:`dual_model` builds a model's exact LP dual, the one a lexicographic
model is solved through.  Every covering-LP value comes from a
lexicographic solve: the relaxation values, staged where the natural
relaxation's rows lead the strengthened one's, and the eds-general
rounding's point.  The multicut step LPs, which carry a tie-break, and the
dual completion, which needs phase I, are solved as they are; each is
built in one pass, straight into its rows, and read back in variable
order, and the completion leaves out the rows that a capacity pays alone
(``relaxations.complete_eds_dual``), so it pivots less.  The
relaxations are priced in integer units, which scales a whole objective,
or a dual's whole right-hand side, by a positive constant and so changes
no pivot choice.  A model with no objective or tie-break is answered at
the end of phase I: driving the artificials out is degenerate.

Infinite data never enters a model: callers eliminate infinities before
building (for example by fixing a variable to zero or omitting a bound).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from typing import Dict, List, Optional

from .rationals import Rat, ZERO, is_inf

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


class LpFormatError(ValueError):
    """Raised for structurally malformed models."""


@dataclass
class LinearConstraint:
    name: str
    coeffs: Dict[str, object]  # var name -> int or Rat
    relation: str  # "<=" or ">="
    rhs: object  # int or Rat


@dataclass
class LpResult:
    status: str
    value: Optional[object] = None  # Rat
    assignment: Optional[Dict[str, object]] = None  # by variable, in the model's order
    stage_value: Optional[object] = None  # Rat, the first stage's optimum
    duals: Optional[Dict[str, object]] = None  # a lexicographic model's dual optimum, by row

    def __getitem__(self, var):
        return self.assignment[var]


@dataclass
class LpModel:
    """A named LP: ordered nonnegative variables, ``<=`` and ``>=`` rows,
    one objective and a tie-break objective minimised over the objective's
    optima.  When ``lexicographic`` is set, the optimum returned is the
    lexicographically least one in variable order, for a model with no
    tie-break; such a model may set ``stage``, a count of leading rows,
    and its objective is then first optimised subject to those rows alone."""

    name: str
    sense: str = "min"
    variables: List[str] = field(default_factory=list)
    objective: Dict[str, object] = field(default_factory=dict)
    constraints: List[LinearConstraint] = field(default_factory=list)
    tiebreak: Dict[str, object] = field(default_factory=dict)
    stage: Optional[int] = None
    lexicographic: bool = False

    def __post_init__(self):
        self._names = set(self.variables)

    def add_var(self, name: str, obj=0, tiebreak=0) -> str:
        if name in self._names:
            raise LpFormatError(f"duplicate variable {name!r}")
        if type(obj) is not int:
            obj = _checked(obj, f"objective coefficient of {name}")
        if type(tiebreak) is not int:
            tiebreak = _checked(tiebreak, f"tie-break coefficient of {name}")
        self.variables.append(name)
        self._names.add(name)
        if obj != 0:
            self.objective[name] = obj
        if tiebreak != 0:
            self.tiebreak[name] = tiebreak
        return name

    def add_constraint(self, name: str, coeffs: Dict[str, object], relation: str, rhs) -> None:
        if relation not in ("<=", ">="):
            raise LpFormatError(f"bad relation {relation!r}")
        if type(rhs) is not int:
            rhs = _checked(rhs, f"rhs of {name}")
        clean = {}
        for var, c in coeffs.items():
            if var not in self._names:
                raise LpFormatError(f"constraint {name!r} references unknown variable {var!r}")
            if type(c) is not int:
                c = _checked(c, f"coefficient of {var} in {name}")
            if c != 0:
                clean[var] = c
        self.constraints.append(LinearConstraint(name, clean, relation, rhs))


def dual_model(model: LpModel) -> LpModel:
    """The LP dual of ``model``, whose optimal value equals the primal's.

    The symmetric dual: for a ``min`` primal, each ``>=`` row becomes a
    dual variable y >= 0 (a ``<=`` row is read as its negation), each
    primal variable a row ``<= c_j``, and the objective is max b.y.  A
    ``max`` primal is negated first and the dual's objective negated back,
    so the dual is a ``min`` with the same optimal value.  The dual's
    variables are named by the primal rows, in row order, and its rows by
    the primal variables, in variable order; the name is the primal's, and
    a tie-break is dropped.

    For a covering primal (``>=`` rows, c >= 0) the dual starts feasible
    from its all-slack basis, so it needs no phase I.  By strong duality a
    primal optimum matches a dual one; an infeasible primal has an
    unbounded or infeasible dual, and an unbounded primal an infeasible one.
    """
    if model.sense not in ("min", "max"):
        raise LpFormatError(f"bad sense {model.sense!r}")
    sign = 1 if model.sense == "min" else -1
    dual = LpModel(name=model.name, sense="max" if sign == 1 else "min")
    columns: Dict[str, Dict[str, object]] = {v: {} for v in model.variables}
    for con in model.constraints:
        y = con.name
        if y in dual._names:
            raise LpFormatError(f"duplicate constraint name {y!r}")
        s = -1 if con.relation == "<=" else 1
        dual.add_var(y, obj=con.rhs if sign == s else -con.rhs)
        for var, coef in con.coeffs.items():
            columns[var][y] = coef if s == 1 else -coef
    for var in model.variables:
        c = model.objective.get(var, 0)
        dual.constraints.append(LinearConstraint(var, columns[var], "<=", c if sign == 1 else -c))
    return dual


def _checked(value, what: str):
    """A coefficient that is not an int, as stored: a Rat as given, another
    finite exact value converted once to a Rat; infinities and floats are
    rejected.  Callers store an int as it is, without this call."""
    if is_inf(value):
        raise LpFormatError(f"infinite {what}; eliminate infinities before building the model")
    if isinstance(value, float):
        raise LpFormatError(f"float {what}; use exact rationals")
    return value if isinstance(value, Rat) else Rat(value)


def simplex_solve(model: LpModel) -> LpResult:
    """Solve the model exactly.  Returns status, optimal value, a full
    variable assignment (deterministic for a fixed model) and, for a
    lexicographic model, its dual optimum and a staged one's first-stage
    value; the status is unbounded when the objective or its tie-break is,
    and infeasible when a staged model's first stage is."""
    if model.sense not in ("min", "max"):
        raise LpFormatError(f"bad sense {model.sense!r}")
    stage = model.stage
    if stage is not None and not (model.lexicographic and 0 <= stage <= len(model.constraints)):
        raise LpFormatError(f"stage {stage} is not a count of a lexicographic model's leading rows")
    primal = None
    if model.lexicographic:  # solve the dual, whose rows are <= with rhs >= 0: no phase I
        sign = 1 if model.sense == "min" else -1
        if model.tiebreak or any(sign * c < 0 for c in model.objective.values()):
            raise LpFormatError("lexicographic models take no tie-break or wrong-sign cost")
        primal, model = model, dual_model(model)

    # Column layout: variable j is column j, the slack or surplus column of
    # row i is ncols + i, and the artificial columns follow.
    col_of = {v: j for j, v in enumerate(model.variables)}
    ncols = len(col_of)
    art_start = ncols + len(model.constraints)
    tab: List[_Row] = []
    basis: List[int] = []
    a = art_start
    for i, con in enumerate(model.constraints):
        row = _integer_row({col_of[var]: c for var, c in con.coeffs.items()}, con.rhs)
        ge = con.relation == ">="
        if row.b < 0 or (ge and row.b == 0):
            _negate(row)
            ge = not ge
        if ge:
            row.a[ncols + i] = -row.d
            row.a[a] = row.d
            basis.append(a)
            a += 1
        else:
            row.a[ncols + i] = row.d
            basis.append(ncols + i)
        tab.append(row)
    # cols[j]: every row holding column j, and maybe rows that held it once
    cols = [set() for _ in range(a)]
    for i, row in enumerate(tab):
        for j in row.a:
            cols[j].add(i)

    # ---- phase I ----
    if a > art_start:
        cost = _Row({j: 1 for j in range(art_start, a)})
        for row, col in zip(tab, basis):
            if col >= art_start:
                _eliminate(cost, row, col)
        # a sum of artificials is bounded below by 0, so phase I ends
        # optimal, at the sum of these rhs, all nonnegative
        _pivot_until_optimal(tab, basis, cost, cols)
        if any(row.b for row, col in zip(tab, basis) if col >= art_start):
            return LpResult(INFEASIBLE)
        if model.objective or model.tiebreak:  # else phase I has answered
            # pivot out each artificial on its row's least real column (the slacks give full rank)
            for i, row in enumerate(tab):
                if basis[i] >= art_start:
                    _pivot(tab, basis, _Row({}), i, min(j for j in row.a if j < art_start), cols)
            # the artificial columns never enter again
            for row in tab:
                row.a = {j: x for j, x in row.a.items() if j < art_start}
            del cols[art_start:]

    def priced(objective: Dict[str, object], sign: int, dropped=()) -> _Row:
        """``sign * objective`` as a cost row in the current basis, less ``dropped``."""
        cost = _integer_row(
            {col_of[v]: sign * c for v, c in objective.items() if col_of[v] not in dropped}
        )
        for row, col in zip(tab, basis):
            if col in cost.a:
                _eliminate(cost, row, col)
        return cost

    # ---- the first stage, phase II, then the tie-break over the optimal face ----
    sign = 1 if model.sense == "min" else -1
    cost = priced(model.objective, sign)
    lex = None if primal is None else ncols
    stage_value = None
    if stage is not None:  # the dual's leading variables are the primal's leading rows
        if _pivot_until_optimal(tab, basis, cost, cols, range(stage, ncols), lex) == UNBOUNDED:
            return LpResult(INFEASIBLE)
        stage_value = Rat(-sign * cost.b, cost.d)
    status = _pivot_until_optimal(tab, basis, cost, cols, lex=lex)
    if status == OPTIMAL and model.tiebreak:
        # a column with a positive reduced cost is zero in every optimum
        dropped = {j for j, x in cost.a.items() if x > 0}
        for row in tab:
            row.a = {j: x for j, x in row.a.items() if j not in dropped}
        status = _pivot_until_optimal(tab, basis, priced(model.tiebreak, 1, dropped), cols)
    if status == UNBOUNDED:  # the dual of a lexicographic model is feasible
        return LpResult(UNBOUNDED if primal is None else INFEASIBLE, stage_value=stage_value)

    vals = {col: Rat(row.b, row.d) for row, col in zip(tab, basis) if col < ncols}
    assignment = {var: vals.get(j, ZERO) for var, j in col_of.items()}
    # `cost` was last pivoted at the phase-II optimum, and the tie-break
    # pivots stay on the optimal face, so it still reads the optimum
    value = Rat(-sign * cost.b, cost.d)
    if primal is None:
        return LpResult(OPTIMAL, value, assignment)
    # the reduced cost at the slack of the dual's row j is the primal's x_j
    x = {var: Rat(cost.a.get(ncols + j, 0), cost.d) for j, var in enumerate(primal.variables)}
    return LpResult(OPTIMAL, value, x, stage_value, assignment)


class _Row:
    """A tableau row ``a / d`` with right-hand side ``b / d``: ``a`` maps the
    columns of the nonzero cells to integer numerators, ``b`` is an integer
    and ``d`` a positive integer.  The cost row starts with ``b`` at zero,
    so ``b / d`` is minus its objective's value at the current basis."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a: Dict[int, int], b: int = 0, d: int = 1):
        self.a = a
        self.b = b
        self.d = d


def _integer_row(cells: Dict[int, object], rhs=0) -> _Row:
    """Cells and rhs, ints or Rats, scaled by the lcm of their denominators.
    A row of ints keeps ``cells``, a fresh dict of the caller's, as it is."""
    if type(rhs) is int and all(type(x) is int for x in cells.values()):
        return _Row(cells, rhs)
    d = lcm(rhs.denominator, *(x.denominator for x in cells.values()))
    return _Row(
        {j: x.numerator * (d // x.denominator) for j, x in cells.items()},
        rhs.numerator * (d // rhs.denominator),
        d,
    )


def _negate(row: _Row) -> None:
    row.a = {j: -x for j, x in row.a.items()}
    row.b = -row.b


def _reduce(row: _Row) -> None:
    """Divide the row by the gcd of its integers, taken cell by cell and
    stopped at 1, so a long row that cannot be reduced costs a few cells."""
    g = gcd(row.d, row.b)
    for x in row.a.values():
        if g == 1:
            return
        g = gcd(g, x)
    if g != 1:
        row.a = {j: x // g for j, x in row.a.items()}
        row.b //= g
        row.d //= g


def _eliminate(row: _Row, prow: _Row, c: int) -> None:
    """Subtract the multiple of ``prow`` that zeroes ``row`` at column c.

    With f = row[c] and p = prow[c] > 0 (numerators), the new row is
    ``row * p - f * prow`` over the denominator ``row.d * p``: only the
    columns of ``prow`` change besides the common factor p.
    """
    f = row.a[c]
    p = prow.a[c]
    a = row.a if p == 1 else {j: x * p for j, x in row.a.items()}
    for j, x in prow.a.items():
        v = a.get(j, 0) - f * x
        if v:
            a[j] = v
        else:
            del a[j]
    row.a = a
    row.b = row.b * p - f * prow.b
    row.d *= p
    if row.d != 1:
        _reduce(row)


def _pivot_until_optimal(
    tab: List[_Row], basis: List[int], cost: _Row, cols: List[set], barred=range(0), lex=None
) -> str:
    """Minimise the cost row over every column it holds but the ``barred``
    ones, which never enter.

    Pivots choose the most negative reduced cost (fast in practice) and fall
    back to Bland's least-index rule after a run of degenerate pivots, which
    restores the termination guarantee without giving up determinism.  The
    cost numerators share one positive denominator, so they compare as
    integers; the ratio test compares ``b_i / a_i`` by cross-multiplying,
    the row denominator cancelling, over the rows of ``cols[enter]`` only.
    Equal ratios go to the least basis index or, given ``lex``, the first
    of only slack columns, to the lexicographically least row over ``a_i``
    from there on, which cannot cycle and so needs no Bland fallback.
    The entering column tops a heap of ``(key, column)`` over the negative
    costs, keyed by the numerator or, under Bland's rule, by the column.  A
    pivot changes the cost row at the pivot row's columns only, and scales
    every other cell by a positive factor, so it pushes those columns, and
    entries no longer negative, or no longer at their numerator, are
    dropped as they surface; a pivot that rescales the cost row replaces
    the numerators' heap, but not the columns'.
    """
    stalled, heap, bland = 0, None, False
    while True:
        if heap is None:
            heap = [(j if bland else x, j) for j, x in cost.a.items() if x < 0 and j not in barred]
            heapify(heap)
        while heap:
            x = cost.a.get(heap[0][1], 0)
            if x < 0 and (bland or x == heap[0][0]):
                break
            heappop(heap)
        enter = heap[0][1] if heap else -1
        if enter < 0:
            return OPTIMAL
        leave = -1
        best_b = best_a = 0
        for i in cols[enter]:  # any order: ties go to the least basis index
            row = tab[i]
            a = row.a.get(enter, 0)
            if a > 0:
                if leave >= 0:
                    lhs = row.b * best_a
                    rhs = best_b * a
                    if lhs > rhs or lhs == rhs and (
                        basis[i] > basis[leave] if lex is None
                        else not _lex_less(row, a, tab[leave], best_a, lex)
                    ):
                        continue
                leave = i
                best_b = row.b
                best_a = a
        if leave < 0:
            return UNBOUNDED
        before = cost.a
        _pivot(tab, basis, cost, leave, enter, cols)
        if cost.a is not before and not bland:
            heap = None
        else:
            for j in tab[leave].a:
                x = cost.a.get(j, 0)
                if x < 0 and j not in barred:
                    heappush(heap, (j if bland else x, j))
        stalled = 0 if best_b else stalled + 1
        if stalled > 40 and lex is None and not bland:
            bland, heap = True, None


def _lex_less(row: _Row, a: int, other: _Row, b: int, start: int) -> bool:
    """Whether ``row / a`` precedes ``other / b`` (a, b > 0) in the columns
    from ``start`` on; each row's denominator cancels in its quotient."""
    cells = sorted({j for j in (*row.a, *other.a) if j >= start})
    diffs = (row.a.get(j, 0) * b - other.a.get(j, 0) * a for j in cells)
    return next((d for d in diffs if d), 0) < 0


def _pivot(tab: List[_Row], basis: List[int], cost: _Row, r: int, c: int, cols: List[set]) -> None:
    """Make column c basic in row r: the pivot row takes its pivot numerator
    (sign-fixed) as its denominator, and every other row holding column c,
    found in ``cols[c]``, and the cost row eliminate it.  Those rows may
    fill in at the pivot row's columns, so they join their ``cols`` sets
    (a cell that cancelled leaves a row there that no longer holds it)."""
    prow = tab[r]
    p = prow.a[c]
    if p < 0:
        _negate(prow)
        p = -p
    if prow.d != p:
        prow.d = p
        _reduce(prow)
    holders = [i for i in cols[c] if i != r and c in tab[i].a]
    for i in holders:
        _eliminate(tab[i], prow, c)
    for j in prow.a:
        cols[j].update(holders)
    cols[c] = {r}
    if c in cost.a:
        _eliminate(cost, prow, c)
    basis[r] = c
