"""Selectivity-driven join planning over the SPARQL-subset AST.

Compiles a parsed :class:`repro.rdf.sparql.SparqlQuery` into a
:class:`QueryPlan`: a tree of steps the vectorized executor
(:mod:`repro.sparql.exec`) runs over whole binding *sets*.

Planning decisions, all driven by the :class:`~repro.sparql.store.
TripleStore`'s O(1) statistics:

* **Join order** — the basic graph pattern's scans are ordered greedily
  by estimated matches-per-input-row: constants use exact index counts,
  runtime-bound join variables use per-predicate fan-outs (triples ÷
  distinct subjects/objects).  The most selective pattern runs first,
  and every later pattern is evaluated with the variables its
  predecessors bound.
* **Filter placement** — a ``FILTER`` runs at the earliest step at
  which every variable it mentions is either certainly bound or can no
  longer become bound in this group.  A filter mentioning a variable
  that a ``UNION``/``OPTIONAL`` may still bind stays after those (its
  position in the group's fixed evaluation order); everything else
  sinks into the scan
  pipeline right where its variables complete, discarding rows before
  they fan out.
* **Subgroups** — every ``UNION`` branch and ``OPTIONAL`` group is planned
  recursively, seeded by the variables that are certainly bound where
  it joins (the binding-set pushdown boundary of the executor).

The planner records per-step row estimates; the executor tallies actual
rows, and the pair is exported per query as the
``eca_sparql_estimated_rows``/``eca_sparql_actual_rows`` histograms and
per stage in the ``/introspect/sparql`` recent-plans view, so
misestimates are observable rather than anecdotal.

**Validity.** The planner reads the store only through a
:class:`_Statistics` recorder, and the plan keeps every value it read
(``QueryPlan.costed_from``).  :meth:`QueryPlan.drift` re-reads them: a
plan holds while each is within :data:`STALE_RATIO` of its current
value (a zero only matches a zero).  A plan that no longer holds is
still *correct* — join order changes cost and row order, never the
answer multiset — it is merely costed from numbers that moved.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from ..rdf.sparql import (Expr, GroupPattern, SparqlQuery, TriplePattern,
                          Variable, expression_variables, parse_sparql)
from .store import TripleStore

__all__ = ["PlanError", "ScanStep", "FilterStep", "UnionStep",
           "OptionalStep", "GroupPlan", "QueryPlan", "plan_query",
           "explain", "STALE_RATIO"]

#: assumed pass-rate of a filter for downstream row estimates
_FILTER_SELECTIVITY = 0.5

#: a plan holds while every statistic it was costed from is within this
#: factor of its current value
STALE_RATIO = 2.0


class PlanError(ValueError):
    """Raised when a query cannot be compiled into a plan."""


def _status(term, bound: frozenset) -> str:
    if isinstance(term, Variable):
        return "bound" if term.name in bound else "free"
    return "const"


def _term_text(term) -> str:
    if isinstance(term, Variable):
        return f"?{term.name}"
    return repr(term)


def _pattern_text(pattern: TriplePattern) -> str:
    return (f"{_term_text(pattern.subject)} {_term_text(pattern.predicate)} "
            f"{_term_text(pattern.obj)}")


@dataclass(frozen=True)
class ScanStep:
    """One index scan joined against the incoming binding set."""

    pattern: TriplePattern
    #: access-path hint at plan time: which index answers this scan
    index: str
    #: estimated matches per incoming row
    per_row: float
    #: estimated rows after this step
    rows: float


@dataclass(frozen=True)
class FilterStep:
    expression: Expr
    #: variables the expression mentions (for the executor's env)
    variables: frozenset[str]
    text: str = ""


@dataclass(frozen=True)
class UnionStep:
    branches: tuple["GroupPlan", ...]
    rows: float


@dataclass(frozen=True)
class OptionalStep:
    plan: "GroupPlan"
    rows: float


@dataclass(frozen=True)
class GroupPlan:
    """An ordered pipeline for one group pattern.

    ``seed_vars`` are the certainly-bound variables execution is seeded
    with (for the root group: the pushed-down input binding set's
    columns); ``certain`` are the variables certainly bound in every
    output row.
    """

    steps: tuple
    seed_vars: tuple[str, ...]
    certain: frozenset[str]
    estimate: float
    #: every variable the group can mention (runtime seed discovery)
    mentioned: frozenset[str] = frozenset()


@dataclass(frozen=True)
class QueryPlan:
    query: SparqlQuery
    root: GroupPlan
    estimate: float
    #: store fingerprint the statistics were read at
    store_version: int
    source: str = ""
    #: every store statistic the planner read, as ``(statistic, value)``
    #: pairs; a statistic is a ``TripleStore`` method name and the
    #: tuple of arguments it was called with
    costed_from: tuple[tuple[tuple[str, tuple], int], ...] = ()
    #: ``(statistic, then, now)`` when this plan replaced a cached one
    #: whose statistic had drifted past :data:`STALE_RATIO`
    replaced_because: tuple[str, int, int] | None = None

    def describe(self) -> dict:
        """Portable plan summary for ``/introspect/sparql`` (built once
        per plan; every call returns the same dict)."""
        return self._description

    @cached_property
    def _description(self) -> dict:
        return {"form": self.query.form,
                "estimate": self.estimate,
                "store_version": self.store_version,
                "stages": _describe_group(self.root)}

    def drift(self, store: TripleStore) -> tuple[str, int, int] | None:
        """The first statistic this plan was costed from that is no
        longer within :data:`STALE_RATIO` of its value in ``store``, as
        ``(statistic, then, now)``; ``None`` while the plan holds."""
        for statistic, then in self.costed_from:
            name, arguments = statistic
            now = getattr(store, name)(*arguments)
            if not (now <= then * STALE_RATIO and then <= now * STALE_RATIO):
                return _statistic_text(statistic), then, now
        return None


def _describe_group(group: GroupPlan) -> list[dict]:
    stages: list[dict] = []
    for step in group.steps:
        if isinstance(step, ScanStep):
            stages.append({"op": "scan",
                           "pattern": _pattern_text(step.pattern),
                           "index": step.index,
                           "per_row": round(step.per_row, 3),
                           "rows": round(step.rows, 3)})
        elif isinstance(step, FilterStep):
            stages.append({"op": "filter", "expr": step.text})
        elif isinstance(step, UnionStep):
            stages.append({"op": "union", "rows": round(step.rows, 3),
                           "branches": [_describe_group(branch)
                                        for branch in step.branches]})
        else:
            stages.append({"op": "optional", "rows": round(step.rows, 3),
                           "group": _describe_group(step.plan)})
    return stages


# -- cardinality estimation ----------------------------------------------------


def _statistic_text(statistic: tuple[str, tuple]) -> str:
    name, arguments = statistic
    inner = ", ".join("*" if argument is None else repr(argument)
                      for argument in arguments)
    return f"{name}({inner})"


class _Statistics:
    """The planner's only window on the store: every statistic read
    through :meth:`read` is remembered with the value it had, so the
    finished plan knows what it was costed from."""

    def __init__(self, store: TripleStore) -> None:
        self.store = store
        self.values: dict[tuple[str, tuple], int] = {}

    def read(self, name: str, *arguments) -> int:
        statistic = (name, arguments)
        value = self.values.get(statistic)
        if value is None:
            value = self.values[statistic] = getattr(self.store,
                                                     name)(*arguments)
        return value


def _estimate_scan(stats: _Statistics, pattern: TriplePattern,
                   bound: frozenset) -> tuple[float, str]:
    """Expected matches per input row and the index answering the scan."""
    s_status = _status(pattern.subject, bound)
    p_status = _status(pattern.predicate, bound)
    o_status = _status(pattern.obj, bound)
    s_const = pattern.subject if s_status == "const" else None
    p_const = pattern.predicate if p_status == "const" else None
    o_const = pattern.obj if o_status == "const" else None
    index = _index_for(s_status != "free", p_status != "free",
                       o_status != "free")

    if "bound" not in (s_status, p_status, o_status):
        # every known position is a constant: the count is exact
        return float(stats.read("count", s_const, p_const, o_const)), index

    if p_status == "const":
        extent = stats.read("predicate_count", p_const)
        if extent == 0:
            return 0.0, index
        if o_const is not None:
            extent = stats.read("count", None, p_const, o_const)
        elif s_const is not None:
            extent = stats.read("count", s_const, p_const, None)
        estimate = float(extent)
        if s_status == "bound":
            estimate /= max(1, stats.read("distinct_subjects", p_const))
        if o_status == "bound":
            estimate /= max(1, stats.read("distinct_objects", p_const))
        return estimate, index

    # predicate is a variable: fall back to store-wide shape statistics
    estimate = float(stats.read("count", None, None, None)) or 1.0
    if p_status == "bound":
        estimate /= max(1, stats.read("distinct_predicates"))
    if s_status == "bound":
        estimate /= max(1, stats.read("distinct_subjects", None))
    elif s_const is not None:
        estimate = min(estimate,
                       float(stats.read("count", s_const, None, None)))
    if o_status == "bound":
        estimate /= max(1, stats.read("distinct_objects", None))
    elif o_const is not None:
        estimate = min(estimate,
                       float(stats.read("count", None, None, o_const)))
    return estimate, index


def _index_for(s_known: bool, p_known: bool, o_known: bool) -> str:
    """Mirror of :meth:`repro.rdf.Graph.triples` index dispatch."""
    if s_known:
        if o_known and not p_known:
            return "osp"
        return "spo"
    if p_known:
        return "pos"
    if o_known:
        return "osp"
    return "scan"


# -- group planning -----------------------------------------------------------


@dataclass
class _FilterSlot:
    expression: Expr
    mentioned: frozenset[str]
    #: variables that must be bound before the filter may run early
    needs: frozenset[str]
    late: bool
    placed: bool = field(default=False)

    def step(self) -> FilterStep:
        return FilterStep(self.expression, self.mentioned,
                          _expr_text(self.expression))


def _expr_text(expr: Expr) -> str:
    from ..rdf.sparql import BinOp, Call, NotOp, TermExpr, VarExpr
    if isinstance(expr, VarExpr):
        return f"?{expr.name}"
    if isinstance(expr, TermExpr):
        return repr(expr.term)
    if isinstance(expr, BinOp):
        return (f"({_expr_text(expr.left)} {expr.op} "
                f"{_expr_text(expr.right)})")
    if isinstance(expr, NotOp):
        return f"!{_expr_text(expr.operand)}"
    if isinstance(expr, Call):
        inner = ", ".join(_expr_text(arg) for arg in expr.arguments)
        return f"{expr.name}({inner})"
    return "?"


def _plan_group(stats: _Statistics, group: GroupPattern,
                seed_vars: frozenset[str], incoming: float) -> GroupPlan:
    bound = frozenset(seed_vars)
    bgp_vars = set()
    for pattern in group.patterns:
        bgp_vars |= pattern.variables()

    # variables a union/optional of this group may still bind: filters
    # touching them must keep their trailing position
    late_vars: set[str] = set()
    for union in group.unions:
        for branch in union.branches:
            late_vars |= branch.mentioned_variables()
    for optional in group.optionals:
        late_vars |= optional.group.mentioned_variables()

    slots = []
    for filter_expr in group.filters:
        mentioned = frozenset(expression_variables(filter_expr.expression))
        late = bool(mentioned & late_vars)
        needs = mentioned & (bound | bgp_vars)
        slots.append(_FilterSlot(filter_expr.expression, mentioned,
                                 frozenset(needs), late))

    steps: list = []
    rows = max(incoming, 1.0)

    def place_ready_filters() -> None:
        nonlocal rows
        for slot in slots:
            if not slot.placed and not slot.late and slot.needs <= bound:
                steps.append(slot.step())
                slot.placed = True
                rows *= _FILTER_SELECTIVITY

    place_ready_filters()

    remaining = list(group.patterns)
    while remaining:
        best = None
        best_cost = None
        best_index = ""
        for pattern in remaining:
            per_row, index = _estimate_scan(stats, pattern, bound)
            # prefer connected patterns: a scan sharing no variable with
            # the bound set is a cross product — its real cost is the
            # full extent regardless of how small the extent looks
            connected = bool(pattern.variables() & bound) or not bound
            cost = per_row if connected else per_row * 1e6
            # credit patterns that complete a pending filter's variables:
            # the filter runs immediately after and discards rows before
            # the remaining scans fan them out
            would_bind = bound | pattern.variables()
            for slot in slots:
                if not slot.placed and not slot.late \
                        and slot.needs <= would_bind \
                        and not slot.needs <= bound:
                    cost *= _FILTER_SELECTIVITY
            if best_cost is None or cost < best_cost:
                best, best_cost, best_index = pattern, cost, index
                best_per_row = per_row
        remaining.remove(best)
        rows *= best_per_row
        bound = bound | best.variables()
        steps.append(ScanStep(best, best_index, best_per_row, rows))
        place_ready_filters()

    for union in group.unions:
        branches = []
        per_row = 0.0
        for branch in union.branches:
            branch_seed = frozenset(branch.mentioned_variables()) & bound
            branch_plan = _plan_group(stats, branch, branch_seed, 1.0)
            branches.append(branch_plan)
            per_row += branch_plan.estimate
        rows *= per_row
        steps.append(UnionStep(tuple(branches), rows))
        certain_after = None
        for branch_plan in branches:
            certain_after = branch_plan.certain if certain_after is None \
                else certain_after & branch_plan.certain
        bound = bound | (certain_after or frozenset())
        place_ready_filters()

    for optional in group.optionals:
        optional_seed = frozenset(
            optional.group.mentioned_variables()) & bound
        optional_plan = _plan_group(stats, optional.group, optional_seed,
                                    1.0)
        rows *= max(1.0, optional_plan.estimate)
        steps.append(OptionalStep(optional_plan, rows))
        # OPTIONAL never makes a variable certain

    for slot in slots:
        if not slot.placed:
            steps.append(slot.step())
            slot.placed = True
            rows *= _FILTER_SELECTIVITY

    return GroupPlan(tuple(steps), tuple(sorted(seed_vars)),
                     frozenset(bound), rows,
                     frozenset(group.mentioned_variables()))


def plan_query(store: TripleStore, query: SparqlQuery | str,
               seed_vars: frozenset[str] | set[str] = frozenset()
               ) -> QueryPlan:
    """Compile ``query`` into an executable plan against ``store``.

    ``seed_vars`` are the variables of the pushed-down input binding
    set (empty for a standalone query): the planner treats them as
    bound from the start, which is what makes an input-selective join
    order possible.
    """
    parsed = parse_sparql(query) if isinstance(query, str) else query
    source = query if isinstance(query, str) else ""
    version = store.version
    stats = _Statistics(store)
    root = _plan_group(stats, parsed.where, frozenset(seed_vars), 1.0)
    return QueryPlan(parsed, root, root.estimate, version, source,
                     tuple(stats.values.items()))


def explain(plan: QueryPlan) -> str:
    """Human-readable plan rendering (the ``EXPLAIN`` view): the steps,
    the statistics the plan was costed from and, for a plan that
    replaced a cached one, the statistic that had drifted."""
    head = (f"{plan.query.form} estimated_rows={plan.estimate:.1f} "
            f"store_version={plan.store_version}")
    lines = [head]
    _explain_group(plan.root, lines, depth=1)
    if plan.costed_from:
        lines.append("costed from:")
        for statistic, value in plan.costed_from:
            lines.append(f"  {_statistic_text(statistic)} = {value}")
    if plan.replaced_because is not None:
        statistic, then, now = plan.replaced_because
        lines.append(f"replaced a plan costed from {statistic} = {then} "
                     f"(now {now}, beyond {STALE_RATIO:g}x)")
    return "\n".join(lines)


def _explain_group(group: GroupPlan, lines: list[str], depth: int) -> None:
    pad = "  " * depth
    if group.seed_vars:
        seeds = ", ".join("?" + name for name in group.seed_vars)
        lines.append(f"{pad}seed [{seeds}]")
    for step in group.steps:
        if isinstance(step, ScanStep):
            lines.append(f"{pad}scan ({_pattern_text(step.pattern)}) "
                         f"index={step.index} per_row={step.per_row:.2f} "
                         f"rows={step.rows:.1f}")
        elif isinstance(step, FilterStep):
            lines.append(f"{pad}filter {step.text}")
        elif isinstance(step, UnionStep):
            lines.append(f"{pad}union rows={step.rows:.1f}")
            for number, branch in enumerate(step.branches, 1):
                lines.append(f"{pad}  branch {number}:")
                _explain_group(branch, lines, depth + 2)
        else:
            lines.append(f"{pad}optional rows={step.rows:.1f}")
            _explain_group(step.plan, lines, depth + 1)
