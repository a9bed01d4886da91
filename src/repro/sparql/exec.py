"""Vectorized plan execution over whole binding sets.

Rather than backtracking one solution dict at a time (copying the dict
per candidate triple), this executor pushes an entire binding *set* — a
:class:`Table` of tuple rows — through the plan:

* **Scan** — index nested-loop join with binding substitution: for each
  input row, the pattern's bound positions are substituted and the
  store's matching index (SPO/POS/OSP) is probed once; matches append
  the fresh columns to the row tuple.  No per-candidate dict copies.
  A scan that binds no fresh variable is a membership test per row.
* **Filter** — evaluated against the mentioned columns only, through
  :func:`repro.rdf.sparql.filter_passes` (evaluation errors eliminate
  the row, SPARQL spec).
* **Union / Optional** — the subplan is executed over the distinct seed
  projections of the outer table, then hash-joined back (inner join for
  ``UNION``, left outer for ``OPTIONAL``): once when every row carries
  every shared column, otherwise once per set of shared columns the
  rows actually carry, the absent ones staying bindable.

``_ABSENT`` marks a column with no binding in a given row (OPTIONAL
that didn't match, UNION branch that binds different variables,
heterogeneous pushdown input bindings); ``Table.sure`` names the
columns guaranteed present in every row, which gates the scan fast
path.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..rdf.sparql import (SparqlEvaluationError, Solution, Variable,
                          filter_passes, finalize_select)
from .plan import (FilterStep, GroupPlan, OptionalStep, QueryPlan, ScanStep,
                   UnionStep)
from .store import TripleStore

__all__ = ["ABSENT", "Table", "ExecStats", "run_plan", "run_select",
           "run_ask", "solutions_from_table", "table_from_solutions"]


class _Absent:
    """Sentinel: this row carries no binding for this column."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<absent>"


ABSENT = _Absent()


@dataclass
class Table:
    """A binding set: named columns over tuple rows.

    ``sure`` is the set of columns certainly bound (never ``ABSENT``)
    in every row — the executor's fast paths key on it.
    """

    columns: tuple[str, ...]
    rows: list[tuple]
    sure: frozenset[str]

    @classmethod
    def unit(cls) -> "Table":
        """The single empty row: the seed of a standalone query."""
        return cls((), [()], frozenset())


@dataclass
class ExecStats:
    """Actuals collected during one plan execution, paired with the
    plan's estimates by the metrics layer and ``/introspect/sparql``."""

    stages: list[dict] = field(default_factory=list)
    probes: dict[str, int] = field(default_factory=dict)
    rows_in: int = 0
    rows_out: int = 0


def table_from_solutions(solutions: list[Solution],
                         columns: tuple[str, ...] | None = None) -> Table:
    """Build a table from solution dicts (pushdown input seeding)."""
    if columns is None:
        names: set[str] = set()
        for solution in solutions:
            names |= solution.keys()
        columns = tuple(sorted(names))
    rows = [tuple(solution.get(name, ABSENT) for name in columns)
            for solution in solutions]
    sure = frozenset(name for name in columns
                     if all(solution.get(name) is not None
                            and name in solution for solution in solutions))
    return Table(columns, rows, sure)


def solutions_from_table(table: Table) -> list[Solution]:
    """Rows back to solution dicts, dropping absent columns."""
    columns = table.columns
    return [{name: value for name, value in zip(columns, row)
             if value is not ABSENT}
            for row in table.rows]


# -- step execution -----------------------------------------------------------


def _probe_kind(s, p, o) -> str:
    """Which index answers ``triples(s, p, o)`` (mirrors Graph.triples)."""
    if s is not None:
        if p is None and o is not None:
            return "osp"
        return "spo"
    if p is not None:
        return "pos"
    if o is not None:
        return "osp"
    return "scan"


def _run_scan(store: TripleStore, step: ScanStep, table: Table,
              probes: dict[str, int]) -> Table:
    pattern = step.pattern
    columns = table.columns
    index_of = {name: position for position, name in enumerate(columns)}
    # classify the three pattern positions against the table's columns
    slots = []  # (kind, payload, name): const/col/fresh/dup
    fresh: list[str] = []
    fresh_slot: dict[str, int] = {}
    for term in (pattern.subject, pattern.predicate, pattern.obj):
        if isinstance(term, Variable):
            name = term.name
            if name in index_of:
                slots.append(("col", index_of[name], name))
            elif name in fresh_slot:
                slots.append(("dup", fresh_slot[name], name))
            else:
                fresh_slot[name] = len(fresh)
                fresh.append(name)
                slots.append(("fresh", fresh_slot[name], name))
        else:
            slots.append(("const", term, None))
    out_columns = columns + tuple(fresh)
    out_sure = table.sure | pattern.variables()
    out_rows: list[tuple] = []
    triples = store.triples

    col_names = [name for kind, _, name in slots if kind == "col"]
    if all(name in table.sure for name in col_names):
        # fast path: every substituted column is certainly bound
        base = [None, None, None]
        col_positions = []
        var_positions = []  # (triple position, fresh slot)
        for position, (kind, payload, _name) in enumerate(slots):
            if kind == "const":
                base[position] = payload
            elif kind == "col":
                col_positions.append((position, payload))
            else:  # fresh or dup share the fresh-slot consistency check
                var_positions.append((position, payload))
        n_fresh = len(fresh)
        # the bound-position mask is row-invariant here, so the probed
        # index is too: tally it once per row without re-deriving
        known = [value is not None for value in base]
        for position, _column in col_positions:
            known[position] = True
        kind = _probe_kind(*(object() if flag else None for flag in known))
        if not n_fresh:
            # every position is known: one SPO membership test per row,
            # tallied as the probe the triples() path would have made
            probes[kind] = probes.get(kind, 0) + len(table.rows)
            spo, empty = store._spo, {}
            vals = base[:]
            for row in table.rows:
                for position, column in col_positions:
                    vals[position] = row[column]
                if vals[2] in spo.get(vals[0], empty).get(vals[1], ()):
                    out_rows.append(row)
            return Table(out_columns, out_rows, out_sure)
        has_dup = any(slot_kind == "dup" for slot_kind, _, _ in slots)
        if not has_dup:
            # no repeated variable: every match extends the row, so the
            # inner loop is a plain projection of the fresh positions
            fresh_positions = [position for position, _slot in var_positions]
            append = out_rows.append
            probes[kind] = probes.get(kind, 0) + len(table.rows)
            if not col_positions:
                # the probe itself is row-invariant: match once and
                # cross-extend every row
                if base[1] is not None and base[0] is None \
                        and base[2] is None:
                    # predicate extent: read the POS buckets directly
                    # instead of paying the triples() generator per match
                    matches = [(subj, obj) for obj, subjects in
                               store._pos.get(base[1], {}).items()
                               for subj in subjects]
                else:
                    matches = [tuple(triple[position]
                                     for position in fresh_positions)
                               for triple in
                               triples(base[0], base[1], base[2])]
                out_rows = [row + match
                            for row in table.rows for match in matches]
                return Table(out_columns, out_rows, out_sure)
            if len(col_positions) == 1 and base[1] is not None:
                # one substituted position under a constant predicate:
                # the two dominant join shapes probe an index bucket
                # per row with no intermediate triple tuples
                position, column = col_positions[0]
                if position == 0 and base[2] is None:
                    spo = store._spo
                    predicate, empty = base[1], {}
                    for row in table.rows:
                        for obj in spo.get(row[column],
                                           empty).get(predicate, ()):
                            append(row + (obj,))
                    return Table(out_columns, out_rows, out_sure)
                if position == 2 and base[0] is None:
                    by_object = store._pos.get(base[1], {})
                    for row in table.rows:
                        for subj in by_object.get(row[column], ()):
                            append(row + (subj,))
                    return Table(out_columns, out_rows, out_sure)
            for row in table.rows:
                vals = base[:]
                for position, column in col_positions:
                    vals[position] = row[column]
                for triple in triples(vals[0], vals[1], vals[2]):
                    append(row + tuple(triple[position]
                                       for position in fresh_positions))
            return Table(out_columns, out_rows, out_sure)
        for row in table.rows:
            vals = base[:]
            for position, column in col_positions:
                vals[position] = row[column]
            probes[kind] = probes.get(kind, 0) + 1
            for triple in triples(vals[0], vals[1], vals[2]):
                new = [None] * n_fresh
                consistent = True
                for position, slot in var_positions:
                    value = triple[position]
                    if new[slot] is None:
                        new[slot] = value
                    elif new[slot] != value:
                        consistent = False
                        break
                if consistent:
                    out_rows.append(row + tuple(new))
        return Table(out_columns, out_rows, out_sure)

    # general path: some substituted columns may be ABSENT per row; an
    # absent column behaves like a fresh variable for that row and the
    # scan writes the binding back into the column
    for row in table.rows:
        vals: list = [None, None, None]
        absent: list[tuple[int, str]] = []  # (column position, name)
        for position, (kind, payload, name) in enumerate(slots):
            if kind == "const":
                vals[position] = payload
            elif kind == "col":
                value = row[payload]
                if value is ABSENT:
                    absent.append((payload, name))
                else:
                    vals[position] = value
        probe = _probe_kind(*vals)
        probes[probe] = probes.get(probe, 0) + 1
        for triple in triples(vals[0], vals[1], vals[2]):
            assigned: dict[str, object] = {}
            consistent = True
            for position, (kind, _payload, name) in enumerate(slots):
                if kind == "const" or vals[position] is not None:
                    continue
                value = triple[position]
                previous = assigned.get(name)
                if previous is None:
                    assigned[name] = value
                elif previous != value:
                    consistent = False
                    break
            if not consistent:
                continue
            if absent:
                patched = list(row)
                for column, name in absent:
                    patched[column] = assigned[name]
                base_row = tuple(patched)
            else:
                base_row = row
            out_rows.append(base_row + tuple(assigned[name]
                                             for name in fresh))
    return Table(out_columns, out_rows, out_sure)


def _run_filter(step: FilterStep, table: Table) -> Table:
    needed = [(name, position)
              for position, name in enumerate(table.columns)
              if name in step.variables]
    positions = [position for _name, position in needed]
    expression = step.expression
    out_rows = []
    # the verdict depends only on the mentioned columns, and their
    # value combinations repeat heavily in joined tables: evaluate each
    # distinct combination once
    verdicts: dict = {}
    if len(needed) == 1:
        (name, position), = needed
        for row in table.rows:
            value = row[position]
            verdict = verdicts.get(value)
            if verdict is None:
                env = {} if value is ABSENT else {name: value}
                verdict = verdicts[value] = filter_passes(expression, env)
            if verdict:
                out_rows.append(row)
        return Table(table.columns, out_rows, table.sure)
    for row in table.rows:
        key = tuple(row[position] for position in positions)
        verdict = verdicts.get(key)
        if verdict is None:
            env: Solution = {name: value for (name, _p), value
                             in zip(needed, key) if value is not ABSENT}
            verdict = verdicts[key] = filter_passes(expression, env)
        if verdict:
            out_rows.append(row)
    return Table(table.columns, out_rows, table.sure)


def _join_subgroup(store: TripleStore, subplan: GroupPlan, table: Table,
                   stats: ExecStats, outer: bool) -> Table:
    """Execute a UNION branch / OPTIONAL group over the distinct seed
    projections of ``table`` and hash-join the results back.

    ``outer=True`` keeps unmatched rows (OPTIONAL's left outer join).
    """
    columns = table.columns
    mentioned = subplan.mentioned
    shared_positions = tuple(position for position, name
                             in enumerate(columns) if name in mentioned)
    extra = tuple(sorted(mentioned - set(columns)))
    out_columns = columns + extra
    out_index = {name: position for position, name in enumerate(out_columns)}
    pad = (ABSENT,) * len(extra)
    out_rows: list[tuple] = []

    # a shared column ABSENT in a row is a variable the subgroup may
    # still bind for that row, so rows are partitioned by which shared
    # columns they carry and each partition seeds the subplan with
    # exactly those (usually there is one partition: every column present)
    partitions: dict[tuple, list[tuple]] = {}
    if all(columns[position] in table.sure for position in shared_positions):
        partitions[shared_positions] = table.rows
    else:
        for row in table.rows:
            present = tuple(position for position in shared_positions
                            if row[position] is not ABSENT)
            partitions.setdefault(present, []).append(row)

    for present, rows in partitions.items():
        seed_names = tuple(columns[position] for position in present)
        seeds = {tuple(row[position] for position in present)
                 for row in rows}
        seed_table = Table(seed_names, list(seeds), frozenset(seed_names))
        produced = _run_group(store, subplan, seed_table, stats)
        # group the subplan's output by its seed projection
        produced_index = {name: position for position, name
                          in enumerate(produced.columns)}
        key_positions = [produced_index[name] for name in seed_names]
        extension_positions = [(position, out_index[name])
                               for position, name
                               in enumerate(produced.columns)
                               if name not in seed_names]
        matches: dict[tuple, list] = {}
        for row in produced.rows:
            key = tuple(row[position] for position in key_positions)
            matches.setdefault(key, []).append(row)
        for row in rows:
            key = tuple(row[position] for position in present)
            extensions = matches.get(key)
            if extensions:
                for extension in extensions:
                    merged = list(row + pad)
                    for source, target in extension_positions:
                        merged[target] = extension[source]
                    out_rows.append(tuple(merged))
            elif outer:
                out_rows.append(row + pad)

    # certainty: subgroup-certain variables survive the join for every
    # row except where certainty depended on a maybe-bound seed column
    unsure_columns = set(columns) - table.sure
    if outer:
        new_sure = table.sure
    else:
        new_sure = table.sure | (subplan.certain - unsure_columns)
    return Table(out_columns, out_rows, frozenset(new_sure))


def _run_union(store: TripleStore, step: UnionStep, table: Table,
               stats: ExecStats) -> Table:
    branch_tables = [_join_subgroup(store, branch, table, stats, outer=False)
                     for branch in step.branches]
    if len(branch_tables) == 1:
        return branch_tables[0]
    # align branch outputs on the union of their columns, then stack
    out_columns = list(branch_tables[0].columns)
    for branch_table in branch_tables[1:]:
        for name in branch_table.columns:
            if name not in out_columns:
                out_columns.append(name)
    aligned = tuple(out_columns)
    out_rows: list[tuple] = []
    for branch_table in branch_tables:
        index_of = {name: position for position, name
                    in enumerate(branch_table.columns)}
        order = [index_of.get(name) for name in aligned]
        if order == list(range(len(aligned))):
            out_rows.extend(branch_table.rows)
        else:
            for row in branch_table.rows:
                out_rows.append(tuple(
                    ABSENT if position is None else row[position]
                    for position in order))
    sure = frozenset.intersection(*[branch_table.sure
                                    for branch_table in branch_tables])
    return Table(aligned, out_rows, sure)


def _run_group(store: TripleStore, plan: GroupPlan, table: Table,
               stats: ExecStats) -> Table:
    for number, step in enumerate(plan.steps):
        started = time.perf_counter()
        if isinstance(step, ScanStep):
            table = _run_scan(store, step, table, stats.probes)
            stage = {"op": "scan", "estimated": step.rows}
        elif isinstance(step, FilterStep):
            table = _run_filter(step, table)
            stage = {"op": "filter", "estimated": None}
        elif isinstance(step, UnionStep):
            table = _run_union(store, step, table, stats)
            stage = {"op": "union", "estimated": step.rows}
        else:
            table = _join_subgroup(store, step.plan, table, stats,
                                   outer=True)
            stage = {"op": "optional", "estimated": step.rows}
        stage["rows"] = len(table.rows)
        stage["seconds"] = time.perf_counter() - started
        stats.stages.append(stage)
        if not table.rows:
            # short-circuit: nothing downstream can resurrect rows
            for skipped in plan.steps[number + 1:]:
                stats.stages.append({"op": type(skipped).__name__,
                                     "estimated": None, "rows": 0,
                                     "seconds": 0.0})
            break
    return table


# -- entry points -------------------------------------------------------------


def run_plan(store: TripleStore, plan: QueryPlan,
             seed: Table | None = None) -> tuple[Table, ExecStats]:
    """Execute a compiled plan, optionally seeded with a pushed-down
    input binding set.  Returns the result table and the actuals."""
    stats = ExecStats(probes=dict.fromkeys(("spo", "pos", "osp", "scan"), 0))
    table = seed if seed is not None else Table.unit()
    stats.rows_in = len(table.rows)
    table = _run_group(store, plan.root, table, stats)
    stats.rows_out = len(table.rows)
    store.record_probes(stats.probes)
    return table, stats


def run_select(store: TripleStore, plan: QueryPlan,
               seed: Table | None = None
               ) -> tuple[list[Solution], ExecStats]:
    """SELECT through the plan, then the solution modifiers
    (:func:`repro.rdf.sparql.finalize_select`)."""
    if plan.query.form != "SELECT":
        raise SparqlEvaluationError("run_select() requires a SELECT plan")
    table, stats = run_plan(store, plan, seed)
    return finalize_select(plan.query, solutions_from_table(table)), stats


def run_ask(store: TripleStore, plan: QueryPlan,
            seed: Table | None = None) -> tuple[bool, ExecStats]:
    if plan.query.form != "ASK":
        raise SparqlEvaluationError("run_ask() requires an ASK plan")
    table, stats = run_plan(store, plan, seed)
    return bool(table.rows), stats
