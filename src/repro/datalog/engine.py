"""Bottom-up Datalog evaluation: semi-naive iteration, stratified negation.

This realizes the "classical deductive rules" semantics that Section 3 of
the paper takes as the model for ECA rules: the body produces a set of
tuples of variable bindings; the head is instantiated once per tuple.
"""

from __future__ import annotations

from typing import Iterable

from .ast import (Atom, BodyLiteral, Comparison, Const, DatalogError, Program,
                  Rule, Term, Var)
from .parser import parse_atom, parse_program

__all__ = ["DatalogEngine", "StratificationError", "SafetyError", "evaluate",
           "query"]

Fact = tuple[str, tuple]
Substitution = dict[str, object]


class StratificationError(DatalogError):
    """The program has negation inside a recursive cycle."""


class SafetyError(DatalogError):
    """A rule uses a variable that is not bound by a positive body atom."""


def _check_safety(rule: Rule) -> None:
    positive: set[str] = set()
    for item in rule.body:
        if isinstance(item, BodyLiteral) and not item.negated:
            positive |= item.variables()
    needed = set(rule.head.variables())
    for item in rule.body:
        if isinstance(item, (Comparison,)):
            needed |= item.variables()
        elif item.negated:
            needed |= item.variables()
    unsafe = needed - positive
    if unsafe:
        raise SafetyError(
            f"unsafe variables {sorted(unsafe)} in rule {rule!r}: every "
            "variable in the head, a negated literal or a comparison must "
            "occur in a positive body literal")


def _stratify(program: Program) -> list[set[tuple[str, int]]]:
    """Partition predicates into strata; negation must not be recursive."""
    signatures = program.all_signatures()
    # edges: head depends on body predicates (weight 1 through negation)
    positive_deps: dict[tuple, set[tuple]] = {s: set() for s in signatures}
    negative_deps: dict[tuple, set[tuple]] = {s: set() for s in signatures}
    for rule in program.rules:
        for item in rule.body:
            if not isinstance(item, BodyLiteral):
                continue
            target = negative_deps if item.negated else positive_deps
            target[rule.head.signature].add(item.atom.signature)

    stratum: dict[tuple, int] = {s: 0 for s in signatures}
    max_stratum = max(1, len(signatures))
    changed = True
    iterations = 0
    while changed:
        changed = False
        iterations += 1
        if iterations > max_stratum * len(signatures) + 1:
            raise StratificationError(
                "program is not stratifiable (negation through recursion)")
        for head in signatures:
            for dep in positive_deps[head]:
                if stratum[dep] > stratum[head]:
                    stratum[head] = stratum[dep]
                    changed = True
            for dep in negative_deps[head]:
                if stratum[dep] + 1 > stratum[head]:
                    stratum[head] = stratum[dep] + 1
                    if stratum[head] >= max_stratum:
                        raise StratificationError(
                            "program is not stratifiable "
                            "(negation through recursion)")
                    changed = True
    levels = max(stratum.values(), default=0) + 1
    out: list[set[tuple[str, int]]] = [set() for _ in range(levels)]
    for signature, level in stratum.items():
        out[level].add(signature)
    return out


class DatalogEngine:
    """Evaluates a program to a fixpoint (semi-naive: each round
    re-derives only from the previous round's delta) and answers queries.
    """

    def __init__(self, program: Program | str) -> None:
        if isinstance(program, str):
            program = parse_program(program)
        self.program = program
        self.rounds = 0
        for rule in program.rules:
            _check_safety(rule)
        self._facts: dict[tuple[str, int], set[tuple]] = {}
        #: (signature, bound positions) → key → facts, built by ``query``
        #: on first use; the facts never change once evaluated (``load``
        #: and ``add_facts`` build a new engine)
        self._indexes: dict[tuple, dict[tuple, list[tuple]]] = {}
        self._evaluated = False

    # -- fact access ------------------------------------------------------------

    def facts(self, predicate: str, arity: int) -> set[tuple]:
        self._ensure_evaluated()
        return set(self._facts.get((predicate, arity), set()))

    def _ensure_evaluated(self) -> None:
        if not self._evaluated:
            self._evaluate()
            self._evaluated = True

    # -- evaluation ----------------------------------------------------------------

    def _evaluate(self) -> None:
        strata = _stratify(self.program)
        for rule in self.program.rules:
            if rule.is_fact:
                values = tuple(_const_value(argument, rule)
                               for argument in rule.head.arguments)
                self._store(rule.head.signature, values)
        for level in strata:
            rules = [rule for rule in self.program.rules
                     if not rule.is_fact and rule.head.signature in level]
            if rules:
                self._fixpoint(rules)

    def _store(self, signature: tuple[str, int], values: tuple) -> bool:
        bucket = self._facts.setdefault(signature, set())
        if values in bucket:
            return False
        bucket.add(values)
        return True

    def _fixpoint(self, rules: list[Rule]) -> None:
        # semi-naive: track per-signature deltas between rounds
        delta: dict[tuple, set[tuple]] = {
            signature: set(facts) for signature, facts in self._facts.items()}
        first_round = True
        while True:
            self.rounds += 1
            new_delta: dict[tuple, set[tuple]] = {}
            for rule in rules:
                positive = [item for item in rule.body
                            if isinstance(item, BodyLiteral)
                            and not item.negated]
                # on later rounds, require at least one body atom to come
                # from the delta (classic semi-naive split)
                variants = range(len(positive)) if not first_round else (None,)
                produced: set[tuple] = set()
                for delta_index in variants:
                    produced |= self._apply_rule(rule, positive, delta,
                                                 delta_index)
                for values in produced:
                    if self._store(rule.head.signature, values):
                        new_delta.setdefault(rule.head.signature,
                                             set()).add(values)
            if not new_delta:
                return
            delta = new_delta
            first_round = False

    def _apply_rule(self, rule: Rule, positive: list[BodyLiteral],
                    delta: dict[tuple, set[tuple]],
                    delta_index: int | None) -> set[tuple]:
        solutions: list[Substitution] = [{}]
        position = -1
        for item in rule.body:
            if isinstance(item, BodyLiteral) and not item.negated:
                position += 1
                use_delta = (delta_index is not None
                             and position == delta_index)
                source = (delta.get(item.atom.signature, set()) if use_delta
                          else self._facts.get(item.atom.signature, set()))
                solutions = self._join_atom(item.atom, source, solutions)
            elif isinstance(item, BodyLiteral):
                solutions = [s for s in solutions
                             if not self._matches_any(item.atom, s)]
            else:
                solutions = [s for s in solutions
                             if _compare(item, s)]
            if not solutions:
                return set()
        out: set[tuple] = set()
        for solution in solutions:
            out.add(tuple(_resolve(argument, solution)
                          for argument in rule.head.arguments))
        return out

    @staticmethod
    def _join_atom(atom: Atom, facts: Iterable[tuple],
                   solutions: list[Substitution]) -> list[Substitution]:
        next_solutions: list[Substitution] = []
        for solution in solutions:
            for values in facts:
                extended = _unify(atom, values, solution)
                if extended is not None:
                    next_solutions.append(extended)
        return next_solutions

    def _matches_any(self, atom: Atom, solution: Substitution) -> bool:
        facts = self._facts.get(atom.signature, set())
        return any(_unify(atom, values, solution) is not None
                   for values in facts)

    # -- querying -----------------------------------------------------------------------

    def query(self, goal: Atom | str) -> list[Substitution]:
        """All substitutions for the goal's variables, as dicts."""
        if isinstance(goal, str):
            goal = parse_atom(goal)
        self._ensure_evaluated()
        bound = tuple(position for position, term
                      in enumerate(goal.arguments) if isinstance(term, Const))
        if bound:
            # probe by the goal's constants; _unify still decides each
            # candidate, so the index only has to keep every fact it
            # would accept
            facts = self._index(goal.signature, bound).get(
                tuple(_index_key(goal.arguments[p].value) for p in bound), ())
        else:
            facts = self._facts.get(goal.signature, ())
        # unify first, order only the answers: a point lookup matches a
        # handful of a predicate's facts, and the key is the same one, so
        # the answer order is what sorting every fact first gave
        matches = [(values, solution) for values in facts
                   if (solution := _unify(goal, values, {})) is not None]
        matches.sort(key=lambda match: _sort_key(match[0]))
        out: list[Substitution] = []
        seen: set[tuple] = set()
        for _values, solution in matches:
            key = tuple(sorted(solution.items()))
            if key not in seen:
                seen.add(key)
                out.append(solution)
        return out

    def holds(self, goal: Atom | str) -> bool:
        """True when the (possibly ground) goal has at least one answer."""
        return bool(self.query(goal))

    def _index(self, signature: tuple[str, int],
               bound: tuple[int, ...]) -> dict[tuple, list[tuple]]:
        """The facts of ``signature`` keyed by their values at ``bound``."""
        index = self._indexes.get((signature, bound))
        if index is None:
            index = {}
            for values in self._facts.get(signature, ()):
                index.setdefault(tuple(_index_key(values[p]) for p in bound),
                                 []).append(values)
            self._indexes[(signature, bound)] = index
        return index


def _index_key(value):
    """Equal keys for every pair :func:`_values_equal` accepts: bools
    apart from numbers, ints and floats by ``float`` value, the rest by
    ``==``."""
    if isinstance(value, bool):
        return (bool, value)
    if isinstance(value, (int, float)):
        try:
            return (float, float(value))
        except OverflowError:   # equal to no float; comparing it raises
            return (float, value)
    return (object, value)


def _sort_key(values: tuple):
    return tuple((type(v).__name__, str(v)) for v in values)


def _const_value(term: Term, rule: Rule):
    if isinstance(term, Var):
        raise SafetyError(f"fact with variable: {rule!r}")
    return term.value


def _resolve(term: Term, solution: Substitution):
    if isinstance(term, Var):
        return solution[term.name]
    return term.value


def _unify(atom: Atom, values: tuple,
           solution: Substitution) -> Substitution | None:
    extended: Substitution | None = None
    current = solution
    for term, value in zip(atom.arguments, values):
        if isinstance(term, Const):
            if not _values_equal(term.value, value):
                return None
        else:
            bound = current.get(term.name, _MISSING)
            if bound is _MISSING:
                if extended is None:
                    extended = dict(solution)
                    current = extended
                extended[term.name] = value
            elif not _values_equal(bound, value):
                return None
    return current if extended is not None else dict(solution)


_MISSING = object()


def _values_equal(left, right) -> bool:
    if isinstance(left, bool) != isinstance(right, bool):
        return False
    left_num = isinstance(left, (int, float)) and not isinstance(left, bool)
    right_num = isinstance(right, (int, float)) and not isinstance(right, bool)
    if left_num and right_num:
        return float(left) == float(right)
    if left_num != right_num:
        return False
    return left == right


def _compare(comparison: Comparison, solution: Substitution) -> bool:
    left = _resolve(comparison.left, solution)
    right = _resolve(comparison.right, solution)
    op = comparison.op
    if op == "=":
        return _values_equal(left, right)
    if op == "!=":
        return not _values_equal(left, right)
    left_num = isinstance(left, (int, float)) and not isinstance(left, bool)
    right_num = isinstance(right, (int, float)) and not isinstance(right, bool)
    if left_num != right_num:
        raise DatalogError(
            f"cannot order {left!r} and {right!r} (mixed types)")
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    return left >= right


def evaluate(program: Program | str) -> DatalogEngine:
    """Build an engine and force evaluation to the fixpoint."""
    engine = DatalogEngine(program)
    engine._ensure_evaluated()
    return engine


def query(program: Program | str, goal: Atom | str) -> list[Substitution]:
    """One-shot: evaluate ``program`` and answer ``goal``."""
    return DatalogEngine(program).query(goal)
