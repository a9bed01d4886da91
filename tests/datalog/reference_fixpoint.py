"""The naive fixpoint that shipped in ``DatalogEngine`` (as
``strategy="naive"``) until semi-naive iteration became the only one,
kept as the oracle of ``test_strategies.py``.

Every round re-applies every rule to the *full* fact set until a round
adds nothing.  It re-derives everything it already knows each time and
is the point: no delta bookkeeping can be wrong in it, so it defines the
fixpoint the semi-naive engine must reach.

Parsing, stratification, rule application and fact storage are the
engine's own (they were not replaced); the iteration below is the code
as it was.  So is ``query``: it orders *every* fact of the goal's
predicate and then unifies them one by one, where the engine now unifies
first and orders only the matches — the answer lists must be equal,
order included.
"""

from repro.datalog import DatalogEngine, parse_atom
from repro.datalog.ast import BodyLiteral, Rule
from repro.datalog.engine import _sort_key, _unify


class NaiveDatalogEngine(DatalogEngine):
    def _fixpoint(self, rules: list[Rule]) -> None:
        while True:
            self.rounds += 1
            changed = False
            for rule in rules:
                positive = [item for item in rule.body
                            if isinstance(item, BodyLiteral)
                            and not item.negated]
                for values in self._apply_rule(rule, positive, {}, None):
                    if self._store(rule.head.signature, values):
                        changed = True
            if not changed:
                return

    def query(self, goal):
        if isinstance(goal, str):
            goal = parse_atom(goal)
        self._ensure_evaluated()
        facts = self._facts.get(goal.signature, set())
        out = []
        seen = set()
        for values in sorted(facts, key=_sort_key):
            solution = _unify(goal, values, {})
            if solution is None:
                continue
            key = tuple(sorted(solution.items()))
            if key not in seen:
                seen.add(key)
                out.append(solution)
        return out
