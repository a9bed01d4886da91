"""The naive fixpoint that shipped in ``DatalogEngine`` (as
``strategy="naive"``) until semi-naive iteration became the only one,
kept as the oracle of ``test_strategies.py``.

Every round re-applies every rule to the *full* fact set until a round
adds nothing.  It re-derives everything it already knows each time and
is the point: no delta bookkeeping can be wrong in it, so it defines the
fixpoint the semi-naive engine must reach.

Parsing, stratification, rule application and fact storage are the
engine's own (they were not replaced); the iteration below is the code
as it was.
"""

from repro.datalog import DatalogEngine
from repro.datalog.ast import BodyLiteral, Rule


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
