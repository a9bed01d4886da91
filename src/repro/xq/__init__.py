"""XQ-lite: a functional XML query language (FLWOR subset over XPath).

The stand-in for the paper's Saxon XQuery processor: a *functional-style*
component language (Sec. 3) whose results are XML fragments, bound to rule
variables via ``<eca:variable>`` wrappers (Fig. 8).
"""

from .ast import Query
from .evaluator import (Sequence, XQEvaluationError, compile_query,
                        evaluate_parsed_query, evaluate_query)
from .parser import XQSyntaxError, parse_query

__all__ = ["parse_query", "XQSyntaxError", "compile_query", "evaluate_query",
           "evaluate_parsed_query", "XQEvaluationError", "Query", "Sequence"]
