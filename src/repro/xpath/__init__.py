"""An XPath 1.0 subset: lexer, parser, compiling evaluator, core function
library.

One of the Logic-Programming-style "match free variables" query languages
of the paper's Section 3 (cf. XPathLog [May04]); also the path engine
underneath XQ-lite (:mod:`repro.xq`).
"""

from .ast import Expr
from .evaluator import (Context, Focus, XPathEvaluationError, as_boolean,
                        as_nodeset, as_number, as_string, compile_expr,
                        evaluate, evaluate_expr)
from .lexer import Lexer, Token, TokenError
from .nodeops import (AttributeNode, XPathNode, axis_nodes,
                      document_order_key, sort_document_order, string_value)
from .parser import XPathParser, XPathSyntaxError, parse_xpath

__all__ = [
    "Expr", "parse_xpath", "XPathSyntaxError", "XPathParser",
    "Lexer", "Token", "TokenError",
    "Context", "Focus", "compile_expr", "evaluate", "evaluate_expr",
    "XPathEvaluationError",
    "as_string", "as_number", "as_boolean", "as_nodeset",
    "AttributeNode", "XPathNode", "string_value", "document_order_key",
    "sort_document_order", "axis_nodes",
]
