"""Variable bindings: tuples, relations, natural join, answer markup.

The central data structure of the paper's rule semantics (Section 3):
communication between the ECA engine and every component language happens
by exchanging *sets of tuples of variable bindings*.
"""

from .markup import (ANSWER, ANSWERS, PLACEHOLDER, RESULT, VARIABLE,
                     MarkupError, answer_to_binding, answers_to_relation,
                     binding_to_answer, element_to_value,
                     relation_to_answers, results_from_answer, substitute,
                     value_to_element, value_to_text)
from .relation import Binding, BindingError, Relation
from .values import Uri, Value, value_sort_key, values_equal

__all__ = [
    "Binding", "Relation", "BindingError",
    "Uri", "Value", "values_equal", "value_sort_key",
    "relation_to_answers", "answers_to_relation",
    "binding_to_answer", "answer_to_binding",
    "value_to_element", "element_to_value", "value_to_text",
    "PLACEHOLDER", "substitute", "results_from_answer", "MarkupError",
    "ANSWERS", "ANSWER", "VARIABLE", "RESULT",
]
