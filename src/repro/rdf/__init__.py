"""RDF substrate: term model, indexed graph, Turtle, SPARQL subset.

Built from scratch (no RDF library is available offline); provides the
Semantic-Web data services that ECA query components are evaluated
against.
"""

from .graph import Graph, Triple
from .sparql import (SparqlEvaluationError, SparqlQuery, SparqlSyntaxError,
                     parse_sparql)
from .terms import BNode, Literal, Namespace, RDF, RDFS, Term, URIRef, XSD
from .rdfxml import (RDF_SYNTAX_NS, RdfXmlError, describe_subject,
                     graph_to_rdfxml, rdfxml_to_graph)
from .turtle import TurtleSyntaxError, parse_turtle, to_ntriples

__all__ = [
    "URIRef", "BNode", "Literal", "Term", "Namespace", "XSD", "RDF", "RDFS",
    "Graph", "Triple",
    "parse_turtle", "to_ntriples", "TurtleSyntaxError",
    "graph_to_rdfxml", "rdfxml_to_graph", "describe_subject",
    "RDF_SYNTAX_NS", "RdfXmlError",
    "parse_sparql", "SparqlQuery", "SparqlSyntaxError",
    "SparqlEvaluationError",
]
