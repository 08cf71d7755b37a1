"""Attribute-graph data model and graph streams (paper Section 3.1).

Public surface:

* :class:`~repro.graph.elements.Edge`, :class:`~repro.graph.elements.Update`
  and the ``add`` / ``delete`` constructors,
* :class:`~repro.graph.graph.Graph` — the in-memory directed labelled
  multigraph,
* :class:`~repro.graph.stream.GraphStream` — replayable update sequences.
"""

from .elements import Edge, Update, UpdateKind, Vertex, add, delete, renumber
from .errors import (
    BenchmarkError,
    DatasetError,
    DecompositionError,
    DuplicateQueryError,
    EdgeNotFoundError,
    EngineError,
    GraphError,
    QueryError,
    ReproError,
    StreamError,
    UnknownQueryError,
    VertexNotFoundError,
)
from .graph import Graph
from .interning import VertexInterner
from .stream import GraphStream, StreamStatistics

__all__ = [
    "Edge",
    "Update",
    "UpdateKind",
    "Vertex",
    "VertexInterner",
    "add",
    "delete",
    "renumber",
    "Graph",
    "GraphStream",
    "StreamStatistics",
    "ReproError",
    "GraphError",
    "EdgeNotFoundError",
    "VertexNotFoundError",
    "QueryError",
    "DecompositionError",
    "EngineError",
    "DuplicateQueryError",
    "UnknownQueryError",
    "StreamError",
    "DatasetError",
    "BenchmarkError",
]
