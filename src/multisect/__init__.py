"""Multisections of closed PL manifolds from generalized triangulations.

The package builds facet-gluing triangulations, subdivides them, labels
their vertices with partition schemes, extracts the dual cell structures
(handlebody spines, central cubings) and verifies the combinatorial
conditions that make the decomposition a multisection.
"""

from .triangulation import Triangulation, TriangulationError, FacePoset, TriSummary
from .zoo import double_simplex, cross_sphere, cross_projective
from .subdivide import (
    barycentric,
    pachner_2n_pass,
    stellar_facet,
    join,
    slot_carriers,
    infer_sides,
    CarrierLabels,
    Limits,
)
from .partition import (
    VertexPartition,
    scheme_partition,
    coordinate_labels,
    validate,
    ValidationReport,
    SubsetReport,
    ClassGraph,
    symmetric_representation,
    labeling_cover,
    twisted_admissible,
    SymRep,
    TwistedReport,
)
from .cells import (
    CellComplex,
    extract,
    class_label_multisets,
    vertex_links,
    vertex_link,
    graph_genus,
    LinkComplex,
    npc_check,
    NpcReport,
    collapse,
    CollapseResult,
)
from .invariants import (
    multisection_report,
    MultisectionReport,
    euler_trisection_check,
    TrisectionVerdict,
    pi1_presentation,
    GroupPresentation,
    inclusion_epimorphism,
    InclusionReport,
    h1_onto_check,
)
from .io import load_stream, save_stream, save_partition, cell_complex_json

__version__ = "0.1.0"

__all__ = [
    "Triangulation",
    "TriangulationError",
    "FacePoset",
    "TriSummary",
    "double_simplex",
    "cross_sphere",
    "cross_projective",
    "barycentric",
    "pachner_2n_pass",
    "stellar_facet",
    "join",
    "slot_carriers",
    "infer_sides",
    "CarrierLabels",
    "Limits",
    "VertexPartition",
    "scheme_partition",
    "coordinate_labels",
    "validate",
    "ValidationReport",
    "SubsetReport",
    "ClassGraph",
    "symmetric_representation",
    "labeling_cover",
    "twisted_admissible",
    "SymRep",
    "TwistedReport",
    "CellComplex",
    "extract",
    "class_label_multisets",
    "vertex_links",
    "vertex_link",
    "graph_genus",
    "LinkComplex",
    "npc_check",
    "NpcReport",
    "collapse",
    "CollapseResult",
    "multisection_report",
    "MultisectionReport",
    "euler_trisection_check",
    "TrisectionVerdict",
    "pi1_presentation",
    "GroupPresentation",
    "inclusion_epimorphism",
    "InclusionReport",
    "h1_onto_check",
    "load_stream",
    "save_stream",
    "save_partition",
    "cell_complex_json",
    "__version__",
]
