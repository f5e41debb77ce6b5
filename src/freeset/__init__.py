"""Free sets in planar graphs.

Extracts large free sets from embedded planar graphs as combinatorial
curve certificates, realizes them as exact-rational crossing-free drawings
with the free vertices at prescribed points, and applies the machinery to
untangling and simultaneous embeddings.
"""

from .embedding import (
    EmbeddedGraph,
    Face,
    build_embedded,
    dual_graph,
    embed_from_faces,
    subdivide,
    triangulate,
)

__all__ = [
    "EmbeddedGraph",
    "Face",
    "build_embedded",
    "dual_graph",
    "embed_from_faces",
    "subdivide",
    "triangulate",
    "CurveCertificate",
    "SidePartition",
    "validate_curve",
    "side_partition",
    "OrderedFreeSet",
    "planar_freeset",
    "outerplanar_greedy",
    "level_freeset",
    "onebend_freeset",
    "dualcycle_freeset",
    "GridDrawing",
    "verify_drawing",
    "tutte_solve",
    "realize_collinear",
    "perturb_scale",
    "free_realize",
    "untangle",
    "sge_nomap",
    "psge_two",
    "psge_many",
]

from .applications import psge_many, psge_two, sge_nomap, untangle  # noqa: E402
from .curves import (  # noqa: E402
    CurveCertificate,
    SidePartition,
    side_partition,
    validate_curve,
)
from .extractors import (  # noqa: E402
    OrderedFreeSet,
    dualcycle_freeset,
    level_freeset,
    onebend_freeset,
    outerplanar_greedy,
    planar_freeset,
)
from .realize import (  # noqa: E402
    GridDrawing,
    free_realize,
    perturb_scale,
    realize_collinear,
    tutte_solve,
    verify_drawing,
)

__version__ = "0.1.0"
