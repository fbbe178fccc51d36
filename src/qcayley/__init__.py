"""qcayley: certified arithmetic on weighted Cayley trees of universal quantum groups.

Subpackages follow the pipeline: `fusion` (labels, fusion rules, exact
dimensions) -> `cayley` (tree construction and queries) -> `qctree` (the
weighted hilbertian tree: path vectors, inverse series, Gram estimates) ->
`aunitary` (tensor-power norm bounds for the unitary factor) -> `estimates`
(certified series and inequality checks), with `cli`/`verify` on top.
"""

from .errors import EnumerationSizeError, GateError, QCayleyError, SpecSyntaxError, TreeSizeError
from .fusion import (
    Direction,
    FactorSpec,
    GrowthParam,
    Irrep,
    QuantumGroupSpec,
    a_param,
    ao_dims,
    dual,
    format_spec,
    fuse_generator,
    irrep_length,
    parse_spec,
    quantum_dim,
)
from .cayley import CayleyTree, Edge, GeodesicRay, build_tree, geodesic, sphere, validate
from .scalars import QQ, RATIONAL_BACKEND, Interval, Radical

__version__ = "0.1.0"

__all__ = [
    "RATIONAL_BACKEND",
    "QQ",
    "Interval",
    "Radical",
    "QCayleyError",
    "SpecSyntaxError",
    "GateError",
    "TreeSizeError",
    "EnumerationSizeError",
    "Direction",
    "FactorSpec",
    "GrowthParam",
    "Irrep",
    "QuantumGroupSpec",
    "a_param",
    "ao_dims",
    "dual",
    "format_spec",
    "fuse_generator",
    "irrep_length",
    "parse_spec",
    "quantum_dim",
    "CayleyTree",
    "Edge",
    "GeodesicRay",
    "build_tree",
    "geodesic",
    "sphere",
    "validate",
    "__version__",
]
