"""qcayley: certified arithmetic on weighted Cayley trees of universal quantum groups.

Each module imports only `scalars`, `errors` and the modules before it: `fusion`
(labels, fusion rules, exact dimensions, growth gate) -> `cayley` (trees and
their queries) -> `aunitary` (tensor-power norm bounds for the unitary factor)
-> `estimates` (certified series and inequality checks) -> `qctree` (path
vectors, inverse series, Gram estimates), with `cli`/`verify` on top.
"""

from .errors import (
    EnumerationSizeError,
    GateError,
    QCayleyError,
    SizeError,
    SpecSyntaxError,
    ToeplitzSizeError,
    TreeSizeError,
)
from .fusion import (
    Direction,
    FactorSpec,
    GrowthParam,
    Irrep,
    QuantumGroupSpec,
    a_param,
    ao_dims,
    format_spec,
    fuse_generator,
    parse_spec,
    quantum_dim,
)
from .cayley import CayleyTree, Edge, GeodesicRay, build_tree, geodesic, validate
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
    "SizeError",
    "TreeSizeError",
    "EnumerationSizeError",
    "ToeplitzSizeError",
    "Direction",
    "FactorSpec",
    "GrowthParam",
    "Irrep",
    "QuantumGroupSpec",
    "a_param",
    "ao_dims",
    "format_spec",
    "fuse_generator",
    "parse_spec",
    "quantum_dim",
    "CayleyTree",
    "Edge",
    "GeodesicRay",
    "build_tree",
    "geodesic",
    "validate",
    "__version__",
]
