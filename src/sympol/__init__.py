"""Symplectic polar geometry over small prime fields.

Exact enumeration of isotropic Grassmannians and symplectic bases,
the base subsets of each layer with their inexact-subset hierarchy,
and reconstruction of a point map from any layer map that sends base
subsets to base subsets.  The row arithmetic runs on one pure Python
kernel implementation, so BACKEND is always "pure".
"""

from sympol._kernels import BACKEND
from sympol.bases import (
    PointMap,
    SymplecticBase,
    enumerate_all_bases,
    is_symplectic_base,
    random_base,
    random_collineation,
    recognize,
)
from sympol.grassmann import (
    Grassmannian,
    adjacent,
    grassmannian,
    grassmannian_size,
    maximal_adjacency_cliques,
    ortho_adjacent,
    star,
    top,
)
from sympol.linalg import Subspace
from sympol.recon import (
    GrassmannianMap,
    descend,
    induce,
    reconstruct,
)
from sympol.space import SymplecticSpace
from sympol.subsets import (
    BaseSubset,
    base_subset_size,
    certify_inexact,
    common_base,
    complement_family,
    is_exact,
    maximal_inexact_families,
    maximal_inexact_oracle,
)

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "BaseSubset",
    "Grassmannian",
    "GrassmannianMap",
    "PointMap",
    "Subspace",
    "SymplecticBase",
    "SymplecticSpace",
    "adjacent",
    "base_subset_size",
    "certify_inexact",
    "common_base",
    "complement_family",
    "descend",
    "enumerate_all_bases",
    "grassmannian",
    "grassmannian_size",
    "induce",
    "is_exact",
    "is_symplectic_base",
    "maximal_adjacency_cliques",
    "maximal_inexact_families",
    "maximal_inexact_oracle",
    "ortho_adjacent",
    "random_base",
    "random_collineation",
    "recognize",
    "reconstruct",
    "star",
    "top",
]
