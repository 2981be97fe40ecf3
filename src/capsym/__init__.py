"""capsym: exterior capacitary potentials, capacity, and boundary
mean-curvature functionals with symmetry diagnostics.

The submodules load on first access (`capsym.bem`, `from capsym import
bem`), so `import capsym` alone loads no numpy: `capsym.cli` can then
choose the BLAS thread count before numpy loads OpenBLAS.
"""

import importlib

__all__ = ["bem", "functionals", "geometry", "identity_lab", "oracles", "symfun"]

__version__ = "0.1.0"


def __getattr__(name):
    if name in __all__:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
