"""Test support: which OpenBLAS kernel family numpy's matmuls run on.

Each OpenBLAS kernel family sums float32 products in its own order, so a
trained model's bits are fixed per family, not per machine. numpy's wheels
bundle scipy-openblas, which picks its kernels when it loads, by the CPU or
by OPENBLAS_CORETYPE, and reports the core it picked by name.
"""

import ctypes
import glob
import os

import numpy as np

# the core name OpenBLAS reports -> the kernel family whose digests it shares
# (recorded under OPENBLAS_CORETYPE = SkylakeX, Haswell, Sandybridge, Nehalem
# and Prescott; Zen reports Haswell, SapphireRapids and Cooperlake SkylakeX,
# Core2 and Prescott Katmai)
FAMILIES = {
    "SkylakeX": "SkylakeX",
    "Haswell": "Haswell",
    "Sandybridge": "Sandybridge",
    "Nehalem": "Sandybridge",
    "Katmai": "Katmai",
}


def core_name() -> str | None:
    """The OpenBLAS core this process runs, or None when numpy bundles no scipy-openblas."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "libscipy_openblas*.so*")
    for path in glob.glob(libs):
        get = getattr(ctypes.CDLL(path), "scipy_openblas_get_corename64_", None)
        if get is not None:
            get.restype = ctypes.c_char_p
            return get().decode()
    return None


def family() -> str | None:
    """The kernel family of the running core; None for a core or a BLAS outside FAMILIES."""
    return FAMILIES.get(core_name())
