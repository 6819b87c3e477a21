"""Select the reduction kernel backend.

Uses the compiled extension when it was built and the pure Python kernel
otherwise.  BACKEND names the choice for reporting.
"""

try:
    from fourfold._snf_cy import snf_inplace

    BACKEND = "compiled"
except ImportError:
    from fourfold._snf_py import snf_inplace

    BACKEND = "python"

__all__ = ["snf_inplace", "BACKEND"]
