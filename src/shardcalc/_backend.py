"""The numeric kernel: `kernel` exposes pivot_step, sign_eval and
quick_check, implemented in pure Python in _kernel_py."""

from . import _kernel_py as kernel

BACKEND = "pure"
