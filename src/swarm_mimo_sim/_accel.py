"""Kernel backend record.

Every kernel has one implementation, in numpy. ``USE_NUMBA`` stays for
environment reports that still read it; it is always false.
"""

USE_NUMBA = False
