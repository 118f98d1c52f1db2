"""Backend flag kept for tools that record which migration backend ran.

Migration has one numpy implementation (``polarmig.migrate``) and no
compiled kernel, so ``HAVE_NUMBA`` is always False.
"""

HAVE_NUMBA = False
