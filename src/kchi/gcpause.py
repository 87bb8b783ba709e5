"""Pause Python's cyclic garbage collector while certificates are built and read.

Building or parsing a certificate allocates ~10⁵ containers (tuples, lists,
dicts) that form no reference cycles; each allocation threshold crossed
meanwhile starts a collector pass over the young containers, which only
finds them all alive.  Reference counting still frees everything these
calls drop, so pausing the collector changes no result, only the time.
"""

from __future__ import annotations

import gc
from functools import wraps


def gc_paused(fn):
    """``fn`` run with the cyclic collector off, its previous state restored after.

    The state is restored on return and on raise.  Nested calls keep it off
    until the outermost returns, and a collector the caller turned off stays
    off.
    """

    @wraps(fn)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return fn(*args, **kwargs)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            gc.enable()

    return paused
