"""Call-string contexts.

A context ``c`` is the stack of call sites the traversal has virtually
"returned into": traversing a ``ret_i`` edge backwards (entering the
callee from its return) pushes ``i``; traversing a ``param_i`` edge
backwards (exiting to the call site) requires ``c`` to be empty or have
``i`` on top, and pops (Algorithm 1 lines 12-15).  Realisable paths may
be *partially balanced* — they need not start and end in the same
method — hence the ``c = ∅`` escape.

Contexts are plain tuples with the **top at the end**.  Tuples hash and
compare structurally and are immutable (safe as dict keys in the memo
and jump map).  :func:`ctx_enter`/:func:`ctx_exit` are every
traversal's one definition of crossing a call edge, memoised because
the traversal crosses the same edges millions of times: each distinct
result is one tuple object (identity-fast-path equality in the visited
and memo sets), shared by every engine in the process.  Entering resets
to ``∅`` rather than repeat a site: collapse keeps built PAGs free of
repeats, but edits can add cycles it never saw (DESIGN.md §4.18).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Tuple

__all__ = ["Context", "EMPTY_CTX", "ctx_push", "ctx_pop", "ctx_enter", "ctx_exit",
           "ctx_top", "ctx_depth"]

Context = Tuple[int, ...]

#: The empty context ``∅`` — also the context of every global variable.
EMPTY_CTX: Context = ()


def ctx_push(c: Context, site: int) -> Context:
    """Push call site ``site`` onto ``c``."""
    return c + (site,)


def ctx_pop(c: Context) -> Context:
    """Pop the top site; popping the empty context is the identity
    (the paper's ``∅.pop() ≡ ∅``, Algorithm 1 line 14)."""
    return c[:-1] if c else c


@lru_cache(maxsize=1 << 12)
def ctx_enter(c: Context, site: int) -> Context:
    """Enter a callee through ``site``: push it, or reset to ``∅`` when
    ``site`` is already on ``c`` (an uncollapsed cycle)."""
    return EMPTY_CTX if site in c else ctx_push(c, site)


@lru_cache(maxsize=1 << 12)
def ctx_exit(c: Context, site: int) -> Optional[Context]:
    """Leave a callee to ``site``: pop it off the top, with ``∅``
    passing every site; ``None`` when ``c`` returns elsewhere."""
    return None if c and c[-1] != site else ctx_pop(c)


def ctx_top(c: Context) -> Optional[int]:
    """Top call site, or ``None`` for the empty context."""
    return c[-1] if c else None


def ctx_depth(c: Context) -> int:
    """Stack depth of ``c``."""
    return len(c)
