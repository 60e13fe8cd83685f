"""Canonical-loop metadata attached to functions by the frontend.

OpenMP worksharing requires loops in *canonical form* (``for (i = lb; i < ub;
i += step)``).  Our frontend lowers every structured ``for`` to the same
shape and records the pieces here, keyed by header block name in
``Function.loop_info``.  The planner reads this to know trip counts (DOALL
requires them) and which alloca is the induction variable (so its
loop-carried update is recognized as privatizable control, not a real
dependence).
"""

import dataclasses


@dataclasses.dataclass
class CanonicalLoop:
    """Metadata for one structured counted loop.

    Attributes:
        header: name of the header block (evaluates the exit condition).
        body: name of the first body block.
        latch: name of the latch block (increments the induction variable).
        exit: name of the block control reaches after the loop.
        induction: the ``Alloca`` holding the induction variable.
        lower: Value of the first iteration's induction value.
        upper: Value of the (exclusive) upper bound.
        step: Value added each iteration (a positive integer constant in
            every loop our frontend produces).
    """

    header: str
    body: str
    latch: str
    exit: str
    induction: object
    lower: object
    upper: object
    step: object
