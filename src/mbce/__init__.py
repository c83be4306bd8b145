"""Desk-scale toolkit for pilot-constrained MIMO channel estimation.

Synthesizes physically grounded multipath channels and RSS maps from an
image-method ray model, produces coarse least-squares estimates from few
OFDM pilots, and benchmarks them against an OMP sparse-recovery baseline.
``mbce.autodiff`` is a small reverse-mode engine for the refinement network,
which is not implemented yet.

Boundary contract: a count, real, point or array argument that is malformed
(not a number, of the wrong shape or out of range) or non-finite raises
``ValueError`` naming the argument; a numeric string such as ``"1"`` is not a
number. So does a malformed file given to a loader; a missing one raises
``FileNotFoundError``. A saver writes only what its loader accepts: it checks
the map or tensors it is given again, since their arrays may have changed after
construction, and raises ``ValueError`` naming the bad entry and writes nothing.
Non-finite tensor data in ``mbce.autodiff`` raises ``NumericFault``. Each
check runs once, at the public entry point: the underscore cores that entry
points share, such as the URA response under ``synth_channel`` and the OMP
dictionary, check nothing and take what their callers have checked.
"""

__version__ = "0.1.0"
