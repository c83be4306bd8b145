"""Desk-scale toolkit for pilot-constrained MIMO channel estimation.

Synthesizes physically grounded multipath channels and RSS maps from an
image-method ray model, produces coarse least-squares estimates from few
OFDM pilots, and benchmarks them against an OMP sparse-recovery baseline.
``mbce.autodiff`` is a small reverse-mode engine for the refinement network,
which is not implemented yet.

Power has one convention, for a unit transmit power: a traced path's gain is
its per-element field gain ``lambda * E / sqrt(8*pi*eta0)``, so a channel's
RSS is its mean power per antenna pair and, for one on-grid path, equals the
RSS of its field.

Boundary contract: a count, a sequence of counts (such as a pilot placement,
a grid shape, a stride or pad pair, or tensor axes), or a real, point or array
argument that is malformed (not a number, ragged, of the wrong shape or out of
range) or non-finite raises ``ValueError`` naming the argument; a numeric
string such as ``"1"`` is not a number, and text is not a sequence. So does a
malformed file given to a loader; a missing one raises ``FileNotFoundError``.
A saver writes only what its loader accepts: it checks the map or tensors it
is given again, since their arrays may have changed after construction, and
raises ``ValueError`` naming the bad entry and writes nothing.
Non-finite tensor data in ``mbce.autodiff`` raises ``NumericFault``. Each
check runs once, at the public entry point: the underscore cores that entry
points share, such as the URA response under ``synth_channel`` and the OMP
dictionary, check nothing and take what their callers have checked.

Configs are values: ``ArrayGeometry``, ``PulseConfig``, ``PilotConfig``,
``Box``, ``Scene`` and ``OmpDictionary`` are frozen dataclasses, checked once
when made, that compare and hash by their fields. What they derive from those
fields is not a field and takes no part in ``==`` or ``hash``; an array they
derive and keep, such as ``PilotConfig.pilot_matrix`` or
``OmpDictionary.rx_dirs``, is read-only.
"""

__version__ = "0.1.0"
