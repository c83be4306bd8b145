"""Desk-scale toolkit for pilot-constrained MIMO channel estimation.

Synthesizes physically grounded multipath channels and RSS maps from an
image-method ray model, produces coarse least-squares estimates from few
OFDM pilots, and benchmarks them against an OMP sparse-recovery baseline.
``mbce.autodiff`` is a small reverse-mode engine for the refinement network,
which is not implemented yet.
"""

__version__ = "0.1.0"
