"""torns: stochastic 2D Navier-Stokes on the periodic torus, pseudospectrally.

Modules, each name imported from its own: spectral (fields, vorticity rows,
their random draws and norms, dealiased advection), noise (Wiener/OU paths),
dynamics (ETD/EM steppers for the deterministic, Ito and OU-conjugated systems),
experiments (pullback of a family, smoothing and convergence measurements),
io (configs, checkpoints, CSV artifacts), cli (the torns command).
"""

__version__ = "0.1.0"
