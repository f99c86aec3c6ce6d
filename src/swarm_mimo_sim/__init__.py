"""Line-of-sight massive MIMO uplink simulator for drone swarms.

Modules
-------
geometry      frames, array layout, distance expansion, shell/orientation sampling
polarization  cross-dipole coupling, effective gain, worst-case search
channel       pathloss, channel matrices, pilots, ML estimation, receivers
rates         closed-form ergodic-rate lower bounds and special functions
spacing       optimal element spacings and correlation-excess sweeps
montecarlo    seeded estimators validating and feeding the closed forms
mission       surveillance use case: coverage paths, throughput, link budget
cli           config-driven experiment harness (``swarm-mimo-sim``)
"""

__version__ = "0.1.0"
