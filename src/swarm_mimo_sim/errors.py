"""Exception types shared across the package."""


class SwarmMimoError(ValueError):
    """Base class for domain errors raised by this package."""


class SingularDirectionError(SwarmMimoError):
    """Propagation direction lies on a polarization-basis singularity axis."""


class DegenerateExcitationError(SwarmMimoError):
    """Both dipole feeds are zero; the polarization loss factor is undefined."""


class InfeasibleFrameError(SwarmMimoError):
    """Coherence interval too short for the requested pilot/downlink overhead."""


class SingularChannelError(SwarmMimoError):
    """Channel Gram matrix is numerically rank deficient."""


class ConfigError(SwarmMimoError):
    """Experiment configuration is malformed or violates a constraint."""
