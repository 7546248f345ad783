"""Exception types shared across the package."""


class EigennetError(Exception):
    """Base class for all package errors."""


class TopologyError(EigennetError):
    """Graph generation or parsing failed."""


class ConsensusError(EigennetError):
    """Invalid consensus configuration or input."""


class DegenerateRunError(EigennetError):
    """A decentralized run hit a degenerate quantity (e.g. zero denominator)."""


class MissingTraceError(EigennetError):
    """An error-analysis helper was given a run made without ``trace=True``."""


class DetectionError(EigennetError):
    """Undefined statistic or miscalibrated detector."""


class AuditMismatch(EigennetError):
    """Measured message counters disagree with the complexity formulas."""


class ConfigError(EigennetError):
    """Experiment configuration is malformed or inconsistent."""
