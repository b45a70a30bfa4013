"""Exception types shared across the simulator and harness."""


class AtombenchError(Exception):
    """Base class for all package errors."""


class CapacityError(AtombenchError):
    """Requested register exceeds the configured memory budget."""


class ValidationError(AtombenchError):
    """Input violates a contract (non-CPTP channel, non-unitary gate, bad sites...)."""


class PatternLeakError(AtombenchError):
    """A channel produced amplitude outside the sparse block pattern."""


class RoutingError(AtombenchError):
    """No path joins two nodes of a topology, e.g. a node off the register."""


class SchemaError(AtombenchError):
    """Malformed external file (circuit JSON, config, reference data)."""


class ParameterRegimeError(AtombenchError):
    """Noise parameters outside the physically meaningful regime."""


class DegenerateIdealError(AtombenchError):
    """Normalized classical fidelity is undefined because the ideal is uniform."""

    def __init__(self, f_s: float):
        super().__init__(
            f"ideal distribution is uniform; normalized fidelity undefined (f_s={f_s})"
        )
        self.f_s = f_s
