"""Exception types raised across the package."""


class DimensionMismatchError(ValueError):
    """Mode counts of two objects disagree."""


class SectorError(ValueError):
    """Occupation vectors with different total photon numbers were mixed."""


class DegenerateStateError(ValueError):
    """A zero (or fully pruned) state cannot be normalized."""


class NonFiniteAmplitudeError(ValueError):
    """A state amplitude is NaN or infinite."""


class PhotonCountError(ValueError):
    """More photons than a state or a routine's factorial table can hold."""


class ExpansionTooLargeError(ValueError):
    """An expansion has more terms than evolve may build in memory."""


class InvalidCoefficientsError(ValueError):
    """Beam splitter coefficients violate the unitarity constraints."""


class NonUnitaryError(ValueError):
    """A matrix expected to be unitary is not, within tolerance."""


class CircuitError(ValueError):
    """A circuit definition is structurally invalid."""


class CircuitParseError(CircuitError):
    """A circuit file failed to parse. Carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class MissingPhaseError(CircuitError):
    """compile() was called without a value for some phase parameter."""


class UnknownDetectorError(ValueError):
    """A detection pattern referenced a detector the circuit does not define."""


class UnclassifiableScanError(ValueError):
    """A scan has more than one nonzero harmonic, so no single cosine fits."""
