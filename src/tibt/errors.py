"""Exception types raised across the package."""


class TibtError(Exception):
    """Base class for all package-specific errors."""


class NonHurwitzError(TibtError):
    """A matrix required to be Hurwitz has an eigenvalue with Re >= 0."""


class SingularSeparationError(TibtError):
    """A Lyapunov equation is singular: some eigenvalue pair sums to ~0."""


class SpectrumOverlapError(TibtError):
    """Sylvester equation ill-posed: spectra of the coefficient matrices meet."""


class ShiftSolveFailure(TibtError):
    """A shifted linear system (A - sI)x = b could not be solved reliably."""


class NotSymmetricError(TibtError):
    """A matrix required to be symmetric is not, beyond tolerance."""


class SingularProjectionError(TibtError):
    """The Petrov-Galerkin normalization matrix W^T V is numerically singular."""


class SingularValueTieError(TibtError):
    """Truncation index falls inside a singular-value tie; split undefined."""


class RepeatedPolesError(TibtError):
    """Pole-residue form requested for a system with (near-)repeated poles."""


class InterimUnstableError(TibtError):
    """An intermediate reduced matrix could not be stabilized by reflection."""


class DenseInfeasibleError(TibtError):
    """A dense computation was requested above the configured size cap."""


class DimensionMismatchError(TibtError):
    """Operands have inconsistent dimensions."""


class ParseError(TibtError):
    """A Matrix Market file could not be parsed.

    Carries the 1-based line number of the offending line in ``line`` and
    the file's ``path``, which the reader sets; both prefix the message.
    """

    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line
        self.path = None

    def __str__(self):
        where = [] if self.path is None else [str(self.path)]
        if self.line is not None:
            where.append(f"line {self.line}")
        return ": ".join([*where, super().__str__()])
