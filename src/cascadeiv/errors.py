"""Exception and warning types shared across the package."""

from __future__ import annotations


class CascadeIVError(Exception):
    """Base class for all package-specific errors."""


# ---------------------------------------------------------------------------
# Data / schema errors
# ---------------------------------------------------------------------------


class DataError(CascadeIVError):
    """Invalid input data (shape, type, or schema problems)."""


class SchemaError(DataError):
    """A file does not match the documented column schema."""


class ParseError(DataError):
    """A file could not be parsed; carries the 1-based physical line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


# ---------------------------------------------------------------------------
# Numerical errors
# ---------------------------------------------------------------------------


class NumericalError(CascadeIVError):
    """A computation cannot proceed for numerical reasons."""


class RankDeficientControls(NumericalError):
    """Control matrix has linearly dependent columns.

    ``cond`` bounds the condition number of the controls' cross-products
    (scaled to a unit diagonal) from below.
    """

    def __init__(self, column: int, cond: float):
        self.column = column
        self.cond = cond
        super().__init__(
            f"control matrix is rank deficient: column {column} is in the span "
            f"of the preceding columns (cross-product condition number {cond:.3e})"
        )


class SingularInstrumentGram(NumericalError):
    """Instrument Gram matrix is rank deficient after partialling controls."""


class SingularFirstStage(NumericalError):
    """The first-stage matrix (transposed) is singular or too ill conditioned."""

    def __init__(self, cond: float, message: str | None = None):
        self.cond = cond
        super().__init__(
            message or f"first-stage matrix is numerically singular "
            f"(condition number {cond:.3e})"
        )


class ZeroDiagonal(NumericalError):
    """A diagonal first-stage coefficient is exactly zero (relevance failure)."""

    def __init__(self, k: int):
        self.k = k
        super().__init__(f"first-stage diagonal entry for treatment {k + 1} is zero")


class TooFewClusters(NumericalError):
    """Cluster-robust inference needs at least two clusters."""


class StatisticFailedInReplication(NumericalError):
    """More than the tolerated share of bootstrap replications failed, or all did."""

    def __init__(self, n_failed: int, reps: int, max_share: float = 0.10):
        self.n_failed = n_failed
        self.reps = reps
        why = f"> {max_share * 100:g}% ceiling" if n_failed > max_share * reps else "none succeeded"
        super().__init__(f"{n_failed} of {reps} bootstrap replications failed ({why})")


class DivergentCascade(NumericalError):
    """Vacancy-matrix spectral radius is >= 1; the round-by-round sum diverges."""

    def __init__(self, rho: float):
        self.rho = rho
        super().__init__(
            f"cascade series diverges: spectral-radius estimate {rho:.6g} >= 1"
        )


class MaxRoundsExceeded(NumericalError):
    """Round-by-round accumulation did not converge within the round budget."""


class LengthMismatch(DataError):
    """Vector arguments that must share a length do not."""


class NonpositiveDiagonal(NumericalError):
    """A within-block diagonal first-stage coefficient is not strictly positive."""

    def __init__(self, m: int):
        self.m = m
        super().__init__(
            f"diagonal first-stage entry for program {m + 1} is not strictly "
            f"positive; block weights would lose their positivity guarantee"
        )


class ZeroComplierMass(NumericalError):
    """Both complier shares at the focal margin are zero."""


class NoPivotalVariation(NumericalError):
    """No program was oversubscribed, so the lottery identifies nothing."""


class UnresolvedPriorityTie(NumericalError):
    """Tied priorities straddle a cutoff, so raising it rejects nobody.

    The clearing needs strict priorities; without this error the cutoff
    sweep would repeat the same state forever.
    """

    def __init__(self, programs):
        self.programs = [int(p) for p in programs]
        super().__init__(
            f"programs {self.programs} are over capacity but their cutoffs "
            "reject nobody: tied priorities straddle the cutoff"
        )


class InfeasibleComplierTargets(DataError):
    """Requested complier shares cannot be realized by the generator."""


class NoEquilibrium(NumericalError):
    """The linear demand system has no market-clearing price vector."""


class FixtureMismatch(CascadeIVError):
    """Embedded reference values failed their consistency checks."""

    def __init__(self, failures: list[str]):
        self.failures = failures
        super().__init__("fixture checks failed: " + "; ".join(failures))


# ---------------------------------------------------------------------------
# Warnings
# ---------------------------------------------------------------------------


class CascadeIVWarning(UserWarning):
    """Base class for package-specific warnings."""


class WeakDiagonalWarning(CascadeIVWarning):
    """A diagonal first-stage coefficient is below the relevance threshold."""


class IllConditionedWarning(CascadeIVWarning):
    """A solve proceeded despite a large condition number."""


class EmptyGroupWarning(CascadeIVWarning):
    """A requested group level has no observations."""


class NoPivotalProgramWarning(CascadeIVWarning):
    """Some program produced no pivotal group in any replication."""
