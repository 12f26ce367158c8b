"""Exception types shared across the toolkit."""


class SmpKitError(Exception):
    """Base class for all toolkit errors."""


class DimensionError(SmpKitError, ValueError):
    """Operands have incompatible mode counts or shapes."""


class DomainError(SmpKitError, ValueError):
    """Argument outside the mathematical domain of an operation."""


class SimulationDivergedError(SmpKitError):
    """A simulated path exceeded the overflow guard or produced NaN."""

    def __init__(self, step, path, message=""):
        self.step = step
        self.path = path
        super().__init__(message or f"simulation diverged at step {step}, path {path}")


class DegenerateBasisError(SmpKitError):
    """Regression normal matrix is singular, or the basis violates the over-fit guard."""


class EnsembleMismatchError(SmpKitError):
    """Two objects that must share a noise ensemble come from different seed lineages."""


class WrongTheoremError(SmpKitError):
    """The convex-domain gradient condition was requested for a nonconvex control set."""


class OracleBreakdownError(SmpKitError):
    """A closed-form oracle hit a singular gain or otherwise cannot proceed."""


class LatticeEscapeError(SmpKitError):
    """Dynamic-programming lattice too small: transition mass escapes the grid."""


class StepRuleError(SmpKitError):
    """Optimizer cost estimate increased persistently; the step rule is unstable."""


class ConfigError(DomainError):
    """A preset file or command-line options that no run can honour."""
