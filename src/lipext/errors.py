"""Exception types shared across the package."""


class DimensionMismatchError(ValueError):
    """Operands live in different ambient dimensions."""


class FormatError(ValueError):
    """An input document names a kind or node its file format does not know."""


class InfeasiblePointError(ValueError):
    """A point required to lie in a convex set does not; carries the distance."""

    def __init__(self, message: str, distance: float):
        super().__init__(message)
        self.distance = distance


class DataConsistencyError(ValueError):
    """Finite map data violates its Lipschitz bound; carries the witness pair."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class ModulusViolationError(ValueError):
    """A claimed modulus of continuity fails on a data pair."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class ImproperFunctionError(ArithmeticError):
    """Evaluation detected a -inf value; names the offending node."""

    def __init__(self, node_name: str, message: str = ""):
        super().__init__(message or f"improper value (-inf) detected in node {node_name!r}")
        self.node_name = node_name


class BoxExhaustionError(ArithmeticError):
    """Inner optimization kept improving as its search box was doubled."""

    def __init__(self, node_name: str, message: str = ""):
        super().__init__(message or f"search box exhausted in node {node_name!r}")
        self.node_name = node_name


class EnumerationGuardError(RuntimeError):
    """A subset enumeration would exceed the combinatorial budget."""


class SolverCapError(RuntimeError):
    """An iterative solver hit its iteration cap without a certificate."""
