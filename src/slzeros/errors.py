"""Exception hierarchy shared by all slzeros modules.

Two families matter for exit-code mapping in the CLI: ``ConfigError``
covers bad user input (exit 2), ``SolverFault`` covers internal numerical
failures that indicate a bug or a broken invariant rather than bad input
(exit 3).
"""


class SLZerosError(Exception):
    """Base class for every library-specific error."""


class ConfigError(SLZerosError):
    """User-supplied configuration or arguments are invalid."""


class SolverFault(SLZerosError):
    """An internal numerical invariant failed; not a user error."""


# -- potential ---------------------------------------------------------------

class UnknownKind(ConfigError):
    pass


class NonIntegrableExponent(ConfigError):
    """Power-law exponent p <= -1: |q| is not integrable on [0, pi]."""


class NonMonotoneTable(ConfigError):
    pass


class DomainMismatch(ConfigError):
    """A coordinate or parameter lies outside its legal range."""


# -- shooting ----------------------------------------------------------------

class MeshTooCoarse(ConfigError):
    pass


class NonFinite(SolverFault):
    def __init__(self, message, cell_index=None):
        super().__init__(message)
        self.cell_index = cell_index


# -- spectrum ----------------------------------------------------------------

class BracketFailure(SolverFault):
    def __init__(self, message, lo=None, hi=None):
        super().__init__(message)
        self.lo = lo
        self.hi = hi


class MonotonicityViolation(SolverFault):
    def __init__(self, message, indices=()):
        super().__init__(message)
        self.indices = tuple(indices)


# -- oscillation -------------------------------------------------------------

class SlopeUnderflow(SolverFault):
    pass


class CountMismatch(SolverFault):
    def __init__(self, message, expected=None, found=None):
        super().__init__(message)
        self.expected = expected
        self.found = found


class DegenerateRatio(SolverFault):
    pass


# -- sweep -------------------------------------------------------------------

class LinkAmbiguity(SolverFault):
    def __init__(self, message, refine_factor=4):
        super().__init__(message)
        self.refine_factor = refine_factor


class EventNotFound(ConfigError):
    pass
