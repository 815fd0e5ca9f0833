"""Exception types shared across the package."""


class PhasegameError(Exception):
    """Base class for all domain errors."""


class UsageError(ValueError):
    """Malformed input; not a PhasegameError, so domain handlers miss it."""


# lattice loading / queries

class NotAPartialOrder(PhasegameError):
    pass


class NotALattice(PhasegameError):
    pass


class UnboundedLattice(PhasegameError):
    pass


class ForeignElement(PhasegameError):
    pass


class NotHeyting(PhasegameError):
    pass


# phase structures

class NotCommutative(PhasegameError):
    pass


class NotAssociative(PhasegameError):
    pass


class DualLawViolation(PhasegameError):
    pass


class OverrideInconsistent(PhasegameError):
    pass


class UnitNotNeutral(PhasegameError):
    """The unit row is not the identity: in a phase structure under
    unit_mode 'strict', or in a subset oracle's monoid."""


class ExprSyntaxError(UsageError, PhasegameError):
    """Malformed connective expression."""


class NotClosed(PhasegameError):
    """The join of implication candidates is not itself a candidate."""


class NotClosedClass(PhasegameError):
    pass


# solver

class NoSolution(PhasegameError):
    pass


class CapExceeded(PhasegameError):
    def __init__(self, message, solutions):
        super().__init__(message)
        self.solutions = solutions


# games

class InvalidStrategy(PhasegameError):
    pass


class ComponentMismatch(PhasegameError):
    pass


class LatticeMismatch(PhasegameError):
    pass


class InteractionOverflow(PhasegameError):
    """Copycat reached a mirror play longer than an acyclic game allows."""


# planner

class BadGrid(PhasegameError):
    pass


class UnknownGoalElement(PhasegameError):
    pass


class SizeExceeded(UsageError, PhasegameError):
    pass
