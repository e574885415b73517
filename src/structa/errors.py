"""Exception hierarchy for structural violations.

Every error that reports a concrete counterexample carries it in
``witness`` so callers (and the CLI) can show minimal failing data.
"""


class StructaError(Exception):
    """Base class for all structural errors."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class CarrierMismatch(StructaError):
    """A symbol or subset does not live in the expected carrier."""


class CompositionMismatch(StructaError):
    """Composition requested for maps or arrows that do not compose."""


class NotBijective(StructaError):
    pass


class UnboundedChain(StructaError):
    """Maximal-element search precondition failed: a chain has no upper bound."""


class NotALattice(StructaError):
    pass


class NotSemilattice(StructaError):
    pass


class NotMonotone(StructaError):
    pass


class TooLarge(StructaError):
    """An enumeration guard was exceeded."""


class NotSubgroup(StructaError):
    pass


class NotNormal(StructaError):
    pass


class NotHomomorphism(StructaError):
    pass


class NotAction(StructaError):
    pass


class NotTransitive(StructaError):
    pass


class NotAGroup(StructaError):
    pass


class ZeroDenominator(StructaError):
    pass


class WindowOverflow(StructaError):
    """A value fell outside the verification window."""


class EmptyMemberInBase(StructaError):
    pass


class NotClosedFamily(StructaError):
    pass


class NotCovering(StructaError):
    pass


class EndpointError(StructaError):
    pass


class Mismatch(StructaError):
    """Shapes of composed transformations do not line up."""


class BadStructure(StructaError):
    """A candidate structure fails its defining axioms."""


class ParseError(StructaError):
    """Document syntax error, with position information when available."""

    def __init__(self, message, line=None, column=None):
        super().__init__(message)
        self.line = line
        self.column = column


class SchemaError(StructaError):
    """Well-formed text whose content violates a document schema."""
