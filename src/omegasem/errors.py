"""Exception hierarchy for omegasem."""


class OmegasemError(Exception):
    """Base class for all omegasem errors."""


class ClosureCapExceeded(OmegasemError):
    """Raised when a semigroup's table would need more memory than the
    process may use."""


class NonAssociative(OmegasemError):
    """Raised when a multiplication table fails the associativity check."""


class UnknownLetter(OmegasemError):
    """Raised when a word contains a letter outside the alphabet."""


class EmptyPeriod(OmegasemError):
    """Raised when an ultimately periodic word has an empty period."""


class NotLinkedPair(OmegasemError):
    """Raised when an accepting set contains a pair that is not linked."""


class NotClosed(OmegasemError):
    """Raised when a pair set that must be conjugation-closed is not."""


class AlphabetMismatch(OmegasemError):
    """Raised when alphabets that must agree do not."""


class ParseError(OmegasemError):
    """Raised on malformed input files; carries a line number."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)


class MsoSyntaxError(OmegasemError):
    """Raised on malformed MSO formulas; carries a position."""

    def __init__(self, message, pos=None):
        self.pos = pos
        if pos is not None:
            message = "at position %d: %s" % (pos, message)
        super().__init__(message)
