"""Exception hierarchy shared by the whole package.

Every failure mode that a caller is expected to branch on gets its own class;
``InternalCheckError`` is reserved for invariant violations that indicate a bug
(a lifted character table failing orthogonality, a character dimension coming
out non-integral, ...) rather than bad input.
"""


class GkcertError(Exception):
    """Base class for all package errors."""


# -- exact algebra ----------------------------------------------------------

class NotPrime(GkcertError):
    pass


class ZeroPolynomial(GkcertError):
    pass


class NotSquarefree(GkcertError):
    pass


class NotMonic(GkcertError):
    pass


# -- number fields ----------------------------------------------------------

class Reducible(GkcertError):
    pass


class IrreducibilityUndecided(GkcertError):
    pass


class UnsafePrime(GkcertError):
    """Dedekind's criterion shows p divides the index [O_F : Z[theta]].

    Splitting data for such a prime must be ingested, never guessed.
    """


# -- groups and characters --------------------------------------------------

class InvalidTable(GkcertError):
    pass


class TauNotCentralInvolution(GkcertError):
    pass


class NotASubgroup(GkcertError):
    pass


class NonIntegralDimension(GkcertError):
    """A fixed-space dimension came out non-integral; impossible for genuine
    character data, so this signals corrupted input or an internal bug."""


# -- extension model --------------------------------------------------------

class RamifiedPrime(GkcertError):
    pass


class NotLinearlyDisjoint(GkcertError):
    pass


class AmbiguousDecomposition(GkcertError):
    """Splitting data does not pin down the decomposition subgroup."""


class SchemaViolation(GkcertError):
    pass


class InvariantViolation(GkcertError):
    def __init__(self, invariant: str, detail: str = ""):
        self.invariant = invariant
        super().__init__(f"{invariant}" + (f": {detail}" if detail else ""))


# -- vanishing orders -------------------------------------------------------

class EvenCharacter(GkcertError):
    pass


# -- engine -----------------------------------------------------------------

class MissingLayer(GkcertError):
    pass


class NonPPower(GkcertError):
    pass


class PIsTwo(GkcertError):
    """p = 2 is rejected for certification (no main conjecture available)."""


# -- harness ----------------------------------------------------------------

class PoolExhausted(GkcertError):
    pass


class MalformedRow(SchemaViolation):
    """A check-table row of the wrong shape or with impossible values."""


class InternalCheckError(GkcertError):
    """An internal consistency check failed; indicates a bug, not bad input."""
