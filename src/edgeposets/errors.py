"""Exception types shared across the package."""


class EdgePosetsError(Exception):
    """Base class for all library errors."""


class NotGraded(EdgePosetsError):
    """A cover pair violates the rank(y) = rank(x) + 1 condition."""


class DuplicateCover(EdgePosetsError):
    """The same cover pair was supplied twice."""


class IndexOutOfRange(EdgePosetsError):
    """An element index falls outside 0..n-1."""


class TooLarge(EdgePosetsError):
    """Requested object exceeds the desk-scale construction cap."""


class GroupTooLarge(EdgePosetsError):
    """A group to be enumerated element by element has order above
    perms.GROUP_CAP; building a group and computing with its stabiliser
    chain are not capped."""


class InvalidParams(EdgePosetsError):
    """Parameters invalid for the requested constructor."""


class NotInvolutions(InvalidParams):
    """A supposed elementary abelian 2-group generator is not an involution."""


class NotCommuting(InvalidParams):
    """Supposed elementary abelian 2-group generators do not commute."""


class NotAGroup(InvalidParams):
    """A multiplication table fails the group axioms."""


class InvalidMorphism(EdgePosetsError):
    """A map between posets is not rank- and cover-preserving."""


class ImageNotCover(InvalidMorphism):
    """An induced edge map hit a pair that is not a cover of the target."""


class ImageChainNotSaturated(EdgePosetsError):
    """A transported chain is not saturated in the target poset."""


class InvalidChainDecomposition(EdgePosetsError):
    """Chains fail to partition the poset, saturate, or sit symmetrically."""


class WrongGroup(EdgePosetsError):
    """Operation requires the standard wreath-product group action."""


class InvalidGenerators(EdgePosetsError):
    """A generator file or string could not be parsed into permutations."""


class InvalidInput(EdgePosetsError):
    """Bad CLI input (maps to exit code 2)."""


class InternalInconsistency(EdgePosetsError):
    """A result contradicts a proved identity; indicates an implementation bug
    (maps to exit code 3)."""
