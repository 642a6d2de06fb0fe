"""Exception taxonomy shared across the package."""


class GroupError(Exception):
    """Base class for group construction and validation failures."""


class GroupSizeError(GroupError):
    """A construction would exceed the configured maximum group order."""


class GroupParameterError(GroupError):
    """Constructor parameters lie outside their documented domain."""


class CayleyValidationError(GroupError):
    """A multiplication table violates a group law.

    ``law`` names the violated law: ``closure``, ``latin-square``,
    ``identity``, ``associativity``, or ``order``.
    """

    def __init__(self, law: str, message: str):
        super().__init__(message)
        self.law = law

    def __reduce__(self):
        # pickle and copy rebuild an exception from its args, which hold the message only
        return type(self), (self.law, str(self))


class CayleyParseError(GroupError):
    """A Cayley table file is syntactically malformed."""


class SpecSyntaxError(GroupError):
    """A textual group spec does not conform to the grammar."""
