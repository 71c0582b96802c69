"""Exception hierarchy shared by all gptest modules."""


class GptestError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInput(GptestError):
    pass


class InvalidConfig(GptestError):
    pass


class SingularDesign(GptestError):
    pass


class DegenerateScale(GptestError):
    pass


class SchemaError(GptestError):
    pass


class InsufficientStratum(GptestError):
    pass


class OutOfRange(GptestError):
    pass
