"""Exception types shared across the package."""


def _rebuild(cls, args, state):
    error = cls.__new__(cls, *args)
    error.__dict__.update(state)
    return error


class DataError(Exception):
    """Input data violates the file grammar or a value constraint.

    Commands map this to exit code 2.
    """

    def __reduce__(self):
        # Rebuilt without __init__, whose signature subclasses change, so an
        # error keeps its type, message and attributes through pickle, as
        # when a cross-validation worker process raises it.
        return _rebuild, (type(self), self.args, self.__dict__)


class MissingMonthError(DataError):
    """A rainfall slot is missing under a policy that forbids it."""

    def __init__(self, month_index: int, message: str):
        super().__init__(message)
        self.month_index = month_index


class ModelFormatError(DataError):
    """A model file cannot be parsed.  Carries the offending line number."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number
