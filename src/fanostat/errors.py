"""Shared exception types."""


class FanostatError(Exception):
    pass


class EnumerationBudgetExceeded(FanostatError):
    """An exact enumeration hit its node budget before completing."""

    def __init__(self, message, nodes=None):
        super().__init__(message)
        self.nodes = nodes


class HypothesisFailed(FanostatError):
    """A lemma hypothesis failed exact verification; names the broken inequality."""

    def __init__(self, which, message=""):
        super().__init__(message or which)
        self.which = which
