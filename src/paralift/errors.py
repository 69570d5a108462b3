"""Exception types shared across the package."""


class ChartDomainError(ValueError):
    """A chart point lies outside its chart's closed ball."""


class DegenerateCoefficient(ArithmeticError):
    """A coefficient function vanishes (or changes sign) where it must not."""


class RangeError(ValueError):
    """An energy density outside the validated range of a structure."""


class ContractError(RuntimeError):
    """An operation was invoked on a structure that does not support it."""


class ConfigError(ValueError):
    """Invalid run configuration; carries every field-level problem found."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems) or "invalid configuration")
