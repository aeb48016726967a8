"""The three kinds of failure a run ends with, each with its exit code and
stderr label. Any other exception that reaches `zsat` is a bug."""


class ConfigError(Exception):
    """The config values alone are at fault."""
    exit_code = 2
    label = "configuration error"


class DataError(Exception):
    """An input file or the corpus is at fault, alone or against the config."""
    exit_code = 3
    label = "data error"


class NumericalError(Exception):
    """A value the program computed is not finite."""
    exit_code = 4
    label = "numerical failure"


class DivergenceError(NumericalError):
    """The training loss stopped being finite."""
