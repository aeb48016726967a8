"""The three kinds of failure a run ends with, each with its exit code and
stderr label, and `settings`, the one type rule of every settings block.
Any other exception that reaches `zsat` is a bug."""

import dataclasses
import typing


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


def _is(*types):
    return lambda v: isinstance(v, types) and not isinstance(v, bool)


# a scalar annotation: (test, noun, plural noun); a bool is no number
_SCALARS = {int: (_is(int), "an integer", "integers"),
            float: (_is(int, float), "a number", "numbers"),
            str: (_is(str), "a string", "strings")}


def _rule(tp) -> tuple:
    """(test, noun, stored as a tuple) of a field annotated `tp`: a scalar,
    `tuple[scalar, ...]`, which takes a list too, or a settings class."""
    if typing.get_origin(tp) is tuple:
        item, _, plural = _SCALARS[typing.get_args(tp)[0]]
        return (lambda v: isinstance(v, (list, tuple)) and all(map(item, v)),
                f"a list of {plural}", True)
    return (*_SCALARS.get(tp, (_is(tp), f"a {tp.__name__}"))[:2], False)


def settings(cls):
    """`cls` as a frozen dataclass that checks each field against its
    annotation, resolved once here, before its own `__post_init__` runs. A
    field of the wrong type is a `ConfigError` naming it."""
    own = cls.__dict__.get("__post_init__")

    def __post_init__(self):
        for name, test, noun, as_tuple in rules:
            value = getattr(self, name)
            if not test(value):
                raise ConfigError(f"{name} must be {noun}, not "
                                  f"{type(value).__name__} {value!r}")
            if as_tuple:
                object.__setattr__(self, name, tuple(value))
        if own:
            own(self)

    cls.__post_init__ = __post_init__
    cls = dataclasses.dataclass(frozen=True)(cls)
    rules = [(name, *_rule(tp)) for name, tp in typing.get_type_hints(cls).items()]
    return cls
