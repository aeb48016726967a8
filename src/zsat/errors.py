"""The three kinds of failure a run ends with, each with its exit code and
stderr label, and `check`, the one type rule of every settings block and
JSON input file. Any other exception that reaches `zsat` is a bug."""

import dataclasses
import functools
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


# a plain annotation: (test, noun, plural noun); a bool is no number
_PLAIN = {int: (_is(int), "an integer", "integers"),
          float: (_is(int, float), "a number", "numbers"),
          str: (_is(str), "a string", "strings"),
          tuple: (_is(list, tuple), "a list", "lists"),
          dict: (_is(dict), "an object", "objects")}


@functools.cache
def _rule(tp) -> tuple:
    """(test, noun, plural noun) of the annotation `tp`: a plain type, a
    settings class, or `tuple[T, ...]` or `dict[str, T]` of any such T."""
    if (origin := typing.get_origin(tp)) is None:
        return _PLAIN.get(tp) or (_is(tp), f"a {tp.__name__}", f"{tp.__name__}s")
    test, noun, plural = _rule(origin)
    item, _, items = _rule(typing.get_args(tp)[origin is dict])   # the T of either
    return (lambda v: test(v) and all(map(item, v.values() if origin is dict else v)),
            f"{noun} of {items}", f"{plural} of {items}")


def check(name: str, value, tp):
    """`value`, with a list as a tuple, if the annotation `tp` allows it;
    else a `ConfigError` naming `name`."""
    test, noun, _ = _rule(tp)
    if not test(value):
        raise ConfigError(f"{name} must be {noun}, not {type(value).__name__} {value!r}")
    return tuple(value) if isinstance(value, list) else value


def settings(cls):
    """`cls` as a frozen dataclass that `check`s each field against its
    annotation, resolved once here, before its own `__post_init__` runs. A
    field of the wrong type is a `ConfigError` naming it."""
    hints = typing.get_type_hints(cls)
    own = cls.__dict__.get("__post_init__", lambda self: None)

    def __post_init__(self):
        for name, tp in hints.items():
            object.__setattr__(self, name, check(name, getattr(self, name), tp))
        own(self)

    cls.__post_init__ = __post_init__
    return dataclasses.dataclass(frozen=True)(cls)
