"""The three kinds of failure a run ends with, each with its exit code and
stderr label, and `check`, the one type rule of every settings block and
JSON input file. Any other exception that reaches `zsat` is a bug."""

import dataclasses
import math
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


def _is_number(v) -> bool:
    """An int, or a finite float: JSON reads NaN and Infinity. An int is
    not passed to `math.isfinite`, which overflows on a huge one."""
    return (isinstance(v, int) and not isinstance(v, bool)
            or isinstance(v, float) and math.isfinite(v))


# a plain annotation: (test, noun); a bool is no number
_PLAIN = {int: (_is(int), "an integer"),
          float: (_is_number, "a number"),
          str: (_is(str), "a string"),
          tuple: (_is(list, tuple), "a list"),
          dict: (_is(dict), "an object")}


def check(name: str, value, tp):
    """`value`, with a list as a tuple, if the annotation `tp` allows it;
    else a `ConfigError` naming `name`, or the element of it at fault, such
    as `labels['c03']`. `tp` is a plain type, a settings class, or
    `tuple[T, ...]` or `dict[str, T]` of any such T."""
    origin = typing.get_origin(tp) or tp
    test, noun = _PLAIN.get(origin) or (_is(origin), f"a {origin.__name__}")
    if not test(value):
        raise ConfigError(f"{name} must be {noun}, not {type(value).__name__} {value!r}")
    if origin is not tp:
        item = typing.get_args(tp)[origin is dict]   # the T of either
        for key, v in value.items() if origin is dict else enumerate(value):
            check(f"{name}[{key!r}]", v, item)
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
