"""Builtin checkers.  Importing this package registers every checker
with the engine registry (see :func:`repro.lint.core.all_checkers`)."""

from repro.lint.checkers import (  # noqa: F401
    flowexc,
    flowstate,
    flowtaint,
    forksafety,
    metricdocs,
    rng,
    security,
    simclock,
    taxonomy,
    unordered,
    whitelist,
)
