"""fork-safety: no mutable module- or class-level state.

Seeded runs must repeat exactly, and several runs often share one
process: a pytest session, ``make city``'s double run (which checks the
two journal digests match) and the schedule explorer, which replays a
scenario once per schedule.  State bound at module or class scope
outlives the run that filled it, so the next run in the process starts
from it.  A
class-attribute id counter (``_next_order_id = 0`` bumped via the
class) is the classic case: the second run continues numbering where
the first stopped, and its ids, names and digests no longer match the
first run's.  ALL_CAPS names are exempt by convention: they are
read-only tables, not state.
"""

from __future__ import annotations

import ast
import re

from repro.lint.checkers._astutil import (
    ImportMap,
    assign_names,
    is_constant_name,
)
from repro.lint.core import Checker, register

#: Constructors whose result is shared mutable state when bound at
#: module or class level.
MUTABLE_CONSTRUCTORS = frozenset({
    "dict", "list", "set", "bytearray",
    "collections.defaultdict", "collections.OrderedDict",
    "collections.Counter", "collections.deque",
    "itertools.count",
})

#: Names that smell like a sequence/id allocator when bound to an int at
#: class level ("count" alone is too common to flag).
_COUNTER_NAME = re.compile(
    r"(^|_)next(_|$)|(^|_)seq(_|$)|(^|_)serial(_|$)|counter")


def _is_dataclass(node: ast.ClassDef, imap: ImportMap) -> bool:
    """Dataclass bodies declare per-instance field defaults, not shared
    class state (and dataclasses reject mutable defaults themselves)."""
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = imap.resolve(target)
        if name in ("dataclasses.dataclass", "dataclass"):
            return True
    return False


def _is_mutable_value(value: ast.AST, imap: ImportMap) -> bool:
    if isinstance(value, (ast.Dict, ast.List, ast.Set,
                          ast.DictComp, ast.ListComp, ast.SetComp)):
        return True
    if isinstance(value, ast.Call):
        name = imap.resolve(value.func)
        return name in MUTABLE_CONSTRUCTORS
    return False


@register
class ForkSafetyChecker(Checker):
    rule = "fork-safety"
    description = ("no mutable module globals or class-level counters — "
                   "they carry state from one run into the next run in "
                   "the same process")

    def check_file(self, src, config):
        imap = ImportMap(src.tree)
        for stmt in src.tree.body:
            yield from self._check_scope(
                stmt, imap, src, config, scope="module")
        for node in ast.walk(src.tree):
            if isinstance(node, ast.ClassDef) \
                    and not _is_dataclass(node, imap):
                for stmt in node.body:
                    yield from self._check_scope(
                        stmt, imap, src, config, scope=f"class {node.name}")

    def _check_scope(self, stmt, imap, src, config, scope):
        names = [n for n in assign_names(stmt) if not is_constant_name(n)]
        if not names:
            return
        value = getattr(stmt, "value", None)
        if value is None:
            return  # bare annotation, no state created
        label = ", ".join(names)
        if _is_mutable_value(value, imap):
            yield self.finding(
                config, src.path, stmt.lineno, stmt.col_offset,
                f"mutable {scope}-level state {label!r} is shared across "
                f"instances and outlives the run, so a second run in the "
                f"same process starts from the first run's leftovers; "
                f"scope it to the instance (or rename ALL_CAPS if it is a "
                f"read-only table)")
        elif (scope != "module"
              and isinstance(value, ast.Constant)
              and isinstance(value.value, int)
              and not isinstance(value.value, bool)
              and any(_COUNTER_NAME.search(n) for n in names)):
            yield self.finding(
                config, src.path, stmt.lineno, stmt.col_offset,
                f"{scope} attribute {label!r} looks like a shared id "
                f"counter: a second run in the same process would "
                f"continue from the first run's last id; allocate ids "
                f"per instance")
