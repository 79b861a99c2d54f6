"""Per-module flow summaries: everything the whole-program layer needs
from one module, as a JSON-serializable dict.

A summary is a pure function of the module text (suppression comments
included), which is what makes the on-disk cache sound: same bytes,
same summary.  All structures are lists/dicts of primitives so they
round-trip through JSON unchanged.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional

from repro.lint.checkers._astutil import ImportMap
from repro.lint.checkers.rng import GLOBAL_RNG_FUNCS
from repro.lint.checkers.simclock import BANNED_CALLS
from repro.lint.core import SourceFile

#: Bumped whenever the summary schema changes; stale cache entries are
#: silently re-extracted.
SCHEMA_VERSION = 2


def _suppressed(src: SourceFile, rule: str, line: int) -> bool:
    sup = src.suppressions
    for scope in (sup.file_rules, sup.line_rules.get(line, ())):
        if rule in scope or "all" in scope:
            return True
    return False


def _chain(imap: ImportMap, expr: ast.AST) -> Optional[str]:
    return imap.resolve(expr)


def _taint_sources(call: ast.Call, chain: Optional[str],
                   src: SourceFile) -> List[List]:
    """Taint sources this call constitutes (suppressed sites sanitize:
    the inline disable is a reviewed assertion that the value never
    feeds sim behavior)."""
    out: List[List] = []
    if chain is None:
        return out
    if chain in BANNED_CALLS and not _suppressed(src, "sim-clock",
                                                 call.lineno):
        out.append(["wall-clock", chain, call.lineno, call.col_offset])
    elif chain.startswith("random.") \
            and not _suppressed(src, "seeded-rng", call.lineno):
        suffix = chain[len("random."):]
        if suffix in GLOBAL_RNG_FUNCS:
            out.append(["global-rng", chain, call.lineno,
                        call.col_offset])
        elif suffix == "Random" and not call.args and not call.keywords:
            out.append(["unseeded-rng", chain, call.lineno,
                        call.col_offset])
        elif suffix == "SystemRandom":
            out.append(["unseeded-rng", chain, call.lineno,
                        call.col_offset])
    return out


def _const_seq_items(value: ast.AST, imap: ImportMap) -> Optional[List[str]]:
    """Resolved items of a module-level tuple/list of dotted refs
    (state-set constants like ``_LIVE_STATES``), or None."""
    if not isinstance(value, (ast.Tuple, ast.List)):
        return None
    items: List[str] = []
    for elt in value.elts:
        ref = imap.resolve(elt)
        if ref is None:
            return None
        items.append(ref)
    return items


def _function_summary(node, qualname: str, cls: Optional[str],
                      imap: ImportMap, src: SourceFile) -> Dict:
    calls: List[List] = []
    raises: List[List] = []
    handlers: List[List] = []
    sources: List[List] = []

    for sub in ast.walk(node):
        if isinstance(sub, ast.Call):
            chain = _chain(imap, sub.func)
            calls.append([chain, sub.lineno, sub.col_offset])
            sources.extend(_taint_sources(sub, chain, src))
        elif isinstance(sub, ast.Raise):
            exc = sub.exc
            if isinstance(exc, ast.Call):
                exc = exc.func
            raises.append([_chain(imap, exc) if exc is not None else None,
                           sub.lineno, sub.col_offset])
        elif isinstance(sub, ast.ExceptHandler):
            names = []
            if sub.type is not None:
                nodes = (sub.type.elts if isinstance(sub.type, ast.Tuple)
                         else [sub.type])
                names = [c for c in (_chain(imap, n) for n in nodes)
                         if c is not None]
            has_raise = any(isinstance(s, ast.Raise)
                            for s in ast.walk(ast.Module(
                                body=sub.body, type_ignores=[])))
            has_call = any(isinstance(s, ast.Call)
                           for s in ast.walk(ast.Module(
                               body=sub.body, type_ignores=[])))
            handlers.append([names, sub.lineno, sub.col_offset,
                             has_raise, has_call])

    return {
        "name": node.name,
        "qualname": qualname,
        "class": cls,
        "line": node.lineno,
        "col": node.col_offset,
        "public": not node.name.startswith("_"),
        "calls": calls,
        "raises": raises,
        "handlers": handlers,
        "sources": sources,
    }


def _class_attr_types(node: ast.ClassDef, imap: ImportMap) -> Dict[str, str]:
    """``self.attr = ClassName(...)`` bindings in ``__init__`` plus
    annotated class fields — the instance-attribute type heuristic."""
    types: Dict[str, str] = {}
    for stmt in node.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name):
            ann = imap.resolve(stmt.annotation)
            if ann is not None:
                types[stmt.target.id] = ann
        elif isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__":
            for sub in ast.walk(stmt):
                if isinstance(sub, ast.Assign) and len(sub.targets) == 1:
                    tgt = sub.targets[0]
                    if (isinstance(tgt, ast.Attribute)
                            and isinstance(tgt.value, ast.Name)
                            and tgt.value.id == "self"
                            and isinstance(sub.value, ast.Call)):
                        ctor = imap.resolve(sub.value.func)
                        if ctor is not None:
                            types[tgt.attr] = ctor
    return types


def summarize_module(src: SourceFile) -> Dict:
    """The flow summary of one parsed module."""
    imap = ImportMap(src.tree)
    const_seqs: Dict[str, List[str]] = {}
    classes: Dict[str, Dict] = {}
    functions: Dict[str, Dict] = {}

    for stmt in src.tree.body:
        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (stmt.targets if isinstance(stmt, ast.Assign)
                       else [stmt.target])
            for tgt in targets:
                if isinstance(tgt, ast.Name):
                    value = getattr(stmt, "value", None)
                    if value is not None:
                        items = _const_seq_items(value, imap)
                        if items is not None:
                            const_seqs[tgt.id] = items

    for stmt in src.tree.body:
        if isinstance(stmt, ast.FunctionDef):
            functions[stmt.name] = _function_summary(
                stmt, stmt.name, None, imap, src)
        elif isinstance(stmt, ast.ClassDef):
            bases = [c for c in (imap.resolve(b) for b in stmt.bases)
                     if c is not None]
            methods = []
            for sub in stmt.body:
                if isinstance(sub, ast.FunctionDef):
                    qualname = f"{stmt.name}.{sub.name}"
                    functions[qualname] = _function_summary(
                        sub, qualname, stmt.name, imap, src)
                    methods.append(sub.name)
            classes[stmt.name] = {
                "line": stmt.lineno,
                "bases": bases,
                "methods": methods,
                "attr_types": _class_attr_types(stmt, imap),
            }

    return {
        "schema": SCHEMA_VERSION,
        "rel": src.rel,
        "package_rel": src.package_rel,
        "imports": {"modules": dict(imap.modules),
                    "from_names": dict(imap.from_names)},
        "const_seqs": const_seqs,
        "classes": classes,
        "functions": functions,
    }
