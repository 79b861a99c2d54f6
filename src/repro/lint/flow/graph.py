"""The project call graph + import graph, built from module summaries.

Resolution is heuristic but *bounded*: a call target we cannot resolve
is dropped (documented under-approximation) rather than wired to every
plausible callee, and name-based method fallback is capped at
:data:`MAX_METHOD_CANDIDATES` implementations — past that, a method
name is treated as dynamic dispatch the analysis stays silent about.
The cap trades soundness for a finding list humans will read; the
trade is documented in docs/STATIC_ANALYSIS.md.

The graph is memoized on the corpus content signature, so the three
``flow-*`` checkers running in one lint share a single build.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.lint.config import LintConfig
from repro.lint.core import SourceFile
from repro.lint.flow.cache import content_sha, load_summaries

#: A method name resolved purely by name (unknown receiver) links to at
#: most this many implementations; more means a common verb (``run``,
#: ``stop``) whose dispatch we refuse to guess at.
MAX_METHOD_CANDIDATES = 3

#: How many chained re-exports (``from .harness import run_scenario``
#: in a package ``__init__``) symbol resolution follows.
_MAX_REEXPORT_DEPTH = 5

#: Longest taint path reconstructed for a finding message.
_MAX_PATH = 12


class ProjectGraph:
    """Whole-program view over one corpus of module summaries."""

    def __init__(self, summaries: Dict[str, Dict], config: LintConfig,
                 cache_hits: int = 0):
        self.summaries = summaries
        self.config = config
        self.cache_hits = cache_hits
        self.pkg = config.package_rel.rstrip("/").split("/")[-1]

        #: dotted module name ("repro.cloud.portal") -> rel
        self.module_of_dotted: Dict[str, str] = {}
        #: package_rel -> rel
        self.rel_of_package_rel: Dict[str, str] = {}
        for rel in sorted(summaries):
            s = summaries[rel]
            pkg_rel = s["package_rel"]
            self.rel_of_package_rel[pkg_rel] = rel
            dotted = self._dotted_of(pkg_rel)
            if dotted is not None:
                self.module_of_dotted[dotted] = rel

        #: fid ("rel::qualname") -> function summary (plus "rel")
        self.functions: Dict[str, Dict] = {}
        #: cid ("rel::ClassName") -> class summary (plus "rel")
        self.classes: Dict[str, Dict] = {}
        self._methods_by_name: Dict[str, List[str]] = {}
        for rel in sorted(summaries):
            s = summaries[rel]
            for qualname in sorted(s["functions"]):
                fn = dict(s["functions"][qualname])
                fn["rel"] = rel
                fn["package_rel"] = s["package_rel"]
                self.functions[f"{rel}::{qualname}"] = fn
            for cname in sorted(s["classes"]):
                cls = dict(s["classes"][cname])
                cls["rel"] = rel
                self.classes[f"{rel}::{cname}"] = cls
                for mname in cls["methods"]:
                    self._methods_by_name.setdefault(mname, []).append(
                        f"{rel}::{cname}.{mname}")

        #: fid -> sorted resolved callee fids
        self.calls: Dict[str, Tuple[str, ...]] = {}
        for fid in sorted(self.functions):
            self.calls[fid] = self._resolve_calls(fid)

        self._taint: Optional[Dict[str, Dict[str, Tuple]]] = None

    # -- naming -----------------------------------------------------------
    def _dotted_of(self, package_rel: str) -> Optional[str]:
        if not package_rel.endswith(".py"):
            return None
        parts = package_rel[:-len(".py")].split("/")
        if parts[-1] == "__init__":
            parts = parts[:-1]
        return ".".join([self.pkg] + parts) if parts else self.pkg

    def fid_label(self, fid: str) -> str:
        """Human-readable ``package_rel::qualname`` for messages."""
        rel, qualname = fid.split("::", 1)
        return f"{self.summaries[rel]['package_rel']}::{qualname}"

    # -- symbol resolution ------------------------------------------------
    def resolve_symbol(self, dotted: str,
                       depth: int = 0) -> Optional[Tuple[str, str]]:
        """``("func"|"class", id)`` for a project dotted name, else
        None (external or unresolvable)."""
        if depth > _MAX_REEXPORT_DEPTH:
            return None
        parts = dotted.split(".")
        if parts[0] != self.pkg:
            return None
        rel = None
        split_at = 0
        for i in range(len(parts), 0, -1):
            candidate = self.module_of_dotted.get(".".join(parts[:i]))
            if candidate is not None:
                rel, split_at = candidate, i
                break
        if rel is None:
            return None
        return self._resolve_in_module(rel, parts[split_at:], depth)

    def _resolve_in_module(self, rel: str, rest: Sequence[str],
                           depth: int) -> Optional[Tuple[str, str]]:
        if not rest:
            return None
        s = self.summaries[rel]
        head = rest[0]
        if head in s["functions"] and len(rest) == 1:
            return ("func", f"{rel}::{head}")
        if head in s["classes"]:
            if len(rest) == 1:
                return ("class", f"{rel}::{head}")
            if len(rest) == 2:
                method = self.find_method(f"{rel}::{head}", rest[1])
                if method is not None:
                    return ("func", method)
            return None
        imports = s["imports"]
        target = imports["from_names"].get(head) \
            or imports["modules"].get(head)
        if target is not None:
            return self.resolve_symbol(
                ".".join([target] + list(rest[1:])), depth + 1)
        return None

    def find_method(self, cid: str, name: str) -> Optional[str]:
        """Method fid via the project-class MRO (linear base walk)."""
        seen: Set[str] = set()
        stack = [cid]
        while stack:
            current = stack.pop(0)
            if current in seen or current not in self.classes:
                continue
            seen.add(current)
            cls = self.classes[current]
            if name in cls["methods"]:
                rel = cls["rel"]
                cname = current.split("::", 1)[1]
                return f"{rel}::{cname}.{name}"
            for base in cls["bases"]:
                resolved = self._resolve_class_ref(cls["rel"], base)
                if resolved is not None:
                    stack.append(resolved)
        return None

    def _resolve_class_ref(self, rel: str, chain: str) -> Optional[str]:
        """A base-class or annotation chain to a project cid."""
        parts = chain.split(".")
        s = self.summaries[rel]
        if len(parts) == 1 and parts[0] in s["classes"]:
            return f"{rel}::{parts[0]}"
        resolved = None
        if parts[0] == self.pkg:
            resolved = self.resolve_symbol(chain)
        else:
            imports = s["imports"]
            target = imports["from_names"].get(parts[0]) \
                or imports["modules"].get(parts[0])
            if target is not None:
                resolved = self.resolve_symbol(
                    ".".join([target] + parts[1:]))
        if resolved is not None and resolved[0] == "class":
            return resolved[1]
        return None

    def methods_named(self, name: str) -> Tuple[str, ...]:
        """Name-based method fallback, capped and dunder-free."""
        if name.startswith("__"):
            return ()
        fids = self._methods_by_name.get(name, ())
        if not fids or len(fids) > MAX_METHOD_CANDIDATES:
            return ()
        return tuple(sorted(fids))

    # -- call edges -------------------------------------------------------
    def _resolve_calls(self, fid: str) -> Tuple[str, ...]:
        rel, qualname = fid.split("::", 1)
        fn = self.functions[fid]
        s = self.summaries[rel]
        out: Set[str] = set()
        for chain, _line, _col in fn["calls"]:
            if chain is None:
                continue
            out.update(self._resolve_one_call(rel, fn, s, chain))
        return tuple(sorted(out))

    def _resolve_one_call(self, rel: str, fn: Dict, s: Dict,
                          chain: str) -> Tuple[str, ...]:
        parts = chain.split(".")
        base = parts[0]
        if base == "self" and fn["class"] is not None:
            cid = f"{rel}::{fn['class']}"
            if len(parts) == 2:
                method = self.find_method(cid, parts[1])
                return (method,) if method else self.methods_named(parts[1])
            if len(parts) == 3:
                attr_type = self.classes.get(cid, {}).get(
                    "attr_types", {}).get(parts[1])
                if attr_type is not None:
                    target_cid = self._resolve_class_ref(rel, attr_type)
                    if target_cid is not None:
                        method = self.find_method(target_cid, parts[2])
                        if method is not None:
                            return (method,)
                return self.methods_named(parts[2])
            return ()
        if len(parts) == 1:
            if base in s["functions"]:
                return (f"{rel}::{base}",)
            if base in s["classes"]:
                init = self.find_method(f"{rel}::{base}", "__init__")
                return (init,) if init else ()
        if base in s["classes"] and len(parts) == 2:
            method = self.find_method(f"{rel}::{base}", parts[1])
            return (method,) if method else ()
        if base == self.pkg:
            # The summary already resolved the name through the module's
            # ImportMap, so the chain arrives fully dotted.
            resolved = self.resolve_symbol(chain)
            if resolved is None:
                return ()
            kind, ident = resolved
            if kind == "func":
                return (ident,)
            init = self.find_method(ident, "__init__")
            return (init,) if init else ()
        imports = s["imports"]
        target = imports["from_names"].get(base) \
            or imports["modules"].get(base)
        if target is not None:
            resolved = self.resolve_symbol(
                ".".join([target] + parts[1:]))
            if resolved is None:
                if target.split(".")[0] == self.pkg or len(parts) < 2:
                    return ()
                return self.methods_named(parts[-1])
            kind, ident = resolved
            if kind == "func":
                return (ident,)
            init = self.find_method(ident, "__init__")
            return (init,) if init else ()
        if len(parts) >= 2:
            return self.methods_named(parts[-1])
        return ()

    # -- analyses ---------------------------------------------------------
    def taint(self) -> Dict[str, Dict[str, Tuple]]:
        """``fid -> {kind -> ("source", name) | ("call", callee_fid)}``
        fixpoint: a function is tainted by its own unsuppressed sources
        or by any callee, except inside sanitizer modules."""
        if self._taint is not None:
            return self._taint
        sanitizers = set(self.config.flow_taint_sanitizers)
        taint: Dict[str, Dict[str, Tuple]] = {}
        for fid in sorted(self.functions):
            fn = self.functions[fid]
            if fn["package_rel"] in sanitizers:
                continue
            for kind, name, _line, _col in fn["sources"]:
                taint.setdefault(fid, {}).setdefault(
                    kind, ("source", name))
        changed = True
        while changed:
            changed = False
            for fid in sorted(self.functions):
                if self.functions[fid]["package_rel"] in sanitizers:
                    continue
                for callee in self.calls[fid]:
                    for kind in sorted(taint.get(callee, ())):
                        if kind not in taint.setdefault(fid, {}):
                            taint[fid][kind] = ("call", callee)
                            changed = True
        self._taint = taint
        return taint

    def taint_path(self, fid: str, kind: str) -> List[str]:
        """Deterministic helper chain from ``fid`` to the source name."""
        path: List[str] = []
        taint = self.taint()
        current = fid
        for _hop in range(_MAX_PATH):
            entry = taint.get(current, {}).get(kind)
            if entry is None:
                break
            via, target = entry
            if via == "source":
                path.append(f"{target}()")
                break
            path.append(self.fid_label(target))
            current = target
        return path

    def reachable_from(self, entries: Sequence[str]) -> Dict[str, str]:
        """``fid -> attributed entry fid`` over the call graph; entries
        processed in sorted order, so attribution is deterministic."""
        attributed: Dict[str, str] = {}
        for entry in sorted(set(entries)):
            if entry not in self.functions:
                continue
            stack = [entry]
            while stack:
                fid = stack.pop()
                if fid in attributed:
                    continue
                attributed[fid] = entry
                stack.extend(reversed(self.calls.get(fid, ())))
        return attributed

    # -- exception hierarchy ----------------------------------------------
    def is_project_subclass(self, cid: str, root_cid: str) -> bool:
        seen: Set[str] = set()
        stack = [cid]
        while stack:
            current = stack.pop()
            if current == root_cid:
                return True
            if current in seen or current not in self.classes:
                continue
            seen.add(current)
            cls = self.classes[current]
            for base in cls["bases"]:
                resolved = self._resolve_class_ref(cls["rel"], base)
                if resolved is not None:
                    stack.append(resolved)
        return False

    def resolve_class_chain(self, rel: str, chain: str) -> Optional[str]:
        """A name as written in ``rel`` (handler type, raise target)
        to a project cid, or None for builtins/externals."""
        return self._resolve_class_ref(rel, chain)


#: signature -> built graph; a handful of entries covers the test
#: suites' mini-corpora without unbounded growth.
_GRAPH_MEMO: Dict[Tuple, ProjectGraph] = {}
_MEMO_LIMIT = 8


def corpus_signature(corpus: Dict[str, SourceFile],
                     config: LintConfig) -> Tuple:
    """Memo key: corpus content plus every config field the graph or
    its cached analyses read (root distinguishes synthetic test repos
    with identical content)."""
    return (str(config.root), config.package_rel,
            tuple(config.flow_taint_sanitizers),
            tuple((rel, content_sha(corpus[rel].text))
                  for rel in sorted(corpus)))


def project_graph(corpus: Dict[str, SourceFile],
                  config: LintConfig) -> ProjectGraph:
    """The (memoized) whole-program graph for this corpus."""
    signature = corpus_signature(corpus, config)
    graph = _GRAPH_MEMO.get(signature)
    if graph is not None:
        return graph
    summaries, hits = load_summaries(corpus, config)
    graph = ProjectGraph(summaries, config, cache_hits=hits)
    if len(_GRAPH_MEMO) >= _MEMO_LIMIT:
        _GRAPH_MEMO.pop(next(iter(_GRAPH_MEMO)))
    _GRAPH_MEMO[signature] = graph
    return graph
