"""A project-wide, name-resolution call graph for the flow-sensitive
rules.

Two phases, mirroring the checker's own check/finalize split so the
per-file half stays embarrassingly parallel:

1. :func:`index_module` (per file, no cross-file state) condenses one
   module into a picklable :class:`ModuleIndex`: its functions, classes
   (methods, bases, attribute types), imports, module-level instance
   variables, and every call site as a *symbolic descriptor* —
   ``("self", "emit")``, ``("type", "WorkerPool", "submit")``, … —
   that names what the call looks like without resolving it.
2. :meth:`CallGraph.build` (finalize phase) joins the indexes into
   global symbol tables and resolves the descriptors into
   module-qualified function names.

Precision is deliberately *one-hop*: a receiver's class is known when
it is spelled at the call site's scope (a parameter annotation, a local
``v = Cls(...)``, a ``self.attr`` assigned a constructor in any method,
or a module-level ``X = Cls()`` — including one imported from another
module), and method lookup chases at most one level of base class.
Anything deeper resolves to ``None`` and the rules stay silent — a
may-analysis built on the graph under-approximates calls but never
invents them.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from .core import ModuleFile
from .rules_imports import _module_dotted_path, _resolve_relative

#: Receiver spellings treated as the current instance.
SELF_NAMES = frozenset({"self", "cls"})


def module_name(module: ModuleFile) -> str:
    """The dotted name call-graph symbols are qualified with:
    ``repro.rv.pool`` for library files, the rel path with ``/`` → ``.``
    for anything else (tests, benchmarks) so names stay unique."""
    dotted = _module_dotted_path(module)
    if dotted:
        return ".".join(dotted)
    rel = module.rel[:-3] if module.rel.endswith(".py") else module.rel
    return rel.replace("/", ".")


# -- per-function local environment ------------------------------------------

def _type_name(expr) -> str | None:
    """``Cls`` / ``pkg.Cls`` as a dotted string, from an annotation or a
    constructor call's function expression."""
    if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
        # string annotation: 'WorkerPool'
        return expr.value if expr.value.isidentifier() or "." in expr.value else None
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name):
        return f"{expr.value.id}.{expr.attr}"
    if isinstance(expr, ast.BinOp) and isinstance(expr.op, ast.BitOr):
        # ``Cls | None`` — the non-None side names the type
        for side in (expr.left, expr.right):
            if isinstance(side, ast.Constant) and side.value is None:
                continue
            name = _type_name(side)
            if name is not None:
                return name
        return None
    if isinstance(expr, ast.Subscript):
        # Optional[Cls] / list[Cls] — not a concrete receiver type
        return None
    return None


def _constructed_type(value) -> str | None:
    """``Cls(...)`` → ``"Cls"`` (the one-hop instance-typing idiom)."""
    if isinstance(value, ast.Call):
        name = _type_name(value.func)
        # a lowercase call is a factory, not a constructor; the
        # convention-over-inference tradeoff documented above
        if name is not None and name.split(".")[-1].lstrip("_")[:1].isupper():
            return name
    return None


def local_types(func) -> dict:
    """Parameter annotations plus ``v = Cls(...)`` / ``v: Cls``
    assignments directly in ``func``'s body (nested scopes excluded)."""
    types: dict[str, str] = {}
    args = func.args
    for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
        if arg.annotation is not None:
            name = _type_name(arg.annotation)
            if name is not None:
                types[arg.arg] = name
    stack = list(func.body)
    while stack:
        stmt = stack.pop()
        if isinstance(stmt, _SCOPE_DEFS):
            continue
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target = stmt.targets[0]
            if isinstance(target, ast.Name):
                constructed = _constructed_type(stmt.value)
                if constructed is not None:
                    types[target.id] = constructed
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            name = _type_name(stmt.annotation)
            if name is not None:
                types[stmt.target.id] = name
        for attr in ("body", "orelse", "finalbody"):
            stack.extend(getattr(stmt, attr, ()))
        for handler in getattr(stmt, "handlers", ()):
            stack.extend(handler.body)
        for case in getattr(stmt, "cases", ()):
            stack.extend(case.body)
    return types


_SCOPE_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def describe_call(call: ast.Call, *, types: dict | None = None):
    """The symbolic descriptor of one call site, or ``None`` when the
    callee shape is beyond one-hop resolution.

    ========================  ==========================================
    ``f(...)``                ``("name", "f")``
    ``self.m(...)``           ``("self", "m")``
    ``self.attr.m(...)``      ``("selfattr", "attr", "m")``
    ``v.m(...)`` (typed)      ``("type", "<Cls>", "m")``
    ``v.m(...)`` (untyped)    ``("var", "v", "m")``
    ========================  ==========================================
    """
    func = call.func
    if isinstance(func, ast.Name):
        return ("name", func.id)
    if not isinstance(func, ast.Attribute):
        return None
    receiver, method = func.value, func.attr
    if isinstance(receiver, ast.Name):
        if receiver.id in SELF_NAMES:
            return ("self", method)
        if types and receiver.id in types:
            return ("type", types[receiver.id], method)
        return ("var", receiver.id, method)
    if (
        isinstance(receiver, ast.Attribute)
        and isinstance(receiver.value, ast.Name)
        and receiver.value.id in SELF_NAMES
    ):
        return ("selfattr", receiver.attr, method)
    return None


# -- per-module indexing ------------------------------------------------------

@dataclass
class FunctionRecord:
    """One function as the graph sees it: location only, no AST."""

    qual: str  # local qualname, e.g. "CompileCache.get"
    module: str
    rel: str
    line: int
    class_qual: str | None  # local class qualname, e.g. "CompileCache"

    @property
    def global_qual(self) -> str:
        return f"{self.module}.{self.qual}"


@dataclass
class ModuleIndex:
    """The picklable per-file condensate the global graph is built
    from."""

    module: str
    rel: str
    imports: dict = field(default_factory=dict)  # alias -> dotted target
    functions: dict = field(default_factory=dict)  # local qual -> FunctionRecord
    class_methods: dict = field(default_factory=dict)  # class qual -> set of names
    class_bases: dict = field(default_factory=dict)  # class qual -> tuple of type strs
    class_attrs: dict = field(default_factory=dict)  # class qual -> {attr: type str}
    var_types: dict = field(default_factory=dict)  # module var -> type str
    #: ``(caller local qual, caller class qual | None, descriptor)``
    calls: list = field(default_factory=list)


def index_module(module: ModuleFile) -> ModuleIndex:
    """Condense one parsed module for the global graph."""
    index = ModuleIndex(module=module_name(module), rel=module.rel)
    _index_imports(module, index)
    _index_body(module.tree.body, index, prefix="", class_qual=None)
    return index


def _index_imports(module: ModuleFile, index: ModuleIndex) -> None:
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                index.imports[alias.asname or alias.name.split(".")[0]] = (
                    alias.name if alias.asname else alias.name.split(".")[0]
                )
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = _resolve_relative(module, node)
            else:
                base = node.module
            if base is None:
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                index.imports[alias.asname or alias.name] = f"{base}.{alias.name}"


def _index_body(body, index: ModuleIndex, *, prefix: str, class_qual) -> None:
    for stmt in body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qual = f"{prefix}{stmt.name}"
            index.functions[qual] = FunctionRecord(
                qual=qual,
                module=index.module,
                rel=index.rel,
                line=stmt.lineno,
                class_qual=class_qual,
            )
            if class_qual is not None:
                index.class_methods.setdefault(class_qual, set()).add(stmt.name)
                _index_self_attrs(stmt, index, class_qual)
            _index_calls(stmt, index, caller=qual, class_qual=class_qual)
            # nested defs become their own (rarely-called-into) symbols
            _index_body(stmt.body, index, prefix=f"{qual}.", class_qual=class_qual)
        elif isinstance(stmt, ast.ClassDef):
            qual = f"{prefix}{stmt.name}"
            index.class_methods.setdefault(qual, set())
            index.class_bases[qual] = tuple(
                t for t in (_type_name(base) for base in stmt.bases) if t
            )
            for member in stmt.body:
                if isinstance(member, ast.AnnAssign) and isinstance(
                    member.target, ast.Name
                ):
                    name = _type_name(member.annotation)
                    if name is not None:
                        index.class_attrs.setdefault(qual, {})[
                            member.target.id
                        ] = name
            _index_body(stmt.body, index, prefix=f"{qual}.", class_qual=qual)
        elif isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target = stmt.targets[0]
            if isinstance(target, ast.Name) and class_qual is None and not prefix:
                constructed = _constructed_type(stmt.value)
                if constructed is not None:
                    index.var_types[target.id] = constructed
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            if class_qual is None and not prefix:
                name = _type_name(stmt.annotation)
                if name is not None:
                    index.var_types[stmt.target.id] = name


def _index_self_attrs(func, index: ModuleIndex, class_qual: str) -> None:
    """``self.attr = Cls(...)`` anywhere in a method types the attr, as
    does ``self.attr = param`` for an annotated parameter."""
    args = func.args
    param_types: dict[str, str] = {}
    for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
        if arg.annotation is not None:
            name = _type_name(arg.annotation)
            if name is not None:
                param_types[arg.arg] = name
    for node in ast.walk(func):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id in SELF_NAMES
            ):
                constructed = _constructed_type(node.value)
                if constructed is None and isinstance(node.value, ast.Name):
                    constructed = param_types.get(node.value.id)
                if constructed is not None:
                    index.class_attrs.setdefault(class_qual, {}).setdefault(
                        target.attr, constructed
                    )
        elif isinstance(node, ast.AnnAssign) and node.target is not None:
            target = node.target
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id in SELF_NAMES
            ):
                name = _type_name(node.annotation)
                if name is not None:
                    index.class_attrs.setdefault(class_qual, {}).setdefault(
                        target.attr, name
                    )


def _index_calls(func, index: ModuleIndex, *, caller: str, class_qual) -> None:
    types = local_types(func)
    stack = [
        child
        for stmt in func.body
        for child in ast.walk(stmt)
        if isinstance(child, ast.Call)
    ]
    seen = set()
    for call in stack:
        desc = describe_call(call, types=types)
        if desc is not None and desc not in seen:
            seen.add(desc)
            index.calls.append((caller, class_qual, desc))


# -- the global graph ---------------------------------------------------------

class CallGraph:
    """The resolved project call graph plus its symbol tables."""

    def __init__(self):
        self.functions: dict[str, FunctionRecord] = {}
        self.edges: dict[str, set] = {}
        self._indexes: dict[str, ModuleIndex] = {}
        self._class_methods: dict[str, set] = {}
        self._class_bases: dict[str, tuple] = {}
        self._class_attrs: dict[str, dict] = {}
        self._var_types: dict[str, str] = {}  # "mod.VAR" -> class qual
        self._reachable_cache: dict[str, frozenset] = {}

    @classmethod
    def build(cls, indexes) -> "CallGraph":
        graph = cls()
        for index in indexes:
            graph._indexes[index.module] = index
            for record in index.functions.values():
                graph.functions[record.global_qual] = record
            for class_qual, methods in index.class_methods.items():
                graph._class_methods[f"{index.module}.{class_qual}"] = methods
            for class_qual, bases in index.class_bases.items():
                graph._class_bases[f"{index.module}.{class_qual}"] = bases
            for class_qual, attrs in index.class_attrs.items():
                graph._class_attrs[f"{index.module}.{class_qual}"] = attrs
        # module-level instance vars, then one indirection through
        # imported vars (``from .journal import JOURNAL``)
        for index in graph._indexes.values():
            for var, type_str in index.var_types.items():
                resolved = graph._resolve_type(index, type_str)
                if resolved is not None:
                    graph._var_types[f"{index.module}.{var}"] = resolved
        for index in graph._indexes.values():
            for caller, class_qual, desc in index.calls:
                callee = graph.resolve(index.module, class_qual, desc)
                if callee is not None:
                    caller_qual = f"{index.module}.{caller}"
                    graph.edges.setdefault(caller_qual, set()).add(callee)
        return graph

    # -- symbol resolution ----------------------------------------------------

    def _resolve_type(self, index: ModuleIndex, type_str: str):
        """A type spelling in ``index``'s namespace → global class qual."""
        parts = type_str.split(".")
        if len(parts) == 1:
            name = parts[0]
            if name in index.class_methods:
                return f"{index.module}.{name}"
            target = index.imports.get(name)
            if target is not None and target in self._class_methods:
                return target
            return None
        if len(parts) == 2:
            base, name = parts
            target = index.imports.get(base)
            if target is not None and f"{target}.{name}" in self._class_methods:
                return f"{target}.{name}"
        return None

    def _method_on(self, class_qual: str, method: str):
        """``class_qual.method`` with one-hop base-class lookup."""
        if f"{class_qual}.{method}" in self.functions:
            return f"{class_qual}.{method}"
        owner_module = class_qual.rsplit(".", 1)[0]
        index = self._indexes.get(owner_module)
        for base in self._class_bases.get(class_qual, ()):
            if index is None:
                break
            base_qual = self._resolve_type(index, base)
            if base_qual is not None and f"{base_qual}.{method}" in self.functions:
                return f"{base_qual}.{method}"
        return None

    def _constructor_of(self, class_qual: str):
        return self._method_on(class_qual, "__init__")

    def resolve(self, module: str, class_qual, desc):
        """A call descriptor at a site in ``module`` (inside local class
        ``class_qual`` or None) → global function qual, or None."""
        index = self._indexes.get(module)
        if index is None or desc is None:
            return None
        kind = desc[0]
        if kind == "name":
            name = desc[1]
            if name in index.functions and "." not in name:
                return f"{module}.{name}"
            if name in index.class_methods:
                return self._constructor_of(f"{module}.{name}")
            target = index.imports.get(name)
            if target is not None:
                if target in self.functions:
                    return target
                if target in self._class_methods:
                    return self._constructor_of(target)
            return None
        if kind == "self":
            if class_qual is None:
                return None
            return self._method_on(f"{module}.{class_qual}", desc[1])
        if kind == "selfattr":
            if class_qual is None:
                return None
            attrs = self._class_attrs.get(f"{module}.{class_qual}", {})
            type_str = attrs.get(desc[1])
            if type_str is None:
                return None
            owner = self._resolve_type(index, type_str)
            return None if owner is None else self._method_on(owner, desc[2])
        if kind == "type":
            owner = self._resolve_type(index, desc[1])
            return None if owner is None else self._method_on(owner, desc[2])
        if kind == "var":
            base, method = desc[1], desc[2]
            target = index.imports.get(base)
            if target is not None:
                if target in self._indexes:  # module alias: mod.f(...)
                    if f"{target}.{method}" in self.functions:
                        return f"{target}.{method}"
                    if f"{target}.{method}" in self._class_methods:
                        return self._constructor_of(f"{target}.{method}")
                    return None
                if target in self._class_methods:  # Cls.m(...) unbound
                    return self._method_on(target, method)
                if target in self._var_types:  # imported instance var
                    return self._method_on(self._var_types[target], method)
                return None
            if f"{module}.{base}" in self._var_types:
                return self._method_on(self._var_types[f"{module}.{base}"], method)
            return None
        return None

    # -- queries --------------------------------------------------------------

    def callees(self, qual: str) -> frozenset:
        return frozenset(self.edges.get(qual, ()))

    def reachable(self, qual: str) -> frozenset:
        """Every function transitively callable from ``qual``
        (excluding ``qual`` itself unless it is on a cycle)."""
        cached = self._reachable_cache.get(qual)
        if cached is not None:
            return cached
        seen: set = set()
        stack = list(self.edges.get(qual, ()))
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            stack.extend(self.edges.get(current, ()))
        result = frozenset(seen)
        self._reachable_cache[qual] = result
        return result
