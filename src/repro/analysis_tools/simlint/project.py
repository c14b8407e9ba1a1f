"""Project-wide analysis context: symbol table and cross-file rules.

Per-file rules see one :class:`~repro.analysis_tools.simlint.engine.FileContext`
at a time; rules that reason across call boundaries (determinism taint,
RNG stream aliasing, generator-protocol misuse) subclass
:class:`ProjectRule` and receive a :class:`ProjectContext` — every parsed
file plus a symbol table of all functions/methods keyed by qualified name
(``peer.validator.BlockValidator._drain``).

The symbol table is purely syntactic: module dotted names derive from
paths relative to the lint root, imports are followed one level (``from
repro.x.y import f`` binds ``f`` to ``x.y.f``), and methods record their
enclosing class plus its base-class names for single-level method
resolution.  That is deliberately modest — no type inference — but it is
exact for this codebase's idioms and degrades to "unresolved", never to a
wrong edge.
"""

from __future__ import annotations

import ast
import dataclasses
import typing

from repro.analysis_tools.simlint.diagnostics import Diagnostic, Severity
from repro.analysis_tools.simlint.engine import FileContext, Rule
from repro.analysis_tools.simlint.rules import _dotted_name


@dataclasses.dataclass
class FunctionInfo:
    """One function or method definition anywhere in the project."""

    #: Fully qualified: ``<module>.<Class>.<name>`` or ``<module>.<name>``.
    qualname: str
    #: Module dotted name (``peer.validator``), derived from the relpath.
    module: str
    #: Bare function name.
    name: str
    #: Enclosing class name, or None for module-level functions.
    cls: str | None
    node: ast.FunctionDef | ast.AsyncFunctionDef
    #: The file this definition lives in.
    context: FileContext
    #: True when the body contains ``yield`` / ``yield from`` in own scope.
    is_generator: bool


@dataclasses.dataclass
class ClassInfo:
    """One class definition: its methods and base-class names."""

    qualname: str
    name: str
    module: str
    node: ast.ClassDef
    #: Method name -> FunctionInfo.
    methods: dict[str, FunctionInfo]
    #: Base-class names as written (``BlockValidator``, ``base.OSN``).
    bases: list[str]


@dataclasses.dataclass
class ModuleInfo:
    """One parsed file with its local symbols and import bindings."""

    #: Module dotted name relative to the lint root.
    name: str
    context: FileContext
    #: Module-level function name -> FunctionInfo.
    functions: dict[str, FunctionInfo]
    #: Class name -> ClassInfo.
    classes: dict[str, ClassInfo]
    #: Local binding -> qualified target (module dotted name or symbol).
    imports: dict[str, str]


class ProjectContext:
    """Every parsed file of a lint run plus the project symbol table."""

    #: Leading package names stripped when resolving absolute imports to
    #: in-project modules (``from repro.sim.rng import ...``).
    PACKAGE_PREFIXES = ("repro",)

    def __init__(self, contexts: typing.Sequence[FileContext]) -> None:
        self.files: list[FileContext] = list(contexts)
        self.modules: dict[str, ModuleInfo] = {}
        #: Qualname -> FunctionInfo for every def in the project.
        self.functions: dict[str, FunctionInfo] = {}
        #: Bare name -> every FunctionInfo with that name (sorted).
        self.by_name: dict[str, list[FunctionInfo]] = {}
        for context in self.files:
            module = self._index_module(context)
            self.modules[module.name] = module
        for info in self.functions.values():
            self.by_name.setdefault(info.name, []).append(info)
        for infos in self.by_name.values():
            infos.sort(key=lambda info: info.qualname)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @staticmethod
    def module_name(relpath: str) -> str:
        """``peer/validator.py`` -> ``peer.validator``."""
        name = relpath[:-3] if relpath.endswith(".py") else relpath
        name = name.replace("/", ".")
        if name.endswith(".__init__"):
            name = name[: -len(".__init__")]
        return name

    def _index_module(self, context: FileContext) -> ModuleInfo:
        name = self.module_name(context.relpath)
        module = ModuleInfo(name=name, context=context, functions={},
                            classes={}, imports={})
        for node in context.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(module, node, cls=None)
            elif isinstance(node, ast.ClassDef):
                self._add_class(module, node)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    module.imports[bound] = self._strip_package(alias.name)
            elif isinstance(node, ast.ImportFrom):
                if node.module is None or node.level > 0:
                    continue  # relative imports: out of scope
                base = self._strip_package(node.module)
                for alias in node.names:
                    bound = alias.asname or alias.name
                    module.imports[bound] = f"{base}.{alias.name}"
        return module

    @classmethod
    def _strip_package(cls, dotted: str) -> str:
        parts = dotted.split(".")
        if parts[0] in cls.PACKAGE_PREFIXES and len(parts) > 1:
            parts = parts[1:]
        return ".".join(parts)

    def _add_function(self, module: ModuleInfo,
                      node: ast.FunctionDef | ast.AsyncFunctionDef,
                      cls: str | None) -> FunctionInfo:
        qual = (f"{module.name}.{cls}.{node.name}" if cls
                else f"{module.name}.{node.name}")
        info = FunctionInfo(
            qualname=qual, module=module.name, name=node.name, cls=cls,
            node=node, context=module.context,
            is_generator=_is_generator(node))
        if cls is None:
            module.functions[node.name] = info
        self.functions[qual] = info
        return info

    def _add_class(self, module: ModuleInfo, node: ast.ClassDef) -> None:
        methods: dict[str, FunctionInfo] = {}
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                methods[item.name] = self._add_function(
                    module, item, cls=node.name)
        bases = [_dotted_name(base) for base in node.bases]
        module.classes[node.name] = ClassInfo(
            qualname=f"{module.name}.{node.name}", name=node.name,
            module=module.name, node=node, methods=methods,
            bases=[b for b in bases if b])

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def resolve_name(self, module: ModuleInfo,
                     name: str) -> FunctionInfo | None:
        """Resolve a bare ``Name`` call in ``module`` to a definition."""
        info = module.functions.get(name)
        if info is not None:
            return info
        target = module.imports.get(name)
        if target is not None:
            found = self.functions.get(target)
            if found is not None:
                return found
            # ``from x import Class`` then ``Class()``: not a function.
        return None

    def resolve_method(self, module: ModuleInfo, cls_name: str,
                       method: str) -> FunctionInfo | None:
        """Resolve ``method`` on class ``cls_name``, walking named bases."""
        seen: set[str] = set()
        queue = [(module, cls_name)]
        while queue:
            mod, name = queue.pop(0)
            cls = mod.classes.get(name)
            if cls is None or cls.qualname in seen:
                # Base defined elsewhere: find any class with that name.
                resolved = self._find_class(mod, name)
                if resolved is None or resolved.qualname in seen:
                    continue
                cls = resolved
            seen.add(cls.qualname)
            info = cls.methods.get(method)
            if info is not None:
                return info
            base_module = self.modules.get(cls.module, mod)
            queue.extend((base_module, base) for base in cls.bases)
        return None

    def resolve_call(self, module: ModuleInfo, caller: FunctionInfo,
                     call: ast.Call) -> tuple[FunctionInfo, str] | None:
        """Resolve one call in ``caller`` to ``(callee, confidence)``.

        Calls resolve syntactically, in three confidence tiers:

        1. **direct** — a bare-name call to a function defined in (or
           imported into) the caller's module, or a module-qualified
           ``helpers.f(...)`` via ``import helpers``;
        2. **method** — a ``self.m(...)`` / ``cls.m(...)`` call resolved
           through the enclosing class and its named bases;
        3. **unique** — an ``obj.m(...)`` attribute call whose name has
           exactly one definition in the whole project (good enough for
           the simulator's helper naming; anything ambiguous stays
           unresolved, None, rather than wrong).
        """
        func = call.func
        if isinstance(func, ast.Name):
            info = self.resolve_name(module, func.id)
            return (info, "direct") if info is not None else None
        if not isinstance(func, ast.Attribute):
            return None
        receiver = func.value
        if (isinstance(receiver, ast.Name)
                and receiver.id in ("self", "cls")
                and caller.cls is not None):
            info = self.resolve_method(module, caller.cls, func.attr)
            if info is not None:
                return info, "method"
        if isinstance(receiver, ast.Name):
            target = module.imports.get(receiver.id)
            mod = self.modules.get(target) if target is not None else None
            if mod is not None:
                info = mod.functions.get(func.attr)
                if info is not None:
                    return info, "direct"
        # A unique module-level function called through an attribute is
        # almost always the same function re-exported.
        info = self.unique_by_name(func.attr)
        return (info, "unique") if info is not None else None

    def _find_class(self, module: ModuleInfo,
                    name: str) -> ClassInfo | None:
        tail = name.split(".")[-1]
        target = module.imports.get(name) or module.imports.get(tail)
        if target is not None:
            mod_name, _, cls_name = target.rpartition(".")
            mod = self.modules.get(mod_name)
            if mod is not None and cls_name in mod.classes:
                return mod.classes[cls_name]
        for mod_name in sorted(self.modules):
            cls = self.modules[mod_name].classes.get(tail)
            if cls is not None:
                return cls
        return None

    def unique_by_name(self, name: str) -> FunctionInfo | None:
        """The single project definition of ``name``, if unambiguous."""
        infos = self.by_name.get(name, [])
        if len(infos) == 1:
            return infos[0]
        return None


class ProjectRule(Rule):
    """Base class for rules that analyse the whole project at once.

    Subclasses implement :meth:`check_project`; the per-file
    :meth:`~repro.analysis_tools.simlint.engine.Rule.check` is a no-op so
    a ProjectRule can sit in an ordinary rule list without firing twice.
    """

    rule_id: str = "SL000"
    severity: Severity = Severity.WARNING
    description: str = ""

    def check(self, context: FileContext) -> typing.Iterator[Diagnostic]:
        return iter(())

    def check_project(self, project: ProjectContext
                      ) -> typing.Iterator[Diagnostic]:
        raise NotImplementedError
        yield  # pragma: no cover


def _is_generator(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    """True when the function's *own* frame contains a yield point.

    Generator expressions contain ``yield`` nodes in the AST but run in
    their own frame, so they are skipped along with nested defs.
    """
    stack: list[ast.AST] = list(node.body)
    while stack:
        item = stack.pop()
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef, ast.Lambda, ast.GeneratorExp)):
            continue
        if isinstance(item, (ast.Yield, ast.YieldFrom)):
            return True
        stack.extend(ast.iter_child_nodes(item))
    return False
