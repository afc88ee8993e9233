"""Whole-program symbol table for the dataflow passes.

Every module under the audited paths is parsed exactly once; the table
records, per module, the import bindings (local name -> fully qualified
target), every function/method definition as a :class:`FunctionSymbol`
addressable by qualified name, and every class with its base names —
enough for the call-graph builder to resolve direct calls, ``self``
method calls (including through single inheritance) and module-alias
attribute calls without ever importing the analyzed code.

Module names are derived from file paths: the components after the last
``src`` directory (or after the scan root when no ``src`` component
exists), with ``__init__`` dropped — so ``src/repro/sim/engine.py``
becomes ``repro.sim.engine`` both in the real tree and in test fixtures
that mimic its layout under a tmp dir.

Everything is stored and iterated in sorted order so two audits of the
same tree emit byte-identical reports.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from ..linter import _rel_label, iter_python_files


def module_name_for(path: Path, root: Path) -> str:
    """Dotted module name for ``path``, anchored at ``src`` or ``root``."""
    try:
        rel = path.resolve().relative_to(root.resolve())
    except ValueError:
        rel = path
    parts = list(rel.parts)
    if "src" in parts:
        parts = parts[len(parts) - parts[::-1].index("src"):]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if parts and parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


@dataclass
class FunctionSymbol:
    """One function or method definition, addressable by qualified name."""

    qname: str                      #: e.g. ``repro.sim.engine.Simulator.run``
    module: str                     #: e.g. ``repro.sim.engine``
    cls: Optional[str]              #: enclosing class name, or ``None``
    name: str                       #: bare function name
    node: ast.AST                   #: the ``FunctionDef`` / ``AsyncFunctionDef``
    path: str                       #: repo-relative POSIX path of the module
    #: Parameter names in order (``self``/``cls`` of methods excluded).
    params: List[str] = field(default_factory=list)
    #: Parameter name -> string annotation (only plain-string
    #: annotations like ``t: "us"`` are kept; type annotations are not
    #: dimension claims).
    param_annotations: Dict[str, str] = field(default_factory=dict)
    is_method: bool = False

    def param_for_arg(self, index: int) -> Optional[str]:
        """The parameter name bound by positional argument ``index``."""
        if 0 <= index < len(self.params):
            return self.params[index]
        return None


@dataclass
class ClassSymbol:
    """One class definition with the base names needed for MRO walking."""

    qname: str
    module: str
    name: str
    #: Base-class names as written (dotted paths joined with ``.``).
    bases: List[str] = field(default_factory=list)
    #: Method name -> qualified name.
    methods: Dict[str, str] = field(default_factory=dict)
    #: Attribute names assigned via ``self.X = ...`` anywhere in the
    #: class -> list of the assigned value expressions (for provenance).
    self_assigns: Dict[str, List[ast.AST]] = field(default_factory=dict)


@dataclass
class ModuleTable:
    """Everything the passes need to know about one parsed module."""

    name: str
    path: str                       #: repo-relative POSIX path
    tree: ast.Module
    source: str
    #: Local name -> fully qualified target, from import statements.
    imports: Dict[str, str] = field(default_factory=dict)
    #: Local (possibly dotted ``Cls.meth``) name -> qualified name.
    functions: Dict[str, str] = field(default_factory=dict)
    classes: Dict[str, ClassSymbol] = field(default_factory=dict)


def _collect_imports(tree: ast.Module, module: str) -> Dict[str, str]:
    imports: Dict[str, str] = {}
    pkg_parts = module.split(".")[:-1] if module else []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    imports[alias.asname] = alias.name
                else:
                    head = alias.name.split(".")[0]
                    imports[head] = head
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                # Relative import: resolve against the module's package.
                base = pkg_parts[: len(pkg_parts) - (node.level - 1)]
                prefix = ".".join(base + ([node.module] if node.module else []))
            else:
                prefix = node.module or ""
            for alias in node.names:
                local = alias.asname or alias.name
                imports[local] = f"{prefix}.{alias.name}" if prefix else alias.name
    return imports


def _function_symbol(
    node: ast.AST, module: str, path: str, cls: Optional[str]
) -> FunctionSymbol:
    args = node.args  # type: ignore[attr-defined]
    all_args = list(args.posonlyargs) + list(args.args)
    names = [a.arg for a in all_args]
    annotations: Dict[str, str] = {}
    for a in all_args + list(args.kwonlyargs):
        ann = a.annotation
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            annotations[a.arg] = ann.value
    is_method = cls is not None
    if is_method and names and names[0] in ("self", "cls"):
        names = names[1:]
    names += [a.arg for a in args.kwonlyargs]
    local = f"{cls}.{node.name}" if cls else node.name  # type: ignore[attr-defined]
    return FunctionSymbol(
        qname=f"{module}.{local}" if module else local,
        module=module,
        cls=cls,
        name=node.name,  # type: ignore[attr-defined]
        node=node,
        path=path,
        params=names,
        param_annotations=annotations,
        is_method=is_method,
    )


def _base_name(node: ast.AST) -> Optional[str]:
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class SymbolTable:
    """All modules and functions of one audited tree."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleTable] = {}
        self.functions: Dict[str, FunctionSymbol] = {}
        self.classes: Dict[str, ClassSymbol] = {}

    # -- construction -----------------------------------------------------

    @classmethod
    def build(
        cls, paths: Sequence[Path], root: Optional[Path] = None
    ) -> "SymbolTable":
        """Parse every ``.py`` file under ``paths`` into one table."""
        root = root or Path.cwd()
        table = cls()
        for file in iter_python_files([Path(p) for p in paths]):
            source = Path(file).read_text(encoding="utf-8", errors="replace")
            label = _rel_label(Path(file), root)
            try:
                tree = ast.parse(source, filename=label)
            except SyntaxError:
                continue  # the linter reports syntax errors (RPR000)
            table._add_module(module_name_for(Path(file), root), label, tree, source)
        return table

    def _add_module(
        self, name: str, path: str, tree: ast.Module, source: str
    ) -> None:
        mod = ModuleTable(
            name=name,
            path=path,
            tree=tree,
            source=source,
            imports=_collect_imports(tree, name),
        )
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                sym = _function_symbol(node, name, path, cls=None)
                mod.functions[node.name] = sym.qname
                self.functions[sym.qname] = sym
            elif isinstance(node, ast.ClassDef):
                self._add_class(mod, node)
        self.modules[name] = mod

    def _add_class(self, mod: ModuleTable, node: ast.ClassDef) -> None:
        cls_sym = ClassSymbol(
            qname=f"{mod.name}.{node.name}" if mod.name else node.name,
            module=mod.name,
            name=node.name,
            bases=[b for b in (_base_name(x) for x in node.bases) if b],
        )
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                sym = _function_symbol(item, mod.name, mod.path, cls=node.name)
                cls_sym.methods[item.name] = sym.qname
                mod.functions[f"{node.name}.{item.name}"] = sym.qname
                self.functions[sym.qname] = sym
                for sub in ast.walk(item):
                    if (
                        isinstance(sub, ast.Assign)
                        and len(sub.targets) == 1
                        and isinstance(sub.targets[0], ast.Attribute)
                        and isinstance(sub.targets[0].value, ast.Name)
                        and sub.targets[0].value.id == "self"
                    ):
                        cls_sym.self_assigns.setdefault(
                            sub.targets[0].attr, []
                        ).append(sub.value)
        mod.classes[node.name] = cls_sym
        self.classes[cls_sym.qname] = cls_sym

    # -- resolution helpers ------------------------------------------------

    def resolve_import(self, mod: ModuleTable, name: str) -> Optional[str]:
        """The fully qualified target of a local ``name``, if imported."""
        return mod.imports.get(name)

    def resolve_call_name(
        self, mod: ModuleTable, dotted: Sequence[str]
    ) -> Optional[str]:
        """Best-effort qualified name for a dotted call path.

        ``dotted`` is the chain from :func:`_base_name`-style flattening
        of a call's ``func`` (e.g. ``["np", "random", "default_rng"]``).
        Returns a key of :attr:`functions` when the target is a function
        in the table, the qualified name of a class (constructor call),
        or a fully qualified external name (``numpy.random.default_rng``)
        when the head is an import alias — else ``None``.
        """
        if not dotted:
            return None
        head = dotted[0]
        # Local (possibly Class.method) function in the same module.
        local = ".".join(dotted)
        if local in mod.functions:
            return mod.functions[local]
        if head in mod.classes:
            if len(dotted) == 1:
                return mod.classes[head].qname
            return None
        target = mod.imports.get(head)
        if target is None:
            return None
        fq = ".".join([target] + list(dotted[1:]))
        if fq in self.functions:
            return fq
        if fq in self.classes:
            return fq
        # An imported module whose attribute is one of its functions.
        if len(dotted) > 1:
            owner = ".".join([target] + list(dotted[1:-1]))
            owner_mod = self.modules.get(owner)
            if owner_mod and dotted[-1] in owner_mod.functions:
                return owner_mod.functions[dotted[-1]]
        return fq

    def method_on(self, class_qname: str, method: str) -> Optional[str]:
        """Resolve ``method`` on a class, walking base classes."""
        seen = set()
        queue = [class_qname]
        while queue:
            qname = queue.pop(0)
            if qname in seen:
                continue
            seen.add(qname)
            cls_sym = self.classes.get(qname)
            if cls_sym is None:
                continue
            if method in cls_sym.methods:
                return cls_sym.methods[method]
            mod = self.modules.get(cls_sym.module)
            for base in cls_sym.bases:
                parts = base.split(".")
                resolved = None
                if mod is not None:
                    if parts[0] in mod.classes:
                        resolved = mod.classes[parts[0]].qname
                    else:
                        target = mod.imports.get(parts[0])
                        if target is not None:
                            fq = ".".join([target] + parts[1:])
                            if fq in self.classes:
                                resolved = fq
                if resolved:
                    queue.append(resolved)
        return None

    def sorted_functions(self) -> List[Tuple[str, FunctionSymbol]]:
        """All function symbols in qualified-name order."""
        return sorted(self.functions.items())
