"""The DESIGN-contract rules, RPR001–RPR007.

Each rule class mechanizes one ROADMAP "DESIGN" block; its docstring names
the PR-era contract.  Registration order is the canonical report order and
is append-only (``tests/test_analysis.py`` pins it, the same discipline as
``test_registration_order_is_canonical`` for planners).
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.analysis.framework import (
    ModuleInfo,
    Project,
    Rule,
    Violation,
    register_rule,
)

__all__ = [
    "StableHashRule",
    "WallClockRule",
    "RankIndexRule",
    "LayeringRule",
    "RegistryRule",
    "ImmutableRule",
    "KernelBufferRule",
]


def _dotted(node: ast.expr) -> str | None:
    """``a.b.c`` attribute/name chain as a dotted string, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _import_aliases(mod: ModuleInfo) -> dict[str, str]:
    """Local name -> absolute dotted origin, from every import statement.

    Scope-blind on purpose: a function-local ``import time`` still binds
    the name the deterministic path would misuse.
    """
    aliases: dict[str, str] = {}
    for node in ast.walk(mod.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                origin = alias.name if alias.asname else alias.name.split(".")[0]
                aliases[local] = origin
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                local = alias.asname or alias.name
                aliases[local] = f"{node.module}.{alias.name}"
    return aliases


def _resolve_call(func: ast.expr, aliases: dict[str, str]) -> str | None:
    """Absolute dotted name of a called object, or ``None`` if unknown."""
    chain = _dotted(func)
    if chain is None:
        return None
    root, _, rest = chain.partition(".")
    origin = aliases.get(root)
    if origin is None:
        return None
    return f"{origin}.{rest}" if rest else origin


class StableHashRule(Rule):
    """RPR001 — persisted/cross-process keys must be hash-salt stable.

    Contract (PR 2, "stable fingerprints"): builtin ``hash()`` is salted
    per interpreter and ``id()`` is an address — any fingerprint derived
    from either dies at the process boundary, and iterating a raw ``set``
    bakes salt-dependent order into whatever consumes it.  Modules on the
    key-feeding layers must use :func:`repro.common.stable_hash.stable_hash`
    (the one sanctioned hasher) and ``sorted()`` over sets.

    Scope: every package that computes or routes persisted keys.  The
    numeric-kernel packages (``tensor``, ``train``, ``quant``, ``backend``)
    are out of scope — their ``id()``-keyed autograd maps and RNG streams
    are in-process by construction and never serialized.
    """

    id = "RPR001"
    title = "no builtin hash()/id()/set-order in key-feeding modules"
    contract = "PR 2: stable fingerprints"

    SCOPE_EXEMPT = (
        "repro.tensor",
        "repro.train",
        "repro.quant",
        "repro.backend",
    )
    ALLOWLIST = ("repro.common.stable_hash",)
    _BANNED_BUILTINS = {
        "hash": "builtin hash() is PYTHONHASHSEED-salted; "
        "use repro.common.stable_hash",
        "id": "id() is a process-local address; key on a stable "
        "identity (rank, name, stable_hash) instead",
    }

    def _in_scope(self, module: str) -> bool:
        if module in self.ALLOWLIST:
            return False
        return not any(
            module == p or module.startswith(p + ".") for p in self.SCOPE_EXEMPT
        )

    def check_module(
        self, mod: ModuleInfo, project: Project
    ) -> Iterable[Violation]:
        if not self._in_scope(mod.module):
            return
        for node in ast.walk(mod.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in self._BANNED_BUILTINS
                and node.args
            ):
                yield mod.violation(
                    node, self.id, self._BANNED_BUILTINS[node.func.id]
                )
            for iterable in _iterated_expressions(node):
                if _is_raw_set_expr(iterable):
                    yield mod.violation(
                        iterable,
                        self.id,
                        "iteration order of a set is salt-dependent; "
                        "wrap it in sorted()",
                    )


def _iterated_expressions(node: ast.AST) -> Iterator[ast.expr]:
    """Expressions whose *iteration order* the statement consumes."""
    if isinstance(node, (ast.For, ast.AsyncFor)):
        yield node.iter
    elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
        for gen in node.generators:
            yield gen.iter
    elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        # Conversions that freeze the (unstable) order into a sequence.
        if node.func.id in ("list", "tuple", "enumerate") and node.args:
            yield node.args[0]


def _is_raw_set_expr(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    )


class WallClockRule(Rule):
    """RPR002 — deterministic paths read no wall clock or unseeded RNG.

    Contract (PR 2 determinism + PR 5 perturbations): cached sweeps,
    fingerprints and seed-derived perturbations are only sound if nothing
    on the planning/simulation path consults ``time.*``, ``datetime.now``,
    the stdlib ``random`` module, or numpy's global RNG state.  Randomness
    derives from :func:`repro.common.rng.derive_seed`; generators are
    constructed with an explicit seed (``default_rng(seed)``).

    ``repro.common.rng`` (the sanctioned construction helpers) is
    allowlisted.  Sanctioned wall-clock reads (sweep progress timings,
    benchmark harnesses) carry explicit suppressions with reasons.
    """

    id = "RPR002"
    title = "no wall-clock / unseeded RNG outside sanctioned modules"
    contract = "PR 2: determinism; PR 5: seed-derived perturbations"

    ALLOWLIST = ("repro.common.rng",)
    _CLOCKS = (
        "time.time",
        "time.time_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.process_time",
        "time.process_time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    )
    #: numpy.random attributes that are legitimate *seeded* constructions
    #: when called with an explicit seed argument.
    _SEEDED_OK = (
        "numpy.random.default_rng",
        "numpy.random.SeedSequence",
        "numpy.random.RandomState",
        "numpy.random.Generator",
        "numpy.random.PCG64",
    )

    def check_module(
        self, mod: ModuleInfo, project: Project
    ) -> Iterable[Violation]:
        if mod.module in self.ALLOWLIST:
            return
        aliases = _import_aliases(mod)
        for node in ast.walk(mod.tree):
            if not isinstance(node, ast.Call):
                continue
            target = _resolve_call(node.func, aliases)
            if target is None:
                continue
            if target in self._CLOCKS:
                yield mod.violation(
                    node,
                    self.id,
                    f"{target}() reads the wall clock on a deterministic "
                    "path; thread timings in explicitly or suppress with "
                    "a reason",
                )
            elif target == "random" or target.startswith("random."):
                yield mod.violation(
                    node,
                    self.id,
                    f"stdlib {target}() draws from hidden global state; "
                    "derive a seed via repro.common.rng.derive_seed and "
                    "use numpy Generators",
                )
            elif target.startswith("numpy.random."):
                if target in self._SEEDED_OK:
                    if node.args or node.keywords:
                        continue
                    yield mod.violation(
                        node,
                        self.id,
                        f"{target}() without a seed is entropy-seeded; "
                        "pass derive_seed(...) explicitly",
                    )
                else:
                    yield mod.violation(
                        node,
                        self.id,
                        f"{target}() uses numpy's global RNG state; "
                        "construct a seeded Generator instead",
                    )


class RankIndexRule(Rule):
    """RPR003 — ranks are identities, never positions.

    Contract (PR 5, "ranks are identities"): clusters accept unique,
    ascending, *non-contiguous* ranks (gaps = decommissioned workers), so
    ``cluster.workers[rank]`` silently grabs the wrong worker the moment a
    rank set has a hole.  Look workers up through a rank→worker map
    (``{w.rank: w for w in cluster.workers}``) or iterate; even
    ``workers[0]``/``workers[-1]`` encode position where an explicit
    ``min``/``max`` over ``w.rank`` states the intent.
    """

    id = "RPR003"
    title = "no positional indexing into .workers"
    contract = "PR 5: ranks are identities"

    def check_module(
        self, mod: ModuleInfo, project: Project
    ) -> Iterable[Violation]:
        for node in ast.walk(mod.tree):
            if (
                isinstance(node, ast.Subscript)
                and isinstance(node.value, ast.Attribute)
                and node.value.attr == "workers"
            ):
                yield mod.violation(
                    node,
                    self.id,
                    ".workers[...] is positional; ranks are identities — "
                    "use a rank→worker map or min/max over w.rank",
                )


class LayeringRule(Rule):
    """RPR004 — the import DAG points downward; engine never sees session.

    Contract (PR 6 layering + the architecture ladder): runtime imports at
    module scope must respect
    ``common → graph/hardware/quant → tensor → train/models/backend/parallel
    → profiling → core → baselines/engine → session → service →
    experiments``.  ``TYPE_CHECKING``-guarded imports always pass;
    function-local deferred imports pass the *ladder* (the sanctioned
    deferral idiom, e.g. ``core.replayer`` importing ``repro.engine.core``
    inside ``simulate``) — but the :data:`BANNED_PAIRS` edges are
    violations at *any* runtime scope: nothing in ``repro.engine`` may
    import ``repro.session`` (the engine stays embeddable without the
    session layer), and nothing in ``repro.session`` may import
    ``repro.service`` (the session must not grow a dependency on its own
    serving wrapper).
    """

    id = "RPR004"
    title = "import layering: lower layers never import upper at runtime"
    contract = "PR 6/9: engine/session/service layering"

    #: package -> layer; imports may only point at the same or a lower
    #: layer at module scope.  The bare ``repro`` façade re-exports the
    #: top of the stack and may not be imported from inside it.
    LAYERS = {
        "common": 0,
        "graph": 1,
        "hardware": 1,
        "quant": 1,
        "kernel": 1,
        "tensor": 2,
        "train": 3,
        "models": 3,
        "backend": 3,
        "parallel": 3,
        "profiling": 4,
        "core": 5,
        "baselines": 6,
        "engine": 6,
        "session": 7,
        "service": 8,
        "experiments": 9,
        "analysis": 9,
        "": 10,  # the repro package root / façade
    }

    #: (source package, target package) edges banned at ANY runtime scope
    #: — even function-local deferred imports.  Each value is the reason
    #: reported with the violation.
    BANNED_PAIRS = {
        ("engine", "session"): (
            "repro.engine must not import repro.session at runtime "
            "(TYPE_CHECKING-only); the engine stays "
            "session-agnostic (PR 6)"
        ),
        ("session", "service"): (
            "repro.session must not import repro.service at runtime "
            "(TYPE_CHECKING-only); the session stays servable without "
            "the serving layer (PR 9)"
        ),
    }

    @classmethod
    def _package(cls, module: str) -> str | None:
        if module == "repro":
            return ""
        if not module.startswith("repro."):
            return None
        return module.split(".")[1]

    def check_module(
        self, mod: ModuleInfo, project: Project
    ) -> Iterable[Violation]:
        src_pkg = self._package(mod.module)
        if src_pkg is None or src_pkg == "":
            return  # non-repro file, or the façade itself (imports anything)
        src_layer = self.LAYERS.get(src_pkg)
        if src_layer is None:
            return
        for edge in project.imports_of(mod.module):
            tgt_pkg = self._package(edge.target)
            if tgt_pkg is None or not edge.runtime:
                continue
            banned = self.BANNED_PAIRS.get((src_pkg, tgt_pkg))
            if banned is not None:
                yield Violation(
                    mod.display_path, edge.line, edge.col, self.id, banned
                )
                continue
            tgt_layer = self.LAYERS.get(tgt_pkg)
            if (
                edge.module_scope
                and tgt_layer is not None
                and tgt_layer > src_layer
                and tgt_pkg != src_pkg
            ):
                name = f"repro.{tgt_pkg}" if tgt_pkg else "repro"
                yield Violation(
                    mod.display_path,
                    edge.line,
                    edge.col,
                    self.id,
                    f"module-scope import of {name} (layer {tgt_layer}) "
                    f"from repro.{src_pkg} (layer {src_layer}) points up "
                    "the ladder; defer it into the call site or guard "
                    "with TYPE_CHECKING",
                )


class RegistryRule(Rule):
    """RPR005 — registries are append-only.

    Contract (PRs 3–6): the selection vocabularies — planner strategies,
    schedule policies, event kinds, cluster presets, scenario axes (and
    this linter's own rule registry) — feed fingerprints, canonical
    comparison orders and persisted artifacts.  They may only ever be
    appended to: reassignment, deletion, popping, clearing, in-place
    sorting or wholesale ``update`` re-keys caches and reorders canonical
    iteration silently.
    """

    id = "RPR005"
    title = "registries may only be appended to"
    contract = "PRs 3-6: append-only registries"

    WATCHED = (
        "PLANNERS",
        "_REGISTRY",
        "SCHEDULE_POLICIES",
        "EVENT_KINDS",
        "CLUSTER_PRESETS",
        "DEVICE_REGISTRY",
        "SCENARIOS",
        "PRESET_BUILDERS",
        "RULES",
        "COLLECTIVE_MODELS",
    )
    _MUTATORS = (
        "clear",
        "discard",
        "insert",
        "pop",
        "popitem",
        "remove",
        "reverse",
        "sort",
        "update",
    )

    def _watched_name(self, node: ast.expr) -> str | None:
        if isinstance(node, ast.Name) and node.id in self.WATCHED:
            return node.id
        if isinstance(node, ast.Attribute) and node.attr in self.WATCHED:
            return node.attr
        return None

    def check_module(
        self, mod: ModuleInfo, project: Project
    ) -> Iterable[Violation]:
        defined_at_module_scope: set[str] = set()

        def walk(node: ast.AST, module_scope: bool) -> Iterator[Violation]:
            for child in ast.iter_child_nodes(node):
                child_scope = module_scope and not isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
                )
                yield from self._check_stmt(
                    child, mod, module_scope, defined_at_module_scope
                )
                yield from walk(child, child_scope)

        yield from walk(mod.tree, True)

    def _check_stmt(
        self,
        node: ast.AST,
        mod: ModuleInfo,
        module_scope: bool,
        defined: set[str],
    ) -> Iterator[Violation]:
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                name = self._watched_name(target)
                if name is None:
                    continue
                is_definition = (
                    module_scope
                    and isinstance(target, ast.Name)
                    and not isinstance(node, ast.AugAssign)
                    and name not in defined
                )
                if is_definition:
                    defined.add(name)
                else:
                    yield mod.violation(
                        node,
                        self.id,
                        f"registry {name} is append-only; rebinding it "
                        "replaces/reorders the canonical vocabulary — "
                        "append entries instead",
                    )
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                inner = (
                    target.value if isinstance(target, ast.Subscript) else target
                )
                name = self._watched_name(inner)
                if name is not None:
                    yield mod.violation(
                        node,
                        self.id,
                        f"registry {name} is append-only; del removes "
                        "registered entries",
                    )
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in self._MUTATORS
        ):
            name = self._watched_name(node.func.value)
            if name is not None:
                yield mod.violation(
                    node,
                    self.id,
                    f"registry {name} is append-only; .{node.func.attr}() "
                    "removes, reorders or overwrites entries — register "
                    "new entries individually",
                )


class ImmutableRule(Rule):
    """RPR006 — published DFGs and session templates are immutable.

    Contract (PR 1 "per-op segments" + PR 4 "per-query state is fresh"):
    incremental replay retains published ``LocalDFG`` segments and the
    session shares one cached template across queries, so in-place
    mutation of a node's ``duration`` or anything reached through
    ``.template`` corrupts every consumer that already holds a reference.
    Assemble a fresh DFG from segments; planners mutate ``replayer.dags``,
    never ``ctx.template``.
    """

    id = "RPR006"
    title = "no in-place mutation of published DFG durations / templates"
    contract = "PR 1: per-op segments; PR 4: fresh per-query state"

    def check_module(
        self, mod: ModuleInfo, project: Project
    ) -> Iterable[Violation]:
        for node in ast.walk(mod.tree):
            if not isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                continue
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if not isinstance(target, (ast.Attribute, ast.Subscript)):
                    continue
                if _chain_contains_template(target):
                    yield mod.violation(
                        node,
                        self.id,
                        "stores through .template mutate the shared cached "
                        "template; copy() it and mutate the copy (PR 4)",
                    )
                elif (
                    isinstance(target, ast.Attribute)
                    and target.attr == "duration"
                    and not (
                        isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    )
                ):
                    yield mod.violation(
                        node,
                        self.id,
                        "published DFG node durations are frozen; assemble "
                        "a fresh LocalDFG from retained segments (PR 1)",
                    )


class KernelBufferRule(Rule):
    """RPR007 — compiled kernel buffers are frozen; never mutate in place.

    Contract (PR 8, "compiled array kernel"): :mod:`repro.kernel` publishes
    its compiled arrays with ``writeable=False`` because one
    ``CompiledLocal``/``CompiledGlobal`` is shared by every batched what-if
    row between fingerprint changes — an in-place
    write would silently corrupt all of them while the bit-parity oracle
    keeps passing on fresh compilations.  Consumers must treat anything a
    ``repro.kernel`` entry point returns as immutable: no subscript stores,
    no ``.flags``/``setflags`` unfreezing, and no handing the buffers to
    ``out=`` parameters of array ops.  Derive fresh arrays instead (the
    batch evaluator's ``candidate_row`` splice idiom).
    """

    id = "RPR007"
    title = "no in-place mutation of compiled kernel buffers"
    contract = "PR 8: compiled array kernel"

    #: the kernel package itself builds the buffers it later freezes.
    SCOPE_EXEMPT = ("repro.kernel",)

    def _in_scope(self, module: str) -> bool:
        return not any(
            module == p or module.startswith(p + ".") for p in self.SCOPE_EXEMPT
        )

    @staticmethod
    def _tracked_names(mod: ModuleInfo, aliases: dict[str, str]) -> set[str]:
        """Names bound (anywhere) from a ``repro.kernel`` entry-point call."""
        tracked: set[str] = set()
        for node in ast.walk(mod.tree):
            if not isinstance(node, ast.Assign) or not isinstance(
                node.value, ast.Call
            ):
                continue
            origin = _resolve_call(node.value.func, aliases)
            if origin is None or not (
                origin == "repro.kernel" or origin.startswith("repro.kernel.")
            ):
                continue
            for target in node.targets:
                elts = (
                    target.elts
                    if isinstance(target, (ast.Tuple, ast.List))
                    else [target]
                )
                for elt in elts:
                    if isinstance(elt, ast.Name):
                        tracked.add(elt.id)
        return tracked

    def check_module(
        self, mod: ModuleInfo, project: Project
    ) -> Iterable[Violation]:
        if not self._in_scope(mod.module):
            return
        aliases = _import_aliases(mod)
        tracked = self._tracked_names(mod, aliases)
        if not tracked:
            return
        for node in ast.walk(mod.tree):
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    if _chain_root(target) not in tracked:
                        continue
                    if isinstance(target, ast.Subscript):
                        yield mod.violation(
                            node,
                            self.id,
                            "subscript store into a compiled kernel buffer; "
                            "the arrays are frozen and shared — build a "
                            "fresh array (PR 8)",
                        )
                    elif (
                        isinstance(target, ast.Attribute)
                        and _chain_has_attr(target, "flags")
                    ):
                        yield mod.violation(
                            node,
                            self.id,
                            ".flags writes unfreeze a published kernel "
                            "buffer; recompile instead of mutating (PR 8)",
                        )
                    elif isinstance(node, ast.AugAssign) and isinstance(
                        target, ast.Attribute
                    ):
                        yield mod.violation(
                            node,
                            self.id,
                            "augmented assignment mutates a compiled kernel "
                            "buffer in place; derive a fresh array (PR 8)",
                        )
            elif isinstance(node, ast.Call):
                if (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr == "setflags"
                    and _chain_root(node.func.value) in tracked
                ):
                    yield mod.violation(
                        node,
                        self.id,
                        "setflags() unfreezes a published kernel buffer; "
                        "recompile instead of mutating (PR 8)",
                    )
                    continue
                for kw in node.keywords:
                    if kw.arg == "out" and _chain_root(kw.value) in tracked:
                        yield mod.violation(
                            node,
                            self.id,
                            "out= targets a compiled kernel buffer; array "
                            "ops must allocate their result (PR 8)",
                        )


def _chain_root(node: ast.expr) -> str | None:
    """Root ``Name`` id of an attribute/subscript chain, else ``None``."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


def _chain_has_attr(node: ast.expr, attr: str) -> bool:
    """True if any attribute access in the chain is named ``attr``."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        if isinstance(node, ast.Attribute) and node.attr == attr:
            return True
        node = node.value
    return False


def _chain_contains_template(node: ast.expr) -> bool:
    """True if the *receiver* chain of an attribute/subscript store passes
    through something called ``template`` (``ctx.template.x = ...``,
    ``template.nodes[0].duration = ...``)."""
    current = node.value if isinstance(node, (ast.Attribute, ast.Subscript)) else node
    while True:
        if isinstance(current, ast.Attribute):
            if current.attr == "template":
                return True
            current = current.value
        elif isinstance(current, ast.Subscript):
            current = current.value
        elif isinstance(current, ast.Name):
            return current.id == "template"
        else:
            return False


register_rule(StableHashRule())
register_rule(WallClockRule())
register_rule(RankIndexRule())
register_rule(LayeringRule())
register_rule(RegistryRule())
register_rule(ImmutableRule())
register_rule(KernelBufferRule())
