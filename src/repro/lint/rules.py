"""The repo-specific lint rules (REP001–REP006).

Each rule machine-checks one invariant the reproduction's results stand
on.  The mapping from rule to guarantee:

* **REP001 stray-entropy** — all randomness flows through
  :func:`repro.rng.derive_rng` keyed streams (bitwise reproducibility,
  order-independent instance generation).
* **REP002 unordered-iteration** — nothing that feeds schedules or RNG
  draws iterates a ``set`` (or other unordered source) without
  ``sorted(...)``; set order varies with ``PYTHONHASHSEED``.
* **REP003 unguarded-obs** — hot-path instrumentation sits behind a
  single ``if _obs.ENABLED`` branch, so disabled-mode overhead stays one
  predictable branch (no call, no allocation).
* **REP004 float-equality** — time comparisons in the scheduling kernels
  use the :mod:`repro.units` comparators (``times_close``/``time_leq``)
  or are *deliberate* bitwise identity checks carrying a suppression
  justification; raw ``==`` on derived floats is how ulp drift corrupts
  placements silently.
* **REP005 bare-exception** — library errors derive from the
  :mod:`repro.errors` taxonomy so callers can catch library failures
  without swallowing programming errors.
* **REP006 memo-invalidation** — every logical mutation of
  :class:`~repro.calendar.calendar.ResourceCalendar` bumps the commit
  generation (cache coherence), and
  :class:`~repro.calendar.timeline.StepFunction` stays immutable.

Rules are registered on import; add a new rule by subclassing
:class:`~repro.lint.core.Rule` and decorating with
:func:`~repro.lint.core.register` (see ``docs/STATIC_ANALYSIS.md``).
"""

from __future__ import annotations

import ast
import re
from typing import Iterable, Iterator

from repro.lint.core import Finding, ModuleContext, Rule, register


def _dotted(node: ast.expr) -> tuple[str, ...] | None:
    """``a.b.c`` as ``("a", "b", "c")``; None for non-name chains."""
    if isinstance(node, ast.Name):
        return (node.id,)
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        if base is None:
            return None
        return base + (node.attr,)
    return None


def _module_in(module: str, packages: Iterable[str]) -> bool:
    """Whether ``module`` is one of ``packages`` or inside one."""
    for pkg in packages:
        if module == pkg or module.startswith(pkg + "."):
            return True
    return False


# ----------------------------------------------------------------------
# REP001 — stray entropy
# ----------------------------------------------------------------------


@register
class StrayEntropyRule(Rule):
    """Randomness and wall-clock reads outside the sanctioned modules."""

    rule_id = "REP001"
    title = "stray-entropy"
    rationale = (
        "Bitwise reproducibility (PR 1/3/4): every random draw must come "
        "from a derive_rng keyed stream and no result may depend on the "
        "wall clock.  Entropy primitives are allowed only in repro.rng, "
        "repro.obs.core (timers) and repro.bench (timing harness)."
    )

    #: Modules allowed to touch entropy / clock primitives directly.
    exempt_modules = frozenset(
        {"repro.rng", "repro.obs.core", "repro.bench"}
    )

    #: numpy.random attributes that are fine *when given a seed*.
    _seeded_ok = frozenset(
        {
            "default_rng",
            "SeedSequence",
            "Generator",
            "PCG64",
            "PCG64DXSM",
            "Philox",
            "SFC64",
            "MT19937",
        }
    )

    def applies_to(self, module: str) -> bool:
        return module not in self.exempt_modules

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    if root in ("random", "secrets"):
                        yield ctx.finding(
                            self.rule_id,
                            node,
                            f"import of {alias.name!r}: use "
                            "repro.rng.derive_rng keyed streams instead",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module in ("random", "secrets"):
                    yield ctx.finding(
                        self.rule_id,
                        node,
                        f"import from {node.module!r}: use "
                        "repro.rng.derive_rng keyed streams instead",
                    )
                elif node.module == "time":
                    bad = [
                        a.name
                        for a in node.names
                        if a.name in ("time", "time_ns")
                    ]
                    for name in bad:
                        yield ctx.finding(
                            self.rule_id,
                            node,
                            f"import of time.{name}: simulated time never "
                            "reads the wall clock (perf_counter belongs "
                            "in repro.obs.core)",
                        )
            elif isinstance(node, ast.Call):
                yield from self._check_call(ctx, node)

    def _check_call(
        self, ctx: ModuleContext, node: ast.Call
    ) -> Iterator[Finding]:
        d = _dotted(node.func)
        if d is None:
            return
        if d[-2:] in (("time", "time"), ("time", "time_ns")):
            yield ctx.finding(
                self.rule_id,
                node,
                f"{'.'.join(d)}() reads the wall clock; simulated time "
                "must be derived from the scenario, timers belong in "
                "repro.obs.core",
            )
        elif d[-1] in ("now", "utcnow", "today") and any(
            part in ("datetime", "date") for part in d[:-1]
        ):
            yield ctx.finding(
                self.rule_id,
                node,
                f"{'.'.join(d)}() reads the wall clock; results must not "
                "depend on when the run happens",
            )
        elif d[-2:] == ("os", "urandom") or d[-1] in ("uuid1", "uuid4"):
            yield ctx.finding(
                self.rule_id,
                node,
                f"{'.'.join(d)}() is OS entropy; all randomness flows "
                "through repro.rng.derive_rng",
            )
        elif len(d) >= 3 and d[-3] in ("np", "numpy") and d[-2] == "random":
            attr = d[-1]
            if attr in self._seeded_ok:
                if self._unseeded(node):
                    yield ctx.finding(
                        self.rule_id,
                        node,
                        f"unseeded numpy.random.{attr}: pass an explicit "
                        "seed or use repro.rng.derive_rng",
                    )
            else:
                yield ctx.finding(
                    self.rule_id,
                    node,
                    f"numpy.random.{attr} uses numpy's global RNG state; "
                    "draw from a repro.rng Generator instead",
                )
        elif d == ("default_rng",) and self._unseeded(node):
            yield ctx.finding(
                self.rule_id,
                node,
                "unseeded default_rng(): pass an explicit seed or use "
                "repro.rng.derive_rng",
            )

    @staticmethod
    def _unseeded(node: ast.Call) -> bool:
        if not node.args and not node.keywords:
            return True
        if node.args:
            first = node.args[0]
            return (
                isinstance(first, ast.Constant) and first.value is None
            )
        return False


# ----------------------------------------------------------------------
# REP002 — unordered iteration
# ----------------------------------------------------------------------

#: Methods whose result is a set when called on a set.
_SET_METHODS = frozenset(
    {"union", "intersection", "difference", "symmetric_difference", "copy"}
)

#: Calls that return entries in filesystem order (not deterministic).
_FS_ITER_ATTRS = frozenset({"iterdir", "glob", "rglob"})

#: Consumers whose result does not depend on the argument's iteration
#: order, so a set (or a generator over one) may flow into them bare.
_ORDER_INSENSITIVE_CONSUMERS = frozenset(
    {"sorted", "set", "frozenset", "min", "max", "len", "any", "all"}
)


def _scope_nodes(scope: ast.AST) -> Iterator[ast.AST]:
    """Walk ``scope`` without descending into nested function scopes
    (the scope root itself is yielded and entered)."""
    stack: list[ast.AST] = [scope]
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue  # a nested scope is checked as its own root
            stack.append(child)


def _collect_set_names(scope: ast.AST) -> set[str]:
    """Names assigned an (obviously) set-typed value anywhere in scope.

    One flow-insensitive pass: good enough to catch ``s = set(...)``
    followed by ``for x in s`` while never mis-flagging list-typed
    names.
    """
    known: set[str] = set()
    changed = True
    while changed:
        changed = False
        for node in _scope_nodes(scope):
            targets: list[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
                value: ast.expr | None = node.value
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
                value = node.value
            elif isinstance(node, ast.AugAssign):
                targets = [node.target]
                value = node.value
            else:
                continue
            if value is None or not _is_setish(value, known):
                continue
            for t in targets:
                if isinstance(t, ast.Name) and t.id not in known:
                    known.add(t.id)
                    changed = True
    return known


def _is_setish(node: ast.expr, known: set[str]) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Name):
        return node.id in known
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name) and node.func.id in (
            "set",
            "frozenset",
        ):
            return True
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _SET_METHODS
        ):
            return _is_setish(node.func.value, known)
        return False
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        return _is_setish(node.left, known) or _is_setish(node.right, known)
    return False


def _is_fs_ordered(node: ast.expr) -> bool:
    if not isinstance(node, ast.Call):
        return False
    d = _dotted(node.func)
    if d is not None and d[-2:] == ("os", "listdir"):
        return True
    return (
        isinstance(node.func, ast.Attribute)
        and node.func.attr in _FS_ITER_ATTRS
    )


@register
class UnorderedIterationRule(Rule):
    """Iterating sets / directory listings without ``sorted(...)``."""

    rule_id = "REP002"
    title = "unordered-iteration"
    rationale = (
        "Bitwise reproducibility (PR 1): set iteration order depends on "
        "PYTHONHASHSEED and directory listings on the filesystem, so any "
        "loop over them that feeds schedules, RNG draws or serialized "
        "output must go through sorted(...).  (Dict iteration is "
        "insertion-ordered in Python and therefore deterministic given "
        "deterministic inserts; it is deliberately not flagged.)"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        scopes: list[ast.AST] = [ctx.tree]
        scopes.extend(
            n
            for n in ast.walk(ctx.tree)
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
        )
        # Comprehensions fed straight into an order-insensitive consumer
        # (`sorted(x for x in some_set)`) are deterministic end to end.
        blessed: set[int] = set()
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in _ORDER_INSENSITIVE_CONSUMERS
                and node.args
            ):
                arg = node.args[0]
                blessed.add(id(arg))
                if isinstance(
                    arg,
                    (ast.GeneratorExp, ast.ListComp, ast.SetComp),
                ):
                    for gen in arg.generators:
                        blessed.add(id(gen.iter))
        seen: set[tuple[int, int]] = set()
        for scope in scopes:
            known = _collect_set_names(scope)
            for node in ast.walk(scope):
                for it in self._iteration_exprs(node):
                    if id(it) in blessed:
                        continue
                    key = (
                        int(getattr(it, "lineno", 0)),
                        int(getattr(it, "col_offset", 0)),
                    )
                    if key in seen:
                        continue
                    if _is_setish(it, known):
                        seen.add(key)
                        yield ctx.finding(
                            self.rule_id,
                            it,
                            "iteration over a set has no deterministic "
                            "order; wrap it in sorted(...)",
                        )
                    elif _is_fs_ordered(it):
                        seen.add(key)
                        yield ctx.finding(
                            self.rule_id,
                            it,
                            "directory listing order is "
                            "filesystem-dependent; wrap it in sorted(...)",
                        )

    @staticmethod
    def _iteration_exprs(node: ast.AST) -> Iterator[ast.expr]:
        """Expressions whose iteration order the program observes."""
        if isinstance(node, (ast.For, ast.AsyncFor)):
            yield node.iter
        elif isinstance(
            node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
        ):
            for gen in node.generators:
                yield gen.iter
        elif isinstance(node, ast.Call):
            fn = node.func
            order_observing = (
                isinstance(fn, ast.Name)
                and fn.id in ("list", "tuple", "enumerate")
            ) or (isinstance(fn, ast.Attribute) and fn.attr == "join")
            if order_observing and node.args:
                yield node.args[0]
        elif isinstance(node, ast.Starred):
            yield node.value


# ----------------------------------------------------------------------
# REP003 — unguarded obs calls on hot paths
# ----------------------------------------------------------------------

#: Recording entry points whose *call overhead* the guard removes
#: (``emit`` is the timeline's entry point, `repro.obs.timeline`).
_OBS_RECORDING = frozenset({"incr", "observe", "decision", "span", "emit"})

#: The recording vocabulary plus ``stopwatch`` — everything that takes a
#: glossary *name* as its first argument (REP009 checks names, REP003
#: checks guards; ``stopwatch`` is deliberately allowed unguarded).
_OBS_NAMED = _OBS_RECORDING | {"stopwatch"}

_ENABLED_RE = re.compile(r"ENABLED$")


def collect_obs_aliases(
    tree: ast.Module, names: frozenset[str] = _OBS_RECORDING
) -> tuple[set[str], set[str]]:
    """Local names bound to obs modules / recording functions.

    Returns ``(module_aliases, func_aliases)``: names that refer to
    :mod:`repro.obs` / :mod:`repro.obs.core` / :mod:`repro.obs.timeline`
    (so ``alias.incr(...)`` is a recording call) and names bound
    directly to one of the ``names`` entry points.  Shared by REP003
    and the interprocedural engine (:mod:`repro.lint.project`).
    """
    module_aliases: set[str] = set()
    func_aliases: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.module == "repro.obs":
                for alias in node.names:
                    target = alias.asname or alias.name
                    if alias.name in ("core", "timeline"):
                        module_aliases.add(target)
                    elif alias.name in names:
                        func_aliases.add(target)
                    elif alias.name == "obs":
                        module_aliases.add(target)
            elif node.module in ("repro.obs.core", "repro.obs.timeline"):
                for alias in node.names:
                    target = alias.asname or alias.name
                    if alias.name in names:
                        func_aliases.add(target)
            elif node.module == "repro":
                for alias in node.names:
                    if alias.name == "obs":
                        module_aliases.add(alias.asname or "obs")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in (
                    "repro.obs",
                    "repro.obs.core",
                    "repro.obs.timeline",
                ):
                    module_aliases.add(
                        alias.asname or alias.name.split(".")[-1]
                    )
    return module_aliases, func_aliases


def collect_guard_names(tree: ast.Module) -> set[str]:
    """Locals assigned ``x if ENABLED else y`` — snapshot guards;
    branching on them is branching on the flag."""
    guard_names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and isinstance(
            node.value, ast.IfExp
        ):
            if _mentions_enabled(node.value.test):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        guard_names.add(target.id)
        elif isinstance(node, ast.AnnAssign) and isinstance(
            node.value, ast.IfExp
        ):
            if _mentions_enabled(node.value.test) and isinstance(
                node.target, ast.Name
            ):
                guard_names.add(node.target.id)
    return guard_names


def _mentions_enabled(test: ast.expr) -> bool:
    for node in ast.walk(test):
        if isinstance(node, ast.Name) and _ENABLED_RE.search(node.id):
            return True
        if isinstance(node, ast.Attribute) and (
            _ENABLED_RE.search(node.attr) or node.attr == "is_enabled"
        ):
            return True
    return False


def _ends_in_jump(body: list[ast.stmt]) -> bool:
    return bool(body) and isinstance(
        body[-1], (ast.Return, ast.Raise, ast.Continue, ast.Break)
    )


class _ObsWalker:
    """Statement-list walker tracking whether an ``ENABLED`` guard
    dominates the current position."""

    def __init__(
        self,
        ctx: ModuleContext,
        rule_id: str,
        module_aliases: set[str],
        func_aliases: set[str],
        guard_names: set[str],
    ) -> None:
        self.ctx = ctx
        self.rule_id = rule_id
        self.module_aliases = module_aliases
        self.func_aliases = func_aliases
        #: Locals assigned `x if ENABLED else y` — snapshot guards;
        #: branching on them is branching on the flag.
        self.guard_names = guard_names
        self.findings: list[Finding] = []

    def _is_guard_test(self, test: ast.expr) -> bool:
        if _mentions_enabled(test):
            return True
        for node in ast.walk(test):
            if isinstance(node, ast.Name) and node.id in self.guard_names:
                return True
        return False

    # -- obs-call detection -------------------------------------------

    def _is_obs_call(self, node: ast.Call) -> bool:
        fn = node.func
        if isinstance(fn, ast.Attribute) and fn.attr in _OBS_RECORDING:
            base = _dotted(fn.value)
            return base is not None and base[-1] in self.module_aliases
        if isinstance(fn, ast.Name):
            return fn.id in self.func_aliases
        return False

    def _scan_expr(self, node: ast.AST) -> None:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call) and self._is_obs_call(sub):
                self.findings.append(
                    self.ctx.finding(
                        self.rule_id,
                        sub,
                        "obs recording call on a hot path without an "
                        "`if _obs.ENABLED` guard (disabled mode must "
                        "cost one branch, not a call)",
                    )
                )

    def _scan_headers(self, stmt: ast.stmt) -> None:
        """Scan a compound statement's own expressions (not its bodies)."""
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, (ast.stmt, ast.ExceptHandler)):
                continue
            if isinstance(child, ast.withitem):
                self._scan_expr(child)
            elif isinstance(child, ast.expr):
                self._scan_expr(child)

    # -- statement walking --------------------------------------------

    def walk(self, body: list[ast.stmt], guarded: bool) -> None:
        for stmt in body:
            if isinstance(stmt, ast.If) and self._is_guard_test(stmt.test):
                # Both branches are dominated by an explicit flag test;
                # which one records is the author's business.
                self.walk(stmt.body, True)
                self.walk(stmt.orelse, True)
                # `if not ENABLED: return fast_path()` guards the rest
                # of this block.
                if _ends_in_jump(stmt.body) or _ends_in_jump(stmt.orelse):
                    guarded = True
                continue
            if isinstance(
                stmt,
                (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
            ):
                # A nested definition runs later: guards at the
                # definition site do not dominate its body.
                self.walk(stmt.body, False)
                continue
            blocks: list[list[ast.stmt]] = []
            for attr in ("body", "orelse", "finalbody"):
                sub = getattr(stmt, attr, None)
                if isinstance(sub, list) and sub and isinstance(
                    sub[0], ast.stmt
                ):
                    blocks.append(sub)
            handlers = list(getattr(stmt, "handlers", []) or [])
            cases = list(getattr(stmt, "cases", []) or [])
            if not guarded:
                if blocks or handlers or cases:
                    self._scan_headers(stmt)
                else:
                    self._scan_expr(stmt)
            for sub in blocks:
                self.walk(sub, guarded)
            for handler in handlers:
                self.walk(handler.body, guarded)
            for case in cases:
                self.walk(case.body, guarded)


@register
class UnguardedObsRule(Rule):
    """Hot-path obs calls must sit behind an ``ENABLED`` guard."""

    rule_id = "REP003"
    title = "unguarded-obs"
    rationale = (
        "Zero-overhead-when-disabled instrumentation (PR 2): the "
        "recording entry points check ENABLED internally, but the call "
        "itself still costs argument setup on every hot-path hit.  The "
        "scheduling kernels keep the disabled cost to a single inline "
        "branch by guarding each site with `if _obs.ENABLED:`.  The "
        "same discipline covers timeline emission (`timeline.emit`, "
        "guarded by `if _tl.ENABLED:` / `is_enabled()`)."
    )

    #: Packages whose code is on the scheduling / execution hot path.
    hot_packages = (
        "repro.calendar",
        "repro.cpa",
        "repro.core",
        "repro.resilience",
        "repro.sim",
        "repro.multi",
        "repro.schedule",
    )

    def applies_to(self, module: str) -> bool:
        return _module_in(module, self.hot_packages)

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        module_aliases, func_aliases = collect_obs_aliases(ctx.tree)
        if not module_aliases and not func_aliases:
            return
        guard_names = collect_guard_names(ctx.tree)
        walker = _ObsWalker(
            ctx, self.rule_id, module_aliases, func_aliases, guard_names
        )
        walker.walk(ctx.tree.body, False)
        yield from walker.findings


# ----------------------------------------------------------------------
# REP004 — float equality on times
# ----------------------------------------------------------------------

#: Identifier words that denote simulated-time quantities.
_TIME_WORDS = frozenset(
    {
        "t",
        "ts",
        "time",
        "times",
        "start",
        "starts",
        "end",
        "ends",
        "now",
        "deadline",
        "deadlines",
        "finish",
        "finishes",
        "release",
        "duration",
        "durations",
        "makespan",
        "horizon",
        "earliest",
        "latest",
        "instant",
        "eps",
    }
)

_TRAILING_DIGITS = re.compile(r"\d+$")


def _is_time_identifier(name: str) -> bool:
    for part in name.lower().split("_"):
        if _TRAILING_DIGITS.sub("", part) in _TIME_WORDS:
            return True
    return False


def _is_timeish(node: ast.expr) -> bool:
    if isinstance(node, ast.Constant):
        return isinstance(node.value, float)
    if isinstance(node, ast.Name):
        return _is_time_identifier(node.id)
    if isinstance(node, ast.Attribute):
        return _is_time_identifier(node.attr)
    if isinstance(node, ast.Subscript):
        return _is_timeish(node.value)
    if isinstance(node, ast.BinOp):
        return _is_timeish(node.left) or _is_timeish(node.right)
    if isinstance(node, ast.UnaryOp):
        return _is_timeish(node.operand)
    if isinstance(node, ast.Call):
        return (
            isinstance(node.func, ast.Name)
            and node.func.id == "float"
            and bool(node.args)
        )
    return False


def _is_excluded_operand(node: ast.expr) -> bool:
    """Operands that make the comparison clearly not float-vs-float."""
    return isinstance(node, ast.Constant) and (
        node.value is None
        or isinstance(node.value, (bool, str, bytes))
        or (isinstance(node.value, int) and not isinstance(node.value, bool))
    )


@register
class FloatEqualityRule(Rule):
    """Raw ``==``/``!=`` between float time expressions."""

    rule_id = "REP004"
    title = "float-equality"
    rationale = (
        "Placement correctness (PR 1): times are sums of floats spanning "
        "months, so `==` on derived times is one ulp away from a missed "
        "(or phantom) match.  Compare with repro.units.times_close / "
        "time_leq / time_lt, or — where *bitwise* identity of "
        "breakpoints is the contract (canonical splice paths) — keep "
        "`==` with a suppression stating exactly that."
    )

    #: The scheduling-kernel modules where time equality is hot.
    scoped_packages = ("repro.calendar", "repro.cpa", "repro.schedule")

    def applies_to(self, module: str) -> bool:
        return _module_in(module, self.scoped_packages)

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            left = node.left
            for op, right in zip(node.ops, node.comparators):
                if isinstance(op, (ast.Eq, ast.NotEq)):
                    if self._flags(left, right):
                        yield ctx.finding(
                            self.rule_id,
                            node,
                            "float time compared with == / !=; use the "
                            "repro.units comparators (times_close, "
                            "time_leq) or justify bitwise identity",
                        )
                left = right

    @staticmethod
    def _flags(left: ast.expr, right: ast.expr) -> bool:
        if _is_excluded_operand(left) or _is_excluded_operand(right):
            # Comparisons against int literals / None / strings are
            # either not float comparisons or are exact by construction.
            return isinstance(left, ast.Constant) and isinstance(
                left.value, float
            ) or (
                isinstance(right, ast.Constant)
                and isinstance(right.value, float)
            )
        return _is_timeish(left) or _is_timeish(right)


# ----------------------------------------------------------------------
# REP005 — exceptions outside the repro.errors taxonomy
# ----------------------------------------------------------------------

#: Builtin classes for *programming* errors, which the errors-module
#: docstring deliberately leaves outside the taxonomy.
_ALLOWED_BUILTIN_RAISES = frozenset(
    {
        "ValueError",
        "TypeError",
        "NotImplementedError",
        "AssertionError",
        "KeyboardInterrupt",
        "StopIteration",
        # Process-exit flow control (`raise SystemExit(main())`), not an
        # error signal — nothing ever catches it as a library failure.
        "SystemExit",
    }
)

_BROAD_CATCHES = frozenset({"Exception", "BaseException"})

#: Packages whose public entry points face operators, not library
#: callers: every deliberate failure must be a taxonomy class so the
#: CLI's single ``except ReproError`` boundary catches it.  Even
#: argument validation raises ServiceError/WorkloadError here.
_STRICT_TAXONOMY_MODULES = (
    "repro.service",
    "repro.experiments.stream",
    # The sharded calendar backs both of the above: its probe/commit
    # failures surface straight through service retry loops.
    "repro.shard",
)

#: Raises that stay allowed in strict modules: pure control flow plus
#: programming-error signals that no caller treats as a service failure.
_STRICT_ALLOWED_RAISES = frozenset(
    {
        "NotImplementedError",
        "AssertionError",
        "KeyboardInterrupt",
        "StopIteration",
        "SystemExit",
    }
)


@register
class BareExceptionRule(Rule):
    """Raising / catching outside the ``repro.errors`` taxonomy."""

    rule_id = "REP005"
    title = "bare-exception"
    rationale = (
        "Error taxonomy (PR 3): deliberate library failures derive from "
        "ReproError so callers can catch them without swallowing "
        "programming errors; broad `except Exception` hides both.  "
        "ValueError/TypeError stay allowed for argument validation, per "
        "the repro.errors docstring."
    )

    def applies_to(self, module: str) -> bool:
        return module != "repro.errors"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        taxonomy = self._taxonomy_names(ctx.tree)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Raise):
                yield from self._check_raise(ctx, node, taxonomy)
            elif isinstance(node, ast.ExceptHandler):
                yield from self._check_handler(ctx, node)

    @staticmethod
    def _taxonomy_names(tree: ast.Module) -> set[str]:
        names: set[str] = set()
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.ImportFrom)
                and node.module == "repro.errors"
            ):
                for alias in node.names:
                    names.add(alias.asname or alias.name)
        # Local subclasses of taxonomy members join the taxonomy;
        # iterate to a fixed point for subclass-of-subclass chains.
        changed = True
        while changed:
            changed = False
            for node in ast.walk(tree):
                if not isinstance(node, ast.ClassDef):
                    continue
                if node.name in names:
                    continue
                for base in node.bases:
                    d = _dotted(base)
                    if d is not None and d[-1] in names:
                        names.add(node.name)
                        changed = True
                        break
        return names

    def _check_raise(
        self, ctx: ModuleContext, node: ast.Raise, taxonomy: set[str]
    ) -> Iterator[Finding]:
        if node.exc is None:
            return  # bare re-raise
        exc = node.exc
        if isinstance(exc, ast.Call):
            d = _dotted(exc.func)
        else:
            d = _dotted(exc)
        if d is None:
            return
        name = d[-1]
        if name in taxonomy:
            return
        if name in _ALLOWED_BUILTIN_RAISES:
            if _module_in(
                ctx.module, _STRICT_TAXONOMY_MODULES
            ) and name not in _STRICT_ALLOWED_RAISES:
                yield ctx.finding(
                    self.rule_id,
                    node,
                    f"raise of {name} in a strict-taxonomy module; "
                    "online-service failures must come from "
                    "repro.errors (ServiceError, QuotaError, ...) so "
                    "the CLI boundary catches them",
                )
            return
        if not name[:1].isupper():
            return  # re-raising a caught exception object (`raise exc`)
        yield ctx.finding(
            self.rule_id,
            node,
            f"raise of {name} outside the repro.errors taxonomy; raise "
            "a ReproError subclass (or ValueError/TypeError for "
            "argument validation)",
        )

    def _check_handler(
        self, ctx: ModuleContext, node: ast.ExceptHandler
    ) -> Iterator[Finding]:
        if node.type is None:
            yield ctx.finding(
                self.rule_id,
                node,
                "bare `except:` swallows programming errors; catch "
                "specific classes from the repro.errors taxonomy",
            )
            return
        exprs = (
            list(node.type.elts)
            if isinstance(node.type, ast.Tuple)
            else [node.type]
        )
        for expr in exprs:
            d = _dotted(expr)
            if d is not None and d[-1] in _BROAD_CATCHES:
                yield ctx.finding(
                    self.rule_id,
                    node,
                    f"`except {d[-1]}` catches programming errors too; "
                    "catch taxonomy classes, or justify the isolation "
                    "boundary with a suppression",
                )


# ----------------------------------------------------------------------
# REP006 — mutation without generation bump
# ----------------------------------------------------------------------

#: Mutating container methods.
_MUTATOR_METHODS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "pop",
        "remove",
        "clear",
        "sort",
        "reverse",
        "update",
        "setdefault",
        "popitem",
        "add",
        "discard",
    }
)


@register
class MemoInvalidationRule(Rule):
    """Logical-state mutation must bump the commit generation."""

    rule_id = "REP006"
    title = "memo-invalidation"
    rationale = (
        "Commit coherence: the commit generation is the service's CAS "
        "token and one leg of a sharded calendar's token vector, so a "
        "mutation that skips it lets a stale copy commit.  Any method "
        "that changes a "
        "ResourceCalendar's logical state must call "
        "_invalidate_caches() (or bump _generation); "
        "StepFunction is immutable outside construction, full stop."
    )

    #: class name -> (guarded attributes, generation touches, exempt
    #: methods).  An empty generation set means *no* mutation is ever
    #: allowed (immutable class).  `availability` is exempt because its
    #: lazy compile materializes the profile the logical state already
    #: implies — the generation is unchanged by design.
    guarded_classes: dict[
        str, tuple[frozenset[str], frozenset[str], frozenset[str]]
    ] = {
        "ResourceCalendar": (
            frozenset({"_reservations", "_profile"}),
            frozenset({"_generation", "_invalidate_caches"}),
            frozenset({"__init__", "availability"}),
        ),
        "StepFunction": (
            frozenset({"times", "values", "base"}),
            frozenset(),
            frozenset({"__init__"}),
        ),
    }

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            config = self.guarded_classes.get(node.name)
            if config is None:
                continue
            attrs, generation, exempt = config
            for item in node.body:
                if not isinstance(
                    item, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    continue
                if item.name in exempt:
                    continue
                yield from self._check_method(
                    ctx, node.name, item, attrs, generation
                )

    def _check_method(
        self,
        ctx: ModuleContext,
        class_name: str,
        method: ast.FunctionDef | ast.AsyncFunctionDef,
        attrs: frozenset[str],
        generation: frozenset[str],
    ) -> Iterator[Finding]:
        args = method.args.posonlyargs + method.args.args
        if not args:
            return
        self_name = args[0].arg
        mutations = [
            m for m in self._mutations(method, self_name, attrs)
        ]
        if not mutations:
            return
        if generation and self._touches_generation(
            method, self_name, generation
        ):
            return
        what = (
            "bump the commit generation (call _invalidate_caches)"
            if generation
            else f"{class_name} is immutable outside construction"
        )
        for m in mutations:
            yield ctx.finding(
                self.rule_id,
                m,
                f"{class_name}.{method.name} mutates guarded state "
                f"without a generation bump: {what}",
            )

    @staticmethod
    def _guarded_attr_of(
        node: ast.expr, self_name: str, attrs: frozenset[str]
    ) -> str | None:
        # Unwrap subscripts/slices: self._cache[k] mutates self._cache.
        while isinstance(node, ast.Subscript):
            node = node.value
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == self_name
            and node.attr in attrs
        ):
            return node.attr
        return None

    def _mutations(
        self,
        method: ast.AST,
        self_name: str,
        attrs: frozenset[str],
    ) -> Iterator[ast.AST]:
        for node in ast.walk(method):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    elts = (
                        list(target.elts)
                        if isinstance(target, (ast.Tuple, ast.List))
                        else [target]
                    )
                    for elt in elts:
                        if self._guarded_attr_of(elt, self_name, attrs):
                            yield node
            elif isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ):
                if node.func.attr in _MUTATOR_METHODS:
                    if self._guarded_attr_of(
                        node.func.value, self_name, attrs
                    ):
                        yield node
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    if self._guarded_attr_of(target, self_name, attrs):
                        yield node

    @staticmethod
    def _touches_generation(
        method: ast.AST, self_name: str, generation: frozenset[str]
    ) -> bool:
        for node in ast.walk(method):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == self_name
                and node.attr in generation
            ):
                return True
        return False
