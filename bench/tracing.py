"""Per-layer tracing by wrapping symbound's public functions from outside.

``Tracer.install`` replaces each traced function by a timing wrapper in
every loaded symbound module that holds it (so ``symbound.analyzer.propagator``
and ``symbound.cli.preservation_report`` are wrapped too), wraps the
callables that ``expr.compile_expr`` returns as ``expr.eval``, and wraps the
CLI's command table.  ``uninstall`` puts the originals back.

Every wrapped call is a span.  Its self time is its duration minus the
duration of the wrapped calls made inside it.  A function that recurses
through its own module global (``differentiate``, ``simplify``) is timed at
its outermost call only.  Calls, self time and counts are summed per name;
spans of the coarse layers are also kept in memory as (op, name, start, end,
parent) and written out by ``dump``.  The hot leaf layers (``HOT``) are only
summed: keeping millions of their spans would cost more memory than the run.
"""

import json
import sys
from collections import defaultdict
from time import perf_counter

SCHEMES = ("euler-b", "yoshida2", "stormer-verlet", "implicit-midpoint")

# (module, attribute, metric name); a None name is resolved per call
TIMED = [
    ("config", "load_config", "config.load_config"),
    ("expr", "parse", "expr.parse"),
    ("expr", "differentiate", "expr.differentiate"),
    ("expr", "simplify", "expr.simplify"),
    ("expr", "compile_expr", "expr.compile_expr"),
    ("systems", "find_equilibria", "systems.find_equilibria"),
    ("systems", "classify_equilibrium", "systems.classify_equilibrium"),
    ("schemes", "step", None),
    ("schemes", "propagator", None),
    ("analyzer", "check_preservation", "analyzer.check_preservation"),
    ("analyzer", "tau_max", "analyzer.tau_max"),
    ("analyzer", "empirical_tau_max", "analyzer.empirical_tau_max"),
    ("analyzer", "preservation_report", "analyzer.preservation_report"),
    ("analyzer", "report_to_csv", "analyzer.report_to_csv"),
    ("orbit", "simulate", "orbit.simulate"),
    ("orbit", "orbit_to_csv", "orbit.orbit_to_csv"),
]
COMMANDS = ("analyze", "sweep", "simulate")

HOT = {"expr.eval", "systems.classify_equilibrium", "analyzer.check_preservation"}
HOT.update(f"schemes.{fn}.{s}" for fn in ("step", "propagator") for s in SCHEMES)

TIMED_NAMES = [n for _, _, n in TIMED if n] + [
    f"schemes.{fn}.{s}" for fn in ("step", "propagator") for s in SCHEMES
] + ["systems.HamiltonianSystem", "expr.eval"] + [f"cli.{c}" for c in COMMANDS]
COUNT_NAMES = [
    "systems.find_equilibria.equilibria",
    "analyzer.empirical_tau_max.predicate_calls",
    "orbit.steps",
    "orbit.bounded",
    "orbit.escaped",
    "orbit.solver_failed",
]


def metric_names() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better)."""
    out = []
    for name in TIMED_NAMES:
        out.append((f"{name}.calls", "count", "lower"))
        out.append((f"{name}.self_s", "s", "lower"))
    out += [(n, "count", "lower") for n in COUNT_NAMES]
    return out


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.spans = []  # (op, name, start, end, parent span index or -1)
        self.op = -1
        self._stack = []  # [name, start, child time, span index]
        self._active = defaultdict(int)
        self._undo = []

    # -- recording ---------------------------------------------------------

    def _timed(self, name_of, fn):
        stack, active = self._stack, self._active
        calls, self_s, spans = self.calls, self.self_s, self.spans

        def wrapper(*args, **kwargs):
            name = name_of if isinstance(name_of, str) else name_of(args)
            if active[name]:  # a recursive call: part of the outer span
                return fn(*args, **kwargs)
            active[name] += 1
            frame = [name, perf_counter(), 0.0, -1]
            if name not in HOT:
                frame[3] = len(spans)
                spans.append(None)
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                active[name] -= 1
                dur = end - frame[1]
                calls[name] += 1
                self_s[name] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
                if frame[3] >= 0:
                    parent = next((f[3] for f in reversed(stack) if f[3] >= 0), -1)
                    spans[frame[3]] = (self.op, name, frame[1], end, parent)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ------------------------------------------------------

    def _replace_everywhere(self, original, replacement) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "symbound" and not mod_name.startswith("symbound."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._undo.append((mod, attr, original))

    def install(self) -> None:
        import symbound.analyzer as analyzer
        import symbound.cli as cli
        import symbound.systems as systems

        mods = {m: sys.modules[f"symbound.{m}"] for m, _, _ in TIMED}
        for mod_name, attr, name in TIMED:
            original = getattr(mods[mod_name], attr)
            name_of = name or (lambda args, fn=attr: f"schemes.{fn}.{args[0].value}")
            wrapped = self._timed(name_of, original)
            if attr == "compile_expr":
                wrapped = self._wrap_compile(wrapped)
            elif attr == "find_equilibria":
                wrapped = self._counting_result(
                    wrapped, lambda eqs: {"systems.find_equilibria.equilibria": len(eqs)})
            elif attr == "simulate":
                wrapped = self._counting_result(wrapped, _orbit_counts)
            self._replace_everywhere(original, wrapped)

        init = systems.HamiltonianSystem.__init__
        systems.HamiltonianSystem.__init__ = self._timed("systems.HamiltonianSystem", init)
        self._undo.append((systems.HamiltonianSystem, "__init__", init))

        find_transition = analyzer.find_transition
        counts = self.counts

        def counted_find_transition(predicate, *args, **kwargs):
            def counted(t):
                counts["analyzer.empirical_tau_max.predicate_calls"] += 1
                return predicate(t)
            return find_transition(counted, *args, **kwargs)

        analyzer.find_transition = counted_find_transition
        self._undo.append((analyzer, "find_transition", find_transition))

        for command in COMMANDS:
            original = cli._COMMANDS[command]
            cli._COMMANDS[command] = self._timed(f"cli.{command}", original)
            self._undo.append((cli._COMMANDS, command, original))

    def _wrap_compile(self, compile_expr):
        timed = self._timed

        def wrapper(*args, **kwargs):
            return timed("expr.eval", compile_expr(*args, **kwargs))

        return wrapper

    def _counting_result(self, fn, counts_of):
        counts = self.counts

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            for name, k in counts_of(result).items():
                counts[name] += k
            return result

        return wrapper

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._undo):
            if isinstance(target, dict):
                target[attr] = original
            else:
                setattr(target, attr, original)
        self._undo.clear()

    # -- results -----------------------------------------------------------

    def step_calls(self) -> int:
        return sum(self.calls[f"schemes.step.{s}"] for s in SCHEMES)

    def metrics(self, rounds: int) -> dict:
        """Per-layer metrics, each divided by the number of rounds run."""
        out = {}
        for name, unit, _ in metric_names():
            if name.endswith(".calls"):
                value = self.calls[name[: -len(".calls")]]
            elif name.endswith(".self_s"):
                value = self.self_s[name[: -len(".self_s")]]
            else:
                value = self.counts[name]
            out[name] = {"value": value / rounds, "unit": unit}
        return out

    def dump(self, path: str, meta: dict) -> None:
        names = sorted(set(self.calls) | set(self.counts))
        with open(path, "w", encoding="utf-8") as f:
            json.dump(
                {
                    **meta,
                    "totals": {
                        n: {"calls": self.calls.get(n, 0), "self_s": self.self_s.get(n, 0.0),
                            "count": self.counts.get(n, 0)}
                        for n in names
                    },
                    "span_fields": ["op", "name", "start", "end", "parent"],
                    "spans": self.spans,
                },
                f,
            )


def _orbit_counts(trace) -> dict:
    kind = type(trace.verdict).__name__
    steps = trace.verdict.n_steps if kind == "Bounded" else trace.verdict.step
    return {
        "orbit.steps": steps,
        "orbit.bounded": kind == "Bounded",
        "orbit.escaped": kind == "Escaped",
        "orbit.solver_failed": kind == "SolverFailed",
    }
