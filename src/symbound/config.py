"""Run configuration: a flat, sectioned key = value text format.

The parser is deliberately hand-rolled: unknown sections or keys are hard
errors reported with file and line, values are typed (strings, reals,
integer counts, comma-separated lists) and range-checked here, before any
command runs, and serialization round-trips exactly (floats via repr).
Full-line comments start with '#'.  Each key of [run], [search],
[simulate] and [error] is one row of the key table _KEYS, with its
default in its spec dataclass.

Sections and keys:

    [system]    class = general | separable | newtonian
                h = <expr>            (general)
                t = <expr>, v = <expr>  (separable)
                g = <expr>            (newtonian)
                each class's keys come from its row of the SystemClass table
    [run]       schemes = euler-b, yoshida2, stormer-verlet, implicit-midpoint
                tau = 0.5, 1.0            explicit step sizes, positive and finite
                tau_lo, tau_hi, tau_count, tau_scale = linear|log   finite sweep grid
                empirical_tau_hi = 10.0   bracket top for bisection, 1e-299..1e300
                bisect_tol = 1e-06        bisection tolerance, finite and >= 0
    [search]    p_min < p_max, q_min < q_max (finite, and the box's width
                plus height too), grid >= 4,
                tol = 1e-10 (finite, > 0)
    [simulate]  n_max >= 1, escape_r > 0, stride >= 0 (0 = auto),
                offsets = dp, dq, ...  (finite)
    [error]     s = s11, s12, s21, s22 (unimodular);  eta = e1, e2;
                y0 = y1, y2;  steps = 1, 10, 100 (non-negative)
"""

import math
from collections import defaultdict
from dataclasses import dataclass, field

from .analyzer import TAU_HI_MAX, TAU_HI_MIN, fmt_float
from .errorprop import ErrorModel
from .mat2 import Mat2
from .systems import HamiltonianSystem, SystemClass


class ConfigError(Exception):
    def __init__(self, message: str, path: str = "<config>", line: int | None = None):
        where = path if line is None else f"{path}:{line}"
        super().__init__(f"{where}: {message}")
        self.path = path
        self.line = line


@dataclass
class SystemSpec:
    class_tag: str
    exprs: dict[str, str]

    def build(self) -> HamiltonianSystem:
        kind = SystemClass(self.class_tag)
        return HamiltonianSystem(kind, *(self.exprs[key] for key in kind.keys))


@dataclass
class SweepSpec:
    lo: float
    hi: float
    count: int
    scale: str = "linear"

    def taus(self) -> list[float]:
        if self.count == 1:
            return [self.lo]
        grid = self.points(range(self.count))
        grid[0], grid[-1] = self.lo, self.hi  # pin endpoints exactly
        return grid

    def points(self, indices) -> list[float]:
        """The grid points at indices, before taus() pins the two ends."""
        n = self.count - 1
        if self.scale == "log":
            return [self.lo * (self.hi / self.lo) ** (i / n) for i in indices]
        return [self.lo + (self.hi - self.lo) * i / n for i in indices]


@dataclass
class SearchSpec:
    p_min: float = -5.0
    p_max: float = 5.0
    q_min: float = -5.0
    q_max: float = 5.0
    grid: int = 32
    tol: float = 1e-10

    def box(self):
        return ((self.p_min, self.p_max), (self.q_min, self.q_max))


@dataclass
class SimulateSpec:
    n_max: int = 100_000
    escape_r: float = 1e6
    stride: int = 0  # 0 means max(1, n_max // 10^4)
    offsets: list[float] = field(default_factory=lambda: [1e-3, 0.0])

    def offset_pairs(self) -> list[tuple[float, float]]:
        return list(zip(self.offsets[::2], self.offsets[1::2]))


@dataclass
class ErrorSpec:
    s: list[float]
    eta: list[float]
    y0: list[float]
    steps: list[int]


@dataclass
class RunConfig:
    system: SystemSpec | None = None
    schemes: list[str] = field(default_factory=list)
    taus: list[float] = field(default_factory=list)
    sweep: SweepSpec | None = None
    empirical_tau_hi: float = 10.0
    bisect_tol: float = 1e-6
    search: SearchSpec = field(default_factory=SearchSpec)
    sim: SimulateSpec = field(default_factory=SimulateSpec)
    error: ErrorSpec | None = None


def _list_of(convert, what, fmt):
    return (
        lambda text: [convert(v.strip()) for v in text.split(",") if v.strip()],
        what,
        lambda values: ", ".join(map(fmt, values)),
    )


# A value type is (convert, what, format); convert raises ValueError on text
# that is not "what".
_WORD = str, "a word", str
_REAL = float, "a real number", fmt_float
_INT = int, "an integer", str
_WORDS = _list_of(str, "a list of words", str)
_REALS = _list_of(float, "a list of reals", fmt_float)
_INTS = _list_of(int, "a list of integers", str)


# A check is (ok, what): a value for which ok is false must be "what".
def _each(check):
    ok, what = check
    return (lambda values: all(map(ok, values))), what


def _at_least(bound, what=None):
    return (lambda x: x >= bound), what or f"at least {bound!r}"


_FINITE = math.isfinite, "finite"
_POSITIVE = (lambda x: x > 0.0), "positive"
_NON_NEGATIVE = _at_least(0, "non-negative")
_TAU_HI = (lambda x: 0.0 < x <= TAU_HI_MAX), f"positive and at most {TAU_HI_MAX!r}"

# (section, key, spec field, value type, checks) in the order serialize_config
# writes them.  The spec field "sweep.lo" is RunConfig.sweep.lo; one without
# a dot is RunConfig's own.
_KEYS = (
    ("run", "schemes", "schemes", _WORDS, ()),
    ("run", "tau", "taus", _REALS, (_each(_FINITE), _each(_POSITIVE))),
    ("run", "tau_lo", "sweep.lo", _REAL, (_FINITE,)),
    ("run", "tau_hi", "sweep.hi", _REAL, (_FINITE,)),
    ("run", "tau_count", "sweep.count", _INT, ()),
    ("run", "tau_scale", "sweep.scale", _WORD,
     (((lambda s: s in ("linear", "log")), "linear or log"),)),
    ("run", "empirical_tau_hi", "empirical_tau_hi", _REAL,
     (_FINITE, _TAU_HI, _at_least(TAU_HI_MIN))),
    ("run", "bisect_tol", "bisect_tol", _REAL, (_FINITE, _NON_NEGATIVE)),
    ("search", "p_min", "search.p_min", _REAL, (_FINITE,)),
    ("search", "p_max", "search.p_max", _REAL, (_FINITE,)),
    ("search", "q_min", "search.q_min", _REAL, (_FINITE,)),
    ("search", "q_max", "search.q_max", _REAL, (_FINITE,)),
    ("search", "grid", "search.grid", _INT, (_at_least(4),)),
    ("search", "tol", "search.tol", _REAL, (_FINITE, _POSITIVE)),
    ("simulate", "n_max", "sim.n_max", _INT, (_at_least(1),)),
    ("simulate", "escape_r", "sim.escape_r", _REAL, (_POSITIVE,)),
    ("simulate", "stride", "sim.stride", _INT,
     (_at_least(0, "non-negative (0 chooses it from n_max)"),)),
    ("simulate", "offsets", "sim.offsets", _REALS, (_each(_FINITE),)),
    ("error", "s", "error.s", _REALS, (_each(_FINITE),)),
    ("error", "eta", "error.eta", _REALS, (_each(_FINITE),)),
    ("error", "y0", "error.y0", _REALS, (_each(_FINITE),)),
    ("error", "steps", "error.steps", _INTS, (_each(_NON_NEGATIVE),)),
)
_SECTIONS = {
    "system": {"class", *(key for kind in SystemClass for key in kind.keys)},
    **{section: {row[1] for row in _KEYS if row[0] == section} for section, *_ in _KEYS},
}


def _scan(text: str, path: str) -> dict[str, dict[str, tuple[str, int]]]:
    """Raw (section, key) -> (value, line) mapping with strict validation."""
    out: dict[str, dict[str, tuple[str, int]]] = {}
    section: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SECTIONS:
                raise ConfigError(f"unknown section [{section}]", path, lineno)
            if section in out:
                raise ConfigError(f"duplicate section [{section}]", path, lineno)
            out[section] = {}
            continue
        if "=" not in line:
            raise ConfigError(f"expected key = value, got {line!r}", path, lineno)
        if section is None:
            raise ConfigError("key outside of any section", path, lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _SECTIONS[section]:
            raise ConfigError(f"unknown key {key!r} in [{section}]", path, lineno)
        if key in out[section]:
            raise ConfigError(f"duplicate key {key!r} in [{section}]", path, lineno)
        out[section][key] = (value.strip(), lineno)
    return out


def _invalid(raw: dict, section: str, key: str, what: str, path: str) -> ConfigError:
    """The error for a value that is not what it must be, at the key's line."""
    value, lineno = raw[section][key]
    return ConfigError(f"{key} must be {what}, got {value!r}", path, lineno)


def _read(raw: dict, path: str) -> dict[str, dict]:
    """{spec: {field: value}} for each table key the file holds, every value
    converted and checked at its line; spec '' is RunConfig itself."""
    out = defaultdict(dict)
    for section, key, attr, (convert, what, _), checks in _KEYS:
        if key not in raw.get(section, ()):
            continue
        try:
            value = convert(raw[section][key][0])
        except ValueError:
            raise _invalid(raw, section, key, what, path)
        for ok, need in checks:
            if not ok(value):
                raise _invalid(raw, section, key, need, path)
        spec, _, name = attr.rpartition(".")
        out[spec][name] = value
    return out


def _system(sec: dict, path: str) -> SystemSpec:
    if "class" not in sec:
        raise ConfigError("[system] needs a class key", path)
    class_tag, lineno = sec["class"]
    try:
        kind = SystemClass(class_tag)
    except ValueError:
        *names, last = (kind.value for kind in SystemClass)
        raise ConfigError(
            f"class must be {', '.join(names)} or {last}, got {class_tag!r}",
            path,
            lineno,
        )
    exprs = {}
    for key in kind.keys:
        if key not in sec:
            raise ConfigError(f"system class {class_tag} needs key {key!r}", path, lineno)
        exprs[key] = sec[key][0]
    extra = set(sec) - {"class", *kind.keys}
    if extra:
        key = sorted(extra)[0]
        raise ConfigError(
            f"key {key!r} does not belong to system class {class_tag}", path, sec[key][1]
        )
    return SystemSpec(class_tag, exprs)


def parse_config(text: str, path: str = "<config>") -> RunConfig:
    raw = _scan(text, path)
    system = _system(raw["system"], path) if "system" in raw else None
    fields = _read(raw, path)
    cfg = RunConfig(
        system,
        search=SearchSpec(**fields["search"]),
        sim=SimulateSpec(**fields["sim"]),
        **fields[""],
    )

    # the grid is all or none; tau_scale, which has a default, only with it
    run = raw.get("run", {})
    grid_keys = {"tau_lo", "tau_hi", "tau_count"}
    present = (grid_keys | {"tau_scale"}) & set(run)
    if present:
        missing = sorted(grid_keys - present)
        if missing:
            line = min(run[key][1] for key in present)
            raise ConfigError(f"sweep grid is missing keys {missing}", path, line)
        cfg.sweep = sweep = SweepSpec(**fields["sweep"])
        if not (0.0 < sweep.lo <= sweep.hi) or sweep.count < 1:
            raise ConfigError("invalid sweep range", path, raw["run"]["tau_lo"][1])
        # both grid formulas grow with i, so of the points taus() does not
        # pin the last is the largest: one point to test, not the grid
        if sweep.count > 2 and not math.isfinite(sweep.points([sweep.count - 2])[0]):
            raise _invalid(
                raw, "run", "tau_hi", "such that every sweep grid point is finite", path
            )
    for lo_key, hi_key in (("p_min", "p_max"), ("q_min", "q_max")):
        if not getattr(cfg.search, lo_key) < getattr(cfg.search, hi_key):
            key = hi_key if hi_key in raw.get("search", {}) else lo_key
            raise _invalid(raw, "search", key, f"such that {lo_key} < {hi_key}", path)
    box = cfg.search  # find_equilibria's degenerate-box test
    if not math.isfinite((box.p_max - box.p_min) + (box.q_max - box.q_min)):
        raise ConfigError("search box width plus height must be finite", path)
    if len(cfg.sim.offsets) % 2 != 0:
        raise ConfigError("offsets must contain an even number of reals", path)

    if "error" in raw:
        error = fields["error"]
        for name, n in (("s", 4), ("eta", 2), ("y0", 2)):
            if len(error.get(name, ())) != n:
                raise ConfigError(f"[error] needs {name} with {n} reals", path)
        if not error.get("steps"):
            raise ConfigError("[error] needs a non-empty steps list", path)
        try:
            ErrorModel(Mat2(*error["s"]), tuple(error["eta"]), tuple(error["y0"]))
        except ValueError as err:  # S is not unimodular
            raise _invalid(raw, "error", "s", f"unimodular ({err})", path)
        cfg.error = ErrorSpec(**error)
    return cfg


def load_config(path) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except OSError as err:
        raise ConfigError(err.strerror or str(err), str(path))
    except UnicodeDecodeError as err:  # a file that is not UTF-8 text
        raise ConfigError(str(err), str(path))
    return parse_config(text, str(path))


def serialize_config(cfg: RunConfig) -> str:
    """Canonical defaults-filled text; parse(serialize(cfg)) == cfg."""
    lines = []
    if cfg.system is not None:
        lines += ["[system]", f"class = {cfg.system.class_tag}"]
        for key in SystemClass(cfg.system.class_tag).keys:
            lines.append(f"{key} = {cfg.system.exprs[key]}")
    section = None
    for sec, key, attr, (_, _, fmt), _ in _KEYS:
        owner, _, name = attr.rpartition(".")
        spec = getattr(cfg, owner) if owner else cfg
        if spec is None:  # no sweep grid, or no [error]
            continue
        value = getattr(spec, name)
        if key in ("schemes", "tau") and not value:
            continue
        if sec != section:
            if lines:
                lines.append("")
            lines.append(f"[{sec}]")
            section = sec
        lines.append(f"{key} = {fmt(value)}")
    return "\n".join(lines) + "\n"
