"""Run configuration: a flat, sectioned key = value text format.

The parser is deliberately hand-rolled: unknown sections or keys are hard
errors reported with file and line, values are typed (strings, reals,
integer counts, comma-separated lists) and range-checked here, before any
command runs, and serialization round-trips exactly (floats via repr).
Full-line comments start with '#'.

Sections and keys:

    [system]    class = general | separable | newtonian
                h = <expr>            (general)
                t = <expr>, v = <expr>  (separable)
                g = <expr>            (newtonian)
                each class's keys come from its row of the SystemClass table
    [run]       schemes = euler-b, yoshida2, stormer-verlet, implicit-midpoint
                tau = 0.5, 1.0            explicit step sizes, positive and finite
                tau_lo, tau_hi, tau_count, tau_scale = linear|log   sweep grid
                empirical_tau_hi = 10.0   bracket top for bisection, 1e-299..1e300
                bisect_tol = 1e-06
    [search]    p_min < p_max, q_min < q_max (finite), grid >= 4, tol
    [simulate]  n_max >= 1, escape_r > 0, stride >= 0 (0 = auto),
                offsets = dp, dq, ...  (finite)
    [error]     s = s11, s12, s21, s22 (unimodular);  eta = e1, e2;
                y0 = y1, y2;  steps = 1, 10, 100 (non-negative)
"""

import math
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
        n = self.count - 1
        if self.scale == "log":
            grid = [self.lo * (self.hi / self.lo) ** (i / n) for i in range(self.count)]
        else:
            grid = [self.lo + (self.hi - self.lo) * i / n for i in range(self.count)]
        grid[0], grid[-1] = self.lo, self.hi  # pin endpoints exactly
        return grid


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
        return [
            (self.offsets[i], self.offsets[i + 1])
            for i in range(0, len(self.offsets), 2)
        ]


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


_SYSTEM_KEYS = {"class", *(key for kind in SystemClass for key in kind.keys)}
_RUN_KEYS = {
    "schemes",
    "tau",
    "tau_lo",
    "tau_hi",
    "tau_count",
    "tau_scale",
    "empirical_tau_hi",
    "bisect_tol",
}
_SEARCH_KEYS = {"p_min", "p_max", "q_min", "q_max", "grid", "tol"}
_SIM_KEYS = {"n_max", "escape_r", "stride", "offsets"}
_ERROR_KEYS = {"s", "eta", "y0", "steps"}
_SECTIONS = {
    "system": _SYSTEM_KEYS,
    "run": _RUN_KEYS,
    "search": _SEARCH_KEYS,
    "simulate": _SIM_KEYS,
    "error": _ERROR_KEYS,
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


def _get(raw: dict, section: str, key: str, default, path: str, convert=str, what=""):
    """The key's value through convert, or default when it is absent; a
    ConfigError at its line when convert raises ValueError."""
    if section not in raw or key not in raw[section]:
        return default
    value, lineno = raw[section][key]
    try:
        return convert(value)
    except ValueError:
        raise ConfigError(f"{key} must be {what}, got {value!r}", path, lineno)


def _list_of(convert):
    return lambda value: [convert(v.strip()) for v in value.split(",") if v.strip()]


# (convert, what) for _get
_REAL = float, "a real number"
_INT = int, "an integer"
_REALS = _list_of(float), "a list of reals"
_INTS = _list_of(int), "a list of integers"


def _require(raw: dict, section: str, key: str, ok: bool, what: str, path: str) -> None:
    """ConfigError at the key's line unless ok; every default value is ok."""
    if not ok:
        value, lineno = raw[section][key]
        raise ConfigError(f"{key} must be {what}, got {value!r}", path, lineno)


def _finite(values) -> bool:
    return all(map(math.isfinite, values))


def parse_config(text: str, path: str = "<config>") -> RunConfig:
    raw = _scan(text, path)
    cfg = RunConfig()

    if "system" in raw:
        sec = raw["system"]
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
                raise ConfigError(
                    f"system class {class_tag} needs key {key!r}", path, lineno
                )
            exprs[key] = sec[key][0]
        extra = set(sec) - {"class", *kind.keys}
        if extra:
            key = sorted(extra)[0]
            raise ConfigError(
                f"key {key!r} does not belong to system class {class_tag}",
                path,
                sec[key][1],
            )
        cfg.system = SystemSpec(class_tag, exprs)

    schemes_str = _get(raw, "run", "schemes", "", path)
    cfg.schemes = [s.strip() for s in schemes_str.split(",") if s.strip()]
    cfg.taus = _get(raw, "run", "tau", [], path, *_REALS)
    _require(raw, "run", "tau", _finite(cfg.taus), "finite", path)
    _require(raw, "run", "tau", all(t > 0.0 for t in cfg.taus), "positive", path)
    sweep_keys = {"tau_lo", "tau_hi", "tau_count"}
    present = sweep_keys & set(raw.get("run", {}))
    if present:
        if present != sweep_keys:
            missing = sorted(sweep_keys - present)
            raise ConfigError(f"sweep grid is missing keys {missing}", path)
        scale = _get(raw, "run", "tau_scale", "linear", path)
        if scale not in ("linear", "log"):
            raise ConfigError(
                f"tau_scale must be linear or log, got {scale!r}",
                path,
                raw["run"]["tau_scale"][1] if "tau_scale" in raw["run"] else None,
            )
        lo = _get(raw, "run", "tau_lo", None, path, *_REAL)
        hi = _get(raw, "run", "tau_hi", None, path, *_REAL)
        _require(raw, "run", "tau_lo", math.isfinite(lo), "finite", path)
        _require(raw, "run", "tau_hi", math.isfinite(hi), "finite", path)
        count = _get(raw, "run", "tau_count", None, path, *_INT)
        if not (0.0 < lo <= hi) or count < 1 or (scale == "log" and lo <= 0.0):
            raise ConfigError("invalid sweep range", path, raw["run"]["tau_lo"][1])
        cfg.sweep = SweepSpec(lo, hi, count, scale)
    cfg.empirical_tau_hi = _get(raw, "run", "empirical_tau_hi", 10.0, path, *_REAL)
    tau_hi = cfg.empirical_tau_hi
    _require(raw, "run", "empirical_tau_hi", math.isfinite(tau_hi), "finite", path)
    _require(
        raw, "run", "empirical_tau_hi", 0.0 < tau_hi <= TAU_HI_MAX,
        f"positive and at most {TAU_HI_MAX!r}", path,
    )
    _require(
        raw, "run", "empirical_tau_hi", tau_hi >= TAU_HI_MIN,
        f"at least {TAU_HI_MIN!r}", path,
    )
    cfg.bisect_tol = _get(raw, "run", "bisect_tol", 1e-6, path, *_REAL)

    cfg.search = SearchSpec(
        p_min=_get(raw, "search", "p_min", -5.0, path, *_REAL),
        p_max=_get(raw, "search", "p_max", 5.0, path, *_REAL),
        q_min=_get(raw, "search", "q_min", -5.0, path, *_REAL),
        q_max=_get(raw, "search", "q_max", 5.0, path, *_REAL),
        grid=_get(raw, "search", "grid", 32, path, *_INT),
        tol=_get(raw, "search", "tol", 1e-10, path, *_REAL),
    )
    search = cfg.search
    for lo_key, hi_key in (("p_min", "p_max"), ("q_min", "q_max")):
        lo, hi = getattr(search, lo_key), getattr(search, hi_key)
        _require(raw, "search", lo_key, math.isfinite(lo), "finite", path)
        _require(raw, "search", hi_key, math.isfinite(hi), "finite", path)
        key = hi_key if hi_key in raw.get("search", {}) else lo_key
        _require(raw, "search", key, lo < hi, f"such that {lo_key} < {hi_key}", path)
    _require(raw, "search", "grid", search.grid >= 4, "at least 4", path)
    cfg.sim = SimulateSpec(
        n_max=_get(raw, "simulate", "n_max", 100_000, path, *_INT),
        escape_r=_get(raw, "simulate", "escape_r", 1e6, path, *_REAL),
        stride=_get(raw, "simulate", "stride", 0, path, *_INT),
        offsets=_get(raw, "simulate", "offsets", [1e-3, 0.0], path, *_REALS),
    )
    if len(cfg.sim.offsets) % 2 != 0:
        raise ConfigError("offsets must contain an even number of reals", path)
    _require(raw, "simulate", "offsets", _finite(cfg.sim.offsets), "finite", path)
    _require(raw, "simulate", "escape_r", cfg.sim.escape_r > 0.0, "positive", path)
    _require(raw, "simulate", "n_max", cfg.sim.n_max >= 1, "at least 1", path)
    _require(
        raw, "simulate", "stride", cfg.sim.stride >= 0,
        "non-negative (0 chooses it from n_max)", path,
    )

    if "error" in raw:
        s = _get(raw, "error", "s", None, path, *_REALS)
        eta = _get(raw, "error", "eta", None, path, *_REALS)
        y0 = _get(raw, "error", "y0", None, path, *_REALS)
        steps = _get(raw, "error", "steps", None, path, *_INTS)
        for name, val, n in (("s", s, 4), ("eta", eta, 2), ("y0", y0, 2)):
            if val is None or len(val) != n:
                raise ConfigError(f"[error] needs {name} with {n} reals", path)
        if steps is None or not steps:
            raise ConfigError("[error] needs a non-empty steps list", path)
        for name, val in (("s", s), ("eta", eta), ("y0", y0)):
            _require(raw, "error", name, _finite(val), "finite", path)
        _require(raw, "error", "steps", min(steps) >= 0, "non-negative", path)
        try:
            ErrorModel(Mat2(*s), tuple(eta), tuple(y0))
        except ValueError as err:  # S is not unimodular
            _require(raw, "error", "s", False, f"unimodular ({err})", path)
        cfg.error = ErrorSpec(s, eta, y0, steps)
    return cfg


def load_config(path) -> RunConfig:
    try:
        text = open(path, encoding="utf-8").read()
    except OSError as err:
        raise ConfigError(str(err), str(path))
    return parse_config(text, str(path))


def serialize_config(cfg: RunConfig) -> str:
    """Canonical defaults-filled text; parse(serialize(cfg)) == cfg."""
    lines = []
    if cfg.system is not None:
        lines += [f"[system]", f"class = {cfg.system.class_tag}"]
        for key in SystemClass(cfg.system.class_tag).keys:
            lines.append(f"{key} = {cfg.system.exprs[key]}")
        lines.append("")
    lines.append("[run]")
    if cfg.schemes:
        lines.append(f"schemes = {', '.join(cfg.schemes)}")
    if cfg.taus:
        lines.append(f"tau = {', '.join(fmt_float(t) for t in cfg.taus)}")
    if cfg.sweep is not None:
        lines += [
            f"tau_lo = {fmt_float(cfg.sweep.lo)}",
            f"tau_hi = {fmt_float(cfg.sweep.hi)}",
            f"tau_count = {cfg.sweep.count}",
            f"tau_scale = {cfg.sweep.scale}",
        ]
    lines += [
        f"empirical_tau_hi = {fmt_float(cfg.empirical_tau_hi)}",
        f"bisect_tol = {fmt_float(cfg.bisect_tol)}",
        "",
        "[search]",
        f"p_min = {fmt_float(cfg.search.p_min)}",
        f"p_max = {fmt_float(cfg.search.p_max)}",
        f"q_min = {fmt_float(cfg.search.q_min)}",
        f"q_max = {fmt_float(cfg.search.q_max)}",
        f"grid = {cfg.search.grid}",
        f"tol = {fmt_float(cfg.search.tol)}",
        "",
        "[simulate]",
        f"n_max = {cfg.sim.n_max}",
        f"escape_r = {fmt_float(cfg.sim.escape_r)}",
        f"stride = {cfg.sim.stride}",
        f"offsets = {', '.join(fmt_float(x) for x in cfg.sim.offsets)}",
    ]
    if cfg.error is not None:
        lines += [
            "",
            "[error]",
            f"s = {', '.join(fmt_float(x) for x in cfg.error.s)}",
            f"eta = {', '.join(fmt_float(x) for x in cfg.error.eta)}",
            f"y0 = {', '.join(fmt_float(x) for x in cfg.error.y0)}",
            f"steps = {', '.join(str(n) for n in cfg.error.steps)}",
        ]
    return "\n".join(lines) + "\n"
