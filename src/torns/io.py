"""Configuration parsing, checkpoints, CSV series and run manifests.

Formats:

* config -- JSON (documented schema below, see load_config), whose field
  specs are built as (N, K) vorticity rows, the form SimConfig holds;
* CSV -- a header of column names, then one line per row (write_rows_csv,
  whose rows are dicts: the first row's keys are the header); floats are
  written with repr (shortest round-trip), so identical runs give
  byte-identical files.  The norm series has the columns t, then
  dynamics.NORMS, then z (the rows of dynamics.integrate);
* checkpoint -- little-endian binary: magic "TRNS", u32 version (2), u32 N,
  f64 L, f64 nu, f64 t, f64 z, u64 payload byte length, then the state's
  vorticity row (State.w), the (N, K) masked half-spectrum block with
  K = (N-1)//3 + 1, as interleaved re/im f64 pairs in row-major order
  (exactly N * K complex values, N * K * 16 bytes);
* manifest -- JSON listing every emitted file with its sha256 (written last;
  the only artifact containing wall-clock data).
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
import time
from collections.abc import Iterable
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .dynamics import SimConfig, State, _half_spectrum, taylor_green, manufactured_forcing
from .spectral import HalfSpectrum, WaveGrid, random_row

__all__ = [
    "ConfigError",
    "load_config",
    "normalize_config",
    "write_checkpoint",
    "read_checkpoint",
    "write_rows_csv",
    "emit_plot_script",
    "write_manifest",
]

CHECKPOINT_MAGIC = b"TRNS"
CHECKPOINT_VERSION = 2
_HEADER = struct.Struct("<4sII d d d d Q")  # magic, version, N, L, nu, t, z, payload bytes


class ConfigError(ValueError):
    """Schema violation; message starts with the offending field path."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


_DEFAULTS = {
    "L": 2.0 * math.pi,
    "scheme": "etd2",
    "seed": 0,
    "stride": 10,
    "t_end": 1.0,
    "forcing": {"preset": "zero"},
    "noise": {"preset": "zero"},
    "initial": {"preset": "zero"},
}

_PRESETS = {
    # f = 0, h = 0, L = 2*pi, Taylor-Green initial data
    "taylor-green": {
        "nu": 0.1, "L": 2.0 * math.pi, "N": 16, "dt": 1e-3, "t_end": 1.0,
        "forcing": {"preset": "zero"}, "noise": {"preset": "zero"},
        "initial": {"preset": "taylor-green"},
    },
    # moderate noisy run with admissible h
    "decay-noise": {
        "nu": 1.0, "L": 2.0 * math.pi, "N": 32, "dt": 1e-3, "t_end": 1.0,
        "forcing": {"preset": "zero"},
        "noise": {"preset": "random", "norm": 0.5, "seed": 11},
        "initial": {"preset": "random", "norm": 1.0, "seed": 5},
    },
}


# the keys of each kind of field spec; a modes spec takes "modes" alone and a mode entry j, u and v
_SPEC_KEYS = {"zero": ("preset",), "taylor-green": ("preset",),
              "random": ("preset", "norm", "seed"), "manufactured": ("preset", "norm", "seed")}


def _known_keys(spec: dict, allowed, prefix: str) -> None:
    """Reject the first key of spec outside allowed as "<prefix><key>: unknown field"."""
    for key in spec:
        if key not in allowed:
            raise ConfigError(f"{prefix}{key}", "unknown field")


def _require(raw: dict, field: str, types, check=None, msg: str = ""):
    if field not in raw:
        raise ConfigError(field, "missing required field")
    v = raw[field]
    if not isinstance(v, types) or isinstance(v, bool):
        raise ConfigError(field, f"expected {types}, got {type(v).__name__}")
    if check is not None and not check(v):
        raise ConfigError(field, msg or "invalid value")
    return v


def _field_from_modes(half: HalfSpectrum, modes: list, path: str) -> np.ndarray:
    """Sparse mode list -> the (N, K) vorticity row of its real, divergence-free part.

    Each entry: {"j": [jx, jy], "u": [re, im], "v": [re, im]} giving the
    coefficients of both velocity components at lattice mode j != [0, 0], inside
    the dealias mask (3|j| < N per direction): the solver's state space.
    Half its curl i (kx v - ky u) is added at j and the conjugate at -j,
    each where its column is one of the row's 0..K-1, so the physical field
    is real; the curl drops the entry's gradient part, as a Leray
    projection would.
    """
    grid = half.grid
    N = grid.N
    w = np.zeros((N, half.K), dtype=np.complex128)
    for i, entry in enumerate(modes):
        here = f"{path}[{i}]"
        if not isinstance(entry, dict):
            raise ConfigError(here, "mode entries must be objects")
        _known_keys(entry, ("j", "u", "v"), f"{here}.")
        j = entry.get("j")
        if (not isinstance(j, list) or len(j) != 2
                or not all(isinstance(a, int) and not isinstance(a, bool) for a in j)):
            raise ConfigError(f"{here}.j", "expected a pair of integers")
        jx, jy = j
        if not (-N // 2 < jx <= N // 2 and -N // 2 < jy <= N // 2):
            raise ConfigError(f"{here}.j", f"mode {j} outside the lattice for N={N}")
        if not grid.dealias_mask[jx % N, jy % N]:
            raise ConfigError(f"{here}.j", f"mode {j} outside the dealias mask 3|j| < N for N={N}")
        if jx == jy == 0:
            raise ConfigError(f"{here}.j", "mode [0, 0] is the mean, which lies outside the state space")
        c = 0j  # half the curl, -i ky u + i kx v
        for key, ik in (("u", -1j * grid.ky[0, jy % N]), ("v", 1j * grid.kx[jx % N, 0])):
            val = entry.get(key, [0.0, 0.0])
            if (not isinstance(val, list) or len(val) != 2 or not all(
                    isinstance(a, (int, float)) and not isinstance(a, bool) and _finite(a) for a in val)):
                raise ConfigError(f"{here}.{key}", f"expected [re, im], two finite numbers, got {val!r}")
            c += ik * (0.5 * complex(float(val[0]), float(val[1])))
        if jy >= 0:
            w[jx % N, jy] += c
        if jy <= 0:
            w[-jx % N, -jy] += c.conjugate()
    return w


def _finite(v) -> bool:
    try:
        return math.isfinite(v)
    except OverflowError:  # an int beyond the float range
        return False


def _positive(v) -> bool:
    return v > 0 and _finite(v)


def _preset_params(spec: dict, path: str) -> tuple[float, int]:
    """The norm (a finite real >= 0, default 1) and seed (an int, default 0) of a random field."""
    norm = spec.get("norm", 1.0)
    if isinstance(norm, bool) or not isinstance(norm, (int, float)) or not _finite(norm) or norm < 0:
        raise ConfigError(f"{path}.norm", f"expected a finite number >= 0, got {norm!r}")
    seed = spec.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ConfigError(f"{path}.seed", f"expected an integer, got {seed!r}")
    return float(norm), seed


def _build_field(half: HalfSpectrum, spec: dict, path: str, nu: float) -> np.ndarray:
    """The (N, K) vorticity row of one role, `path`: "forcing", "noise" or "initial"."""
    if not isinstance(spec, dict):
        raise ConfigError(path, "expected an object")
    if "modes" in spec:
        _known_keys(spec, ("modes",), f"{path}.")
        return _field_from_modes(half, _require(spec, "modes", list), f"{path}.modes")
    preset = spec.get("preset", "zero")
    if not isinstance(preset, str) or preset not in _SPEC_KEYS:
        raise ConfigError(f"{path}.preset", f"unknown preset {preset!r}")
    _known_keys(spec, _SPEC_KEYS[preset], f"{path}.")
    if preset == "zero":
        return np.zeros((half.grid.N, half.K), dtype=np.complex128)
    if preset == "random":
        norm, seed = _preset_params(spec, path)
        return random_row(half, seed, norm=norm)
    if preset == "taylor-green":
        if path != "initial":
            raise ConfigError(f"{path}.preset", "taylor-green preset is only valid for initial data")
        return taylor_green(0.0, nu, half.grid)
    if path != "forcing":  # manufactured
        raise ConfigError(f"{path}.preset", "manufactured preset is only valid for forcing")
    norm, seed = _preset_params(spec, path)
    return manufactured_forcing(random_row(half, seed, norm=norm), nu, half.grid)


def normalize_config(raw: dict | str) -> dict:
    """Merged config dict: preset applied and defaults filled.

    Normalization is idempotent, so the dict echoed into a manifest reloads
    to the identical SimConfig (same seeds, same coefficients).
    """
    if isinstance(raw, str):
        try:
            raw = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ConfigError("<json>", f"invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("<root>", "config must be a JSON object")
    known = {"nu", "L", "N", "dt", "scheme", "seed", "stride", "t_end",
             "preset", "forcing", "noise", "initial"}
    _known_keys(raw, known, "")
    merged = dict(_DEFAULTS)
    preset = raw.get("preset")
    if preset is not None:
        if not isinstance(preset, str) or preset not in _PRESETS:
            raise ConfigError("preset", f"unknown preset {preset!r} (have {sorted(_PRESETS)})")
        merged.update(_PRESETS[preset])
    merged.update({k: v for k, v in raw.items() if k != "preset"})
    return merged


def load_config(raw: dict | str) -> SimConfig:
    """Validated SimConfig from a JSON string or dict.

    Schema (top-level): nu, L, dt finite and > 0, N even >= 4, and optionally
    scheme, seed, stride, t_end (finite, > 0), preset, forcing, noise, initial.
    A top-level "preset" fills unset keys ("taylor-green", "decay-noise").
    forcing/noise/initial are {"preset": ...} or {"modes": [...]} objects
    (see _field_from_modes).  Each is built as its (N, K) vorticity row, and
    SimConfig gets them as fw, hw and w0.  An inadmissible h is not
    rejected: the config's admissibility report (SimConfig.assumption,
    computed on its first read) carries the violation as a warning.
    """
    merged = normalize_config(raw)

    nu = _require(merged, "nu", (int, float), _positive, "must be positive and finite")
    L = _require(merged, "L", (int, float), _positive, "must be positive and finite")
    N = _require(merged, "N", int, lambda v: v >= 4 and v % 2 == 0, "must be even and >= 4")
    dt = _require(merged, "dt", (int, float), _positive, "must be positive and finite")
    scheme = _require(merged, "scheme", str)
    seed = _require(merged, "seed", int)
    stride = _require(merged, "stride", int, lambda v: v >= 1, "must be >= 1")
    t_end = _require(merged, "t_end", (int, float), _positive, "must be positive and finite")

    half = _half_spectrum(WaveGrid(float(L), N))
    fw, hw, w0 = (_build_field(half, merged[role], role, float(nu))
                  for role in ("forcing", "noise", "initial"))
    try:
        return SimConfig(nu=float(nu), grid=half.grid, dt=float(dt), fw=fw, hw=hw,
                         scheme=scheme, seed=seed, stride=stride, t_end=float(t_end), w0=w0)
    except ValueError as exc:
        raise ConfigError("<config>", str(exc)) from exc


class _CheckpointHeader(NamedTuple):
    """Decoded checkpoint header (see module docstring for the layout)."""

    magic: bytes
    version: int
    N: int
    L: float
    nu: float
    t: float
    z: float
    payload_len: int


def write_checkpoint(state: State, path: str | Path, nu: float) -> None:
    """Bit-exact binary dump of a State's vorticity row (interleaved re/im f64)."""
    g = state.half.grid
    payload = state.w.tobytes()
    header = _HEADER.pack(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, g.N, g.L, nu,
                          state.t, state.z, len(payload))
    Path(path).write_bytes(header + payload)


def _parse_header(data: bytes, path: str | Path) -> _CheckpointHeader:
    if len(data) < _HEADER.size:
        raise ValueError(f"{path}: truncated checkpoint header")
    hdr = _CheckpointHeader(*_HEADER.unpack_from(data))
    if hdr.magic != CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: bad magic {hdr.magic!r}")
    if hdr.version != CHECKPOINT_VERSION:
        raise ValueError(f"{path}: version mismatch: file has {hdr.version}, expected {CHECKPOINT_VERSION}")
    return hdr


def read_checkpoint(path: str | Path) -> State:
    """Inverse of write_checkpoint, bit for bit in w; ValueError, starting with the path, for a row
    outside the state space or a header whose L, t or z is not finite or whose N no grid takes.
    The header's nu is informational: a run's config, nu with it, is the config echo in its manifest."""
    data = Path(path).read_bytes()
    hdr = _parse_header(data, path)
    for name in ("t", "z"):  # WaveGrid refuses a non-finite L
        if not math.isfinite(getattr(hdr, name)):
            raise ValueError(f"{path}: non-finite {name} in the header: {getattr(hdr, name)}")
    payload = data[_HEADER.size:]
    if hdr.N * hdr.N > len(payload):  # a row holds N K > N^2 / 3 values: no grid is built for such an N
        raise ValueError(f"{path}: truncated payload ({len(payload)} bytes for N = {hdr.N})")
    try:
        half = _half_spectrum(WaveGrid(hdr.L, hdr.N))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    expected = hdr.N * half.K * 16  # the (N, K) row
    if len(payload) < expected:
        raise ValueError(f"{path}: truncated payload ({len(payload)} of {expected} bytes)")
    for size in (len(payload), hdr.payload_len):  # the payload, then the header's record of it
        if size != expected:
            raise ValueError(f"{path}: payload of {size} bytes does not match N = {hdr.N} ({expected} bytes)")
    w = np.frombuffer(payload, dtype=np.complex128).reshape(hdr.N, half.K).copy()
    return State(hdr.t, half.admit(w, f"{path}: row"), hdr.z, half)


def _fmt(x) -> str:
    """Shortest round-trip text for a float, numpy's included (deterministic across runs)."""
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def write_rows_csv(rows: Iterable[dict], path: str | Path) -> None:
    """CSV: the first row's keys as the header, then each row's values under them.

    No rows is a ValueError: there would be no header to write.
    """
    rows = list(rows)
    if not rows:
        raise ValueError(f"{path}: no rows to write")
    columns = list(rows[0])
    lines = [",".join(columns), *(",".join(_fmt(row[c]) for c in columns) for row in rows)]
    Path(path).write_text("\n".join(lines) + "\n")


_PLOT_TEMPLATE = '''#!/usr/bin/env python3
"""Self-contained plot script; reads the CSVs written next to it."""
import csv
from pathlib import Path

import matplotlib
matplotlib.use("Agg")
import matplotlib.pyplot as plt

HERE = Path(__file__).resolve().parent
CSVS = {csvs!r}

fig, ax = plt.subplots(figsize=(8.0, 5.0), dpi=100)
for name in CSVS:
    with open(HERE / name, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        continue
    cols = list(rows[0])
    xkey = "t" if "t" in cols else cols[0]
    members = {{}}  # a member column (pullback.csv): one line per member and column
    for r in rows:
        members.setdefault(r.get("member"), []).append(r)
    for member, group in members.items():
        for key in cols:
            if key in (xkey, "member", "error"):
                continue
            try:
                xs = [float(r[xkey]) for r in group]
                ys = [float(r[key]) for r in group]
            except ValueError:
                continue
            ax.plot(xs, ys, label=f"{{name}}:{{key}}" + (f":{{member}}" if member else ""))
ax.set_xlabel("t")
ax.legend(fontsize=6)
fig.tight_layout()
fig.savefig(HERE / "plot.png")
print("wrote", HERE / "plot.png")
'''


def emit_plot_script(csv_names: list[str], path: str | Path) -> None:
    """Write a stand-alone matplotlib script that reads the given CSVs and saves plot.png: each numeric
    column against t (else the first column), one line per member when a CSV has a member column."""
    Path(path).write_text(_PLOT_TEMPLATE.format(csvs=list(csv_names)))


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_manifest(out_dir: str | Path, config_echo: dict, seeds: list[int],
                   files: list[str], command: str) -> Path:
    """Run manifest (written last): config echo, seeds, version, checksums."""
    out_dir = Path(out_dir)
    manifest = {
        "artifact_version": __version__,
        "command": command,
        "wall_clock_unix": time.time(),
        "config": config_echo,
        "seeds": list(seeds),
        "files": {
            name: {"sha256": _sha256(out_dir / name), "bytes": (out_dir / name).stat().st_size}
            for name in sorted(files)
        },
    }
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path
