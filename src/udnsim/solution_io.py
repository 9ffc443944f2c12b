"""Solution file serialization.

Format: a text magic line ``UDNSIM-MFG <version>``, one JSON header line,
then four little-endian float64 blocks in this order: value field, density
field, power policy (each n_t*n_q row-major) and the interference trajectory
(n_t); round-trips are bit-exact.  The header holds the grid's fields and
MfgSolution's other non-block fields (HEADER), phy and queue as dicts: a
new field is a format change that bumps VERSION.  Keys must match; values
are checked as the solve checks them.  Version 1 lacks most: solve again.
"""

from __future__ import annotations

import json
from dataclasses import asdict, fields, is_dataclass
from typing import get_type_hints

import numpy as np

from .errors import ConfigError
from .fields import GridSpec, MfgSolution, terminal_value
from .solver import beta_trajectory

MAGIC = "UDNSIM-MFG"
VERSION = 2
BLOCKS = ("value", "density", "policy", "interference")
HEADER = [f.name for f in fields(MfgSolution) if f.name not in ("grid", *BLOCKS)]
GRID_KEYS = [f.name for f in fields(GridSpec)]


def save_solution(path, sol: MfgSolution):
    header = {**asdict(sol.grid), **{name: getattr(sol, name) for name in HEADER}}
    with open(path, "wb") as f:
        f.write(f"{MAGIC} {VERSION}\n".encode("ascii"))
        f.write((json.dumps(header, sort_keys=True, default=asdict) + "\n").encode("ascii"))
        for name in BLOCKS:
            f.write(np.ascontiguousarray(getattr(sol, name), dtype="<f8").tobytes())


def load_solution(path) -> MfgSolution:
    """Read a solution file; ConfigError when the path cannot be opened or
    does not hold a complete solution file."""
    try:
        f = open(path, "rb")
    except OSError as exc:
        raise ConfigError(f"{path}: cannot open solution file ({exc.strerror})") from exc
    with f:
        magic = f.readline().decode("ascii", errors="replace").strip().split()
        if len(magic) != 2 or magic[0] != MAGIC:
            raise ConfigError(f"{path}: not a solution file")
        if magic[1] != str(VERSION):
            raise ConfigError(f"{path}: unsupported solution format version {magic[1]}")
        try:
            header = json.loads(f.readline().decode("ascii"))
            stray = set(header) ^ {*GRID_KEYS, *HEADER}
            if stray:
                raise ConfigError(f"missing or unknown keys {sorted(stray)}")
            grid = GridSpec(**{name: header[name] for name in GRID_KEYS})
            types = get_type_hints(MfgSolution)
            meta = {name: types[name](**header[name]) if is_dataclass(types[name])
                    else header[name] for name in HEADER}
            # JSON numbers load as int or float, and true as a bool
            if type(meta["iterations"]) is not int or meta["iterations"] < 1:
                raise ConfigError("iterations must be a positive integer")
            if (len(meta["residuals"]) != meta["iterations"]
                    or not all(type(r) in (int, float) for r in meta["residuals"])):
                raise ConfigError("residuals must be one number per iteration")
            beta_trajectory(0.0, meta["noise_norm"], meta["mean_sq_gain"])
            terminal_value(meta["boundary"], grid.queues)
        except (ValueError, KeyError, TypeError, ConfigError) as exc:
            raise ConfigError(f"{path}: corrupt solution header ({exc!r})") from exc
        n = grid.n_t * grid.n_q
        raw = np.frombuffer(f.read(), dtype="<f8")
        if raw.size != 3 * n + grid.n_t:
            raise ConfigError(f"{path}: truncated solution payload")
    payload = raw.copy()
    blocks = [*payload[:3 * n].reshape(3, grid.n_t, grid.n_q), payload[3 * n:]]
    return MfgSolution(grid=grid, **dict(zip(BLOCKS, blocks)), **meta)
