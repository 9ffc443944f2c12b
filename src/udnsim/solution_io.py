"""Solution file serialization.

Format: a text magic line ``UDNSIM-MFG <version>``, one JSON header line,
then four little-endian float64 blocks in this order: value field, density
field, power policy (each n_t*n_q row-major) and the interference trajectory
(n_t).  Round-trips are bit-exact.  The version-2 header holds the grid, the
iteration count, the residuals and the solve's other inputs, each checked as
the solve checks it: phy and queue (dicts, rebuilt through the constructors),
noise_norm, mean_sq_gain and boundary.  Version 1 lacks most: solve again.
"""

from __future__ import annotations

import json
from dataclasses import asdict

import numpy as np

from .errors import ConfigError
from .fields import GridSpec, MfgSolution, terminal_value
from .phy import PhyParams, QueueParams
from .solver import beta_trajectory

MAGIC = "UDNSIM-MFG"
VERSION = 2


def save_solution(path, sol: MfgSolution):
    header = {
        "n_t": sol.grid.n_t,
        "n_q": sol.grid.n_q,
        "horizon_s": sol.grid.horizon_s,
        "phy": asdict(sol.phy),
        "queue": asdict(sol.queue),
        "noise_norm": sol.noise_norm,
        "mean_sq_gain": sol.mean_sq_gain,
        "boundary": sol.boundary,
        "iterations": sol.iterations,
        "residuals": sol.residuals,
    }
    with open(path, "wb") as f:
        f.write(f"{MAGIC} {VERSION}\n".encode("ascii"))
        f.write((json.dumps(header, sort_keys=True) + "\n").encode("ascii"))
        for block in (sol.value, sol.density, sol.policy, sol.interference):
            f.write(np.ascontiguousarray(block, dtype="<f8").tobytes())


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
            grid = GridSpec(header["n_t"], header["n_q"], header["horizon_s"])
            meta = dict(iterations=header["iterations"], residuals=list(header["residuals"]),
                        phy=PhyParams(**header["phy"]), queue=QueueParams(**header["queue"]),
                        noise_norm=header["noise_norm"], mean_sq_gain=header["mean_sq_gain"],
                        boundary=header["boundary"])
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
    value = raw[:n].reshape(grid.n_t, grid.n_q).copy()
    density = raw[n:2 * n].reshape(grid.n_t, grid.n_q).copy()
    policy = raw[2 * n:3 * n].reshape(grid.n_t, grid.n_q).copy()
    interference = raw[3 * n:].copy()
    return MfgSolution(grid=grid, value=value, density=density, policy=policy,
                       interference=interference, **meta)
