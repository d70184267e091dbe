"""Trajectory container, jump-adapted Euler-Maruyama integrators, RK4 ODE solver.

The stochastic integrators work on the union of a uniform internal grid
(``substeps`` intervals per observation interval) and all jump times of the
supplied noise path, so jumps land exactly on integration nodes.  Observation
times are integration nodes by construction; no interpolation happens
anywhere.

Both integrators take every grid interval through one Euler-Maruyama step
(``_euler_step``) and every jump through one jump (``_jump``).  On floats a
path goes through one walk (``_walk``), which clamps and checks each result
and stops at the first non-finite state.  ``simulate_sde`` walks one path over
its whole grid in one walk, which records the state at each observation node;
it is the reference the lockstep integrator is tested against.
``simulate_many`` integrates many paths in lockstep, each with its own theta
and params: every path takes each base interval of the uniform grid in one
in-place step over (3, paths) arrays (``_lockstep``), and a path with jumps in
the interval, inside it or on its end node, walks the interval instead, with
its own step and jump, in sub-steps that end at those jumps and at the end
node.  ``_lockstep`` is ``_euler_step`` written as a dozen or so ufunc calls
into buffers allocated once per call: each path gets the same IEEE operations
in the same order, with beta from its own theta's ``make_beta_fast`` and its
own eps*sigma, so each row equals ``simulate_sde`` on the same noise bit for
bit.  A base step runs the clamp and the non-finite check only when one
reduction over the state's bits finds a component that is negative (or -0.0)
or non-finite.  :meth:`PathBatch.trajectory` gives a row as the
:class:`Trajectory` ``simulate_sde`` returns, or raises its
:class:`SimulationError`, step or jump alike.

Both integrators draw the Brownian part through
:meth:`~sirlevy.levy.LevyPathNoise.fill_normals`: ``simulate_sde`` as one
batch of increments over its whole grid, ``simulate_many`` as raw normals in
time chunks of at most ``INCREMENT_BUDGET`` values over a full block of
``PATH_BLOCK`` paths (over all paths, in a larger batch), each path filling
its runs of base intervals in place and one multiply per chunk scaling them;
beta is built one chunk at a time too.  The callers simulate at most
``PATH_BLOCK`` paths per call: ``predict_ensemble`` one call per retry round,
``generate_datasets`` the datasets of every noise level, so the memory a study
holds stays bounded whatever the number of paths.  The rate experiment
simulates each noise level's replications in one call.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .levy import LevyPathNoise, sample_lambda, seed_sequence, stream
from .models import SirParams, get_model, make_drift_fast
from .transmission import ThetaParams, make_beta_fast

DEFAULT_SUBSTEPS = 10

# memory bounds of the lockstep integrator: predict_ensemble and
# generate_datasets pass at most PATH_BLOCK paths to one simulate_many call,
# and a call holds at most INCREMENT_BUDGET drawn increment values (1 MB) at once
PATH_BLOCK = 256
INCREMENT_BUDGET = 1 << 17
SPACING_RTOL = 1e-8  # a regular grid's intervals are this close to the first, relatively

_INF_BITS = np.float64(np.inf).view(np.uint64)


class SimulationError(RuntimeError):
    """Raised when the integrator produces a non-finite state."""

    def __init__(self, message: str, time: float):
        super().__init__(message)
        self.time = time


@dataclass
class Trajectory:
    """Observation grid plus states, with the generation metadata attached."""

    times: np.ndarray
    states: np.ndarray  # (len(times), 3)
    model: str
    theta: ThetaParams | None = None
    params: SirParams | None = None
    seed: int | None = None
    lam: float | None = None
    clamp_count: int = 0
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.states = np.asarray(self.states, dtype=float)
        if self.states.shape != (self.times.size, 3):
            raise ValueError(
                f"states shape {self.states.shape} does not match {self.times.size} times"
            )

    @property
    def n_intervals(self) -> int:
        return self.times.size - 1

    def spacing(self) -> float:
        """Grid spacing; raises if the grid is not regular within ``SPACING_RTOL``."""
        diffs = np.diff(self.times)
        dt = diffs[0]
        if np.any(np.abs(diffs - dt) > SPACING_RTOL * dt):
            raise ValueError("trajectory grid is not regularly spaced")
        return float(dt)


def _check_noise(noise: LevyPathNoise, model, horizon: float) -> None:
    """Reject a noise path the integrators cannot take: wrong dimension, too short,
    jumps at t <= 0, jump times not strictly increasing."""
    if noise.dim != model.driver_dim:
        raise ValueError(f"noise dimension {noise.dim} does not match model {model.tag}")
    if noise.horizon < horizon:
        raise ValueError("noise path horizon is shorter than the simulation horizon")
    times = noise.jump_times
    if np.any(times <= 0.0):
        # the path starts at t = 0, so such a jump has no pre-jump state
        raise ValueError(f"noise jump times must be positive, got {np.min(times)!r}")
    back = np.flatnonzero(np.diff(times) <= 0.0)
    if back.size:
        # the grid holds each time once and in order, so a repeated or
        # unsorted jump time has no one place on it: the integrators differ
        a, b = times[back[0] : back[0] + 2].tolist()
        raise ValueError(f"noise jump times must be strictly increasing, got {a!r} then {b!r}")


def simulate_sde(
    model,
    theta: ThetaParams,
    params: SirParams,
    s0,
    horizon: float,
    n_obs: int,
    noise: LevyPathNoise,
    substeps: int = DEFAULT_SUBSTEPS,
) -> Trajectory:
    """Integrate one noise realization; return states at the n_obs + 1 observation nodes.

    Drift advances with the internal Euler step; Brownian and jump terms enter
    scaled by params.eps.  Jumps apply the state-dependent coefficient at the
    pre-jump state.  Negative undershoots are clamped to zero and counted.
    """
    model = get_model(model)
    if n_obs < 1 or substeps < 1:
        raise ValueError("n_obs and substeps must be >= 1")
    _check_noise(noise, model, horizon)

    n_steps = n_obs * substeps
    base = np.linspace(0.0, horizon, n_steps + 1)
    keep = noise.jump_times <= horizon
    jump_times = noise.jump_times[keep]
    # the sorted union of the nodes and the jump times; a jump on a node is kept once
    grid = np.sort(np.concatenate((base, jump_times)))
    grid = grid[np.concatenate(([True], grid[1:] != grid[:-1]))]

    # one batch draw produces the same stream as per-interval draws, in grid order
    incs = noise.brownian_increments(np.diff(grid)).tolist()
    grid_list = grid.tolist()
    marks = [None] * len(grid_list)  # by node: the mark of the jump there, if any
    for node, mark in zip(np.searchsorted(grid, jump_times).tolist(), noise.jump_marks[keep].tolist()):
        marks[node] = mark
    obs_node = np.searchsorted(grid, base[::substeps]).tolist()

    observe = [False] * len(incs)  # by interval: whether it ends on an observation node
    for node in obs_node[1:]:
        observe[node - 1] = True

    x, y, z = (float(v) for v in np.asarray(s0, dtype=float))
    observed = [(x, y, z)]
    # one walk over the whole grid, recording the state at each observation node
    _, _, _, clamps, failure = _walk(
        _euler_step(model, theta, params), _jump(model, params), grid_list[0], x, y, z,
        grid_list[1:], incs, marks[1:], observe, observed,
    )
    if failure is not None:
        raise _failure(*failure)
    times = base[::substeps].copy()
    return _path_trajectory(model.tag, theta, params, noise, substeps, times, np.array(observed), clamps)


def _failure(time: float, at_jump: bool) -> SimulationError:
    """The error of a path whose first non-finite state came at ``time``, from a jump or a step."""
    return SimulationError(f"non-finite state at {'jump ' if at_jump else ''}t={time}", time=time)


def _path_trajectory(tag: str, theta, params, noise, substeps: int, times, states, clamps: int) -> Trajectory:
    """One simulated path with its generation metadata; more than 5 clamps flag it."""
    return Trajectory(
        times=times,
        states=states,
        model=tag,
        theta=theta,
        params=params,
        seed=noise.seed if isinstance(noise.seed, int) else None,
        lam=noise.rate,
        clamp_count=clamps,
        meta={"substeps": substeps, "flagged": clamps > 5},
    )


def _euler_step(model, theta: ThetaParams, params: SirParams):
    """Raw Euler-Maruyama step ``(t, x, y, z, dt, dw) -> (x, y, z)``, before clamping.

    This is the one grid step of both integrators: the drift of
    :func:`~sirlevy.models.make_drift_fast` times dt, plus the noise
    coefficient eps*sigma*X*Y*Z at the step's left state times the Brownian
    increment (through the column (-1, 2, -1) on the proportions model).  It
    works on floats, inside :func:`_walk`, the one float path of both
    integrators.  The lockstep base interval of :func:`simulate_many` takes
    it in its in-place array form, :func:`_lockstep`, which gives the same
    values bit for bit.
    """
    drift = make_drift_fast(model, theta, params)
    eps_sigma = params.eps * params.sigma
    if model.tag == "numbers":

        def step(t, x, y, z, dt, dw):
            dx, dy, dz = drift(t, x, y, z)
            c = eps_sigma * x * y * z
            return x + dt * dx + c * dw[0], y + dt * dy + c * dw[1], z + dt * dz + c * dw[2]

        return step

    def step_prop(t, x, y, z, dt, dw):
        dx, dy, dz = drift(t, x, y, z)
        cdw = eps_sigma * x * y * z * dw[0]
        return x + dt * dx - cdw, y + dt * dy + 2.0 * cdw, z + dt * dz - cdw

    return step_prop


def _lockstep(model, params, n_paths: int):
    """The step of :func:`_euler_step` on (3, n_paths) states, in place: ``(state, step)``.

    ``params`` holds one :class:`SirParams` per path.  ``state`` is the
    buffer of the current states, to be filled before the first step.
    ``step(beta, dt, dw)`` takes every path over ``dt`` with transmission
    rate ``beta`` (a value for every path, or a (n_paths,) array of one per
    path, from :func:`_betas`) and the increments ``dw`` ((3, n_paths) on the
    numbers model, (n_paths,) on the proportions model), writes the raw
    result into the other of two state buffers and returns it; that buffer
    holds the current states from then on, and the one it read keeps the
    states the step started from until the next step.  Each path gets the
    IEEE operations of the float step in the same order, so a column equals
    ``_euler_step`` on that path's theta and params bit for bit: a constant
    every path shares bit for bit is a 0-d array (ufuncs take it faster than
    a (n_paths,) one, with the same values), any other a (n_paths,) array of
    the per-path floats, and elementwise products and sums of arrays are the
    float operations; the drift's rows are built in one (3, n_paths) buffer,
    so dt*D, the add to the state and the noise term are one call each over
    all rows; and the noise column (-1, 2, -1) times the coefficient is
    exact, since x + (-1*c) equals the float step's x - c.
    """

    def constant(value):
        # shared means bit-equal, so paths with 0.0 and -0.0 keep their own
        values = np.array([value(p) for p in params])
        bits = values.view(np.uint64)
        return values[0, ...] if len(values) and (bits == bits[0]).all() else values

    eps_sigma = constant(lambda p: p.eps * p.sigma)
    gamma = constant(lambda p: p.gamma)
    bufs = [np.empty((3, n_paths)), np.empty((3, n_paths))]
    rows = [tuple(b) for b in bufs]
    cur = 0
    infections = np.empty(n_paths)
    c = np.empty(n_paths)
    d = np.empty((3, n_paths))
    d0, d1, d2 = d
    noise = np.empty((3, n_paths))
    mul, add, sub = np.multiply, np.add, np.subtract

    def coefficient(beta, x, y, z):
        mul(beta, x, out=infections)
        mul(infections, y, out=infections)
        mul(eps_sigma, x, out=c)
        mul(c, y, out=c)
        mul(c, z, out=c)

    if model.tag == "numbers":
        birth = constant(lambda p: p.birth)
        rates = constant(lambda p: (p.death, p.death + p.gamma, p.death)).reshape(-1, 3).T  # (3, 1 or n_paths)
        recoveries = noise[2]  # free until the noise term is built

        def step(beta, dt, dw):
            nonlocal cur
            s, (x, y, z) = bufs[cur], rows[cur]
            cur ^= 1
            coefficient(beta, x, y, z)
            mul(rates, s, out=d)
            sub(birth, d0, out=d0)
            sub(d0, infections, out=d0)
            sub(infections, d1, out=d1)
            mul(gamma, y, out=recoveries)
            sub(recoveries, d2, out=d2)
            mul(d, dt, out=d)
            add(s, d, out=d)
            mul(c, dw, out=noise)
            return add(d, noise, out=bufs[cur])

        return bufs[0], step

    column = model.direction  # (-1, 2, -1)

    def step_prop(beta, dt, dw):
        nonlocal cur
        s, (x, y, z) = bufs[cur], rows[cur]
        cur ^= 1
        coefficient(beta, x, y, z)
        mul(c, dw, out=c)
        mul(gamma, y, out=d2)
        np.negative(infections, out=d0)
        sub(infections, d2, out=d1)
        mul(d, dt, out=d)
        add(s, d, out=d)
        mul(column, c, out=noise)
        return add(d, noise, out=bufs[cur])

    return bufs[0], step_prop


def _betas(thetas):
    """Beta at a run of float times, ``betas(times)``, for :func:`_lockstep`'s steps.

    ``thetas`` holds one :class:`ThetaParams` per path.  Every value comes
    from the path's own :func:`make_beta_fast`, as in the float step
    (numpy's ``cos`` can differ from ``math.cos`` in the last bit), and each
    distinct theta is evaluated once per time, into one column of a table.
    One distinct theta gives that column, one value per time for every
    path; several give the C-contiguous (len(times), paths) array of each
    path's column.
    """
    index: dict = {}  # each distinct theta's column in the table, in first-seen order
    column = np.array([index.setdefault(th, len(index)) for th in thetas], dtype=np.intp)
    fns = [make_beta_fast(th) for th in index]

    def betas(times):
        table = np.empty((len(times), len(fns)))
        for j, f in enumerate(fns):
            table[:, j] = list(map(f, times))
        return table[:, 0] if len(fns) == 1 else table.take(column, axis=1)

    return betas


def _jump(model, params: SirParams):
    """Raw jump ``(x, y, z, mark) -> (x, y, z)`` on floats, before clamping.

    The one jump of both integrators: the coefficient at the pre-jump state
    times the mark, as in :func:`_euler_step`.
    """
    eps_sigma = params.eps * params.sigma
    if model.tag == "numbers":

        def jump(x, y, z, m):
            cj = eps_sigma * x * y * z
            return x + cj * m[0], y + cj * m[1], z + cj * m[2]

        return jump

    def jump_prop(x, y, z, m):
        cjm = eps_sigma * x * y * z * m[0]
        return x + -cjm, y + 2.0 * cjm, z + -cjm

    return jump_prop


def _clamp(x, y, z):
    """Zero the negative components; also return how many there were."""
    n = 0
    if x < 0.0:
        x = 0.0
        n += 1
    if y < 0.0:
        y = 0.0
        n += 1
    if z < 0.0:
        z = 0.0
        n += 1
    return x, y, z, n


def _finite(x, y, z) -> bool:
    return math.isfinite(x) and math.isfinite(y) and math.isfinite(z)


def _walk(step, jump, t, x, y, z, ends, rows, marks, observe=None, observed=None):
    """One path on floats over a run of intervals: ``(x, y, z, clamps, failure)``.

    Interval i runs from ``ends[i - 1]`` (``t`` for the first) to ``ends[i]``:
    one ``step`` with the increment ``rows[i]``, then the jump ``marks[i]`` at
    ``ends[i]`` unless that mark is None.  Every result is clamped and
    checked.  The walk stops at the first non-finite state, and ``failure``
    is then ``(time, at_jump)``; otherwise it is None.  Given ``observe``,
    one flag per interval, the state at the end of each flagged interval is
    appended to the list ``observed``.
    """
    clamps = 0
    for tau, dw, mark, keep in zip(ends, rows, marks, observe or itertools.repeat(False)):
        x, y, z = step(t, x, y, z, tau - t, dw)
        if x < 0.0 or y < 0.0 or z < 0.0:
            x, y, z, n = _clamp(x, y, z)
            clamps += n
        if not _finite(x, y, z):
            return x, y, z, clamps, (tau, False)
        if mark is not None:
            x, y, z = jump(x, y, z, mark)
            if x < 0.0 or y < 0.0 or z < 0.0:
                x, y, z, n = _clamp(x, y, z)
                clamps += n
            if not _finite(x, y, z):
                return x, y, z, clamps, (tau, True)
        if keep:
            observed.append((x, y, z))
        t = tau
    return x, y, z, clamps, None


@dataclass
class PathBatch:
    """Observation states of paths integrated together, with per-path outcomes and inputs."""

    times: np.ndarray  # (n_obs + 1,)
    states: np.ndarray  # (P, n_obs + 1, 3); the rows of failed paths mean nothing
    clamp_counts: np.ndarray  # (P,) clamped components per path
    fail_times: np.ndarray  # (P,) time of the first non-finite state, nan where none
    fail_at_jump: np.ndarray  # (P,) whether that state came from a jump rather than a step
    # each path's inputs, as simulate_sde takes them
    model: str
    thetas: list  # (P,) ThetaParams
    params: list  # (P,) SirParams
    noises: list  # (P,) LevyPathNoise
    substeps: int

    @property
    def failed(self) -> np.ndarray:
        return ~np.isnan(self.fail_times)

    def trajectory(self, p: int) -> Trajectory:
        """Path p as the :class:`Trajectory` that ``simulate_sde`` returns on its
        noise, or the :class:`SimulationError` it raises, raised."""
        if self.failed[p]:
            raise _failure(float(self.fail_times[p]), bool(self.fail_at_jump[p]))
        return _path_trajectory(
            self.model,
            self.thetas[p],
            self.params[p],
            self.noises[p],
            self.substeps,
            self.times.copy(),
            self.states[p].copy(),
            int(self.clamp_counts[p]),
        )


def _per_path(value, kind, n_paths: int) -> list:
    """``value`` for each of n_paths paths: one ``kind`` for all, or a sequence of one per path."""
    if isinstance(value, kind):
        return [value] * n_paths
    values = list(value)
    if len(values) != n_paths:
        raise ValueError(f"got {len(values)} {kind.__name__} for {n_paths} noises; give one, or one per noise")
    return values


def simulate_many(
    model,
    theta: ThetaParams | Sequence[ThetaParams],
    params: SirParams | Sequence[SirParams],
    s0,
    horizon: float,
    n_obs: int,
    noises,
    substeps: int = DEFAULT_SUBSTEPS,
) -> PathBatch:
    """Integrate many noise realizations in lockstep; row p equals ``simulate_sde`` on ``noises[p]``.

    ``theta`` and ``params`` are each one value for every path, or a sequence
    of one per noise; row p is then ``simulate_sde`` with ``theta[p]`` and
    ``params[p]``; the integrator itself takes one of each per path.  Every
    path takes each base interval of the uniform grid in one in-place step over
    the paths (:func:`_lockstep`).  A path with jumps in the interval, inside it
    or on its end node, walks it on floats instead (:func:`_walk`), and the
    walk's clamped and checked state replaces its share of the vectorized step.
    The sub-steps of the walk end at the path's jump times and at the end node,
    which takes no jump unless one lies on it.  States, clamp counts and the
    non-finite checks follow ``simulate_sde`` exactly up to a path's first
    non-finite state, which is flagged in ``fail_times`` and ``fail_at_jump``
    instead of raising; :meth:`PathBatch.trajectory` raises it.

    The increments are drawn in time chunks into one (paths, chunk, dim)
    buffer.  A chunk is as long as INCREMENT_BUDGET values over max(paths,
    PATH_BLOCK) paths allow, so a small batch holds only its share of a full
    block's buffer.  Each path
    fills its row with raw normals in stream order, one fill per run of base
    intervals, and draws the normals of an interval it walks on its own, one
    per sub-step, scaled on floats by the root of each sub-interval; one
    multiply by the precomputed roots of the base intervals then scales the
    whole chunk.  Fills continue one stream, and the root and product are
    the same IEEE operations on floats and arrays, so the increments equal
    the single draw of ``simulate_sde``.  Where the paths' jumps fall on the
    grid is found once, by one ``searchsorted`` over all of them.  Beta is
    built one chunk at a time as well (:func:`_betas`).
    """
    model = get_model(model)
    if n_obs < 1 or substeps < 1:
        raise ValueError("n_obs and substeps must be >= 1")
    noises = list(noises)
    for noise in noises:
        _check_noise(noise, model, horizon)

    n_paths = len(noises)
    thetas = _per_path(theta, ThetaParams, n_paths)
    path_params = _per_path(params, SirParams, n_paths)
    dim = model.driver_dim
    n_steps = n_obs * substeps
    base = np.linspace(0.0, horizon, n_steps + 1)
    base_dts = np.diff(base)
    root_dts = np.sqrt(base_dts)[:, None]
    base_list = base.tolist()
    dts_list = base_dts.tolist()
    # a walk takes its path's own float step and jump, built once per distinct pair
    made = {key: (_euler_step(model, *key), _jump(model, key[1])) for key in set(zip(thetas, path_params))}
    walkers = [made[key] for key in zip(thetas, path_params)]
    betas = _betas(thetas)
    clamps = np.zeros(n_paths, dtype=np.int64)
    fail_times = np.full(n_paths, np.nan)
    fail_at_jump = np.zeros(n_paths, dtype=bool)
    chunk = max(1, INCREMENT_BUDGET // (max(n_paths, PATH_BLOCK) * dim))

    # every path's jumps up to the horizon go on the base grid in one
    # searchsorted: a jump at a time in (base[k], base[k + 1]] puts interval k
    # of its path on a walk (_walk).  The jumps are kept path by path in time
    # order, path p's at indices first[p]..last[p]-1 of the jump_* lists;
    # first[p] moves past them as they are drawn.
    times = np.concatenate([np.empty(0), *(noise.jump_times for noise in noises)])
    marks = np.concatenate([np.empty((0, dim)), *(noise.jump_marks for noise in noises)])
    owner = np.repeat(np.arange(n_paths), [noise.jump_count for noise in noises])
    keep = times <= horizon
    jump_ks = (np.searchsorted(base, times[keep]) - 1).tolist()
    jump_times = times[keep].tolist()
    jump_marks = marks[keep].tolist()
    last = np.cumsum(np.bincount(owner[keep], minlength=n_paths)).tolist()
    first = [0, *last[:-1]]

    buffer = np.empty((n_paths, min(chunk, n_steps), dim))

    def draw(k0: int, k1: int):
        """Increments of base intervals k0..k1-1, as ``incs[k - k0]`` of shape
        (3, paths) on the numbers model and (paths,) on the proportions
        model, and by interval the walks that paths take through it.  A
        walk's sub-steps end at the path's jump times in the interval and at
        its end node, which takes no jump unless one lies on it.  A path's
        row of the buffer is not filled at an interval it walks: the walk
        replaces its share of the lockstep step there."""
        n = k1 - k0
        walks: dict[int, list] = {}
        for p, noise in enumerate(noises):
            row = buffer[p]
            at = 0
            j, end = first[p], last[p]
            while j < end and jump_ks[j] < k1:
                k = jump_ks[j]
                i = j + 1
                while i < end and jump_ks[i] == k:
                    i += 1
                if k - k0 > at:
                    noise.fill_normals(row[at : k - k0])
                ends, ms = jump_times[j:i], jump_marks[j:i]
                if ends[-1] != base_list[k + 1]:
                    ends.append(base_list[k + 1])
                    ms.append(None)
                t = base_list[k]
                rows = []
                for z, tau in zip(noise.fill_normals(np.empty((len(ends), dim))).tolist(), ends):
                    root = math.sqrt(tau - t)
                    rows.append([v * root for v in z])
                    t = tau
                walks.setdefault(k, []).append((p, ends, rows, ms))
                at = k - k0 + 1
                j = i
            first[p] = j
            if at < n:
                noise.fill_normals(row[at:n])
        incs = buffer[:, :n]
        incs *= root_dts[k0:k1]
        incs = incs.transpose(1, 2, 0)
        return (incs if dim == 3 else incs[:, 0]), walks

    state, lockstep = _lockstep(model, path_params, n_paths)
    state[:] = np.asarray(s0, dtype=float)[:, None]
    out = np.empty((n_paths, n_obs + 1, 3))
    out[:, 0] = state.T
    # a path that goes non-finite is flagged, not warned about
    with np.errstate(all="ignore"):
        for k0 in range(0, n_steps, chunk):
            k1 = min(k0 + chunk, n_steps)
            incs, walks = draw(k0, k1)
            beta = betas(base_list[k0:k1])
            for k in range(k0, k1):
                # the step leaves the states it started from in the other buffer
                prev, state = state, lockstep(beta[k - k0], dts_list[k], incs[k - k0])
                for p, ends, rows, ms in walks.get(k, ()):
                    x, y, z, n, failure = _walk(*walkers[p], base_list[k], *prev[:, p].tolist(), ends, rows, ms)
                    state[:, p] = (x, y, z)
                    clamps[p] += n
                    if failure is not None and math.isnan(fail_times[p]):
                        fail_times[p], fail_at_jump[p] = failure
                # read as unsigned integers, every negative number (and -0.0),
                # +inf and nan lies at or above +inf's bits, so one max decides
                # whether any path needs the clamp or the non-finite check
                if np.maximum.reduce(state.view(np.uint64), axis=None, initial=0) >= _INF_BITS:
                    neg = state < 0.0
                    if np.count_nonzero(neg):
                        state[neg] = 0.0
                        clamps += neg.sum(axis=0)
                    if not np.isfinite(state).all():
                        bad = ~np.isfinite(state).all(axis=0) & np.isnan(fail_times)
                        fail_times[bad] = base_list[k + 1]
                if (k + 1) % substeps == 0:
                    out[:, (k + 1) // substeps] = state.T
    return PathBatch(
        times=base[::substeps].copy(),
        states=out,
        clamp_counts=clamps,
        fail_times=fail_times,
        fail_at_jump=fail_at_jump,
        model=model.tag,
        thetas=thetas,
        params=path_params,
        noises=noises,
        substeps=substeps,
    )


def solve_ode(
    model,
    theta: ThetaParams,
    params: SirParams,
    s0,
    horizon: float,
    n_steps: int,
) -> Trajectory:
    """Classical fixed-step RK4 on the drift-only system; returns every node.

    The loop runs on Python floats through the scalar drift of
    :func:`~sirlevy.models.make_drift_fast`.
    """
    model = get_model(model)
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    times = np.linspace(0.0, horizon, n_steps + 1)
    h = horizon / n_steps
    half = 0.5 * h
    sixth = h / 6.0
    drift = make_drift_fast(model, theta, params)
    x, y, z = (float(v) for v in np.asarray(s0, dtype=float))
    rows = [(x, y, z)]
    t_list = times.tolist()
    for i in range(n_steps):
        t = t_list[i]
        t_half = t + half
        k1x, k1y, k1z = drift(t, x, y, z)
        k2x, k2y, k2z = drift(t_half, x + half * k1x, y + half * k1y, z + half * k1z)
        k3x, k3y, k3z = drift(t_half, x + half * k2x, y + half * k2y, z + half * k2z)
        k4x, k4y, k4z = drift(t + h, x + h * k3x, y + h * k3y, z + h * k3z)
        x = x + sixth * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
        y = y + sixth * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
        z = z + sixth * (k1z + 2.0 * k2z + 2.0 * k3z + k4z)
        if not _finite(x, y, z):
            raise SimulationError(f"non-finite state at t={t_list[i + 1]}", time=t_list[i + 1])
        rows.append((x, y, z))
    return Trajectory(times=times, states=np.array(rows), model=model.tag, theta=theta, params=params)


def _ensemble_noise(seed: int, path: int, attempt: int, lam: float | None, horizon: float, dim: int):
    """Noise of one ensemble path at one attempt: spawn key (path, attempt) of ``seed``."""
    rate = lam if lam is not None else sample_lambda(stream(seed, path, attempt))
    # the noise's seed is the first child of the rate's spawn key
    return LevyPathNoise(seed_sequence(seed, path, attempt, 0), rate, horizon, dim)


def predict_ensemble(
    model,
    theta: ThetaParams,
    params: SirParams,
    s0,
    horizon: float = 3.0,
    n_obs: int | None = None,
    n_paths: int = 100,
    seed: int = 0,
    substeps: int = DEFAULT_SUBSTEPS,
    lam: float | None = None,
    max_retries: int = 10,
) -> Trajectory:
    """Pointwise mean of n_paths stochastic paths on [0, horizon].

    Each path gets its own noise seed (spawn key (path, attempt) of ``seed``)
    and, unless ``lam`` is fixed, its own jump rate drawn uniformly from
    {1, 2, 3, 4}.  The paths are simulated in lockstep by
    :func:`simulate_many`, in blocks of at most PATH_BLOCK paths.  In each
    block the paths that reach a non-finite state are rerun with the next
    attempt's noise, one call per retry round, up to ``max_retries`` rounds;
    a path that fails on every attempt raises :class:`SimulationError`.  The
    mean sums the paths in path order, as the single-path loop did, and keeps
    the memory bounded whatever ``n_paths`` is.  With eps == 0 the paths
    still differ slightly, because each path's jump times refine its own
    Euler grid; that case simulates path 0 alone, through the same block and
    retries (``meta["n_paths"]`` is then 1), and its mean, the row divided
    by 1, is path 0's ``simulate_sde`` path exactly.
    """
    model = get_model(model)
    if n_obs is None:
        n_obs = max(1, round(100 * horizon))
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    dim = model.driver_dim
    if params.eps == 0.0:
        n_paths = 1

    total = None
    clamps = 0
    for start in range(0, n_paths, PATH_BLOCK):
        paths = np.arange(start, min(start + PATH_BLOCK, n_paths))
        noises = [_ensemble_noise(seed, int(j), 0, lam, horizon, dim) for j in paths]
        batch = simulate_many(model, theta, params, s0, horizon, n_obs, noises, substeps)
        pending = np.flatnonzero(batch.failed)
        for attempt in range(1, max_retries + 1):
            if pending.size == 0:
                break
            noises = [_ensemble_noise(seed, int(j), attempt, lam, horizon, dim) for j in paths[pending]]
            rerun = simulate_many(model, theta, params, s0, horizon, n_obs, noises, substeps)
            batch.states[pending] = rerun.states
            batch.clamp_counts[pending] = rerun.clamp_counts
            batch.fail_times[pending] = rerun.fail_times
            batch.fail_at_jump[pending] = rerun.fail_at_jump
            for j, noise in zip(pending.tolist(), noises):
                batch.noises[j] = noise
            pending = pending[rerun.failed]
        if pending.size:
            j = int(pending[0])
            t = float(batch.fail_times[j])
            raise SimulationError(
                f"ensemble path {int(paths[j])} reached a non-finite state on all "
                f"{max_retries + 1} attempts (last at t={t})",
                time=t,
            )
        for row in batch.states:
            if total is None:
                total = row.copy()
            else:
                total += row
        clamps += int(batch.clamp_counts.sum())
        times = batch.times
        del batch, row  # frees this block's states (row views them) before the next block
    return Trajectory(
        times=times,
        states=total / n_paths,
        model=model.tag,
        theta=theta,
        params=params,
        seed=seed,
        lam=lam,
        clamp_count=clamps,
        meta={"n_paths": n_paths, "substeps": substeps, "ensemble_mean": True},
    )
