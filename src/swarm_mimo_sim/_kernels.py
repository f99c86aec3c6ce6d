"""Hot numeric kernels: sine/cosine integrals and the cross-dipole response.

Both have one implementation, in numpy. The response kernel evaluates, for
every (sample, element) pair, the complex cross-dipole coupling factor

    h = conj(E_tx)^T  T  E_rx

where the 2x2 matrix ``T`` projects the transmit-side field polarization
basis onto the receive dipole axes, all angles being computed in the antennas'
own (rotated) frames. It also returns the exact distance; the polarization
loss factor, a one-pair quantity, is left to ``polarization.channel_factor``.
A lane on the z or y axis of its rotated transmit frame has no polarization
basis: the call raises ``SingularDirectionError``, and no caller checks, skips
or redraws such a lane.
It works element-major on blocks of about ``_BLOCK_LANES`` (element, sample)
lanes, so a call costs a few dozen numpy operations per block whatever its
shape. The blocks of a wide call are worked by the calling thread and a pool
of ``nproc - 1`` threads (numpy releases the interpreter lock inside its
loops). Each block writes only its own output rows, and the block boundaries
do not depend on the thread count, so neither do the outputs. A forked child
builds its own pool. Each block may finish its own lanes (``finish``):
``polarization.chi_batch`` squares them into gains, and ``channel`` and
``montecarlo`` synthesize them into channel entries, so their calls build no
``(n, m)`` coupling or distance array.

``map_tasks`` is the one way onto the pool, and it has two callers: this
kernel's row blocks, and ``montecarlo.validate_expectations``' pair rows once
its draws fill a block.

Last bits depend on which numpy and OpenBLAS code paths run, so outputs are
bit-reproducible only with the same numpy build, BLAS and CPU. Examples:

- The per-element basis rotation is one dgemm per element, which OpenBLAS
  computes with fused multiply-adds; written out as separate products it
  differs in about a third of the entries. numpy hands a one-row product to
  gemv instead, whose bits differ again: 300 single-sample calls and one
  batched call of the same drones differ in 5,928 of 15,000 ``h`` lanes,
  while two-row calls match the batched call. Batching single-sample
  callers therefore moves their last bits: ``mission.run_mission`` calls the
  kernel once per group of steps, so a one-drone mission moves, while stacks
  of two-drone or wider calls keep every bit.
- numpy may compute ``a * f(x)`` in place into a temporary ``f(x)`` of 256 KiB
  or more, with the operands swapped, which changes how a complex product
  rounds. It swaps only when the left operand is not a temporary. A block's
  finishing step in ``channel.synthesize`` forms one complex product of two
  arrays, ``(sqrt(beta * gains) * h) * phase``, into its view of the output,
  and numpy keeps the order of an explicit ``out``. The real
  ``sqrt(beta * gains)`` times the complex ``h`` has no temporary of its
  result's type, as long as ``h`` is the block's named array, and every
  other operation there is real or has a scalar operand. So whether a block
  is large enough to be computed in place (16,384 complex lanes reach
  256 KiB), and whether it is finished in the block or over the whole array,
  changes no operand order and no bit.
- The per-sample ground rotation of the basis is written out as three-term
  sums in the order in which numpy's einsum ``"nij,lnj->lni"`` adds, j = 0,
  2, 1, unfused, from +0.0, so it keeps the bits of the einsum it replaced; in
  the order j = 0, 1, 2 about a quarter of the components differ. A test
  compares the sums with a live einsum, so a numpy that adds in another order
  shows there.
"""

from __future__ import annotations

import itertools
import os
import threading

import numpy as np

from .errors import SingularDirectionError

# a lane whose propagation direction lies this close to the z or y axis of its
# rotated transmit frame, relative to its distance, makes the kernel raise
_SING_EPS = 1e-14


# ---------------------------------------------------------------------------
# sine and cosine integrals
# ---------------------------------------------------------------------------
# Maclaurin series below x = 2; above, the exponential-integral continued
# fraction evaluated with the modified Lentz scheme, which stays accurate to
# ~1e-15 for all arguments that arise here.


def _cmul_unfused(p, q):
    "Complex product with every real operation rounded on its own."
    out = np.empty_like(p)
    out.real = p.real * q.real - p.imag * q.imag
    out.imag = p.real * q.imag + p.imag * q.real
    return out


def _e1_lentz(x):
    """``E1(i x)`` for x > 2 by the continued fraction, each lane stopped on its own.

    A lane leaves the working arrays at the first step at which its own
    ``|delta - 1| < 1e-16``, and every complex product is formed unfused, so
    a lane's value depends only on its own argument. (numpy's vector complex
    multiply fuses and its in-place one-element multiply does not, so the
    products numpy forms would depend on the other lanes of the call.)
    """
    lane = np.arange(x.size)
    b = 1.0 + 1j * x
    c = np.full_like(b, 1e308)
    d = 1.0 / b
    h = d.copy()
    out = np.empty_like(b)
    for i in range(1, 400):
        a = -float(i * i)
        b = b + 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        delta = _cmul_unfused(c, d)
        h = _cmul_unfused(h, delta)
        done = np.abs(delta - 1.0) < 1e-16
        if done.any():
            out[lane[done]] = h[done]
            keep = ~done
            lane, b, c, d, h = lane[keep], b[keep], c[keep], d[keep], h[keep]
            if lane.size == 0:
                break
    out[lane] = h
    return _cmul_unfused(out, np.exp(-1j * x))


def si_ci_arrays(x: np.ndarray):
    """Vectorized (Si(x), Ci(x)) for strictly positive ``x``.

    Each lane's value depends only on its own argument: a call on any subset
    or permutation of the lanes gives the same bits for them.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    if np.any(x <= 0.0) or not np.all(np.isfinite(x)):
        raise ValueError("si_ci_arrays requires finite x > 0")
    si = np.empty_like(x)
    ci = np.empty_like(x)
    small = x <= 2.0
    if np.any(small):
        xs = x[small]
        x2 = xs * xs
        term = xs.copy()
        acc = xs.copy()
        for k in range(1, 40):
            term *= -x2 * (2 * k - 1) / ((2 * k) * (2 * k + 1) * (2 * k + 1))
            acc += term
        si[small] = acc
        acc = np.euler_gamma + np.log(xs)
        t = np.ones_like(xs)
        for k in range(1, 40):
            t *= -x2 / ((2 * k - 1) * (2 * k))
            acc += t / (2 * k)
        ci[small] = acc
    big = ~small
    if np.any(big):
        e1 = _e1_lentz(x[big])
        si[big] = np.pi / 2 + e1.imag
        ci[big] = -e1.real
    return si, ci


# ---------------------------------------------------------------------------
# cross-dipole response
# ---------------------------------------------------------------------------


# (element, sample) lanes per block of the response kernel
_BLOCK_LANES = 1 << 14


def _fpat(cosang, ratio):
    """Normalized dipole field pattern at the cosine of the angle from the axis.

    Ratio 0 is the flat unit pattern of an isotropic element; the dipole
    formula would give 0 there on every lane.
    """
    if ratio == 0.0:
        return np.ones_like(cosang)
    s2 = 1.0 - cosang * cosang
    s = np.sqrt(np.maximum(s2, 0.0))
    safe = s > 1e-12
    num = np.cos(np.pi * ratio * cosang) - np.cos(np.pi * ratio)
    return np.where(safe, num / np.where(safe, s, 1.0), 0.0)


# The three-term sums below start from +0.0, as einsum and np.sum do, so a sum
# of negative zeros comes out +0.0 there too. ``_rt`` and ``_dot3`` add in the
# order j = 0, 1, 2; ``_rot`` adds in the order j = 0, 2, 1, which is the order
# of numpy's einsum ``"nij,lnj->lni"`` over ``r`` and ``v``.


def _rt(r, rx, ry, rz, i):
    "Component ``i`` of ``R^T rel``."
    return 0.0 + r[..., 0, i] * rx + r[..., 1, i] * ry + r[..., 2, i] * rz


def _rot(r, v):
    "Components of ``R v`` for per-sample rotations ``r`` (rows, 3, 3)."
    return [0.0 + r[:, i, 0] * v[0] + r[:, i, 2] * v[2] + r[:, i, 1] * v[1] for i in range(3)]


def _dot3(v, u):
    "``v . u`` over the components of ``v`` and ``u``."
    return 0.0 + v[0] * u[0] + v[1] * u[1] + v[2] * u[2]


def _row_blocks(n, m):
    """Row slices of about ``_BLOCK_LANES`` lanes, none of one row unless n == 1.

    numpy sends a one-row matrix product to gemv, whose last bits differ from
    gemm's, so a block holds two rows or more and a one-row remainder joins
    the block before it.
    """
    step = max(2, _BLOCK_LANES // max(m, 1))
    starts = list(range(0, n, step))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [n])]


def _block_pool():
    """The executor that helps the calling thread with its tasks, or None on one usable core.

    Built on first use with one worker fewer than the cores this process may
    run on: the calling thread works too. A forked child drops its parent's
    pool (see ``_drop_pool``), whose threads did not survive the fork, and
    builds its own.
    """
    global _pool
    with _pool_lock:
        if _pool is None:
            # imported here: it costs about 9 ms of import (logging), which
            # processes making only one-block calls need not pay
            from concurrent.futures import ThreadPoolExecutor

            affinity = getattr(os, "sched_getaffinity", None)  # not on macOS or Windows
            workers = len(affinity(0)) if affinity else os.cpu_count() or 1
            if workers > 1:
                _pool = ThreadPoolExecutor(workers - 1, thread_name_prefix="response-block")
        return _pool


def _drop_pool():
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


_pool = None
_pool_lock = threading.Lock()
if hasattr(os, "register_at_fork"):  # no fork, and no hook, on Windows
    os.register_at_fork(after_in_child=_drop_pool)


def map_tasks(task, items, pooled=True):
    """``[task(item) for item in items]``, with the block pool's help if there is one.

    The pool helps only if ``pooled`` is true, there are two or more tasks,
    and ``_block_pool`` gives a pool; it is looked up at each call, so
    replacing it keeps every caller inline. Otherwise the tasks run inline,
    in order. With help, the calling thread and up to min(workers, tasks - 1)
    loops handed to the pool each claim the next unclaimed task until none is
    left; the caller then cancels the loops that have not started, so it
    never waits behind another caller's work. Results come back in item
    order, and the first exception in item order reaches the caller. A task
    must not wait on the pool, nor call a package function that perfbench
    traces (``chi_batch``, ``response_batch``, ...): the tracer keeps one span
    stack for all threads, so tasks are numpy closures and every traced call
    stays on the calling thread.
    """
    items = list(items)
    pool = _block_pool() if pooled and len(items) > 1 else None
    if pool is None:
        return [task(item) for item in items]
    results, errors = [None] * len(items), {}
    claims = itertools.count()  # next() on it is atomic under the interpreter lock

    def claim_loop():
        while (i := next(claims)) < len(items):
            try:
                results[i] = task(items[i])
            except Exception as exc:  # raised below, in item order
                errors[i] = exc

    loops = [pool.submit(claim_loop) for _ in range(min(pool._max_workers, len(items) - 1))]
    claim_loop()
    for loop in loops:
        if not loop.cancel():
            loop.result()  # a started loop ends with the task it claimed last
    if errors:
        raise errors[min(errors)]
    return results


def response_batch(pos, elem, gs_r, uav_r, w_tx, w_rx, ratio_tx=0.5, ratio_rx=0.5, finish=None):
    """Cross-dipole coupling for every (sample, element) pair.

    Parameters
    ----------
    pos : (n, 3) drone positions in the reference frame.
    elem : (m, 3) element positions.
    gs_r : ground-side rotations, ``(m, 3, 3)`` for one orientation per
        element, or ``(n, 1, 3, 3)`` for one common orientation of the whole
        array per sample (the broadcast shape against ``(n, m)``). The two
        differ in rank, so the layout never depends on whether n == m.
    uav_r : drone rotations, ``(n, 3, 3)``, one per sample.
    w_tx, w_rx : complex feed coefficients of the (theta, psi) dipoles.
    ratio_tx, ratio_rx : dipole length over wavelength for each side.
    finish : ``(dtype, fn)`` to have each block finish its lanes: ``fn(h, dist,
        out)`` with the block's element-major ``(m, rows)`` coupling and
        distances and its view ``out`` of one ``(n, m)`` output of ``dtype``;
        ``fn`` is one of ``map_tasks``' tasks.

    Returns
    -------
    h, dist : arrays of shape ``(n, m)``; ``h`` is the complex coupling
    (antenna gains not applied) and ``dist`` the exact distance. With
    ``finish``, the finished ``(n, m)`` output instead. Raises
    ``SingularDirectionError`` if any lane's direction is singular in the
    rotated transmit frame.
    """
    pos = np.ascontiguousarray(pos, dtype=np.float64)
    elem = np.ascontiguousarray(elem, dtype=np.float64)
    n, m = pos.shape[0], elem.shape[0]
    gs_r = np.ascontiguousarray(gs_r, dtype=np.float64)
    uav_r = np.ascontiguousarray(uav_r, dtype=np.float64)
    if gs_r.shape == (m, 3, 3):
        gs_by_sample = False
    elif gs_r.shape == (n, 1, 3, 3):
        gs_r, gs_by_sample = gs_r[:, 0], True
    else:
        raise ValueError("gs_r must be (m, 3, 3) per element or (n, 1, 3, 3) per sample")
    if uav_r.shape != (n, 3, 3):
        raise ValueError("uav_r must be (n, 3, 3), one rotation per sample")
    w_tx = np.asarray(w_tx, dtype=np.complex128)
    w_rx = np.asarray(w_rx, dtype=np.complex128)
    wt0, wt1, wr0, wr1 = complex(w_tx[0]), complex(w_tx[1]), complex(w_rx[0]), complex(w_rx[1])
    ratio_tx, ratio_rx = float(ratio_tx), float(ratio_rx)
    if finish is None:
        h, dist = np.empty((n, m), dtype=np.complex128), np.empty((n, m))
    else:
        out = np.empty((n, m), dtype=finish[0])

    # element-major blocks: every array below is (m, rows); a block writes only
    # its own rows of the outputs, so blocks may run in any order or at once
    def block(rows):
        gs = gs_r[rows] if gs_by_sample else gs_r[:, None]
        uav = uav_r[rows]
        rx = pos[rows, 0] - elem[:, 0, None]
        ry = pos[rows, 1] - elem[:, 1, None]
        rz = pos[rows, 2] - elem[:, 2, None]
        d = np.sqrt(rx * rx + ry * ry + rz * rz)
        # each temporary is freed after its last read, which lowers the peak
        # memory of a block and leaves every operation's inputs as they were
        x, y, z = (_rt(gs, rx, ry, rz, i) for i in range(3))
        ct_t = z / d
        cp_t = y / d
        ct_r = -_rt(uav, rx, ry, rz, 2) / d
        cp_r = -_rt(uav, rx, ry, rz, 1) / d
        del rx, ry, rz
        rho_t = np.hypot(x, y)
        rho_p = np.hypot(x, z)
        if np.any((rho_t <= _SING_EPS * d) | (rho_p <= _SING_EPS * d)):
            raise SingularDirectionError("direction singular in the rotated transmit frame")
        # the basis vectors in the reference frame, by component
        dt = d * rho_t
        dp = d * rho_p
        del rho_t, rho_p
        if gs_by_sample:
            th_ref = _rot(gs, (-x * z / dt, -y * z / dt, (x * x + y * y) / dt))
            ps_ref = _rot(gs, (-x * y / dp, (x * x + z * z) / dp, -y * z / dp))
        else:
            rt = np.swapaxes(gs_r, 1, 2)
            th_ref = np.stack([-x * z, -y * z, x * x + y * y], axis=-1) / dt[..., None] @ rt
            ps_ref = np.stack([-x * y, x * x + z * z, -y * z], axis=-1) / dp[..., None] @ rt
            th_ref, ps_ref = th_ref.transpose(2, 0, 1), ps_ref.transpose(2, 0, 1)
        del x, y, z, dt, dp
        # receive dipole axes in the reference frame
        ez = uav[..., :, 2].T
        ey = uav[..., :, 1].T
        t11 = _dot3(th_ref, ez)
        t12 = _dot3(th_ref, ey)
        t21 = _dot3(ps_ref, ez)
        t22 = _dot3(ps_ref, ey)
        del th_ref, ps_ref
        a = np.conj(wt0) * _fpat(ct_t, ratio_tx)
        b = np.conj(wt1) * _fpat(cp_t, ratio_tx)
        c = wr0 * _fpat(ct_r, ratio_rx)
        e = wr1 * _fpat(cp_r, ratio_rx)
        del ct_t, cp_t, ct_r, cp_r
        hv = a * (t11 * c + t12 * e)
        hv += b * (t21 * c + t22 * e)
        if finish is None:
            h[rows].T[...] = hv
            dist[rows].T[...] = d
        else:
            finish[1](hv, d, out[rows].T)

    map_tasks(block, _row_blocks(n, m))
    return (h, dist) if finish is None else out
