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
lanes. Each step of the formula is one numpy call over all its components,
about 70 a block, into three stacks of ``_PLANES`` float64 ``(m, rows)``
planes that each thread takes once per call. The blocks of a wide call are
worked by the calling thread and a pool of ``nproc - 1`` threads (numpy
releases the interpreter lock inside its loops). Each block writes only its
own output rows, and the block boundaries do not depend on the thread count,
so neither do the outputs. A forked child builds its own pool. Each block may
finish its own lanes (``finish``) into its caller's arrays:
``polarization.chi_batch`` sums each sample's gains, and ``channel`` and
``montecarlo`` synthesize channel entries, so no such call builds an
``(n, m)`` coupling or distance array.

``map_tasks`` is the one way onto the pool, and it has two callers: this
kernel's row blocks, and ``montecarlo.validate_expectations``' pair rows once
its draws fill a block.

Si and Ci are a Maclaurin series up to x = 2 and, above it, the continued
fraction of ``E1(i x)`` by the modified Lentz scheme, accurate to ~1e-15 for
all arguments that arise here. Each series stops at the first k, tested every
4th, at which every lane's last step is below a quarter of the spacing of its
sum, so below half the gap to either neighbour. For x <= 2 each step is at
most 0.22 (Si) or 1/6 (Ci) times the one before, so no later add could move a
sum: every lane keeps the bits of all 39 terms. The fraction stops a lane at
``delta.real == 1`` and ``|delta.imag| < 1e-16``, the decision of
``|delta - 1| < 1e-16`` without its ``hypot``: near 1, ``delta.real - 1`` is
exact, so 0 or at least 2**-53, and ``|u + iv|`` is at least ``|u|``, and
``|v|`` when u = 0.

Last bits depend on which numpy and OpenBLAS code paths run, so outputs are
bit-reproducible only with the same numpy build, BLAS and CPU. Examples:

- The per-element basis rotation is ``R @ basis``, one dgemm per element,
  which OpenBLAS computes with fused multiply-adds; written out as separate
  products it differs in about a third of the entries. numpy hands a one-row
  product to gemv instead, whose bits differ again: 300 single-sample calls
  and one batched call of the same drones differ in 5,928 of 15,000 ``h``
  lanes, while two-row calls match the batched call. Batching single-sample
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
  changes no operand order and no bit. The block writes its own products
  ``a * (t11 c + t12 e)`` and ``b * (...)`` with ``out=``, swapped from
  ``_ELIDE_BYTES`` up as numpy swaps that expression, so they keep its bits.
- The per-sample ground rotation of the basis is three-term sums (``_sum3``)
  in the order in which numpy's einsum ``"nij,lnj->lni"`` adds, j = 0, 2, 1,
  unfused, from +0.0, so it keeps the bits of the einsum it replaced; in the
  order j = 0, 1, 2 about a quarter of the components differ. A test compares
  the sums with a live einsum, so a numpy that adds in another order shows
  there.
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


def _cmul_unfused(pr, pi, qr, qi):
    "Complex product, as real and imaginary parts, with every real operation rounded on its own."
    re, im = pr * qr, pr * qi
    re -= pi * qi
    im += pi * qr
    return re, im


def _e1_lentz(x):
    """``E1(i x)`` for x > 2 by the continued fraction, each lane stopped on its own.

    A lane leaves the working arrays at the first step at which its own
    ``|delta - 1| < 1e-16``, and every complex product is formed unfused, so
    a lane's value depends only on its own argument. (numpy's vector complex
    multiply fuses and its in-place one-element multiply does not, so the
    products numpy forms would depend on the other lanes of the call.) ``h``,
    ``delta`` and the result are held as real and imaginary parts.
    """
    lane = np.arange(x.size)
    b = 1.0 + 1j * x
    c = np.full_like(b, 1e308)
    d = 1.0 / b
    hr, hi = d.real.copy(), d.imag.copy()
    out_r, out_i = np.empty(x.size), np.empty(x.size)
    for i in range(1, 400):
        a = -float(i * i)
        b = b + 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        dr, di = _cmul_unfused(c.real, c.imag, d.real, d.imag)
        hr, hi = _cmul_unfused(hr, hi, dr, di)
        done = (dr == 1.0) & (np.abs(di) < 1e-16)
        if done.any():
            out_r[lane[done]], out_i[lane[done]] = hr[done], hi[done]
            keep = ~done
            lane, b, c, d, hr, hi = lane[keep], b[keep], c[keep], d[keep], hr[keep], hi[keep]
            if lane.size == 0:
                break
    out_r[lane], out_i[lane] = hr, hi
    e = np.exp(-1j * x)
    return _cmul_unfused(out_r, out_i, e.real, e.imag)


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
            if k % 4 == 0 and np.all(np.abs(term) < 0.25 * np.spacing(np.abs(acc))):
                break  # no later term can move a lane (see the module docstring)
        si[small] = acc
        acc = np.euler_gamma + np.log(xs)
        t = np.ones_like(xs)
        for k in range(1, 40):
            t *= -x2 / ((2 * k - 1) * (2 * k))
            step = t / (2 * k)
            acc += step
            if k % 4 == 0 and np.all(np.abs(step) < 0.25 * np.spacing(np.abs(acc))):
                break
        ci[small] = acc
    big = ~small
    if np.any(big):
        e1r, e1i = _e1_lentz(x[big])
        si[big] = np.pi / 2 + e1i
        ci[big] = -e1r
    return si, ci


# ---------------------------------------------------------------------------
# cross-dipole response
# ---------------------------------------------------------------------------


# (element, sample) lanes per block of the response kernel
_BLOCK_LANES = 1 << 14

# float64 (m, rows) planes in each of the three stacks a response-kernel block
# works in; three allocations, not one of 18 planes: glibc keeps more freed heap
# after larger ones (montecarlo peak RSS +1.5 MB with one, +0.3-0.7 MB with three)
_PLANES = 6

# numpy computes ``a * tmp`` as ``tmp *= a`` from this size of ``tmp`` (NPY_MIN_ELIDE_BYTES)
_ELIDE_BYTES = 1 << 18


def _fpat(c, ratio, s):
    """Normalized dipole field pattern, in place, at the cosines ``c`` of the angles from the axis.

    ``s`` is scratch. Ratio 0 is the flat unit pattern of an isotropic element;
    the dipole formula would give 0 there on every lane.
    """
    if ratio == 0.0:
        c[...] = 1.0
        return
    np.multiply(c, c, out=s)
    np.subtract(1.0, s, out=s)
    np.maximum(s, 0.0, out=s)
    np.sqrt(s, out=s)
    safe = s > 1e-12
    np.multiply(c, np.pi * ratio, out=c)
    np.cos(c, out=c)
    c -= np.cos(np.pi * ratio)
    np.divide(c, s, out=c, where=safe)
    c[~safe] = 0.0


def _sum3(out, tmp, terms):
    """``0.0 + c0 * v0 + c1 * v1 + c2 * v2`` into ``out``, added in the order of ``terms``.

    From +0.0, as einsum and np.sum add, so negative zeros sum to +0.0 too.
    """
    (c, v), *rest = terms
    np.multiply(c, v, out=out)
    out += 0.0
    for c, v in rest:
        np.multiply(c, v, out=tmp)
        out += tmp


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


def _cores():
    "The cores this process may run on: the calling thread and the block pool's workers."
    affinity = getattr(os, "sched_getaffinity", None)  # not on macOS or Windows
    return len(affinity(0)) if affinity else os.cpu_count() or 1


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

            if (workers := _cores()) > 1:
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
    finish : ``fn(h, dist, rows)`` to have each block finish its lanes: it gets
        the block's element-major ``(m, rows)`` coupling and distances and the
        slice of samples they belong to, and writes them into arrays that its
        caller allocated; ``fn`` is one of ``map_tasks``' tasks. ``h`` and
        ``dist`` are the block's planes, valid only during the call to ``fn``:
        the thread's next block overwrites them.

    Returns
    -------
    h, dist : arrays of shape ``(n, m)``; ``h`` is the complex coupling
    (antenna gains not applied) and ``dist`` the exact distance. With
    ``finish``, nothing. Raises ``SingularDirectionError`` if any lane's
    direction is singular in the rotated transmit frame.
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
    w_t = np.conj(np.asarray(w_tx, dtype=np.complex128)[:2]).reshape(2, 1, 1)
    w_r = np.asarray(w_rx, dtype=np.complex128)[:2].reshape(2, 1, 1)
    ratio_tx, ratio_rx = float(ratio_tx), float(ratio_rx)
    if finish is None:
        h, dist = np.empty((n, m), dtype=np.complex128), np.empty((n, m))
    blocks = _row_blocks(n, m)
    widest = max((b.stop - b.start for b in blocks), default=0)
    size, stacks = _PLANES * m * widest, {}  # each thread's stacks, for this call only

    # element-major blocks of (m, rows) planes named by index (lo_c[j]: lo's planes 2j
    # and 2j + 1); a block writes only its own output rows, so blocks may run at once
    def block(rows):
        k = rows.stop - rows.start
        if (mine := stacks.get(threading.get_ident())) is None:
            mine = stacks[threading.get_ident()] = [np.empty(size) for _ in range(3)]
        dw, lo, hi = (a[:_PLANES * m * k].reshape(_PLANES, m, k) for a in mine)
        lo_c, hi_c = (a[:_PLANES * m * k].view(np.complex128).reshape(3, m, k) for a in mine[1:])
        # rotation entries against (m, rows) planes, contiguous along the samples: the ground's
        # R[a, i] as (a, i, 1, rows) or (a, i, m, 1), the drone's z and y axes as (axis, i, rows)
        g = np.ascontiguousarray((gs_r[rows] if gs_by_sample else gs_r).transpose(1, 2, 0))
        g = g[:, :, None] if gs_by_sample else g[..., None]
        ax = np.ascontiguousarray(uav_r[rows, :, 2:0:-1].transpose(2, 1, 0))
        d, w, rel, sq = dw[0], dw[1:], lo[:3], lo[3:]
        np.subtract(pos[rows].T[:, None], elem.T[..., None], out=rel)
        np.multiply(rel, rel, out=sq)
        np.add(sq[0], sq[1], out=d)
        d += sq[2]
        np.sqrt(d, out=d)
        # w: x, z and y of R^T rel in the ground frame, then u2 and u1 in the drone's
        _sum3(w[:3], sq, [(g[a, [0, 2, 1]], rel[a]) for a in range(3)])
        _sum3(w[3:], sq[:2], [(ax[:, a, None], rel[a]) for a in range(3)])
        # the basis, built in lo for both layouts; scratch in hi
        rho = hi[:2]  # rho_p, rho_t
        np.hypot(w[0], w[1:3], out=rho)
        if np.any(rho <= _SING_EPS * d):
            raise SingularDirectionError("direction singular in the rotated transmit frame")
        rho *= d
        # the theta and psi basis vectors by component, (-x z, -y z, x x + y y) / (d rho_t)
        # and (-x y, x x + z z, -y z) / (d rho_p); (-a) * b is -(a * b) bit for bit
        np.multiply(w[0:3:2], w[1], out=lo[0:2])
        np.multiply(w[0:2], w[2], out=lo[3:6:2])
        np.negative(lo[0:2], out=lo[0:2])
        np.negative(lo[3:6:2], out=lo[3:6:2])
        np.multiply(w[:3], w[:3], out=hi[2:5])
        np.add(hi[2], hi[4:2:-1], out=lo[2:5:2])
        basis = lo.reshape(2, 3, m, k)
        np.divide(basis, rho[::-1, None], out=basis)
        # pattern cosines z / d, y / d, -u2 / d and -u1 / d, then their patterns, in w[1:]
        np.negative(w[3:], out=w[3:])
        np.divide(w[1:], d, out=w[1:])
        same = ratio_tx == ratio_rx  # one pass over all four
        for c, ratio in [(w[1:], ratio_tx)] if same else [(w[1:3], ratio_tx), (w[3:], ratio_rx)]:
            _fpat(c, ratio, hi[:len(c)])
        # the basis in the reference frame, (2, 3, m, rows) in hi
        if gs_by_sample:
            # by three-term sums in the order j = 0, 2, 1 of numpy's einsum
            # "nij,lnj->lni", one basis vector at a time
            ref = hi.reshape(2, 3, m, k)
            for s, tmp in ((0, ref[1]), (1, basis[0])):
                _sum3(ref[s], tmp, [(g[:, j], basis[s, j]) for j in (0, 2, 1)])
        else:
            # R @ basis: one dgemm per element and basis vector, on (3, rows) matrices
            ref = np.matmul(gs_r, basis.transpose(0, 2, 1, 3), out=hi.reshape(2, m, 3, k))
            ref = ref.transpose(0, 2, 1, 3)
        # t[a, b]: basis vector b on receive axis a (t11 t21; t12 t22)
        t = lo[:4].reshape(2, 2, m, k)
        for a in range(2):
            _sum3(t[a], lo[4:], [(ax[a, i], ref[:, i]) for i in range(3)])
        # h = a (t11 c + t12 e) + b (t21 c + t22 e), with a, b, c and e the feeds
        # times their patterns; numpy swaps a * (...) to (...) * a from _ELIDE_BYTES
        c, e, x, tmp = lo_c[2], hi_c[0], hi_c[1:], lo_c[0::2]
        np.multiply(w_r[0], w[3], out=c)
        np.multiply(w_r[1], w[4], out=e)
        np.multiply(t[0], c, out=x)
        np.multiply(t[1], e, out=tmp)
        x += tmp
        np.multiply(w_t, w[1:3], out=tmp)
        np.multiply(*((x, tmp) if x[0].nbytes >= _ELIDE_BYTES else (tmp, x)), out=x)
        hv = np.add(x[0], x[1], out=x[0])
        if finish is None:
            h[rows].T[...] = hv
            dist[rows].T[...] = d
        else:
            finish(hv, d, rows)

    map_tasks(block, blocks)
    if finish is None:
        return h, dist
