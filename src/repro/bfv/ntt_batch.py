"""Batched RNS-NTT engine with Shoup lazy reduction.

The NTT dominates HE inference (55.2% of ResNet50 run time, Figure 7 of
the paper), and the reference :class:`~repro.bfv.ntt.NttContext` pays for
that dominance twice over: every RNS limb is transformed through its own
Python-level call, and every butterfly stage reduces mod p with three
integer divisions.  :class:`RnsNttEngine` removes both costs by
transforming an entire ``(k, batch, n)`` residue stack in one pass:

* **Limb batching** — per-stage twiddle tables are stacked across all k
  limbs as ``(k, half)`` arrays and butterflies broadcast over the whole
  ``(k, batch, n)`` work buffer, so one numpy call (or one C call) covers
  every limb of every polynomial in flight.
* **Shoup lazy reduction** — each twiddle ``w`` carries a precomputed
  high-word quotient (the ``floor(w * 2^64 / p)`` trick; the numpy path
  uses the ``floor(w << 32) // p`` analogue so 64-bit products never
  overflow).  A modular product then costs three multiplies and no
  division, and butterfly outputs stay lazily in ``[0, 2p)`` (numpy path)
  or ``[0, 4p)`` (C path) between stages; only one final reduction into
  ``[0, p)`` is paid per transform.
* **In-place schedules** — the bit-reverse permutation is fused into the
  initial gather (no separate reorder copy), the early small-stride
  stages run on a transposed tile layout so every numpy op sees long
  contiguous runs, and per-stage scratch is preallocated, eliminating the
  per-stage ``even.copy()`` of the reference transform.

Both compute paths produce residues bit-identical to ``NttContext``:
laziness only changes intermediate representatives, never the final
fully-reduced value.  When a C compiler is available the engine
additionally routes through the compiled kernel in ``_ntt_kernel.c``
(see :mod:`repro.bfv.native`), which is another ~5x on top of the numpy
path; tests cross-check all three implementations.

The engine is also the home of the rest of the native key-switch
datapath, each kernel bit-identical to the code it replaces:

* :meth:`RnsNttEngine.pointwise_accumulate` -- the key-switch and
  plaintext multiply-accumulate, with one reduction per output (plus one
  per ~16 terms at 30-bit primes) and an optional gather index that
  applies a hoisted rotation's slot permutation on the fly;
* :meth:`RnsNttEngine.crt_digits` -- CRT compose, base-2^``a_dcmp_bits``
  digit split and per-limb reduction in one two-word pass;
* :meth:`RnsNttEngine.crt_scale_round` -- the decrypt ``round(t x / q)
  mod t``.

``REPRO_NTT_NATIVE=0`` (or no compiler) disables all of them: transforms
and MACs run on numpy, and the two CRT methods return None so
:class:`~repro.bfv.scheme.BfvScheme` takes its object-integer path, as it
also does for coefficient moduli beyond two words (``k*q >= 2^128``).

Engines are memoized by ``(n, moduli)`` via :func:`get_engine`, so the
scheme, encoder, and profiler share one set of twiddle tables.
"""

from __future__ import annotations

import math
import os
import threading
import weakref
from functools import lru_cache

import numpy as np

from . import native
from .counters import GLOBAL_COUNTERS
from .ntt import NttContext, bit_reverse_indices

#: Shift of the numpy-path Shoup quotient tables (beta = 2^32 in uint64).
SHOUP_SHIFT = np.uint64(32)

_U2 = np.uint64(2)


def _ptr(array: np.ndarray) -> int:
    """Address of an array's first element, for a ctypes ``c_void_p``."""
    return array.ctypes.data


def _shoup(table: np.ndarray, modulus: int, shift: int) -> np.ndarray:
    """Precomputed high-word quotients floor(w << shift / p) as uint64."""
    widened = table.astype(object) << shift
    return np.array([q // modulus for q in widened], dtype=np.uint64)


#: Every live engine, so a forked child can replace their locks.
_ENGINES: "weakref.WeakSet[RnsNttEngine]" = weakref.WeakSet()


def _reset_locks_in_child() -> None:
    # A parent thread may have held an engine lock at the fork; that
    # thread does not exist in the child, so the inherited lock would
    # never be released.  The scratch buffers it guards are rewritten on
    # every use, so a fresh lock is all the child needs.
    for engine in list(_ENGINES):
        engine._lock = threading.Lock()


os.register_at_fork(after_in_child=_reset_locks_in_child)


@lru_cache(maxsize=None)
def get_context(n: int, modulus: int) -> NttContext:
    """Memoized single-limb reference context (shared twiddle tables)."""
    return NttContext(n, modulus)


@lru_cache(maxsize=None)
def _get_engine_cached(n: int, moduli: tuple[int, ...]) -> "RnsNttEngine":
    return RnsNttEngine(n, moduli)


def get_engine(n: int, moduli) -> "RnsNttEngine":
    """Memoized engine keyed by ``(n, tuple(moduli))``.

    ``BfvScheme``, ``BatchEncoder``, and the profiler all resolve their
    engines through this function so identical parameter sets never
    rebuild twiddle tables.
    """
    return _get_engine_cached(int(n), tuple(int(m) for m in moduli))


class RnsNttEngine:
    """Negacyclic NTTs over a whole RNS basis in one batched pass.

    Transforms accept residue stacks of shape ``(k, n)`` (one polynomial)
    or ``(k, batch, n)`` (a batch, e.g. every key-switching digit at
    once), limb-major, and return the same shape.  Outputs are always
    fully reduced into ``[0, p_i)`` per limb and bit-identical to running
    the reference :class:`NttContext` limb by limb.
    """

    def __init__(self, n: int, moduli, use_native: bool | None = None):
        moduli = tuple(int(m) for m in moduli)
        if not moduli:
            raise ValueError("engine needs at least one modulus")
        self.n = n
        self.moduli = moduli
        self.count = len(moduli)
        #: Per-limb reference contexts; also the source of all twiddles.
        self.contexts = [get_context(n, m) for m in moduli]
        k = self.count
        p = np.array(moduli, dtype=np.uint64)
        self._p_col = p[:, None]
        self._min_modulus = int(p.min())
        self._primes_i64 = np.array(moduli, dtype=np.int64)

        stages = n.bit_length() - 1
        # Early stages (length <= 2^s_lo) run on a transposed tile layout so
        # numpy ops see contiguous runs of n/m instead of runs of `half`.
        self._s_lo = (stages + 1) // 2
        self._m = 1 << self._s_lo
        self._nm = n // self._m
        bitrev = bit_reverse_indices(n)
        perm = bitrev.reshape(self._nm, self._m).T.copy().reshape(-1)
        self._perm = perm
        # n^-1 * psi^-j fused inverse scale (products < 2^60, int64-safe).
        self._iscale_raw = np.stack(
            [c._ipsi_powers * c._n_inv % m for c, m in zip(self.contexts, moduli)]
        )

        # Numpy-path transforms run on shared per-engine work buffers
        # (engines are globally memoized), so that path is serialised by
        # this lock; the native path uses per-call buffers and runs
        # lock-free (concurrent serving threads transform in parallel).
        self._lock = threading.Lock()
        _ENGINES.add(self)
        # Numpy-path Shoup tables are built lazily: when the native kernel
        # is live they would be dead weight (the quotient precomputation
        # is the expensive part of engine construction).
        self._numpy_tables: dict | None = None
        self._plans: dict[int, dict] = {}

        self._kernel = None
        #: Two-word CRT constants; None without the kernel or when q needs
        #: more than two words.
        self._crt: dict | None = None
        if use_native is None or use_native:
            self._kernel = native.load_kernel()
        if self._kernel is not None:
            self._init_native(bitrev)

    # -- table construction -------------------------------------------------

    def _stack_stage_tables(self, per_limb: list[list[np.ndarray]]):
        tables = []
        for s in range(self.n.bit_length() - 1):
            w = np.stack([tw[s] for tw in per_limb])
            wsh = np.stack(
                [_shoup(tw[s], m, 32) for tw, m in zip(per_limb, self.moduli)]
            )
            tables.append((w.astype(np.uint64), wsh))
        return tables

    def _init_native(self, bitrev: np.ndarray) -> None:
        moduli = self.moduli
        ctxs = self.contexts
        psi_br = np.stack([c._psi_powers[bitrev] for c in ctxs])
        self._nat = {
            "perm": np.ascontiguousarray(bitrev),
            "psi": psi_br.astype(np.uint64),
            "psi_sh": np.stack(
                [_shoup(psi_br[i], m, 64) for i, m in enumerate(moduli)]
            ),
            "tw": np.stack(
                [np.concatenate(c._stage_twiddles) for c in ctxs]
            ).astype(np.uint64),
            "tw_sh": np.stack(
                [
                    np.concatenate(
                        [_shoup(t, m, 64) for t in c._stage_twiddles]
                    )
                    for c, m in zip(ctxs, moduli)
                ]
            ),
            "itw": np.stack(
                [np.concatenate(c._stage_itwiddles) for c in ctxs]
            ).astype(np.uint64),
            "itw_sh": np.stack(
                [
                    np.concatenate(
                        [_shoup(t, m, 64) for t in c._stage_itwiddles]
                    )
                    for c, m in zip(ctxs, moduli)
                ]
            ),
            "iscale": self._iscale_raw.astype(np.uint64),
            "iscale_sh": np.stack(
                [_shoup(self._iscale_raw[i], m, 64) for i, m in enumerate(moduli)]
            ),
            "p": np.array(moduli, dtype=np.uint64),
            "mu": np.array([(1 << 64) // m for m in moduli], dtype=np.uint64),
        }
        q = math.prod(moduli)
        if self.count * q < 1 << 128:
            punctured = [q // m for m in moduli]
            qinv = [pow(qi % m, -1, m) for qi, m in zip(punctured, moduli)]
            mask = (1 << 64) - 1
            self._crt = {
                "q": q,
                "qinv": np.array(qinv, dtype=np.uint64),
                "qinv_sh": np.array(
                    [(v << 64) // m for v, m in zip(qinv, moduli)], dtype=np.uint64
                ),
                "punct": np.array(
                    [(qi & mask, qi >> 64) for qi in punctured], dtype=np.uint64
                ),
                "q_words": np.array([q & mask, q >> 64], dtype=np.uint64),
            }

    @property
    def uses_native_kernel(self) -> bool:
        return self._kernel is not None

    # -- numpy execution plan -----------------------------------------------

    def _ensure_numpy_tables(self) -> dict:
        """Build the numpy-path Shoup tables on first fallback use."""
        tables = self._numpy_tables
        if tables is None:
            k, moduli = self.count, self.moduli
            psi = np.stack([c._psi_powers[self._perm] for c in self.contexts])
            tables = {
                "psi_t": psi.astype(np.uint64),
                "psi_t_sh": np.stack(
                    [_shoup(psi[i], moduli[i], 32) for i in range(k)]
                ),
                "fwd": self._stack_stage_tables(
                    [c._stage_twiddles for c in self.contexts]
                ),
                "inv": self._stack_stage_tables(
                    [c._stage_itwiddles for c in self.contexts]
                ),
                "iscale": self._iscale_raw.astype(np.uint64),
                "iscale_sh": np.stack(
                    [_shoup(self._iscale_raw[i], moduli[i], 32) for i in range(k)]
                ),
            }
            self._numpy_tables = tables
        return tables

    #: Work-buffer sets kept per engine; plans are per batch size and engines
    #: live for the process, so the cache is bounded (oldest evicted first).
    _MAX_PLANS = 4

    def _plan(self, batch: int) -> dict:
        plan = self._plans.get(batch)
        if plan is not None:
            return plan
        if len(self._plans) >= self._MAX_PLANS:
            self._plans.pop(next(iter(self._plans)))
        stage_tables = self._ensure_numpy_tables()
        k, n, m, nm = self.count, self.n, self._m, self._nm
        work = np.empty((k, batch, n), dtype=np.uint64)
        tiles = np.empty((k, batch, m, nm), dtype=np.uint64)
        scratch_q = np.empty(k * batch * n // 2, dtype=np.uint64)
        scratch_t = np.empty(k * batch * n // 2, dtype=np.uint64)
        scratch_f = np.empty((k, batch, n), dtype=np.uint64)

        def views(buf, length, tiled):
            half = length // 2
            if tiled:
                v = buf.reshape(k, batch * (m // length), length, nm)
                even, odd = v[:, :, :half, :], v[:, :, half:, :]
                wshape = (k, 1, half, 1)
            else:
                v = buf.reshape(k, batch * (n // length), length)
                even, odd = v[:, :, :half], v[:, :, half:]
                wshape = (k, 1, half)
            nd = even.ndim
            return (
                even,
                odd,
                scratch_q[: even.size].reshape(even.shape),
                scratch_t[: even.size].reshape(even.shape),
                wshape,
                self._p_col.reshape((k,) + (1,) * (nd - 1)),
                (self._p_col * _U2).reshape((k,) + (1,) * (nd - 1)),
                (self._p_col * _U2).reshape((k,) + (1,) * (buf.ndim - 1)),
                buf,
                scratch_f.reshape(buf.shape),
            )

        plan = {
            "work": work,
            "tiles": tiles,
            "f": scratch_f,
            "lo": [views(tiles, 2 << s, True) for s in range(self._s_lo)],
            "hi": [
                views(work, 2 << s, False)
                for s in range(self._s_lo, n.bit_length() - 1)
            ],
            "psi_t": stage_tables["psi_t"].reshape(k, 1, m, nm),
            "psi_t_sh": stage_tables["psi_t_sh"].reshape(k, 1, m, nm),
            "p3": self._p_col.reshape(k, 1, 1),
            "p4": self._p_col.reshape(k, 1, 1, 1),
            "iscale": stage_tables["iscale"].reshape(k, 1, n),
            "iscale_sh": stage_tables["iscale_sh"].reshape(k, 1, n),
        }
        self._plans[batch] = plan
        return plan

    @staticmethod
    def _stage(stage_views, w, wsh, skip_multiply=False):
        (even, odd, q, t, wshape, p, twop, twop_buf, buf, f) = stage_views
        if skip_multiply:
            # Twiddle is identically 1 (stage 0): butterfly without Shoup.
            np.add(even, odd, out=q)
            np.add(even, twop, out=t)
            np.subtract(t, odd, out=odd)
            np.copyto(even, q)
        else:
            # t = odd * w mod p, lazily in [0, 2p) via the Shoup quotient.
            np.multiply(odd, wsh.reshape(wshape), out=q)
            q >>= SHOUP_SHIFT
            np.multiply(odd, w.reshape(wshape), out=t)
            q *= p
            t -= q
            np.subtract(twop, t, out=q)
            np.add(even, q, out=odd)  # odd' = even + 2p - t
            even += t                 # even' = even + t
        # Correct [0, 4p) back to [0, 2p): uint64 wraparound makes
        # min(x, x - 2p) a branch-free conditional subtraction.
        np.subtract(buf, twop_buf, out=f)
        np.minimum(buf, f, out=buf)

    def _numpy_transform(self, arr: np.ndarray, forward: bool) -> np.ndarray:
        k, batch, n = arr.shape
        plan = self._plan(batch)
        tables = self._ensure_numpy_tables()["fwd" if forward else "inv"]
        tiles, work, f = plan["tiles"], plan["work"], plan["f"]
        np.take(arr, self._perm, axis=-1, out=tiles.view(np.int64).reshape(k, batch, n))
        if forward:
            ft = f.reshape(tiles.shape)
            np.multiply(tiles, plan["psi_t_sh"], out=ft)
            ft >>= SHOUP_SHIFT
            tiles *= plan["psi_t"]
            ft *= plan["p4"]
            tiles -= ft
        for s, stage_views in enumerate(plan["lo"]):
            w, wsh = tables[s]
            self._stage(stage_views, w, wsh, skip_multiply=s == 0)
        np.copyto(work.reshape(k, batch, self._nm, self._m), tiles.transpose(0, 1, 3, 2))
        for s, stage_views in enumerate(plan["hi"]):
            w, wsh = tables[self._s_lo + s]
            self._stage(stage_views, w, wsh)
        out = np.empty((k, batch, n), dtype=np.uint64)
        if forward:
            np.subtract(work, plan["p3"], out=f)
            np.minimum(work, f, out=out)
        else:
            np.multiply(work, plan["iscale_sh"], out=f)
            f >>= SHOUP_SHIFT
            np.multiply(work, plan["iscale"], out=out)
            f *= plan["p3"]
            out -= f
            np.subtract(out, plan["p3"], out=f)
            np.minimum(out, f, out=out)
        return out.view(np.int64)

    def _native_transform(self, arr: np.ndarray, forward: bool) -> np.ndarray:
        k, batch, n = arr.shape
        nat = self._nat
        # One copy: the C kernel transforms in place.
        buf = arr.astype(np.uint64, order="C")
        # Per-call scratch keeps this path lock-free: the tables are
        # read-only and ctypes releases the GIL during the C call, so
        # concurrent serving threads transform without convoying on a
        # shared-engine lock.
        scratch = np.empty(n, dtype=np.uint64)
        if forward:
            self._kernel.ntt_forward(
                _ptr(buf), _ptr(nat["perm"]), _ptr(nat["psi"]), _ptr(nat["psi_sh"]),
                _ptr(nat["tw"]), _ptr(nat["tw_sh"]), _ptr(nat["p"]),
                k, batch, n, _ptr(scratch),
            )
        else:
            self._kernel.ntt_inverse(
                _ptr(buf), _ptr(nat["perm"]), _ptr(nat["iscale"]), _ptr(nat["iscale_sh"]),
                _ptr(nat["itw"]), _ptr(nat["itw_sh"]), _ptr(nat["p"]),
                k, batch, n, _ptr(scratch),
            )
        return buf.view(np.int64)

    # -- public transforms ---------------------------------------------------

    def _prepare(self, stack) -> tuple[np.ndarray, bool]:
        arr = np.asarray(stack)
        if arr.dtype != np.int64:
            arr = arr.astype(np.int64)
        squeeze = arr.ndim == 2
        if squeeze:
            arr = arr[:, None, :]
        if arr.ndim != 3 or arr.shape[0] != self.count or arr.shape[2] != self.n:
            raise ValueError(
                f"expected residue stack of shape ({self.count}, batch, {self.n}), "
                f"got {np.asarray(stack).shape}"
            )
        if arr.size:
            # Cheap global scan first; residues of a large-prime limb can
            # legitimately exceed the smallest modulus, so confirm with a
            # per-limb comparison before paying a full reduction.
            primes_col = self._primes_i64[:, None, None]
            if int(arr.min()) < 0 or (
                int(arr.max()) >= self._min_modulus and bool((arr >= primes_col).any())
            ):
                arr = arr % primes_col
        return arr, squeeze

    def _transform(self, stack, forward: bool, count_ops: bool) -> np.ndarray:
        arr, squeeze = self._prepare(stack)
        if self._kernel is not None:
            # Lock-free: the native path uses per-call buffers only.
            out = self._native_transform(arr, forward)
        else:
            # The numpy path runs on shared per-engine plan buffers, and
            # engines are memoized across schemes -- serialise it.
            with self._lock:
                out = self._numpy_transform(arr, forward)
        if count_ops:
            GLOBAL_COUNTERS.add_ntt(self.n, count=arr.shape[0] * arr.shape[1])
        return out[:, 0, :] if squeeze else out

    def forward(self, stack, count_ops: bool = True) -> np.ndarray:
        """Coefficients -> evaluations for a (k, n) or (k, batch, n) stack.

        Row ``(i, ..., j)`` of the output holds ``a_i(psi_i^(2j+1))`` in
        natural order j, matching :meth:`NttContext.forward` bit-exactly.
        """
        return self._transform(stack, forward=True, count_ops=count_ops)

    def inverse(self, stack, count_ops: bool = True) -> np.ndarray:
        """Evaluations -> coefficients; inverse of :meth:`forward`."""
        return self._transform(stack, forward=False, count_ops=count_ops)

    # -- evaluation-domain arithmetic ----------------------------------------

    def pointwise(self, a: np.ndarray, b: np.ndarray, count_ops: bool = True) -> np.ndarray:
        """Element-wise modular product of evaluation-domain stacks."""
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        col = self._primes_i64.reshape((-1,) + (1,) * (max(a.ndim, b.ndim) - 1))
        result = a * b % col
        if count_ops:
            GLOBAL_COUNTERS.add_modmuls(result.size)
        return result

    def pointwise_accumulate(
        self,
        a: np.ndarray,
        b: np.ndarray,
        count_ops: bool = True,
        index: np.ndarray | None = None,
    ) -> np.ndarray:
        """Sum over the batch axis of element-wise products: (k, B, n) -> (k, n).

        This is the key-switching inner loop (digit x key pairs) fused
        into one call; per-product modmul accounting matches running
        :meth:`pointwise` B times.  ``index`` gathers ``a`` along its last
        axis first (``a[:, :, index]``), so a hoisted rotation's slot
        permutation never materialises a permuted copy of the digits.
        Operands are reduced residues in ``[0, p_i)``.
        """
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if (
            self._kernel is not None
            and a.ndim == 3
            and a.shape == b.shape
            and a.shape[0] == self.count
        ):
            out = self._native_mac_accumulate(a, b, index)
            if out is not None:
                if count_ops:
                    GLOBAL_COUNTERS.add_modmuls(b.size)
                return out
        if index is not None:
            a = a[:, :, index]
        products = a * b
        products %= self._primes_i64[:, None, None]
        if count_ops:
            GLOBAL_COUNTERS.add_modmuls(products.size)
        acc = products.sum(axis=1)
        acc %= self._primes_i64[:, None]
        return acc

    def _native_mac_accumulate(self, a, b, index):
        k, terms, n = a.shape
        if index is not None:
            index = np.asarray(index, dtype=np.int64)
            # The kernel gathers unchecked, so bounds are checked here.
            if index.shape != (n,) or (n and (index.min() < 0 or index.max() >= n)):
                return None
            index = np.ascontiguousarray(index)
        if a.strides[2] != 8:
            a = np.ascontiguousarray(a)
        if b.strides[2] != 8:
            b = np.ascontiguousarray(b)
        out = np.empty((k, n), dtype=np.int64)
        self._kernel.mac_accumulate(
            _ptr(a), a.strides[0] // 8, a.strides[1] // 8,
            _ptr(b), b.strides[0] // 8, b.strides[1] // 8,
            None if index is None else _ptr(index),
            _ptr(self._nat["p"]), _ptr(self._nat["mu"]),
            k, terms, n, _ptr(out),
        )
        return out

    # -- two-word CRT kernels ----------------------------------------------------

    def _crt_input(self, stack: np.ndarray, ndim: int) -> np.ndarray:
        stack = np.asarray(stack, dtype=np.int64)
        if stack.ndim != ndim or stack.shape[0] != self.count:
            raise ValueError(
                f"expected a {ndim}-d residue stack with {self.count} limbs, "
                f"got {stack.shape}"
            )
        return stack if stack.strides[-1] == 8 else np.ascontiguousarray(stack)

    def crt_digits(
        self, stack: np.ndarray, base_bits: int, num_digits: int
    ) -> np.ndarray | None:
        """Native fused CRT compose -> digits -> residues; None when unavailable.

        ``stack`` is a coefficient-domain ``(k, B, n)`` stack of residues
        in ``[0, p_i)``.  The result is ``(k, B * num_digits, n)``: row
        ``b * num_digits + d`` holds base-``2^base_bits`` digit ``d`` of polynomial ``b`` reduced
        mod each prime -- bit-identical to composing with
        :meth:`~repro.bfv.rns.RnsBasis.compose`, splitting with
        :func:`~repro.bfv.decompose.digit_decompose` and reducing with
        :meth:`~repro.bfv.rns.RnsBasis.decompose_stack`.  Returns None
        (the caller takes that object path) without the kernel, when
        ``k * q >= 2^128``, or when the digits cannot cover q in 64-bit
        words.
        """
        tables = self._crt
        if (
            tables is None
            or not 1 <= base_bits <= 64
            or num_digits * base_bits < tables["q"].bit_length()
        ):
            return None
        x = self._crt_input(stack, 3)
        k, batch, n = x.shape
        out = np.empty((k, batch * num_digits, n), dtype=np.int64)
        nat = self._nat
        self._kernel.crt_digits(
            _ptr(x), x.strides[0] // 8, x.strides[1] // 8,
            _ptr(nat["p"]), _ptr(tables["qinv"]), _ptr(tables["qinv_sh"]),
            _ptr(tables["punct"]), _ptr(tables["q_words"]),
            k, batch, n, base_bits, num_digits, _ptr(out),
        )
        return out

    def crt_scale_round(self, stack: np.ndarray, t: int) -> np.ndarray | None:
        """Native ``round(t * x / q) mod t`` of a ``(k, n)`` coefficient stack.

        The BFV decrypt rounding, bit-identical to
        ``(x * t * 2 + q) // (2 * q) % t`` on the composed coefficients.
        Returns None (object path) without the kernel or unless
        ``(2t + 1) * q < 2^128``.
        """
        tables = self._crt
        if tables is None or t >= 1 << 63 or (2 * t + 1) * tables["q"] >= 1 << 128:
            return None
        x = self._crt_input(stack, 2)
        k, n = x.shape
        out = np.empty(n, dtype=np.int64)
        nat = self._nat
        self._kernel.crt_scale_round(
            _ptr(x), x.strides[0] // 8,
            _ptr(nat["p"]), _ptr(tables["qinv"]), _ptr(tables["qinv_sh"]),
            _ptr(tables["punct"]), _ptr(tables["q_words"]),
            k, n, t, _ptr(out),
        )
        return out

    def pointwise_accumulate_grouped(
        self, a: np.ndarray, b: np.ndarray, count_ops: bool = True
    ) -> np.ndarray:
        """Per-group :meth:`pointwise_accumulate`: (k, B, T, n) -> (k, B, n).

        The cross-client batching primitive: ``B`` independent ``T``-term
        multiply-accumulate reductions (one per in-flight request) run as
        a single broadcasted modmul plus one grouped sum, instead of ``B``
        separate :meth:`pointwise_accumulate` calls.  ``b`` may be
        ``(k, T, n)`` (weights shared across the batch, the common case)
        or ``(k, B, T, n)`` (per-request operands, e.g. per-client
        key-switch key stacks).  Slice ``[:, i]`` of the result is
        bit-identical to ``pointwise_accumulate(a[:, i], b)`` /
        ``pointwise_accumulate(a[:, i], b[:, i])``.
        """
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if a.ndim != 4:
            raise ValueError(f"expected (k, B, T, n) stack, got {a.shape}")
        if b.ndim == 3:
            b = b[:, None]
        products = a * b
        products %= self._primes_i64[:, None, None, None]
        if count_ops:
            GLOBAL_COUNTERS.add_modmuls(products.size)
        acc = products.sum(axis=2)
        acc %= self._primes_i64[:, None, None]
        return acc

    def negacyclic_multiply(self, a, b) -> np.ndarray:
        """Full negacyclic product of coefficient-domain stacks."""
        a_eval = self.forward(a)
        b_eval = self.forward(b)
        product = self.pointwise(a_eval, b_eval)
        return self.inverse(product)

    def __repr__(self) -> str:
        path = "native" if self.uses_native_kernel else "numpy"
        return f"RnsNttEngine(n={self.n}, k={self.count}, path={path})"
