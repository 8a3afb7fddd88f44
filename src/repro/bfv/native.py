"""Optional compiled fast path for the HE core's hot loops.

``_ntt_kernel.c`` holds every native kernel of the HE datapath:

* the batched negacyclic NTT and its inverse (:mod:`repro.bfv.ntt_batch`);
* the key-switch / plaintext multiply-accumulate behind
  :meth:`~repro.bfv.ntt_batch.RnsNttEngine.pointwise_accumulate`, with an
  optional gather index for hoisted rotations;
* the fused CRT compose -> base-2^``a_dcmp_bits`` digits -> per-limb
  residues of key switching, in two-word (128-bit) arithmetic;
* the decrypt scale-and-round ``round(t x / q) mod t``.

When a C compiler is present this module compiles the source once
(cached as a shared object under ``build/ntt`` in the repository root,
keyed by a hash of the source) and exposes it via :mod:`ctypes`.
Everything degrades silently: no compiler, a failed build, or
``REPRO_NTT_NATIVE=0`` in the environment all yield ``None`` from
:func:`load_kernel`.  The engine and the scheme then run the numpy NTT and
MAC and the object-integer CRT, digit and rounding code -- the same code
that serves coefficient moduli beyond two words (k*q >= 2^128) even when
the kernel is loaded.  The paths are bit-identical, so which one runs is
purely a matter of speed.

Loading a shared object executes its constructors, so cached kernels are
only trusted from directories owned by the current user that other users
cannot write to (the repo build tree, or a per-user 0700 temp dir).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
from pathlib import Path

_KERNEL: ctypes.CDLL | None = None
_TRIED = False
_LOCK = threading.Lock()


def _reset_lock_in_child() -> None:
    # A parent thread loading the kernel at the fork would leave the
    # child's copy of the lock held forever.
    global _LOCK
    _LOCK = threading.Lock()


os.register_at_fork(after_in_child=_reset_lock_in_child)

#: Environment variable that disables the compiled path when set to 0/false/off.
NATIVE_ENV_VAR = "REPRO_NTT_NATIVE"


def kernel_source_path() -> Path:
    """Location of the C kernel source shipped with the package."""
    return Path(__file__).with_name("_ntt_kernel.c")


def _is_trusted(path: Path) -> bool:
    """Only load artifacts the current user owns and others cannot write."""
    if os.name != "posix":
        return True
    info = os.stat(path)
    return info.st_uid == os.getuid() and not info.st_mode & 0o022


def _build_dir() -> Path:
    """Cache directory for compiled kernels.

    The repo root is only trusted when it actually looks like this
    repository's source layout; for an installed package (site-packages)
    the cache goes to a per-user 0700 temp directory instead of
    littering the interpreter tree or sharing a predictable world-
    writable path.
    """
    try:
        root = Path(__file__).resolve().parents[3]
        if (root / "src" / "repro").is_dir() and (
            (root / ".git").exists() or (root / "ROADMAP.md").exists()
        ):
            candidate = root / "build" / "ntt"
            candidate.mkdir(parents=True, exist_ok=True)
            return candidate
    except OSError:
        pass
    uid = os.getuid() if os.name == "posix" else "user"
    fallback = Path(tempfile.gettempdir()) / f"repro-ntt-build-{uid}"
    fallback.mkdir(mode=0o700, parents=True, exist_ok=True)
    return fallback


def _compile(source: Path, target: Path) -> bool:
    compiler = shutil.which("cc") or shutil.which("gcc") or shutil.which("clang")
    if compiler is None:
        return False
    fd, tmp_name = tempfile.mkstemp(
        prefix=f".{target.name}.", suffix=".tmp", dir=target.parent
    )
    os.close(fd)
    tmp = Path(tmp_name)
    try:
        subprocess.run(
            [compiler, "-O3", "-shared", "-fPIC", str(source), "-o", str(tmp)],
            check=True,
            capture_output=True,
            timeout=120,
        )
        os.replace(tmp, target)
        return True
    except (OSError, subprocess.SubprocessError):
        tmp.unlink(missing_ok=True)
        return False


def load_kernel() -> ctypes.CDLL | None:
    """Compile (if needed) and load the C kernel; None when unavailable."""
    global _KERNEL, _TRIED
    with _LOCK:
        if _TRIED:
            return _KERNEL
        _TRIED = True
        if os.environ.get(NATIVE_ENV_VAR, "1").lower() in ("0", "false", "off"):
            return None
        try:
            source = kernel_source_path()
            if not source.exists():
                return None
            tag = hashlib.sha256(source.read_bytes()).hexdigest()[:16]
            build_dir = _build_dir()
            if not _is_trusted(build_dir):
                return None
            shared_object = build_dir / f"ntt_kernel_{tag}.so"
            if not shared_object.exists() and not _compile(source, shared_object):
                return None
            if not _is_trusted(shared_object):
                return None
            lib = ctypes.CDLL(str(shared_object))
            ptr, long_ = ctypes.c_void_p, ctypes.c_long
            signatures = {
                "ntt_forward": [ptr] * 7 + [long_] * 3 + [ptr],
                "ntt_inverse": [ptr] * 7 + [long_] * 3 + [ptr],
                "mac_accumulate": [ptr, long_, long_, ptr, long_, long_]
                + [ptr] * 3 + [long_] * 3 + [ptr],
                "crt_digits": [ptr, long_, long_] + [ptr] * 5
                + [long_] * 5 + [ptr],
                "crt_scale_round": [ptr, long_] + [ptr] * 5 + [long_] * 2
                + [ctypes.c_uint64, ptr],
            }
            for name, argtypes in signatures.items():
                fn = getattr(lib, name)
                fn.restype = None
                fn.argtypes = argtypes
            _KERNEL = lib
        except Exception:
            _KERNEL = None
        return _KERNEL


def native_available() -> bool:
    """True when the compiled kernel loaded (or would load) successfully."""
    return load_kernel() is not None
