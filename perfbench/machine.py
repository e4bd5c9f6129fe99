"""Facts about the machine, the toolchain and the source a result came from."""

import ctypes
import hashlib
import os
import platform
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def nproc():
    return len(os.sched_getaffinity(0))


def cap_blas_threads(environ):
    """Keep the BLAS thread count at or below nproc; call before numpy loads."""
    limit = nproc()
    for var in THREAD_VARS:
        value = environ.get(var, "")
        if not value.isdigit() or int(value) > limit or int(value) < 1:
            environ[var] = str(limit)


def _read(path):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def _cpu_model():
    text = _read("/proc/cpuinfo") or ""
    for line in text.splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def _last_level_cache():
    best = None
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, size = _read(index / "level"), _read(index / "size")
        if level and size and (best is None or int(level) > best[0]):
            best = (int(level), size)
    return None if best is None else f"L{best[0]} {best[1]}"


def _blas_threads():
    """Threads in effect, asked of the OpenBLAS library numpy has loaded."""
    maps = _read("/proc/self/maps") or ""
    libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _git_sha(root):
    """HEAD of the checkout, read from .git without running git; None if absent."""
    git = root / ".git"
    head = _read(git / "HEAD")
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    sha = _read(git / ref)
    if sha is None:
        for line in (_read(git / "packed-refs") or "").splitlines():
            if line.endswith(" " + ref):
                sha = line.split()[0]
    return sha


def _tree_sha256(directory):
    digest = hashlib.sha256()
    for path in sorted(directory.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(directory)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def facts(root, seed):
    import numpy

    deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {
        "nproc": nproc(),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "last_level_cache": _last_level_cache(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_sha": _git_sha(root),
        "src_sha256": _tree_sha256(root / "src" / "holonet"),
        "seed": seed,
    }
