"""The stage queue: zero-argument callables run in this process and, where a
second CPU is usable, in one forked helper process.

It knows nothing of what the stages compute, and it loads neither numpy nor
a metric module. A stage must not depend on which process runs it: each
draws from its own seeded RNG stream, and results are merged by stage index.
"""

from __future__ import annotations

import os
import pickle
from collections.abc import Callable

from .errors import HelperProcessError


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# A write of at most _POSIX_PIPE_BUF (512) bytes into an empty pipe neither
# blocks nor splits, so the whole queue of 4-byte indices is written at once.
_QUEUE_SLOTS = 512 // 4


def _drain(stages: list[Callable[[], object]], queue: int) -> dict[int, object]:
    """Run each stage whose index this process reads from `queue`, until the
    queue is empty; {index: result}.

    Each read takes one whole 4-byte index: reads of a pipe are serialized,
    and every reader asks for 4 bytes of a pipe holding multiples of 4.
    """
    results = {}
    while claimed := os.read(queue, 4):
        index = int.from_bytes(claimed, "little")
        results[index] = stages[index]()
    return results


def _run_stages(stages: list[Callable[[], object]]) -> list[object]:
    """Results of the zero-argument callables `stages`, in stage order.

    Where there are two stages or more, `os.fork` exists and a second CPU
    is usable, this process runs stage 0 while one forked helper starts on
    the other indices, and each then takes the next index until none is
    left. Otherwise, and where the OS refuses a pipe or the fork, the
    stages run in a plain loop here.
    """
    if len(stages) > _QUEUE_SLOTS:
        raise ValueError(f"at most {_QUEUE_SLOTS} stages fit in the queue, got {len(stages)}")
    if len(stages) > 1 and hasattr(os, "fork") and _usable_cpus() >= 2:
        results = _drain_beside_helper(stages)
        if results is not None:
            return [results[i] for i in range(len(stages))]
    return [stage() for stage in stages]


def _drain_beside_helper(stages: list[Callable[[], object]]) -> dict[int, object] | None:
    """_drain in this process and in one forked helper; their results merged.
    None, with every fd it opened closed, where the OS refuses a pipe or the
    fork: both pipes and the fork come before any stage runs.

    The indices 1 and up go into a pipe that is then closed for writing. The
    helper sends back its {index: result}, or the exception one of its
    stages raised, pickled through a second pipe; this process reaps the
    helper and raises that exception. A helper that fails, or sends anything
    else, raises HelperProcessError naming its exit status and the bytes it
    sent; a stage that raises here kills and reaps the helper first.
    """
    fds = []
    try:
        fds += os.pipe()
        os.write(fds[1], b"".join(i.to_bytes(4, "little") for i in range(1, len(stages))))
        os.close(fds.pop())  # so the empty queue reads b"" in both processes
        fds += os.pipe()
        pid = os.fork()
    except OSError:
        for fd in fds:
            os.close(fd)
        return None
    queue, back, send = fds
    if pid == 0:
        # The helper is fork-safe although BLAS threads did not survive the
        # fork: no step of analyze makes a BLAS call, and the stages run only
        # numpy elementwise, gather and sorting kernels, its RNG and pure
        # Python. So the helper takes no lock another thread may hold, logs
        # nothing and does no I/O but its pipes. os._exit skips the atexit
        # handlers and the buffered output it shares with this process.
        status = 1
        try:
            os.close(back)
            try:
                payload = _drain(stages, queue)
            except Exception as exc:
                payload = exc
            with os.fdopen(send, "wb") as pipe:
                pipe.write(pickle.dumps(payload))
            status = 0
        finally:
            os._exit(status)
    os.close(send)
    with os.fdopen(back, "rb") as pipe:
        try:
            results = {0: stages[0](), **_drain(stages, queue)}
            data = pipe.read()
        except BaseException:
            import signal  # here, as a run that succeeds need not load it

            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            os.close(queue)
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    try:
        theirs = pickle.loads(data) if code == 0 else None
    except Exception:  # a truncated pickle, or an exception that cannot be rebuilt
        theirs = None
    if isinstance(theirs, Exception):
        raise theirs
    if not isinstance(theirs, dict) or sorted([*results, *theirs]) != list(range(len(stages))):
        raise HelperProcessError(f"helper process ended with exit status {code} after sending {len(data)} bytes")
    return results | theirs
