"""Files and the page cache.

First access to a file's pages goes to the storage device (waking the
``ata_sff/0`` service thread, exactly the process the paper sees competing
with SPEC workloads); subsequent accesses hit the cache and only pay the
``copy_to_user`` kernel work.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

from repro.kernel.syscalls import kernel_exec, syscall
from repro.sim.devices import IORequest, StorageDevice
from repro.sim.ops import Block, Op

if TYPE_CHECKING:
    from repro.kernel.proc import Kernel
    from repro.kernel.task import Task


@dataclass
class File:
    """A file on the simulated flash device."""

    name: str
    size: int
    cached_bytes: int = 0
    reads: int = field(default=0)


class Filesystem:
    """Name -> File table plus read/write paths through the page cache."""

    #: Read granularity: one readahead window.
    CHUNK = 128 * 1024

    def __init__(self, kernel: "Kernel", storage: StorageDevice) -> None:
        self.kernel = kernel
        self.storage = storage
        self.files: dict[str, File] = {}

    def create(self, name: str, size: int) -> File:
        """Create (or replace) a file of *size* bytes."""
        f = File(name, size)
        self.files[name] = f
        return f

    def get(self, name: str) -> File:
        """Look up a file, creating a 1MB default when absent."""
        f = self.files.get(name)
        if f is None:
            f = self.create(name, 1024 * 1024)
        return f

    def evict_all(self) -> int:
        """Drop every cached page (a fault-plan eviction storm).

        Returns the number of bytes evicted; subsequent reads fault back
        through the storage queue as if the pages were never resident.
        """
        evicted = 0
        for f in self.files.values():
            evicted += f.cached_bytes
            f.cached_bytes = 0
        return evicted

    # ------------------------------------------------------------------

    def read(
        self,
        task: "Task",
        file: File,
        nbytes: int,
        dest_addr: int,
    ) -> Iterator[Op]:
        """Behaviour fragment: read *nbytes* into the buffer at dest_addr.

        Cold pages are fetched chunk-at-a-time through the storage queue;
        the caller blocks until ``ata_sff/0`` completes each transfer.
        """
        file.reads += 1
        total = min(nbytes, file.size) if file.size else nbytes
        yield syscall("read", insts=300, data_words=50)
        offset = 0
        while offset < total:
            chunk = min(self.CHUNK, total - offset)
            if offset + chunk > file.cached_bytes:
                done_q = self.kernel.new_waitq(f"io:{file.name}")
                req = IORequest(chunk, done_q, self.kernel.system.clock.now)
                self.storage.submit(req)
                yield Block(done_q)
                file.cached_bytes = min(
                    max(file.cached_bytes, offset + chunk), file.size
                )
            # copy_to_user into the caller's buffer.
            yield kernel_exec(
                "copy_to_user",
                insts=max(chunk // 16, 64),
                data_words=max(chunk // 128, 8),
                user_data=((dest_addr, max(chunk // 64, 4)),),
            )
            offset += chunk

    def read_warm(
        self, task: "Task", file: File, nbytes: int, dest_addr: int
    ) -> Iterator[Op]:
        """Read assuming pages are resident (streaming re-reads)."""
        file.reads += 1
        yield syscall("read", insts=300, data_words=50)
        chunk = min(nbytes, max(file.size, 1))
        yield kernel_exec(
            "copy_to_user",
            insts=max(chunk // 16, 64),
            data_words=max(chunk // 128, 8),
            user_data=((dest_addr, max(chunk // 64, 4)),),
        )

    def write(
        self, task: "Task", file: File, nbytes: int, src_addr: int
    ) -> Iterator[Op]:
        """Buffered write path (dirty pages; writeback is not modelled)."""
        yield syscall("write", insts=350, data_words=60)
        yield kernel_exec(
            "copy_from_user",
            insts=max(nbytes // 16, 64),
            data_words=max(nbytes // 128, 8),
            user_data=((src_addr, max(nbytes // 64, 4)),),
        )
        file.size = max(file.size, nbytes)
        file.cached_bytes = min(file.cached_bytes + nbytes, file.size)
