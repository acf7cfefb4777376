"""Standard kernel threads.

These populate the process roster the paper's Figures 3/4 show around the
benchmarks: ``swapper`` (idle), ``ata_sff/0`` (storage servicing — the one
process that visibly competes with SPEC), plus the usual quiet residents
(ksoftirqd, kswapd, binder, mmcqd).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from repro.kernel.syscalls import kernel_exec
from repro.sim.devices import StorageDevice
from repro.sim.ops import Block, Op, Sleep
from repro.sim.ticks import millis

if TYPE_CHECKING:
    from repro.kernel.proc import Kernel
    from repro.kernel.task import Task


class AtaWorker:
    """The ``ata_sff/0`` service loop (behaviour factory)."""

    def __init__(self, kernel: "Kernel", storage: StorageDevice) -> None:
        self.kernel = kernel
        self.storage = storage

    def __call__(self, task: "Task") -> Iterator[Op]:
        kernel = self.kernel
        storage = self.storage
        storage.worker_q = kernel.new_waitq("ata_sff/0")
        while True:
            req = storage.pop()
            if req is None:
                yield Block(storage.worker_q)
                continue
            # Device transfer time, then PIO copy into the page cache.
            yield Sleep(storage.transfer_ticks(req.nbytes))
            yield kernel_exec(
                "ata_sff_pio_transfer",
                insts=max(req.nbytes // 16, 128),
                data_words=max(req.nbytes // 32, 64),
            )
            storage.bytes_transferred += req.nbytes
            req.serviced = True
            req.completion_q.wake_all()


def ata_worker(kernel: "Kernel", storage: StorageDevice) -> AtaWorker:
    """Factory for the ``ata_sff/0`` service loop."""
    return AtaWorker(kernel, storage)


class PeriodicHousekeeper:
    """A quiet periodic kthread loop (behaviour factory)."""

    def __init__(
        self, period_ticks: int, entry: str, insts: int, data_words: int
    ) -> None:
        self.period_ticks = period_ticks
        self.entry = entry
        self.insts = insts
        self.data_words = data_words

    def __call__(self, task: "Task") -> Iterator[Op]:
        while True:
            yield Sleep(self.period_ticks)
            yield kernel_exec(self.entry, self.insts, self.data_words)


def periodic_housekeeper(
    period_ticks: int, entry: str, insts: int, data_words: int
) -> PeriodicHousekeeper:
    """Factory for quiet periodic kthreads (ksoftirqd, kswapd...)."""
    return PeriodicHousekeeper(period_ticks, entry, insts, data_words)


def spawn_standard_kthreads(kernel: "Kernel", storage: StorageDevice) -> None:
    """Create the baseline kernel-thread population."""
    kernel.create_idle_task()
    kernel.spawn_kthread("kthreadd")
    kernel.spawn_kthread(
        "ksoftirqd/0", periodic_housekeeper(millis(40), "run_ksoftirqd", 400, 60)
    )
    kernel.spawn_kthread(
        "kswapd0", periodic_housekeeper(millis(500), "kswapd_balance", 700, 120)
    )
    kernel.spawn_kthread("ata_sff/0", ata_worker(kernel, storage))
    kernel.spawn_kthread("binder")
    kernel.spawn_kthread(
        "mmcqd", periodic_housekeeper(millis(250), "mmc_queue_thread", 260, 40)
    )
    kernel.spawn_kthread("kblockd/0")
    kernel.spawn_kthread("khelper")
