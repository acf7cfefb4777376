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


def ata_worker(kernel: "Kernel", storage: StorageDevice):
    """Factory for the ``ata_sff/0`` service loop."""

    def behavior(task: "Task") -> Iterator[Op]:
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

    return behavior


def periodic_housekeeper(
    period_ticks: int, entry: str, insts: int, data_words: int
):
    """Factory for quiet periodic kthreads (ksoftirqd, kswapd...)."""

    def behavior(task: "Task") -> Iterator[Op]:
        while True:
            yield Sleep(period_ticks)
            yield kernel_exec(entry, insts, data_words)

    return behavior


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
