"""Binder IPC.

A :class:`BinderHost` is a process's binder thread pool: a shared
transaction queue drained by ``Binder Thread #N`` tasks.  Services register
named handlers on their host; :func:`transact` marshals on the client,
crosses the (synthesised) kernel driver, enqueues on the target host and —
for synchronous calls — blocks the caller until the handler replies.

This is the mechanism that moves work *across processes*: a client's
``MediaPlayer.start()`` ends up executing stagefright code attributed to
``mediaserver``, which is precisely the effect the paper measures.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterator

from repro.errors import BinderError
from repro.kernel.syscalls import kernel_exec
from repro.libs import regions
from repro.libs.registry import framework_veneer, mapped_object
from repro.sim.ops import Block, ExecBlock, Op

if TYPE_CHECKING:
    from repro.kernel.proc import Kernel
    from repro.kernel.task import Process, Task
    from repro.kernel.waitq import WaitQueue

Handler = Callable[["Transaction"], Iterator[Op]]


@dataclass
class Transaction:
    """One binder transaction in flight."""

    service: str
    code: str
    payload_words: int
    sender: "Process"
    reply_q: "WaitQueue | None"
    oneway: bool = False
    #: Free-form arguments passed to the handler.
    args: dict = field(default_factory=dict)
    #: Handler-filled reply values readable by the sender after wakeup.
    reply: dict = field(default_factory=dict)
    completed: bool = False


class BinderHost:
    """Per-process binder thread pool and service table."""

    def __init__(self, kernel: "Kernel", proc: "Process", nthreads: int = 2) -> None:
        self.kernel = kernel
        self.proc = proc
        self.queue: deque[Transaction] = deque()
        self.waitq = kernel.new_waitq(f"binder:{proc.comm}")
        self.handlers: dict[str, Handler] = {}
        self.threads: list[Task] = []
        regions.ensure_binder_mapping(proc)
        for i in range(nthreads):
            task = kernel.spawn_thread(
                proc, f"Binder Thread #{i + 1}", self._thread_behavior
            )
            self.threads.append(task)

    def register(self, service: str, handler: Handler) -> None:
        """Expose *service* on this host."""
        if service in self.handlers:
            raise BinderError(f"{self.proc.comm}: service {service!r} already bound")
        self.handlers[service] = handler

    # ------------------------------------------------------------------

    def _thread_behavior(self, task: "Task") -> Iterator[Op]:
        proc = self.proc
        while True:
            if not self.queue:
                yield Block(self.waitq)
                continue
            txn = self.queue.popleft()
            handler = self.handlers.get(txn.service)
            if handler is None:
                raise BinderError(
                    f"{proc.comm}: no handler for service {txn.service!r}"
                )
            injector = self.kernel.system.faults
            if injector is not None:
                outcome = injector.binder_outcome(txn)
                if outcome == "drop":
                    # Fire-and-forget code: the driver rejects it and the
                    # stack absorbs the loss — no handler, empty reply.
                    yield kernel_exec("binder_txn_fail", 900, 110)
                    txn.completed = True
                    if not txn.oneway and txn.reply_q is not None:
                        txn.reply_q.wake_all()
                    continue
                if outcome == "retry":
                    # The sender is blocked on reply values: a failed
                    # delivery costs a fail + resubmit detour, then the
                    # transaction goes through normally.
                    yield kernel_exec("binder_txn_fail", 900, 110)
                    yield kernel_exec("binder_txn_retry", 700, 90)
            # Driver-side delivery + server-side unmarshal.
            yield kernel_exec("binder_txn_deliver", 1_100, 140)
            libbinder = mapped_object(proc, "libbinder.so")
            binder_map = regions.ensure_binder_mapping(proc)
            yield libbinder.call(
                "ipc_thread_loop",
                data=((binder_map.start + 4_096, max(txn.payload_words // 2, 8)),),
            )
            yield from handler(txn)
            yield from framework_veneer(proc, nlibs=4, insts_each=120)
            txn.completed = True
            if not txn.oneway and txn.reply_q is not None:
                yield kernel_exec("binder_txn_reply", 800, 90)
                txn.reply_q.wake_all()


@dataclass(frozen=True)
class ServiceRef:
    """Client-side handle to a remote service."""

    name: str
    host: BinderHost


class ServiceRegistry:
    """The servicemanager's name -> handle table."""

    def __init__(self) -> None:
        self._services: dict[str, ServiceRef] = {}

    def add(self, name: str, host: BinderHost, handler: Handler) -> ServiceRef:
        """Register a service handler on *host* and publish it."""
        host.register(name, handler)
        ref = ServiceRef(name, host)
        self._services[name] = ref
        return ref

    def lookup(self, name: str) -> ServiceRef:
        """Resolve a service by name."""
        try:
            return self._services[name]
        except KeyError:
            raise BinderError(f"service {name!r} not registered") from None

    def names(self) -> tuple[str, ...]:
        """All published service names."""
        return tuple(sorted(self._services))


def transact(
    kernel: "Kernel",
    client: "Process",
    ref: ServiceRef,
    code: str,
    payload_words: int = 64,
    oneway: bool = False,
    args: dict | None = None,
) -> Iterator[Op]:
    """Behaviour fragment performing one binder call from *client*.

    The transaction object is yielded to the caller through the generator's
    return value (``yield from`` captures it), carrying any reply values.
    """
    libbinder = mapped_object(client, "libbinder.so")
    binder_map = regions.ensure_binder_mapping(client)
    # Client-side marshalling into the binder mapping.
    yield libbinder.call(
        "parcel_marshal",
        insts=max(payload_words * 9, 64),
        data=((binder_map.start, max(payload_words // 2, 4)),),
    )
    yield libbinder.call("transact")
    yield kernel_exec("binder_ioctl_write", 1_300, 160)

    txn = Transaction(
        service=ref.name,
        code=code,
        payload_words=payload_words,
        sender=client,
        reply_q=None if oneway else kernel.new_waitq(f"reply:{ref.name}:{code}"),
        oneway=oneway,
        args=dict(args or {}),
    )
    ref.host.queue.append(txn)
    ref.host.waitq.wake_all()
    if not oneway:
        yield Block(txn.reply_q)  # type: ignore[arg-type]
        # Unmarshal the reply.
        yield libbinder.call(
            "parcel_marshal",
            insts=max(payload_words * 4, 32),
            data=((binder_map.start + 8_192, max(payload_words // 4, 2)),),
        )
    return txn
