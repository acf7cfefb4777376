"""Java method descriptors and per-application method tables.

A :class:`JavaMethod` summarises one method's dynamic footprint: bytecode
count plus the relative intensity of its heap/stack/alloc behaviour.  App
models draw methods from a seeded :class:`MethodTable`, so interpretation,
JIT heat and allocation pressure all derive from stable per-app method
populations rather than ad-hoc constants.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class JavaMethod:
    """One Java method's dynamic profile."""

    name: str
    bytecodes: int
    #: Data references into dalvik-heap per invocation.
    heap_refs: int
    #: Data references onto the thread stack per invocation.
    stack_refs: int
    #: Data references into dalvik-LinearAlloc (method/class metadata).
    linear_refs: int
    #: Bytes allocated on the dalvik heap per invocation.
    alloc_bytes: int

    def __post_init__(self) -> None:
        if self.bytecodes <= 0:
            raise ValueError(f"method {self.name!r} has no bytecodes")


def make_method(
    name: str,
    bytecodes: int,
    alloc_bytes: int = 0,
    heap_factor: float = 4.2,
    stack_factor: float = 2.4,
    linear_factor: float = 0.5,
) -> JavaMethod:
    """Build a method whose reference mix scales with its bytecode count."""
    return JavaMethod(
        name=name,
        bytecodes=bytecodes,
        heap_refs=max(int(bytecodes * heap_factor), 1),
        stack_refs=max(int(bytecodes * stack_factor), 1),
        linear_refs=max(int(bytecodes * linear_factor), 0),
        alloc_bytes=alloc_bytes,
    )


class MethodTable:
    """A seeded population of methods for one application."""

    def __init__(self, methods: list[JavaMethod], rng: random.Random) -> None:
        if not methods:
            raise ValueError("method table cannot be empty")
        self.methods = methods
        self._rng = rng
        # Zipf-ish popularity: method i gets weight 1/(i+1).
        self._weights = [1.0 / (i + 1) for i in range(len(methods))]

    @classmethod
    def generate(
        cls,
        seed: int,
        prefix: str,
        count: int = 60,
        avg_bytecodes: int = 320,
        alloc_fraction: float = 0.5,
    ) -> "MethodTable":
        """Generate *count* methods with log-normal-ish bytecode sizes."""
        rng = random.Random(seed)
        methods: list[JavaMethod] = []
        for i in range(count):
            size = max(int(rng.lognormvariate(0.0, 0.75) * avg_bytecodes), 24)
            alloc = 0
            if rng.random() < alloc_fraction:
                alloc = rng.choice((32, 64, 96, 128, 256, 512, 1_024, 2_048))
            methods.append(make_method(f"{prefix}.m{i:03d}", size, alloc))
        return cls(methods, rng)

    def pick(self) -> JavaMethod:
        """Draw one method following the popularity distribution."""
        return self._rng.choices(self.methods, weights=self._weights, k=1)[0]

    def pick_batch(self, n: int) -> list[JavaMethod]:
        """Draw *n* methods (with repetition)."""
        return self._rng.choices(self.methods, weights=self._weights, k=n)

    def __len__(self) -> int:
        return len(self.methods)
