"""Program container: a flat instruction image with resolved labels.

Instructions occupy 4 bytes each starting at ``base`` (default 0x1000, leaving
low memory free for the data segment the workloads allocate).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from ..errors import ExecutionError
from .instructions import Instruction

INSTRUCTION_BYTES = 4
DEFAULT_TEXT_BASE = 0x1000


@dataclass
class Program:
    """An assembled program: instruction list + label map."""

    instructions: list[Instruction]
    labels: dict[str, int] = field(default_factory=dict)
    base: int = DEFAULT_TEXT_BASE
    source: str | None = None

    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    @property
    def end(self) -> int:
        """First address past the last instruction."""
        return self.base + len(self.instructions) * INSTRUCTION_BYTES

    def addr_of(self, label: str) -> int:
        try:
            return self.labels[label]
        except KeyError:
            raise KeyError(f"unknown label {label!r}") from None

    def contains(self, addr: int) -> bool:
        return self.base <= addr < self.end and (addr - self.base) % INSTRUCTION_BYTES == 0

    def index_of(self, addr: int) -> int:
        if not self.contains(addr):
            raise ExecutionError(f"address 0x{addr:x} is not inside the text segment")
        return (addr - self.base) // INSTRUCTION_BYTES

    def instr_at(self, addr: int) -> Instruction:
        return self.instructions[self.index_of(addr)]

    def disassemble(self) -> str:
        """Render the program back to canonical assembly text."""
        addr_to_labels: dict[int, list[str]] = {}
        for name, addr in self.labels.items():
            addr_to_labels.setdefault(addr, []).append(name)
        lines: list[str] = []
        for i, instr in enumerate(self.instructions):
            addr = self.base + i * INSTRUCTION_BYTES
            for name in sorted(addr_to_labels.get(addr, ())):
                lines.append(f"{name}:")
            lines.append(f"    {instr}")
        return "\n".join(lines) + "\n"
