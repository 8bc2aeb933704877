"""The CPU interpreter with precise, restartable faults.

:meth:`Cpu.step` executes one instruction, or, given a budget, one
translated block of up to that many instructions. Both execution tiers
are generated from the semantics table in :mod:`repro.hw.isa` (see
:mod:`repro.hw.translate`). All memory accesses go through the attached
:class:`~repro.vm.AddressSpace`; a :class:`~repro.vm.PageFaultError`
propagates out of ``step`` with the PC at the faulting instruction and
only the instructions before it counted, so the kernel can run a
user-level fault handler and simply re-execute the instruction — the
mechanism Hemlock's lazy linking and pointer chasing depend on.

Traps (syscall, break, divide-by-zero) are also raised as exceptions; the
kernel services them and advances the PC itself.
"""

from __future__ import annotations

import struct
from typing import List, Optional

from repro.errors import (
    AlignmentError,
    ExecutionBudgetExceeded,
    InvalidInstructionError,
)
from repro.hw import isa, translate
from repro.hw.isa import ArithmeticTrap, BreakTrap, SyscallTrap, Trap
from repro.vm.address_space import PROT_EXEC, AddressSpace
from repro.vm.layout import PAGE_SHIFT, PAGE_SIZE

__all__ = ["Cpu", "Trap", "SyscallTrap", "BreakTrap", "ArithmeticTrap",
           "HOT_ENTRIES"]

_WORD = struct.Struct("<I")
_PAGE_MASK = PAGE_SIZE - 1
_MASK32 = 0xFFFFFFFF

#: Budgeted re-entries into a cached instruction before the
#: straight-line run it leads is translated into a block. Code that runs
#: a handful of times (the link-bound fanout workload runs each block
#: about once) never pays for the translation.
HOT_ENTRIES = 16


class _Decoded:
    """One ``Frame.decode`` entry: a decoded instruction and, once it has
    been re-entered :data:`HOT_ENTRIES` times with a budget, the
    translated block it leads (None while cold, and for good if the run
    is too short to be worth one).

    The handler and fields do not depend on where the frame is mapped;
    the block does (its PCs are literals), so ``block_pc`` records the
    address it was compiled for. A frame mapped executable at two
    addresses swaps in the other address's block when entered there.
    """

    __slots__ = ("handler", "fields", "heat", "block", "block_pc")

    def __init__(self, word: int) -> None:
        self.handler, self.fields = translate.decode(word)
        self.heat = HOT_ENTRIES
        self.block = None
        self.block_pc = None


class Cpu:
    """One simulated processor context.

    Register state lives here; memory lives in the attached address
    space, which the kernel swaps on context switch along with the
    register file (see :mod:`repro.kernel.process`).
    """

    def __init__(self, address_space: Optional[AddressSpace] = None) -> None:
        self.regs: List[int] = [0] * 32
        self.pc = 0
        self.address_space = address_space
        self.instructions_executed = 0
        # Decoded-instruction cache traffic (the caches themselves live
        # on the frames; see repro.vm.pages.Frame.decode).
        self.decode_hits = 0
        self.decode_misses = 0

    # ------------------------------------------------------------------
    # register helpers
    # ------------------------------------------------------------------

    def get_reg(self, index: int) -> int:
        return self.regs[index]

    def set_reg(self, index: int, value: int) -> None:
        if index != isa.REG_ZERO:
            self.regs[index] = value & _MASK32

    def snapshot_regs(self) -> List[int]:
        return list(self.regs)

    def restore_regs(self, saved: List[int]) -> None:
        self.regs[:] = saved

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def step(self, budget: int = 1) -> None:
        """Execute one instruction, or one translated block of at most
        *budget* instructions.

        Raises :class:`PageFaultError` with the PC still pointing at the
        faulting instruction (instructions before it in the block have
        completed), or a :class:`Trap` for syscall/break/divide faults.
        On normal completion the PC has advanced. With the default
        budget of 1 this is the plain interpreter.
        """
        space = self.address_space
        if space is None:
            raise InvalidInstructionError(self.pc, 0)
        pc = self.pc
        if pc & 3:
            raise AlignmentError(pc, 4)
        entry = space.tlb.get(pc >> PAGE_SHIFT)
        if entry is None or not entry[1] & PROT_EXEC:
            handler, fields = translate.decode(space.fetch_word(pc))
        else:
            # TLB hit on an executable page: fetch straight from the
            # frame and reuse (or fill) its decoded-instruction cache.
            frame = entry[2]
            if space.smp is not None:
                # SMP shadow bookkeeping: this core now holds decoded
                # instructions of this frame, so a cross-core store to
                # it must be accounted as a decode shootdown.
                frame.decode_cores.add(space.core)
            offset = pc & _PAGE_MASK
            decoded = frame.decode.get(offset)
            if decoded is None:
                decoded = frame.decode[offset] = _Decoded(
                    _WORD.unpack_from(entry[0], offset)[0])
                self.decode_misses += 1
            else:
                if budget > 1:
                    block = decoded.block
                    if block is None:
                        decoded.heat -= 1
                        if not decoded.heat:
                            block = self._translate(space, entry, pc,
                                                    decoded)
                    elif decoded.block_pc != pc:
                        block = self._translate(space, entry, pc, decoded)
                    if block is not None:
                        block(self, space, budget)
                        return
                self.decode_hits += 1
            space.tlb_hits += 1
            handler = decoded.handler
            fields = decoded.fields
        self.pc = handler(self, space, pc, fields)
        self.instructions_executed += 1

    @staticmethod
    def _translate(space: AddressSpace, entry, pc: int, decoded: _Decoded):
        """Attach to *decoded* the block its instruction at *pc* leads,
        from the boot's translation cache or freshly compiled; None if
        the run is shorter than two instructions."""
        offset = pc & _PAGE_MASK
        length = translate.block_length(entry[0], offset)
        if length < 2:
            return None
        words = bytes(entry[0][offset: offset + 4 * length])
        cache = space.physmem.translations
        block = cache.get((pc, words))
        if block is None:
            block = cache[(pc, words)] = translate.compile_block(words, pc)
        decoded.block = block
        decoded.block_pc = pc
        return block

    def run(self, max_instructions: int = 1_000_000) -> None:
        """Step until a trap or fault propagates, or the budget runs out.

        Convenience for bare-metal tests that run without a kernel.
        """
        for _ in range(max_instructions):
            self.step()
        raise ExecutionBudgetExceeded(
            f"no trap within {max_instructions} instructions "
            f"(pc=0x{self.pc:08x})"
        )
