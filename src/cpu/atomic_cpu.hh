/**
 * @file
 * Atomic (functional) CPU model.
 *
 * One macro instruction per cycle, instantaneous memory. Used for
 * system boot, functional cache warming between the measured requests
 * (vSwarm-u "setup mode"), and QEMU-style emulation studies.
 *
 * Two execution engines share the architectural semantics:
 *  - tick(): the per-instruction oracle (fetch, translate, decode
 *    cache lookup, uop interpretation) — one cycle per call.
 *  - runFast(): the superblock fast path, a threaded-dispatch
 *    interpreter over pre-lowered uop arrays (cpu/superblock.hh) that
 *    caches the instruction-page translation and batches statistic
 *    updates. The run loop calls it for a chained batch of many
 *    cycles when this is the only acting core, and for one cycle at a
 *    time when it acts in lockstep with other cores. Architectural
 *    state, warming traffic, TLB/trap behavior and every StatGroup
 *    value stay byte-identical to tick(); only host speed differs.
 */

#ifndef SVB_CPU_ATOMIC_CPU_HH
#define SVB_CPU_ATOMIC_CPU_HH

#include <array>

#include "base_cpu.hh"
#include "sim/logging.hh"

namespace svb
{

class SuperblockCache;
struct Superblock;

/**
 * The AtomicSimpleCPU-equivalent model.
 */
class AtomicCpu final : public BaseCpu
{
  public:
    AtomicCpu(int core_id, IsaId isa, PhysMemory &phys, CoreMemSystem &mem,
              DecodeCache &decoder, TrapHandler &trap, StatGroup &stats,
              SuperblockCache &sblocks);

    void tick() override;

    /**
     * Superblock execution of an acting core (quietCycles() == 0): run
     * up to @p budget cycles without returning to the run loop,
     * ending early at any trap (syscall / halt, after whose handler
     * the caller must re-evaluate scheduling). Nothing executed here
     * changes another core, so the caller bounds @p budget by the run
     * limit and by the end of every other core's stall. Statistics are
     * flushed before returning, so callers may interleave one-cycle
     * calls freely with tick() and with other cores.
     *
     * @return cycles consumed (>= 1 when budget >= 1)
     */
    uint64_t runFast(uint64_t budget);

    /** When false, skip cache/TLB warming entirely (fast boot). */
    void setWarmingEnabled(bool enabled) { warming = enabled; }

    uint64_t instCount() const { return statInsts.value(); }
    uint64_t cycleCount() const { return statCycles.value(); }

    /** Dump the recent pc history (fault diagnostics). */
    void dumpHistory() const;

    /** Trap-cost cycles still to burn — checkpointed so a restored run
     *  resumes mid-stall exactly like the uninterrupted one. */
    Cycles stallCycles() const { return pendingStall; }
    void setStallCycles(Cycles c) { pendingStall = c; }

    /** Import state and drop the superblock cursor (the cached
     *  instruction-page translation is no longer valid). */
    void
    setContext(const HwContext &new_ctx) override
    {
        BaseCpu::setContext(new_ctx);
        resetFastPath();
    }

    /**
     * Invalidate the superblock cursor. Must be called whenever the
     * iTLB is flushed behind the engine's back (microarch flush): the
     * fast path credits guaranteed same-page hits mid-block, which is
     * only equivalent to per-instruction translation while the
     * block-entry fill is still resident.
     */
    void
    resetFastPath()
    {
        curBlock = nullptr;
        curInst = 0;
        curFrame = 0;
        curVpage = 0;
    }

    /** The number of coming ticks that can only count a cycle: ~0
     *  while halted, else the stallCycles() left to burn. */
    uint64_t
    quietCycles() const
    {
        return ctx.halted ? ~uint64_t(0) : pendingStall;
    }

    /**
     * Credit @p n cycles in which this core cannot act — it is halted,
     * or burning stallCycles() — exactly as @p n calls of tick() would.
     * The run loop credits its quiet cores this way instead of ticking
     * them (see System::run()).
     */
    void
    addQuietCycles(uint64_t n)
    {
        if (ctx.halted) {
            statIdleCycles += n;
            return;
        }
        svb_assert(n <= pendingStall, "core ", coreId, " credited ", n,
                   " quiet cycles with ", pendingStall, " left to stall");
        statCycles += n;
        pendingStall -= Cycles(n);
    }

  private:
    void recordPc(Addr pc);

    /** Leave for the trap handler of a syscall (@p syscall) or halt
     *  at the current instruction, resuming at @p next_pc; the current
     *  call into the core has consumed @p call_cycles. */
    void takeTrap(bool syscall, Addr next_pc, uint64_t call_cycles);

    SuperblockCache &sblocks;

    bool warming = true;
    Cycles pendingStall = 0; ///< trap-cost cycles still to burn
    std::array<Addr, 64> pcHistory{};
    size_t pcHistoryPos = 0;  ///< next slot to write (oldest entry)
    bool pcHistoryFull = false;

    // Superblock cursor: position of the next instruction inside the
    // current block, valid across calls until a control transfer, a
    // trap, a block end, or a context import.
    const Superblock *curBlock = nullptr;
    uint32_t curInst = 0;
    Addr curFrame = 0; ///< physical page base of the block's code page
    Addr curVpage = 0; ///< virtual page base backing the cursor

    Scalar &statCycles;
    Scalar &statInsts;
    Scalar &statUops;
    Scalar &statBranches;
    Scalar &statLoads;
    Scalar &statStores;
    Scalar &statIdleCycles;
};

} // namespace svb

#endif // SVB_CPU_ATOMIC_CPU_HH
