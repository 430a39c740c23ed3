/**
 * @file
 * Common base of the CPU models.
 *
 * Thread-safety: instance-scoped, like all of cpu/ (CPUs, TLBs,
 * branch predictors, the DecodeCache). Every object hangs off one
 * System and is driven by the single thread running that System's
 * experiment (core/parallel.hh); there is no cross-instance state.
 */

#ifndef SVB_CPU_BASE_CPU_HH
#define SVB_CPU_BASE_CPU_HH

#include <functional>

#include "decode_cache.hh"
#include "hw_context.hh"
#include "isa/isa_info.hh"
#include "mem/hierarchy.hh"
#include "mem/phys_memory.hh"
#include "sim/stats.hh"
#include "tlb.hh"

namespace svb
{

/**
 * Base CPU: owns the architectural context, the TLBs and the ties to
 * the memory system and the guest kernel.
 */
class BaseCpu
{
  public:
    /**
     * @param core_id core index in the system
     * @param isa     guest ISA executed by this core
     * @param phys    functional memory
     * @param mem     this core's cache hierarchy
     * @param decoder shared decode cache for this ISA
     * @param trap    the guest kernel's trap interface
     * @param stats   parent stat group
     * @param name    stat subgroup name (e.g. "o3cpu0")
     */
    BaseCpu(int core_id, IsaId isa, PhysMemory &phys, CoreMemSystem &mem,
            DecodeCache &decoder, TrapHandler &trap, StatGroup &stats,
            const std::string &name)
        : coreId(core_id), isa(isa), isaDesc(isaInfo(isa)), phys(phys),
          mem(mem), decoder(decoder), trap(trap),
          group(stats.childGroup(name)),
          itlbUnit(TlbParams{"itlb", 64, 1024}, group),
          dtlbUnit(TlbParams{"dtlb", 64, 1024}, group)
    {}

    virtual ~BaseCpu() = default;

    /** Advance the core by one clock cycle. */
    virtual void tick() = 0;

    /** Import architectural state (mode switch / scheduler). */
    virtual void setContext(const HwContext &new_ctx)
    {
        ctx = new_ctx;
        itlbUnit.flush();
        dtlbUnit.flush();
    }

    /** Export the committed architectural state. */
    virtual HwContext getContext() const { return ctx; }

    bool halted() const { return ctx.halted; }
    int id() const { return coreId; }
    Tlb &itlb() { return itlbUnit; }
    Tlb &dtlb() { return dtlbUnit; }

    /**
     * Invoked just before every trap handler runs, with the number of
     * cycles the current call into the core has consumed, the trapping
     * one included. The system uses it to bring the global cycle and
     * the quiet cores' statistics up to date, because trap handlers
     * can observe both (m5 stat resets, work-begin/end marks).
     */
    using PreTrap = std::function<void(uint64_t call_cycles)>;
    void setPreTrap(PreTrap hook) { preTrap = std::move(hook); }

  protected:
    int coreId;
    IsaId isa;
    const IsaInfo &isaDesc;
    PhysMemory &phys;
    CoreMemSystem &mem;
    DecodeCache &decoder;
    TrapHandler &trap;
    StatGroup &group;
    Tlb itlbUnit;
    Tlb dtlbUnit;
    HwContext ctx;
    PreTrap preTrap;
};

} // namespace svb

#endif // SVB_CPU_BASE_CPU_HH
