/**
 * @file
 * The lightweight guest kernel.
 *
 * Stands in for the Linux layer of the paper's stack: it owns the
 * process table, runs a cooperative per-core round-robin scheduler,
 * and implements the syscall ABI (exit/yield/m5/log). Context switches
 * charge a fixed trap cost and, via ptRoot changes, flush the TLBs.
 *
 * Thread-safety: instance-scoped, like all of guest/ (kernel, address
 * spaces, loader, rings). One GuestKernel per System, driven by that
 * System's single experiment thread (core/parallel.hh).
 */

#ifndef SVB_GUEST_KERNEL_HH
#define SVB_GUEST_KERNEL_HH

#include <deque>
#include <memory>
#include <vector>

#include "isa/isa_info.hh"
#include "process.hh"
#include "sim/serialize.hh"
#include "sim/stats.hh"
#include "syscall_abi.hh"

namespace svb
{

/** Receiver of guest magic (M5) operations. */
class M5Listener
{
  public:
    virtual ~M5Listener() = default;

    /** Called when a guest issues sysM5. */
    virtual void m5Op(int core_id, uint64_t op, uint64_t arg) = 0;
};

/**
 * The guest kernel; implements the CPUs' TrapHandler.
 */
class GuestKernel : public TrapHandler
{
  public:
    /** Trap/scheduling costs, in cycles. */
    struct Costs
    {
        Cycles syscall = 60;        ///< kernel entry/exit
        Cycles contextSwitch = 350; ///< save/restore + scheduler
        Cycles m5 = 1;              ///< magic ops are nearly free
    };

    GuestKernel(PhysMemory &phys, FrameAllocator &frames, IsaId isa,
                int num_cores, StatGroup &stats);

    // --- process management ---------------------------------------------
    /** Create a process (empty address space) pinned to @p core. */
    Process &createProcess(const std::string &name, int core);

    /** Mark a created process runnable at @p entry with @p stack_top. */
    void startProcess(int pid, Addr entry, Addr stack_top);

    Process &process(int pid);
    const Process &process(int pid) const;
    size_t numProcesses() const { return procs.size(); }

    /** Find a live process by name; -1 when absent. */
    int findProcess(const std::string &name) const;

    /**
     * Load the next runnable process onto an idle core.
     * @return true when a context was installed into @p ctx
     */
    bool scheduleCore(int core_id, HwContext &ctx);

    // --- TrapHandler -------------------------------------------------------
    Cycles handleSyscall(int core_id, HwContext &ctx) override;
    Cycles handleHalt(int core_id, HwContext &ctx) override;

    void setM5Listener(M5Listener *listener) { m5 = listener; }
    const Costs &costs() const { return cost; }

    void serializeState(const std::string &prefix, Checkpoint &cp) const;
    /** Rebuild the process table from @p cp: create every process
     *  past the current table; those that exist must match. */
    void unserializeState(const std::string &prefix, const Checkpoint &cp);

  private:
    /** Read the syscall number/args from @p ctx per the ISA ABI. */
    uint64_t sysReg(const HwContext &ctx, int which) const;
    void setResult(HwContext &ctx, uint64_t value) const;

    /** Save @p ctx into the running process and run the next one. */
    Cycles switchTo(int core_id, HwContext &ctx, bool requeue_current);

    PhysMemory &phys;
    FrameAllocator &frames;
    IsaId isa;
    Costs cost;
    M5Listener *m5 = nullptr;

    std::vector<std::unique_ptr<Process>> procs;
    std::vector<std::deque<int>> runQueues; ///< per core
    std::vector<int> runningPid;            ///< per core, -1 if idle
    uint64_t trapCounter = 0;

    Scalar &statSyscalls;
    Scalar &statYields;
    Scalar &statSwitches;
    Scalar &statExits;
};

} // namespace svb

#endif // SVB_GUEST_KERNEL_HH
