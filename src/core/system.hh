/**
 * @file
 * The simulated platform: memory, cores, kernel, and run control.
 *
 * A System is the gem5-full-system equivalent: it owns the physical
 * memory, the cache hierarchies, one Atomic and one O3 CPU per core
 * (switchable, as in the vSwarm-u setup/evaluation methodology), and
 * the guest kernel.
 */

#ifndef SVB_CORE_SYSTEM_HH
#define SVB_CORE_SYSTEM_HH

#include <memory>

#include "cpu/atomic_cpu.hh"
#include "cpu/o3_cpu.hh"
#include "cpu/superblock.hh"
#include "guest/kernel.hh"
#include "system_config.hh"

namespace svb
{

/** Which CPU model currently drives a core. */
enum class CpuModel { Atomic, O3 };

/**
 * One simulated machine.
 */
class System : public M5Listener
{
  public:
    explicit System(const SystemConfig &config);

    // --- accessors ---------------------------------------------------------
    const SystemConfig &config() const { return cfg; }
    PhysMemory &phys() { return *physMem; }
    FrameAllocator &frames() { return *frameAlloc; }
    GuestKernel &kernel() { return *guestKernel; }
    StatGroup &stats() { return rootStats; }
    AtomicCpu &atomicCpu(unsigned core) { return *atomics.at(core); }
    O3Cpu &o3Cpu(unsigned core) { return *o3s.at(core); }
    BaseCpu &cpu(unsigned core);
    uint64_t cycle() const { return globalCycle; }
    SuperblockCache &superblocks() { return *sblocks; }

    /** True when Atomic-model cores run through the superblock tier
     *  (config AND SVBENCH_FASTWARM both enabled). */
    bool fastPathEnabled() const { return fastWarm; }

    /** True when checkpoint restores may take the working-set-aware
     *  lazy path (config AND SVBENCH_REAP both enabled). */
    bool reapEnabled() const { return reapRestore; }

    /**
     * Re-decode every cached instruction and re-form every cached
     * superblock from current guest memory (a test-facing check).
     * The fast tier lowers fresh bytes while O3 and the per-cycle
     * oracle read cached decodes, so the two agree only while guest
     * code is immutable.
     *
     * @return cached instructions plus blocks that differ, field by
     *         field, from their fresh form (0 for immutable code)
     */
    size_t decodedCodeMismatches() const;

    // --- CPU control --------------------------------------------------------
    /** Hand the core's architectural state to the other CPU model. */
    void switchCpu(unsigned core, CpuModel model);

    /** Put runnable processes onto idle cores. */
    void scheduleIdleCores();

    /** Drop all cached microarchitectural state (cold start). */
    void flushMicroarchState();

    // --- execution -----------------------------------------------------------
    /**
     * Run for at most @p max_cycles; stops early when requestStop() is
     * called or every core is halted. run(1) advances exactly one
     * cycle.
     *
     * @return cycles actually run
     */
    uint64_t run(uint64_t max_cycles);

    /** True when no core can run: every core is halted. */
    bool allHalted() const;

    /** Ask the run loop to return at the end of the current cycle. */
    void requestStop() { stopRequested = true; }

    // --- magic-operation plumbing ---------------------------------------------
    /** Install the downstream listener (the experiment harness). */
    void setM5Listener(M5Listener *listener) { chainedListener = listener; }

    void m5Op(int core_id, uint64_t op, uint64_t arg) override;

    // --- checkpointing ----------------------------------------------------------
    /**
     * Serialise the full functional state. Every core must currently
     * run its Atomic CPU (detailed state is not checkpointable, as in
     * gem5).
     *
     * With @p include_uarch the warm microarchitectural state rides
     * along too: caches, TLBs, DRAM open rows, trained branch
     * predictors and in-flight atomic-CPU stall cycles. Such a
     * snapshot restores to a machine byte-identical to the one it was
     * taken on, so measurements after a restore match an uninterrupted
     * run exactly.
     */
    Checkpoint saveCheckpoint(bool include_uarch = false) const;

    /**
     * Restore a checkpoint taken on an identically built system.
     * Checkpoints without microarchitectural state (the default above)
     * flush caches/TLBs/predictors afterwards; checkpoints carrying it
     * restore that warm state instead. Restore must happen on a
     * freshly built system (detailed-CPU structures in their
     * constructed state; cycle 0 and empty decode and superblock
     * caches are asserted), which the cluster's restore path
     * guarantees.
     *
     * With a non-null @p image (the CheckpointStore's shared page
     * image of @p cp) and reapEnabled(), guest memory restores
     * working-set-aware: the recorded working set is prefetched and
     * the remaining snapshot pages materialise copy-on-write on first
     * touch — byte-identical guest state either way.
     */
    void restoreCheckpoint(const Checkpoint &cp,
                           std::shared_ptr<const PageImage> image = nullptr);

  private:
    /** One step of run(), at most @p limit cycles, under the
     *  quiet-core rule: a jump, a chained batch or a lockstep.
     *  @return cycles advanced (>= 1) */
    uint64_t step(uint64_t limit);

    /** The lockstep: tick the acting cores, in core order, cycle by
     *  cycle for at most @p n cycles, ending early after a trap cycle
     *  or a cycle in which an acting core went quiet.
     *  @return cycles advanced */
    uint64_t tickActing(uint64_t n);

    /** Credit quiet core @p c through global cycle @p to. */
    void creditQuietCore(unsigned c, uint64_t to);

    /** The pre-trap hook of core @p trapper, whose current call has
     *  consumed @p call_cycles: set the global cycle to the trapping
     *  one and bring the quiet cores' statistics to what the
     *  per-cycle oracle shows that handler. */
    void settleQuietCores(unsigned trapper, uint64_t call_cycles);

    SystemConfig cfg;
    StatGroup rootStats{"system"};

    std::unique_ptr<PhysMemory> physMem;
    std::unique_ptr<FrameAllocator> frameAlloc;
    std::unique_ptr<DramCtrl> dram;
    CoherenceBus bus;
    std::vector<std::unique_ptr<CoreMemSystem>> coreMems;
    std::unique_ptr<DecodeCache> decoder;
    std::unique_ptr<SuperblockCache> sblocks;
    std::unique_ptr<GuestKernel> guestKernel;
    std::vector<std::unique_ptr<AtomicCpu>> atomics;
    std::vector<std::unique_ptr<O3Cpu>> o3s;
    std::vector<CpuModel> models;

    uint64_t globalCycle = 0;
    /** The global cycle before the current call into a core. */
    uint64_t callStart = 0;
    /** Marks a core that the current step runs instead of crediting. */
    static constexpr uint64_t actingCore = ~uint64_t(0);
    /** Per core, in the current step: the global cycle through which a
     *  quiet core's statistics stand, or actingCore. */
    std::vector<uint64_t> creditedTo;
    bool trapped = false; ///< a trap was settled in this step
    bool fastWarm = true;
    bool reapRestore = true;
    bool stopRequested = false;
    M5Listener *chainedListener = nullptr;
};

} // namespace svb

#endif // SVB_CORE_SYSTEM_HH
