/**
 * @file
 * Detailed out-of-order CPU model (the DerivO3CPU equivalent).
 *
 * Pipeline: fetch (with branch prediction and timed I-cache/ITLB) ->
 * decode/rename (explicit register renaming onto a physical register
 * file with a free list) -> issue (event-driven issue queue woken by
 * register writes, FU pool, LSQ with store-to-load forwarding) ->
 * commit (in-order, trains the branch predictor, retires stores to
 * memory, delivers traps). All windows are fixed-capacity rings.
 *
 * Configuration defaults mirror Table 4.1 of the paper: 192-entry
 * ROB, 32+32 LSQ, 256 physical integer registers.
 */

#ifndef SVB_CPU_O3_CPU_HH
#define SVB_CPU_O3_CPU_HH

#include <cstdint>
#include <vector>

#include "base_cpu.hh"
#include "branch_pred.hh"
#include "stall_cause.hh"

namespace svb
{

/** O3 pipeline geometry. */
struct O3Params
{
    unsigned fetchWidth = 4;
    unsigned renameWidth = 4;
    unsigned issueWidth = 4;
    unsigned commitWidth = 4;
    unsigned robEntries = 192;
    unsigned iqEntries = 64;
    unsigned lqEntries = 32;
    unsigned sqEntries = 32;
    unsigned numPhysIntRegs = 256;
    unsigned fetchBufferEntries = 16;
    Cycles frontendDelay = 4;   ///< fetch-to-rename depth
    unsigned intAluUnits = 3;
    unsigned intMultUnits = 1;
    unsigned memPorts = 2;
    Cycles intAluLat = 1;
    Cycles intMultLat = 3;
    Cycles intDivLat = 20;
    Cycles forwardLat = 2;      ///< store-to-load forwarding latency
    BranchPredParams bp;
};

/**
 * A fixed-capacity FIFO window addressed by absolute position.
 * Positions only grow (a squash rewinds the tail), and the slot
 * storage is a power of two allocated once, so a position maps to
 * its slot with a mask and nothing is allocated per entry.
 */
template <typename T>
class Ring
{
  public:
    /** Empty the ring. Storage holds at least @p capacity slots, and
     *  at least 64 so that per-slot bitmaps are whole words; it is
     *  only allocated the first time. */
    void
    reset(unsigned capacity)
    {
        size_t n = 64;
        while (n < capacity)
            n <<= 1;
        if (slots.size() != n)
            slots.assign(n, T{});
        mask = n - 1;
        head = tail = 0;
    }

    uint64_t begin() const { return head; }
    uint64_t end() const { return tail; }
    unsigned size() const { return unsigned(tail - head); }
    bool empty() const { return head == tail; }
    unsigned storage() const { return unsigned(slots.size()); }
    unsigned slotOf(uint64_t pos) const { return unsigned(pos & mask); }
    T &at(uint64_t pos) { return slots[pos & mask]; }
    const T &at(uint64_t pos) const { return slots[pos & mask]; }
    T &front() { return at(head); }
    const T &front() const { return at(head); }
    T &back() { return at(tail - 1); }
    /** Append; the returned slot still holds its previous occupant. */
    T &pushBack() { return at(tail++); }
    void popFront() { ++head; }
    void popBack() { --tail; }
    void clear() { head = tail; }

  private:
    std::vector<T> slots;
    uint64_t mask = 0;
    uint64_t head = 0;
    uint64_t tail = 0;
};

/**
 * The out-of-order core.
 */
class O3Cpu final : public BaseCpu
{
  public:
    O3Cpu(const O3Params &params, int core_id, IsaId isa, PhysMemory &phys,
          CoreMemSystem &mem, DecodeCache &decoder, TrapHandler &trap,
          StatGroup &stats);

    void tick() override;

    void setContext(const HwContext &new_ctx) override;
    HwContext getContext() const override;

    uint64_t cycleCount() const { return statCycles.value(); }
    uint64_t instCount() const { return statInsts.value(); }
    BranchPredictor &branchPredictor() { return bp; }

    /**
     * The number of coming ticks that can only count a cycle and one
     * stall cause: ~0 while halted (each tick counts an idle cycle);
     * with the ROB, fetch queue and wakeup heap empty, the ticks before
     * fetch resumes at fetchStallUntil (a trap stall, or an I-cache or
     * ITLB miss); otherwise 0. See DESIGN.md, "Quiet cores".
     */
    uint64_t
    quietCycles() const
    {
        if (ctx.halted)
            return ~uint64_t(0);
        if (!rob.empty() || !fetchQueue.empty() || !wakeups.empty() ||
            !fetchEnabled || fetchStallUntil <= cycle + 1)
            return 0;
        return fetchStallUntil - cycle - 1;
    }

    /**
     * Credit @p n cycles exactly as @p n calls of tick() would, with
     * @p n at most quietCycles(). The run loop credits its quiet cores
     * this way instead of ticking them (see System::run()).
     */
    void addQuietCycles(uint64_t n);

  private:
    /** One in-flight micro-op, living in its ROB slot. */
    struct DynInst
    {
        /** ROB position: program order among in-flight uops. */
        uint64_t pos = 0;
        MicroOp uop;
        const StaticInst *sinst = nullptr;
        Addr pc = 0;
        uint8_t instLen = 0;
        bool lastUop = false;

        // Rename.
        int pdst = -1;
        int psrc1 = -1;
        int psrc2 = -1;
        int oldPdst = -1;
        int archDst = -1;

        // Status.
        bool executed = false;
        bool inIq = false;
        /** Bit k set: still on the waiter list of source k. */
        uint8_t waiting = 0;
        Cycles completeAt = 0;

        // Memory.
        bool faulted = false;
        bool addrReady = false;
        Addr effPaddr = 0;
        uint64_t storeData = 0;

        // Control.
        bool hasPred = false;
        Addr predNext = 0;
        bool actualTaken = false;
        Addr actualNext = 0;
    };

    struct FetchEntry
    {
        Addr pc = 0;
        const StaticInst *inst = nullptr;
        bool hasPred = false;
        Addr predNext = 0;
        Cycles readyAt = 0;
    };

    /** An IQ entry whose operands are ready from cycle @ref at on. */
    struct Wakeup
    {
        Cycles at = 0;
        uint64_t pos = 0; ///< ROB position

        bool operator>(const Wakeup &o) const { return at > o.at; }
    };

    /** How an issue attempt ended. */
    enum class Issue { Done, Retry, Park };

    // --- pipeline stages (called youngest-last each tick) ---------------
    void commitStage();
    void issueStage();
    void renameStage();
    void fetchStage();

    /** Book the finished cycle onto exactly one stall-cause counter. */
    void accountCycle();

    // --- helpers ---------------------------------------------------------
    Issue tryIssue(DynInst &d, unsigned &alu_used, unsigned &mult_used,
                   unsigned &mem_used);
    void executeUop(DynInst &d, Cycles lat);
    Issue issueLoad(DynInst &d);
    /** Squash every uop younger than ROB position @p pos. */
    void squashAfter(uint64_t pos);
    void redirectFetch(Addr new_pc, Cycles delay);
    void deliverTrap(DynInst &d);
    uint64_t readPhys(int preg) const { return physRegs[size_t(preg)]; }

    // --- event-driven issue (see DESIGN.md "O3 issue scheduling") --------
    /** Put a renamed uop on the waiter lists of its unwritten sources,
     *  or straight into the schedule when it has none. */
    void enterIq(DynInst &d);
    /** Schedule a uop whose sources are all written. */
    void scheduleReady(const DynInst &d);
    /** Write a physical register and wake everything waiting on it. */
    void writeReg(int preg, uint64_t value, Cycles ready_at);
    /** A store learnt its address: advance the oldest-unready-store
     *  mark and release the parked loads it no longer blocks. */
    void storeAddressKnown();
    /** First ROB position >= @p pos whose bit is set in @p bits, or
     *  the ROB end. */
    uint64_t nextSet(const std::vector<uint64_t> &bits, uint64_t pos) const;
    void setBit(std::vector<uint64_t> &bits, uint64_t pos);
    void clearBit(std::vector<uint64_t> &bits, uint64_t pos);

    O3Params p;
    BranchPredictor bp;

    // Rename state.
    std::vector<int> renameMap;
    std::vector<int> committedMap;
    std::vector<int> freeList;
    std::vector<uint64_t> physRegs;
    std::vector<Cycles> regReadyAt;

    // Windows: fixed-capacity rings; the LQ and SQ hold ROB positions.
    Ring<DynInst> rob;
    Ring<uint64_t> loadQueue;
    Ring<uint64_t> storeQueue;
    Ring<FetchEntry> fetchQueue;
    unsigned iqCount = 0;

    // Issue scheduling. Waiter lists are intrusive, youngest first:
    // node 2*slot+k is source k of the uop in ROB slot `slot`.
    std::vector<int> waitHead;   ///< per physical register, -1 = none
    std::vector<int> waitNext;   ///< per node: next older waiter
    std::vector<Wakeup> wakeups; ///< min-heap on Wakeup::at
    std::vector<uint64_t> readyBits;  ///< per ROB slot: may issue now
    std::vector<uint64_t> parkedBits; ///< per ROB slot: load parked
    /** SQ position of the oldest store without an address (SQ end if
     *  none): a load younger than it must wait. */
    uint64_t sqUnready = 0;

    // Fetch state.
    Addr fetchPc = 0;
    bool fetchEnabled = false;
    Cycles fetchStallUntil = 0;
    Addr lastFetchLine = ~Addr(0);

    Cycles cycle = 0;
    Cycles divBusyUntil = 0;
    Cycles commitStallUntil = 0;

    // Per-cycle stall attribution scratch state (reset every tick).
    /** Why commit made no progress this cycle, observed at its head. */
    enum class CommitBlock { None, Trap, RobEmpty, HeadMem, HeadExec };
    /** Which resource blocked rename this cycle, if any. */
    enum class RenameStall { None, Rob, Iq, Lsq, Regs };
    unsigned commitsThisCycle = 0;
    CommitBlock commitBlock = CommitBlock::None;
    RenameStall renameStall = RenameStall::None;
    /** At the (empty-ROB) commit attempt, was the frontend in flight? */
    bool frontendInFlight = false;

    // Statistics.
    Scalar &statCycles;
    Scalar &statIdleCycles;
    Scalar &statInsts;
    Scalar &statUops;
    Scalar &statLoads;
    Scalar &statStores;
    Scalar &statBranches;
    Scalar &statCondBranches;
    Scalar &statMispredicts;
    Scalar &statSquashedUops;
    Scalar &statRobFullStalls;
    Scalar &statIqFullStalls;
    Scalar &statLsqFullStalls;
    Scalar &statFwdLoads;
    /** Per-cycle attribution vector; sums to statCycles by design. */
    Scalar *statStallCycles[numStallCauses];
};

} // namespace svb

#endif // SVB_CPU_O3_CPU_HH
