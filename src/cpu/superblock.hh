/**
 * @file
 * Superblock translation layer for the Atomic CPU fast path.
 *
 * A superblock lowers a straight-line run of macro instructions into
 * one flat, pre-classified micro-op array the threaded-dispatch
 * interpreter in AtomicCpu::runFast() can execute without
 * per-instruction decode-cache lookups. Formation decodes each
 * instruction straight from guest memory through the DecodeCache's
 * shared decode path and inserts nothing into that cache, which only
 * O3 fetch and the per-cycle oracle read. A block is a classic
 * superblock: single entry, multiple exits. Conditional branches stay
 * mid-block (the engine falls through while they are not taken and
 * side-exits when one is); formation stops at anything that always
 * transfers control (unconditional jump, syscall, halt), at an
 * undecodable instruction, when the next instruction's first byte
 * would leave the anchor's 4 KiB page (the slow path only translates
 * the first byte of each instruction, so a block never spans an iTLB
 * translation), or at a length cap.
 *
 * Blocks are keyed by the physical address of their first instruction,
 * so they are shared across virtual mappings of the same code page.
 * Guest code is immutable, so blocks are never invalidated;
 * System::decodedCodeMismatches() checks that after whole experiments
 * (test_experiment's fibonacci-go and hotel runs). Checkpoints carry
 * no blocks: a restored system starts with an empty cache and re-forms
 * blocks on first execution.
 *
 * Thread-safety: instance-scoped, like the DecodeCache it decodes
 * through.
 */

#ifndef SVB_CPU_SUPERBLOCK_HH
#define SVB_CPU_SUPERBLOCK_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "decode_cache.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace svb
{

/**
 * Dispatch class of one lowered micro-op. The hot ALU operations get
 * their own interpreter handler; everything else funnels through the
 * shared aluCompute()/branchEval() semantics so the fast path can
 * never drift from the slow path on the rare operations.
 */
enum class SbKind : uint8_t
{
    Add, Sub, And, Or, Xor, Sll, Srl, Sra, Slt, Sltu, Mul,
    MovImm, Auipc, CmpFlags,
    AluMisc,      ///< any other non-memory, non-control compute uop
    Load, Store,
    Control,      ///< all branch / jump uops
    Syscall, Halt, Nop,
};

/** Number of SbKind dispatch classes (table size for computed goto). */
constexpr size_t numSbKinds = size_t(SbKind::Nop) + 1;

/** One lowered micro-op: the original plus its dispatch class. */
struct SbUop
{
    MicroOp uop;
    SbKind kind = SbKind::Nop;

    bool operator==(const SbUop &) const = default;
};

/** Per-instruction metadata inside a superblock. */
struct SbInst
{
    uint16_t pcOff = 0;   ///< first byte's offset inside the code page
    uint8_t length = 0;   ///< encoded length in bytes
    uint8_t numUops = 0;
    uint32_t uopBase = 0; ///< index of the first uop in Superblock::uops
    bool valid = false;   ///< decoded successfully (else: trap on fetch)

    bool operator==(const SbInst &) const = default;
};

/**
 * One translated straight-line run. All instructions live on the same
 * physical page; pc-relative state (Auipc, branch targets, links) is
 * computed from the executing context's pc, so one block serves every
 * virtual mapping of its code page.
 */
struct Superblock
{
    Addr anchor = 0; ///< physical address of the first instruction
    std::vector<SbInst> insts;
    std::vector<SbUop> uops;

    /**
     * Last-used successor link (host-side memoisation, mutable by the
     * engine): lets loop iterations chain block-to-block without even
     * the MRU probe. Blocks live as long as their cache and the map is
     * node-based, so a link can never dangle.
     */
    mutable Addr succAnchor = 0;
    mutable const Superblock *succ = nullptr;
};

/**
 * Cache of formed superblocks, keyed by anchor physical address.
 * Lookup-or-build; entries are stable for the cache's lifetime
 * (node-based map) so the CPU may hold a cursor into a block across
 * run() boundaries.
 */
class SuperblockCache
{
  public:
    /** Longest run lowered into one block, in macro instructions. */
    static constexpr unsigned maxInsts = 64;

    explicit SuperblockCache(DecodeCache &decoder) : decoder(decoder) {}

    /** @return the block anchored at @p paddr, forming it on miss. */
    const Superblock &
    at(Addr paddr)
    {
        ++nLookups;
        if (mruBlock && paddr == mruAnchor)
            return *mruBlock;
        auto it = blocks.find(paddr);
        if (it == blocks.end())
            it = blocks.emplace(paddr, build(paddr)).first;
        mruAnchor = paddr;
        mruBlock = &it->second;
        return *mruBlock;
    }

    size_t size() const { return blocks.size(); }

    /** @return cached blocks that differ from one re-formed from the
     *  current bytes (0 while guest code is immutable). */
    size_t staleBlocks() const;

    /**
     * Host-side observability counters (how much execution the fast
     * tier covers). These count host work, not guest events, so they
     * are intentionally outside the fast/slow byte-identity contract.
     */
    uint64_t lookups() const { return nLookups; }
    uint64_t blocksFormed() const { return nBlocks; }
    uint64_t instsLowered() const { return nInsts; }

    /** Register the coverage counters as derived stats under @p g. */
    void attachStats(StatGroup &g);

  private:
    Superblock build(Addr anchor);

    DecodeCache &decoder;
    std::unordered_map<Addr, Superblock> blocks;
    Addr mruAnchor = 0;
    const Superblock *mruBlock = nullptr;

    uint64_t nLookups = 0;
    uint64_t nBlocks = 0;
    uint64_t nInsts = 0;
};

} // namespace svb

#endif // SVB_CPU_SUPERBLOCK_HH
