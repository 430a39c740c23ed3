/**
 * @file
 * Decoded macro instructions.
 */

#ifndef SVB_ISA_STATIC_INST_HH
#define SVB_ISA_STATIC_INST_HH

#include <array>
#include <cstdint>
#include <string_view>
#include <type_traits>

#include "microop.hh"
#include "sim/types.hh"

namespace svb
{

/** Maximum micro-ops per macro instruction (CX86 op-store / call). */
constexpr unsigned maxUopsPerInst = 4;

/**
 * One decoded macro instruction: its micro-op expansion plus the
 * summary flags the front-end (branch prediction) needs.
 */
struct StaticInst
{
    std::array<MicroOp, maxUopsPerInst> uops{};
    uint8_t numUops = 0;
    uint8_t length = 0;   ///< encoded length in bytes

    bool valid = false;   ///< decoded successfully
    bool isControl = false;
    bool isCondCtrl = false;
    bool isCall = false;
    bool isReturn = false;
    bool isDirectCtrl = false;
    bool isSyscall = false;
    bool isHalt = false;

    /** Target of a direct control transfer, pc-relative offset. */
    int64_t directOffset = 0;

    /** Disassembly text for debugging; every decoder points it at a
     *  string literal, so a StaticInst owns no heap memory. */
    std::string_view mnemonic;

    /** Append a micro-op to the expansion. */
    void
    addUop(const MicroOp &uop)
    {
        uops.at(numUops++) = uop;
    }

    /** @return absolute direct target given the instruction's pc. */
    Addr directTarget(Addr pc) const { return pc + uint64_t(directOffset); }

    bool operator==(const StaticInst &) const = default;
};

// An entry owns no heap memory, so freeing a decode cache runs no
// per-entry destructor.
static_assert(std::is_trivially_destructible_v<StaticInst>);

} // namespace svb

#endif // SVB_ISA_STATIC_INST_HH
