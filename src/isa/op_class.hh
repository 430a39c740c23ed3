/**
 * @file
 * Functional-unit operation classes.
 *
 * Each micro-op carries an OpClass; the O3 CPU's functional-unit pool
 * maps op classes to issue latencies and unit counts.
 */

#ifndef SVB_ISA_OP_CLASS_HH
#define SVB_ISA_OP_CLASS_HH

#include <cstdint>

namespace svb
{

/** Coarse classification of micro-ops for FU scheduling. */
enum class OpClass : uint8_t
{
    IntAlu,    ///< single-cycle integer ALU op
    IntMult,   ///< integer multiply
    IntDiv,    ///< integer divide / remainder
    MemRead,   ///< load
    MemWrite,  ///< store
    Branch,    ///< control transfer
    No_OpClass ///< nop / internal
};

} // namespace svb

#endif // SVB_ISA_OP_CLASS_HH
