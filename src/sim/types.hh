/**
 * @file
 * Fundamental scalar types shared by every simulator component.
 */

#ifndef SVB_SIM_TYPES_HH
#define SVB_SIM_TYPES_HH

#include <cstdint>

namespace svb
{

/** Absolute simulated time, in ticks. One tick == one picosecond. */
using Tick = uint64_t;

/** A relative cycle count (clock-domain local). */
using Cycles = uint64_t;

/** A guest memory address (virtual or physical depending on context). */
using Addr = uint64_t;

/** Largest representable tick; used as "never". */
constexpr Tick maxTick = ~Tick(0);

} // namespace svb

#endif // SVB_SIM_TYPES_HH
