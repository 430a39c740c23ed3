/**
 * @file
 * The guest kernel's syscall ABI, shared between the kernel and the
 * code generator.
 *
 * RISC-V: number in a7, args in a0..a2, result in a0.
 * CX86:   number in r9, args in r1..r3, result in r0.
 */

#ifndef SVB_GUEST_SYSCALL_ABI_HH
#define SVB_GUEST_SYSCALL_ABI_HH

#include <cstdint>

namespace svb::sys
{

enum Number : uint64_t
{
    sysExit = 0,  ///< terminate the calling process
    sysYield = 1, ///< cooperative reschedule on this core
    sysM5 = 2,    ///< magic simulation op (arg0 = M5Op, arg1 = payload)
    sysLog = 3,   ///< debug print (arg0 = vaddr, arg1 = length)
    sysNow = 4,   ///< returns the kernel's trap counter (coarse clock)
};

/** Magic simulation operations (the M5-instruction equivalents). The
 *  values are guest-visible: generated code carries them as
 *  immediates. */
enum M5Op : uint64_t
{
    m5WorkBegin = 1,
    m5WorkEnd = 2,
    m5ResetStats = 3,
    m5ExitSim = 5,
    m5Event = 6,
};

} // namespace svb::sys

#endif // SVB_GUEST_SYSCALL_ABI_HH
