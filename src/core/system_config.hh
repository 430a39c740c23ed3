/**
 * @file
 * System configuration mirroring Tables 4.1-4.3 of the paper.
 */

#ifndef SVB_CORE_SYSTEM_CONFIG_HH
#define SVB_CORE_SYSTEM_CONFIG_HH

#include <string>

#include "cpu/o3_cpu.hh"
#include "isa/isa_info.hh"
#include "mem/dram.hh"
#include "mem/hierarchy.hh"

namespace svb
{

/**
 * Full configuration of one simulated platform.
 *
 * Defaults reproduce Table 4.1: 2 cores, 32 KiB 8-way L1I/L1D,
 * 512 KiB 4-way private L2, DDR3-1600-style single-channel DRAM,
 * 192-entry ROB, 32+32 LSQ, 256 physical integer registers, 1 GHz.
 */
struct SystemConfig
{
    IsaId isa = IsaId::Riscv;
    unsigned numCores = 2;
    uint64_t clockMHz = 1000;

    /**
     * Guest physical memory size. The modelled platform is 2 GB
     * (Table 4.1); the scaled-down workloads fit comfortably in this.
     * Host memory is spent only on the pages the guest writes
     * (PhysMemory keeps a 4 KiB frame per written page), so building
     * a System costs the same at any size.
     */
    size_t memBytes = 96 * 1024 * 1024;

    CoreMemParams caches;
    DramParams dram;
    O3Params o3;

    uint64_t seed = 0x5eed;

    /**
     * Route Atomic-model execution through the superblock fast path
     * (cpu/superblock.hh), and let the run loop credit quiet cores of
     * either model in bulk instead of ticking them (System::run()).
     * Byte-identical to the per-instruction, per-cycle path; disable
     * to force that oracle. ANDed with the SVBENCH_FASTWARM
     * environment override ("0" disables), so either side can force
     * the slow path.
     */
    bool fastWarm = true;

    /**
     * Restore prepared-state checkpoints working-set-aware (REAP
     * style): prefetch the recorded cold-request working set from the
     * shared CoW page store and materialise every other snapshot page
     * on first touch. Byte-identical guest state and statistics to a
     * full restore; disable to force the full-copy oracle. ANDed with
     * the SVBENCH_REAP environment override ("0" disables), so either
     * side can force the slow path.
     */
    bool reapRestore = true;

    /** Table 4.2 / 4.3 provenance strings (reporting only). */
    std::string osLabel;
    std::string compilerLabel;

    /** @return the configuration used throughout Chapter 4. */
    static SystemConfig
    paperConfig(IsaId isa)
    {
        SystemConfig cfg;
        cfg.isa = isa;
        if (isa == IsaId::Riscv) {
            cfg.osLabel = "Ubuntu Jammy 22.04.3 Preinstalled Server";
            cfg.compilerLabel = "riscv64-unknown-linux-gnu-gcc 13.2.0";
        } else {
            cfg.osLabel = "Ubuntu Jammy 22.04.4 Live Server";
            cfg.compilerLabel = "gcc 11.4.0";
        }
        return cfg;
    }
};

} // namespace svb

#endif // SVB_CORE_SYSTEM_CONFIG_HH
