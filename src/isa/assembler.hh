/**
 * @file
 * Common machinery for the programmatic assemblers.
 *
 * Both backends emit raw machine-code bytes into a growable buffer and
 * use integer-id labels with forward-reference fixups. The generated
 * bytes are loaded into guest memory and later fetched and decoded by
 * the simulated CPUs, so code footprint and layout are real.
 */

#ifndef SVB_ISA_ASSEMBLER_HH
#define SVB_ISA_ASSEMBLER_HH

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace svb
{

/** An assembler label; resolves to a code offset when bound. */
struct AsmLabel
{
    int id = -1;
    bool valid() const { return id >= 0; }
};

/**
 * Base class providing the byte buffer, label table and fixup list.
 */
class AssemblerBase
{
  public:
    virtual ~AssemblerBase() = default;

    /** Allocate a fresh unbound label. */
    AsmLabel
    newLabel()
    {
        labelOffsets.push_back(-1);
        return AsmLabel{int(labelOffsets.size()) - 1};
    }

    /** Bind @p label to the current position. */
    void
    bind(AsmLabel label)
    {
        svb_assert(label.valid(), "binding invalid label");
        svb_assert(labelOffsets.at(size_t(label.id)) < 0,
                   "label bound twice");
        labelOffsets[size_t(label.id)] = int64_t(buf.size());
    }

    /** Current emission offset, in bytes from the code start. */
    size_t here() const { return buf.size(); }

    /**
     * Resolve all fixups and return the finished code bytes.
     * The assembler must not be used for emission afterwards.
     */
    const std::vector<uint8_t> &
    finish()
    {
        for (const auto &fix : fixups) {
            int64_t off = labelOffsets.at(size_t(fix.labelId));
            svb_assert(off >= 0, "unbound label ", fix.labelId);
            applyFixup(fix.instOffset, fix.patchOffset, fix.kind,
                       off - int64_t(fix.instOffset));
        }
        fixups.clear();
        finished = true;
        return buf;
    }

    /** @return the code buffer (must be finished). */
    const std::vector<uint8_t> &
    code() const
    {
        svb_assert(finished, "code() before finish()");
        return buf;
    }

  protected:
    struct Fixup
    {
        size_t instOffset;  ///< offset of the branch instruction
        size_t patchOffset; ///< offset of the bytes to patch
        int labelId;
        int kind;           ///< ISA-specific relocation kind
    };

    void emit8(uint8_t v) { buf.push_back(v); }

    void
    emit16(uint16_t v)
    {
        emit8(uint8_t(v));
        emit8(uint8_t(v >> 8));
    }

    void
    emit32(uint32_t v)
    {
        emit16(uint16_t(v));
        emit16(uint16_t(v >> 16));
    }

    void
    emit64(uint64_t v)
    {
        emit32(uint32_t(v));
        emit32(uint32_t(v >> 32));
    }

    void
    patch32(size_t offset, uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            buf.at(offset + size_t(i)) = uint8_t(v >> (8 * i));
    }

    uint32_t
    read32(size_t offset) const
    {
        uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= uint32_t(buf.at(offset + size_t(i))) << (8 * i);
        return v;
    }

    void
    recordFixup(size_t inst_offset, size_t patch_offset, AsmLabel label,
                int kind)
    {
        svb_assert(label.valid(), "fixup against invalid label");
        fixups.push_back({inst_offset, patch_offset, label.id, kind});
    }

    /**
     * Patch a branch displacement.
     *
     * @param inst_offset  offset of the instruction being patched
     * @param patch_offset offset of the displacement field
     * @param kind         ISA-specific relocation kind
     * @param delta        target offset minus instruction offset
     */
    virtual void applyFixup(size_t inst_offset, size_t patch_offset,
                            int kind, int64_t delta) = 0;

    std::vector<uint8_t> buf;

  private:
    std::vector<int64_t> labelOffsets;
    std::vector<Fixup> fixups;
    bool finished = false;
};

} // namespace svb

#endif // SVB_ISA_ASSEMBLER_HH
