#include "assembler.hh"

namespace svb::riscv
{

void
Assembler::li(Reg rd, int64_t value)
{
    // Fits a 12-bit signed immediate: single addi.
    if (value >= -2048 && value < 2048) {
        addi(rd, 0, int32_t(value));
        return;
    }
    // Fits 32 bits signed: lui + addiw. The rounding add wraps near
    // INT32_MAX (addiw wraps back), so it is done in unsigned
    // arithmetic: lui takes the upper 20 bits, lo the signed rest.
    if (value >= INT32_MIN && value <= INT32_MAX) {
        const uint32_t v = uint32_t(value);
        const uint32_t hi = (v + 0x800u) >> 12;
        const int32_t lo = int32_t(v - (hi << 12));
        lui(rd, int32_t(hi));
        if (lo != 0 || hi == 0)
            addiw(rd, rd, lo);
        return;
    }
    // General 64-bit constant: materialise the upper part recursively,
    // then shift in 12-bit chunks (standard GNU-as expansion shape).
    // value - lo12 wraps at INT64_MAX, hence the unsigned subtraction.
    const uint64_t u = uint64_t(value);
    const int64_t lo12 = int64_t(u << 52) >> 52;
    const int64_t hi = int64_t(u - uint64_t(lo12)) >> 12;
    li(rd, hi);
    slli(rd, rd, 12);
    if (lo12 != 0)
        addi(rd, rd, int32_t(lo12));
}

void
Assembler::applyFixup(size_t inst_offset, size_t patch_offset, int kind,
                      int64_t delta)
{
    if (kind == relocCallAuipc) {
        svb_assert(delta >= INT32_MIN && delta <= INT32_MAX,
                   "far call out of range");
        const int32_t d = int32_t(delta);
        const int32_t hi = (d + 0x800) >> 12;
        const int32_t lo = d - (hi << 12);
        uint32_t auipc_word = read32(patch_offset);
        auipc_word |= uint32_t(hi) << 12;
        patch32(patch_offset, auipc_word);
        uint32_t jalr_word = read32(patch_offset + 4);
        jalr_word |= uint32_t(lo & 0xfff) << 20;
        patch32(patch_offset + 4, jalr_word);
        return;
    }
    uint32_t word = read32(patch_offset);
    if (kind == relocBType) {
        svb_assert(delta >= -4096 && delta < 4096 && (delta & 1) == 0,
                   "B-type branch target out of range: ", delta,
                   " at offset ", inst_offset);
        uint32_t imm = uint32_t(delta) & 0x1fff;
        word |= ((imm >> 12) & 1) << 31;
        word |= ((imm >> 5) & 0x3f) << 25;
        word |= ((imm >> 1) & 0xf) << 8;
        word |= ((imm >> 11) & 1) << 7;
    } else {
        svb_assert(kind == relocJType, "bad riscv reloc kind");
        svb_assert(delta >= -(1 << 20) && delta < (1 << 20) &&
                   (delta & 1) == 0,
                   "J-type jump target out of range: ", delta);
        uint32_t imm = uint32_t(delta) & 0x1fffff;
        word |= ((imm >> 20) & 1) << 31;
        word |= ((imm >> 1) & 0x3ff) << 21;
        word |= ((imm >> 11) & 1) << 20;
        word |= ((imm >> 12) & 0xff) << 12;
    }
    patch32(patch_offset, word);
}

} // namespace svb::riscv
