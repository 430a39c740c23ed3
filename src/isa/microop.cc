#include "microop.hh"

#include "sim/logging.hh"

namespace svb
{

namespace
{

int64_t s64(uint64_t v) { return int64_t(v); }
int32_t s32(uint64_t v) { return int32_t(uint32_t(v)); }

uint64_t sextW(uint64_t v) { return uint64_t(int64_t(int32_t(uint32_t(v)))); }

/** 64-bit signed high multiply. */
uint64_t
mulh64(int64_t a, int64_t b)
{
    return uint64_t(uint64_t((__int128(a) * __int128(b)) >> 64));
}

uint64_t
mulhu64(uint64_t a, uint64_t b)
{
    using U128 = unsigned __int128;
    return uint64_t((U128(a) * U128(b)) >> 64);
}

} // namespace

uint64_t
computeCmpFlags(uint64_t a, uint64_t b)
{
    uint64_t r = a - b;
    uint64_t flags = 0;
    if (r == 0)
        flags |= flag::zf;
    if (s64(r) < 0)
        flags |= flag::sf;
    if (a < b)
        flags |= flag::cf;
    // Signed overflow of a - b.
    if (((a ^ b) & (a ^ r)) >> 63)
        flags |= flag::of;
    return flags;
}

bool
flagCondTaken(FlagCond cond, uint64_t flags)
{
    const bool zf = flags & flag::zf;
    const bool sf = flags & flag::sf;
    const bool cf = flags & flag::cf;
    const bool of = flags & flag::of;
    switch (cond) {
      case FlagCond::Eq: return zf;
      case FlagCond::Ne: return !zf;
      case FlagCond::Lt: return sf != of;
      case FlagCond::Ge: return sf == of;
      case FlagCond::Le: return zf || (sf != of);
      case FlagCond::Gt: return !zf && (sf == of);
      case FlagCond::Ltu: return cf;
      case FlagCond::Geu: return !cf;
      case FlagCond::Leu: return cf || zf;
      case FlagCond::Gtu: return !cf && !zf;
    }
    return false;
}

uint64_t
loadExtend(uint64_t raw, unsigned size, bool sgn)
{
    switch (size) {
      case 1:
        return sgn ? uint64_t(int64_t(int8_t(raw))) : (raw & 0xff);
      case 2:
        return sgn ? uint64_t(int64_t(int16_t(raw))) : (raw & 0xffff);
      case 4:
        return sgn ? uint64_t(int64_t(int32_t(raw))) : (raw & 0xffffffff);
      case 8:
        return raw;
      default:
        svb_panic("bad load size ", size);
    }
}

uint64_t
aluCompute(const MicroOp &uop, uint64_t a, uint64_t b, Addr pc)
{
    if (uop.useImm)
        b = uint64_t(uop.imm);

    switch (uop.op) {
      case UopOp::Add: return a + b;
      case UopOp::Sub: return a - b;
      case UopOp::And: return a & b;
      case UopOp::Or: return a | b;
      case UopOp::Xor: return a ^ b;
      case UopOp::Sll: return a << (b & 63);
      case UopOp::Srl: return a >> (b & 63);
      case UopOp::Sra: return uint64_t(s64(a) >> (b & 63));
      case UopOp::Slt: return s64(a) < s64(b) ? 1 : 0;
      case UopOp::Sltu: return a < b ? 1 : 0;
      case UopOp::AddW: return sextW(a + b);
      case UopOp::SubW: return sextW(a - b);
      case UopOp::SllW: return sextW(a << (b & 31));
      case UopOp::SrlW: return sextW(uint32_t(a) >> (b & 31));
      case UopOp::SraW: return sextW(uint64_t(s32(a) >> (b & 31)));
      case UopOp::Mul: return a * b;
      case UopOp::Mulh: return mulh64(s64(a), s64(b));
      case UopOp::Mulhu: return mulhu64(a, b);
      case UopOp::Div:
        if (b == 0)
            return ~uint64_t(0);
        if (s64(a) == INT64_MIN && s64(b) == -1)
            return a;
        return uint64_t(s64(a) / s64(b));
      case UopOp::Divu: return b == 0 ? ~uint64_t(0) : a / b;
      case UopOp::Rem:
        if (b == 0)
            return a;
        if (s64(a) == INT64_MIN && s64(b) == -1)
            return 0;
        return uint64_t(s64(a) % s64(b));
      case UopOp::Remu: return b == 0 ? a : a % b;
      case UopOp::MulW: return sextW(uint64_t(s32(a)) * uint64_t(s32(b)));
      case UopOp::DivW: {
        int32_t ia = s32(a), ib = s32(b);
        if (ib == 0)
            return ~uint64_t(0);
        if (ia == INT32_MIN && ib == -1)
            return sextW(uint64_t(uint32_t(ia)));
        return sextW(uint64_t(uint32_t(ia / ib)));
      }
      case UopOp::DivuW: {
        uint32_t ua = uint32_t(a), ub = uint32_t(b);
        return ub == 0 ? ~uint64_t(0) : sextW(ua / ub);
      }
      case UopOp::RemW: {
        int32_t ia = s32(a), ib = s32(b);
        if (ib == 0)
            return sextW(uint64_t(uint32_t(ia)));
        if (ia == INT32_MIN && ib == -1)
            return 0;
        return sextW(uint64_t(uint32_t(ia % ib)));
      }
      case UopOp::RemuW: {
        uint32_t ua = uint32_t(a), ub = uint32_t(b);
        return ub == 0 ? sextW(ua) : sextW(ua % ub);
      }
      case UopOp::MovImm: return uint64_t(uop.imm);
      case UopOp::Auipc: return pc + uint64_t(uop.imm);
      case UopOp::CmpFlags: return computeCmpFlags(a, b);
      case UopOp::TestFlags: {
        uint64_t r = a & b;
        uint64_t flags = 0;
        if (r == 0)
            flags |= flag::zf;
        if (s64(r) < 0)
            flags |= flag::sf;
        return flags;
      }
      case UopOp::Nop: return 0;
      default:
        svb_panic("aluCompute on non-ALU uop ", int(uop.op));
    }
}

BranchEval
branchEval(const MicroOp &uop, uint64_t a, uint64_t b, Addr pc)
{
    BranchEval ev;
    switch (uop.op) {
      case UopOp::BranchEq: ev.taken = a == b; break;
      case UopOp::BranchNe: ev.taken = a != b; break;
      case UopOp::BranchLt: ev.taken = s64(a) < s64(b); break;
      case UopOp::BranchGe: ev.taken = s64(a) >= s64(b); break;
      case UopOp::BranchLtu: ev.taken = a < b; break;
      case UopOp::BranchGeu: ev.taken = a >= b; break;
      case UopOp::BranchFlags: ev.taken = flagCondTaken(uop.cond, a); break;
      case UopOp::Jump: ev.taken = true; break;
      case UopOp::JumpReg:
        ev.taken = true;
        // Note: RISC-V JALR clears bit 0 of the target; our generated
        // code is always 4-byte aligned there, and CX86 instructions
        // are byte-aligned, so the raw sum is correct for both.
        ev.target = a + uint64_t(uop.imm);
        return ev;
      default:
        svb_panic("branchEval on non-control uop ", int(uop.op));
    }
    ev.target = pc + uint64_t(uop.imm);
    return ev;
}

} // namespace svb
