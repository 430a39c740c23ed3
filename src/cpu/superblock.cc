#include "superblock.hh"

#include "paging.hh"

namespace svb
{

namespace
{

/** Classify one micro-op for threaded dispatch. */
SbKind
kindOf(const MicroOp &uop)
{
    if (uop.isControl())
        return SbKind::Control;
    switch (uop.op) {
      case UopOp::Add: return SbKind::Add;
      case UopOp::Sub: return SbKind::Sub;
      case UopOp::And: return SbKind::And;
      case UopOp::Or: return SbKind::Or;
      case UopOp::Xor: return SbKind::Xor;
      case UopOp::Sll: return SbKind::Sll;
      case UopOp::Srl: return SbKind::Srl;
      case UopOp::Sra: return SbKind::Sra;
      case UopOp::Slt: return SbKind::Slt;
      case UopOp::Sltu: return SbKind::Sltu;
      case UopOp::Mul: return SbKind::Mul;
      case UopOp::MovImm: return SbKind::MovImm;
      case UopOp::Auipc: return SbKind::Auipc;
      case UopOp::CmpFlags: return SbKind::CmpFlags;
      case UopOp::Load: return SbKind::Load;
      case UopOp::Store: return SbKind::Store;
      case UopOp::Syscall: return SbKind::Syscall;
      case UopOp::Halt: return SbKind::Halt;
      case UopOp::Nop: return SbKind::Nop;
      default: return SbKind::AluMisc;
    }
}

/**
 * Lower the run anchored at @p anchor, taking each instruction from
 * @p decode (physical address -> StaticInst).
 */
template <class Decode>
Superblock
formBlock(Addr anchor, Decode &&decode)
{
    Superblock sb;
    sb.anchor = anchor;
    Addr off = paging::pageOffset(anchor);
    Addr p = anchor;
    while (sb.insts.size() < SuperblockCache::maxInsts) {
        const StaticInst si = decode(p);
        if (!si.valid) {
            // Keep an undecodable first instruction as an explicit
            // trap marker so the engine reproduces the slow path's
            // illegal-instruction panic; otherwise end the block just
            // before it.
            if (sb.insts.empty()) {
                SbInst bi;
                bi.pcOff = uint16_t(off);
                sb.insts.push_back(bi);
            }
            break;
        }
        SbInst bi;
        bi.pcOff = uint16_t(off);
        bi.length = si.length;
        bi.numUops = si.numUops;
        bi.uopBase = uint32_t(sb.uops.size());
        bi.valid = true;
        bool terminal = false;
        for (unsigned i = 0; i < si.numUops; ++i) {
            const MicroOp &uop = si.uops[i];
            SbUop su;
            su.uop = uop;
            su.kind = kindOf(uop);
            sb.uops.push_back(su);
            // Conditional branches stay mid-block (side exits); only
            // uops that always transfer control end the run.
            terminal |= uop.isSyscall() || uop.isHalt() ||
                        (uop.isControl() && !uop.isCondCtrl());
        }
        sb.insts.push_back(bi);
        if (terminal)
            break;
        off += si.length;
        p += si.length;
        // The slow path translates only the first byte of every
        // instruction, so a block must not carry execution onto the
        // next virtual page without a fresh iTLB translation.
        if (off >= paging::pageSize)
            break;
    }
    return sb;
}

} // namespace

Superblock
SuperblockCache::build(Addr anchor)
{
    Superblock sb = formBlock(
        anchor, [this](Addr p) { return decoder.decodeUncached(p); });
    ++nBlocks;
    nInsts += sb.insts.size();
    return sb;
}

size_t
SuperblockCache::staleBlocks() const
{
    size_t n = 0;
    for (const auto &[anchor, sb] : blocks) {
        const Superblock fresh = formBlock(
            anchor, [this](Addr p) { return decoder.decodeBytes(p); });
        n += !(sb.insts == fresh.insts && sb.uops == fresh.uops);
    }
    return n;
}

void
SuperblockCache::attachStats(StatGroup &g)
{
    g.addFormula("lookups", "superblock cache lookups (host work)",
                 [this] { return double(nLookups); });
    g.addFormula("blocks", "superblocks formed (host work)",
                 [this] { return double(nBlocks); });
    g.addFormula("instsLowered", "macro instructions lowered (host work)",
                 [this] { return double(nInsts); });
    g.addFormula("avgBlockInsts", "mean instructions per superblock",
                 [this] {
                     return nBlocks ? double(nInsts) / double(nBlocks)
                                    : 0.0;
                 });
}

} // namespace svb
