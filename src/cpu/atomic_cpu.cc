#include "atomic_cpu.hh"

#include <sstream>

#include "paging.hh"
#include "sim/logging.hh"
#include "superblock.hh"

// Threaded dispatch via computed goto (GCC/Clang extension). Define
// SVB_NO_COMPUTED_GOTO to force the portable switch fallback; CI's
// UBSan job does, so both engines stay exercised.
#if (defined(__GNUC__) || defined(__clang__)) && \
    !defined(SVB_NO_COMPUTED_GOTO)
#define SVB_THREADED_DISPATCH 1
#else
#define SVB_THREADED_DISPATCH 0
#endif

namespace svb
{

AtomicCpu::AtomicCpu(int core_id, IsaId isa_id, PhysMemory &phys_mem,
                     CoreMemSystem &mem_sys, DecodeCache &decode,
                     TrapHandler &trap_handler, StatGroup &stats,
                     SuperblockCache &sblocks)
    : BaseCpu(core_id, isa_id, phys_mem, mem_sys, decode, trap_handler,
              stats, "atomic"),
      sblocks(sblocks),
      statCycles(group.addScalar("numCycles", "cycles simulated")),
      statInsts(group.addScalar("numInsts", "macro instructions executed")),
      statUops(group.addScalar("numUops", "micro-ops executed")),
      statBranches(group.addScalar("numBranches", "control instructions")),
      statLoads(group.addScalar("numLoads", "load micro-ops")),
      statStores(group.addScalar("numStores", "store micro-ops")),
      statIdleCycles(group.addScalar("idleCycles", "cycles halted"))
{
    group.addFormula("cpi", "cycles per instruction", [this]() {
        return statInsts.value()
                   ? double(statCycles.value()) / double(statInsts.value())
                   : 0.0;
    });
}

void
AtomicCpu::recordPc(Addr pc)
{
    pcHistory[pcHistoryPos] = pc;
    if (++pcHistoryPos == pcHistory.size()) {
        pcHistoryPos = 0;
        pcHistoryFull = true;
    }
}

void
AtomicCpu::dumpHistory() const
{
    // pcHistoryPos is the next slot to overwrite, i.e. the oldest
    // entry once the ring has wrapped; before that, valid entries
    // start at slot 0.
    const size_t count = pcHistoryFull ? pcHistory.size() : pcHistoryPos;
    const size_t start = pcHistoryFull ? pcHistoryPos : 0;
    std::ostringstream os;
    os << "recent pcs (core " << coreId << ", oldest first):";
    for (size_t i = 0; i < count; ++i) {
        const size_t idx = (start + i) % pcHistory.size();
        os << " " << pcHistory[idx];
    }
    os << " | regs:";
    for (unsigned r = 0; r < 32; ++r)
        os << " r" << r << "=" << ctx.regs[r];
    warn(os.str());
}

void
AtomicCpu::tick()
{
    if (ctx.halted) {
        ++statIdleCycles;
        return;
    }
    ++statCycles;
    if (pendingStall > 0) {
        --pendingStall;
        return;
    }

    // --- Fetch & decode ---------------------------------------------------
    TranslateResult itr =
        itlbUnit.translate(ctx.pc, ctx.ptRoot, phys, nullptr, 0);
    svb_assert(!itr.fault, "instruction page fault at pc=", ctx.pc,
               " core=", coreId);
    recordPc(ctx.pc);
    const StaticInst &inst = decoder.decodeAt(itr.paddr);
    if (!inst.valid) {
        dumpHistory();
        svb_panic("illegal instruction at pc=", ctx.pc, " (",
                  isaDesc.name, ")");
    }
    if (warming)
        mem.warmFetch(itr.paddr, inst.length);

    ++statInsts;
    const Addr next_pc = ctx.pc + inst.length;
    Addr redirect = 0;
    bool redirected = false;

    auto reg = [this](uint8_t r) -> uint64_t {
        return r == invalidReg ? 0 : ctx.regs[r];
    };

    for (unsigned i = 0; i < inst.numUops; ++i) {
        const MicroOp &uop = inst.uops[i];
        ++statUops;

        if (uop.isMem()) {
            const Addr vaddr = memEffAddr(uop, reg(uop.rs1));
            TranslateResult dtr =
                dtlbUnit.translate(vaddr, ctx.ptRoot, phys, nullptr, 0);
            if (dtr.fault) {
                dumpHistory();
                svb_panic("data page fault at vaddr=", vaddr,
                          " pc=", ctx.pc, " core=", coreId, " proc=",
                          ctx.processId);
            }
            if (uop.isLoad()) {
                ++statLoads;
                if (warming)
                    mem.warmData(dtr.paddr, uop.memSize, false);
                const uint64_t raw = phys.read(dtr.paddr, uop.memSize);
                if (uop.rd != invalidReg) {
                    ctx.regs[uop.rd] =
                        loadExtend(raw, uop.memSize, uop.memSigned);
                }
            } else {
                ++statStores;
                if (warming)
                    mem.warmData(dtr.paddr, uop.memSize, true);
                phys.write(dtr.paddr, reg(uop.rs2), uop.memSize);
            }
        } else if (uop.isControl()) {
            ++statBranches;
            BranchEval ev =
                branchEval(uop, reg(uop.rs1), reg(uop.rs2), ctx.pc);
            if (uop.rd != invalidReg)
                ctx.regs[uop.rd] = next_pc; // link register
            if (ev.taken) {
                redirected = true;
                redirect = ev.target;
            }
        } else if (uop.isSyscall() || uop.isHalt()) {
            takeTrap(uop.isSyscall(), next_pc, 1);
            return;
        } else if (uop.op == UopOp::Nop) {
            // nothing
        } else {
            const uint64_t value =
                aluCompute(uop, reg(uop.rs1), reg(uop.rs2), ctx.pc);
            if (uop.rd != invalidReg)
                ctx.regs[uop.rd] = value;
        }
    }

    ctx.pc = redirected ? redirect : next_pc;
}

void
AtomicCpu::takeTrap(bool syscall, Addr next_pc, uint64_t call_cycles)
{
    ctx.pc = next_pc;
    if (preTrap)
        preTrap(call_cycles);
    const Addr old_root = ctx.ptRoot;
    pendingStall += syscall ? trap.handleSyscall(coreId, ctx)
                            : trap.handleHalt(coreId, ctx);
    if (ctx.ptRoot != old_root) {
        itlbUnit.flush();
        dtlbUnit.flush();
    }
}

/*
 * The superblock engine. Every architectural effect, every statistic
 * and every trap interaction below replicates tick() exactly — tick()
 * is the oracle, enforced by the fast-vs-slow lockstep differential
 * test and by CI's SVBENCH_FASTWARM stdout diff. What differs is host
 * work only: one iTLB lookup and zero decode-cache probes per block
 * instead of one of each per instruction, stat updates batched into
 * local accumulators, and uop dispatch through a computed-goto table
 * (or the portable switch below) over pre-classified SbKinds.
 */
uint64_t
AtomicCpu::runFast(uint64_t budget)
{
    // The run loop credits a quiet core instead of running it, so an
    // acting core has no idle or stall cycle to count here.
    svb_assert(quietCycles() == 0, "runFast() on core ", coreId,
               ", which is quiet");
    uint64_t consumed = 0;

    // Per-batch accumulators. Flushed before any trap handler runs and
    // on every return, so the StatGroup tree is never stale at a point
    // where guest or host code could observe it (m5 stat resets and
    // work-begin/end snapshots fire inside syscalls, possibly on
    // another core).
    uint64_t d_cycles = 0, d_insts = 0, d_uops = 0, d_branches = 0;
    uint64_t d_loads = 0, d_stores = 0, d_itlb_hits = 0;
    const auto flush_stats = [&] {
        statCycles += d_cycles;
        statInsts += d_insts;
        statUops += d_uops;
        statBranches += d_branches;
        statLoads += d_loads;
        statStores += d_stores;
        itlbUnit.creditHits(d_itlb_hits);
        d_cycles = d_insts = d_uops = d_branches = 0;
        d_loads = d_stores = d_itlb_hits = 0;
    };
    const auto reg = [this](uint8_t r) -> uint64_t {
        return r == invalidReg ? 0 : ctx.regs[r];
    };

    while (consumed < budget) {
        ++consumed;
        ++d_cycles;
        if (curBlock == nullptr) {
            const TranslateResult itr =
                itlbUnit.translate(ctx.pc, ctx.ptRoot, phys, nullptr, 0);
            svb_assert(!itr.fault, "instruction page fault at pc=",
                       ctx.pc, " core=", coreId);
            curBlock = &sblocks.at(itr.paddr);
            curInst = 0;
            curFrame = paging::pageBase(itr.paddr);
            curVpage = paging::pageBase(ctx.pc);
        } else {
            // Same code page as the previous instruction: the entry
            // (re)filled by the block-entry translate() is still
            // resident — nothing else touches this core's iTLB
            // mid-block — so the slow path's per-instruction lookup
            // would hit with certainty. Take it as a batched credit.
            ++d_itlb_hits;
        }
        recordPc(ctx.pc);
        const SbInst &bi = curBlock->insts[curInst];
        if (!bi.valid) {
            flush_stats();
            dumpHistory();
            svb_panic("illegal instruction at pc=", ctx.pc, " (",
                      isaDesc.name, ")");
        }
        if (warming)
            mem.warmFetch(curFrame | Addr(bi.pcOff), bi.length);
        ++d_insts;

        const Addr next_pc = ctx.pc + bi.length;
        Addr redirect = 0;
        bool redirected = false;
        const SbUop *const ubase = curBlock->uops.data() + bi.uopBase;
        const SbUop *u = ubase;
        const SbUop *const uend = ubase + bi.numUops;

// One handler body per SbKind, shared verbatim between the threaded
// and the switch engine via SVB_CASE/SVB_NEXT.
#if SVB_THREADED_DISPATCH
        static const void *const kinds[numSbKinds] = {
            &&h_Add, &&h_Sub, &&h_And, &&h_Or, &&h_Xor, &&h_Sll,
            &&h_Srl, &&h_Sra, &&h_Slt, &&h_Sltu, &&h_Mul, &&h_MovImm,
            &&h_Auipc, &&h_CmpFlags, &&h_AluMisc, &&h_Load, &&h_Store,
            &&h_Control, &&h_Syscall, &&h_Halt, &&h_Nop,
        };
#define SVB_CASE(k) h_##k:
#define SVB_NEXT()                                                      \
        do {                                                            \
            if (++u == uend)                                            \
                goto inst_done;                                         \
            goto *kinds[size_t(u->kind)];                               \
        } while (0)
        if (u == uend)
            goto inst_done;
        goto *kinds[size_t(u->kind)];
#else
#define SVB_CASE(k) case SbKind::k:
#define SVB_NEXT() break
        for (; u != uend; ++u)
        switch (u->kind) {
#endif

// Simple two-source ALU body; mirrors aluCompute()'s operand rules
// (useImm substitutes the second source).
#define SVB_ALU(expr)                                                   \
        {                                                               \
            const MicroOp &mo = u->uop;                                 \
            const uint64_t a = reg(mo.rs1);                             \
            const uint64_t b =                                          \
                mo.useImm ? uint64_t(mo.imm) : reg(mo.rs2);             \
            (void)a;                                                    \
            const uint64_t v = (expr);                                  \
            if (mo.rd != invalidReg)                                    \
                ctx.regs[mo.rd] = v;                                    \
        }

        SVB_CASE(Add) SVB_ALU(a + b) SVB_NEXT();
        SVB_CASE(Sub) SVB_ALU(a - b) SVB_NEXT();
        SVB_CASE(And) SVB_ALU(a & b) SVB_NEXT();
        SVB_CASE(Or) SVB_ALU(a | b) SVB_NEXT();
        SVB_CASE(Xor) SVB_ALU(a ^ b) SVB_NEXT();
        SVB_CASE(Sll) SVB_ALU(a << (b & 63)) SVB_NEXT();
        SVB_CASE(Srl) SVB_ALU(a >> (b & 63)) SVB_NEXT();
        SVB_CASE(Sra) SVB_ALU(uint64_t(int64_t(a) >> (b & 63))) SVB_NEXT();
        SVB_CASE(Slt) SVB_ALU(int64_t(a) < int64_t(b) ? 1 : 0) SVB_NEXT();
        SVB_CASE(Sltu) SVB_ALU(a < b ? 1 : 0) SVB_NEXT();
        SVB_CASE(Mul) SVB_ALU(a * b) SVB_NEXT();
        SVB_CASE(CmpFlags) SVB_ALU(computeCmpFlags(a, b)) SVB_NEXT();

        SVB_CASE(MovImm)
        {
            const MicroOp &mo = u->uop;
            if (mo.rd != invalidReg)
                ctx.regs[mo.rd] = uint64_t(mo.imm);
        }
        SVB_NEXT();

        SVB_CASE(Auipc)
        {
            const MicroOp &mo = u->uop;
            if (mo.rd != invalidReg)
                ctx.regs[mo.rd] = ctx.pc + uint64_t(mo.imm);
        }
        SVB_NEXT();

        SVB_CASE(AluMisc)
        {
            // Rare compute ops (mul/div, W-forms, TestFlags): share
            // aluCompute() so semantics can never diverge. It applies
            // useImm itself, so pass the raw rs2 value.
            const MicroOp &mo = u->uop;
            const uint64_t v =
                aluCompute(mo, reg(mo.rs1), reg(mo.rs2), ctx.pc);
            if (mo.rd != invalidReg)
                ctx.regs[mo.rd] = v;
        }
        SVB_NEXT();

        SVB_CASE(Load)
        {
            const MicroOp &mo = u->uop;
            const Addr vaddr = memEffAddr(mo, reg(mo.rs1));
            const TranslateResult dtr =
                dtlbUnit.translate(vaddr, ctx.ptRoot, phys, nullptr, 0);
            if (dtr.fault) {
                d_uops += uint64_t(u - ubase) + 1;
                flush_stats();
                dumpHistory();
                svb_panic("data page fault at vaddr=", vaddr,
                          " pc=", ctx.pc, " core=", coreId, " proc=",
                          ctx.processId);
            }
            ++d_loads;
            if (warming)
                mem.warmData(dtr.paddr, mo.memSize, false);
            const uint64_t raw = phys.read(dtr.paddr, mo.memSize);
            if (mo.rd != invalidReg) {
                ctx.regs[mo.rd] =
                    loadExtend(raw, mo.memSize, mo.memSigned);
            }
        }
        SVB_NEXT();

        SVB_CASE(Store)
        {
            const MicroOp &mo = u->uop;
            const Addr vaddr = memEffAddr(mo, reg(mo.rs1));
            const TranslateResult dtr =
                dtlbUnit.translate(vaddr, ctx.ptRoot, phys, nullptr, 0);
            if (dtr.fault) {
                d_uops += uint64_t(u - ubase) + 1;
                flush_stats();
                dumpHistory();
                svb_panic("data page fault at vaddr=", vaddr,
                          " pc=", ctx.pc, " core=", coreId, " proc=",
                          ctx.processId);
            }
            ++d_stores;
            if (warming)
                mem.warmData(dtr.paddr, mo.memSize, true);
            phys.write(dtr.paddr, reg(mo.rs2), mo.memSize);
        }
        SVB_NEXT();

        SVB_CASE(Control)
        {
            const MicroOp &mo = u->uop;
            ++d_branches;
            // Inline copy of branchEval() — a cross-TU call per branch
            // is hot-loop tax the fast tier exists to cut. Kept in
            // lockstep with the original by the fast-vs-slow
            // differential test.
            const uint64_t a = reg(mo.rs1);
            bool taken = false;
            Addr target = ctx.pc + uint64_t(mo.imm);
            switch (mo.op) {
              case UopOp::BranchEq: taken = a == reg(mo.rs2); break;
              case UopOp::BranchNe: taken = a != reg(mo.rs2); break;
              case UopOp::BranchLt:
                taken = int64_t(a) < int64_t(reg(mo.rs2));
                break;
              case UopOp::BranchGe:
                taken = int64_t(a) >= int64_t(reg(mo.rs2));
                break;
              case UopOp::BranchLtu: taken = a < reg(mo.rs2); break;
              case UopOp::BranchGeu: taken = a >= reg(mo.rs2); break;
              case UopOp::BranchFlags:
                taken = flagCondTaken(mo.cond, a);
                break;
              case UopOp::Jump: taken = true; break;
              case UopOp::JumpReg:
                taken = true;
                target = a + uint64_t(mo.imm);
                break;
              default:
                svb_panic("branchEval on non-control uop ", int(mo.op));
            }
            if (mo.rd != invalidReg)
                ctx.regs[mo.rd] = next_pc; // link register
            if (taken) {
                redirected = true;
                redirect = target;
            }
        }
        SVB_NEXT();

        SVB_CASE(Syscall)
        SVB_CASE(Halt)
        {
            d_uops += uint64_t(u - ubase) + 1;
            resetFastPath();
            flush_stats();
            takeTrap(u->kind == SbKind::Syscall, next_pc, consumed);
            return consumed;
        }

        SVB_CASE(Nop)
        {
            // nothing
        }
        SVB_NEXT();

#undef SVB_ALU
#undef SVB_CASE
#undef SVB_NEXT
#if !SVB_THREADED_DISPATCH
        }
        // The threaded engine arrives here by goto; jump explicitly so
        // the label is used in both configurations.
        goto inst_done;
#endif

inst_done:
        d_uops += bi.numUops;
        if (redirected) {
            ctx.pc = redirect;
        } else {
            ctx.pc = next_pc;
            if (++curInst < uint32_t(curBlock->insts.size()))
                continue; // still inside the block
        }
        // Block boundary (taken control transfer or fall-off). A
        // target on the same virtual code page is a guaranteed iTLB
        // hit — the entry the cursor rests on is untouched since the
        // block-entry fill — so chain straight into the next block;
        // the loop head batches the hit credit. Anything else re-walks
        // through the real translate() above.
        if (paging::pageBase(ctx.pc) == curVpage) {
            const Addr next_anchor =
                curFrame | paging::pageOffset(ctx.pc);
            const Superblock *prev = curBlock;
            if (prev->succ != nullptr && prev->succAnchor == next_anchor) {
                curBlock = prev->succ;
            } else {
                curBlock = &sblocks.at(next_anchor);
                prev->succAnchor = next_anchor;
                prev->succ = curBlock;
            }
            curInst = 0;
        } else {
            curBlock = nullptr;
        }
    }

    flush_stats();
    return consumed;
}

} // namespace svb
