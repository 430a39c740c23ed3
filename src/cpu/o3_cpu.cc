#include "o3_cpu.hh"

#include <algorithm>
#include <functional>

#include "sim/logging.hh"

namespace svb
{

O3Cpu::O3Cpu(const O3Params &params, int core_id, IsaId isa_id,
             PhysMemory &phys_mem, CoreMemSystem &mem_sys,
             DecodeCache &decode, TrapHandler &trap_handler,
             StatGroup &stats)
    : BaseCpu(core_id, isa_id, phys_mem, mem_sys, decode, trap_handler,
              stats, "o3"),
      p(params), bp(params.bp, group),
      statCycles(group.addScalar("numCycles", "active cycles simulated")),
      statIdleCycles(group.addScalar("idleCycles", "cycles halted")),
      statInsts(group.addScalar("numInsts",
                                "macro instructions committed")),
      statUops(group.addScalar("numUops", "micro-ops committed")),
      statLoads(group.addScalar("numLoads", "loads committed")),
      statStores(group.addScalar("numStores", "stores committed")),
      statBranches(group.addScalar("numBranches",
                                   "control instructions committed")),
      statCondBranches(group.addScalar("numCondBranches",
                                       "conditional branches committed")),
      statMispredicts(group.addScalar("branchMispredicts",
                                      "mispredicted control instructions")),
      statSquashedUops(group.addScalar("squashedUops",
                                       "micro-ops squashed")),
      statRobFullStalls(group.addScalar("robFullStalls",
                                        "rename stalls: ROB full")),
      statIqFullStalls(group.addScalar("iqFullStalls",
                                       "rename stalls: IQ full")),
      statLsqFullStalls(group.addScalar("lsqFullStalls",
                                        "rename stalls: LQ/SQ full")),
      statFwdLoads(group.addScalar("forwardedLoads",
                                   "loads served by store forwarding"))
{
    svb_assert(p.numPhysIntRegs > isaDesc.numIntRegs + 8,
               "too few physical registers");
    // The per-cycle attribution vector (see cpu/stall_cause.hh): one
    // counter per cause in its own child group, so the flattened stat
    // names read system.cpuN.o3.stall.<cause>.
    StatGroup &stall_group = group.childGroup("stall");
    for (unsigned c = 0; c < numStallCauses; ++c) {
        statStallCycles[c] = &stall_group.addScalar(
            stallCauseName(c), "cycles attributed to this stall cause");
    }
    group.addFormula("cpi", "cycles per committed instruction", [this]() {
        return statInsts.value()
                   ? double(statCycles.value()) / double(statInsts.value())
                   : 0.0;
    });
    group.addFormula("branchMispredictRate", "mispredicts per branch",
                     [this]() {
                         return statBranches.value()
                                    ? double(statMispredicts.value()) /
                                          double(statBranches.value())
                                    : 0.0;
                     });
    setContext(HwContext{});
}

void
O3Cpu::setContext(const HwContext &new_ctx)
{
    BaseCpu::setContext(new_ctx);

    // Storage is allocated by the first call; later calls only reset.
    rob.reset(p.robEntries);
    loadQueue.reset(p.lqEntries);
    storeQueue.reset(p.sqEntries);
    fetchQueue.reset(p.fetchBufferEntries);
    iqCount = 0;

    const size_t words = rob.storage() / 64;
    readyBits.assign(words, 0);
    parkedBits.assign(words, 0);
    waitHead.assign(p.numPhysIntRegs, -1);
    waitNext.assign(2 * size_t(rob.storage()), -1);
    wakeups.clear();
    wakeups.reserve(rob.storage());
    sqUnready = 0;

    const unsigned nArch = maxArchRegs;
    renameMap.assign(nArch, 0);
    committedMap.assign(nArch, 0);
    physRegs.assign(p.numPhysIntRegs, 0);
    regReadyAt.assign(p.numPhysIntRegs, 0);
    freeList.clear();
    for (unsigned i = 0; i < nArch; ++i) {
        renameMap[i] = int(i);
        committedMap[i] = int(i);
        physRegs[i] = ctx.regs[i];
    }
    for (unsigned i = nArch; i < p.numPhysIntRegs; ++i)
        freeList.push_back(int(i));

    fetchPc = ctx.pc;
    fetchEnabled = !ctx.halted;
    fetchStallUntil = 0;
    lastFetchLine = ~Addr(0);
    divBusyUntil = 0;
    commitStallUntil = 0;
}

HwContext
O3Cpu::getContext() const
{
    HwContext out = ctx;
    for (unsigned i = 0; i < maxArchRegs; ++i)
        out.regs[i] = physRegs[size_t(committedMap[i])];
    // The committed pc is the oldest unretired instruction: in-flight
    // work has not touched committed state, so resuming there is exact.
    if (!rob.empty())
        out.pc = rob.front().pc;
    else if (!fetchQueue.empty())
        out.pc = fetchQueue.front().pc;
    else
        out.pc = fetchPc;
    return out;
}

void
O3Cpu::tick()
{
    if (ctx.halted) {
        ++statIdleCycles;
        return;
    }
    ++cycle;
    ++statCycles;

    commitsThisCycle = 0;
    commitBlock = CommitBlock::None;
    renameStall = RenameStall::None;
    frontendInFlight = false;

    commitStage();
    if (ctx.halted) {
        accountCycle();
        return;
    }
    issueStage();
    renameStage();
    fetchStage();
    accountCycle();
}

void
O3Cpu::addQuietCycles(uint64_t n)
{
    if (ctx.halted) {
        statIdleCycles += n;
        return;
    }
    svb_assert(n <= quietCycles(), "core ", coreId, " credited ", n,
               " quiet cycles with ", quietCycles(), " left");
    // Ticks cycle + 1 .. cycle + n: commit is trap-blocked before
    // commitStallUntil and finds the ROB and frontend empty after it.
    const uint64_t trap_cycles =
        commitStallUntil > cycle + 1
            ? std::min<uint64_t>(n, commitStallUntil - cycle - 1)
            : 0;
    *statStallCycles[unsigned(StallCause::Trap)] += trap_cycles;
    *statStallCycles[unsigned(StallCause::FetchStarved)] += n - trap_cycles;
    statCycles += n;
    cycle += n;
}

void
O3Cpu::accountCycle()
{
    // Exactly one cause per counted cycle; cpu/stall_cause.hh
    // documents the priority order. Backend structure pressure
    // (observed at rename) outranks the head's own block so that
    // window-full cycles stay distinguishable from plain miss
    // latency.
    StallCause cause;
    if (commitsThisCycle > 0)
        cause = StallCause::Retiring;
    else if (commitBlock == CommitBlock::Trap)
        cause = StallCause::Trap;
    else if (commitBlock == CommitBlock::RobEmpty)
        cause = frontendInFlight ? StallCause::Decode
                                 : StallCause::FetchStarved;
    else if (renameStall == RenameStall::Rob)
        cause = StallCause::RobFull;
    else if (renameStall == RenameStall::Iq)
        cause = StallCause::IqFull;
    else if (renameStall == RenameStall::Lsq)
        cause = StallCause::LsqFull;
    else if (renameStall == RenameStall::Regs)
        cause = StallCause::RenameBlocked;
    else if (commitBlock == CommitBlock::HeadMem)
        cause = StallCause::Memory;
    else
        cause = StallCause::IssueWait;
    ++*statStallCycles[unsigned(cause)];
}

// --------------------------------------------------------------------------
// Fetch
// --------------------------------------------------------------------------

void
O3Cpu::fetchStage()
{
    if (!fetchEnabled || cycle < fetchStallUntil)
        return;

    for (unsigned n = 0; n < p.fetchWidth; ++n) {
        if (fetchQueue.size() >= p.fetchBufferEntries)
            return;

        TranslateResult tr =
            itlbUnit.translate(fetchPc, ctx.ptRoot, phys, &mem, cycle);
        if (tr.fault) {
            // Only reachable on a mispredicted (wrong) path: stall and
            // wait for the squash that must be coming. A fault with an
            // empty pipeline is a real bug.
            svb_assert(!rob.empty() || !fetchQueue.empty(),
                       "instruction page fault on the correct path pc=",
                       fetchPc);
            fetchStallUntil = cycle + 1;
            return;
        }
        if (tr.latency > 0) {
            // ITLB miss: stall for the walk; the entry is now cached.
            fetchStallUntil = cycle + tr.latency;
            return;
        }

        const StaticInst &inst = decoder.decodeAt(tr.paddr);
        if (!inst.valid) {
            svb_assert(!rob.empty() || !fetchQueue.empty(),
                       "illegal instruction on the correct path pc=",
                       fetchPc);
            fetchStallUntil = cycle + 1;
            return;
        }

        const Addr line = (tr.paddr + inst.length - 1) & ~Addr(63);
        if ((tr.paddr & ~Addr(63)) != lastFetchLine || line != lastFetchLine) {
            const Cycles lat = mem.fetchAccess(tr.paddr, inst.length, cycle);
            lastFetchLine = line;
            if (lat > 2) { // beyond L1I hit: stall, retry after fill
                fetchStallUntil = cycle + lat;
                return;
            }
        }

        FetchEntry fe;
        fe.pc = fetchPc;
        fe.inst = &inst;
        fe.readyAt = cycle + p.frontendDelay;

        const Addr fall_through = fetchPc + inst.length;
        if (inst.isControl) {
            BranchPrediction pred = bp.predict(fetchPc, inst, fall_through);
            fe.hasPred = true;
            fe.predNext = pred.nextPc;
            fetchQueue.pushBack() = fe;
            fetchPc = pred.nextPc;
            if (pred.taken) {
                lastFetchLine = ~Addr(0);
                return; // taken branch ends the fetch group
            }
            continue;
        }

        fetchQueue.pushBack() = fe;
        fetchPc = fall_through;

        if (inst.isSyscall || inst.isHalt) {
            // Stop fetching until the trap commits and redirects.
            fetchEnabled = false;
            return;
        }
    }
}

// --------------------------------------------------------------------------
// Rename / dispatch
// --------------------------------------------------------------------------

void
O3Cpu::renameStage()
{
    for (unsigned n = 0; n < p.renameWidth; ++n) {
        if (fetchQueue.empty() || fetchQueue.front().readyAt > cycle)
            return;

        const FetchEntry &fe = fetchQueue.front();
        const StaticInst &inst = *fe.inst;

        // Resource check across the whole macro instruction.
        if (rob.size() + inst.numUops > p.robEntries) {
            ++statRobFullStalls;
            renameStall = RenameStall::Rob;
            return;
        }
        unsigned need_iq = 0, need_regs = 0, need_lq = 0, need_sq = 0;
        for (unsigned i = 0; i < inst.numUops; ++i) {
            const MicroOp &u = inst.uops[i];
            const bool trap_or_nop =
                u.isSyscall() || u.isHalt() || u.op == UopOp::Nop;
            if (!trap_or_nop)
                ++need_iq;
            if (u.rd != invalidReg)
                ++need_regs;
            if (u.isLoad())
                ++need_lq;
            if (u.isStore())
                ++need_sq;
        }
        if (iqCount + need_iq > p.iqEntries) {
            ++statIqFullStalls;
            renameStall = RenameStall::Iq;
            return;
        }
        if (loadQueue.size() + need_lq > p.lqEntries ||
            storeQueue.size() + need_sq > p.sqEntries) {
            ++statLsqFullStalls;
            renameStall = RenameStall::Lsq;
            return;
        }
        if (freeList.size() < need_regs) {
            renameStall = RenameStall::Regs;
            return;
        }

        for (unsigned i = 0; i < inst.numUops; ++i) {
            const MicroOp &u = inst.uops[i];
            const uint64_t pos = rob.end();
            DynInst &d = rob.pushBack();
            d = DynInst{};
            d.pos = pos;
            d.uop = u;
            d.sinst = &inst;
            d.pc = fe.pc;
            d.instLen = inst.length;
            d.lastUop = (i + 1 == inst.numUops);
            if (d.lastUop && fe.hasPred) {
                d.hasPred = true;
                d.predNext = fe.predNext;
            }

            d.psrc1 = (u.rs1 == invalidReg) ? -1 : renameMap[u.rs1];
            d.psrc2 = (u.rs2 == invalidReg || u.useImm)
                          ? -1
                          : renameMap[u.rs2];
            if (u.rd != invalidReg) {
                d.archDst = u.rd;
                d.oldPdst = renameMap[u.rd];
                d.pdst = freeList.back();
                freeList.pop_back();
                renameMap[u.rd] = d.pdst;
                regReadyAt[size_t(d.pdst)] = maxTick;
            }

            if (u.isSyscall() || u.isHalt() || u.op == UopOp::Nop) {
                d.executed = (u.op == UopOp::Nop);
                d.completeAt = cycle;
            } else {
                enterIq(d);
            }
            if (u.isLoad())
                loadQueue.pushBack() = pos;
            if (u.isStore())
                storeQueue.pushBack() = pos;
        }
        fetchQueue.popFront();
    }
}

// --------------------------------------------------------------------------
// Issue / execute
// --------------------------------------------------------------------------

void
O3Cpu::issueStage()
{
    while (!wakeups.empty() && wakeups.front().at <= cycle) {
        setBit(readyBits, wakeups.front().pos);
        std::pop_heap(wakeups.begin(), wakeups.end(), std::greater<>());
        wakeups.pop_back();
    }

    unsigned issued = 0, alu_used = 0, mult_used = 0, mem_used = 0;
    uint64_t squash_pos = 0;
    Addr redirect_to = 0;
    bool mispredict = false;

    // Only ready uops are visited, oldest first: skipping the rest is
    // exact because a uop with an unready source, or a load parked
    // behind a store without an address, would be rejected here
    // without any side effect.
    for (uint64_t pos = nextSet(readyBits, rob.begin());
         pos != rob.end() && issued < p.issueWidth;
         pos = nextSet(readyBits, pos + 1)) {
        DynInst &d = rob.at(pos);
        const Issue outcome = tryIssue(d, alu_used, mult_used, mem_used);
        if (outcome == Issue::Retry)
            continue;
        clearBit(readyBits, pos);
        if (outcome == Issue::Park) {
            setBit(parkedBits, pos);
            continue;
        }

        ++issued;
        d.inIq = false;
        --iqCount;

        if (d.uop.isControl() && d.executed) {
            const Addr expected =
                d.hasPred ? d.predNext : (d.pc + d.instLen);
            if (d.actualNext != expected) {
                mispredict = true;
                squash_pos = d.pos;
                redirect_to = d.actualNext;
                ++statMispredicts;
                break;
            }
        }
    }

    if (mispredict) {
        squashAfter(squash_pos);
        redirectFetch(redirect_to, p.frontendDelay);
    }
}

O3Cpu::Issue
O3Cpu::tryIssue(DynInst &d, unsigned &alu_used, unsigned &mult_used,
                unsigned &mem_used)
{
    const MicroOp &u = d.uop;

    switch (u.cls) {
      case OpClass::IntAlu:
      case OpClass::Branch:
        if (alu_used >= p.intAluUnits)
            return Issue::Retry;
        ++alu_used;
        executeUop(d, p.intAluLat);
        return Issue::Done;
      case OpClass::IntMult:
        if (mult_used >= p.intMultUnits)
            return Issue::Retry;
        ++mult_used;
        executeUop(d, p.intMultLat);
        return Issue::Done;
      case OpClass::IntDiv:
        if (cycle < divBusyUntil)
            return Issue::Retry;
        divBusyUntil = cycle + p.intDivLat; // unpipelined
        executeUop(d, p.intDivLat);
        return Issue::Done;
      case OpClass::MemRead: {
        if (mem_used >= p.memPorts)
            return Issue::Retry;
        const Issue outcome = issueLoad(d);
        if (outcome == Issue::Done)
            ++mem_used;
        return outcome;
      }
      case OpClass::MemWrite: {
        if (mem_used >= p.memPorts)
            return Issue::Retry;
        ++mem_used;
        // Address generation + data capture; the write happens at commit.
        const Addr vaddr = memEffAddr(u, readPhys(d.psrc1));
        TranslateResult tr =
            dtlbUnit.translate(vaddr, ctx.ptRoot, phys, &mem, cycle);
        if (tr.fault) {
            // Wrong-path store with a garbage address: park it as
            // executed-but-faulted; commit panics if it survives.
            d.faulted = true;
            d.completeAt = cycle + 1;
        } else {
            d.effPaddr = tr.paddr;
            d.storeData = d.psrc2 >= 0 ? readPhys(d.psrc2) : 0;
            d.completeAt = cycle + 1 + tr.latency;
        }
        d.addrReady = true;
        d.executed = true;
        storeAddressKnown();
        return Issue::Done;
      }
      default:
        // Should not reach the IQ.
        d.executed = true;
        d.completeAt = cycle;
        return Issue::Done;
    }
}

void
O3Cpu::executeUop(DynInst &d, Cycles lat)
{
    const MicroOp &u = d.uop;
    const uint64_t a = d.psrc1 >= 0 ? readPhys(d.psrc1) : 0;
    const uint64_t b = d.psrc2 >= 0 ? readPhys(d.psrc2) : 0;

    if (u.isControl()) {
        const Addr next_pc = d.pc + d.instLen;
        BranchEval ev = branchEval(u, a, b, d.pc);
        d.actualTaken = ev.taken;
        d.actualNext = ev.taken ? ev.target : next_pc;
        if (d.pdst >= 0)
            writeReg(d.pdst, next_pc, cycle + lat); // link value
    } else {
        const uint64_t value = aluCompute(u, a, b, d.pc);
        if (d.pdst >= 0)
            writeReg(d.pdst, value, cycle + lat);
    }
    d.executed = true;
    d.completeAt = cycle + lat;
}

O3Cpu::Issue
O3Cpu::issueLoad(DynInst &d)
{
    const MicroOp &u = d.uop;

    // Conservative memory ordering: wait until every older store knows
    // its address; forward when fully covered; stall on partial overlap.
    if (sqUnready != storeQueue.end() && storeQueue.at(sqUnready) < d.pos)
        return Issue::Park;

    const Addr vaddr = memEffAddr(u, readPhys(d.psrc1));
    TranslateResult tr =
        dtlbUnit.translate(vaddr, ctx.ptRoot, phys, &mem, cycle);
    if (tr.fault) {
        // Wrong-path load: complete with a dummy value.
        d.faulted = true;
        d.executed = true;
        d.completeAt = cycle + 1;
        if (d.pdst >= 0)
            writeReg(d.pdst, 0, cycle + 1);
        return Issue::Done;
    }
    d.effPaddr = tr.paddr;

    const DynInst *fwd = nullptr;
    const Addr lo = tr.paddr;
    const Addr hi = tr.paddr + u.memSize;
    for (uint64_t i = storeQueue.begin(); i != storeQueue.end(); ++i) {
        const uint64_t st_pos = storeQueue.at(i);
        if (st_pos >= d.pos)
            break;
        const DynInst &st = rob.at(st_pos);
        const Addr slo = st.effPaddr;
        const Addr shi = st.effPaddr + st.uop.memSize;
        if (hi <= slo || lo >= shi)
            continue; // disjoint
        if (slo <= lo && hi <= shi) {
            fwd = &st; // fully covered; youngest older wins (keep scanning)
        } else {
            // Partial overlap: wait for the store to retire. The
            // translation above re-runs on every retry.
            return Issue::Retry;
        }
    }

    uint64_t raw;
    Cycles lat;
    if (fwd) {
        ++statFwdLoads;
        const unsigned shift =
            unsigned(lo - fwd->effPaddr) * 8;
        raw = fwd->storeData >> shift;
        lat = p.forwardLat + tr.latency;
    } else {
        raw = phys.read(tr.paddr, u.memSize);
        lat = mem.dataAccess(tr.paddr, u.memSize, false, cycle) +
              tr.latency;
    }

    if (d.pdst >= 0)
        writeReg(d.pdst, loadExtend(raw, u.memSize, u.memSigned),
                 cycle + lat);
    d.executed = true;
    d.completeAt = cycle + lat;
    return Issue::Done;
}

// --------------------------------------------------------------------------
// Issue scheduling: waiter lists, the wakeup heap, parked loads
// --------------------------------------------------------------------------

void
O3Cpu::enterIq(DynInst &d)
{
    d.inIq = true;
    ++iqCount;
    const unsigned slot = rob.slotOf(d.pos);
    const int srcs[2] = {d.psrc1, d.psrc2 == d.psrc1 ? -1 : d.psrc2};
    for (unsigned k = 0; k < 2; ++k) {
        const int preg = srcs[k];
        if (preg < 0 || regReadyAt[size_t(preg)] != maxTick)
            continue;
        const int node = int(2 * slot + k);
        waitNext[size_t(node)] = waitHead[size_t(preg)];
        waitHead[size_t(preg)] = node;
        d.waiting |= uint8_t(1u << k);
    }
    if (d.waiting == 0)
        scheduleReady(d);
}

void
O3Cpu::scheduleReady(const DynInst &d)
{
    Cycles at = 0;
    if (d.psrc1 >= 0)
        at = regReadyAt[size_t(d.psrc1)];
    if (d.psrc2 >= 0)
        at = std::max(at, regReadyAt[size_t(d.psrc2)]);
    if (at <= cycle) {
        // Visible to an issue scan still in progress (it only ever
        // wakes younger uops) or to the next one.
        setBit(readyBits, d.pos);
    } else {
        wakeups.push_back(Wakeup{at, d.pos});
        std::push_heap(wakeups.begin(), wakeups.end(), std::greater<>());
    }
}

void
O3Cpu::writeReg(int preg, uint64_t value, Cycles ready_at)
{
    physRegs[size_t(preg)] = value;
    regReadyAt[size_t(preg)] = ready_at;
    int node = waitHead[size_t(preg)];
    waitHead[size_t(preg)] = -1;
    while (node >= 0) {
        // A slot index is a position modulo the ring's storage.
        DynInst &w = rob.at(unsigned(node) / 2);
        w.waiting &= uint8_t(~(1u << (unsigned(node) % 2)));
        if (w.waiting == 0)
            scheduleReady(w);
        node = waitNext[size_t(node)];
    }
}

void
O3Cpu::storeAddressKnown()
{
    const uint64_t before = sqUnready;
    while (sqUnready != storeQueue.end() &&
           rob.at(storeQueue.at(sqUnready)).addrReady)
        ++sqUnready;
    if (sqUnready == before)
        return;
    // Release every parked load older than the new mark. They are all
    // younger than the store that just issued, so a scan in progress
    // still reaches them this cycle.
    const uint64_t limit = sqUnready == storeQueue.end()
                               ? rob.end()
                               : storeQueue.at(sqUnready);
    for (uint64_t pos = nextSet(parkedBits, rob.begin()); pos < limit;
         pos = nextSet(parkedBits, pos + 1)) {
        clearBit(parkedBits, pos);
        setBit(readyBits, pos);
    }
}

uint64_t
O3Cpu::nextSet(const std::vector<uint64_t> &bits, uint64_t pos) const
{
    // Slots from slotOf(pos) upwards hold positions pos, pos + 1, ...
    // up to the ROB end; past it they hold dead or older entries, so
    // a hit mapped beyond the end means there is none left.
    const uint64_t end = rob.end();
    while (pos < end) {
        const unsigned slot = rob.slotOf(pos);
        const uint64_t word = bits[slot / 64] >> (slot % 64);
        if (word != 0)
            return std::min(end, pos + unsigned(__builtin_ctzll(word)));
        pos += 64 - slot % 64;
    }
    return end;
}

void
O3Cpu::setBit(std::vector<uint64_t> &bits, uint64_t pos)
{
    const unsigned slot = rob.slotOf(pos);
    bits[slot / 64] |= uint64_t(1) << (slot % 64);
}

void
O3Cpu::clearBit(std::vector<uint64_t> &bits, uint64_t pos)
{
    const unsigned slot = rob.slotOf(pos);
    bits[slot / 64] &= ~(uint64_t(1) << (slot % 64));
}

// --------------------------------------------------------------------------
// Commit
// --------------------------------------------------------------------------

void
O3Cpu::commitStage()
{
    if (cycle < commitStallUntil) {
        commitBlock = CommitBlock::Trap;
        return;
    }

    for (unsigned n = 0; n < p.commitWidth; ++n) {
        if (rob.empty()) {
            commitBlock = CommitBlock::RobEmpty;
            // Sampled before this cycle's rename/fetch run: entries
            // still in the frontend-delay pipe mean decode transit,
            // a drained frontend means fetch starvation.
            frontendInFlight = !fetchQueue.empty();
            return;
        }
        DynInst &d = rob.front();

        if (d.uop.isSyscall() || d.uop.isHalt()) {
            deliverTrap(d);
            return;
        }

        if (!d.executed || cycle < d.completeAt) {
            commitBlock = d.uop.isLoad() || d.uop.isStore()
                              ? CommitBlock::HeadMem
                              : CommitBlock::HeadExec;
            return;
        }
        svb_assert(!d.faulted, "faulted memory access reached commit, pc=",
                   d.pc, " core=", coreId, " isLoad=", d.uop.isLoad(),
                   " base reg r", int(d.uop.rs1), " pos=", d.pos);

        if (d.uop.isStore()) {
            svb_assert(!storeQueue.empty() &&
                       storeQueue.front() == d.pos, "SQ out of order");
            phys.write(d.effPaddr, d.storeData, d.uop.memSize);
            mem.dataAccess(d.effPaddr, d.uop.memSize, true, cycle);
            storeQueue.popFront();
            ++statStores;
        }
        if (d.uop.isLoad()) {
            svb_assert(!loadQueue.empty() && loadQueue.front() == d.pos,
                       "LQ out of order");
            loadQueue.popFront();
            ++statLoads;
        }

        if (d.archDst >= 0) {
            // The previous committed mapping is dead once this commits:
            // all of its readers are older and have already executed.
            const int prev = committedMap[d.archDst];
            committedMap[d.archDst] = d.pdst;
            freeList.push_back(prev);
        }

        ++statUops;
        ++commitsThisCycle;
        if (d.lastUop) {
            ++statInsts;
            if (d.uop.isControl()) {
                ++statBranches;
                if (d.uop.isCondCtrl())
                    ++statCondBranches;
                bp.update(d.pc, *d.sinst, d.actualTaken, d.actualNext);
            }
        }
        rob.popFront();
    }
}

void
O3Cpu::deliverTrap(DynInst &d)
{
    // The trap must be the oldest instruction; squash everything younger
    // and hand the committed architectural state to the kernel.
    squashAfter(d.pos);

    HwContext trap_ctx = ctx;
    trap_ctx.pc = d.pc + d.instLen;
    for (unsigned i = 0; i < maxArchRegs; ++i)
        trap_ctx.regs[i] = physRegs[size_t(committedMap[i])];

    const Addr old_root = trap_ctx.ptRoot;
    if (preTrap)
        preTrap(1);
    const Cycles cost = d.uop.isSyscall()
                            ? trap.handleSyscall(coreId, trap_ctx)
                            : trap.handleHalt(coreId, trap_ctx);

    ++statUops;
    ++statInsts;
    ++commitsThisCycle;
    svb_assert(!rob.empty() && &rob.front() == &d, "trap not at ROB head");
    rob.popFront();

    // Apply the (possibly switched) context back onto the committed
    // register state.
    ctx.processId = trap_ctx.processId;
    ctx.ptRoot = trap_ctx.ptRoot;
    ctx.halted = trap_ctx.halted;
    for (unsigned i = 0; i < maxArchRegs; ++i) {
        const size_t preg = size_t(committedMap[i]);
        physRegs[preg] = trap_ctx.regs[i];
        regReadyAt[preg] = 0;
    }
    if (trap_ctx.ptRoot != old_root) {
        itlbUnit.flush();
        dtlbUnit.flush();
    }

    commitStallUntil = cycle + cost;
    if (!ctx.halted)
        redirectFetch(trap_ctx.pc, cost);
}

// --------------------------------------------------------------------------
// Squash / redirect
// --------------------------------------------------------------------------

void
O3Cpu::squashAfter(uint64_t pos)
{
    while (!rob.empty() && rob.back().pos > pos) {
        DynInst &d = rob.back();
        ++statSquashedUops;
        if (d.archDst >= 0) {
            renameMap[d.archDst] = d.oldPdst;
            freeList.push_back(d.pdst);
        }
        if (d.uop.isLoad()) {
            svb_assert(!loadQueue.empty() && loadQueue.back() == d.pos,
                       "LQ squash mismatch");
            loadQueue.popBack();
        }
        if (d.uop.isStore()) {
            svb_assert(!storeQueue.empty() && storeQueue.back() == d.pos,
                       "SQ squash mismatch");
            storeQueue.popBack();
        }
        if (d.inIq) {
            // Youngest first, so each waiter node still registered is
            // the head of its register's list.
            const unsigned slot = rob.slotOf(d.pos);
            const int srcs[2] = {d.psrc1, d.psrc2};
            for (unsigned k = 0; k < 2; ++k) {
                if (!(d.waiting & (1u << k)))
                    continue;
                const int node = int(2 * slot + k);
                svb_assert(waitHead[size_t(srcs[k])] == node,
                           "waiter list out of order");
                waitHead[size_t(srcs[k])] = waitNext[size_t(node)];
            }
            clearBit(readyBits, d.pos);
            clearBit(parkedBits, d.pos);
            --iqCount;
        }
        rob.popBack();
    }
    sqUnready = std::min(sqUnready, storeQueue.end());
    // Drop the squashed uops' pending wakeups.
    const uint64_t end = rob.end();
    const auto dead = std::remove_if(
        wakeups.begin(), wakeups.end(),
        [end](const Wakeup &w) { return w.pos >= end; });
    if (dead != wakeups.end()) {
        wakeups.erase(dead, wakeups.end());
        std::make_heap(wakeups.begin(), wakeups.end(), std::greater<>());
    }
    fetchQueue.clear();
}

void
O3Cpu::redirectFetch(Addr new_pc, Cycles delay)
{
    fetchPc = new_pc;
    fetchEnabled = true;
    fetchStallUntil = cycle + delay;
    lastFetchLine = ~Addr(0);
}

} // namespace svb
