#include "kernel.hh"

#include "sim/logging.hh"

namespace svb
{

GuestKernel::GuestKernel(PhysMemory &phys_mem, FrameAllocator &frame_alloc,
                         IsaId isa_id, int num_cores, StatGroup &stats)
    : phys(phys_mem), frames(frame_alloc), isa(isa_id),
      runQueues(size_t(num_cores)), runningPid(size_t(num_cores), -1),
      statSyscalls(stats.childGroup("kernel").addScalar(
          "syscalls", "syscalls handled")),
      statYields(stats.childGroup("kernel").addScalar("yields",
                                                      "yield syscalls")),
      statSwitches(stats.childGroup("kernel").addScalar(
          "contextSwitches", "process context switches")),
      statExits(stats.childGroup("kernel").addScalar("exits",
                                                     "process exits"))
{
}

Process &
GuestKernel::createProcess(const std::string &name, int core)
{
    auto proc = std::make_unique<Process>();
    proc->pid = int(procs.size());
    proc->name = name;
    proc->core = core;
    proc->space = std::make_unique<AddressSpace>(phys, frames);
    procs.push_back(std::move(proc));
    return *procs.back();
}

void
GuestKernel::startProcess(int pid, Addr entry, Addr stack_top)
{
    Process &proc = process(pid);
    proc.saved = HwContext{};
    proc.saved.pc = entry;
    proc.saved.ptRoot = proc.space->root();
    proc.saved.processId = pid;
    proc.saved.halted = false;
    const IsaInfo &info = isaInfo(isa);
    const unsigned sp =
        info.id == IsaId::Riscv ? rv::sp : unsigned(cx::rsp);
    proc.saved.regs[sp] = stack_top;
    proc.state = ProcState::Ready;
    runQueues[size_t(proc.core)].push_back(pid);
}

Process &
GuestKernel::process(int pid)
{
    svb_assert(pid >= 0 && size_t(pid) < procs.size(), "bad pid ", pid);
    return *procs[size_t(pid)];
}

const Process &
GuestKernel::process(int pid) const
{
    svb_assert(pid >= 0 && size_t(pid) < procs.size(), "bad pid ", pid);
    return *procs[size_t(pid)];
}

int
GuestKernel::findProcess(const std::string &name) const
{
    for (const auto &proc : procs) {
        if (proc->name == name && proc->state != ProcState::Exited)
            return proc->pid;
    }
    return -1;
}

bool
GuestKernel::scheduleCore(int core_id, HwContext &ctx)
{
    auto &queue = runQueues[size_t(core_id)];
    if (queue.empty())
        return false;
    const int pid = queue.front();
    queue.pop_front();
    Process &proc = process(pid);
    proc.state = ProcState::Running;
    runningPid[size_t(core_id)] = pid;
    ctx = proc.saved;
    ctx.halted = false;
    return true;
}

uint64_t
GuestKernel::sysReg(const HwContext &ctx, int which) const
{
    // which: -1 = syscall number, 0..2 = arguments.
    if (isa == IsaId::Riscv)
        return which < 0 ? ctx.regs[rv::a7] : ctx.regs[rv::a0 + which];
    return which < 0 ? ctx.regs[cx::r9] : ctx.regs[cx::r1 + which];
}

void
GuestKernel::setResult(HwContext &ctx, uint64_t value) const
{
    if (isa == IsaId::Riscv)
        ctx.regs[rv::a0] = value;
    else
        ctx.regs[cx::r0] = value;
}

Cycles
GuestKernel::switchTo(int core_id, HwContext &ctx, bool requeue_current)
{
    auto &queue = runQueues[size_t(core_id)];
    const int cur = runningPid[size_t(core_id)];

    if (cur >= 0) {
        Process &proc = process(cur);
        if (requeue_current) {
            proc.saved = ctx;
            proc.state = ProcState::Ready;
            queue.push_back(cur);
        }
    }

    if (queue.empty()) {
        runningPid[size_t(core_id)] = -1;
        ctx.halted = true;
        ctx.processId = -1;
        return cost.contextSwitch;
    }

    const int next = queue.front();
    queue.pop_front();
    Process &proc = process(next);
    proc.state = ProcState::Running;
    runningPid[size_t(core_id)] = next;
    ctx = proc.saved;
    ctx.halted = false;
    ++statSwitches;
    return cost.contextSwitch;
}

Cycles
GuestKernel::handleSyscall(int core_id, HwContext &ctx)
{
    ++statSyscalls;
    ++trapCounter;
    const uint64_t number = sysReg(ctx, -1);

    switch (number) {
      case sys::sysExit: {
        ++statExits;
        const int cur = runningPid[size_t(core_id)];
        if (cur >= 0)
            process(cur).state = ProcState::Exited;
        return switchTo(core_id, ctx, /*requeue_current=*/false);
      }
      case sys::sysYield: {
        ++statYields;
        auto &queue = runQueues[size_t(core_id)];
        if (queue.empty())
            return cost.syscall; // nothing else to run: cheap return
        return switchTo(core_id, ctx, /*requeue_current=*/true);
      }
      case sys::sysM5: {
        if (m5 != nullptr)
            m5->m5Op(core_id, sysReg(ctx, 0), sysReg(ctx, 1));
        return cost.m5;
      }
      case sys::sysLog: {
        const int cur = runningPid[size_t(core_id)];
        const Addr vaddr = sysReg(ctx, 0);
        const uint64_t len = std::min<uint64_t>(sysReg(ctx, 1), 256);
        std::string text(len, '\0');
        if (cur >= 0)
            process(cur).space->readBytes(vaddr, text.data(), len);
        inform("[guest core", core_id, " ",
               cur >= 0 ? process(cur).name : "?", "] ", text);
        return cost.syscall;
      }
      case sys::sysNow:
        setResult(ctx, trapCounter);
        return cost.syscall;
      default:
        svb_fatal("unknown syscall ", number, " on core ", core_id);
    }
}

Cycles
GuestKernel::handleHalt(int core_id, HwContext &ctx)
{
    // A halt instruction is process exit without the syscall dance.
    ++statExits;
    ++trapCounter;
    const int cur = runningPid[size_t(core_id)];
    if (cur >= 0)
        process(cur).state = ProcState::Exited;
    return switchTo(core_id, ctx, /*requeue_current=*/false);
}

void
GuestKernel::serializeState(const std::string &prefix, Checkpoint &cp) const
{
    cp.setScalar(prefix + "numProcs", procs.size());
    cp.setScalar(prefix + "trapCounter", trapCounter);
    for (const auto &proc : procs) {
        // A restore adopts the saved root as the address space's.
        svb_assert(proc->saved.ptRoot == proc->space->root(), "process ",
                   proc->pid, " saved ptRoot is not its root");
        const std::string pp =
            prefix + "proc" + std::to_string(proc->pid) + ".";
        cp.setString(pp + "name", proc->name);
        cp.setScalar(pp + "core", uint64_t(proc->core));
        cp.setScalar(pp + "state", uint64_t(proc->state));
        cp.setScalar(pp + "pc", proc->saved.pc);
        cp.setScalar(pp + "ptRoot", proc->saved.ptRoot);
        cp.setScalar(pp + "halted", proc->saved.halted ? 1 : 0);
        for (unsigned r = 0; r < maxArchRegs; ++r)
            cp.setScalar(pp + "reg" + std::to_string(r),
                         proc->saved.regs[r]);
    }
    for (size_t c = 0; c < runQueues.size(); ++c) {
        const std::string cpfx = prefix + "core" + std::to_string(c) + ".";
        cp.setScalar(cpfx + "running", uint64_t(int64_t(runningPid[c])));
        cp.setScalar(cpfx + "queueLen", runQueues[c].size());
        for (size_t i = 0; i < runQueues[c].size(); ++i) {
            cp.setScalar(cpfx + "queue" + std::to_string(i),
                         uint64_t(runQueues[c][i]));
        }
    }
}

void
GuestKernel::unserializeState(const std::string &prefix,
                              const Checkpoint &cp)
{
    // The table grows one checkpointed process at a time, so a
    // doctored numProcs fails on its first missing key.
    const uint64_t num_procs = cp.getScalar(prefix + "numProcs");
    svb_assert(num_procs >= procs.size(),
               "checkpoint process-table mismatch");
    trapCounter = cp.getScalar(prefix + "trapCounter");
    for (size_t pid = 0; pid < num_procs; ++pid) {
        const std::string pp = prefix + "proc" + std::to_string(pid) + ".";
        const std::string &name = cp.getString(pp + "name");
        const Addr root = cp.getScalar(pp + "ptRoot");
        if (pid == procs.size()) {
            auto proc = std::make_unique<Process>();
            proc->pid = int(pid);
            proc->name = name;
            proc->space = std::make_unique<AddressSpace>(phys, frames, root);
            procs.push_back(std::move(proc));
        }
        const auto &proc = procs[pid];
        svb_assert(proc->name == name, "checkpoint process name mismatch",
                   " (pid ", pid, ": ", proc->name, " vs ", name, ")");
        svb_assert(proc->space->root() == root,
                   "checkpoint page-table root mismatch (pid ", pid, ")");
        proc->core = int(cp.getScalar(pp + "core"));
        proc->state = ProcState(cp.getScalar(pp + "state"));
        proc->saved.pc = cp.getScalar(pp + "pc");
        proc->saved.ptRoot = root;
        proc->saved.halted = cp.getScalar(pp + "halted") != 0;
        proc->saved.processId = proc->pid;
        for (unsigned r = 0; r < maxArchRegs; ++r)
            proc->saved.regs[r] =
                cp.getScalar(pp + "reg" + std::to_string(r));
    }
    for (size_t c = 0; c < runQueues.size(); ++c) {
        const std::string cpfx = prefix + "core" + std::to_string(c) + ".";
        runningPid[c] = int(int64_t(cp.getScalar(cpfx + "running")));
        runQueues[c].clear();
        const uint64_t len = cp.getScalar(cpfx + "queueLen");
        for (uint64_t i = 0; i < len; ++i) {
            runQueues[c].push_back(
                int(cp.getScalar(cpfx + "queue" + std::to_string(i))));
        }
    }
}

} // namespace svb
