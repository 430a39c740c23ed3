/**
 * @file
 * The micro-op intermediate form shared by both guest ISAs.
 *
 * Macro instructions decode into one or more MicroOps. All functional
 * semantics (ALU computation, branch evaluation, flag generation) are
 * expressed as pure functions over operand values, so the Atomic CPU
 * and the renamed out-of-order pipeline share one implementation.
 */

#ifndef SVB_ISA_MICROOP_HH
#define SVB_ISA_MICROOP_HH

#include <cstdint>

#include "op_class.hh"
#include "sim/types.hh"

namespace svb
{

/** Sentinel for "no register operand". */
constexpr uint8_t invalidReg = 0xff;

/** Micro-operations understood by the execution core. */
enum class UopOp : uint8_t
{
    // Integer ALU.
    Add, Sub, And, Or, Xor, Sll, Srl, Sra, Slt, Sltu,
    AddW, SubW, SllW, SrlW, SraW,
    // Multiply / divide.
    Mul, Mulh, Mulhu, Div, Divu, Rem, Remu,
    MulW, DivW, DivuW, RemW, RemuW,
    // Immediates & PC-relative materialisation.
    MovImm,   ///< rd = imm
    Auipc,    ///< rd = pc + imm
    // CX86 condition flags.
    CmpFlags, ///< rd(FLAGS) = flags(rs1 - rs2)
    TestFlags,///< rd(FLAGS) = flags(rs1 & rs2)
    // Memory.
    Load,     ///< rd = mem[rs1 + imm]
    Store,    ///< mem[rs1 + imm] = rs2
    // Control.
    BranchEq, BranchNe, BranchLt, BranchGe, BranchLtu, BranchGeu,
    BranchFlags, ///< conditional on FLAGS (rs1), condition in 'cond'
    Jump,        ///< direct jump, target = pc + imm, optional link rd
    JumpReg,     ///< indirect jump, target = (rs1 + imm) & ~1, link rd
    // System.
    Syscall, Halt, Nop,
};

/** Condition codes for BranchFlags (CX86 Jcc). */
enum class FlagCond : uint8_t
{
    Eq, Ne, Lt, Ge, Le, Gt, Ltu, Geu, Leu, Gtu
};

/** FLAGS register bit layout produced by CmpFlags/TestFlags. */
namespace flag
{
constexpr uint64_t zf = 1 << 0; ///< zero
constexpr uint64_t sf = 1 << 1; ///< sign
constexpr uint64_t cf = 1 << 2; ///< carry (unsigned borrow)
constexpr uint64_t of = 1 << 3; ///< signed overflow
} // namespace flag

/**
 * One executable micro-operation.
 */
struct MicroOp
{
    UopOp op = UopOp::Nop;
    uint8_t rd = invalidReg;
    uint8_t rs1 = invalidReg;
    uint8_t rs2 = invalidReg;
    int64_t imm = 0;
    uint8_t memSize = 0;       ///< access size in bytes (loads/stores)
    bool memSigned = false;    ///< sign-extend loaded value
    FlagCond cond = FlagCond::Eq;
    OpClass cls = OpClass::IntAlu;
    bool useImm = false;       ///< second ALU source is 'imm', not rs2

    bool isLoad() const { return op == UopOp::Load; }
    bool isStore() const { return op == UopOp::Store; }
    bool isMem() const { return isLoad() || isStore(); }
    bool isSyscall() const { return op == UopOp::Syscall; }
    bool isHalt() const { return op == UopOp::Halt; }

    bool
    isControl() const
    {
        return (op >= UopOp::BranchEq && op <= UopOp::JumpReg);
    }

    bool
    isCondCtrl() const
    {
        return (op >= UopOp::BranchEq && op <= UopOp::BranchFlags);
    }

    bool operator==(const MicroOp &) const = default;
};

/** Outcome of evaluating a control micro-op. */
struct BranchEval
{
    bool taken = false;
    Addr target = 0;
};

/**
 * Compute the result of a non-memory, non-control micro-op.
 *
 * @param uop the micro-op (MovImm/Auipc/ALU/flag ops)
 * @param a   value of rs1
 * @param b   value of rs2 (ignored when useImm)
 * @param pc  pc of the containing macro instruction (for Auipc)
 * @return the value to write to rd
 */
uint64_t aluCompute(const MicroOp &uop, uint64_t a, uint64_t b, Addr pc);

/**
 * Evaluate a control micro-op.
 *
 * @param uop control micro-op
 * @param a   value of rs1 (FLAGS for BranchFlags, base for JumpReg)
 * @param b   value of rs2
 * @param pc  pc of the containing macro instruction
 * @return taken flag and target address
 */
BranchEval branchEval(const MicroOp &uop, uint64_t a, uint64_t b, Addr pc);

/**
 * Sign/zero-extend a raw little-endian loaded value.
 *
 * @param raw    raw loaded bytes in the low bits
 * @param size   access size (1/2/4/8 bytes)
 * @param sgn    sign-extend when true
 */
uint64_t loadExtend(uint64_t raw, unsigned size, bool sgn);

/** @return the effective address of a memory micro-op. */
inline Addr
memEffAddr(const MicroOp &uop, uint64_t base)
{
    return Addr(base + uint64_t(uop.imm));
}

/** Evaluate a FlagCond against a FLAGS word. */
bool flagCondTaken(FlagCond cond, uint64_t flags);

/** Compute the FLAGS word for a compare (a - b). */
uint64_t computeCmpFlags(uint64_t a, uint64_t b);

} // namespace svb

#endif // SVB_ISA_MICROOP_HH
