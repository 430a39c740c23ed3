/**
 * @file
 * Disassembler tests.
 */

#include <gtest/gtest.h>

#include "isa/cx86/assembler.hh"
#include "isa/disasm.hh"
#include "isa/riscv/assembler.hh"

using namespace svb;

TEST(Disasm, RiscvRegisterNamesAndTargets)
{
    riscv::Assembler as;
    AsmLabel l = as.newLabel();
    as.add(rv::a0, rv::a1, rv::s3);
    as.beq(rv::t0, rv::zero, l);
    as.ld(rv::s0, rv::sp, 24);
    as.bind(l);
    as.ecall();
    const auto lines = disassembleBuffer(as.finish(), IsaId::Riscv, {},
                                         0x1000);
    ASSERT_EQ(lines.size(), 4u);
    EXPECT_EQ(lines[0].text, "add a0, a1, s3");
    EXPECT_NE(lines[1].text.find("beq"), std::string::npos);
    EXPECT_NE(lines[1].text.find("0x100c"), std::string::npos);
    EXPECT_NE(lines[2].text.find("s0"), std::string::npos);
    EXPECT_NE(lines[2].text.find("sp"), std::string::npos);
    EXPECT_EQ(lines[3].text, "ecall");
}

TEST(Disasm, Cx86ShowsUopExpansion)
{
    cx86::Assembler as;
    as.push(cx::rbp);
    as.ret();
    const auto lines = disassembleBuffer(as.finish(), IsaId::Cx86);
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_NE(lines[0].text.find("push"), std::string::npos);
    EXPECT_NE(lines[0].text.find("{"), std::string::npos); // cracked
    EXPECT_NE(lines[1].text.find("ret"), std::string::npos);
    EXPECT_NE(lines[1].text.find("jmpr ut0"), std::string::npos);
}

TEST(Disasm, SymbolsAnnotateLines)
{
    riscv::Assembler as;
    as.nop();
    as.nop();
    const auto lines = disassembleBuffer(
        as.finish(), IsaId::Riscv, {{"f0", 0}, {"f1", 4}});
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_EQ(lines[0].symbol, "f0");
    EXPECT_EQ(lines[1].symbol, "f1");
}

TEST(Disasm, InvalidBytesDoNotDerail)
{
    const std::vector<uint8_t> junk = {0xff, 0xff, 0xee, 0x00, 0x00};
    const auto lines = disassembleBuffer(junk, IsaId::Cx86);
    EXPECT_GE(lines.size(), 1u);
    EXPECT_EQ(lines[0].text, "<invalid>");
}
