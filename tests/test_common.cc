/**
 * @file
 * Unit tests for common utilities: BitVec masking/arith semantics, the
 * ASCII table renderer and the cache directory's atomic publish.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "common/bitvec.hh"
#include "common/cachedir.hh"
#include "common/table.hh"

using namespace rmp;

TEST(BitVec, MaskingOnConstruction)
{
    BitVec v(4, 0xff);
    EXPECT_EQ(v.value(), 0xfu);
    EXPECT_EQ(v.width(), 4u);
}

TEST(BitVec, FullWidth64)
{
    BitVec v(64, ~0ULL);
    EXPECT_EQ(v.value(), ~0ULL);
    EXPECT_EQ(v.mask(), ~0ULL);
}

TEST(BitVec, BitAccess)
{
    BitVec v(8, 0b10100101);
    EXPECT_TRUE(v.bit(0));
    EXPECT_FALSE(v.bit(1));
    EXPECT_TRUE(v.bit(2));
    EXPECT_TRUE(v.bit(7));
    EXPECT_FALSE(v.bit(8)); // out of range reads as 0
}

TEST(BitVec, SignedConversion)
{
    EXPECT_EQ(BitVec(4, 0xf).toSigned(), -1);
    EXPECT_EQ(BitVec(4, 0x7).toSigned(), 7);
    EXPECT_EQ(BitVec(4, 0x8).toSigned(), -8);
    EXPECT_EQ(BitVec(64, ~0ULL).toSigned(), -1);
}

TEST(BitVec, EqualityIncludesWidth)
{
    EXPECT_EQ(BitVec(4, 3), BitVec(4, 3));
    EXPECT_NE(BitVec(4, 3), BitVec(5, 3));
    EXPECT_NE(BitVec(4, 3), BitVec(4, 4));
}

TEST(BitVec, Str)
{
    EXPECT_EQ(BitVec(4, 9).str(), "4'h9");
    EXPECT_EQ(BitVec(16, 0xabc).str(), "16'habc");
}

TEST(BitVec, MaskOf)
{
    EXPECT_EQ(BitVec::maskOf(1), 1u);
    EXPECT_EQ(BitVec::maskOf(8), 0xffu);
    EXPECT_EQ(BitVec::maskOf(64), ~0ULL);
}

TEST(AsciiTable, RendersHeaderAndRows)
{
    AsciiTable t;
    t.setHeader({"a", "bb"});
    t.addRow({"1", "2"});
    t.addRow({"333", "4"});
    std::string s = t.str();
    EXPECT_NE(s.find("| a   | bb |"), std::string::npos);
    EXPECT_NE(s.find("| 333 | 4  |"), std::string::npos);
    EXPECT_EQ(t.numRows(), 2u);
}

TEST(AsciiTable, SeparatorDoesNotCountAsRow)
{
    AsciiTable t;
    t.setHeader({"x"});
    t.addRow({"1"});
    t.addSeparator();
    t.addRow({"2"});
    EXPECT_EQ(t.numRows(), 2u);
}

TEST(Common, AtomicWriteNeverReusesAnotherWritersTempFile)
{
    // Two threads of one process may publish one path at once. A tmp
    // name unique only per process would let this write truncate the
    // other writer's half-written file and rename it away.
    char tmpl[] = "/tmp/rmp-common-test-XXXXXX";
    ASSERT_NE(mkdtemp(tmpl), nullptr);
    const std::string path = std::string(tmpl) + "/record";
    const std::string other =
        path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
    const std::string sentinel = "another writer's bytes";
    std::ofstream(other, std::ios::binary) << sentinel;

    ASSERT_TRUE(atomicWriteFile(path, "published bytes"));
    std::string got;
    ASSERT_TRUE(readFile(path, &got));
    EXPECT_EQ(got, "published bytes");
    ASSERT_TRUE(readFile(other, &got));
    EXPECT_EQ(got, sentinel);
    std::filesystem::remove_all(tmpl);
}
