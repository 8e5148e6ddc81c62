/**
 * @file
 * Tests for the Chrome-trace execution tracer behind `--set trace=`:
 * hooks are inert while closed, an open/span/instant/close cycle
 * writes parseable JSON with balanced B/E pairs and thread-name
 * metadata, and open() creates a missing directory and refuses a
 * path that cannot be written.
 */

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "obs/trace.hh"

namespace cdcs
{
namespace
{

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

std::size_t
countOf(const std::string &text, const std::string &needle)
{
    std::size_t n = 0;
    for (std::size_t pos = text.find(needle);
         pos != std::string::npos;
         pos = text.find(needle, pos + needle.size()))
        n++;
    return n;
}

TEST(TracerTest, InertWhileClosed)
{
    ASSERT_FALSE(Tracer::enabled());
    // None of these may crash or open a file.
    Tracer::begin("x");
    Tracer::end("x");
    Tracer::instant("y");
    { TraceSpan span("z"); }
    EXPECT_TRUE(Tracer::close()); // Never opened: trivially ok.
}

TEST(TracerTest, WritesBalancedChromeTraceJson)
{
    const std::string path = ::testing::TempDir() + "trace_test.json";
    ASSERT_TRUE(Tracer::open(path, nullptr));
    ASSERT_TRUE(Tracer::enabled());
    Tracer::nameThread("test-main");
    {
        TraceSpan outer("outer");
        {
            TraceSpan inner("inner");
            Tracer::instant("mark");
        }
    }
    ASSERT_TRUE(Tracer::close());
    EXPECT_FALSE(Tracer::enabled());

    const std::string text = slurp(path);
    ASSERT_FALSE(text.empty());
    // Array document with balanced begin/end pairs, the instant, and
    // the sticky thread-name metadata.
    EXPECT_EQ(text.front(), '[');
    EXPECT_EQ(countOf(text, "\"ph\":\"B\""), 2u);
    EXPECT_EQ(countOf(text, "\"ph\":\"E\""), 2u);
    EXPECT_EQ(countOf(text, "\"ph\":\"i\""), 1u);
    EXPECT_EQ(countOf(text, "\"name\":\"outer\""), 2u);
    EXPECT_EQ(countOf(text, "\"name\":\"mark\""), 1u);
    EXPECT_GE(countOf(text, "\"test-main\""), 1u);
    std::remove(path.c_str());
}

TEST(TracerTest, OpenCreatesAMissingDirectory)
{
    const std::string dir = ::testing::TempDir() + "trace_new_dir";
    std::filesystem::remove_all(dir);
    const std::string path = dir + "/nested/trace.json";
    std::string err;
    ASSERT_TRUE(Tracer::open(path, &err)) << err;
    Tracer::instant("x");
    EXPECT_TRUE(Tracer::close());
    EXPECT_EQ(slurp(path).front(), '[');
    std::filesystem::remove_all(dir);
}

TEST(TracerTest, OpenRefusesAnUnwritablePath)
{
    // A directory under a regular file cannot be made, even by root.
    const std::string file = ::testing::TempDir() + "trace_file";
    std::ofstream(file) << "not a directory\n";
    const std::string path = file + "/sub/trace.json";
    std::string err;
    EXPECT_FALSE(Tracer::open(path, &err));
    EXPECT_NE(err.find(path), std::string::npos) << err;
    EXPECT_FALSE(Tracer::enabled());
    EXPECT_TRUE(Tracer::close()); // Never opened: nothing to write.
    std::filesystem::remove(file);
}

} // anonymous namespace
} // namespace cdcs
