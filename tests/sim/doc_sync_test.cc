/**
 * @file
 * Doc-sync lint: every `--set` key the Overrides parser recognizes
 * must be documented in EXPERIMENTS.md (as `key` in backticks), and
 * every CDCS_* alias on the row of its key, so new knobs cannot land
 * without their docs. Built with CDCS_REPO_ROOT pointing at the
 * source tree.
 */

#include <algorithm>
#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "sim/overrides.hh"

#ifndef CDCS_REPO_ROOT
#define CDCS_REPO_ROOT "."
#endif

namespace cdcs
{
namespace
{

std::string
readFile(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr)
        return "";
    std::string out;
    char buf[1 << 16];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        out.append(buf, n);
    std::fclose(f);
    return out;
}

TEST(DocSyncTest, EveryOverrideKeyDocumentedInExperimentsMd)
{
    const std::string doc =
        readFile(std::string(CDCS_REPO_ROOT) + "/EXPERIMENTS.md");
    ASSERT_FALSE(doc.empty())
        << "EXPERIMENTS.md not found under " << CDCS_REPO_ROOT;
    for (const auto &[key, type] : Overrides::knownKeys()) {
        EXPECT_NE(doc.find("`" + key + "`"), std::string::npos)
            << "--set key '" << key << "' (" << type
            << ") is missing from EXPERIMENTS.md";
    }
}

TEST(DocSyncTest, EveryEnvAliasDocumentedOnItsKeysRow)
{
    const std::string doc =
        readFile(std::string(CDCS_REPO_ROOT) + "/EXPERIMENTS.md");
    ASSERT_FALSE(doc.empty());
    const auto keys = Overrides::knownKeys();
    const auto aliases = Overrides::envAliases();
    EXPECT_EQ(aliases.size(), 13u);
    for (const auto &[var, key] : aliases) {
        EXPECT_EQ(var.rfind("CDCS_", 0), 0u) << var;
        EXPECT_NE(std::find_if(keys.begin(), keys.end(),
                               [&key = key](const auto &k) {
                                   return k.first == key;
                               }),
                  keys.end())
            << var << " names no --set key '" << key << "'";
        bool found = false;
        std::size_t start = 0;
        while (!found && start < doc.size()) {
            std::size_t end = doc.find('\n', start);
            if (end == std::string::npos)
                end = doc.size();
            const std::string row = doc.substr(start, end - start);
            found = row.rfind("|", 0) == 0 &&
                row.find("`" + var + "`") != std::string::npos &&
                row.find("`" + key + "`") != std::string::npos;
            start = end + 1;
        }
        EXPECT_TRUE(found) << var << " (--set " << key
                           << ") has no EXPERIMENTS.md table row naming "
                              "both";
    }
}

TEST(DocSyncTest, KnownKeysAreUniqueAndTyped)
{
    const auto keys = Overrides::knownKeys();
    ASSERT_FALSE(keys.empty());
    for (std::size_t i = 0; i < keys.size(); i++) {
        EXPECT_FALSE(keys[i].first.empty());
        EXPECT_FALSE(keys[i].second.empty()) << keys[i].first;
        for (std::size_t j = i + 1; j < keys.size(); j++)
            EXPECT_NE(keys[i].first, keys[j].first);
    }
}

} // anonymous namespace
} // namespace cdcs
