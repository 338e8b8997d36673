/**
 * @file
 * The golden-file check shared by the tests/golden suites and the
 * frozen replay digests (support/replay_digest.hh): a text is
 * compared byte for byte against TRANSFUSION_GOLDEN_DIR/<name>.txt,
 * or rewrites that file when TRANSFUSION_UPDATE_GOLDEN=1
 * (scripts/update_golden.sh).
 */

#ifndef TRANSFUSION_TESTS_SUPPORT_GOLDEN_HH
#define TRANSFUSION_TESTS_SUPPORT_GOLDEN_HH

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "obs/report.hh"

namespace transfusion::test
{

inline std::string
goldenPath(const std::string &name)
{
    return std::string(TRANSFUSION_GOLDEN_DIR) + "/" + name + ".txt";
}

/** Contents of golden `name` ("" when the file is missing). */
inline std::string
readGolden(const std::string &name)
{
    std::ifstream in(goldenPath(name));
    std::ostringstream contents;
    contents << in.rdbuf();
    return contents.str();
}

/**
 * Expect `actual` to equal golden `name` exactly, failing with the
 * RunReport::diff of the two on drift.  With
 * TRANSFUSION_UPDATE_GOLDEN=1 the golden is rewritten instead.
 */
inline void
expectMatchesGolden(const std::string &name, const std::string &actual)
{
    const std::string path = goldenPath(name);
    const char *update = std::getenv("TRANSFUSION_UPDATE_GOLDEN");
    if (update != nullptr && std::string(update) == "1") {
        std::ofstream out(path);
        ASSERT_TRUE(out) << "cannot write golden " << path;
        out << actual;
        std::cout << "updated golden " << path << "\n";
        return;
    }

    const std::string expected = readGolden(name);
    ASSERT_FALSE(expected.empty())
        << "missing golden file " << path
        << "; run scripts/update_golden.sh to create it";
    EXPECT_EQ(expected, actual)
        << "report drifted from " << path << ":\n"
        << obs::RunReport::diff(expected, actual)
        << "If the change is intentional, regenerate with "
           "scripts/update_golden.sh and review the diff.";
}

} // namespace transfusion::test

#endif // TRANSFUSION_TESTS_SUPPORT_GOLDEN_HH
