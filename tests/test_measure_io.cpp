#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "measure/io.h"

namespace cloudia::measure {
namespace {

deploy::CostMatrix RandomMatrix(int n, uint64_t seed) {
  Rng rng(seed);
  deploy::CostMatrix m(n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      if (i != j) m.At(i, j) = rng.Uniform(0.2, 1.4);
    }
  }
  return m;
}

TEST(MeasureIoTest, RoundTripPreservesEverything) {
  auto m = RandomMatrix(7, 3);
  std::string text = CostMatrixToString(m, "Mean");
  auto loaded = CostMatrixFromString(text);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->metric_name, "Mean");
  ASSERT_EQ(loaded->costs.size(), 7);
  for (int i = 0; i < 7; ++i) {
    for (int j = 0; j < 7; ++j) {
      EXPECT_DOUBLE_EQ(loaded->costs.At(i, j), m.At(i, j)) << i << "," << j;
    }
  }
}

TEST(MeasureIoTest, EmptyMatrixRoundTrips) {
  deploy::CostMatrix empty;
  auto loaded = CostMatrixFromString(CostMatrixToString(empty, "Mean"));
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->costs.empty());
}

TEST(MeasureIoTest, RejectsCorruptedContent) {
  auto m = RandomMatrix(3, 4);
  std::string good = CostMatrixToString(m, "99%");
  EXPECT_FALSE(CostMatrixFromString("garbage\n" + good).ok());
  EXPECT_FALSE(CostMatrixFromString("").ok());
  // Truncated: drop the last row.
  std::string truncated = good.substr(0, good.rfind("row 2:"));
  EXPECT_FALSE(CostMatrixFromString(truncated).ok());
  // Extra cell on a row.
  std::string padded = good;
  padded.insert(padded.rfind('\n'), " 0.5");
  EXPECT_FALSE(CostMatrixFromString(padded).ok());
}

// A hostile instance count must be a clean parse error: the count is used
// to size an n^2 allocation, and values above int range once truncated the
// matrix dimension while the fill loop kept running to the full count
// (heap corruption in release builds).
TEST(MeasureIoTest, RejectsOverlargeInstanceCounts) {
  for (const char* n_line :
       {"n 4294967301", "n 9223372036854775807", "n 99999999999999999999",
        "n 65537"}) {
    std::string text = std::string("cloudia-cost-matrix v1\n") + n_line +
                       "\nmetric Mean\n";
    auto loaded = CostMatrixFromString(text);
    ASSERT_FALSE(loaded.ok()) << n_line;
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument) << n_line;
  }
  // Within the cap, but far too short for 65536^2 cells: rejected before the
  // 32 GiB matrix is sized.
  auto huge = CostMatrixFromString(
      "cloudia-cost-matrix v1\nn 65536\nmetric Mean\n"
      "row 0: 0 1\nrow 1: 1 0\nrow 2: 1 1\n");
  ASSERT_FALSE(huge.ok());
  EXPECT_EQ(huge.status().code(), StatusCode::kInvalidArgument);
}

// Seeded mutations of a serialized 6x6 matrix -- byte flips, truncations and
// token shuffles within a line. Each mutant parses to an error Status or to
// a matrix of the size its (possibly mutated) header declares.
TEST(MeasureIoTest, MutatedMatrixFilesYieldMatrixOrStatus) {
  const std::string original = CostMatrixToString(RandomMatrix(6, 8), "Mean");
  Rng rng(20261017);
  int accepted = 0, rejected = 0;
  for (int m = 0; m < 400; ++m) {
    std::string text = original;
    const int ops = 1 + static_cast<int>(rng.Below(3));
    for (int op = 0; op < ops; ++op) {
      switch (rng.Below(3)) {
        case 0:  // flip one bit of one byte
          if (!text.empty()) {
            text[rng.Below(text.size())] ^=
                static_cast<char>(1u << rng.Below(8));
          }
          break;
        case 1:  // truncate
          text.resize(rng.Below(text.size() + 1));
          break;
        default: {  // shuffle the tokens of one line
          std::vector<std::string> lines;
          std::istringstream in(text);
          for (std::string line; std::getline(in, line);) lines.push_back(line);
          if (lines.empty()) break;
          std::string& line = lines[rng.Below(lines.size())];
          std::vector<std::string> tokens;
          std::istringstream words(line);
          for (std::string t; words >> t;) tokens.push_back(t);
          for (size_t i = tokens.size(); i > 1; --i) {
            std::swap(tokens[i - 1], tokens[rng.Below(i)]);
          }
          line.clear();
          for (const std::string& t : tokens) {
            line += (line.empty() ? "" : " ") + t;
          }
          text.clear();
          for (const std::string& l : lines) text += l + "\n";
          break;
        }
      }
    }
    auto loaded = CostMatrixFromString(text);
    if (loaded.ok()) {
      ++accepted;
      // The header survived as "n <count>" on the second line.
      const size_t n_at = text.find('\n') + 1;
      EXPECT_EQ(loaded->costs.size(), std::atoi(text.c_str() + n_at + 2))
          << text;
    } else {
      ++rejected;
      EXPECT_FALSE(loaded.status().message().empty()) << text;
    }
  }
  // Both outcomes occur, so the mutations exercise accept and reject paths.
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
}

TEST(MeasureIoTest, MetricNameWithSpacesSurvives) {
  auto m = RandomMatrix(2, 5);
  auto loaded = CostMatrixFromString(CostMatrixToString(m, "Mean+SD"));
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->metric_name, "Mean+SD");
}

TEST(MeasureIoTest, FileRoundTrip) {
  auto m = RandomMatrix(5, 6);
  std::string path = ::testing::TempDir() + "/cloudia_costs_test.txt";
  ASSERT_TRUE(SaveCostMatrix(path, m, "Mean").ok());
  auto loaded = LoadCostMatrix(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_DOUBLE_EQ(loaded->costs.At(1, 2), m.At(1, 2));
  std::remove(path.c_str());
}

TEST(MeasureIoTest, MissingFileIsNotFound) {
  auto loaded = LoadCostMatrix("/nonexistent/path/costs.txt");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace cloudia::measure
