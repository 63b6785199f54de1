// util::JsonWriter (canonical machine-readable reports) and
// util::run_indexed_jobs (the deterministic fan-out shared by the Monte-Carlo
// estimator and the chaos runner).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/json.hpp"
#include "util/parallel.hpp"

namespace drs::util {
namespace {

// --- JsonWriter --------------------------------------------------------------

TEST(JsonWriter, NestedContainersAndSeparators) {
  JsonWriter json;
  json.begin_object()
      .field("name", "drs")
      .field("n", std::uint64_t{90})
      .field("ok", true);
  json.key("series").begin_array();
  json.value(1.5).value(std::int64_t{-2}).value("x");
  json.end_array();
  json.key("empty").begin_object().end_object();
  json.end_object();
  EXPECT_EQ(json.str(),
            "{\"name\":\"drs\",\"n\":90,\"ok\":true,"
            "\"series\":[1.5,-2,\"x\"],\"empty\":{}}");
}

TEST(JsonWriter, EmptyArrayAndTopLevelScalar) {
  JsonWriter array;
  array.begin_array().end_array();
  EXPECT_EQ(array.str(), "[]");
  JsonWriter scalar;
  scalar.value(false);
  EXPECT_EQ(scalar.str(), "false");
}

TEST(JsonWriter, StringEscaping) {
  EXPECT_EQ(JsonWriter::escape("plain"), "plain");
  EXPECT_EQ(JsonWriter::escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(JsonWriter::escape("tab\there"), "tab\\there");
  EXPECT_EQ(JsonWriter::escape("line\nfeed\r"), "line\\nfeed\\r");
  EXPECT_EQ(JsonWriter::escape(std::string("nul\x01") + '\x1f'),
            "nul\\u0001\\u001f");
}

TEST(JsonWriter, NumberFormattingIsDeterministic) {
  JsonWriter json;
  json.begin_array()
      .value(0.125)
      .value(-0.0)
      .value(1e-9)
      .value(std::numeric_limits<double>::quiet_NaN())
      .value(std::numeric_limits<double>::infinity())
      .end_array();
  // Non-finite doubles have no JSON representation; they degrade to null so
  // reports stay parseable.
  EXPECT_EQ(json.str(), "[0.125,-0,1e-09,null,null]");
}

// --- run_indexed_jobs --------------------------------------------------------

TEST(RunIndexedJobs, ResultsIndexedByJob) {
  const auto squares =
      run_indexed_jobs(10, 4, [](std::uint64_t i) { return i * i; });
  ASSERT_EQ(squares.size(), 10u);
  for (std::uint64_t i = 0; i < 10; ++i) EXPECT_EQ(squares[i], i * i);
}

TEST(RunIndexedJobs, ThreadCountInvariant) {
  auto job = [](std::uint64_t i) {
    // Cheap but non-trivial pure function of the index.
    std::uint64_t h = i * 0x9E3779B97F4A7C15ULL;
    h ^= h >> 29;
    return h;
  };
  const auto reference = run_indexed_jobs(257, 1, job);
  for (unsigned threads : {2u, 3u, 8u}) {
    EXPECT_EQ(run_indexed_jobs(257, threads, job), reference)
        << threads << " threads";
  }
}

TEST(RunIndexedJobs, EdgeCounts) {
  EXPECT_TRUE(run_indexed_jobs(0, 8, [](std::uint64_t i) { return i; }).empty());
  const auto one = run_indexed_jobs(1, 8, [](std::uint64_t i) { return i + 7; });
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0], 7u);
  // More threads than jobs must not deadlock or duplicate work.
  const auto few = run_indexed_jobs(3, 16, [](std::uint64_t i) { return i; });
  EXPECT_EQ(std::accumulate(few.begin(), few.end(), std::uint64_t{0}), 3u);
}

TEST(RunIndexedJobs, LowestThrowingJobReachesTheCaller) {
  // Jobs 5 and 9 throw; whichever thread hits its job first, the caller
  // gets job 5's exception, as a sequential loop would raise it.
  for (int round = 0; round < 20; ++round) {
    try {
      (void)run_indexed_jobs(64, 4, [](std::uint64_t i) {
        if (i == 5 || i == 9) {
          throw std::runtime_error("job " + std::to_string(i));
        }
        return i;
      });
      ADD_FAILURE() << "no exception reached the caller";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "job 5") << "round " << round;
    }
  }
}

TEST(RunIndexedJobs, NoJobsHandedOutAfterAThrow) {
  // Job 0 throws; every other job waits until it has, so at most one job
  // per worker starts before the throw and only a few slip in while the
  // failure is being recorded — never the remaining thousands.
  std::atomic<bool> thrown{false};
  std::atomic<std::uint64_t> started{0};
  EXPECT_THROW(
      (void)run_indexed_jobs(10000, 4,
                             [&](std::uint64_t i) {
                               started.fetch_add(1);
                               if (i == 0) {
                                 thrown.store(true);
                                 throw std::runtime_error("job 0");
                               }
                               while (!thrown.load()) std::this_thread::yield();
                               std::this_thread::sleep_for(
                                   std::chrono::microseconds(100));
                               return i;
                             }),
      std::runtime_error);
  EXPECT_LT(started.load(), 1000u);
}

TEST(ResolveThreads, NeverExceedsJobsAndNeverZero) {
  EXPECT_EQ(resolve_threads(8, 3), 3u);
  EXPECT_EQ(resolve_threads(2, 100), 2u);
  EXPECT_GE(resolve_threads(0, 100), 1u);
  EXPECT_EQ(resolve_threads(4, 0), 1u);
}

}  // namespace
}  // namespace drs::util
