// Line-per-scenario corpus goldens, shared by the tests that pin a scenario
// corpus to a frozen file (golden/probe_corpus.txt, golden/fleet_corpus.txt).
//
// Each scenario reduces to one line "<label> <key>=<value> ...": the
// protocol trace's event and per-kind counts and FNV-1a-64 digests of the
// canonical trace and metric JSON, plus whatever totals the test adds. The
// file holds one line per label; DRS_UPDATE_GOLDEN=1 rewrites a label's line
// in place (appending new labels), so a test's cases regenerate the file in
// corpus order.
#pragma once

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/event.hpp"
#include "obs/export.hpp"
#include "util/hash.hpp"

namespace drs::golden {

/// Every trace kind except kQueueHighWater, which reports the event-queue
/// population (an implementation detail, and per-shard by design).
inline std::vector<obs::TraceEvent> protocol_events(
    const std::vector<obs::TraceEvent>& events) {
  return obs::filter_kinds(
      events,
      {obs::TraceEventKind::kPingSent, obs::TraceEventKind::kPingLost,
       obs::TraceEventKind::kProbeLost, obs::TraceEventKind::kLinkChange,
       obs::TraceEventKind::kDetourInstall, obs::TraceEventKind::kDetourSwitch,
       obs::TraceEventKind::kDetourTeardown,
       obs::TraceEventKind::kDiscoveryStart,
       obs::TraceEventKind::kRelaySelected, obs::TraceEventKind::kLeaseGranted,
       obs::TraceEventKind::kLeaseExpired, obs::TraceEventKind::kTcpRetransmit,
       obs::TraceEventKind::kTcpRto});
}

/// Drops the flat "<prefix><name>":<int> entries from a canonical metrics
/// JSON (names are keys in sorted flat maps, values plain integers, so each
/// entry ends at the next ',' or '}'). Prefixes include their dot: "sim.".
inline std::string strip_metric_prefixes(
    std::string json, std::initializer_list<const char*> prefixes) {
  for (const char* prefix : prefixes) {
    const std::string key = std::string("\"") + prefix;
    std::size_t pos;
    while ((pos = json.find(key)) != std::string::npos) {
      const std::size_t colon = json.find(':', pos);
      if (colon == std::string::npos) break;
      const std::size_t end = json.find_first_of(",}", colon);
      if (end == std::string::npos) break;
      if (json[end] == ',') {
        json.erase(pos, end - pos + 1);
      } else {
        std::size_t begin = pos;
        if (begin > 0 && json[begin - 1] == ',') --begin;
        json.erase(begin, end - begin);
      }
    }
  }
  return json;
}

/// "events=<n> kinds=<kind>:<count>,..." over `events` (kinds in enum order,
/// zero counts omitted), then the canonical JSON's FNV-1a-64.
inline std::string trace_summary(const std::vector<obs::TraceEvent>& events) {
  std::map<obs::TraceEventKind, std::size_t> counts;
  for (const obs::TraceEvent& e : events) ++counts[e.kind];
  std::string out = "events=" + std::to_string(events.size()) + " kinds=";
  bool first = true;
  for (const auto& [kind, count] : counts) {
    if (!first) out += ',';
    first = false;
    out += obs::to_string(kind);
    out += ':' + std::to_string(count);
  }
  out += " trace_fnv=" +
         util::to_hex64(util::fnv1a64(obs::to_canonical_json(events)));
  return out;
}

inline bool updating() {
  const char* update = std::getenv("DRS_UPDATE_GOLDEN");
  return update != nullptr && *update != '\0';
}

inline std::string label_of(const std::string& line) {
  return line.substr(0, line.find(' '));
}

/// The file's lines as (label, line), in file order.
inline std::vector<std::pair<std::string, std::string>> read_lines(
    const std::string& path) {
  std::vector<std::pair<std::string, std::string>> lines;
  std::ifstream in(path, std::ios::binary);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    lines.emplace_back(label_of(line), line);
  }
  return lines;
}

/// Rewrites `line`'s entry in the file at `path`, appending a new label.
inline void update_line(const std::string& path, const std::string& line) {
  auto lines = read_lines(path);
  const std::string label = label_of(line);
  bool replaced = false;
  for (auto& [l, text] : lines) {
    if (l == label) {
      text = line;
      replaced = true;
    }
  }
  if (!replaced) lines.emplace_back(label, line);
  std::ofstream out(path, std::ios::binary);
  ASSERT_TRUE(out) << "cannot write " << path;
  for (const auto& [l, text] : lines) out << text << '\n';
}

/// Checks `line` against its label's line in the file at `path`; `what`
/// names the run in the failure message.
inline void expect_line(const std::string& path, const std::string& line,
                        const std::string& what) {
  const std::string label = label_of(line);
  for (const auto& [l, text] : read_lines(path)) {
    if (l == label) {
      EXPECT_EQ(line, text)
          << what << " drifted from " << path
          << " (regenerate with DRS_UPDATE_GOLDEN=1 only if the protocol "
             "change is intentional)";
      return;
    }
  }
  ADD_FAILURE() << "no line for " << label << " in " << path
                << " — regenerate with DRS_UPDATE_GOLDEN=1";
}

}  // namespace drs::golden
