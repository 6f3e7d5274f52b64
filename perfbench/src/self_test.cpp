// The self-test: shows that every correctness check accepts clean output
// and rejects deliberately corrupted output.
//
// Library workloads: each check set runs once clean and once per
// corruption: a flipped bit, a dropped byte or an inverted row in the
// first chunk of every checked stream (and in the b8 bytes), or a row
// stuck at 0 in every chunk. The clean run must pass every check; each
// corruption must be caught by at least one check, and each check must
// catch at least one corruption — the exact checks (replay, noiseless
// twin, b8 decode) catch a single bit, the statistical ones (constants,
// frequencies, pair parities) a biased or stuck row.
// serve-mix: a short window runs clean, then with one bit flipped and
// with one byte dropped in the first data received on every connection;
// the digest check must pass, then fail twice.

#include <iostream>
#include <map>
#include <set>

#include "common.hpp"
#include "library.hpp"
#include "serve_mix.hpp"

namespace perfbench {

namespace {

constexpr Corruption kCorruptions[] = {
    Corruption::kFlipBit, Corruption::kDropByte, Corruption::kInvertRow,
    Corruption::kStuckRow};

bool self_test_library(const LibrarySpec& spec) {
  const auto session = set_up(spec);
  std::uint64_t attempted = 0;
  bool ok = true;
  const CheckLog clean =
      check_library(spec, *session, 1, Corruption::kNone, &attempted);
  std::cout << spec.name << " clean: "
            << (clean.all_passed() ? "all checks pass" : "FAILED: " + clean.summary())
            << "\n";
  ok = ok && clean.all_passed();
  std::map<std::string, std::set<std::string>> caught;
  for (const CheckResult& r : clean.results()) {
    caught[r.name];
  }
  for (const Corruption c : kCorruptions) {
    const CheckLog log = check_library(spec, *session, 1, c, &attempted);
    std::string failed;
    for (const CheckResult& r : log.results()) {
      if (!r.passed) {
        failed += (failed.empty() ? "" : ", ") + r.name;
        caught[r.name].insert(corruption_name(c));
      }
    }
    std::cout << spec.name << " " << corruption_name(c) << ": "
              << (failed.empty() ? "NOT CAUGHT" : "caught by " + failed) << "\n";
    ok = ok && !failed.empty();
  }
  for (const auto& [check, by] : caught) {
    std::string list;
    for (const std::string& c : by) {
      list += (list.empty() ? "" : ", ") + c;
    }
    std::cout << "  " << check << " rejects: "
              << (list.empty() ? "NOTHING" : list) << "\n";
    ok = ok && !by.empty();
  }
  return ok;
}

bool self_test_serve(const Options& options) {
  Options short_run = options;
  short_run.seed = 1;
  short_run.seconds = 1.0;
  short_run.trace = false;
  bool ok = true;
  for (const Corruption c :
       {Corruption::kNone, Corruption::kFlipBit, Corruption::kDropByte}) {
    SpanLog spans;
    const Report report = serve_mix(short_run, spans, c);
    const bool expect = c == Corruption::kNone;
    std::cout << "serve-mix " << corruption_name(c) << ": digest check "
              << (report.correct ? "passes" : "rejects") << " ("
              << report.attempted << " operations, " << report.failed
              << " failed)\n";
    ok = ok && report.correct == expect && report.failed == 0;
  }
  return ok;
}

}  // namespace

bool run_self_test(const Options& options) {
  bool ok = true;
  ok = self_test_library(fig3a_spec()) && ok;
  ok = self_test_library(fig3c_spec()) && ok;
  ok = self_test_library(surface_spec()) && ok;
  ok = self_test_serve(options) && ok;
  std::cout << "self-test " << (ok ? "passed" : "FAILED") << std::endl;
  return ok;
}

}  // namespace perfbench
