#pragma once

/// \file serve_mix.hpp
/// Pieces of the serve-mix workload (serve_mix.cpp) shared with the
/// self-test.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "checks.hpp"
#include "common.hpp"
#include "service/request.hpp"

namespace perfbench {

/// Streaming 64-bit digest of a byte stream (length included). Not
/// cryptographic: it only has to tell a damaged response from a good one.
class StreamHash {
 public:
  void update(const char* p, std::size_t n);
  std::uint64_t digest() const;
  std::uint64_t bytes() const { return bytes_; }

 private:
  void mix(std::uint64_t w) {
    state_ = (state_ ^ w) * 0x9E3779B97F4A7C15ull;
    state_ ^= state_ >> 29;
  }
  std::uint64_t state_ = 0x243F6A8885A308D3ull;
  std::uint64_t pending_ = 0;
  unsigned fill_ = 0;
  std::uint64_t bytes_ = 0;
};

struct CorpusCircuit {
  std::string name;
  std::string text;
  bool has_detectors = false;
};

/// Per-request stage summary (frame kFrameTiming / HTTP Server-Timing).
struct StageTimes {
  bool valid = false;
  double queue_ms = 0;
  double compile_ms = 0;
  double execute_ms = 0;
  double emit_ms = 0;
};

/// One scheduled request of the mix and what happened to it.
struct MixRequest {
  double at_s = 0;  ///< Scheduled send time, from the window start.
  bool large = false;
  bool http = false;
  std::size_t conn = 0;
  std::size_t circuit = 0;
  symphase::SampleRequest request;
  std::uint64_t expect_bytes = 0;
  std::uint64_t expect_digest = 0;

  Clock::time_point sent{};
  Clock::time_point first_byte{};
  Clock::time_point done{};
  bool got_first_byte = false;
  bool completed = false;
  bool error = false;
  std::string error_text;
  StreamHash hash;
  std::uint64_t got_bytes = 0;
  std::uint64_t got_digest = 0;
  StageTimes stages;
};

/// data/*.stim, sorted by file name.
std::vector<CorpusCircuit> load_corpus(const std::string& data_dir);

/// The seeded open-loop schedule of a `seconds`-long window.
std::vector<MixRequest> draw_schedule(const std::vector<CorpusCircuit>& corpus,
                                      std::uint64_t seed, double seconds);

/// The bulk phase's requests: 1M-shot b8 samples of the largest
/// circuit, alternating the SymPhase and frame backends.
std::vector<MixRequest> draw_bulk(const std::vector<CorpusCircuit>& corpus,
                                  std::uint64_t seed);

/// Fills expect_bytes/expect_digest from direct in-process session runs.
void expect_digests(const std::vector<CorpusCircuit>& corpus,
                    std::vector<MixRequest>& schedule);

/// Parses "queue;dur=0.1, compile;dur=0, execute;dur=2, emit;dur=1, ...".
StageTimes parse_server_timing(std::string_view text);

/// The workload; `corruption` (self-test only) damages the first data
/// slice received on every connection.
Report serve_mix(const Options& options, SpanLog& spans,
                 Corruption corruption);

}  // namespace perfbench
