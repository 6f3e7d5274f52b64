#pragma once

/// \file checks.hpp
/// Correctness checks of the perfbench workloads, and the corruptions
/// the self-test feeds them.
///
/// Every check compares program output with an independent computation
/// or a property the method must have — never with a stored copy of
/// earlier output:
///   - StatsSink + compare_frequencies: per-row and pairwise-parity
///     frequencies of the two backends against each other and against
///     the compiler's exact marginals (binomial tolerance, z = 6);
///   - ReplaySink: every SymPhase chunk recomputed from the public
///     SymbolValueSampler with the benchmark's own naive M·B loop;
///   - ZeroSink: the noiseless twin of a QEC circuit fires no detector;
///   - decode_b8: the benchmark's own b8 decoder against in-memory bits;
///   - serve-mix (serve_mix.cpp): response digests against direct
///     in-process session runs.

#include <cstdint>
#include <string>
#include <vector>

#include "api/sample_sink.hpp"
#include "bitvec/bit_matrix.hpp"
#include "bitvec/sparse_bit_matrix.hpp"
#include "sampler/symbol_value_sampler.hpp"
#include "symbolic/symphase_compiler.hpp"

namespace perfbench {

using symphase::BitMatrix;
using symphase::SampleChunk;
using symphase::SampleSink;
using symphase::SampleStreamInfo;

/// Deliberate damage the self-test applies to one chunk or byte stream.
enum class Corruption {
  kNone,
  kFlipBit,    ///< One bit of the first chunk flipped.
  kDropByte,   ///< One byte of the first chunk dropped (the rest shifts).
  kInvertRow,  ///< One row of the first chunk inverted: a biased stream,
               ///< the failure the statistical checks exist to catch.
  kStuckRow,   ///< One row reads 0 in every chunk, as if the product
               ///< never wrote it.
};
const char* corruption_name(Corruption c);

/// Applies `c` to a shard block at `row` (the first `valid_words` words
/// of each row are meaningful).
void corrupt_block(BitMatrix& block, Corruption c, std::size_t row,
                   std::size_t valid_words);
/// Applies `c` to a byte stream at `offset` (kInvertRow flips a byte,
/// kStuckRow changes nothing).
void corrupt_bytes(std::string& bytes, Corruption c, std::size_t offset);

/// Forwards chunks to `inner`, corrupting the first one (every one for
/// kStuckRow).
class CorruptingSink final : public SampleSink {
 public:
  CorruptingSink(SampleSink& inner, Corruption c, std::size_t row)
      : inner_(inner), corruption_(c), row_(row) {}
  void begin(const SampleStreamInfo& info) override { inner_.begin(info); }
  void consume(const SampleChunk& chunk) override;
  void end() override { inner_.end(); }

 private:
  SampleSink& inner_;
  Corruption corruption_;
  std::size_t row_;
  bool done_ = false;
  BitMatrix copy_;
};

/// Forwards every chunk to each sink in turn.
class TeeSink final : public SampleSink {
 public:
  explicit TeeSink(std::vector<SampleSink*> sinks) : sinks_(std::move(sinks)) {}
  void begin(const SampleStreamInfo& info) override;
  void consume(const SampleChunk& chunk) override;
  void end() override;

 private:
  std::vector<SampleSink*> sinks_;
};

/// Per-row one-counts and pairwise-parity counts over a whole run.
class StatsSink final : public SampleSink {
 public:
  /// `pairs` lists (a, b) row pairs whose parity a^b is counted.
  explicit StatsSink(std::vector<std::pair<std::size_t, std::size_t>> pairs = {})
      : pairs_(std::move(pairs)) {}
  void begin(const SampleStreamInfo& info) override;
  void consume(const SampleChunk& chunk) override;

  std::size_t shots() const { return shots_; }
  const std::vector<std::uint64_t>& ones() const { return ones_; }
  const std::vector<std::uint64_t>& pair_ones() const { return pair_ones_; }
  const std::vector<std::pair<std::size_t, std::size_t>>& pairs() const {
    return pairs_;
  }

 private:
  std::vector<std::pair<std::size_t, std::size_t>> pairs_;
  std::vector<std::uint64_t> ones_;
  std::vector<std::uint64_t> pair_ones_;
  std::size_t shots_ = 0;
};

/// Counts set bits over the valid shots of every chunk.
class ZeroSink final : public SampleSink {
 public:
  void consume(const SampleChunk& chunk) override;
  std::uint64_t ones() const { return ones_; }
  std::size_t shots() const { return shots_; }

 private:
  std::uint64_t ones_ = 0;
  std::size_t shots_ = 0;
};

/// Symbol-value generator and expression matrix of one compiled
/// expression list, built from public library types the same way the
/// SymPhase sampler builds them. The traced run times its two halves;
/// ReplaySink recomputes chunks from it.
struct ExpressionReplay {
  ExpressionReplay(const symphase::SymbolTable& table,
                   const std::vector<symphase::MeasurementExpression>& exprs);
  symphase::SymbolValueSampler values;
  symphase::SparseBitMatrix matrix;
};

/// Recomputes every chunk of a SymPhase run of (`shots`, `seed`) from
/// `replay` with a naive per-row XOR loop and counts mismatched words.
class ReplaySink final : public SampleSink {
 public:
  ReplaySink(const ExpressionReplay& replay, std::size_t shots,
             std::uint64_t seed)
      : replay_(replay), shots_(shots), seed_(seed) {}
  void consume(const SampleChunk& chunk) override;
  std::uint64_t mismatched_words() const { return mismatched_words_; }
  std::size_t chunks() const { return chunks_; }

 private:
  const ExpressionReplay& replay_;
  std::size_t shots_;
  std::uint64_t seed_;
  BitMatrix b_;
  std::uint64_t mismatched_words_ = 0;
  std::size_t chunks_ = 0;
};

/// Decodes b8 bytes (ceil(bits/8) bytes per shot, bit i at byte i/8,
/// position i%8) into a measurement-major matrix. Returns false when
/// the byte count is not `shots` whole records.
bool decode_b8(const std::string& bytes, std::size_t bits_per_shot,
               std::size_t shots, BitMatrix& out);

/// One named check and its verdict.
struct CheckResult {
  std::string name;
  bool passed = false;
  std::string detail;
};

class CheckLog {
 public:
  void expect(const std::string& name, bool passed, std::string detail);
  bool all_passed() const;
  const std::vector<CheckResult>& results() const { return results_; }
  /// "name ok|FAILED (detail); ..." for the report notes.
  std::string summary() const;

 private:
  std::vector<CheckResult> results_;
};

/// Binomial tolerance z used by every frequency comparison.
inline constexpr double kZ = 6.0;

/// True when an observed count is consistent with probability p.
bool count_matches_probability(std::uint64_t ones, std::size_t shots,
                               double p);
/// True when two observed counts are consistent with one probability.
bool counts_agree(std::uint64_t ones_a, std::size_t shots_a,
                  std::uint64_t ones_b, std::size_t shots_b);

/// Seeded sample of `count` distinct row pairs over `rows` rows.
std::vector<std::pair<std::size_t, std::size_t>> sample_pairs(
    std::size_t rows, std::size_t count, std::uint64_t seed);

/// The distribution checks shared by fig3a/fig3c/surface: SymPhase and
/// frame statistics against each other and against `exact` (one exact
/// probability per row). Appends "<prefix>.constants",
/// "<prefix>.frequencies" and "<prefix>.pair_parities" to `log`.
void compare_distributions(const std::string& prefix, const StatsSink& sym,
                           const StatsSink& frames,
                           const std::vector<double>& exact, CheckLog& log);

}  // namespace perfbench
