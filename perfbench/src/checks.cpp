#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>
#include <sstream>

#include "common/bits.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/simd_word.hpp"

namespace perfbench {

using symphase::kSampleShardBits;
using symphase::tail_mask;
using symphase::Word;
using symphase::words_for_bits;

namespace {

/// Word count and tail mask of a chunk's valid shots.
struct ValidWords {
  std::size_t words;
  Word last_mask;
};

ValidWords valid_words(std::size_t shots) {
  return {words_for_bits(shots), tail_mask(shots)};
}

}  // namespace

const char* corruption_name(Corruption c) {
  switch (c) {
    case Corruption::kNone:
      return "none";
    case Corruption::kFlipBit:
      return "flip-bit";
    case Corruption::kDropByte:
      return "drop-byte";
    case Corruption::kInvertRow:
      return "invert-row";
    case Corruption::kStuckRow:
      return "stuck-row";
  }
  return "?";
}

void corrupt_block(BitMatrix& block, Corruption c, std::size_t row,
                   std::size_t valid_words) {
  row = std::min(row, block.rows() - 1);
  switch (c) {
    case Corruption::kNone:
      return;
    case Corruption::kFlipBit:
      block.flip(row, 0);
      return;
    case Corruption::kDropByte: {
      // Rows are contiguous: dropping one byte shifts the rest of the
      // block (this row's tail and every later row) down by 8 bits.
      auto* bytes = reinterpret_cast<unsigned char*>(block.row(0));
      const std::size_t total = block.rows() * block.words_per_row() * 8;
      const std::size_t at = row * block.words_per_row() * 8;
      std::memmove(bytes + at, bytes + at + 1, total - at - 1);
      bytes[total - 1] = 0;
      return;
    }
    case Corruption::kInvertRow:
      for (std::size_t w = 0; w < valid_words; ++w) {
        block.row(row)[w] = ~block.row(row)[w];
      }
      return;
    case Corruption::kStuckRow:
      symphase::wide::clear_words(block.row(row), valid_words);
      return;
  }
}

void corrupt_bytes(std::string& bytes, Corruption c, std::size_t offset) {
  if (bytes.empty() || c == Corruption::kNone || c == Corruption::kStuckRow) {
    return;
  }
  offset = std::min(offset, bytes.size() - 1);
  if (c == Corruption::kDropByte) {
    bytes.erase(offset, 1);
  } else {
    bytes[offset] = static_cast<char>(bytes[offset] ^
                                      (c == Corruption::kFlipBit ? 1 : 0xff));
  }
}

void CorruptingSink::consume(const SampleChunk& chunk) {
  if (done_ || corruption_ == Corruption::kNone) {
    inner_.consume(chunk);
    return;
  }
  done_ = corruption_ != Corruption::kStuckRow;
  copy_ = *chunk.bits;
  corrupt_block(copy_, corruption_, row_, words_for_bits(chunk.num_shots));
  SampleChunk damaged = chunk;
  damaged.bits = &copy_;
  inner_.consume(damaged);
}

void TeeSink::begin(const SampleStreamInfo& info) {
  for (SampleSink* s : sinks_) {
    s->begin(info);
  }
}

void TeeSink::consume(const SampleChunk& chunk) {
  for (SampleSink* s : sinks_) {
    s->consume(chunk);
  }
}

void TeeSink::end() {
  for (SampleSink* s : sinks_) {
    s->end();
  }
}

void StatsSink::begin(const SampleStreamInfo& info) {
  ones_.assign(info.bits_per_shot, 0);
  pair_ones_.assign(pairs_.size(), 0);
  shots_ = 0;
}

void StatsSink::consume(const SampleChunk& chunk) {
  const BitMatrix& m = *chunk.bits;
  const ValidWords v = valid_words(chunk.num_shots);
  for (std::size_t r = 0; r < ones_.size(); ++r) {
    const Word* row = m.row(r);
    std::uint64_t n = symphase::wide::count_ones(row, v.words - 1);
    n += static_cast<std::uint64_t>(std::popcount(row[v.words - 1] & v.last_mask));
    ones_[r] += n;
  }
  for (std::size_t i = 0; i < pairs_.size(); ++i) {
    const Word* a = m.row(pairs_[i].first);
    const Word* b = m.row(pairs_[i].second);
    std::uint64_t n = 0;
    for (std::size_t w = 0; w < v.words; ++w) {
      const Word x = a[w] ^ b[w];
      n += static_cast<std::uint64_t>(
          std::popcount(w + 1 == v.words ? x & v.last_mask : x));
    }
    pair_ones_[i] += n;
  }
  shots_ += chunk.num_shots;
}

void ZeroSink::consume(const SampleChunk& chunk) {
  const BitMatrix& m = *chunk.bits;
  const ValidWords v = valid_words(chunk.num_shots);
  for (std::size_t r = 0; r < m.rows(); ++r) {
    const Word* row = m.row(r);
    for (std::size_t w = 0; w < v.words; ++w) {
      ones_ += static_cast<std::uint64_t>(
          std::popcount(w + 1 == v.words ? row[w] & v.last_mask : row[w]));
    }
  }
  shots_ += chunk.num_shots;
}

namespace {

std::vector<std::uint32_t> used_symbols(
    const std::vector<symphase::MeasurementExpression>& exprs) {
  std::vector<std::uint32_t> used;
  for (const auto& e : exprs) {
    used.insert(used.end(), e.symbols.begin(), e.symbols.end());
  }
  std::sort(used.begin(), used.end());
  used.erase(std::unique(used.begin(), used.end()), used.end());
  return used;
}

}  // namespace

ExpressionReplay::ExpressionReplay(
    const symphase::SymbolTable& table,
    const std::vector<symphase::MeasurementExpression>& exprs)
    : values(table, used_symbols(exprs)), matrix(0, values.num_rows()) {
  for (const auto& e : exprs) {
    std::vector<std::uint32_t> rows;
    rows.reserve(e.symbols.size());
    for (const std::uint32_t s : e.symbols) {
      rows.push_back(values.row_of(s));
    }
    matrix.append_row(std::move(rows));
  }
}

void ReplaySink::consume(const SampleChunk& chunk) {
  const std::size_t shard = chunk.shot_offset / kSampleShardBits;
  if (b_.rows() != replay_.values.num_rows()) {
    b_ = BitMatrix(replay_.values.num_rows(), kSampleShardBits);
  }
  replay_.values.generate_shard_block(shard, shots_, seed_, b_);
  const ValidWords v = valid_words(chunk.num_shots);
  std::vector<Word> expect(v.words);
  for (std::size_t r = 0; r < replay_.matrix.rows(); ++r) {
    std::fill(expect.begin(), expect.end(), Word{0});
    for (const std::uint32_t col : replay_.matrix.row(r)) {
      const Word* src = b_.row(col);
      for (std::size_t w = 0; w < v.words; ++w) {
        expect[w] ^= src[w];
      }
    }
    const Word* got = chunk.bits->row(r);
    for (std::size_t w = 0; w < v.words; ++w) {
      const Word mask = w + 1 == v.words ? v.last_mask : ~Word{0};
      if (((got[w] ^ expect[w]) & mask) != 0) {
        ++mismatched_words_;
      }
    }
  }
  ++chunks_;
}

bool decode_b8(const std::string& bytes, std::size_t bits_per_shot,
               std::size_t shots, BitMatrix& out) {
  const std::size_t record = (bits_per_shot + 7) / 8;
  if (bytes.size() != record * shots) {
    return false;
  }
  out = BitMatrix(bits_per_shot, shots);
  const auto* p = reinterpret_cast<const unsigned char*>(bytes.data());
  for (std::size_t s = 0; s < shots; ++s) {
    const unsigned char* rec = p + s * record;
    for (std::size_t i = 0; i < bits_per_shot; ++i) {
      if (((rec[i / 8] >> (i % 8)) & 1u) != 0) {
        out.set(i, s, true);
      }
    }
  }
  return true;
}

void CheckLog::expect(const std::string& name, bool passed,
                      std::string detail) {
  results_.push_back({name, passed, std::move(detail)});
}

bool CheckLog::all_passed() const {
  return std::all_of(results_.begin(), results_.end(),
                     [](const CheckResult& r) { return r.passed; });
}

std::string CheckLog::summary() const {
  std::ostringstream oss;
  for (std::size_t i = 0; i < results_.size(); ++i) {
    const CheckResult& r = results_[i];
    oss << (i == 0 ? "" : "; ") << r.name << (r.passed ? " ok" : " FAILED")
        << " (" << r.detail << ")";
  }
  return oss.str();
}

bool count_matches_probability(std::uint64_t ones, std::size_t shots,
                               double p) {
  const double n = static_cast<double>(shots);
  const double f = static_cast<double>(ones) / n;
  // The 3/n slack absorbs the discreteness of tiny expected counts.
  return std::abs(f - p) <= kZ * std::sqrt(p * (1 - p) / n) + 3.0 / n;
}

bool counts_agree(std::uint64_t ones_a, std::size_t shots_a,
                  std::uint64_t ones_b, std::size_t shots_b) {
  const double na = static_cast<double>(shots_a);
  const double nb = static_cast<double>(shots_b);
  const double pooled = static_cast<double>(ones_a + ones_b) / (na + nb);
  const double diff = std::abs(static_cast<double>(ones_a) / na -
                               static_cast<double>(ones_b) / nb);
  return diff <= kZ * std::sqrt(pooled * (1 - pooled) * (1 / na + 1 / nb)) +
                     3.0 / std::min(na, nb);
}

std::vector<std::pair<std::size_t, std::size_t>> sample_pairs(
    std::size_t rows, std::size_t count, std::uint64_t seed) {
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  if (rows < 2) {
    return pairs;
  }
  symphase::Rng rng(seed);
  std::set<std::pair<std::size_t, std::size_t>> seen;
  while (pairs.size() < count && seen.size() < rows * (rows - 1) / 2) {
    std::size_t a = static_cast<std::size_t>(rng.next_below(rows));
    std::size_t b = static_cast<std::size_t>(rng.next_below(rows));
    if (a == b) {
      continue;
    }
    if (a > b) {
      std::swap(a, b);
    }
    if (seen.insert({a, b}).second) {
      pairs.emplace_back(a, b);
    }
  }
  return pairs;
}

void compare_distributions(const std::string& prefix, const StatsSink& sym,
                           const StatsSink& frames,
                           const std::vector<double>& exact, CheckLog& log) {
  const std::size_t rows = exact.size();
  const bool shapes_ok = sym.ones().size() == rows &&
                         frames.ones().size() == rows && sym.shots() > 0 &&
                         frames.shots() > 0;
  if (!shapes_ok) {
    log.expect(prefix + ".constants", false, "row counts differ");
    log.expect(prefix + ".frequencies", false, "row counts differ");
    log.expect(prefix + ".pair_parities", false, "row counts differ");
    return;
  }
  // A row is constant when every shot agrees. With the shot counts used
  // here a row of probability >= 1e-4 is constant with probability
  // < e^-3, and every non-constant row of the workloads has p >= 6e-4,
  // so constancy must coincide with an exact probability of 0 or 1.
  const auto constant_value = [](std::uint64_t ones, std::size_t shots) {
    return ones == 0 ? 0 : (ones == shots ? 1 : -1);
  };
  std::size_t constants = 0;
  std::size_t const_mismatch = 0;
  std::size_t freq_mismatch = 0;
  for (std::size_t r = 0; r < rows; ++r) {
    const int cs = constant_value(sym.ones()[r], sym.shots());
    const int cf = constant_value(frames.ones()[r], frames.shots());
    const int ce = exact[r] == 0.0 ? 0 : (exact[r] == 1.0 ? 1 : -1);
    constants += ce >= 0 ? 1 : 0;
    if (cs != cf || cs != ce) {
      ++const_mismatch;
    }
    if (!count_matches_probability(sym.ones()[r], sym.shots(), exact[r]) ||
        !count_matches_probability(frames.ones()[r], frames.shots(),
                                   exact[r]) ||
        !counts_agree(sym.ones()[r], sym.shots(), frames.ones()[r],
                      frames.shots())) {
      ++freq_mismatch;
    }
  }
  std::size_t pair_mismatch = 0;
  const std::size_t pairs = std::min(sym.pair_ones().size(),
                                     frames.pair_ones().size());
  for (std::size_t i = 0; i < pairs; ++i) {
    if (!counts_agree(sym.pair_ones()[i], sym.shots(), frames.pair_ones()[i],
                      frames.shots())) {
      ++pair_mismatch;
    }
  }
  log.expect(prefix + ".constants", const_mismatch == 0,
             std::to_string(constants) + " constant rows of " +
                 std::to_string(rows) + ", " + std::to_string(const_mismatch) +
                 " disagree");
  log.expect(prefix + ".frequencies", freq_mismatch == 0,
             std::to_string(freq_mismatch) + " of " + std::to_string(rows) +
                 " rows outside z=6 of exact/other backend");
  log.expect(prefix + ".pair_parities",
             pairs > 0 && pair_mismatch == 0 &&
                 sym.pairs().size() == frames.pairs().size(),
             std::to_string(pair_mismatch) + " of " + std::to_string(pairs) +
                 " pair parities disagree");
}

}  // namespace perfbench
