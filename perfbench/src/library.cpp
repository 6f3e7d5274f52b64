// The in-process workloads: fig3a-sample, fig3c-compile, surface-detect.
//
// Untraced run: set-up (circuit text -> ready compiled session) timed
// several times, then whole rounds of one SymPhase and one frame
// SimulatorSession::run each until --seconds pass, then the checks.
// Traced run: the same set-up split into parse / forward pass / the rest
// of compile, then rounds of the traced engine drive (stream_sample_blocks
// with a timing wrapper around the exact fill the session uses and a
// timing sink), a replay of the round's shards split into symbol-value
// generation and the M·B product, and an untraced session run for the
// api.* figures. Either way every layer is timed from outside, through
// its public functions.

#include <algorithm>
#include <cmath>
#include <atomic>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <streambuf>
#include <thread>
#include <tuple>

#include "api/sample_stream.hpp"
#include "api/session.hpp"
#include "checks.hpp"
#include "library.hpp"
#include "circuit/generators.hpp"
#include "circuit/parser.hpp"
#include "circuit/surface_code.hpp"
#include "common.hpp"
#include "common/simd_word.hpp"
#include "core/symphase.hpp"
#include "symbolic/symphase_compiler.hpp"

namespace perfbench {

using namespace symphase;

namespace {

/// Fill threads of every library run: half of nproc on the reference
/// host. The engine waits for the slowest fill of each window, so at 4
/// threads on 4 shared vCPUs one preempted vCPU stalls every window, and
/// round throughputs spread by 25 to 35%; at 2 they spread by 5 to 7%.
constexpr std::size_t kFillThreads = 2;
/// Set-ups before the rounds; an untraced run adds one per second of
/// rounds.
constexpr std::size_t kMinSetups = 3;
constexpr double kSetupEveryS = 1.0;
/// Shots per backend and seeded row pairs of the distribution checks.
constexpr std::size_t kCheckShots = 32768;
constexpr std::size_t kCheckPairs = 2000;

/// Sink that only consumes: touches one word per chunk so the delivery
/// cannot be optimized away, formats nothing.
class ConsumeSink final : public SampleSink {
 public:
  void consume(const SampleChunk& chunk) override {
    acc_ ^= chunk.bits->row(0)[0];
  }

 private:
  Word acc_ = 0;
};

/// Buffered ostream target that counts and discards bytes, like writing
/// to a file the page cache absorbs — the formatting cost stays, the
/// disk does not enter the measurement.
class CountingBuf final : public std::streambuf {
 public:
  CountingBuf() { setp(buf_, buf_ + sizeof(buf_)); }
  std::uint64_t bytes() const {
    return counted_ + static_cast<std::uint64_t>(pptr() - pbase());
  }

 protected:
  int_type overflow(int_type c) override {
    drain();
    if (!traits_type::eq_int_type(c, traits_type::eof())) {
      *pptr() = traits_type::to_char_type(c);
      pbump(1);
    }
    return traits_type::not_eof(c);
  }
  int sync() override {
    drain();
    return 0;
  }

 private:
  void drain() {
    counted_ += static_cast<std::uint64_t>(pptr() - pbase());
    setp(buf_, buf_ + sizeof(buf_));
  }
  char buf_[1 << 16];
  std::uint64_t counted_ = 0;
};

/// Times every consume() of the wrapped sink.
class TimingSink final : public SampleSink {
 public:
  TimingSink(SampleSink& inner, SpanLog& spans) : inner_(inner), spans_(spans) {}
  void begin(const SampleStreamInfo& info) override { inner_.begin(info); }
  void consume(const SampleChunk& chunk) override {
    const auto t0 = Clock::now();
    inner_.consume(chunk);
    const auto t1 = Clock::now();
    busy_s_ += seconds_between(t0, t1);
    spans_.record("sampler.sink_consume", t0, t1, chunk.shot_offset);
  }
  void end() override { inner_.end(); }
  double busy_s() const { return busy_s_; }

 private:
  SampleSink& inner_;
  SpanLog& spans_;
  double busy_s_ = 0;
};

/// The timed sink of a workload plus its byte count (b8 workloads).
struct WorkloadSink {
  explicit WorkloadSink(bool b8) {
    if (b8) {
      stream = std::make_unique<std::ostream>(&buf);
      writer = std::make_unique<WriterSink>(*stream, SampleFormat::kB8);
    }
  }
  SampleSink& sink() {
    return writer ? static_cast<SampleSink&>(*writer) : consume;
  }
  CountingBuf buf;
  std::unique_ptr<std::ostream> stream;
  std::unique_ptr<WriterSink> writer;
  ConsumeSink consume;
};

SampleTask make_task(const LibrarySpec& spec, SampleBackend backend,
                     std::size_t shots, std::uint64_t seed) {
  SampleTask task;
  task.target = spec.target;
  task.backend = backend;
  task.shots = shots;
  task.seed = seed;
  task.num_threads = kFillThreads;
  return task;
}

}  // namespace

std::unique_ptr<SimulatorSession> set_up(const LibrarySpec& spec) {
  auto session =
      std::make_unique<SimulatorSession>(parse_circuit(spec.circuit_text));
  session->prepare(make_task(spec, SampleBackend::kSymPhase, 1, 0));
  return session;
}

namespace {

const std::vector<MeasurementExpression>& record_expressions(
    const CompiledSampler& cs, SampleTarget target,
    std::vector<MeasurementExpression>& joint) {
  if (target == SampleTarget::kMeasurements) {
    return cs.expressions();
  }
  joint = cs.detector_expressions();
  joint.insert(joint.end(), cs.observable_expressions().begin(),
               cs.observable_expressions().end());
  return joint;
}

std::vector<double> exact_probabilities(const CompiledSampler& cs,
                                        SampleTarget target) {
  std::vector<double> p;
  if (target == SampleTarget::kMeasurements) {
    for (std::size_t k = 0; k < cs.num_measurements(); ++k) {
      p.push_back(cs.outcome_probability(k));
    }
    return p;
  }
  for (std::size_t d = 0; d < cs.num_detectors(); ++d) {
    p.push_back(cs.detector_probability(d));
  }
  for (std::size_t k = 0; k < cs.num_observables(); ++k) {
    p.push_back(cs.observable_probability(k));
  }
  return p;
}

std::size_t record_bytes(const SimulatorSession& session,
                         const SampleTask& task) {
  return (session.record_bits(task) + 7) / 8;
}

/// One timed run of `backend`, with the spec's shot count for it.
SampleTask timed_task(const LibrarySpec& spec, SampleBackend backend,
                      std::uint64_t seed) {
  return make_task(spec, backend,
                   backend == SampleBackend::kSymPhase ? spec.timed_shots
                                                       : spec.timed_frame_shots,
                   seed);
}

}  // namespace

/// Runs every check of a library workload against `session`. The
/// corruption (self-test only) is applied to the first chunk of every
/// checked SymPhase stream and to the b8 bytes.
CheckLog check_library(const LibrarySpec& spec, const SimulatorSession& session,
                       std::uint64_t seed, Corruption corruption,
                       std::uint64_t* attempted) {
  CheckLog log;
  const CompiledSampler& cs = session.compiled();
  const std::vector<double> exact = exact_probabilities(cs, spec.target);
  // Pairs: half among biased rows (exact p away from 1/2), where a
  // damaged row moves the parity frequency, half among all rows.
  std::vector<std::size_t> biased;
  std::size_t constant_row = SIZE_MAX;
  std::size_t random_row = 0;
  for (std::size_t r = exact.size(); r-- > 0;) {
    if (std::abs(exact[r] - 0.5) > 0.05) {
      biased.push_back(r);
    }
    if (exact[r] == 0.0 || exact[r] == 1.0) {
      constant_row = r;
    } else {
      random_row = r;
    }
  }
  std::reverse(biased.begin(), biased.end());
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  for (const auto& [a, b] :
       sample_pairs(biased.size(), kCheckPairs / 2, seed ^ 0xb1a5)) {
    pairs.emplace_back(biased[a], biased[b]);
  }
  for (const auto& pair :
       sample_pairs(exact.size(), kCheckPairs - pairs.size(), seed ^ 0x5eed)) {
    pairs.push_back(pair);
  }
  // Where the self-test damages the stream: a constant row for a flipped
  // bit or a dropped byte, the first pair's row for an inverted row, a
  // random row for a stuck one.
  std::size_t row = random_row;
  if (corruption == Corruption::kFlipBit ||
      corruption == Corruption::kDropByte) {
    row = constant_row != SIZE_MAX ? constant_row : random_row;
  } else if (corruption == Corruption::kInvertRow && !pairs.empty()) {
    row = pairs.front().first;
  }

  // Distributions: SymPhase against frames against exact marginals,
  // and every SymPhase chunk against the naive replay.
  std::vector<MeasurementExpression> joint;
  const ExpressionReplay replay(cs.symbols(),
                                record_expressions(cs, spec.target, joint));
  StatsSink sym_stats(pairs);
  StatsSink frame_stats(pairs);
  const SampleTask sym_task = make_task(spec, SampleBackend::kSymPhase,
                                        kCheckShots, seed * 4 + 1);
  ReplaySink replay_sink(replay, sym_task.shots, sym_task.seed);
  TeeSink sym_tee({&sym_stats, &replay_sink});
  CorruptingSink sym_sink(sym_tee, corruption, row);
  session.run(sym_task, sym_sink);
  session.run(make_task(spec, SampleBackend::kFrameSimulator, kCheckShots,
                        seed * 4 + 2),
              frame_stats);
  *attempted += 2;
  compare_distributions(spec.name, sym_stats, frame_stats, exact, log);
  log.expect(spec.name + ".replay",
             replay_sink.chunks() > 0 && replay_sink.mismatched_words() == 0,
             std::to_string(replay_sink.mismatched_words()) +
                 " words differ from the naive M·B replay over " +
                 std::to_string(replay_sink.chunks()) + " chunks");

  if (!spec.twin_text.empty()) {
    // The noiseless twin fires no detector, on either backend.
    SimulatorSession twin(parse_circuit(spec.twin_text));
    for (const SampleBackend backend :
         {SampleBackend::kSymPhase, SampleBackend::kFrameSimulator}) {
      ZeroSink zeros;
      CorruptingSink sink(zeros, corruption, 0);
      twin.run(make_task(spec, backend, 16384, seed * 4 + 3), sink);
      *attempted += 1;
      const bool sym = backend == SampleBackend::kSymPhase;
      log.expect(spec.name + (sym ? ".twin_zero_symphase" : ".twin_zero_frames"),
                 zeros.ones() == 0 && zeros.shots() == 16384,
                 std::to_string(zeros.ones()) + " detection events in " +
                     std::to_string(zeros.shots()) + " noiseless shots");
    }
  }

  if (spec.b8_writer) {
    // The b8 bytes, decoded independently, equal the in-memory chunks.
    const SampleTask task = make_task(spec, SampleBackend::kSymPhase, 20000,
                                      seed * 4 + 4);
    std::ostringstream bytes_out;
    WriterSink writer(bytes_out, SampleFormat::kB8);
    BitMatrixSink matrix;
    TeeSink tee({&writer, &matrix});
    session.run(task, tee);
    *attempted += 1;
    std::string bytes = bytes_out.str();
    corrupt_bytes(bytes, corruption, record_bytes(session, task) * 7 + 3);
    BitMatrix decoded;
    const std::size_t bits = session.record_bits(task);
    const bool length_ok = decode_b8(bytes, bits, task.shots, decoded);
    std::size_t differ = 0;
    if (length_ok) {
      for (std::size_t r = 0; r < bits; ++r) {
        for (std::size_t s = 0; s < task.shots; ++s) {
          differ += decoded.get(r, s) != matrix.matrix().get(r, s) ? 1 : 0;
        }
      }
    }
    log.expect(spec.name + ".b8_decode", length_ok && differ == 0,
               std::to_string(bytes.size()) + " bytes for " +
                   std::to_string(task.shots) + " shots of " +
                   std::to_string(bits) + " bits, " + std::to_string(differ) +
                   " bits differ");
  }
  return log;
}

namespace {

/// Per-round figures of the traced run.
struct TracedRound {
  double run_wall_s = 0;
  double minor_faults = 0;
  double sys_s = 0;
  double fill_busy_s = 0;
  double format_busy_s = 0;
  double traced_wall_s = 0;
  double gen_busy_s = 0;
  double product_busy_s = 0;
  double frame_fill_busy_s = 0;
  double output_bytes = 0;
};

/// Drives stream_sample_blocks with a timing wrapper around `fill` and
/// a TimingSink around the workload sink. Returns (fill busy, sink busy,
/// wall) seconds.
struct DriveResult {
  double fill_busy_s = 0;
  double sink_busy_s = 0;
  double wall_s = 0;
};

DriveResult traced_drive(const StreamSpec& spec, const ShardBlockFn& fill,
                         SampleSink& sink, SpanLog& spans,
                         const std::string& span_name) {
  std::atomic<std::int64_t> busy_ns{0};
  const ShardBlockFn timed = [&](std::size_t slot, std::size_t shard,
                                 BitMatrix& block) {
    const auto t0 = Clock::now();
    fill(slot, shard, block);
    const auto t1 = Clock::now();
    busy_ns.fetch_add(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count(),
        std::memory_order_relaxed);
    spans.record(span_name, t0, t1, shard);
  };
  TimingSink timing(sink, spans);
  const auto t0 = Clock::now();
  stream_sample_blocks(spec, timed, timing);
  const auto t1 = Clock::now();
  spans.record("api.traced_stream", t0, t1, spec.num_shots);
  return {static_cast<double>(busy_ns.load()) * 1e-9, timing.busy_s(),
          seconds_between(t0, t1)};
}

/// Replays every shard of a SymPhase run on kFillThreads threads with
/// preallocated scratch, timing symbol-value generation and the M·B
/// product separately. Returns (generation busy, product busy).
std::pair<double, double> replay_split(const ExpressionReplay& replay,
                                       std::size_t shots, std::uint64_t seed,
                                       SpanLog& spans) {
  const std::size_t shards = num_sample_shards(shots);
  std::atomic<std::size_t> next{0};
  std::atomic<std::int64_t> gen_ns{0};
  std::atomic<std::int64_t> prod_ns{0};
  const auto worker = [&] {
    BitMatrix b(replay.values.num_rows(), kSampleShardBits);
    BitMatrix out(replay.matrix.rows(), kSampleShardBits);
    for (std::size_t shard = next++; shard < shards; shard = next++) {
      const ShardExtent e = sample_shard_extent(shard, shots);
      const auto t0 = Clock::now();
      replay.values.generate_shard_block(shard, shots, seed, b);
      const auto t1 = Clock::now();
      replay.matrix.multiply_word_range(b, out, 0, e.words);
      const auto t2 = Clock::now();
      gen_ns += std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                    .count();
      prod_ns += std::chrono::duration_cast<std::chrono::nanoseconds>(t2 - t1)
                     .count();
      spans.record("sampler.symbol_gen", t0, t1, shard);
      spans.record("sampler.product", t1, t2, shard);
    }
  };
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < std::min(kFillThreads, shards); ++i) {
    threads.emplace_back(worker);
  }
  for (std::thread& t : threads) {
    t.join();
  }
  return {static_cast<double>(gen_ns.load()) * 1e-9,
          static_cast<double>(prod_ns.load()) * 1e-9};
}

TracedRound traced_round(const LibrarySpec& spec,
                         const SimulatorSession& session,
                         const ExpressionReplay& replay, std::uint64_t seed,
                         SpanLog& spans) {
  TracedRound round;
  const SampleTask sym = timed_task(spec, SampleBackend::kSymPhase, seed);
  const SampleTask frame =
      timed_task(spec, SampleBackend::kFrameSimulator, seed + 1);

  // The session run as users call it, timed from outside.
  {
    WorkloadSink sink(spec.b8_writer);
    const Usage u0 = self_usage();
    const auto t0 = Clock::now();
    session.run(sym, sink.sink());
    const auto t1 = Clock::now();
    const Usage u1 = self_usage();
    spans.record("api.session_run", t0, t1, sym.shots);
    round.run_wall_s = seconds_between(t0, t1);
    round.minor_faults = u1.minor_faults - u0.minor_faults;
    round.sys_s = u1.sys_s - u0.sys_s;
    round.output_bytes = static_cast<double>(sink.buf.bytes());
  }

  const CompiledSampler& cs = session.compiled();
  StreamSpec stream;
  stream.bits_per_shot = session.record_bits(sym);
  stream.num_shots = sym.shots;
  stream.num_threads = kFillThreads;
  const bool detect = spec.target == SampleTarget::kDetectionEvents;
  if (detect) {
    stream.num_detectors = session.num_detectors();
  }

  // SymPhase: the exact fill call SimulatorSession::run makes.
  {
    WorkloadSink sink(spec.b8_writer);
    const ShardBlockFn fill = [&](std::size_t, std::size_t shard,
                                  BitMatrix& block) {
      if (detect) {
        cs.sample_detection_shard_block(shard, sym.shots, sym.seed, block);
      } else {
        cs.sample_shard_block(shard, sym.shots, sym.seed, block);
      }
    };
    const DriveResult r =
        traced_drive(stream, fill, sink.sink(), spans, "sampler.fill");
    round.fill_busy_s = r.fill_busy_s;
    round.format_busy_s = r.sink_busy_s;
    round.traced_wall_s = r.wall_s;
  }
  std::tie(round.gen_busy_s, round.product_busy_s) =
      replay_split(replay, sym.shots, sym.seed, spans);

  // Frames: the session's frame fill, with its detector fold when the
  // record is detection events.
  {
    WorkloadSink sink(spec.b8_writer);
    StreamSpec frame_stream = stream;
    frame_stream.num_shots = frame.shots;
    const FrameSimulator& fs = session.frames();
    const DetectorLayout layout = resolve_detectors(session.circuit());
    std::vector<BitMatrix> scratch(
        detect ? stream_fill_slots(frame_stream) : 0,
        BitMatrix(fs.num_measurements(), kSampleShardBits));
    const ShardBlockFn fill = [&](std::size_t slot, std::size_t shard,
                                  BitMatrix& block) {
      if (!detect) {
        fs.sample_shard_block(shard, frame.shots, frame.seed, block);
        return;
      }
      const ShardExtent e = sample_shard_extent(shard, frame.shots);
      BitMatrix& measurements = scratch[slot];
      fs.sample_shard_block(shard, frame.shots, frame.seed, measurements);
      block.clear_all();
      const auto fold = [&](const std::vector<std::vector<std::size_t>>& defs,
                            std::size_t row0) {
        for (std::size_t d = 0; d < defs.size(); ++d) {
          for (const std::size_t m : defs[d]) {
            wide::xor_words(block.row(row0 + d), measurements.row(m), e.words);
          }
        }
      };
      fold(layout.detectors, 0);
      fold(layout.observables, layout.detectors.size());
    };
    const DriveResult r =
        traced_drive(frame_stream, fill, sink.sink(), spans,
                     "sampler.frame_fill");
    round.frame_fill_busy_s = r.fill_busy_s;
  }
  return round;
}

template <typename F>
std::vector<double> collect(const std::vector<TracedRound>& rounds, F get) {
  std::vector<double> v;
  for (const TracedRound& r : rounds) {
    v.push_back(get(r));
  }
  return v;
}

Report run_library(const LibrarySpec& spec, const Options& options,
                   SpanLog& spans) {
  Report report;
  const auto start = Clock::now();
  const auto budget_left = [&] {
    return seconds_since(start) < options.seconds;
  };

  // Set-up, several times; the last session serves the rounds.
  std::unique_ptr<SimulatorSession> session;
  std::vector<double> setup_s;
  std::vector<double> parse_s;
  std::vector<double> forward_s;
  std::vector<double> build_s;
  while (setup_s.size() < kMinSetups) {
    session.reset();
    if (options.trace) {
      // Split: parse, the compiler's forward pass, and the rest of
      // compile (sampler and detector-expression build).
      const auto t0 = Clock::now();
      const Circuit circuit = parse_circuit(spec.circuit_text);
      const auto t1 = Clock::now();
      { const SymPhaseCompiler<BlockedTableau> forward(circuit); }
      const auto t2 = Clock::now();
      const CompiledSampler compiled = CompiledSampler::compile(circuit);
      const auto t3 = Clock::now();
      spans.record("circuit.parse", t0, t1);
      spans.record("symbolic.forward_pass", t1, t2);
      spans.record("sampler.compile", t2, t3);
      parse_s.push_back(seconds_between(t0, t1));
      forward_s.push_back(seconds_between(t1, t2));
      build_s.push_back(seconds_between(t2, t3) - seconds_between(t1, t2));
    }
    const auto t0 = Clock::now();
    session = set_up(spec);
    const auto t1 = Clock::now();
    spans.record("setup", t0, t1);
    setup_s.push_back(seconds_between(t0, t1));
    report.attempted += 1;
  }
  const CompiledSampler& cs = session->compiled();

  // Per round: shots per wall second, and shots per CPU second of the
  // process (user + system, the fill threads included).
  std::vector<double> sym_rate;
  std::vector<double> frame_rate;
  std::vector<double> sym_cpu_rate;
  std::vector<double> frame_cpu_rate;
  std::vector<TracedRound> traced;
  std::uint64_t wrong_bytes = 0;
  // Warm: builds the frame baseline (outside set-up, like the
  // session's lazy build) and faults in the engine's first buffers.
  for (const SampleBackend backend :
       {SampleBackend::kSymPhase, SampleBackend::kFrameSimulator}) {
    WorkloadSink sink(spec.b8_writer);
    session->run(timed_task(spec, backend, options.seed), sink.sink());
  }
  std::vector<MeasurementExpression> joint;
  std::optional<ExpressionReplay> replay;
  if (options.trace) {
    replay.emplace(cs.symbols(), record_expressions(cs, spec.target, joint));
  }
  auto last_setup = Clock::now();
  for (std::uint64_t r = 0; r < 2 || budget_left(); ++r) {
    const std::uint64_t seed = options.seed * 1000003 + 2 * r;
    if (!options.trace && seconds_since(last_setup) >= kSetupEveryS) {
      // One more set-up per second of rounds, on a throwaway session:
      // the host's speed drifts over seconds, and set-ups spread over
      // the whole run give a median that does not hang on its first
      // second.
      const auto t0 = Clock::now();
      set_up(spec);
      last_setup = Clock::now();
      setup_s.push_back(seconds_between(t0, last_setup));
      report.attempted += 1;
    }
    if (options.trace) {
      traced.push_back(traced_round(spec, *session, *replay, seed, spans));
      report.attempted += 3;
      continue;
    }
    for (const SampleBackend backend :
         {SampleBackend::kSymPhase, SampleBackend::kFrameSimulator}) {
      const SampleTask task = timed_task(
          spec, backend, seed + (backend == SampleBackend::kSymPhase ? 0 : 1));
      WorkloadSink sink(spec.b8_writer);
      const Usage u0 = self_usage();
      const auto t0 = Clock::now();
      session->run(task, sink.sink());
      const double dt = seconds_since(t0);
      const Usage u1 = self_usage();
      report.attempted += 1;
      const double shots = static_cast<double>(task.shots);
      const double cpu_s = u1.user_s + u1.sys_s - u0.user_s - u0.sys_s;
      const bool sym = backend == SampleBackend::kSymPhase;
      (sym ? sym_rate : frame_rate).push_back(shots / dt);
      (sym ? sym_cpu_rate : frame_cpu_rate).push_back(shots / cpu_s);
      if (spec.b8_writer &&
          sink.buf.bytes() != task.shots * record_bytes(*session, task)) {
        ++wrong_bytes;
      }
    }
  }

  // Peak RSS of the set-ups and timed runs; the checks below hold
  // buffers of their own and are kept out of it.
  const Usage usage = self_usage();
  const CheckLog log =
      check_library(spec, *session, options.seed, Corruption::kNone,
                    &report.attempted);
  report.correct = log.all_passed() && wrong_bytes == 0;
  report.note("checks: " + log.summary());
  if (spec.b8_writer && !options.trace) {
    report.note("timed runs with a wrong b8 byte count: " +
                std::to_string(wrong_bytes));
  }

  std::ostringstream shape;
  shape << spec.name << ": " << session->circuit().num_qubits() << " qubits, "
        << session->circuit().num_measurements() << " measurements, "
        << cs.num_symbols() << " symbols, " << cs.expression_nnz()
        << " expression nnz; " << setup_s.size() << " set-ups";
  shape << ", " << (options.trace ? traced.size() : sym_rate.size())
        << " rounds of " << spec.timed_shots << " SymPhase and "
        << spec.timed_frame_shots << " frame shots";
  report.note(shape.str());
  if (!options.trace) {
    std::ostringstream rates;
    rates << "rounds, shots/s: symphase median " << median(sym_rate)
          << " p90 " << quantile(sym_rate, 0.9) << "; frames median "
          << median(frame_rate) << " p90 " << quantile(frame_rate, 0.9)
          << "; symphase/frames at the median "
          << median(sym_rate) / median(frame_rate);
    report.note(rates.str());
    report.add("setup_s", median(setup_s), "s");
    report.add("shots_per_cpu_s", median(sym_cpu_rate), "shots/cpu-s");
    report.add("frame_shots_per_cpu_s", median(frame_cpu_rate), "shots/cpu-s");
    report.add("peak_rss_mb", usage.max_rss_mb, "MB");
    return report;
  }

  report.add("circuit.parse_s", median(parse_s), "s");
  report.add("symbolic.forward_pass_s", median(forward_s), "s");
  report.add("symbolic.symbols", static_cast<double>(cs.num_symbols()), "count");
  report.add("symbolic.expr_nnz", static_cast<double>(cs.expression_nnz()),
             "count");
  report.add("sampler.build_s", median(build_s), "s");
  const double fill = median(collect(traced, [](auto& r) { return r.fill_busy_s; }));
  const double wall = median(collect(traced, [](auto& r) { return r.run_wall_s; }));
  report.add("sampler.symbol_gen_busy_s",
             median(collect(traced, [](auto& r) { return r.gen_busy_s; })), "s");
  report.add("sampler.product_busy_s",
             median(collect(traced, [](auto& r) { return r.product_busy_s; })),
             "s");
  report.add("sampler.fill_busy_s", fill, "s");
  report.add("sampler.frame_fill_busy_s",
             median(collect(traced, [](auto& r) { return r.frame_fill_busy_s; })),
             "s");
  report.add("sampler.format_busy_s",
             median(collect(traced, [](auto& r) { return r.format_busy_s; })),
             "s");
  if (spec.b8_writer) {
    report.add("sampler.output_bytes",
               median(collect(traced, [](auto& r) { return r.output_bytes; })),
               "count");
  }
  report.add("api.run_wall_s", wall, "s");
  report.add("api.traced_wall_s",
             median(collect(traced, [](auto& r) { return r.traced_wall_s; })),
             "s");
  report.add("api.fill_parallelism", wall > 0 ? fill / wall : 0, "ratio");
  report.add("api.minor_faults",
             median(collect(traced, [](auto& r) { return r.minor_faults; })),
             "count");
  report.add("api.sys_s", median(collect(traced, [](auto& r) { return r.sys_s; })),
             "s");
  return report;
}

/// The paper's layered random family at size n. The instance is the one
/// bench/bench_fig3a and bench_fig3c draw at their default seed
/// (Rng(2024 + n)); it is fixed so that every run measures the same
/// circuit, and the run's seed draws the sampling seeds.
std::string layered_text(std::size_t n, bool fig3c) {
  LayeredRandomCircuitOptions o;
  o.num_qubits = n;
  o.num_layers = n;
  o.measure_fraction = 0.05;
  if (fig3c) {
    o.half_n_cnot_pairs = true;
    o.depolarize_probability = 0.001;
  } else {
    o.cnot_pairs_per_layer = 5;
  }
  Rng rng(2024 + n);
  return layered_random_circuit(o, rng).to_text();
}

std::string surface_text(double p) {
  SurfaceCodeOptions o;
  o.distance = 15;
  o.rounds = 15;
  o.data_depolarization = p;
  o.gate_depolarization = p;
  o.measurement_flip_probability = p;
  return surface_code_memory(o).to_text();
}

}  // namespace

LibrarySpec fig3a_spec() {
  LibrarySpec spec;
  spec.name = "fig3a-sample";
  spec.circuit_text = layered_text(500, false);
  spec.timed_shots = 1 << 20;
  spec.timed_frame_shots = 1 << 20;
  return spec;
}

LibrarySpec fig3c_spec() {
  LibrarySpec spec;
  spec.name = "fig3c-compile";
  spec.circuit_text = layered_text(250, true);
  // SymPhase samples this circuit about 20x faster than frames; its
  // rounds get more shots so that neither is a few-millisecond run.
  spec.timed_shots = 1 << 20;
  spec.timed_frame_shots = 1 << 17;
  return spec;
}

LibrarySpec surface_spec() {
  LibrarySpec spec;
  spec.name = "surface-detect";
  spec.circuit_text = surface_text(0.001);
  spec.twin_text = surface_text(0.0);
  spec.target = SampleTarget::kDetectionEvents;
  spec.b8_writer = true;
  spec.timed_shots = 1 << 15;
  spec.timed_frame_shots = 1 << 15;
  return spec;
}

Report run_fig3a_sample(const Options& options, SpanLog& spans) {
  return run_library(fig3a_spec(), options, spans);
}

Report run_fig3c_compile(const Options& options, SpanLog& spans) {
  return run_library(fig3c_spec(), options, spans);
}

Report run_surface_detect(const Options& options, SpanLog& spans) {
  return run_library(surface_spec(), options, spans);
}

}  // namespace perfbench
