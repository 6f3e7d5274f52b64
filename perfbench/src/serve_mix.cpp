// The serve-mix workload: `symphase serve --listen … --http …` as a child
// process, driven open loop from this one process.
//
// Before the timed window: the request schedule is drawn from the seed
// (Poisson arrivals at kRate, mixed circuits, targets, formats, backends
// and transports, a small share of large requests), every response's
// expected digest is computed with a direct in-process SimulatorSession
// run, and the server is set up kSetups times (start, register the
// data/ corpus, warm every session) — the last one serves the window —
// and kSetups times more after it.
// In the window a single-threaded poll loop sends each request at its
// scheduled time over 2 frame-protocol and 2 HTTP connections (nproc of
// the reference host), whatever is still outstanding, and times it from
// its scheduled send time to its last byte.
// After the window, on the same server, the bulk phase: one frame-protocol
// client fetches 1M-shot b8 responses one after another, alternating the
// SymPhase and frame backends; their shots per CPU-second of the server
// are the workload's shots_per_cpu_s and frame_shots_per_cpu_s.

#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "api/session.hpp"
#include "checks.hpp"
#include "circuit/parser.hpp"
#include "common.hpp"
#include "common/rng.hpp"
#include "http/json.hpp"
#include "net/socket.hpp"
#include "serve_mix.hpp"
#include "service/request.hpp"
#include "service/wire.hpp"

namespace perfbench {

using namespace symphase;

namespace {

/// Offered load (requests/s) — below saturation on the reference host,
/// and high enough that a 10 s window holds >= 1000 requests, i.e.
/// >= 10 beyond the p99.
constexpr double kRate = 200.0;
/// Every kLargeEvery-th request of the mix is large (3%).
constexpr std::size_t kLargeEvery = 33;
constexpr std::size_t kSmallShots = 1024;
constexpr std::size_t kLargeShots = 100000;
/// Connections: frame small, frame large, HTTP small, HTTP large.
constexpr std::size_t kFrameConns = 2;
constexpr std::size_t kHttpConns = 2;
constexpr std::size_t kSetups = 8;
/// Bulk phase: kBulkRounds requests of kBulkShots per backend, one at a
/// time. Large enough that a request's time is sampling and streaming,
/// not the server's thread hand-offs.
constexpr std::size_t kBulkRounds = 24;
constexpr std::size_t kBulkShots = 1000000;
/// A window that has not finished this long after its last scheduled
/// send is abandoned; its outstanding requests count as failed.
constexpr double kDrainLimitS = 60.0;
/// Request ids of the set-up and stats messages (timed requests use
/// their index + 1).
constexpr std::uint64_t kControlIdBase = std::uint64_t{1} << 31;

const char* format_name(SampleFormat f) {
  switch (f) {
    case SampleFormat::k01:
      return "01";
    case SampleFormat::kHex:
      return "hex";
    case SampleFormat::kB8:
      return "b8";
    case SampleFormat::kPtb64:
      return "ptb64";
    case SampleFormat::kDets:
      return "dets";
  }
  return "01";
}

/// Buffered ostream target feeding a StreamHash.
class HashBuf final : public std::streambuf {
 public:
  HashBuf() { setp(buf_, buf_ + sizeof(buf_)); }
  StreamHash& hash() {
    drain();
    return hash_;
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
    hash_.update(pbase(), static_cast<std::size_t>(pptr() - pbase()));
    setp(buf_, buf_ + sizeof(buf_));
  }
  char buf_[1 << 16];
  StreamHash hash_;
};

}  // namespace

void StreamHash::update(const char* p, std::size_t n) {
  bytes_ += n;
  const auto take_byte = [&] {
    pending_ |= std::uint64_t{static_cast<unsigned char>(*p++)} << (8 * fill_);
    --n;
    if (++fill_ == 8) {
      mix(pending_);
      pending_ = 0;
      fill_ = 0;
    }
  };
  while (n > 0 && fill_ != 0) {
    take_byte();
  }
  for (; n >= 8; p += 8, n -= 8) {
    std::uint64_t w;
    std::memcpy(&w, p, 8);
    mix(w);
  }
  while (n > 0) {
    take_byte();
  }
}

std::uint64_t StreamHash::digest() const {
  StreamHash h = *this;
  h.mix(h.pending_ ^ (std::uint64_t{h.fill_} << 59));
  h.mix(h.bytes_);
  return h.state_;
}

std::vector<CorpusCircuit> load_corpus(const std::string& data_dir) {
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(data_dir)) {
    if (entry.path().extension() == ".stim") {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  std::vector<CorpusCircuit> corpus;
  for (const auto& path : files) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream oss;
    oss << in.rdbuf();
    CorpusCircuit c;
    c.name = path.filename().string();
    c.text = oss.str();
    c.has_detectors =
        !resolve_detectors(parse_circuit(c.text)).detectors.empty();
    corpus.push_back(std::move(c));
  }
  if (corpus.empty()) {
    throw std::runtime_error("no .stim circuits in " + data_dir);
  }
  return corpus;
}

namespace {

std::size_t largest_circuit(const std::vector<CorpusCircuit>& corpus) {
  std::size_t largest = 0;
  for (std::size_t c = 0; c < corpus.size(); ++c) {
    if (corpus[c].text.size() > corpus[largest].text.size()) {
      largest = c;
    }
  }
  return largest;
}

}  // namespace

std::vector<MixRequest> draw_schedule(const std::vector<CorpusCircuit>& corpus,
                                      std::uint64_t seed, double seconds) {
  const std::size_t count =
      std::max<std::size_t>(1, static_cast<std::size_t>(kRate * seconds + 0.5));
  std::vector<MixRequest> schedule(count);
  // The make-up of the mix (circuit, target, format, backend, transport,
  // size) is the same for every seed, so a seed does not change how
  // much work the window holds; the seed orders the requests and draws
  // their arrival times and sampling seeds.
  // Large requests are all b8 on the largest circuit — the decoder-input
  // shape — so the tail they set is one kind of request.
  const std::size_t largest = largest_circuit(corpus);
  Rng mix_rng(0x6d6978);
  for (std::size_t i = 0; i < count; ++i) {
    MixRequest& r = schedule[i];
    r.large = i % kLargeEvery == 0;
    r.circuit = r.large ? largest
                        : static_cast<std::size_t>(
                              mix_rng.next_below(corpus.size()));
    const bool detect =
        corpus[r.circuit].has_detectors && mix_rng.next_double() < 0.5;
    r.request.verb = detect ? RequestVerb::kDetect : RequestVerb::kSample;
    r.request.task.target = detect ? SampleTarget::kDetectionEvents
                                   : SampleTarget::kMeasurements;
    static constexpr SampleFormat kSampleFormats[] = {
        SampleFormat::k01, SampleFormat::kHex, SampleFormat::kB8,
        SampleFormat::kPtb64};
    static constexpr SampleFormat kDetectFormats[] = {
        SampleFormat::kDets, SampleFormat::kB8, SampleFormat::k01};
    r.request.format = detect ? kDetectFormats[mix_rng.next_below(3)]
                              : kSampleFormats[mix_rng.next_below(4)];
    if (r.large) {
      r.request.format = SampleFormat::kB8;
    }
    r.request.task.backend = mix_rng.next_double() < 0.25
                                 ? SampleBackend::kFrameSimulator
                                 : SampleBackend::kSymPhase;
    r.request.task.shots = r.large ? kLargeShots : kSmallShots;
    r.http = mix_rng.next_double() < 0.5;
  }
  Rng rng(seed ^ 0x5e7e5e7eull);
  for (std::size_t i = count; i > 1; --i) {
    std::swap(schedule[i - 1], schedule[rng.next_below(i)]);
  }
  double at = 0;
  for (MixRequest& r : schedule) {
    at += -std::log1p(-rng.next_double()) / kRate;
    r.at_s = at;
    r.request.task.seed = rng.next_below(std::uint64_t{1} << 40);
    // Bulk and interactive traffic keep separate connections, as their
    // clients would: connection 0/1 frame small/large, 2/3 HTTP.
    r.conn = (r.http ? 2 : 0) + (r.large ? 1 : 0);
  }
  return schedule;
}

std::vector<MixRequest> draw_bulk(const std::vector<CorpusCircuit>& corpus,
                                  std::uint64_t seed) {
  std::vector<MixRequest> bulk(2 * kBulkRounds);
  Rng rng(seed ^ 0xb01cb01cull);
  for (std::size_t i = 0; i < bulk.size(); ++i) {
    MixRequest& r = bulk[i];
    r.large = true;
    r.circuit = largest_circuit(corpus);
    r.request.verb = RequestVerb::kSample;
    r.request.task.target = SampleTarget::kMeasurements;
    r.request.format = SampleFormat::kB8;
    r.request.task.backend = i % 2 == 0 ? SampleBackend::kSymPhase
                                        : SampleBackend::kFrameSimulator;
    r.request.task.shots = kBulkShots;
    r.request.task.seed = rng.next_below(std::uint64_t{1} << 40);
  }
  return bulk;
}

void expect_digests(const std::vector<CorpusCircuit>& corpus,
                    std::vector<MixRequest>& schedule) {
  std::vector<std::unique_ptr<SimulatorSession>> sessions;
  for (const CorpusCircuit& c : corpus) {
    sessions.push_back(
        std::make_unique<SimulatorSession>(parse_circuit(c.text)));
  }
  // Build every artifact up front: sessions build lazily under a lock,
  // and the parallel runs below then only read them.
  for (const MixRequest& r : schedule) {
    sessions[r.circuit]->prepare(r.request.task);
  }
  std::atomic<std::size_t> next{0};
  const auto worker = [&] {
    for (std::size_t i = next++; i < schedule.size(); i = next++) {
      MixRequest& r = schedule[i];
      SampleTask task = r.request.task;
      task.num_threads = 1;  // bits never depend on the thread count
      HashBuf buf;
      std::ostream out(&buf);
      WriterSink sink(out, r.request.format);
      sessions[r.circuit]->run(task, sink);
      r.expect_bytes = buf.hash().bytes();
      r.expect_digest = buf.hash().digest();
    }
  };
  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back(worker);
  }
  for (std::thread& t : threads) {
    t.join();
  }
}

StageTimes parse_server_timing(std::string_view text) {
  StageTimes t;
  const auto value = [&](std::string_view name) {
    const std::string key = std::string(name) + ";dur=";
    const std::size_t at = text.find(key);
    if (at == std::string_view::npos) {
      return -1.0;
    }
    return std::strtod(std::string(text.substr(at + key.size(), 32)).c_str(),
                       nullptr);
  };
  t.queue_ms = value("queue");
  t.compile_ms = value("compile");
  t.execute_ms = value("execute");
  t.emit_ms = value("emit");
  t.valid = t.queue_ms >= 0 && t.compile_ms >= 0 && t.execute_ms >= 0 &&
            t.emit_ms >= 0;
  return t;
}

namespace {

/// One non-blocking client connection of the generator, either
/// transport. Outbound bytes queue in `out` and drain on POLLOUT.
class Conn {
 public:
  Conn(std::uint16_t port, bool http, std::vector<MixRequest>& schedule,
       Corruption corruption)
      : http_(http), schedule_(schedule), corruption_(corruption) {
    socket_ = tcp_connect(HostPort{"127.0.0.1", port});
    set_nonblocking(socket_.fd(), true);
  }

  int fd() const { return socket_.fd(); }
  bool wants_write() const { return out_pos_ < out_.size(); }
  std::size_t outstanding() const { return outstanding_; }

  /// Queues timed request `index` (the caller records its send time).
  void send(std::size_t index, bool want_timing) {
    MixRequest& r = schedule_[index];
    if (http_) {
      queue_http(index, r);
    } else {
      SampleRequest req = r.request;
      req.want_timing = want_timing;
      queue_frame(index + 1, encode_request_payload(req));
    }
    ++outstanding_;
    flush();
  }

  /// Queues control messages (frame connections only), pipelined, and
  /// busy-polls until every reply completes; returns the reply payloads
  /// in order, throws on an error reply.
  std::vector<std::string> transact(const std::vector<SampleRequest>& requests) {
    control_first_ = next_control_id_;
    control_replies_.assign(requests.size(), std::string());
    control_pending_ = requests.size();
    control_error_.reset();
    for (const SampleRequest& request : requests) {
      queue_frame(next_control_id_++, encode_request_payload(request));
    }
    const auto start = Clock::now();
    while (control_pending_ > 0) {
      pollfd p{fd(), static_cast<short>(POLLIN | (wants_write() ? POLLOUT : 0)),
               0};
      ::poll(&p, 1, 0);
      if ((p.revents & POLLOUT) != 0) {
        flush();
      }
      if ((p.revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        read_available();
      }
      if (seconds_since(start) > 30) {
        throw std::runtime_error("server did not answer a control request");
      }
    }
    if (control_error_) {
      throw std::runtime_error("server error: " + *control_error_);
    }
    return std::move(control_replies_);
  }

  std::string transact(const SampleRequest& request) {
    return transact(std::vector<SampleRequest>{request})[0];
  }

  /// Writes as much of the outbound queue as the socket takes.
  void flush() {
    while (out_pos_ < out_.size()) {
      const ssize_t n = ::send(fd(), out_.data() + out_pos_,
                               out_.size() - out_pos_, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) {
          continue;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
          return;
        }
        throw std::runtime_error(std::string("send: ") + std::strerror(errno));
      }
      out_pos_ += static_cast<std::size_t>(n);
    }
    out_.clear();
    out_pos_ = 0;
  }

  /// Reads what is available (at most kReadBurst reads, so one large
  /// response cannot hold up the send schedule) and advances the
  /// response parsers.
  void read_available() {
    static constexpr int kReadBurst = 4;
    char buf[1 << 16];
    for (int burst = 0; burst < kReadBurst; ++burst) {
      const ssize_t n = ::recv(fd(), buf, sizeof(buf), 0);
      if (n < 0) {
        if (errno == EINTR) {
          continue;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
          return;
        }
        throw std::runtime_error(std::string("recv: ") + std::strerror(errno));
      }
      if (n == 0) {
        if (outstanding_ > 0 || control_pending_ > 0) {
          throw std::runtime_error("server closed a connection mid-response");
        }
        return;
      }
      const auto now = Clock::now();
      if (http_) {
        in_.append(buf, static_cast<std::size_t>(n));
        parse_http(now);
      } else {
        decoder_.feed(std::string_view(buf, static_cast<std::size_t>(n)));
        parse_frames(now);
      }
    }
  }

 private:
  void queue_frame(std::uint64_t id, const std::string& payload) {
    FrameHeader h;
    h.request_id = id;
    h.flags = kFrameLast;
    out_ += encode_frame(h, payload);
  }

  void queue_http(std::size_t index, const MixRequest& r) {
    std::ostringstream body;
    body << "{\"digest\":\"" << r.request.digest
         << "\",\"shots\":" << r.request.task.shots
         << ",\"seed\":" << r.request.task.seed << ",\"format\":\""
         << format_name(r.request.format) << "\",\"backend\":\""
         << (r.request.task.backend == SampleBackend::kSymPhase ? "symphase"
                                                                 : "frames")
         << "\"}";
    const std::string b = body.str();
    std::ostringstream req;
    req << "POST "
        << (r.request.verb == RequestVerb::kDetect ? "/v1/detect"
                                                   : "/v1/sample")
        << " HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json"
           "\r\nContent-Length: "
        << b.size() << "\r\n\r\n"
        << b;
    out_ += req.str();
    http_fifo_.push_back(index);
  }

  void finish(std::size_t index, Clock::time_point now, bool error,
              std::string_view timing) {
    MixRequest& r = schedule_[index];
    r.done = now;
    r.completed = true;
    r.error = error;
    r.got_bytes = r.hash.bytes();
    r.got_digest = r.hash.digest();
    if (!timing.empty()) {
      r.stages = parse_server_timing(timing);
    }
    --outstanding_;
  }

  void data(std::size_t index, Clock::time_point now, const char* p,
            std::size_t n) {
    MixRequest& r = schedule_[index];
    if (!r.got_first_byte && n > 0) {
      r.first_byte = now;
      r.got_first_byte = true;
    }
    if (corruption_ != Corruption::kNone && n > 0) {
      std::string damaged(p, n);
      corrupt_bytes(damaged, corruption_, n / 2);
      corruption_ = Corruption::kNone;
      r.hash.update(damaged.data(), damaged.size());
      return;
    }
    r.hash.update(p, n);
  }

  void parse_frames(Clock::time_point now) {
    if (decoder_.failed()) {
      throw std::runtime_error("bad frame from server: " + decoder_.error());
    }
    Frame f;
    while (decoder_.next(f)) {
      const std::uint64_t id = f.header.request_id;
      const bool last = (f.header.flags & kFrameLast) != 0;
      const bool error = (f.header.flags & kFrameError) != 0;
      const bool timing = (f.header.flags & kFrameTiming) != 0;
      if (id >= kControlIdBase) {
        if (id >= control_first_ &&
            id - control_first_ < control_replies_.size()) {
          std::string& reply = control_replies_[id - control_first_];
          reply += f.payload;
          if (last) {
            if (error && !control_error_) {
              control_error_ = reply;
            }
            --control_pending_;
          }
        }
        continue;
      }
      if (id == 0 || id > schedule_.size()) {
        throw std::runtime_error("frame for unknown request " +
                                 std::to_string(id));
      }
      const std::size_t index = id - 1;
      if (!timing && !error) {
        data(index, now, f.payload.data(), f.payload.size());
      }
      if (last) {
        if (error) {
          schedule_[index].error_text = f.payload;
        }
        finish(index, now, error, timing ? std::string_view(f.payload) : "");
      }
    }
    if (decoder_.failed()) {
      throw std::runtime_error("bad frame from server: " + decoder_.error());
    }
  }

  /// Incremental HTTP/1.1 response parser for pipelined responses
  /// (chunked bodies with a Server-Timing trailer, or Content-Length
  /// error bodies).
  void parse_http(Clock::time_point now) {
    for (;;) {
      if (http_fifo_.empty()) {
        if (in_pos_ < in_.size()) {
          throw std::runtime_error("unexpected bytes from the HTTP gateway");
        }
        break;
      }
      const std::size_t index = http_fifo_.front();
      if (state_ == HttpState::kHead) {
        const std::size_t end = in_.find("\r\n\r\n", in_pos_);
        if (end == std::string::npos) {
          break;
        }
        std::string head = in_.substr(in_pos_, end - in_pos_);
        in_pos_ = end + 4;
        std::transform(head.begin(), head.end(), head.begin(), [](char c) {
          return static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
        });
        status_ = std::atoi(head.c_str() + std::min<std::size_t>(9, head.size()));
        chunked_ = head.find("transfer-encoding: chunked") != std::string::npos;
        trailer_.clear();
        if (chunked_) {
          state_ = HttpState::kChunkSize;
        } else {
          const std::size_t cl = head.find("content-length:");
          remaining_ = cl == std::string::npos
                           ? 0
                           : std::strtoull(head.c_str() + cl + 15, nullptr, 10);
          state_ = HttpState::kBody;
        }
        continue;
      }
      if (state_ == HttpState::kChunkSize) {
        const std::size_t eol = in_.find("\r\n", in_pos_);
        if (eol == std::string::npos) {
          break;
        }
        remaining_ = std::strtoull(in_.c_str() + in_pos_, nullptr, 16);
        in_pos_ = eol + 2;
        state_ = remaining_ == 0 ? HttpState::kTrailer : HttpState::kChunkData;
        continue;
      }
      if (state_ == HttpState::kChunkData || state_ == HttpState::kBody) {
        const std::size_t take = std::min(remaining_, in_.size() - in_pos_);
        if (status_ == 200) {
          data(index, now, in_.data() + in_pos_, take);
        } else {
          schedule_[index].error_text.append(in_, in_pos_, take);
        }
        in_pos_ += take;
        remaining_ -= take;
        if (remaining_ > 0) {
          break;
        }
        if (state_ == HttpState::kBody) {
          http_fifo_.pop_front();
          finish(index, now, true, "");
          state_ = HttpState::kHead;
        } else {
          state_ = HttpState::kChunkCrlf;
        }
        continue;
      }
      if (state_ == HttpState::kChunkCrlf) {
        if (in_.size() - in_pos_ < 2) {
          break;
        }
        in_pos_ += 2;
        state_ = HttpState::kChunkSize;
        continue;
      }
      // kTrailer: header lines up to an empty line.
      const std::size_t eol = in_.find("\r\n", in_pos_);
      if (eol == std::string::npos) {
        break;
      }
      const std::string line = in_.substr(in_pos_, eol - in_pos_);
      in_pos_ = eol + 2;
      if (!line.empty()) {
        const std::size_t colon = line.find(':');
        if (colon != std::string::npos) {
          std::string name = line.substr(0, colon);
          std::transform(name.begin(), name.end(), name.begin(), [](char c) {
            return static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
          });
          if (name == "server-timing") {
            trailer_ = line.substr(colon + 1);
          }
        }
        continue;
      }
      http_fifo_.pop_front();
      finish(index, now, status_ != 200, trailer_);
      state_ = HttpState::kHead;
    }
    if (in_pos_ > (1u << 16)) {
      in_.erase(0, in_pos_);
      in_pos_ = 0;
    }
  }

  enum class HttpState { kHead, kChunkSize, kChunkData, kChunkCrlf, kTrailer,
                         kBody };

  Socket socket_;
  bool http_;
  std::vector<MixRequest>& schedule_;
  Corruption corruption_;
  std::string out_;
  std::size_t out_pos_ = 0;
  std::size_t outstanding_ = 0;
  // Frame protocol.
  FrameDecoder decoder_{std::size_t{1} << 30};
  std::uint64_t next_control_id_ = kControlIdBase;
  std::uint64_t control_first_ = 0;
  std::vector<std::string> control_replies_;
  std::size_t control_pending_ = 0;
  std::optional<std::string> control_error_;
  // HTTP.
  std::deque<std::size_t> http_fifo_;
  std::string in_;
  std::size_t in_pos_ = 0;
  HttpState state_ = HttpState::kHead;
  int status_ = 0;
  bool chunked_ = false;
  std::size_t remaining_ = 0;
  std::string trailer_;
};

/// CPU placement of the window: the generator gets one CPU of its own
/// (it stands for clients on other machines; sharing CPUs with the
/// server's fill threads made it oversleep its send times by
/// milliseconds), the server every other CPU. On one CPU both share it.
struct CpuSplit {
  cpu_set_t generator;
  cpu_set_t server;
};

/// Computed once, from the CPUs the process had before the generator
/// pinned itself.
const CpuSplit& cpu_split() {
  static const CpuSplit split = [] {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    sched_getaffinity(0, sizeof(allowed), &allowed);
    CpuSplit s{allowed, allowed};
    if (CPU_COUNT(&allowed) < 2) {
      return s;
    }
    int last = -1;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed)) {
        last = cpu;
      }
    }
    CPU_ZERO(&s.generator);
    CPU_SET(last, &s.generator);
    CPU_CLR(last, &s.server);
    return s;
  }();
  return split;
}

/// The `symphase serve` child process.
class Server {
 public:
  Server(const Options& options) {
    const std::string port_file = options.work_dir + "/serve.port";
    const std::string http_file = options.work_dir + "/serve.http-port";
    const std::string log_file = options.work_dir + "/serve.log";
    std::filesystem::remove(port_file);
    std::filesystem::remove(http_file);
    std::vector<std::string> args = {
        options.cli, "serve", "--listen", "127.0.0.1:0",
        "--http", "127.0.0.1:0", "--port-file", port_file,
        "--http-port-file", http_file};
    std::vector<char*> argv;
    for (std::string& a : args) {
      argv.push_back(a.data());
    }
    argv.push_back(nullptr);
    const cpu_set_t server_cpus = cpu_split().server;
    const pid_t parent = getpid();
    pid_ = fork();
    if (pid_ < 0) {
      throw std::runtime_error("fork failed");
    }
    if (pid_ == 0) {
      // The server never outlives the benchmark, even when killed.
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      sched_setaffinity(0, sizeof(server_cpus), &server_cpus);
      if (getppid() != parent) {
        _exit(127);
      }
      const int devnull = ::open("/dev/null", O_RDONLY);
      const int log = ::open(log_file.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                             0644);
      dup2(devnull, 0);
      dup2(log, 1);
      dup2(log, 2);
      execv(argv[0], argv.data());
      _exit(127);
    }
    const auto start = Clock::now();
    while (!read_port(port_file, port_) || !read_port(http_file, http_port_)) {
      int status = 0;
      if (waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        throw std::runtime_error("symphase serve exited at start; see " +
                                 log_file);
      }
      if (seconds_since(start) > 20) {
        throw std::runtime_error("symphase serve did not start; see " +
                                 log_file);
      }
      // Fine-grained: the start is timed as part of set-up.
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }

  ~Server() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      waitpid(pid_, nullptr, 0);
    }
  }

  std::uint16_t port() const { return port_; }
  std::uint16_t http_port() const { return http_port_; }

  /// The running server's peak RSS so far in MB (VmHWM).
  double peak_rss_mb() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("VmHWM:", 0) == 0) {
        return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
      }
    }
    throw std::runtime_error("cannot read the server's peak RSS");
  }

  /// CPU seconds (user + system) the server has used so far, its ended
  /// threads included; clock-tick resolution.
  double cpu_s() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
    std::string stat((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    // Fields after the parenthesised command: state is field 3, utime
    // and stime are fields 14 and 15.
    const std::size_t close = stat.rfind(')');
    if (close == std::string::npos) {
      throw std::runtime_error("cannot read the server's CPU time");
    }
    std::istringstream fields(stat.substr(close + 2));
    std::string skip;
    for (int field = 3; field < 14; ++field) {
      fields >> skip;
    }
    double utime = 0;
    double stime = 0;
    if (!(fields >> utime >> stime)) {
      throw std::runtime_error("cannot read the server's CPU time");
    }
    return (utime + stime) / static_cast<double>(sysconf(_SC_CLK_TCK));
  }

  /// Stops the server. SIGINT is the immediate clean shutdown; the
  /// graceful SIGTERM drain is not used because it sometimes never
  /// completes (see perfbench/README.md).
  void stop() {
    ::kill(pid_, SIGINT);
    int status = 0;
    const auto start = Clock::now();
    while (waitpid(pid_, &status, WNOHANG) != pid_) {
      if (seconds_since(start) > 10) {
        ::kill(pid_, SIGKILL);
        waitpid(pid_, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    pid_ = -1;
  }

 private:
  static bool read_port(const std::string& path, std::uint16_t& port) {
    std::ifstream in(path);
    unsigned value = 0;
    if (!(in >> value) || value == 0 || value > 65535) {
      return false;
    }
    port = static_cast<std::uint16_t>(value);
    return true;
  }

  pid_t pid_ = -1;
  std::uint16_t port_ = 0;
  std::uint16_t http_port_ = 0;
};

/// A started, registered and warmed server with its connections.
struct Deployment {
  std::unique_ptr<Server> server;
  std::vector<std::unique_ptr<Conn>> conns;
};

Deployment deploy(const Options& options,
                  const std::vector<CorpusCircuit>& corpus,
                  std::vector<std::string>& digests,
                  std::vector<MixRequest>& schedule, Corruption corruption,
                  std::uint64_t* attempted) {
  Deployment d;
  d.server = std::make_unique<Server>(options);
  for (std::size_t i = 0; i < kFrameConns + kHttpConns; ++i) {
    const bool http = i >= kFrameConns;
    d.conns.push_back(std::make_unique<Conn>(
        http ? d.server->http_port() : d.server->port(), http, schedule,
        corruption));
  }
  // Registrations, then warm-ups, each sent as one pipelined batch, so
  // that set-up time is the server's work rather than a sum of
  // round trips.
  Conn& control = *d.conns[0];
  std::vector<SampleRequest> batch;
  for (const CorpusCircuit& c : corpus) {
    SampleRequest reg;
    reg.verb = RequestVerb::kRegister;
    reg.circuit_text = c.text;
    batch.push_back(std::move(reg));
  }
  digests.clear();
  for (std::string& reply : control.transact(batch)) {
    if (reply.rfind("digest=", 0) != 0) {
      throw std::runtime_error("bad register reply: " + reply);
    }
    reply = reply.substr(7);
    while (!reply.empty() && (reply.back() == '\n' || reply.back() == '\r')) {
      reply.pop_back();
    }
    digests.push_back(reply);
  }
  // Warm: build every session artifact a timed request can need.
  batch.clear();
  for (std::size_t c = 0; c < corpus.size(); ++c) {
    for (const bool detect : {false, true}) {
      if (detect && !corpus[c].has_detectors) {
        continue;
      }
      for (const SampleBackend backend :
           {SampleBackend::kSymPhase, SampleBackend::kFrameSimulator}) {
        SampleRequest warm;
        warm.verb = detect ? RequestVerb::kDetect : RequestVerb::kSample;
        warm.digest = digests[c];
        warm.task.target = detect ? SampleTarget::kDetectionEvents
                                  : SampleTarget::kMeasurements;
        warm.task.backend = backend;
        warm.task.shots = 64;
        warm.format = SampleFormat::kB8;
        batch.push_back(std::move(warm));
      }
    }
  }
  control.transact(batch);
  *attempted += batch.size();
  return d;
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

std::map<std::string, double> stats_counters(Conn& control) {
  SampleRequest req;
  req.verb = RequestVerb::kStats;
  req.stats_json = true;
  const JsonValue json = parse_json(control.transact(req));
  std::map<std::string, double> out;
  for (const char* key : {"hits", "compiles", "fused_requests",
                          "fusion_groups", "completed", "failed"}) {
    const JsonValue* v = json.find(key);
    out[key] = v == nullptr ? 0 : v->as_number();
  }
  return out;
}

/// One bulk request's time from its send to its last byte, and the
/// server CPU time it took.
struct BulkTiming {
  double wall_s = 0;
  double cpu_s = 0;
};

/// The bulk phase over `conn`: each request sent when the one before
/// it has ended.
std::vector<BulkTiming> drive_bulk(Conn& conn, const Server& server,
                                   std::vector<MixRequest>& bulk,
                                   SpanLog& spans) {
  std::vector<BulkTiming> timings;
  for (std::size_t i = 0; i < bulk.size(); ++i) {
    MixRequest& r = bulk[i];
    const double cpu0 = server.cpu_s();
    r.sent = Clock::now();
    conn.send(i, false);
    while (conn.outstanding() > 0) {
      pollfd p{conn.fd(),
               static_cast<short>(POLLIN | (conn.wants_write() ? POLLOUT : 0)),
               0};
      if (::poll(&p, 1, 0) < 0 && errno != EINTR) {
        throw std::runtime_error(std::string("poll: ") + std::strerror(errno));
      }
      if ((p.revents & POLLOUT) != 0) {
        conn.flush();
      }
      if ((p.revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        conn.read_available();
      }
      if (seconds_since(r.sent) > kDrainLimitS) {
        throw std::runtime_error("bulk request did not finish");
      }
    }
    spans.record("net.bulk_request", r.sent, r.done, i);
    timings.push_back({seconds_between(r.sent, r.done), server.cpu_s() - cpu0});
  }
  return timings;
}

}  // namespace

Report run_serve_mix(const Options& options, SpanLog& spans) {
  return serve_mix(options, spans, Corruption::kNone);
}

Report serve_mix(const Options& options, SpanLog& spans,
                 Corruption corruption) {
  Report report;
  const std::vector<CorpusCircuit> corpus = load_corpus(options.data_dir);
  std::vector<MixRequest> schedule =
      draw_schedule(corpus, options.seed, options.seconds);
  expect_digests(corpus, schedule);
  std::vector<MixRequest> bulk = draw_bulk(corpus, options.seed);
  expect_digests(corpus, bulk);

  // From here to the last set-up the generator runs on its own CPU and
  // busy-polls its connections.
  prctl(PR_SET_TIMERSLACK, 1UL);
  cpu_set_t all_cpus;
  sched_getaffinity(0, sizeof(all_cpus), &all_cpus);
  const cpu_set_t generator_cpu = cpu_split().generator;
  sched_setaffinity(0, sizeof(generator_cpu), &generator_cpu);

  // Set-up: server start -> corpus registered -> every session warm.
  // Half the set-ups run before the window and half after it, so their
  // median spans two moments of the host rather than one.
  std::vector<double> setup_s;
  std::vector<std::string> digests;
  Deployment d;
  const auto set_up_once = [&] {
    if (d.server) {
      d.conns.clear();
      d.server->stop();
    }
    const auto t0 = Clock::now();
    d = deploy(options, corpus, digests, schedule, corruption,
               &report.attempted);
    const auto t1 = Clock::now();
    spans.record("serve.setup", t0, t1, setup_s.size());
    setup_s.push_back(seconds_between(t0, t1));
  };
  for (std::size_t i = 0; i < kSetups; ++i) {
    set_up_once();
  }
  for (std::vector<MixRequest>* requests : {&schedule, &bulk}) {
    for (MixRequest& r : *requests) {
      r.request.digest = digests[r.circuit];
    }
  }
  const auto before = stats_counters(*d.conns[0]);

  // The open-loop window.
  std::vector<pollfd> fds(d.conns.size());
  const auto t0 = Clock::now() + std::chrono::milliseconds(5);
  const auto scheduled = [&](const MixRequest& r) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(r.at_s));
  };
  std::size_t next = 0;
  std::size_t completed = 0;
  bool abandoned = false;
  while (completed < schedule.size()) {
    auto now = Clock::now();
    while (next < schedule.size() && scheduled(schedule[next]) <= now) {
      MixRequest& r = schedule[next];
      d.conns[r.conn]->send(next, options.trace);
      r.sent = Clock::now();
      ++next;
    }
    for (std::size_t i = 0; i < d.conns.size(); ++i) {
      fds[i] = {d.conns[i]->fd(),
                static_cast<short>(POLLIN |
                                   (d.conns[i]->wants_write() ? POLLOUT : 0)),
                0};
    }
    // Busy-poll while sends remain: a sleeping generator is woken late
    // by milliseconds on a virtualized host, and it has a CPU of its own.
    timespec timeout{0, next < schedule.size() ? 0 : 50'000'000};
    now = Clock::now();
    if (next >= schedule.size() &&
        seconds_between(scheduled(schedule.back()), now) > kDrainLimitS) {
      abandoned = true;
      break;
    }
    if (ppoll(fds.data(), fds.size(), &timeout, nullptr) < 0 && errno != EINTR) {
      throw std::runtime_error(std::string("ppoll: ") + std::strerror(errno));
    }
    for (std::size_t i = 0; i < d.conns.size(); ++i) {
      if ((fds[i].revents & POLLOUT) != 0) {
        d.conns[i]->flush();
      }
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        d.conns[i]->read_available();
      }
    }
    completed = 0;
    for (const auto& c : d.conns) {
      completed += c->outstanding();
    }
    completed = next - completed;
  }
  const double window_s = seconds_since(t0);
  const auto after = stats_counters(*d.conns[0]);
  // Before the bulk phase: its 1M-shot responses buffer in the server by
  // how fast the client happens to read, and spread the peak by 13%.
  const double server_rss_mb = d.server->peak_rss_mb();

  // Per backend: each bulk request's delivered shots/s, and the shots
  // of all its requests over the server CPU seconds they took (summed,
  // so that the clock tick's granularity averages out).
  std::vector<double> sym_rate;
  std::vector<double> frame_rate;
  double sym_cpu_s = 0;
  double frame_cpu_s = 0;
  if (!abandoned) {
    Conn bulk_conn(d.server->port(), false, bulk, corruption);
    const std::vector<BulkTiming> timings =
        drive_bulk(bulk_conn, *d.server, bulk, spans);
    for (std::size_t i = 0; i < timings.size(); ++i) {
      const double shots = static_cast<double>(bulk[i].request.task.shots);
      (i % 2 == 0 ? sym_rate : frame_rate).push_back(shots / timings[i].wall_s);
      (i % 2 == 0 ? sym_cpu_s : frame_cpu_s) += timings[i].cpu_s;
    }
  }
  const double bulk_shots = static_cast<double>(kBulkRounds * kBulkShots);
  d.conns.clear();
  d.server->stop();
  d.server.reset();
  for (std::size_t i = 0; i < kSetups; ++i) {
    set_up_once();
  }
  d.conns.clear();
  d.server->stop();
  sched_setaffinity(0, sizeof(all_cpus), &all_cpus);

  // Verify every response against its direct in-process run.
  std::vector<double> all_ms, frame_ms, http_ms, ttfb_ms, lag_ms;
  std::vector<double> queue_ms, compile_ms, execute_ms, emit_ms;
  std::size_t errors = 0;
  std::size_t mismatched = 0;
  std::size_t large = 0;
  std::size_t answered = 0;
  std::string first_problem;
  const auto verify = [&](const MixRequest& r, const std::string& label) {
    report.attempted += 1;
    if (!r.completed || r.error) {
      ++errors;
      if (first_problem.empty()) {
        first_problem =
            label + ": " + (r.completed ? r.error_text : "no reply");
      }
      return false;
    }
    ++answered;
    if (r.got_bytes != r.expect_bytes || r.got_digest != r.expect_digest) {
      ++mismatched;
      if (first_problem.empty()) {
        first_problem = label + ": " + std::to_string(r.got_bytes) +
                        " bytes, expected " + std::to_string(r.expect_bytes);
      }
    }
    return true;
  };
  for (std::size_t i = 0; i < bulk.size(); ++i) {
    verify(bulk[i], "bulk request " + std::to_string(i));
  }
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const MixRequest& r = schedule[i];
    if (!verify(r, "request " + std::to_string(i))) {
      continue;
    }
    const auto due = scheduled(r);
    const double ms = ms_between(due, r.done);
    all_ms.push_back(ms);
    (r.http ? http_ms : frame_ms).push_back(ms);
    ttfb_ms.push_back(ms_between(due, r.got_first_byte ? r.first_byte : r.done));
    lag_ms.push_back(ms_between(due, r.sent));
    large += r.large ? 1 : 0;
    if (r.stages.valid) {
      queue_ms.push_back(r.stages.queue_ms);
      compile_ms.push_back(r.stages.compile_ms);
      execute_ms.push_back(r.stages.execute_ms);
      emit_ms.push_back(r.stages.emit_ms);
    }
    spans.record(r.http ? "http.request" : "net.frame_request", due, r.done, i);
  }
  report.failed = errors;
  report.correct = mismatched == 0 && errors == 0 && !abandoned;

  const double lag_p99 = quantile(lag_ms, 0.99);
  std::ostringstream mix;
  mix << "serve-mix: " << schedule.size() << " requests (" << large
      << " large, " << http_ms.size() << " over HTTP) at " << kRate
      << "/s open loop over " << corpus.size() << " circuits in "
      << window_s << " s; " << all_ms.size()
      << " latency samples; server peak RSS " << server_rss_mb << " MB";
  report.note(mix.str());
  report.note("checks: responses byte-identical to direct session runs: " +
              std::to_string(answered - mismatched) + " of " +
              std::to_string(answered) + "; error frames or missing " +
              "replies: " + std::to_string(errors) +
              (first_problem.empty() ? "" : " (first: " + first_problem + ")"));
  std::ostringstream lag;
  lag << "generator: send lag p99 " << lag_p99 << " ms";
  if (lag_p99 > 1.0) {
    lag << " -- BEHIND SCHEDULE: the generator, not the server, delayed "
           "these sends; latency figures are not valid for this run";
  }
  report.note(lag.str());

  const double p50 = quantile(all_ms, 0.5);
  const double p99 = quantile(all_ms, 0.99);
  std::ostringstream latency;
  latency << "request latency, scheduled send to last byte: p50 " << p50
          << " ms, p99 " << p99 << " ms over " << all_ms.size()
          << " samples (per-layer req_p50_ms/req_p99_ms; see README for "
             "why they carry no bound)";
  report.note(latency.str());
  std::ostringstream rates;
  rates << "bulk requests, delivered shots/s: symphase median "
        << median(sym_rate) << " p90 " << quantile(sym_rate, 0.9)
        << "; frames median " << median(frame_rate) << " p90 "
        << quantile(frame_rate, 0.9) << "; server CPU s: symphase "
        << sym_cpu_s << ", frames " << frame_cpu_s;
  report.note(rates.str());
  if (!options.trace) {
    report.add("setup_s", median(setup_s), "s");
    report.add("shots_per_cpu_s", sym_cpu_s > 0 ? bulk_shots / sym_cpu_s : 0,
               "shots/cpu-s");
    report.add("frame_shots_per_cpu_s",
               frame_cpu_s > 0 ? bulk_shots / frame_cpu_s : 0, "shots/cpu-s");
    report.add("peak_rss_mb", server_rss_mb, "MB");
    return report;
  }
  report.add("req_p50_ms", p50, "ms");
  report.add("req_p99_ms", p99, "ms");
  const auto delta = [&](const char* key) { return after.at(key) - before.at(key); };
  report.add("service.queue_ms.p50", quantile(queue_ms, 0.5), "ms");
  report.add("service.queue_ms.p99", quantile(queue_ms, 0.99), "ms");
  report.add("service.execute_ms.p50", quantile(execute_ms, 0.5), "ms");
  report.add("service.emit_ms.p50", quantile(emit_ms, 0.5), "ms");
  report.add("service.compile_ms.p99", quantile(compile_ms, 0.99), "ms");
  report.add("service.cache_hits", delta("hits"), "count");
  report.add("service.compiles", delta("compiles"), "count");
  report.add("service.fused_requests", delta("fused_requests"), "count");
  report.add("service.fusion_groups", delta("fusion_groups"), "count");
  report.add("net.frame_req_ms.p50", quantile(frame_ms, 0.5), "ms");
  report.add("net.frame_req_ms.p99", quantile(frame_ms, 0.99), "ms");
  report.add("net.ttfb_ms.p50", quantile(ttfb_ms, 0.5), "ms");
  report.add("net.send_lag_ms.p99", lag_p99, "ms");
  report.add("http.req_ms.p50", quantile(http_ms, 0.5), "ms");
  report.add("http.req_ms.p99", quantile(http_ms, 0.99), "ms");
  return report;
}

}  // namespace perfbench
