// serve_mix: an in-process NetServer + PlanService on loopback, its cache
// warmed during set-up, driven by one load-generator thread in a closed loop
// over four connections:
//
//   * three pipelined hit connections, kHitWindow frames in flight each,
//     carrying a seeded Zipf stream over the warm keys. A frame names a zoo
//     network, or carries the profile inline as madpipe-profile-v2 JSON at
//     the key's units or at a power-of-two rescale of them (a scaled hit);
//     a share of frames asks for options.explain;
//   * one window-1 connection carrying novel requests (seeded memory_gb on
//     small cells) that miss, plan and insert into the cache.
//
// The run has two phases. In the mixed phase the generator sends one seeded
// request sequence in which every kRequestsPerMiss-th request is a miss, so
// the mix is the same however fast either path runs; requests_per_s is its
// responses per second of process CPU time. In the miss phase the miss
// connection alone sends misses one at a time, so the process CPU time of
// each round trip is that miss's cost (plan_s_p50, plans_per_s).
//
// Every response is checked after the timed region against the plan
// computed directly for its key, rescaled exactly to the request's units.
// The traced run adds an in-process pass over the same frames with spans
// around the serve, models and report calls, and rebuilds the first misses
// layer by layer (compose_plan).
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <memory>
#include <set>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "bench.hpp"
#include "core/types.hpp"
#include "madpipe/planner.hpp"
#include "models/profile_io.hpp"
#include "report/plan_report.hpp"
#include "serve/net/server.hpp"
#include "serve/protocol.hpp"
#include "serve/request.hpp"
#include "serve/service.hpp"
#include "util/json.hpp"
#include "util/net.hpp"

namespace perfbench {

using namespace madpipe;

namespace {

// Traffic shape. README.md ("Serve stream") gives the source of each value.
constexpr int kHitConnections = 3;
constexpr std::size_t kHitWindow = 16;  ///< as bench_net's pipelined phase
constexpr double kZipfExponent = 0.99;  ///< YCSB's default Zipfian constant
constexpr double kExplainShare = 0.1;
constexpr std::size_t kScaledVariants = 3;  ///< rescaled inline forms per key
constexpr std::size_t kRequestsPerMiss = 160;
/// Share of --seconds given to the mixed phase; the miss phase gets the rest.
constexpr double kMixedShare = 0.75;
constexpr int kQualityMisses = 9;   ///< seeded misses in period_ratio_geomean
constexpr int kComposedMisses = 32; ///< misses rebuilt layer by layer
constexpr int kCheckThreads = 4;    ///< threads planning miss references

/// The warm keys, most popular first (the Zipf ranks are fixed, so every
/// seed sends the same mix).
const std::vector<Cell>& warm_keys() {
  static const std::vector<Cell> keys = {
      {"resnet50", 2, 16.0},   {"inception_v3", 4, 8.0},
      {"resnet101", 2, 16.0},  {"densenet121", 2, 16.0},
      {"gpt2-xl", 2, 16.0},    {"resnet50", 4, 16.0},
      {"inception_v3", 8, 16.0}, {"densenet121", 8, 16.0},
      {"resnet101", 8, 16.0}};
  return keys;
}

/// Cells whose plan stays cheap (tens of ms) over the whole memory range.
struct MissCell {
  const char* network;
  int gpus;
  double low_gb, high_gb;
};
constexpr MissCell kMissCells[] = {{"inception_v3", 4, 5.0, 16.0},
                                   {"resnet101", 2, 7.0, 16.0},
                                   {"resnet50", 4, 12.0, 16.0}};

struct Frame {
  std::string text;          ///< one request line, newline included
  std::size_t key = 0;
  Units units;               ///< relative to the key's zoo units
  bool explain = false;
  std::string profile_text;  ///< inline profile; empty for named frames
};

std::string request_line(const std::string& id, const Cell& cell,
                         const Units& units, const std::string& profile_text,
                         bool explain, bool timings) {
  json::Writer w;
  w.begin_object();
  w.key("id"); w.value(id);
  if (profile_text.empty()) {
    w.key("network");
    w.begin_object();
    w.key("name"); w.value(cell.network);
    if (cell.network != "gpt2-xl") {
      w.key("length"); w.value(24);
    }
    w.end_object();
  } else {
    w.key("profile_text"); w.value(profile_text);
  }
  w.key("gpus"); w.value(cell.gpus);
  w.key("memory_gb"); w.value(cell.memory_gb * units.byte_scale());
  w.key("bandwidth_gbs");
  w.value(12.0 * units.byte_scale() / units.time_scale());
  if (explain || timings) {
    w.key("options");
    w.begin_object();
    if (explain) { w.key("explain"); w.value(true); }
    if (timings) { w.key("timings"); w.value(true); }
    w.end_object();
  }
  w.end_object();
  return w.str() + "\n";
}

/// The frame pool: per key a named and an inline frame at the key's units
/// and kScaledVariants rescaled inline frames, each with and without
/// options.explain. Also returns, per key, the index of its named frame.
std::vector<Frame> build_frames(util::Rng& rng, SpanLog& spans,
                                std::vector<std::size_t>& named) {
  std::vector<Frame> frames;
  named.clear();
  for (std::size_t k = 0; k < warm_keys().size(); ++k) {
    const Cell& cell = warm_keys()[k];
    std::optional<Chain> chain;
    {
      Scoped span(spans, "models.build_chain", static_cast<long long>(k));
      chain = cell_chain(cell.network);
    }
    std::vector<std::pair<Units, std::string>> forms;
    forms.emplace_back(Units{}, "");
    forms.emplace_back(Units{}, models::profile_to_json_string(*chain));
    for (std::size_t v = 0; v < kScaledVariants; ++v) {
      Units units = draw_units(rng);
      if (units.time_exp == 0 && units.byte_exp == 0) units.time_exp = 1;
      forms.emplace_back(units, models::profile_to_json_string(
                                    scale_chain(*chain, units)));
    }
    for (std::size_t f = 0; f < forms.size(); ++f) {
      for (const bool explain : {false, true}) {
        Frame frame;
        frame.key = k;
        frame.units = forms[f].first;
        frame.explain = explain;
        frame.profile_text = forms[f].second;
        frame.text = request_line("k" + std::to_string(k) + "f" +
                                      std::to_string(frames.size()),
                                  cell, frame.units, frame.profile_text,
                                  explain, false);
        if (f == 0 && !explain) named.push_back(frames.size());
        frames.push_back(std::move(frame));
      }
    }
  }
  return frames;
}

/// Seeded request stream over the frame pool: Zipf over keys, then the
/// frame's form and the explain flag.
class HitStream {
 public:
  HitStream(std::uint64_t seed, std::size_t keys) : rng_(seed) {
    double total = 0.0;
    for (std::size_t k = 0; k < keys; ++k) {
      total += 1.0 / std::pow(static_cast<double>(k + 1), kZipfExponent);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }

  /// Index into the pool built by build_frames: the key by Zipf rank, then
  /// one of the key's forms (named, inline, rescaled inline) with equal
  /// odds, then the explain flag.
  std::size_t next() {
    const double u = rng_.uniform();
    const std::size_t key = std::min<std::size_t>(
        static_cast<std::size_t>(std::lower_bound(cdf_.begin(), cdf_.end(), u) -
                                 cdf_.begin()),
        cdf_.size() - 1);
    const std::size_t forms = 2 + kScaledVariants;
    const std::size_t form = static_cast<std::size_t>(rng_.below(forms));
    const bool explain = rng_.chance(kExplainShare);
    return key * 2 * forms + form * 2 + (explain ? 1 : 0);
  }

 private:
  util::Rng rng_;
  std::vector<double> cdf_;
};

struct Miss {
  Cell cell;
  std::string text;
};

/// Seeded novel requests: the miss cells in turn, each with a memory_gb
/// drawn from its range and never drawn before.
class MissStream {
 public:
  explicit MissStream(std::uint64_t seed) : rng_(seed ^ 0x5eedf00dULL) {}

  Miss next() {
    const std::size_t c = count_ % std::size(kMissCells);
    const MissCell& m = kMissCells[c];
    double memory_gb = 0.0;
    do {
      memory_gb = rng_.uniform(m.low_gb, m.high_gb);
    } while (!used_.insert({c, memory_gb}).second);
    Miss miss;
    miss.cell = Cell{m.network, m.gpus, memory_gb};
    miss.text = request_line("m" + std::to_string(count_), miss.cell, Units{},
                             "", false, true);
    ++count_;
    return miss;
  }

 private:
  util::Rng rng_;
  std::set<std::pair<std::size_t, double>> used_;
  std::size_t count_ = 0;
};

/// The part of a response line that must repeat exactly for one frame:
/// everything but the latency and the ingress-stamped trace id.
std::string invariant_part(const std::string& line) {
  std::string out = line;
  for (const char* field : {"\"trace_id\":", "\"latency_ms\":"}) {
    const std::size_t begin = out.find(field);
    if (begin == std::string::npos) continue;
    std::size_t end = begin + std::strlen(field);
    if (end < out.size() && out[end] == '"') {
      end = out.find('"', end + 1);
      end = end == std::string::npos ? out.size() : end + 1;
    } else {
      while (end < out.size() && out[end] != ',' && out[end] != '}') ++end;
    }
    if (end < out.size() && out[end] == ',') ++end;
    out.erase(begin, end - begin);
  }
  return out;
}

/// What the response to a request must carry: the reference plan of its
/// key rescaled to the request's units, and the request's memory limit.
struct Expected {
  double period = 0.0;
  double phase1_period = 0.0;
  std::string allocation;
  long long stages = 0;
  long long pattern_ops = 0;
  double memory_limit = 0.0;
  const char* cache = "hit";
  bool explain = false;
};

Expected expected_for(const Plan& reference, double time_scale,
                      double memory_limit, const char* cache, bool explain) {
  Expected e;
  e.period = reference.period() * time_scale;
  e.phase1_period = reference.phase1_period * time_scale;
  e.allocation = serve::allocation_fingerprint(reference.allocation);
  e.stages = reference.allocation.partitioning().num_stages();
  e.pattern_ops = static_cast<long long>(reference.pattern.ops.size());
  e.memory_limit = memory_limit;
  e.cache = cache;
  e.explain = explain;
  return e;
}

/// Empty when `line` is the expected response; else the first difference.
std::string check_response(const std::string& line, const Expected& e) {
  const json::ParseResult parsed = json::parse(line);
  if (!parsed.ok()) return "unparsable response";
  const json::Value& r = parsed.value;
  if (r.string_or("status", "") != "ok") {
    return "status " + r.string_or("status", "?") + ": " +
           r.string_or("error", "");
  }
  if (r.string_or("cache", "") != e.cache) {
    return "cache " + r.string_or("cache", "?") + ", expected " + e.cache;
  }
  if (r.bool_or("degraded", true)) return "degraded plan";
  const json::Value* plan = r.find("plan");
  if (plan == nullptr || !plan->is_object()) return "no plan";
  if (plan->number_or("period", -1.0) != e.period) return "period differs";
  if (plan->number_or("phase1_period", -1.0) != e.phase1_period) {
    return "phase-1 period differs";
  }
  if (plan->string_or("allocation", "") != e.allocation) {
    return "allocation differs";
  }
  if (plan->number_or("num_stages", -1.0) != static_cast<double>(e.stages) ||
      plan->number_or("pattern_ops", -1.0) !=
          static_cast<double>(e.pattern_ops)) {
    return "pattern size differs";
  }
  const json::Value* explain = r.find("explain");
  if (e.explain != (explain != nullptr)) return "explain block mismatch";
  if (explain != nullptr) {
    if (explain->number_or("period", -1.0) != e.period) {
      return "explain period differs";
    }
    if (!(explain->number_or("memory_peak_bytes", 1e300) <=
          e.memory_limit * (1.0 + 1e-9))) {
      return "explain memory peak exceeds M";
    }
  }
  return "";
}

/// One client connection of the load generator (non-blocking socket).
struct Conn {
  net::FdGuard fd;
  bool miss = false;
  std::string out;
  std::size_t out_pos = 0;
  std::string in;
  struct Sent {
    std::size_t item = 0;  ///< frame index (hit) or miss index
    Clock::time_point at;
    double cpu = 0.0;  ///< cpu_seconds() at the send
  };
  std::deque<Sent> in_flight;
};

bool flush_out(Conn& conn) {
  while (conn.out_pos < conn.out.size()) {
    const ssize_t n = ::send(conn.fd.get(), conn.out.data() + conn.out_pos,
                             conn.out.size() - conn.out_pos, MSG_NOSIGNAL);
    if (n > 0) {
      conn.out_pos += static_cast<std::size_t>(n);
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      break;
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      return false;
    }
  }
  if (conn.out_pos == conn.out.size()) {
    conn.out.clear();
    conn.out_pos = 0;
  }
  return true;
}

/// The server under test plus its cache warm-up.
struct Server {
  std::unique_ptr<serve::PlanService> service;
  std::unique_ptr<serve::net::NetServer> server;
};

Server start_server(const std::vector<Frame>& frames,
                    const std::vector<std::size_t>& named) {
  Server s;
  serve::ServiceOptions service_options;
  service_options.workers = 1;
  s.service = std::make_unique<serve::PlanService>(service_options);
  serve::net::NetServerOptions server_options;
  server_options.host = "127.0.0.1";
  server_options.port = 0;
  server_options.dispatch_workers = 1;
  s.server = std::make_unique<serve::net::NetServer>(*s.service,
                                                     server_options);
  net::FdGuard fd = net::connect_tcp("127.0.0.1", s.server->port());
  if (!fd.valid()) throw std::runtime_error("cannot connect to the server");
  std::string carry, line;
  for (const std::size_t f : named) {
    line.clear();
    if (!net::write_all(fd.get(), frames[f].text.data(),
                        frames[f].text.size()) ||
        !net::read_line(fd.get(), line, carry) ||
        line.find("\"status\":\"ok\"") == std::string::npos) {
      throw std::runtime_error("cache warm-up failed: " + line);
    }
  }
  return s;
}

struct TcpRun {
  bool transport_ok = true;
  long long mixed_responses = 0;
  double mixed_cpu = 0.0;   ///< process CPU time of the mixed phase
  double mixed_wall = 0.0;  ///< its wall time
  std::vector<double> hit_latency;  ///< wall, send → response
  /// (frame, invariant response) → count, for the hit connections.
  std::unordered_map<std::string, long long> hit_lines;
  std::vector<Miss> misses;
  // Parallel to `misses`; a miss never answered keeps an empty line.
  std::vector<std::string> miss_lines;
  std::vector<double> miss_latency;  ///< wall, send → response
  /// Process CPU time of the round trip, for misses of the miss phase
  /// (nothing else is in flight then); -1 for misses of the mixed phase.
  std::vector<double> miss_cpu;
};

/// The load generator: one thread, four non-blocking connections.
class Client {
 public:
  Client(std::uint16_t port, const std::vector<Frame>& frames,
         std::uint64_t seed)
      : frames_(frames),
        hits_(seed, warm_keys().size()),
        misses_(seed),
        conns_(kHitConnections + 1) {
    for (std::size_t c = 0; c < conns_.size(); ++c) {
      conns_[c].fd = net::connect_tcp("127.0.0.1", port);
      if (!conns_[c].fd.valid() || !net::set_nonblocking(conns_[c].fd.get())) {
        throw std::runtime_error("cannot open a client connection");
      }
      net::set_tcp_nodelay(conns_[c].fd.get());
      conns_[c].miss = c == conns_.size() - 1;
    }
  }

  /// Request n of the seeded sequence is a miss when n + 1 is a multiple of
  /// kRequestsPerMiss. A request waits until its connection has room (the
  /// miss connection holds one request), and the ones after it wait too.
  void mixed_phase(double seconds) {
    std::size_t position = 0;
    const double cpu0 = cpu_seconds();
    const Clock::time_point t0 = Clock::now();
    run_phase(seconds, [&] {
      for (;;) {
        if ((position + 1) % kRequestsPerMiss == 0) {
          if (!miss_conn().in_flight.empty()) return;
          send_miss(false);
        } else {
          Conn* conn = &conns_[0];
          for (int c = 1; c < kHitConnections; ++c) {
            if (conns_[c].in_flight.size() < conn->in_flight.size()) {
              conn = &conns_[c];
            }
          }
          if (conn->in_flight.size() >= kHitWindow) return;
          const std::size_t frame = hits_.next();
          conn->out += frames_[frame].text;
          conn->in_flight.push_back({frame, Clock::now(), 0.0});
        }
        ++position;
      }
    });
    run_.mixed_cpu = cpu_seconds() - cpu0;
    run_.mixed_wall = seconds_since(t0);
    run_.mixed_responses = responses_;
  }

  /// Misses one at a time on the miss connection.
  void miss_phase(double seconds) {
    run_phase(seconds, [&] {
      if (miss_conn().in_flight.empty()) send_miss(true);
    });
  }

  TcpRun take() { return std::move(run_); }

 private:
  Conn& miss_conn() { return conns_.back(); }

  void send_miss(bool timed) {
    const std::size_t item = run_.misses.size();
    run_.misses.push_back(misses_.next());
    run_.miss_lines.emplace_back();
    run_.miss_latency.push_back(0.0);
    run_.miss_cpu.push_back(-1.0);
    miss_conn().out += run_.misses.back().text;
    miss_conn().in_flight.push_back(
        {item, Clock::now(), timed ? cpu_seconds() : -1.0});
  }

  /// Sends through `fill` until `seconds` have passed, then drains.
  template <typename Fill>
  void run_phase(double seconds, Fill&& fill) {
    const Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
    const Clock::time_point give_up = deadline + std::chrono::seconds(60);
    std::vector<pollfd> fds(conns_.size());
    for (;;) {
      const Clock::time_point now = Clock::now();
      if (now < deadline) fill();
      bool pending = false;
      for (const Conn& conn : conns_) pending = pending || !conn.in_flight.empty();
      if (!pending || !run_.transport_ok) return;
      if (now > give_up) {
        run_.transport_ok = false;
        return;
      }
      for (std::size_t c = 0; c < conns_.size(); ++c) {
        if (!flush_out(conns_[c])) run_.transport_ok = false;
        fds[c] = {conns_[c].fd.get(),
                  static_cast<short>(POLLIN |
                                     (conns_[c].out.empty() ? 0 : POLLOUT)),
                  0};
      }
      if (::poll(fds.data(), fds.size(), 100) < 0 && errno != EINTR) {
        run_.transport_ok = false;
      }
      for (std::size_t c = 0; c < conns_.size() && run_.transport_ok; ++c) {
        if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
          receive(conns_[c]);
        }
      }
    }
  }

  void receive(Conn& conn) {
    const ssize_t n = ::recv(conn.fd.get(), buffer_, sizeof(buffer_), 0);
    if (n <= 0) {
      if (n < 0 && (errno == EAGAIN || errno == EINTR)) return;
      run_.transport_ok = false;
      return;
    }
    conn.in.append(buffer_, static_cast<std::size_t>(n));
    std::size_t begin = 0;
    for (std::size_t nl; (nl = conn.in.find('\n', begin)) != std::string::npos;
         begin = nl + 1) {
      if (conn.in_flight.empty()) {
        run_.transport_ok = false;
        break;
      }
      const Conn::Sent sent = conn.in_flight.front();
      conn.in_flight.pop_front();
      const double cpu = sent.cpu >= 0.0 ? cpu_seconds() - sent.cpu : -1.0;
      const double latency = seconds_since(sent.at);
      ++responses_;
      std::string line = conn.in.substr(begin, nl - begin);
      if (conn.miss) {
        run_.miss_lines[sent.item] = std::move(line);
        run_.miss_latency[sent.item] = latency;
        run_.miss_cpu[sent.item] = cpu;
      } else {
        run_.hit_latency.push_back(latency);
        ++run_.hit_lines[std::to_string(sent.item) + "|" +
                         invariant_part(line)];
      }
    }
    conn.in.erase(0, begin);
  }

  const std::vector<Frame>& frames_;
  HitStream hits_;
  MissStream misses_;
  std::vector<Conn> conns_;
  TcpRun run_;
  long long responses_ = 0;
  char buffer_[1 << 16];
};

double parse_phase(const std::string& line, const char* field) {
  const json::ParseResult parsed = json::parse(line);
  if (!parsed.ok()) return 0.0;
  const json::Value* phases = parsed.value.find("phases");
  return phases == nullptr ? 0.0 : phases->number_or(field, 0.0) * 1e-3;
}

}  // namespace

void run_serve_workload(const Args& args, SpanLog& spans, RunResult& result) {
  // Set-up, several times over: generate the frames, start the server and
  // warm its cache over TCP. The last server is the one under test.
  std::vector<double> setup_seconds;
  std::vector<Frame> frames;
  std::vector<std::size_t> named;
  Server server;
  const int setups = args.self_test ? 1 : 5;
  for (int rep = 0; rep < setups; ++rep) {
    server = Server{};
    spans.set_enabled(args.trace && rep == 0);
    util::Rng frame_rng(args.seed);
    const double start = cpu_seconds();
    frames = build_frames(frame_rng, spans, named);
    server = start_server(frames, named);
    setup_seconds.push_back(cpu_seconds() - start);
  }
  spans.set_enabled(false);
  const serve::ServeStats serve_before = server.service->stats();
  const serve::net::NetServerStats net_before = server.server->stats();

  const HostTicks ticks_before = host_ticks();
  Client client(server.server->port(), frames, args.seed);
  client.mixed_phase(kMixedShare * args.seconds);
  client.miss_phase((1.0 - kMixedShare) * args.seconds);
  const TcpRun run = client.take();
  result.metrics["peak_rss_mb"] = peak_rss_mb();
  result.info["host_steal_frac"] = steal_fraction(ticks_before, host_ticks());
  const serve::ServeStats serve_after = server.service->stats();
  const serve::net::NetServerStats net_after = server.server->stats();
  if (!run.transport_ok) {
    ++result.failed;
    std::fprintf(stderr, "FAIL transport error on a client connection\n");
  }

  // Reference plans, computed directly from each key's zoo chain.
  std::vector<Plan> references;
  std::vector<double> ratios;
  for (const Cell& cell : warm_keys()) {
    const Chain chain = cell_chain(cell.network);
    const Platform platform = cell_platform(cell, Units{});
    std::optional<Plan> plan = plan_madpipe(chain, platform);
    if (!plan) throw std::runtime_error("warm key without a plan");
    ++result.attempted;
    const std::string error = check_plan(*plan, chain, platform);
    if (!error.empty()) {
      ++result.failed;
      std::fprintf(stderr, "FAIL %s: %s\n", cell_name(cell).c_str(),
                   error.c_str());
    }
    ratios.push_back(plan->period() / plan->phase1_period);
    references.push_back(std::move(*plan));
  }
  auto frame_expected = [&](std::size_t f) {
    const Frame& frame = frames[f];
    const Cell& cell = warm_keys()[frame.key];
    return expected_for(references[frame.key], frame.units.time_scale(),
                        cell_platform(cell, frame.units).memory_per_processor,
                        "hit", frame.explain);
  };

  // Hit responses: each distinct (frame, response) once.
  for (const auto& [entry, count] : run.hit_lines) {
    result.attempted += count;
    const std::size_t bar = entry.find('|');
    const std::size_t f = std::stoul(entry.substr(0, bar));
    const std::string error =
        check_response(entry.substr(bar + 1), frame_expected(f));
    if (!error.empty()) {
      result.failed += count;
      std::fprintf(stderr, "FAIL hit frame %zu (%lld responses): %s\n", f,
                   count, error.c_str());
    }
  }

  // Miss responses: plan each request directly (kCheckThreads at a time),
  // then compare; the traced run rebuilds the first ones layer by layer.
  // Plan quality is taken over the warm keys and the first kQualityMisses
  // requests of the seeded miss stream, planned here whether or not the run
  // got to send them.
  std::vector<Miss> planned = run.misses;
  MissStream quality_stream(args.seed);
  for (int q = 0; q < kQualityMisses; ++q) {
    Miss miss = quality_stream.next();
    if (static_cast<std::size_t>(q) >= planned.size()) {
      planned.push_back(std::move(miss));
    }
  }
  std::vector<std::optional<Plan>> miss_plans(planned.size());
  {
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kCheckThreads; ++t) {
      threads.emplace_back([&] {
        for (std::size_t i; (i = next.fetch_add(1)) < planned.size();) {
          const Cell& cell = planned[i].cell;
          try {
            miss_plans[i] = plan_madpipe(cell_chain(cell.network),
                                         cell_platform(cell, Units{}));
          } catch (const std::exception&) {
            miss_plans[i].reset();
          }
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  LayerTotals totals;
  spans.set_enabled(args.trace);
  std::vector<double> miss_plan, miss_queue, miss_latency, miss_cpu;
  for (std::size_t i = 0; i < planned.size(); ++i) {
    const bool sent = i < run.misses.size();
    if (sent && run.miss_lines[i].empty()) continue;  // a transport error
    ++result.attempted;
    const Cell& cell = planned[i].cell;
    const Chain chain = cell_chain(cell.network);
    const Platform platform = cell_platform(cell, Units{});
    const std::optional<Plan>& plan = miss_plans[i];
    std::string error;
    if (!plan) {
      error = "no direct plan";
    } else {
      error = check_plan(*plan, chain, platform);
      if (error.empty() && sent) {
        error = check_response(
            run.miss_lines[i],
            expected_for(*plan, 1.0, platform.memory_per_processor, "miss",
                         false));
      }
      if (error.empty() && sent && args.trace && totals.plans < kComposedMisses) {
        error = compose_plan(chain, platform, static_cast<long long>(i), *plan,
                             spans, totals);
      }
      if (i < static_cast<std::size_t>(kQualityMisses)) {
        ratios.push_back(plan->period() / plan->phase1_period);
      }
    }
    if (!error.empty()) {
      ++result.failed;
      std::fprintf(stderr, "FAIL miss %s: %s\n", cell_name(cell).c_str(),
                   error.c_str());
    }
    if (!sent) continue;
    miss_plan.push_back(parse_phase(run.miss_lines[i], "plan_ms"));
    miss_queue.push_back(parse_phase(run.miss_lines[i], "queue_ms"));
    miss_latency.push_back(run.miss_latency[i]);
    if (run.miss_cpu[i] >= 0.0) miss_cpu.push_back(run.miss_cpu[i]);
  }
  spans.set_enabled(false);

  const double hit_p50 = percentile(run.hit_latency, 0.50);
  const double hit_p99 = percentile(run.hit_latency, 0.99);
  const double miss_p50 = median(miss_latency);
  result.info["mixed_responses"] = static_cast<double>(run.mixed_responses);
  result.info["mixed_cpu_per_wall"] =
      run.mixed_wall > 0.0 ? run.mixed_cpu / run.mixed_wall : 0.0;
  result.info["requests_per_wall_s"] =
      run.mixed_wall > 0.0 ? run.mixed_responses / run.mixed_wall : 0.0;
  result.info["hit_samples"] = static_cast<double>(run.hit_latency.size());
  result.info["hit_s_p50"] = hit_p50;
  result.info["hit_s_p99"] = hit_p99;
  result.info["miss_samples"] = static_cast<double>(miss_latency.size());
  result.info["miss_phase_samples"] = static_cast<double>(miss_cpu.size());
  result.info["miss_s_p50"] = miss_p50;
  result.info["setup_samples"] = static_cast<double>(setup_seconds.size());
  result.info["frames"] = static_cast<double>(frames.size());

  if (!args.trace) {
    double miss_cpu_total = 0.0;
    for (const double seconds : miss_cpu) miss_cpu_total += seconds;
    auto& m = result.metrics;
    m["setup_s"] = median(setup_seconds);
    m["plans_per_s"] = static_cast<double>(miss_cpu.size()) / miss_cpu_total;
    m["plan_s_p50"] = median(miss_cpu);
    m["period_ratio_geomean"] = geomean(ratios);
    m["requests_per_s"] =
        static_cast<double>(run.mixed_responses) / run.mixed_cpu;
    return;
  }

  // Traced run, part two: the hit path in process over the same stream.
  // Each frame runs once with the span log off and once on, in an order
  // that alternates from frame to frame; the traced one is then taken apart
  // call by call.
  HitStream stream(args.seed, warm_keys().size());
  const int samples = args.self_test ? 200 : 3000;
  double untraced_total = 0.0, traced_total = 0.0;
  for (int i = 0; i < samples; ++i) {
    const std::size_t f = stream.next();
    const Frame& frame = frames[f];
    const long long op = static_cast<long long>(f);
    const std::string text = frame.text.substr(0, frame.text.size() - 1);
    for (const bool traced : {i % 2 == 1, i % 2 == 0}) {
      spans.set_enabled(traced);
      const Clock::time_point t0 = Clock::now();
      // Shared with the callback: a hit completes inside submit_async, but
      // the storage must outlive a completion that comes later.
      auto response = std::make_shared<std::optional<serve::PlanResponse>>();
      {
        Scoped hit(spans, "serve.inproc_hit", op);
        serve::BatchParse batch;
        {
          Scoped span(spans, "serve.parse_requests", op);
          batch = serve::parse_requests(text);
        }
        if (!batch.ok() || batch.requests.size() != 1 ||
            !batch.requests[0].ok()) {
          throw std::runtime_error("frame failed to parse in process");
        }
        {
          Scoped span(spans, "serve.submit_async", op);
          server.service->submit_async(
              std::move(*batch.requests[0].request),
              [response](serve::PlanResponse&& r) { *response = std::move(r); });
        }
        if (!*response) throw std::runtime_error("hit did not complete inline");
        Scoped span(spans, "serve.response_to_json", op);
        serve::response_to_json(**response);
      }
      (traced ? traced_total : untraced_total) += seconds_since(t0);
      if (!traced) continue;
      ++result.attempted;
      const std::string error = check_response(
          serve::response_to_json(**response), frame_expected(f));
      if (!error.empty()) {
        ++result.failed;
        std::fprintf(stderr, "FAIL in-process frame %zu: %s\n", f,
                     error.c_str());
      }
      const serve::PlanRequest request =
          *serve::parse_requests(text).requests[0].request;
      std::optional<serve::CanonicalRequest> canonical;
      {
        Scoped span(spans, "serve.canonicalize", op);
        canonical = serve::canonicalize(request);
      }
      {
        Scoped span(spans, "serve.cache_find", op);
        server.service->cache().find(*canonical);
      }
      if (!frame.profile_text.empty()) {
        Scoped span(spans, "models.profile_parse", op);
        models::try_profile_from_string(frame.profile_text);
      }
      if (frame.explain && (*response)->plan) {
        Scoped span(spans, "report.build_explain_summary", op);
        report::build_explain_summary(*(*response)->plan, request.chain,
                                      request.platform);
      }
    }
  }
  spans.set_enabled(false);

  report_plan_layers(spans, totals, result);
  auto& m = result.metrics;
  m["models.profile_parse_s"] = spans.mean_seconds("models.profile_parse");
  m["serve.parse_s"] = spans.mean_seconds("serve.parse_requests");
  m["serve.canonicalize_s"] = spans.mean_seconds("serve.canonicalize");
  m["serve.cache_find_s"] = spans.mean_seconds("serve.cache_find");
  m["serve.submit_hit_s"] = spans.mean_seconds("serve.submit_async");
  m["serve.response_json_s"] = spans.mean_seconds("serve.response_to_json");
  m["serve.miss_queue_s"] = mean(miss_queue);
  m["serve.miss_plan_s"] = mean(miss_plan);
  m["serve.hit_s_p50"] = hit_p50;
  m["serve.hit_s_p99"] = hit_p99;
  m["serve.miss_s_p50"] = miss_p50;
  const double requests =
      static_cast<double>(serve_after.requests - serve_before.requests);
  const double frames_in =
      static_cast<double>(net_after.frames - net_before.frames);
  const double responses_out =
      static_cast<double>(net_after.responses - net_before.responses);
  auto share = [](long long count, double base) {
    return base > 0 ? static_cast<double>(count) / base : 0.0;
  };
  m["serve.hit_ratio"] = share(serve_after.hits - serve_before.hits, requests);
  m["serve.coalesced"] =
      share(serve_after.coalesced - serve_before.coalesced, requests);
  m["serve.evictions"] =
      share(serve_after.evictions - serve_before.evictions, requests);
  m["serve.rejected"] =
      share(serve_after.rejected - serve_before.rejected, requests);
  m["net.bytes_in_per_req"] =
      share(net_after.bytes_in - net_before.bytes_in, frames_in);
  m["net.bytes_out_per_req"] =
      share(net_after.bytes_out - net_before.bytes_out, responses_out);
  m["net.protocol_errors"] =
      share(net_after.protocol_errors - net_before.protocol_errors, frames_in);
  m["net.shed"] = share((net_after.shed_rate + net_after.shed_depth) -
                            (net_before.shed_rate + net_before.shed_depth),
                        frames_in);
  m["net.share_s"] = hit_p50 - median(spans.durations("serve.inproc_hit"));
  m["report.explain_s"] = spans.mean_seconds("report.build_explain_summary");
  m["trace_overhead_frac"] =
      untraced_total > 0.0 ? traced_total / untraced_total - 1.0 : 0.0;
}

}  // namespace perfbench
