// Harness primitives of the MAPS benchmark, independent of the library
// under test: clocks, the percentile rule, histogram windows between two
// Prometheus text scrapes, the seeded open-loop arrival
// schedule, the open-loop HTTP/1.1 load generator, a blocking keep-alive
// client, and harness-side spans with self-time accounting.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace mapsbench {

/// Milliseconds on the steady clock since the first call in this process.
double now_ms();

/// Percentile `q` in (0, 1) of `samples`, linearly interpolated between
/// order statistics. A percentile above the median is refused (throws
/// std::invalid_argument) unless at least 10 samples lie beyond it, i.e.
/// n * (1 - q) >= 10; the median needs one sample.
double percentile(std::vector<double> samples, double q);

/// Highest percentile of `n` samples that `percentile` accepts, capped at
/// `q_max` (e.g. 0.99 with 1000 samples, 0.95 with 200).
double highest_supported_quantile(std::size_t n, double q_max);

/// Samples histogram `family` took between two scrapes of a Prometheus text
/// page (cumulative `<family>_bucket{le="..."}` lines).
double window_count(const std::string& before, const std::string& after,
                    const std::string& family);

/// Percentile `q` of the samples histogram `family` took between two
/// scrapes, interpolated inside the crossing bucket; 0 when the window holds
/// no samples. Buckets are matched by their `le` bound, not their position:
/// a page may stop after its last non-empty bucket, so a bound missing from
/// the earlier page counts that page's +Inf total.
double window_percentile(const std::string& before, const std::string& after,
                         const std::string& family, double q);

/// Seeded Poisson arrival schedule: `count` send times in ms from the start
/// of the run, exponential gaps at `rate_per_s`, conditioned so that the run
/// spans exactly (count + 1) / rate seconds. The same (seed, rate, count)
/// always gives the same schedule, on any platform.
std::vector<double> poisson_schedule(std::uint64_t seed, double rate_per_s,
                                     std::size_t count);

/// Deterministic 64-bit generator (splitmix64) for benchmark inputs.
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, 1) with 53 random bits.
  double uniform();

 private:
  std::uint64_t state_;
};

/// Bytes of one HTTP/1.1 keep-alive request.
std::string http_request_bytes(std::string_view method, std::string_view target,
                               std::string_view body = {});

/// One reply of the open-loop run, handed to the checker.
struct Reply {
  std::size_t index = 0;  // request index in the schedule
  int status = 0;
  std::string_view body;
};

struct OpenLoopResult {
  /// Per request: ms from its scheduled send time to the last reply byte;
  /// negative when the request failed or got no reply.
  std::vector<double> latency_ms;
  /// Per request: ms between its scheduled and actual send time.
  std::vector<double> lateness_ms;
  std::size_t failed = 0;
  /// From the first scheduled send to the last reply byte.
  double wall_ms = 0.0;
};

/// Open-loop load generator: one thread, up to `connections` keep-alive
/// connections to 127.0.0.1:`port`. Request i is sent at start +
/// schedule_ms[i] whatever the state of earlier requests (requests pipeline
/// on the connection with the fewest outstanding replies), so a server stall
/// shows in the latency of every request due during it. `check` sees each
/// reply and returns false to count the request as failed.
OpenLoopResult run_open_loop(int port, int connections,
                             const std::vector<std::string>& requests,
                             const std::vector<double>& schedule_ms,
                             const std::function<bool(const Reply&)>& check,
                             double timeout_ms = 120000.0);

/// Blocking keep-alive HTTP/1.1 client on 127.0.0.1 (set-up, polling,
/// scrapes).
class HttpConn {
 public:
  explicit HttpConn(int port);
  ~HttpConn();
  HttpConn(const HttpConn&) = delete;
  HttpConn& operator=(const HttpConn&) = delete;

  /// Send one request and read its reply; throws std::runtime_error on a
  /// transport failure. Returns the HTTP status.
  int request(std::string_view method, std::string_view target,
              std::string_view body, std::string& reply_body);
  /// Pipelined form: send every request, then read the replies in order.
  std::vector<std::pair<int, std::string>> pipeline(
      const std::vector<std::string>& raw_requests);

 private:
  std::pair<int, std::string> read_reply();
  int fd_ = -1;
  std::string in_;
};

/// One harness span: an interval around a call into a layer.
struct Span {
  std::string name;
  double start_ms = 0.0;
  double end_ms = 0.0;
  int parent = -1;     // index of the enclosing span, -1 for a root
  std::string id;      // request / job / pattern id the span belongs to
};

/// In-memory span store. Disabled recorders cost one branch per span and
/// keep nothing; enabled ones keep every span until write().
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  /// Open a span; returns its index (or -1 when disabled).
  int begin(std::string name, std::string id = {}, int parent = -1);
  void end(int index);
  /// Record a finished interval directly.
  int add(std::string name, double start_ms, double end_ms, std::string id = {},
          int parent = -1);
  const std::vector<Span>& spans() const { return spans_; }
  /// One JSON object per line: name, start_ms, end_ms, parent, id, self_ms.
  void write(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, std::string name, std::string id = {}, int parent = -1)
      : rec_(rec), index_(rec.begin(std::move(name), std::move(id), parent)) {}
  ~ScopedSpan() { rec_.end(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int index() const { return index_; }

 private:
  SpanRecorder& rec_;
  int index_;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children (overlapping children counted once).
std::vector<double> self_times_ms(const std::vector<Span>& spans);

/// Self times of the spans called `name`.
std::vector<double> self_times_of(const std::vector<Span>& spans, const std::string& name);

}  // namespace mapsbench
