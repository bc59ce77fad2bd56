#include "harness.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fcntl.h>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace mapsbench {

double now_ms() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                   epoch)
      .count();
}

double percentile(std::vector<double> samples, double q) {
  if (!(q > 0.0 && q < 1.0)) throw std::invalid_argument("percentile: q outside (0, 1)");
  const std::size_t n = samples.size();
  if (n == 0) throw std::invalid_argument("percentile: no samples");
  if (q > 0.5 && static_cast<double>(n) * (1.0 - q) < 10.0 - 1e-9) {
    throw std::invalid_argument("percentile: p" + std::to_string(q * 100.0) + " of " +
                                std::to_string(n) +
                                " samples has fewer than 10 samples beyond it");
  }
  std::sort(samples.begin(), samples.end());
  const double h = static_cast<double>(n - 1) * q;
  const auto lo = static_cast<std::size_t>(std::floor(h));
  if (lo + 1 >= n) return samples[n - 1];
  return samples[lo] + (h - static_cast<double>(lo)) * (samples[lo + 1] - samples[lo]);
}

double highest_supported_quantile(std::size_t n, double q_max) {
  if (n == 0) return 0.5;
  const double q = std::min(q_max, 1.0 - 10.0 / static_cast<double>(n));
  return q < 0.5 ? 0.5 : q;
}

namespace {

/// Cumulative (upper bound, count) buckets of histogram `family` in a
/// Prometheus text page, +Inf last; empty when the family is absent.
std::vector<std::pair<double, double>> prometheus_buckets(const std::string& page,
                                                          const std::string& family) {
  std::vector<std::pair<double, double>> out;
  const std::string prefix = family + "_bucket{le=\"";
  std::istringstream in(page);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) != 0) continue;
    const std::size_t q = line.find('"', prefix.size());
    const std::string le = line.substr(prefix.size(), q - prefix.size());
    const double bound = le == "+Inf" ? INFINITY : std::atof(le.c_str());
    out.emplace_back(bound, std::atof(line.c_str() + line.find("} ") + 2));
  }
  return out;
}

/// Samples at or below `bound` in `buckets`: its own line, or the +Inf
/// total when the page left the bucket out.
double cumulative_at(const std::vector<std::pair<double, double>>& buckets, double bound) {
  for (const auto& [le, count] : buckets) {
    if (le == bound) return count;
  }
  return buckets.empty() ? 0.0 : buckets.back().second;
}

}  // namespace

double window_count(const std::string& before, const std::string& after,
                    const std::string& family) {
  return cumulative_at(prometheus_buckets(after, family), INFINITY) -
         cumulative_at(prometheus_buckets(before, family), INFINITY);
}

double window_percentile(const std::string& before, const std::string& after,
                         const std::string& family, double q) {
  const auto b = prometheus_buckets(before, family);
  const auto a = prometheus_buckets(after, family);
  if (a.empty()) return 0.0;
  auto count_at = [&](std::size_t i) { return a[i].second - cumulative_at(b, a[i].first); };
  const double total = count_at(a.size() - 1);
  if (total <= 0) return 0.0;
  const double rank = q * total;
  double prev_bound = 0.0, prev_count = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double c = count_at(i);
    if (c >= rank && c > prev_count) {
      if (std::isinf(a[i].first)) return prev_bound;
      return prev_bound + (a[i].first - prev_bound) * (rank - prev_count) / (c - prev_count);
    }
    prev_bound = a[i].first;
    prev_count = c;
  }
  return prev_bound;
}

std::uint64_t SplitMix::next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double SplitMix::uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

std::vector<double> poisson_schedule(std::uint64_t seed, double rate_per_s,
                                     std::size_t count) {
  if (!(rate_per_s > 0.0)) throw std::invalid_argument("poisson_schedule: rate <= 0");
  // count + 1 exponential gaps, scaled so the whole gap sum spans
  // (count + 1) / rate: the Poisson process conditioned on its length, so
  // every seed offers the same mean rate over the run.
  SplitMix rng(seed ^ 0x5DEECE66Dull);
  std::vector<double> out;
  out.reserve(count);
  double t = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    t += -std::log1p(-rng.uniform());
    out.push_back(t);
  }
  const double total = t - std::log1p(-rng.uniform());
  const double scale = static_cast<double>(count + 1) * 1000.0 / rate_per_s / total;
  for (double& x : out) x *= scale;
  return out;
}

std::string http_request_bytes(std::string_view method, std::string_view target,
                               std::string_view body) {
  std::string out;
  out.reserve(body.size() + 128);
  out.append(method).append(" ").append(target).append(" HTTP/1.1\r\nHost: 127.0.0.1\r\n");
  if (!body.empty() || method == "POST") {
    out.append("Content-Type: application/json\r\nContent-Length: ")
        .append(std::to_string(body.size()))
        .append("\r\n");
  }
  out.append("\r\n").append(body);
  return out;
}

namespace {

int connect_loopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    throw std::runtime_error("connect to 127.0.0.1:" + std::to_string(port) + " failed");
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  // Room for a whole 64x64 field reply (~170 KB), so the server never waits
  // on the client to drain its socket before it can write the next reply.
  int bytes = 1 << 20;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &bytes, sizeof(bytes));
  return fd;
}

bool iequals_prefix(std::string_view line, std::string_view name) {
  if (line.size() < name.size()) return false;
  for (std::size_t i = 0; i < name.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(line[i])) !=
        std::tolower(static_cast<unsigned char>(name[i]))) {
      return false;
    }
  }
  return true;
}

/// Parse one complete reply at the front of `in`. Returns false when more
/// bytes are needed; throws on a malformed head.
bool parse_reply(std::string_view in, int& status, std::size_t& body_off,
                 std::size_t& body_len) {
  const std::size_t head_end = in.find("\r\n\r\n");
  if (head_end == std::string_view::npos) return false;
  const std::string_view head = in.substr(0, head_end);
  if (head.size() < 12 || head.substr(0, 5) != "HTTP/") {
    throw std::runtime_error("malformed HTTP reply head");
  }
  status = std::atoi(std::string(head.substr(9, 3)).c_str());
  std::size_t content_length = std::string::npos;
  std::size_t pos = head.find("\r\n");
  while (pos != std::string_view::npos && pos < head.size()) {
    const std::size_t next = head.find("\r\n", pos + 2);
    const std::string_view line =
        head.substr(pos + 2, (next == std::string_view::npos ? head.size() : next) - pos - 2);
    if (iequals_prefix(line, "content-length:")) {
      content_length = static_cast<std::size_t>(
          std::strtoull(std::string(line.substr(15)).c_str(), nullptr, 10));
    }
    pos = next;
  }
  if (content_length == std::string::npos) {
    throw std::runtime_error("HTTP reply without Content-Length");
  }
  if (in.size() < head_end + 4 + content_length) return false;
  body_off = head_end + 4;
  body_len = content_length;
  return true;
}

struct Conn {
  int fd = -1;
  bool alive = true;
  std::string out;
  std::size_t out_off = 0;
  std::deque<std::size_t> inflight;
  std::string in;
};

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/// Write what the socket accepts; false when the peer is gone.
bool flush(Conn& c) {
  while (c.out_off < c.out.size()) {
    const ssize_t n = ::send(c.fd, c.out.data() + c.out_off, c.out.size() - c.out_off,
                             MSG_NOSIGNAL);
    if (n > 0) {
      c.out_off += static_cast<std::size_t>(n);
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return true;
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      return false;
    }
  }
  c.out.clear();
  c.out_off = 0;
  return true;
}

}  // namespace

OpenLoopResult run_open_loop(int port, int connections,
                             const std::vector<std::string>& requests,
                             const std::vector<double>& schedule_ms,
                             const std::function<bool(const Reply&)>& check,
                             double timeout_ms) {
  if (requests.size() != schedule_ms.size()) {
    throw std::invalid_argument("run_open_loop: requests/schedule size mismatch");
  }
  const std::size_t n = requests.size();
  OpenLoopResult res;
  res.latency_ms.assign(n, -1.0);
  res.lateness_ms.assign(n, 0.0);
  std::vector<Conn> conns(static_cast<std::size_t>(std::max(1, connections)));
  for (Conn& c : conns) {
    c.fd = connect_loopback(port);
    set_nonblocking(c.fd);
  }

  auto fail_conn = [&](Conn& c) {
    if (!c.alive) return;
    c.alive = false;
    res.failed += c.inflight.size();
    c.inflight.clear();
  };

  const double start = now_ms();
  const double give_up = start + (n ? schedule_ms.back() : 0.0) + timeout_ms;
  double last_done = start;
  std::size_t next = 0, finished = 0;
  std::vector<pollfd> pfds(conns.size());
  char buf[1 << 16];

  while (finished + res.failed < n) {
    double t = now_ms();
    while (next < n && start + schedule_ms[next] <= t) {
      Conn* best = nullptr;
      for (Conn& c : conns) {
        if (c.alive && (best == nullptr || c.inflight.size() < best->inflight.size())) {
          best = &c;
        }
      }
      if (best == nullptr) {
        res.failed += n - next;
        next = n;
        break;
      }
      res.lateness_ms[next] = t - (start + schedule_ms[next]);
      best->out.append(requests[next]);
      best->inflight.push_back(next);
      if (!flush(*best)) fail_conn(*best);
      ++next;
      t = now_ms();
    }
    if (finished + res.failed >= n) break;
    if (t > give_up) {
      for (Conn& c : conns) fail_conn(c);
      res.failed += n - next;
      next = n;
      break;
    }

    for (std::size_t i = 0; i < conns.size(); ++i) {
      pfds[i].fd = conns[i].alive ? conns[i].fd : -1;
      pfds[i].events =
          static_cast<short>(POLLIN | (conns[i].out.empty() ? 0 : POLLOUT));
      pfds[i].revents = 0;
    }
    double wait_ms = next < n ? start + schedule_ms[next] - now_ms() : 50.0;
    wait_ms = std::clamp(wait_ms, 0.0, 50.0);
    timespec ts{};
    ts.tv_sec = static_cast<time_t>(wait_ms / 1000.0);
    ts.tv_nsec = static_cast<long>((wait_ms - ts.tv_sec * 1000.0) * 1e6);
    const int ready = ::ppoll(pfds.data(), pfds.size(), &ts, nullptr);
    if (ready <= 0) continue;

    for (std::size_t i = 0; i < conns.size(); ++i) {
      Conn& c = conns[i];
      if (!c.alive || pfds[i].revents == 0) continue;
      if ((pfds[i].revents & POLLOUT) && !flush(c)) {
        fail_conn(c);
        continue;
      }
      if (!(pfds[i].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      bool closed = false;
      for (;;) {
        const ssize_t r = ::recv(c.fd, buf, sizeof(buf), 0);
        if (r > 0) {
          c.in.append(buf, static_cast<std::size_t>(r));
          continue;
        }
        if (r < 0 && errno == EINTR) continue;
        if (r == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) closed = true;
        break;
      }
      const double done = now_ms();
      std::size_t consumed = 0;
      try {
        for (;;) {
          int status = 0;
          std::size_t body_off = 0, body_len = 0;
          const std::string_view view = std::string_view(c.in).substr(consumed);
          if (c.inflight.empty() || !parse_reply(view, status, body_off, body_len)) break;
          const std::size_t idx = c.inflight.front();
          c.inflight.pop_front();
          const Reply reply{idx, status, view.substr(body_off, body_len)};
          bool ok = false;
          try {
            ok = status == 200 && check(reply);
          } catch (const std::exception&) {
            ok = false;  // a reply the checker cannot read is a failed request
          }
          if (ok) {
            res.latency_ms[idx] = done - (start + schedule_ms[idx]);
            ++finished;
          } else {
            ++res.failed;
          }
          last_done = done;
          consumed += body_off + body_len;
        }
      } catch (const std::exception&) {
        closed = true;
      }
      c.in.erase(0, consumed);
      if (closed) fail_conn(c);
    }
  }
  for (Conn& c : conns) ::close(c.fd);
  res.wall_ms = last_done - start;
  return res;
}

HttpConn::HttpConn(int port) : fd_(connect_loopback(port)) {}

HttpConn::~HttpConn() {
  if (fd_ >= 0) ::close(fd_);
}

std::pair<int, std::string> HttpConn::read_reply() {
  char buf[1 << 16];
  for (;;) {
    int status = 0;
    std::size_t off = 0, len = 0;
    if (parse_reply(in_, status, off, len)) {
      std::string body = in_.substr(off, len);
      in_.erase(0, off + len);
      return {status, std::move(body)};
    }
    const ssize_t r = ::recv(fd_, buf, sizeof(buf), 0);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) throw std::runtime_error("HttpConn: connection closed mid-reply");
    in_.append(buf, static_cast<std::size_t>(r));
  }
}

int HttpConn::request(std::string_view method, std::string_view target,
                      std::string_view body, std::string& reply_body) {
  auto replies = pipeline({http_request_bytes(method, target, body)});
  reply_body = std::move(replies[0].second);
  return replies[0].first;
}

std::vector<std::pair<int, std::string>> HttpConn::pipeline(
    const std::vector<std::string>& raw_requests) {
  for (const std::string& raw : raw_requests) {
    std::size_t off = 0;
    while (off < raw.size()) {
      const ssize_t n = ::send(fd_, raw.data() + off, raw.size() - off, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) throw std::runtime_error("HttpConn: send failed");
      off += static_cast<std::size_t>(n);
    }
  }
  std::vector<std::pair<int, std::string>> out;
  out.reserve(raw_requests.size());
  for (std::size_t i = 0; i < raw_requests.size(); ++i) out.push_back(read_reply());
  return out;
}

int SpanRecorder::begin(std::string name, std::string id, int parent) {
  if (!enabled_) return -1;
  const double t = now_ms();
  spans_.push_back(Span{std::move(name), t, t, parent, std::move(id)});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanRecorder::end(int index) {
  if (index >= 0) spans_[static_cast<std::size_t>(index)].end_ms = now_ms();
}

int SpanRecorder::add(std::string name, double start_ms, double end_ms, std::string id,
                      int parent) {
  if (!enabled_) return -1;
  spans_.push_back(Span{std::move(name), start_ms, end_ms, parent, std::move(id)});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanRecorder::write(const std::string& path) const {
  std::ofstream os(path);
  const std::vector<double> self = self_times_ms(spans_);
  char num[64];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << "{\"name\":\"" << s.name << "\",\"id\":\"" << s.id << "\"";
    std::snprintf(num, sizeof(num), ",\"start_ms\":%.6f", s.start_ms);
    os << num;
    std::snprintf(num, sizeof(num), ",\"end_ms\":%.6f", s.end_ms);
    os << num << ",\"parent\":" << s.parent;
    std::snprintf(num, sizeof(num), ",\"self_ms\":%.6f}\n", self[i]);
    os << num;
  }
}

std::vector<double> self_times_ms(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && static_cast<std::size_t>(s.parent) < spans.size()) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ms, s.end_ms);
    }
  }
  std::vector<double> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double lo = spans[i].start_ms, hi = spans[i].end_ms;
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0, cur_lo = 0.0, cur_hi = -1.0;
    bool open = false;
    for (auto [a, b] : iv) {
      a = std::max(a, lo);
      b = std::min(b, hi);
      if (b <= a) continue;
      if (open && a <= cur_hi) {
        cur_hi = std::max(cur_hi, b);
      } else {
        if (open) covered += cur_hi - cur_lo;
        cur_lo = a;
        cur_hi = b;
        open = true;
      }
    }
    if (open) covered += cur_hi - cur_lo;
    out[i] = (hi - lo) - covered;
  }
  return out;
}

std::vector<double> self_times_of(const std::vector<Span>& spans, const std::string& name) {
  const std::vector<double> self = self_times_ms(spans);
  std::vector<double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name == name) out.push_back(self[i]);
  }
  return out;
}

}  // namespace mapsbench
