// Tests of the harness primitives: the arrival schedule, coordinated-
// omission accounting of the open-loop generator, the percentile rule,
// histogram windows between two metric scrapes and span self time.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>

#include "harness.hpp"

using namespace mapsbench;

TEST(Schedule, SameSeedSameSchedule) {
  EXPECT_EQ(poisson_schedule(7, 100.0, 500), poisson_schedule(7, 100.0, 500));
  EXPECT_NE(poisson_schedule(7, 100.0, 500), poisson_schedule(8, 100.0, 500));
}

TEST(Schedule, IncreasingWithTheOfferedMeanRate) {
  const auto s = poisson_schedule(3, 200.0, 20000);
  for (std::size_t i = 1; i < s.size(); ++i) ASSERT_GT(s[i], s[i - 1]);
  const double rate = static_cast<double>(s.size()) / (s.back() / 1000.0);
  EXPECT_NEAR(rate, 200.0, 200.0 * 0.03);
}

TEST(Percentile, InterpolatesBetweenOrderStatistics) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 50.5);
  EXPECT_DOUBLE_EQ(percentile(v, 0.9), 90.1);
  EXPECT_DOUBLE_EQ(percentile({4.0}, 0.5), 4.0);
}

TEST(Percentile, RefusesFewerThanTenSamplesBeyond) {
  std::vector<double> v(99, 1.0);
  EXPECT_THROW(percentile(v, 0.9), std::invalid_argument);  // 9.9 beyond
  v.push_back(1.0);
  EXPECT_NO_THROW(percentile(v, 0.9));  // 10 beyond
  EXPECT_THROW(percentile(std::vector<double>(999, 1.0), 0.99), std::invalid_argument);
  EXPECT_THROW(percentile({}, 0.5), std::invalid_argument);
  EXPECT_DOUBLE_EQ(highest_supported_quantile(1000, 0.99), 0.99);
  EXPECT_DOUBLE_EQ(highest_supported_quantile(200, 0.99), 0.95);
  EXPECT_DOUBLE_EQ(highest_supported_quantile(5, 0.99), 0.5);
}

TEST(ScrapeWindow, MatchesBucketsByBoundWhenTheLaterPageHasMore) {
  // The earlier page stops after its last non-empty bucket; the timed
  // window then adds 3 samples in (0.0014, 0.002] and 7 in (0.002, 0.0028].
  const std::string before =
      "maps_x_bucket{le=\"0.001\"} 0\n"
      "maps_x_bucket{le=\"0.0014\"} 2\n"
      "maps_x_bucket{le=\"+Inf\"} 2\n";
  const std::string after =
      "maps_x_bucket{le=\"0.001\"} 0\n"
      "maps_x_bucket{le=\"0.0014\"} 2\n"
      "maps_x_bucket{le=\"0.002\"} 5\n"
      "maps_x_bucket{le=\"0.0028\"} 12\n"
      "maps_x_bucket{le=\"+Inf\"} 12\n";
  EXPECT_DOUBLE_EQ(window_count(before, after, "maps_x"), 10.0);
  EXPECT_DOUBLE_EQ(window_percentile(before, after, "maps_x", 0.5),
                   0.002 + (0.0028 - 0.002) * (5.0 - 3.0) / (10.0 - 3.0));
  EXPECT_DOUBLE_EQ(window_percentile(before, after, "maps_x", 0.2),
                   0.0014 + (0.002 - 0.0014) * 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(window_percentile(after, after, "maps_x", 0.5), 0.0);
  EXPECT_DOUBLE_EQ(window_percentile("", after, "maps_y", 0.5), 0.0);
}

TEST(Spans, SelfTimeSubtractsChildCoverageOnce) {
  std::vector<Span> spans = {
      {"root", 0.0, 10.0, -1, "a"},
      {"child", 1.0, 4.0, 0, "a"},
      {"child", 3.0, 5.0, 0, "a"},   // overlaps the first child
      {"child", 9.0, 12.0, 0, "a"},  // runs past the parent's end
      {"grandchild", 1.5, 2.0, 1, "a"},
  };
  const auto self = self_times_ms(spans);
  EXPECT_DOUBLE_EQ(self[0], 10.0 - 4.0 - 1.0);
  EXPECT_DOUBLE_EQ(self[1], 3.0 - 0.5);
  EXPECT_DOUBLE_EQ(self[2], 2.0);
  EXPECT_EQ(self_times_of(spans, "child").size(), 3u);
}

namespace {

/// A one-connection HTTP server that answers every request with a fixed
/// 200 reply, except that it stalls for `stall_ms` before reading request
/// number `stall_at`.
class StallServer {
 public:
  StallServer(int stall_at, int stall_ms) : stall_at_(stall_at), stall_ms_(stall_ms) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    ::listen(listen_fd_, 4);
    socklen_t len = sizeof(addr);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this] { serve(); });
  }
  ~StallServer() {
    thread_.join();
    ::close(listen_fd_);
  }
  StallServer(const StallServer&) = delete;
  StallServer& operator=(const StallServer&) = delete;
  int port() const { return port_; }

 private:
  void serve() {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    std::string in;
    char buf[4096];
    int answered = 0;
    const std::string reply = "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok";
    for (;;) {
      std::size_t end;
      while ((end = in.find("\r\n\r\n")) != std::string::npos) {
        in.erase(0, end + 4);
        if (answered == stall_at_) {
          std::this_thread::sleep_for(std::chrono::milliseconds(stall_ms_));
        }
        ::send(fd, reply.data(), reply.size(), MSG_NOSIGNAL);
        ++answered;
      }
      const ssize_t r = ::recv(fd, buf, sizeof(buf), 0);
      if (r <= 0) break;
      in.append(buf, static_cast<std::size_t>(r));
    }
    ::close(fd);
  }

  int stall_at_, stall_ms_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::thread thread_;
};

}  // namespace

TEST(OpenLoop, StallShowsInTheLatencyOfRequestsDueDuringIt) {
  // 40 requests every 10 ms; the server stalls 200 ms before answering
  // request 10 (due at 100 ms). Requests 10..29 fall due during the stall
  // and must be timed from their schedule, not from when they got sent or
  // answered: request i waits about 300 - 10 i ms.
  StallServer server(10, 200);
  std::vector<double> schedule;
  std::vector<std::string> requests;
  for (int i = 0; i < 40; ++i) {
    schedule.push_back(10.0 * i);
    requests.push_back(http_request_bytes("GET", "/x"));
  }
  std::size_t checked = 0;
  const OpenLoopResult r = run_open_loop(server.port(), 1, requests, schedule,
                                         [&](const Reply& reply) {
                                           ++checked;
                                           return reply.body == "ok";
                                         });
  EXPECT_EQ(r.failed, 0u);
  EXPECT_EQ(checked, 40u);
  for (int i = 10; i < 30; ++i) {
    const double due_wait = 300.0 - 10.0 * i;
    EXPECT_GE(r.latency_ms[i], due_wait - 5.0) << "request " << i;
    EXPECT_LT(r.latency_ms[i], due_wait + 60.0) << "request " << i;
  }
  // The generator kept its schedule while the server stalled.
  for (int i = 0; i < 40; ++i) EXPECT_LT(r.lateness_ms[i], 20.0) << "request " << i;
  EXPECT_LT(r.latency_ms[35], 50.0);
}
