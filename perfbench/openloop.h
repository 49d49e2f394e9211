// Open-loop request lanes and a minimal loopback HTTP/1.1 client.
//
// A lane is one sender: it walks its requests in due-time order and sends
// each one when it falls due, whether or not the server kept up. The clock
// of every request starts at its due time, never at the previous reply, so
// a server stall is charged to every request that was due during it
// (no coordinated omission). A 429 or 503 is retried after a pause that
// doubles per refusal; the request keeps its original due time until a
// retry succeeds, and each pause is recorded so the traced run can charge
// it to the client rather than to the server.
#pragma once

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "stats.h"

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// What happened to one request.
struct Outcome {
  std::int64_t due = 0;   ///< when the schedule said to send it
  std::int64_t send = 0;  ///< first send attempt
  std::int64_t done = 0;  ///< final reply received
  std::int64_t late = 0;  ///< sender's own lateness: send - max(due, free)
  int status = 0;         ///< final HTTP status (0 = transport failure)
  int retries = 0;        ///< 429/503 answers before the final one
  int refusals_429 = 0;
  int refusals_503 = 0;   ///< 503s and connection resets
  bool sent = false;      ///< false when the run ended before it was due
  std::vector<Interval> backoff;  ///< pauses between refused attempts
};

/// Pause before the first retry of a refused request; it doubles with each
/// further refusal of the same request, up to kMaxRetryPauseNs, so a
/// contended tenant is not hammered by retries.
inline constexpr std::int64_t kRetryPauseNs = 200'000;
inline constexpr std::int64_t kMaxRetryPauseNs = 6'400'000;
/// A refused request gives up after this many retries (counted as failed).
inline constexpr int kMaxRetries = 2000;

/// Drive one lane. `due[i]` is request i's due time on the `now()` clock,
/// or -1 for "as soon as the lane is free" (closed-loop, back-to-back).
/// `send(i)` performs request i and returns its HTTP status. Requests due
/// at or after `stop_at` are not sent. `sleep_until(t)` waits for the
/// clock; tests pass a virtual clock to check the accounting.
template <class Now, class SleepUntil, class Send>
void run_lane(const std::vector<std::int64_t>& due, std::int64_t stop_at,
              Now now, SleepUntil sleep_until, Send send,
              std::vector<Outcome>& out) {
  out.assign(due.size(), Outcome{});
  std::int64_t free_at = now();
  for (std::size_t i = 0; i < due.size(); ++i) {
    Outcome& o = out[i];
    const std::int64_t t_free = now();
    o.due = due[i] < 0 ? t_free : due[i];
    if (o.due >= stop_at || t_free >= stop_at) break;
    if (o.due > t_free) sleep_until(o.due);
    o.send = now();
    o.late = o.send - std::max(o.due, free_at);
    o.sent = true;
    for (;;) {
      o.status = send(i);
      // 0: the connection was reset before a reply; the server's load shed
      // (503 from the accept thread) closes with the request unread, which
      // can reset the connection first, so it is retried like a 503.
      if ((o.status != 429 && o.status != 503 && o.status != 0) ||
          o.retries >= kMaxRetries) {
        break;
      }
      const std::int64_t pause =
          std::min(kMaxRetryPauseNs, kRetryPauseNs << std::min(o.retries, 5));
      ++o.retries;
      (o.status == 429 ? o.refusals_429 : o.refusals_503)++;
      const std::int64_t p0 = now();
      sleep_until(p0 + pause);
      o.backoff.push_back({p0, now()});
    }
    o.done = now();
    free_at = o.done;
  }
}

/// Wall-clock sleep for run_lane: sleep coarsely, then spin the last
/// stretch so due times are met to within a few microseconds.
inline void sleep_until_ns(std::int64_t t) {
  for (;;) {
    const std::int64_t left = t - now_ns();
    if (left <= 0) return;
    if (left > 80'000) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(left - 60'000));
    } else {
      std::this_thread::yield();
    }
  }
}

/// One request over a fresh loopback connection (the server answers
/// "Connection: close"). Returns the status code (0 on a transport error)
/// and stores the body in *body when non-null.
inline int http_request(int port, const std::string& wire,
                        std::string* body = nullptr) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return 0;
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return 0;
  }
  std::size_t sent = 0;
  while (sent < wire.size()) {
    const ssize_t n =
        ::send(fd, wire.data() + sent, wire.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      ::close(fd);
      return 0;
    }
    sent += static_cast<std::size_t>(n);
  }
  std::string resp;
  char buf[16384];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    resp.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  if (resp.size() < 12 || resp.compare(0, 5, "HTTP/") != 0) return 0;
  const int status = std::atoi(resp.c_str() + 9);
  if (body != nullptr) {
    const std::size_t head_end = resp.find("\r\n\r\n");
    *body = head_end == std::string::npos ? std::string()
                                          : resp.substr(head_end + 4);
  }
  return status;
}

inline std::string wire_post(const std::string& path, const std::string& body) {
  return "POST " + path + " HTTP/1.1\r\nHost: b\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

inline std::string wire_get(const std::string& path) {
  return "GET " + path + " HTTP/1.1\r\nHost: b\r\n\r\n";
}

}  // namespace perfbench
