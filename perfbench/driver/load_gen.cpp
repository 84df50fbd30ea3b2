#include "driver/load_gen.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <deque>
#include <limits>

#include "driver/sse.h"
#include "server/json.h"

namespace perfbench {

namespace {

constexpr std::uint64_t kTimerTag = std::numeric_limits<std::uint64_t>::max();

sockaddr_in loopback(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return addr;
}

struct Connection {
  int fd = -1;
  std::size_t index = 0;  // request being served
  std::size_t written = 0;
  SseReader reader;
};

// Owns the epoll and timer descriptors for one run.
class Poller {
 public:
  Poller()
      : epoll_(::epoll_create1(EPOLL_CLOEXEC)),
        timer_(::timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC)) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kTimerTag;
    ::epoll_ctl(epoll_, EPOLL_CTL_ADD, timer_, &ev);
  }
  ~Poller() {
    ::close(timer_);
    ::close(epoll_);
  }
  Poller(const Poller&) = delete;
  Poller& operator=(const Poller&) = delete;

  bool valid() const { return epoll_ >= 0 && timer_ >= 0; }

  void watch(int fd, std::uint64_t tag, std::uint32_t events, bool add) {
    epoll_event ev{};
    ev.events = events;
    ev.data.u64 = tag;
    ::epoll_ctl(epoll_, add ? EPOLL_CTL_ADD : EPOLL_CTL_MOD, fd, &ev);
  }

  // Fires at the absolute steady-clock instant `at`; disarms when `arm` is false.
  void arm(bool arm, Clock::time_point at) {
    itimerspec spec{};
    if (arm) {
      const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          at.time_since_epoch())
                          .count();
      // steady_clock is CLOCK_MONOTONIC on Linux; 0 would disarm, so clamp.
      const long long v = std::max<long long>(ns, 1);
      spec.it_value.tv_sec = static_cast<time_t>(v / 1000000000LL);
      spec.it_value.tv_nsec = static_cast<long>(v % 1000000000LL);
    }
    ::timerfd_settime(timer_, TFD_TIMER_ABSTIME, &spec, nullptr);
  }

  void drain_timer() {
    std::uint64_t expirations = 0;
    [[maybe_unused]] const ssize_t n = ::read(timer_, &expirations, sizeof(expirations));
  }

  int wait(epoll_event* events, int max_events, int timeout_ms) {
    return ::epoll_wait(epoll_, events, max_events, timeout_ms);
  }

 private:
  int epoll_ = -1;
  int timer_ = -1;
};

}  // namespace

std::string completion_request(const std::string& prompt, std::size_t max_tokens) {
  const std::string body = "{\"prompt\":" + orinsim::server::json_string(prompt) +
                           ",\"max_tokens\":" + std::to_string(max_tokens) +
                           ",\"stream\":true}";
  return "POST /v1/completions HTTP/1.1\r\nHost: 127.0.0.1\r\n"
         "Content-Type: application/json\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

std::vector<ClientRecord> run_open_loop(std::uint16_t port,
                                        const std::vector<PlannedRequest>& plan,
                                        std::size_t max_connections,
                                        Clock::time_point epoch, double deadline_s) {
  std::vector<ClientRecord> records(plan.size());
  for (std::size_t i = 0; i < plan.size(); ++i) records[i].due_s = plan[i].due_s;
  Poller poller;
  if (!poller.valid() || max_connections == 0) {
    for (ClientRecord& r : records) r.error = "load generator could not start";
    return records;
  }

  std::vector<Connection> slots(max_connections);
  // Free slots in the order they freed up, with the instant they did: the
  // front one has been free longest, so it is the one a waiting request
  // could have used first.
  std::deque<std::pair<std::size_t, double>> free_slots;
  for (std::size_t s = 0; s < max_connections; ++s) free_slots.emplace_back(s, 0.0);

  const sockaddr_in addr = loopback(port);
  std::size_t next = 0;
  std::size_t finished = 0;
  std::vector<std::string> events;
  char buf[65536];

  auto now_s = [&] { return since(epoch, Clock::now()); };

  auto close_slot = [&](std::size_t s, double t) {
    Connection& c = slots[s];
    ::close(c.fd);
    c.fd = -1;
    records[c.index].done_s = t;
    free_slots.emplace_back(s, t);
    ++finished;
  };

  auto try_write = [&](std::size_t s) {
    Connection& c = slots[s];
    const std::string& req = plan[c.index].request;
    while (c.written < req.size()) {
      const ssize_t n = ::send(c.fd, req.data() + c.written, req.size() - c.written,
                               MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        if (errno == EINTR) continue;
        records[c.index].error = std::string("send: ") + std::strerror(errno);
        close_slot(s, now_s());
        return;
      }
      c.written += static_cast<std::size_t>(n);
    }
    poller.watch(c.fd, s, EPOLLIN | EPOLLRDHUP, false);
  };

  auto launch = [&](std::size_t index) {
    const auto [s, free_since] = free_slots.front();
    free_slots.pop_front();
    ClientRecord& rec = records[index];
    rec.ready_s = std::max(rec.due_s, free_since);
    rec.launch_s = now_s();
    Connection& c = slots[s];
    c = Connection{};
    c.index = index;
    c.fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (c.fd < 0) {
      rec.error = std::string("socket: ") + std::strerror(errno);
      free_slots.emplace_front(s, free_since);
      ++finished;
      return;
    }
    const int rc = ::connect(c.fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
    if (rc != 0 && errno != EINPROGRESS) {
      rec.error = std::string("connect: ") + std::strerror(errno);
      close_slot(s, now_s());
      return;
    }
    poller.watch(c.fd, s, EPOLLOUT | EPOLLIN | EPOLLRDHUP, true);
    if (rc == 0) try_write(s);
  };

  auto read_slot = [&](std::size_t s) {
    Connection& c = slots[s];
    ClientRecord& rec = records[c.index];
    while (c.fd >= 0) {
      const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
      const double t = now_s();
      if (n > 0) {
        events.clear();
        c.reader.feed(std::string_view(buf, static_cast<std::size_t>(n)), events);
        if (c.reader.head_done() && rec.head_s < 0.0) {
          rec.head_s = t;
          rec.status = c.reader.status();
        }
        for (const std::string& payload : events) {
          const Chunk chunk = parse_chunk(payload);
          switch (chunk.kind) {
            case Chunk::Kind::kToken:
              rec.token_s.push_back(t);
              rec.text += chunk.text;
              break;
            case Chunk::Kind::kFinal:
              rec.final_seen = true;
              rec.prompt_tokens = chunk.prompt_tokens;
              rec.completion_tokens = chunk.completion_tokens;
              break;
            case Chunk::Kind::kDone:
              rec.done_seen = true;
              break;
            case Chunk::Kind::kInvalid:
              if (rec.error.empty()) rec.error = "malformed SSE event";
              break;
          }
        }
        continue;
      }
      if (n == 0) {
        close_slot(s, t);
        return;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      rec.error = std::string("recv: ") + std::strerror(errno);
      close_slot(s, t);
      return;
    }
  };

  epoll_event ready[64];
  while (finished < plan.size()) {
    const double now = now_s();
    if (now > deadline_s) break;
    while (next < plan.size() && plan[next].due_s <= now && !free_slots.empty()) {
      launch(next++);
    }
    const bool waiting_on_due = next < plan.size() && !free_slots.empty();
    poller.arm(waiting_on_due,
               epoch + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(
                               waiting_on_due ? plan[next].due_s : 0.0)));
    const int timeout_ms =
        static_cast<int>(std::clamp((deadline_s - now) * 1e3 + 1.0, 1.0, 1000.0));
    const int n = poller.wait(ready, 64, timeout_ms);
    for (int e = 0; e < n; ++e) {
      if (ready[e].data.u64 == kTimerTag) {
        poller.drain_timer();
        continue;
      }
      const auto s = static_cast<std::size_t>(ready[e].data.u64);
      Connection& c = slots[s];
      if (c.fd < 0) continue;
      if ((ready[e].events & EPOLLOUT) && c.written < plan[c.index].request.size()) {
        int err = 0;
        socklen_t len = sizeof(err);
        ::getsockopt(c.fd, SOL_SOCKET, SO_ERROR, &err, &len);
        if (err != 0) {
          records[c.index].error = std::string("connect: ") + std::strerror(err);
          close_slot(s, now_s());
          continue;
        }
        try_write(s);
      }
      if (c.fd >= 0 && (ready[e].events & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR))) {
        read_slot(s);
      }
    }
  }

  // Past the deadline: whatever is still open or unsent failed.
  for (Connection& c : slots) {
    if (c.fd < 0) continue;
    records[c.index].error = "timed out";
    ::close(c.fd);
    c.fd = -1;
  }
  for (; next < plan.size(); ++next) records[next].error = "never sent (deadline)";
  return records;
}

std::string http_get(std::uint16_t port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return "";
  const sockaddr_in addr = loopback(port);
  std::string response;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) == 0) {
    const std::string req = "GET " + path + " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";
    if (::send(fd, req.data(), req.size(), MSG_NOSIGNAL) == static_cast<ssize_t>(req.size())) {
      char buf[8192];
      ssize_t n = 0;
      while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
        response.append(buf, static_cast<std::size_t>(n));
      }
    }
  }
  ::close(fd);
  const std::size_t body = response.find("\r\n\r\n");
  return body == std::string::npos ? "" : response.substr(body + 4);
}

}  // namespace perfbench
