// Open-loop HTTP load generator for orinsim_serve.
//
// One thread drives every connection through epoll, so the client adds one
// busy core at most and never parses on a hot path of its own: bytes are
// timestamped as they are read, and SSE events are split off with
// SseReader. Requests are due on a fixed schedule; at most
// `max_connections` are open at once (the server answers one request per
// connection), so a request due while every connection is busy waits for
// the next free one. Latencies are timed from the due time, so that wait
// is charged to the request; the generator's own lateness is measured from
// the moment a request could first have been sent (due, or the connection
// freeing up, whichever is later).
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

// Seconds from `epoch` to `t`.
inline double since(Clock::time_point epoch, Clock::time_point t) {
  return std::chrono::duration<double>(t - epoch).count();
}

struct PlannedRequest {
  double due_s = 0.0;    // relative to the run's epoch
  std::string request;  // full HTTP request bytes
};

// What the client saw of one request. Times are seconds from the epoch;
// negative means "never happened".
struct ClientRecord {
  double due_s = 0.0;
  double ready_s = 0.0;    // max(due, a connection became free)
  double launch_s = -1.0;  // socket opened and connect issued
  double head_s = -1.0;    // response head complete
  double done_s = -1.0;    // connection closed by the server
  std::vector<double> token_s;  // one per token event, in order
  std::string text;             // concatenated token texts
  int status = 0;
  bool final_seen = false;  // usage chunk received
  bool done_seen = false;   // [DONE] received
  std::size_t prompt_tokens = 0;      // usage.prompt_tokens
  std::size_t completion_tokens = 0;  // usage.completion_tokens
  std::string error;                  // socket error or malformed stream
  bool ok() const {
    return error.empty() && status == 200 && final_seen && done_seen;
  }
};

// HTTP bytes for a streaming completion request.
std::string completion_request(const std::string& prompt, std::size_t max_tokens);

// Runs the schedule (due times non-decreasing) against 127.0.0.1:port.
// Returns one record per planned request, in schedule order. Gives up on
// requests still open `deadline_s` after the epoch (recorded as errors).
std::vector<ClientRecord> run_open_loop(std::uint16_t port,
                                        const std::vector<PlannedRequest>& plan,
                                        std::size_t max_connections,
                                        Clock::time_point epoch, double deadline_s);

// Blocking GET; returns the response body ("" on failure).
std::string http_get(std::uint16_t port, const std::string& path);

}  // namespace perfbench
