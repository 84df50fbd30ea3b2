// Incremental reader for one orinsim_serve completion response.
//
// The daemon answers with an HTTP/1.1 head, then (for 200) a stream of
// Server-Sent Events "data: <payload>\n\n", then closes the connection.
// Bytes arrive off the socket split at arbitrary points; feed() buffers
// partial lines and reports how many events completed in this chunk, so
// the caller can stamp each event with the time of the read that finished
// it.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

class SseReader {
 public:
  // Consumes the next chunk. Completed event payloads (without "data: ")
  // are appended to `events`; returns how many were appended.
  std::size_t feed(std::string_view bytes, std::vector<std::string>& events);

  bool head_done() const noexcept { return head_done_; }
  // HTTP status from the response line (0 until the head is complete or
  // when the line is malformed). A non-200 body is not an event stream and
  // yields no events.
  int status() const noexcept { return status_; }

 private:
  std::string buffer_;
  bool head_done_ = false;
  int status_ = 0;
};

// One parsed completion chunk.
struct Chunk {
  enum class Kind { kToken, kFinal, kDone, kInvalid };
  Kind kind = Kind::kInvalid;
  std::string text;  // kToken: the token's surface text
  std::size_t prompt_tokens = 0;      // kFinal: usage
  std::size_t completion_tokens = 0;  // kFinal: usage
};

Chunk parse_chunk(const std::string& payload);

}  // namespace perfbench
