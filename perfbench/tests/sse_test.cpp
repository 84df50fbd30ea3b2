#include "driver/sse.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace perfbench {
namespace {

const std::string kHead =
    "HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\nCache-Control: no-cache\r\n"
    "Connection: close\r\n\r\n";

std::string event(const std::string& payload) { return "data: " + payload + "\n\n"; }

std::string token_event(const std::string& escaped_text) {
  return event(
      "{\"object\":\"text_completion.chunk\",\"model\":\"llama3-nano\",\"choices\":"
      "[{\"index\":0,\"text\":\"" +
      escaped_text + "\",\"finish_reason\":null}]}");
}

std::string stream() {
  return kHead + token_event("alpha") + token_event("\\n\\\"q\\\"") + token_event("b") +
         event("{\"object\":\"text_completion.chunk\",\"model\":\"llama3-nano\",\"choices\":"
               "[{\"index\":0,\"text\":\"\",\"finish_reason\":\"length\"}],\"usage\":"
               "{\"prompt_tokens\":224,\"completion_tokens\":3,\"total_tokens\":227}}") +
         event("[DONE]");
}

struct Parsed {
  int status = 0;
  std::vector<std::string> tokens;
  std::size_t prompt_tokens = 0, completion_tokens = 0;
  bool done = false;
  std::size_t invalid = 0;
};

Parsed parse_in_pieces(const std::string& bytes, const std::vector<std::size_t>& cuts) {
  SseReader reader;
  std::vector<std::string> events;
  std::size_t from = 0;
  for (std::size_t cut : cuts) {
    reader.feed(std::string_view(bytes).substr(from, cut - from), events);
    from = cut;
  }
  reader.feed(std::string_view(bytes).substr(from), events);
  Parsed p;
  p.status = reader.status();
  for (const std::string& e : events) {
    const Chunk c = parse_chunk(e);
    switch (c.kind) {
      case Chunk::Kind::kToken: p.tokens.push_back(c.text); break;
      case Chunk::Kind::kFinal:
        p.prompt_tokens = c.prompt_tokens;
        p.completion_tokens = c.completion_tokens;
        break;
      case Chunk::Kind::kDone: p.done = true; break;
      case Chunk::Kind::kInvalid: ++p.invalid; break;
    }
  }
  return p;
}

void expect_full(const Parsed& p) {
  EXPECT_EQ(p.status, 200);
  ASSERT_EQ(p.tokens.size(), 3u);
  EXPECT_EQ(p.tokens[0], "alpha");
  EXPECT_EQ(p.tokens[1], "\n\"q\"");
  EXPECT_EQ(p.tokens[2], "b");
  EXPECT_EQ(p.prompt_tokens, 224u);
  EXPECT_EQ(p.completion_tokens, 3u);
  EXPECT_TRUE(p.done);
  EXPECT_EQ(p.invalid, 0u);
}

TEST(SseReader, WholeStreamAtOnce) { expect_full(parse_in_pieces(stream(), {})); }

TEST(SseReader, EverySingleSplitPoint) {
  const std::string s = stream();
  for (std::size_t cut = 1; cut < s.size(); ++cut) {
    SCOPED_TRACE(cut);
    expect_full(parse_in_pieces(s, {cut}));
  }
}

TEST(SseReader, ByteAtATime) {
  const std::string s = stream();
  std::vector<std::size_t> cuts;
  for (std::size_t i = 1; i < s.size(); ++i) cuts.push_back(i);
  expect_full(parse_in_pieces(s, cuts));
}

TEST(SseReader, PseudoRandomSplits) {
  const std::string s = stream();
  std::uint64_t x = 88172645463325252ULL;
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::size_t> cuts;
    for (std::size_t at = 0;;) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      at += 1 + x % 23;
      if (at >= s.size()) break;
      cuts.push_back(at);
    }
    expect_full(parse_in_pieces(s, cuts));
  }
}

TEST(SseReader, FeedReportsEventsCompletedByThatChunk) {
  SseReader reader;
  std::vector<std::string> events;
  const std::string one = token_event("x");
  EXPECT_EQ(reader.feed(kHead + one.substr(0, 10), events), 0u);
  EXPECT_TRUE(reader.head_done());
  EXPECT_EQ(reader.feed(one.substr(10) + one + one.substr(0, 3), events), 2u);
  EXPECT_EQ(events.size(), 2u);
}

TEST(SseReader, ErrorResponseIsNotAStream) {
  const std::string body = "{\"error\":{\"message\":\"engine queue is full\"}}\n";
  Parsed p = parse_in_pieces(
      "HTTP/1.1 429 Too Many Requests\r\nContent-Type: application/json\r\n\r\n" + body, {20});
  EXPECT_EQ(p.status, 429);
  EXPECT_TRUE(p.tokens.empty());
  EXPECT_FALSE(p.done);
}

TEST(ParseChunk, RejectsMalformedPayloads) {
  EXPECT_EQ(parse_chunk("{").kind, Chunk::Kind::kInvalid);
  EXPECT_EQ(parse_chunk("{\"choices\":[]}").kind, Chunk::Kind::kInvalid);
  EXPECT_EQ(parse_chunk("{\"choices\":[{\"text\":\"a\",\"finish_reason\":\"length\"}]}").kind,
            Chunk::Kind::kInvalid);  // final chunk without usage
}

}  // namespace
}  // namespace perfbench
