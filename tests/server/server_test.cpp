// End-to-end tests for the orinsim_serve HTTP daemon: real sockets against
// a Server bound to an ephemeral port, driving the functional nano engine.
//
// The load-bearing pin: at temperature 0 the concatenation of the SSE token
// stream must be bit-identical to the offline engine's output for the same
// prompt and seed — with the prefix cache off and on.
#include "server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "model/config.h"
#include "model/transformer.h"
#include "server/engine_host.h"
#include "server/json.h"
#include "serving/engine.h"
#include "tokenizer/tokenizer.h"
#include "workload/corpus.h"

namespace orinsim::server {
namespace {

// ---------------------------------------------------------------------------
// Raw-socket client helpers. The tests deliberately avoid reusing the
// daemon's own HTTP code on the client side beyond response-body parsing.

int connect_to(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool send_bytes(int fd, std::string_view data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent, 0);
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

std::string read_to_eof(int fd) {
  std::string out;
  char buf[4096];
  while (true) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    out.append(buf, static_cast<std::size_t>(n));
  }
  return out;
}

struct Response {
  int status = 0;
  std::string head;  // status line + headers
  std::string body;
};

Response split_response(const std::string& raw) {
  Response r;
  const std::size_t split = raw.find("\r\n\r\n");
  if (split == std::string::npos) return r;
  r.head = raw.substr(0, split);
  r.body = raw.substr(split + 4);
  // "HTTP/1.1 NNN ..."
  if (r.head.size() >= 12) r.status = std::atoi(r.head.c_str() + 9);
  return r;
}

// Connects, sends one request, reads until the server closes.
Response roundtrip(std::uint16_t port, const std::string& raw_request) {
  const int fd = connect_to(port);
  EXPECT_GE(fd, 0);
  if (fd < 0) return {};
  EXPECT_TRUE(send_bytes(fd, raw_request));
  const std::string raw = read_to_eof(fd);
  ::close(fd);
  return split_response(raw);
}

std::string completion_request(const std::string& prompt, int max_tokens,
                               bool stream) {
  const std::string body = "{\"prompt\": " + json_string(prompt) +
                           ", \"max_tokens\": " + std::to_string(max_tokens) +
                           ", \"stream\": " + (stream ? "true" : "false") + "}";
  return "POST /v1/completions HTTP/1.1\r\nHost: test\r\n"
         "Content-Type: application/json\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

// Concatenates the "text" fields of an SSE body's data events, in order,
// into `text`. Sets saw_done when the [DONE] sentinel terminated the stream
// and saw_finish when the finish_reason="length" chunk arrived before it.
// (void because gtest ASSERT_* requires a void-returning function.)
void concat_sse_text(const std::string& body, std::string& text,
                     bool* saw_done = nullptr, bool* saw_finish = nullptr) {
  std::size_t pos = 0;
  while (pos < body.size()) {
    std::size_t end = body.find("\n\n", pos);
    if (end == std::string::npos) end = body.size();
    const std::string event = body.substr(pos, end - pos);
    pos = end + 2;
    if (event.rfind("data: ", 0) != 0) continue;
    const std::string payload = event.substr(6);
    if (payload == "[DONE]") {
      if (saw_done) *saw_done = true;
      continue;
    }
    JsonValue v;
    ASSERT_TRUE(JsonValue::parse(payload, v)) << payload;
    const JsonValue* choices = v.find("choices");
    ASSERT_NE(choices, nullptr);
    ASSERT_FALSE(choices->items().empty());
    const JsonValue& choice = choices->items()[0];
    const JsonValue* finish = choice.find("finish_reason");
    if (finish != nullptr && finish->type() == JsonValue::Type::kString &&
        finish->as_string() == "length") {
      if (saw_finish) *saw_finish = true;
    }
    const JsonValue* t = choice.find("text");
    if (t != nullptr && t->type() == JsonValue::Type::kString) {
      text += t->as_string();
    }
  }
}

// Value-returning shim over the void ASSERT-capable worker.
std::string sse_text_or_die(const std::string& body, bool* saw_done = nullptr,
                            bool* saw_finish = nullptr) {
  std::string text;
  concat_sse_text(body, text, saw_done, saw_finish);
  return text;
}

// ---------------------------------------------------------------------------
// Fixture: the deterministic nano stack, mirroring orinsim_serve's
// construction (same corpus, tokenizer size, family, and seed).

class ServerE2ETest : public ::testing::Test {
 protected:
  ServerE2ETest()
      : corpus_(workload::generate_corpus(workload::CorpusSpec::wikitext2())),
        tokenizer_(Tokenizer::train(corpus_.text, 400)),
        config_(make_nano_config("llama3", tokenizer_.vocab_size())),
        master_(MasterWeights::init_random(config_, 7)),
        model_(std::make_unique<Model>(master_, DType::kF32)) {}

  std::unique_ptr<serving::FunctionalTokenBackend> make_backend(
      bool prefix_cache) {
    serving::FunctionalTokenBackend::Config bc;
    bc.max_lanes = 2;
    bc.max_seq = config_.max_seq;
    bc.prefix_cache = prefix_cache;
    return std::make_unique<serving::FunctionalTokenBackend>(*model_, bc,
                                                             nullptr);
  }

  // The offline reference: same prompt through the steppable engine in
  // virtual-clock mode, tokens concatenated exactly as SSE would carry them.
  std::string offline_completion(const std::string& prompt,
                                 std::size_t max_tokens, bool prefix_cache) {
    auto backend = make_backend(prefix_cache);
    serving::Request req;
    req.prompt = tokenizer_.encode(prompt);
    req.prompt_tokens = req.prompt.size();
    req.max_new_tokens = max_tokens;

    std::string text;
    serving::StreamCallbacks callbacks;
    callbacks.on_token = [&](const serving::Request&, TokenId token) {
      text += tokenizer_.token_text(token);
    };
    serving::ContinuousEngine engine(*backend, serving::GovernorConfig{});
    engine.submit(std::move(req), std::move(callbacks));
    while (engine.step() == serving::ContinuousEngine::Step::kWorked) {
    }
    engine.finish();
    return text;
  }

  workload::Corpus corpus_;
  Tokenizer tokenizer_;
  TransformerConfig config_;
  std::shared_ptr<const MasterWeights> master_;
  std::unique_ptr<Model> model_;
};

// A server + host bundle on an ephemeral port. Host is declared before the
// server so the server (whose shutdown drains the host) dies first.
struct LiveServer {
  LiveServer(serving::TokenBackend& backend, const Tokenizer& tokenizer,
             std::size_t max_seq, EngineHost::Config host_config,
             ServerConfig server_config = {})
      : host(backend, tokenizer, max_seq, host_config),
        server(host, std::move(server_config)) {
    std::string error;
    started = server.start(&error);
    EXPECT_TRUE(started) << error;
  }

  EngineHost host;
  Server server;
  bool started = false;
};

TEST_F(ServerE2ETest, SseStreamIsBitIdenticalToOfflineEngine) {
  const std::string prompt = "the history of the";
  constexpr std::size_t kMaxTokens = 12;
  for (const bool prefix_cache : {false, true}) {
    SCOPED_TRACE(prefix_cache ? "prefix cache on" : "prefix cache off");
    const std::string reference =
        offline_completion(prompt, kMaxTokens, prefix_cache);
    ASSERT_FALSE(reference.empty());

    auto backend = make_backend(prefix_cache);
    LiveServer live(*backend, tokenizer_, config_.max_seq, {});
    ASSERT_TRUE(live.started);

    // Twice: with the cache on, the second request hits the prefix cache —
    // greedy decode must be unaffected.
    for (int round = 0; round < 2; ++round) {
      SCOPED_TRACE("round " + std::to_string(round));
      const Response r = roundtrip(
          live.server.port(),
          completion_request(prompt, static_cast<int>(kMaxTokens), true));
      ASSERT_EQ(r.status, 200);
      EXPECT_NE(r.head.find("text/event-stream"), std::string::npos);
      bool saw_done = false;
      bool saw_finish = false;
      const std::string streamed = sse_text_or_die(r.body, &saw_done, &saw_finish);
      EXPECT_TRUE(saw_done);
      EXPECT_TRUE(saw_finish);
      EXPECT_EQ(streamed, reference);
    }
  }
}

TEST_F(ServerE2ETest, NonStreamingResponseMatchesOfflineEngine) {
  const std::string prompt = "computer systems are";
  const std::string reference = offline_completion(prompt, 8, false);

  auto backend = make_backend(false);
  LiveServer live(*backend, tokenizer_, config_.max_seq, {});
  const Response r =
      roundtrip(live.server.port(), completion_request(prompt, 8, false));
  ASSERT_EQ(r.status, 200);
  JsonValue v;
  ASSERT_TRUE(JsonValue::parse(r.body, v)) << r.body;
  EXPECT_EQ(v.find("object")->as_string(), "text_completion");
  EXPECT_EQ(v.find("choices")->items()[0].find("text")->as_string(), reference);
  EXPECT_EQ(v.find("choices")->items()[0].find("finish_reason")->as_string(),
            "length");
  EXPECT_DOUBLE_EQ(v.find("usage")->find("completion_tokens")->as_number(), 8.0);
}

TEST_F(ServerE2ETest, QueueCapOverflowAnswers429) {
  auto backend = make_backend(false);
  // One lane, queue of one: with several concurrent requests, later
  // submissions must bounce with 429 while the accepted ones complete.
  serving::FunctionalTokenBackend::Config bc;
  bc.max_lanes = 1;
  bc.max_seq = config_.max_seq;
  serving::FunctionalTokenBackend tight_backend(*model_, bc, nullptr);

  EngineHost::Config host_config;
  host_config.queue_cap = 1;
  LiveServer live(tight_backend, tokenizer_, config_.max_seq, host_config);

  constexpr int kClients = 6;
  std::atomic<int> ok{0};
  std::atomic<int> rejected{0};
  std::atomic<int> other{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i]() {
      const Response r = roundtrip(
          live.server.port(),
          completion_request("the history of the region " + std::to_string(i),
                             24, true));
      if (r.status == 200) {
        ++ok;
      } else if (r.status == 429) {
        ++rejected;
      } else {
        ++other;
      }
    });
  }
  for (std::thread& t : clients) t.join();

  EXPECT_EQ(other.load(), 0);
  EXPECT_GE(ok.load(), 1);
  EXPECT_GE(rejected.load(), 1);
  EXPECT_EQ(ok.load() + rejected.load(), kClients);

  const EngineHost::Metrics m = live.host.metrics();
  EXPECT_EQ(m.rejected, static_cast<std::size_t>(rejected.load()));
  EXPECT_EQ(m.submitted, static_cast<std::size_t>(ok.load()));
}

TEST_F(ServerE2ETest, EarlyDisconnectMidSseLeavesOtherRequestsUnaffected) {
  auto backend = make_backend(false);
  LiveServer live(*backend, tokenizer_, config_.max_seq, {});

  const std::string reference = offline_completion("the history of the", 10, false);

  // Client A: open an SSE stream, read a few bytes, slam the connection.
  const int fd = connect_to(live.server.port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(send_bytes(fd, completion_request("a long prompt about energy", 32, true)));
  char buf[64];
  ASSERT_GT(::recv(fd, buf, sizeof(buf), 0), 0);
  ::close(fd);

  // Client B, concurrently: must stream its full completion undisturbed.
  const Response r = roundtrip(live.server.port(),
                               completion_request("the history of the", 10, true));
  ASSERT_EQ(r.status, 200);
  bool saw_done = false;
  EXPECT_EQ(sse_text_or_die(r.body, &saw_done), reference);
  EXPECT_TRUE(saw_done);

  // The abandoned request still runs to retirement (tokens are dropped, not
  // the request). Poll briefly: the engine may still be decoding it.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (live.host.metrics().completed < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_EQ(live.host.metrics().completed, 2u);
}

TEST_F(ServerE2ETest, ShutdownDrainsInFlightStreamsCompletely) {
  auto backend = make_backend(false);
  LiveServer live(*backend, tokenizer_, config_.max_seq, {});

  const std::string reference = offline_completion("the history of the", 16, false);

  // Start a stream and wait for the first byte so it is in flight, then
  // shut the server down while the client is still reading.
  const int fd = connect_to(live.server.port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(send_bytes(fd, completion_request("the history of the", 16, true)));
  char first;
  ASSERT_EQ(::recv(fd, &first, 1, MSG_PEEK), 1);

  std::thread closer([&]() { live.server.shutdown(); });
  const std::string raw = read_to_eof(fd);
  ::close(fd);
  closer.join();

  const Response r = split_response(raw);
  ASSERT_EQ(r.status, 200);
  bool saw_done = false;
  EXPECT_EQ(sse_text_or_die(r.body, &saw_done), reference);
  EXPECT_TRUE(saw_done) << "drain must flush the stream to [DONE], not cut it";

  const EngineHost::Metrics m = live.host.metrics();
  EXPECT_EQ(m.completed, 1u);
  EXPECT_EQ(m.active, 0u);
  EXPECT_TRUE(m.draining);

  // After shutdown the listener is gone.
  EXPECT_LT(connect_to(live.server.port()), 0);
}

TEST_F(ServerE2ETest, MetricsReportNaNBeforeFirstCompletionThenRealValues) {
  auto backend = make_backend(false);
  LiveServer live(*backend, tokenizer_, config_.max_seq, {});

  // Before any completion: the latency gauges are NaN (satellite: empty
  // percentile/mean is NaN, rendered honestly, never 0).
  Response r = roundtrip(live.server.port(),
                         "GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n");
  ASSERT_EQ(r.status, 200);
  EXPECT_NE(r.head.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(r.body.find("orinsim_request_latency_mean_seconds NaN"),
            std::string::npos);
  EXPECT_NE(r.body.find("orinsim_requests_completed_total 0"),
            std::string::npos);

  const Response done = roundtrip(
      live.server.port(), completion_request("the history of the", 6, false));
  ASSERT_EQ(done.status, 200);

  r = roundtrip(live.server.port(), "GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n");
  ASSERT_EQ(r.status, 200);
  EXPECT_NE(r.body.find("orinsim_requests_completed_total 1"),
            std::string::npos);
  EXPECT_NE(r.body.find("orinsim_completion_tokens_total 6"),
            std::string::npos);
  EXPECT_EQ(r.body.find("orinsim_request_latency_mean_seconds NaN"),
            std::string::npos);
}

TEST_F(ServerE2ETest, RoutingAndValidationErrors) {
  auto backend = make_backend(false);
  LiveServer live(*backend, tokenizer_, config_.max_seq, {});
  const std::uint16_t port = live.server.port();

  EXPECT_EQ(roundtrip(port, "GET /healthz HTTP/1.1\r\n\r\n").status, 200);
  EXPECT_EQ(roundtrip(port, "GET /nope HTTP/1.1\r\n\r\n").status, 404);
  EXPECT_EQ(roundtrip(port, "POST /metrics HTTP/1.1\r\nContent-Length: 0\r\n\r\n")
                .status, 405);
  EXPECT_EQ(roundtrip(port, "GET /v1/completions HTTP/1.1\r\n\r\n").status, 405);

  // Malformed bodies: same 400 whether the JSON or the field is bad.
  const char* bad_bodies[] = {
      "not json at all",
      "{\"max_tokens\": 4}",                       // missing prompt
      "{\"prompt\": 42, \"max_tokens\": 4}",      // prompt not a string
      "{\"prompt\": \"x\", \"max_tokens\": 0}",   // non-positive
      "{\"prompt\": \"x\", \"max_tokens\": 2.5}", // non-integer
      "{\"prompt\": \"x\", \"max_tokens\": 1e999}",  // overflow, CLI-strict
  };
  for (const char* body : bad_bodies) {
    const std::string raw =
        "POST /v1/completions HTTP/1.1\r\nContent-Length: " +
        std::to_string(std::string(body).size()) + "\r\n\r\n" + body;
    EXPECT_EQ(roundtrip(port, raw).status, 400) << body;
  }

  // Parser-level rejections surface as their own statuses.
  EXPECT_EQ(roundtrip(port, "BROKEN\r\n\r\n").status, 400);
}

// A finished request's stream lives only as long as its client holds it:
// the host keeps no table of streams, and the engine drops the request's
// callbacks at retirement. Otherwise a long-running daemon keeps every
// stream it ever served.
TEST_F(ServerE2ETest, FinishedStreamIsFreedOnceClientDropsIt) {
  auto backend = make_backend(false);
  EngineHost host(*backend, tokenizer_, config_.max_seq, {});
  EngineHost::Submission sub = host.submit("the history of the", 4);
  ASSERT_EQ(sub.status, EngineHost::SubmitStatus::kOk);
  const std::weak_ptr<CompletionStream> weak = sub.stream;
  std::string text;
  std::size_t tokens = 0;
  while (sub.stream->next_token(text)) ++tokens;
  EXPECT_EQ(tokens, 4u);
  host.drain();  // the retiring step has returned on the engine thread
  sub.stream.reset();
  EXPECT_TRUE(weak.expired());
}

}  // namespace
}  // namespace orinsim::server
