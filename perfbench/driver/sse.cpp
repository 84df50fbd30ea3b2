#include "driver/sse.h"

#include <cstdlib>

#include "server/json.h"

namespace perfbench {

std::size_t SseReader::feed(std::string_view bytes, std::vector<std::string>& events) {
  buffer_.append(bytes);
  if (!head_done_) {
    const std::size_t end = buffer_.find("\r\n\r\n");
    if (end == std::string::npos) return 0;
    // "HTTP/1.1 200 OK": the status is the second space-separated field.
    const std::size_t sp = buffer_.find(' ');
    if (sp != std::string::npos && sp < end) {
      status_ = std::atoi(buffer_.c_str() + sp + 1);
    }
    head_done_ = true;
    buffer_.erase(0, end + 4);
  }
  std::size_t added = 0;
  std::size_t pos = 0;
  while (true) {
    const std::size_t end = buffer_.find("\n\n", pos);
    if (end == std::string::npos) break;
    std::string_view event(buffer_.data() + pos, end - pos);
    if (event.starts_with("data: ")) {
      events.emplace_back(event.substr(6));
      ++added;
    }
    pos = end + 2;
  }
  buffer_.erase(0, pos);
  return added;
}

Chunk parse_chunk(const std::string& payload) {
  Chunk chunk;
  if (payload == "[DONE]") {
    chunk.kind = Chunk::Kind::kDone;
    return chunk;
  }
  orinsim::server::JsonValue root;
  if (!orinsim::server::JsonValue::parse(payload, root) || !root.is_object()) return chunk;
  const orinsim::server::JsonValue* choices = root.find("choices");
  if (choices == nullptr || choices->items().empty()) return chunk;
  const orinsim::server::JsonValue& choice = choices->items().front();
  const orinsim::server::JsonValue* text = choice.find("text");
  const orinsim::server::JsonValue* finish = choice.find("finish_reason");
  if (text == nullptr || !text->is_string() || finish == nullptr) return chunk;
  if (!finish->is_string()) {
    chunk.kind = Chunk::Kind::kToken;
    chunk.text = text->as_string();
    return chunk;
  }
  const orinsim::server::JsonValue* usage = root.find("usage");
  if (usage == nullptr) return chunk;
  const orinsim::server::JsonValue* pt = usage->find("prompt_tokens");
  const orinsim::server::JsonValue* ct = usage->find("completion_tokens");
  if (pt == nullptr || ct == nullptr || !pt->is_number() || !ct->is_number()) return chunk;
  chunk.kind = Chunk::Kind::kFinal;
  chunk.prompt_tokens = static_cast<std::size_t>(pt->as_number());
  chunk.completion_tokens = static_cast<std::size_t>(ct->as_number());
  return chunk;
}

}  // namespace perfbench
