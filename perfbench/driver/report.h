// Minimal ordered JSON object writer for the driver's report line.
#pragma once

#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "server/json.h"

namespace perfbench {

class JsonObject {
 public:
  JsonObject& num(const std::string& key, double value) { return raw(key, number(value)); }
  JsonObject& count(const std::string& key, std::size_t value) {
    return raw(key, std::to_string(value));
  }
  JsonObject& str(const std::string& key, const std::string& value) {
    return raw(key, orinsim::server::json_string(value));
  }
  JsonObject& flag(const std::string& key, bool value) {
    return raw(key, value ? "true" : "false");
  }
  JsonObject& obj(const std::string& key, const JsonObject& value) {
    return raw(key, value.dump());
  }
  JsonObject& strings(const std::string& key, const std::vector<std::string>& values) {
    std::string out = "[";
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (i > 0) out += ",";
      out += orinsim::server::json_string(values[i]);
    }
    return raw(key, out + "]");
  }
  JsonObject& nums(const std::string& key, const std::vector<double>& values) {
    std::string out = "[";
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (i > 0) out += ",";
      out += number(values[i]);
    }
    return raw(key, out + "]");
  }
  JsonObject& raw(const std::string& key, std::string json) {
    fields_.emplace_back(key, std::move(json));
    return *this;
  }

  std::string dump() const {
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) out += ",";
      out += orinsim::server::json_string(fields_[i].first) + ":" + fields_[i].second;
    }
    return out + "}";
  }

 private:
  static std::string number(double value) {
    if (!std::isfinite(value)) return "null";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
  }

  std::vector<std::pair<std::string, std::string>> fields_;
};

}  // namespace perfbench
