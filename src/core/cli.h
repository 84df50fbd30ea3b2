// Tiny command-line flag parser for bench/example binaries.
// Supports --name=value, --name value, and boolean --name / --no-name.
//
// Typed getters validate strictly (core/string_util parse_*_strict): a
// malformed value like --power-cap-w=abc, trailing garbage, or an overflow
// prints a usage message naming the bad flag and exits with kUsageExitCode
// instead of silently parsing to 0 or throwing an uncaught exception out of
// main.
#pragma once

#include <initializer_list>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace orinsim {

class CliArgs {
 public:
  // Exit code for a malformed flag value (the conventional "usage" status).
  static constexpr int kUsageExitCode = 2;

  CliArgs(int argc, const char* const* argv);

  bool has(const std::string& name) const;
  std::string get(const std::string& name, const std::string& default_value) const;
  long long get_int(const std::string& name, long long default_value) const;
  double get_double(const std::string& name, double default_value) const;
  bool get_bool(const std::string& name, bool default_value) const;

  // Exits with kUsageExitCode, naming the first flag that is neither one of
  // `value_flags` or `bool_flags` nor --no-<name> of a bool flag, or else
  // the first positional argument. For a binary that takes flags only and
  // must reject a mistyped flag or an unquoted multi-word value (the words
  // after the first are positional) rather than ignore it.
  void require_known(std::initializer_list<std::string_view> value_flags,
                     std::initializer_list<std::string_view> bool_flags) const;

  // Positional (non-flag) arguments in order.
  const std::vector<std::string>& positional() const noexcept { return positional_; }
  const std::string& program() const noexcept { return program_; }

 private:
  [[noreturn]] void usage_error(const std::string& name, const std::string& value,
                                const char* expected) const;

  std::string program_;
  std::map<std::string, std::string> flags_;
  std::vector<std::pair<std::string, bool>> given_;  // (name, spelled --no-<name>) in order
  std::vector<std::string> positional_;
};

}  // namespace orinsim
