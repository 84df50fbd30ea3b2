#include "core/cli.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "core/string_util.h"

namespace orinsim {

CliArgs::CliArgs(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (!starts_with(arg, "--")) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg = arg.substr(2);
    const std::size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      given_.emplace_back(arg.substr(0, eq), false);
      flags_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (starts_with(arg, "no-")) {
      given_.emplace_back(arg.substr(3), true);
      flags_[arg.substr(3)] = "false";
    } else if (i + 1 < argc && !starts_with(argv[i + 1], "--")) {
      given_.emplace_back(arg, false);
      flags_[arg] = argv[++i];
    } else {
      given_.emplace_back(arg, false);
      flags_[arg] = "true";
    }
  }
}

bool CliArgs::has(const std::string& name) const { return flags_.count(name) > 0; }

std::string CliArgs::get(const std::string& name, const std::string& default_value) const {
  auto it = flags_.find(name);
  return it == flags_.end() ? default_value : it->second;
}

void CliArgs::usage_error(const std::string& name, const std::string& value,
                          const char* expected) const {
  std::fprintf(stderr, "%s: invalid value for --%s: '%s' (expected %s)\n",
               program_.empty() ? "orinsim" : program_.c_str(), name.c_str(),
               value.c_str(), expected);
  std::exit(kUsageExitCode);
}

void CliArgs::require_known(std::initializer_list<std::string_view> value_flags,
                            std::initializer_list<std::string_view> bool_flags) const {
  auto in = [](std::initializer_list<std::string_view> names, const std::string& name) {
    return std::find(names.begin(), names.end(), name) != names.end();
  };
  for (const auto& [name, negated] : given_) {
    if (in(bool_flags, name) || (!negated && in(value_flags, name))) continue;
    std::fprintf(stderr, "%s: unknown flag --%s%s (see --help)\n",
                 program_.empty() ? "orinsim" : program_.c_str(), negated ? "no-" : "",
                 name.c_str());
    std::exit(kUsageExitCode);
  }
  if (!positional_.empty()) {
    std::fprintf(stderr, "%s: unexpected argument '%s' (quote a value with spaces; see --help)\n",
                 program_.empty() ? "orinsim" : program_.c_str(), positional_.front().c_str());
    std::exit(kUsageExitCode);
  }
}

long long CliArgs::get_int(const std::string& name, long long default_value) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return default_value;
  long long out = 0;
  if (!parse_int_strict(it->second, out)) {
    usage_error(name, it->second, "an integer");
  }
  return out;
}

double CliArgs::get_double(const std::string& name, double default_value) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return default_value;
  double out = 0.0;
  if (!parse_double_strict(it->second, out)) {
    usage_error(name, it->second, "a number");
  }
  return out;
}

bool CliArgs::get_bool(const std::string& name, bool default_value) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return default_value;
  const std::string v = to_lower(it->second);
  if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
  if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  usage_error(name, it->second, "a boolean (true/false/1/0/yes/no/on/off)");
  return default_value;  // unreachable
}

}  // namespace orinsim
