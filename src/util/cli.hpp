// A minimal command-line flag parser for the example/driver binaries:
// --name value and --flag forms, typed accessors with defaults, unknown
// flag detection. Deliberately tiny — no external dependency.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace ldga {

class CliArgs {
 public:
  /// Parses argv. Tokens "--name value" become named options; a token
  /// "--name" followed by another "--..." (or nothing) becomes a
  /// boolean flag; bare tokens become positional arguments.
  CliArgs(int argc, const char* const* argv);

  bool has(const std::string& name) const;

  std::string get(const std::string& name,
                  const std::string& fallback) const;
  std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  double get_double(const std::string& name, double fallback) const;
  bool get_bool(const std::string& name, bool fallback = false) const;

  const std::vector<std::string>& positional() const { return positional_; }

  /// Flags that were parsed but never queried; call after all get()s to
  /// reject typos. (Returns names without the leading "--".)
  std::vector<std::string> unused() const;

  /// Throws ConfigError naming the first parsed flag that is not in
  /// `known`. Call before doing any work, so a typo or a retired flag
  /// stops the run instead of being silently ignored.
  void reject_unknown(std::initializer_list<std::string_view> known) const;

 private:
  std::map<std::string, std::string> named_;  // "" value = boolean flag
  std::vector<std::string> positional_;
  mutable std::map<std::string, bool> queried_;
};

}  // namespace ldga
