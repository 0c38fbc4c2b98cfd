// Tiny command-line flag parser for examples and bench binaries.
//
// Accepts --name=value and --name value forms plus bare --name booleans.
// Unknown flags are an error so typos surface immediately.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

namespace resex {

class Flags {
 public:
  /// Declares a flag with a default and a help line; returns *this to chain.
  Flags& define(const std::string& name, const std::string& defaultValue,
                const std::string& help);

  /// Parses argv; throws std::runtime_error on unknown or malformed flags.
  /// Recognizes --help and, if seen, sets helpRequested().
  void parse(int argc, const char* const* argv);

  bool helpRequested() const noexcept { return helpRequested_; }
  std::string helpText(const std::string& program) const;

  std::string str(const std::string& name) const;
  std::int64_t integer(const std::string& name) const;
  /// A non-negative integer flag (a count, size, id or seed) that fits in
  /// `T`. Throws std::runtime_error naming the flag and its value when the
  /// value is negative or too large, where a cast would wrap it.
  template <typename T = std::size_t>
  T count(const std::string& name) const {
    static_assert(std::is_unsigned_v<T>);
    const std::int64_t v = integer(name);
    if (v < 0 || static_cast<std::uint64_t>(v) > std::numeric_limits<T>::max())
      rejectCount(name, std::numeric_limits<T>::max());
    return static_cast<T>(v);
  }
  double real(const std::string& name) const;
  bool boolean(const std::string& name) const;

  /// Positional (non-flag) arguments in order.
  const std::vector<std::string>& positional() const noexcept { return positional_; }

 private:
  struct Spec {
    std::string value;
    std::string defaultValue;
    std::string help;
  };
  const Spec& lookup(const std::string& name) const;
  [[noreturn]] void rejectCount(const std::string& name, std::uint64_t max) const;

  std::map<std::string, Spec> specs_;
  std::vector<std::string> order_;
  std::vector<std::string> positional_;
  bool helpRequested_ = false;
};

}  // namespace resex
