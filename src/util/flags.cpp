#include "util/flags.hpp"

#include <stdexcept>

namespace resex {

Flags& Flags::define(const std::string& name, const std::string& defaultValue,
                     const std::string& help) {
  if (specs_.contains(name)) throw std::runtime_error("Flags: duplicate flag --" + name);
  specs_[name] = Spec{defaultValue, defaultValue, help};
  order_.push_back(name);
  return *this;
}

void Flags::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      helpRequested_ = true;
      continue;
    }
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    std::string name = arg.substr(2);
    std::string value;
    bool haveValue = false;
    if (const auto eq = name.find('='); eq != std::string::npos) {
      value = name.substr(eq + 1);
      name.resize(eq);
      haveValue = true;
    }
    auto it = specs_.find(name);
    if (it == specs_.end()) throw std::runtime_error("Flags: unknown flag --" + name);
    if (!haveValue) {
      // --name value, unless the next token is another flag (then boolean true).
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        value = argv[++i];
      } else {
        value = "true";
      }
    }
    it->second.value = std::move(value);
  }
}

std::string Flags::helpText(const std::string& program) const {
  std::string out = "usage: " + program + " [flags]\n";
  for (const auto& name : order_) {
    const Spec& spec = specs_.at(name);
    out += "  --" + name + " (default: " + spec.defaultValue + ")\n      " + spec.help + "\n";
  }
  return out;
}

const Flags::Spec& Flags::lookup(const std::string& name) const {
  const auto it = specs_.find(name);
  if (it == specs_.end()) throw std::runtime_error("Flags: undeclared flag --" + name);
  return it->second;
}

std::string Flags::str(const std::string& name) const { return lookup(name).value; }

std::int64_t Flags::integer(const std::string& name) const {
  const std::string& v = lookup(name).value;
  try {
    std::size_t pos = 0;
    const std::int64_t parsed = std::stoll(v, &pos);
    if (pos != v.size())
      throw std::runtime_error("flag --" + name + ": expected integer, got '" + v + "'");
    return parsed;
  } catch (const std::runtime_error&) {
    throw;
  } catch (const std::exception&) {
    // std::stoll throws invalid_argument/out_of_range with useless messages;
    // rethrow with the flag name and offending value.
    throw std::runtime_error("flag --" + name + ": expected integer, got '" + v + "'");
  }
}

void Flags::rejectCount(const std::string& name, std::uint64_t max) const {
  std::string message = "flag --" + name + ": expected an integer in [0, ";
  message += std::to_string(max) + "], got '" + lookup(name).value + "'";
  throw std::runtime_error(message);
}

double Flags::real(const std::string& name) const {
  const std::string& v = lookup(name).value;
  try {
    std::size_t pos = 0;
    const double parsed = std::stod(v, &pos);
    if (pos != v.size())
      throw std::runtime_error("flag --" + name + ": expected number, got '" + v + "'");
    return parsed;
  } catch (const std::runtime_error&) {
    throw;
  } catch (const std::exception&) {
    throw std::runtime_error("flag --" + name + ": expected number, got '" + v + "'");
  }
}

bool Flags::boolean(const std::string& name) const {
  const std::string& v = lookup(name).value;
  return v == "true" || v == "1" || v == "yes" || v == "on";
}

}  // namespace resex
