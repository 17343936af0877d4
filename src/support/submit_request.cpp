#include "support/submit_request.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "support/error.hpp"

namespace iddq::support {

SubmitRequest parse_submit_request(const json::JsonValue& request,
                                   std::string id,
                                   std::size_t default_deadline_ms) {
  SubmitRequest submit;
  submit.id = std::move(id);
  if (const json::JsonValue* circuits = request.find("circuits")) {
    for (const auto& c : circuits->items())
      if (c.is_string()) submit.circuits.push_back(c.as_string());
  } else if (const json::JsonValue* one = request.find("circuit")) {
    if (one->is_string()) submit.circuits.push_back(one->as_string());
  }
  if (const json::JsonValue* methods = request.find("methods")) {
    submit.methods.clear();
    for (const auto& m : methods->items())
      if (m.is_string()) submit.methods.push_back(m.as_string());
  }
  submit.seed = request.get_u64("seed", 1);
  if (const json::JsonValue* seeds = request.find("seeds")) {
    for (const auto& s : seeds->items()) {
      std::uint64_t value = 0;
      if (!s.as_u64(value))
        throw Error("submit: \"seeds\" must be an array of unsigned 64-bit "
                    "integers");
      submit.seeds.push_back(value);
    }
  }
  submit.budget = static_cast<std::size_t>(request.get_u64("budget", 0));
  submit.use_cache = request.get_bool("cache", true);
  submit.deadline_ms = static_cast<std::size_t>(
      request.get_u64("deadline_ms", default_deadline_ms));
  // Doubles carry the sign ("priority":-2 is valid — background work).
  // Untrusted input: clamp before the cast (out-of-int-range and NaN
  // would be undefined behavior); 1e6 dwarfs any real priority scheme.
  const double priority = request.get_double("priority", 0.0);
  submit.priority =
      std::isfinite(priority)
          ? static_cast<int>(std::clamp(priority, -1.0e6, 1.0e6))
          : 0;
  if (submit.circuits.empty())
    throw Error("submit: needs \"circuits\" (or \"circuit\")");
  if (submit.methods.empty())
    throw Error("submit: needs at least one method");
  if (!submit.seeds.empty() && submit.seeds.size() != submit.circuits.size())
    throw Error("submit: \"seeds\" must have one entry per circuit (" +
                std::to_string(submit.seeds.size()) + " seeds for " +
                std::to_string(submit.circuits.size()) + " circuits)");
  return submit;
}

std::string accepted_line(const SubmitRequest& request) {
  return json::JsonWriter()
      .field("event", "accepted")
      .field("id", request.id)
      .field("jobs", request.circuits.size())
      .str();
}

std::string error_line(std::string_view message, std::string_view id) {
  json::JsonWriter w;
  w.field("event", "error");
  if (!id.empty()) w.field("id", id);
  w.field("message", message);
  return std::move(w).str();
}

}  // namespace iddq::support
