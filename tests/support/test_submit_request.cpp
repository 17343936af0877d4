#include "support/submit_request.hpp"

#include <gtest/gtest.h>

#include <string>

#include "support/error.hpp"

namespace iddq::support {
namespace {

SubmitRequest decode(const std::string& line,
                     std::size_t default_deadline_ms = 0) {
  const auto request = json::JsonValue::parse(line);
  EXPECT_TRUE(request.has_value());
  return parse_submit_request(*request, "t", default_deadline_ms);
}

std::string decode_error(const std::string& line) {
  try {
    (void)decode(line);
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(SubmitRequest, AbsentDeadlineTakesTheCallersDefault) {
  EXPECT_EQ(decode(R"({"circuit":"c17"})", 250).deadline_ms, 250u);
  EXPECT_EQ(decode(R"({"circuit":"c17"})", 0).deadline_ms, 0u);
}

TEST(SubmitRequest, HugePriorityClampsInsteadOfOverflowingTheCast) {
  EXPECT_EQ(decode(R"({"circuit":"c17","priority":1e300})").priority,
            1000000);
  EXPECT_EQ(decode(R"({"circuit":"c17","priority":-1e300})").priority,
            -1000000);
}

TEST(SubmitRequest, RejectsNonU64SeedEntry) {
  EXPECT_EQ(decode_error(R"({"circuits":["c17"],"seeds":[-1]})"),
            "submit: \"seeds\" must be an array of unsigned 64-bit integers");
  EXPECT_EQ(decode_error(R"({"circuits":["c17"],"seeds":["7"]})"),
            "submit: \"seeds\" must be an array of unsigned 64-bit integers");
}

TEST(SubmitRequest, RejectsSeedsCircuitsLengthMismatch) {
  EXPECT_EQ(decode_error(R"({"circuits":["c17","c1908"],"seeds":[1]})"),
            "submit: \"seeds\" must have one entry per circuit (1 seeds for "
            "2 circuits)");
}

}  // namespace
}  // namespace iddq::support
