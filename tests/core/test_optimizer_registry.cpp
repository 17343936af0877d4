#include "core/optimizer_registry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "support/error.hpp"

namespace iddq::core {
namespace {

TEST(OptimizerRegistry, GlobalHasBuiltins) {
  EXPECT_EQ(OptimizerRegistry::global().names(),
            (std::vector<std::string>{"annealing", "evolution", "force",
                                      "greedy", "random", "standard",
                                      "tabu"}));
}

TEST(OptimizerRegistry, NamesAreSorted) {
  const auto names = OptimizerRegistry::global().names();
  EXPECT_GE(names.size(), 5u);
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(OptimizerRegistry, MakeKnownName) {
  const auto opt = OptimizerRegistry::global().make("evolution");
  ASSERT_NE(opt, nullptr);
  EXPECT_EQ(opt->name(), "evolution");
}

TEST(OptimizerRegistry, MakeUnknownNameListsValidOnes) {
  try {
    (void)OptimizerRegistry::global().make("bogus");
    FAIL() << "expected LookupError";
  } catch (const LookupError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("bogus"), std::string::npos);
    EXPECT_NE(what.find("valid names"), std::string::npos);
    EXPECT_NE(what.find("evolution"), std::string::npos);
  }
}

TEST(OptimizerRegistry, MakeComposedSpec) {
  const auto opt = OptimizerRegistry::global().make("evolution+greedy");
  ASSERT_NE(opt, nullptr);
  EXPECT_EQ(opt->name(), "evolution+greedy");
}

TEST(OptimizerRegistry, ComposedSpecNormalizesWhitespace) {
  const auto opt = OptimizerRegistry::global().make(" evolution + greedy ");
  ASSERT_NE(opt, nullptr);
  EXPECT_EQ(opt->name(), "evolution+greedy");
}

TEST(OptimizerRegistry, ComposedSpecRejectsUnknownStage) {
  EXPECT_THROW((void)OptimizerRegistry::global().make("evolution+bogus"),
               LookupError);
}

TEST(OptimizerRegistry, EmptyAndDanglingSpecsRejected) {
  auto& reg = OptimizerRegistry::global();
  EXPECT_THROW((void)reg.make(""), LookupError);
  EXPECT_THROW((void)reg.make("evolution+"), LookupError);
  EXPECT_THROW((void)reg.make("+greedy"), LookupError);
}

TEST(OptimizerRegistry, EveryNameMakesAPlanOfThatName) {
  for (const auto& name : OptimizerRegistry::global().names())
    EXPECT_EQ(OptimizerRegistry::global().make(name)->name(), name);
}

}  // namespace
}  // namespace iddq::core
