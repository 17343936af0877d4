// FlagTable: the declarative argv parser every tool and bench uses.
#include "support/flags.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "support/error.hpp"

namespace iddq::support {
namespace {

struct Parsed {
  std::optional<int> code;
  std::string out;
  std::string err;
};

Parsed run(FlagTable& flags, std::vector<std::string> args) {
  args.insert(args.begin(), "prog");
  std::vector<const char*> argv;
  for (const auto& a : args) argv.push_back(a.c_str());
  std::ostringstream out;
  std::ostringstream err;
  Parsed p;
  p.code = flags.parse(static_cast<int>(argv.size()), argv.data(), out, err);
  p.out = out.str();
  p.err = err.str();
  return p;
}

// The first line of a usage error; the help text follows it.
std::string first_line(const std::string& s) {
  return s.substr(0, s.find('\n'));
}

TEST(Flags, SwitchSetsTrueOnlyWhenGiven) {
  bool quiet = false;
  bool progress = false;
  FlagTable flags("prog", "[options]");
  flags.flag("--quiet", "summary rows only", quiet)
      .flag("--progress", "stream progress", progress);
  const auto p = run(flags, {"--quiet"});
  EXPECT_FALSE(p.code.has_value());
  EXPECT_TRUE(quiet);
  EXPECT_FALSE(progress);
  EXPECT_TRUE(flags.given("--quiet"));
  EXPECT_FALSE(flags.given("--progress"));
  EXPECT_TRUE(p.out.empty());
  EXPECT_TRUE(p.err.empty());
}

TEST(Flags, SizeHonoursItsMinimum) {
  std::size_t jobs = 1;
  std::size_t queue = 1024;
  FlagTable flags("prog", "[options]");
  flags.size("--jobs", "N", "workers", jobs, 1)
      .size("--queue", "N", "bound (0 = unbounded)", queue);

  auto p = run(flags, {"--jobs", "3", "--queue", "0"});
  EXPECT_FALSE(p.code.has_value());
  EXPECT_EQ(jobs, 3u);
  EXPECT_EQ(queue, 0u);

  p = run(flags, {"--jobs", "0"});
  EXPECT_EQ(p.code, 1);
  EXPECT_EQ(first_line(p.err), "prog: --jobs must be >= 1 (got 0)");
  EXPECT_NE(p.err.find("usage: prog [options]"), std::string::npos);

  p = run(flags, {"--queue", "-1"});
  EXPECT_EQ(p.code, 1);
  EXPECT_EQ(first_line(p.err), "prog: --queue must be >= 0 (got -1)");

  p = run(flags, {"--jobs"});
  EXPECT_EQ(p.code, 1);
  EXPECT_EQ(first_line(p.err), "prog: --jobs needs a value");
}

TEST(Flags, PositiveDoubleRejectsZeroNegativeAndJunk) {
  double rail = 200.0;
  FlagTable flags("prog", "[options]");
  flags.positive("--rail", "MV", "rail limit", rail);

  EXPECT_FALSE(run(flags, {"--rail", "150.5"}).code.has_value());
  EXPECT_DOUBLE_EQ(rail, 150.5);
  for (const char* bad : {"0", "-5", "abc", "1.5x", "nan"}) {
    const auto p = run(flags, {"--rail", bad});
    EXPECT_EQ(p.code, 1) << bad;
    EXPECT_EQ(first_line(p.err),
              std::string("prog: --rail must be > 0 (got ") + bad + ")");
  }
  EXPECT_DOUBLE_EQ(rail, 150.5);
}

TEST(Flags, U64TakesTheFullRange) {
  std::uint64_t seed = 42;
  FlagTable flags("prog", "[options]");
  flags.u64("--seed", "N", "base seed", seed);

  EXPECT_FALSE(run(flags, {"--seed", "18446744073709551615"}).code);
  EXPECT_EQ(seed, UINT64_MAX);
  const auto p = run(flags, {"--seed", "12x"});
  EXPECT_EQ(p.code, 1);
  EXPECT_EQ(first_line(p.err),
            "prog: --seed must be an unsigned integer (got 12x)");
  EXPECT_EQ(run(flags, {"--seed", "18446744073709551616"}).code, 1);
}

TEST(Flags, RepeatedFlagAppendsEveryValue) {
  std::vector<std::string> backends;
  FlagTable flags("prog", "[options]");
  flags.repeated("--backend", "E", "backend endpoint; repeatable", backends);
  EXPECT_FALSE(run(flags, {"--backend", "a:1", "--backend", "/tmp/b.sock"})
                   .code.has_value());
  EXPECT_EQ(backends, (std::vector<std::string>{"a:1", "/tmp/b.sock"}));
}

TEST(Flags, LastWinsGroupResetsTheOtherMembers) {
  bool pipe = false;
  std::optional<std::string> socket;
  std::optional<HostPort> listen;
  FlagTable flags("prog", "[options]");
  flags.flag("--pipe", "stdin/stdout", pipe)
      .text("--socket", "PATH", "unix socket", socket)
      .host_port("--listen", "H:P", "tcp", listen)
      .last_wins({"--pipe", "--socket", "--listen"});

  ASSERT_FALSE(run(flags, {"--socket", "s.sock", "--listen", "h:0"}).code);
  EXPECT_FALSE(socket.has_value());
  ASSERT_TRUE(listen.has_value());
  EXPECT_EQ(*listen, (HostPort{"h", 0}));

  ASSERT_FALSE(run(flags, {"--listen", "h:80", "--pipe"}).code);
  EXPECT_TRUE(pipe);
  EXPECT_FALSE(socket.has_value());
  EXPECT_FALSE(listen.has_value());

  ASSERT_FALSE(run(flags, {"--pipe", "--socket", "s.sock"}).code);
  EXPECT_FALSE(pipe);
  EXPECT_EQ(socket, "s.sock");
  EXPECT_FALSE(listen.has_value());

  EXPECT_THROW(flags.last_wins({"--nope"}), Error);
}

TEST(Flags, HostPortAllowsPortZeroButRejectsMalformedEndpoints) {
  std::optional<HostPort> listen;
  FlagTable flags("prog", "[options]");
  flags.host_port("--listen", "H:P", "tcp", listen);
  ASSERT_FALSE(run(flags, {"--listen", "127.0.0.1:65535"}).code);
  EXPECT_EQ(*listen, (HostPort{"127.0.0.1", 65535}));
  for (const char* bad : {":80", "h:70000", "h:", "nocolon", "h:-1"}) {
    const auto p = run(flags, {"--listen", bad});
    EXPECT_EQ(p.code, 1) << bad;
    EXPECT_EQ(first_line(p.err),
              std::string("prog: --listen needs host:port (got ") + bad + ")");
  }
}

TEST(Flags, PositionalArgumentsAndUnknownOptions) {
  std::vector<std::string> circuits;
  bool quiet = false;
  FlagTable flags("prog", "[options] <circuit> ...");
  flags.flag("--quiet", "rows only", quiet).positional(circuits);

  ASSERT_FALSE(run(flags, {"c17", "--quiet", "c1908", ""}).code);
  EXPECT_EQ(circuits, (std::vector<std::string>{"c17", "c1908", ""}));
  EXPECT_TRUE(quiet);

  for (const char* bad : {"--bogus", "-x", "-"}) {
    const auto p = run(flags, {bad});
    EXPECT_EQ(p.code, 1) << bad;
    EXPECT_EQ(first_line(p.err),
              std::string("prog: unknown option '") + bad + "'");
  }

  // Without a positional declaration, a bare word is an unknown option.
  FlagTable strict("prog", "[options]");
  const auto p = run(strict, {"word"});
  EXPECT_EQ(p.code, 1);
  EXPECT_EQ(first_line(p.err), "prog: unknown option 'word'");
}

TEST(Flags, ValuesAreTakenVerbatimEvenWhenTheyLookLikeFlags) {
  std::optional<std::string> dir;
  FlagTable flags("prog", "[options]");
  flags.text("--cache-stats", "DIR", "inspect", dir);
  ASSERT_FALSE(run(flags, {"--cache-stats", "-"}).code);
  EXPECT_EQ(dir, "-");
}

TEST(Flags, CustomFlagReportsItsOwnError) {
  std::string tier = "table1";
  FlagTable flags("prog", "[options]");
  flags.custom("--tier", "NAME", "table1 | big",
               [&tier](const std::string& v) -> std::optional<std::string> {
                 if (v != "table1" && v != "big") return "must be a tier";
                 tier = v;
                 return std::nullopt;
               });
  EXPECT_FALSE(run(flags, {"--tier", "big"}).code);
  EXPECT_EQ(tier, "big");
  EXPECT_EQ(first_line(run(flags, {"--tier", "x"}).err),
            "prog: --tier must be a tier");
}

TEST(Flags, HelpAndCommandFlagsStopTheScan) {
  bool quiet = false;
  FlagTable flags("prog", "[options]", "see docs/prog.md");
  flags.flag("--quiet", "rows only", quiet)
      .command("--list", "print the list and exit",
               [](std::ostream& os) { os << "a b c\n"; });

  for (const char* help : {"--help", "-h"}) {
    const auto p = run(flags, {help, "--bogus"});
    EXPECT_EQ(p.code, 0);
    EXPECT_EQ(first_line(p.out), "usage: prog [options]");
    EXPECT_NE(p.out.find("see docs/prog.md\n"), std::string::npos);
    EXPECT_TRUE(p.err.empty());
  }
  const auto p = run(flags, {"--list", "--bogus"});
  EXPECT_EQ(p.code, 0);
  EXPECT_EQ(p.out, "a b c\n");
  // An error before the command still wins.
  EXPECT_EQ(run(flags, {"--bogus", "--list"}).code, 1);
}

TEST(Flags, HelpListsEveryDeclaredFlagExactlyOnce) {
  bool b = false;
  std::string s;
  std::optional<std::string> o;
  std::vector<std::string> v;
  std::size_t n = 0;
  std::uint64_t u = 0;
  double d = 1.0;
  std::optional<HostPort> hp;
  FlagTable flags("prog", "[options]");
  flags.flag("--switch", "a switch", b)
      .text("--text", "S", "text", s)
      .text("--maybe", "S", "optional text", o)
      .repeated("--many", "E", "repeatable", v)
      .size("--a-much-longer-size-flag", "N", "size", n, 1)
      .u64("--seed", "N", "seed", u)
      .positive("--rail", "MV", "rail", d)
      .host_port("--listen", "H:P", "tcp", hp)
      .custom("--custom", "X", "custom",
              [](const std::string&) { return std::nullopt; })
      .command("--list", "command", [](std::ostream&) {})
      .text("-o", "FILE", "short flag", o);
  EXPECT_THROW(flags.flag("--switch", "again", b), Error);

  std::ostringstream help;
  flags.print_help(help);
  const std::string text = help.str();
  for (const char* name :
       {"--switch", "--text", "--maybe", "--many", "--a-much-longer-size-flag",
        "--seed", "--rail", "--listen", "--custom", "--list", "-o"}) {
    const std::string line_start = std::string("\n  ") + name + " ";
    const auto first = text.find(line_start);
    ASSERT_NE(first, std::string::npos) << name;
    EXPECT_EQ(text.find(line_start, first + 1), std::string::npos) << name;
  }
  // Help texts line up in one column after short heads.
  EXPECT_NE(text.find("\n  --rail MV        rail\n"), std::string::npos);
  EXPECT_NE(text.find("\n  --a-much-longer-size-flag N  size\n"),
            std::string::npos);
}

}  // namespace
}  // namespace iddq::support
