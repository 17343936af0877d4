// One declarative command-line flag table for the tools and benches.
//
// Each flag is declared once — name, metavar, help text, the variable its
// value lands in, and the check that value must pass — and the table does
// the rest: the argv scan, "needs a value", number parsing and range
// checks, "unknown option", positional arguments, -h/--help, and the help
// text itself, generated from the declarations. Checks that relate two
// flags stay with the tool, after parse(), reported through
// usage_error() so every usage error looks the same.
//
// The table stores references to the declared variables: they must
// outlive it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace iddq::support {

/// A parsed "host:port" endpoint.
using HostPort = std::pair<std::string, std::uint16_t>;

class FlagTable {
 public:
  /// Applies one flag's value; returns the error text that follows the
  /// flag name ("must be ...") on a bad value, nullopt when accepted.
  using Apply = std::function<std::optional<std::string>(const std::string&)>;

  /// `synopsis` follows "usage: <program> " on the help's first line;
  /// `epilog` (optional) is printed after the flag lines.
  FlagTable(std::string program, std::string synopsis,
            std::string epilog = {});

  /// A switch: sets `out` to true.
  FlagTable& flag(std::string name, std::string help, bool& out);
  /// Free text, stored as given.
  FlagTable& text(std::string name, std::string metavar, std::string help,
                  std::string& out);
  FlagTable& text(std::string name, std::string metavar, std::string help,
                  std::optional<std::string>& out);
  /// A repeatable value: each occurrence appends to `out`.
  FlagTable& repeated(std::string name, std::string metavar,
                      std::string help, std::vector<std::string>& out);
  /// A non-negative integer, at least `min`.
  FlagTable& size(std::string name, std::string metavar, std::string help,
                  std::size_t& out, std::size_t min = 0);
  /// An unsigned 64-bit integer (seeds).
  FlagTable& u64(std::string name, std::string metavar, std::string help,
                 std::uint64_t& out);
  /// A number > 0.
  FlagTable& positive(std::string name, std::string metavar,
                      std::string help, double& out);
  /// A TCP listen endpoint host:port; port 0 (ephemeral) is allowed.
  FlagTable& host_port(std::string name, std::string metavar,
                       std::string help, std::optional<HostPort>& out);
  /// A value with a caller-defined check.
  FlagTable& custom(std::string name, std::string metavar, std::string help,
                    Apply apply);
  /// A flag that prints to the parse's `out` stream and ends the run with
  /// exit code 0 as soon as it is seen (like --help).
  FlagTable& command(std::string name, std::string help,
                     std::function<void(std::ostream&)> print);
  /// Arguments that do not start with '-' are appended to `out`; without
  /// this declaration every such argument is an unknown option.
  FlagTable& positional(std::vector<std::string>& out);
  /// Declared flags that select one of several modes: each occurrence
  /// resets the other members to their values at declaration time, so the
  /// last one given wins.
  FlagTable& last_wins(std::initializer_list<std::string_view> names);

  /// Scans argv. Returns nullopt when the program should run, or the exit
  /// code when it should stop: 0 after --help/-h or a command flag
  /// (output on `out`), 1 after a usage error (reported on `err`).
  [[nodiscard]] std::optional<int> parse(int argc, const char* const* argv,
                                         std::ostream& out = std::cout,
                                         std::ostream& err = std::cerr);

  /// True when the last parse() saw `name`.
  [[nodiscard]] bool given(std::string_view name) const;

  /// Prints "<program>: <message>" and the help text to `err`; returns 1,
  /// the usage-error exit code.
  int usage_error(std::string_view message,
                  std::ostream& err = std::cerr) const;

  void print_help(std::ostream& os) const;

 private:
  struct Flag {
    std::string name;
    std::string metavar;  // empty: takes no value
    std::string help;
    Apply apply;
    std::function<void()> reset;  // set for flags that own a variable
    std::function<void(std::ostream&)> command;
    int group = -1;
    bool given = false;
  };

  FlagTable& add(std::string name, std::string metavar, std::string help,
                 Apply apply, std::function<void()> reset = {});
  Flag* find(std::string_view name);

  std::string program_;
  std::string synopsis_;
  std::string epilog_;
  std::vector<Flag> flags_;
  std::vector<std::string>* positional_ = nullptr;
  int groups_ = 0;
};

}  // namespace iddq::support
