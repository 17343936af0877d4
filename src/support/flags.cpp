#include "support/flags.hpp"

#include <algorithm>

#include "support/error.hpp"
#include "support/strings.hpp"
#include "support/transport.hpp"

namespace iddq::support {

namespace {

/// Restores `out` to the value it holds now.
template <typename T>
std::function<void()> restore(T& out) {
  return [&out, initial = out] { out = initial; };
}

/// Stores every value as given.
template <typename T>
FlagTable::Apply assign(T& out) {
  return [&out](const std::string& v) {
    out = v;
    return std::nullopt;
  };
}

std::string got(const std::string& value) { return " (got " + value + ")"; }

}  // namespace

FlagTable::FlagTable(std::string program, std::string synopsis,
                     std::string epilog)
    : program_(std::move(program)),
      synopsis_(std::move(synopsis)),
      epilog_(std::move(epilog)) {}

FlagTable& FlagTable::add(std::string name, std::string metavar,
                          std::string help, Apply apply,
                          std::function<void()> reset) {
  if (find(name) != nullptr)
    throw Error("flag '" + name + "' is declared twice");
  Flag& f = flags_.emplace_back();
  f.name = std::move(name);
  f.metavar = std::move(metavar);
  f.help = std::move(help);
  f.apply = std::move(apply);
  f.reset = std::move(reset);
  return *this;
}

FlagTable& FlagTable::flag(std::string name, std::string help, bool& out) {
  return add(
      std::move(name), {}, std::move(help),
      [&out](const std::string&) {
        out = true;
        return std::nullopt;
      },
      restore(out));
}

FlagTable& FlagTable::text(std::string name, std::string metavar,
                           std::string help, std::string& out) {
  return add(std::move(name), std::move(metavar), std::move(help),
             assign(out), restore(out));
}

FlagTable& FlagTable::text(std::string name, std::string metavar,
                           std::string help,
                           std::optional<std::string>& out) {
  return add(std::move(name), std::move(metavar), std::move(help),
             assign(out), restore(out));
}

FlagTable& FlagTable::repeated(std::string name, std::string metavar,
                               std::string help,
                               std::vector<std::string>& out) {
  return add(std::move(name), std::move(metavar), std::move(help),
             [&out](const std::string& v) {
               out.push_back(v);
               return std::nullopt;
             });
}

FlagTable& FlagTable::size(std::string name, std::string metavar,
                           std::string help, std::size_t& out,
                           std::size_t min) {
  return add(
      std::move(name), std::move(metavar), std::move(help),
      [&out, min](const std::string& v) -> std::optional<std::string> {
        std::size_t n = 0;
        if (!str::parse_size(v, n) || n < min)
          return "must be >= " + std::to_string(min) + got(v);
        out = n;
        return std::nullopt;
      },
      restore(out));
}

FlagTable& FlagTable::u64(std::string name, std::string metavar,
                          std::string help, std::uint64_t& out) {
  return add(
      std::move(name), std::move(metavar), std::move(help),
      [&out](const std::string& v) -> std::optional<std::string> {
        std::size_t n = 0;
        if (!str::parse_size(v, n))
          return "must be an unsigned integer" + got(v);
        out = n;
        return std::nullopt;
      },
      restore(out));
}

FlagTable& FlagTable::positive(std::string name, std::string metavar,
                               std::string help, double& out) {
  return add(
      std::move(name), std::move(metavar), std::move(help),
      [&out](const std::string& v) -> std::optional<std::string> {
        double x = 0.0;
        if (!str::parse_double(v, x) || !(x > 0.0))
          return "must be > 0" + got(v);
        out = x;
        return std::nullopt;
      },
      restore(out));
}

FlagTable& FlagTable::host_port(std::string name, std::string metavar,
                                std::string help,
                                std::optional<HostPort>& out) {
  return add(
      std::move(name), std::move(metavar), std::move(help),
      [&out](const std::string& v) -> std::optional<std::string> {
        out = parse_host_port(v, /*allow_port_zero=*/true);
        if (!out) return "needs host:port" + got(v);
        return std::nullopt;
      },
      restore(out));
}

FlagTable& FlagTable::custom(std::string name, std::string metavar,
                             std::string help, Apply apply) {
  return add(std::move(name), std::move(metavar), std::move(help),
             std::move(apply));
}

FlagTable& FlagTable::command(std::string name, std::string help,
                              std::function<void(std::ostream&)> print) {
  add(std::move(name), {}, std::move(help), {});
  flags_.back().command = std::move(print);
  return *this;
}

FlagTable& FlagTable::positional(std::vector<std::string>& out) {
  positional_ = &out;
  return *this;
}

FlagTable& FlagTable::last_wins(
    std::initializer_list<std::string_view> names) {
  for (const auto name : names) {
    Flag* f = find(name);
    if (f == nullptr || !f->reset)
      throw Error("last_wins: '" + std::string(name) +
                  "' is not a declared value flag");
    f->group = groups_;
  }
  ++groups_;
  return *this;
}

std::optional<int> FlagTable::parse(int argc, const char* const* argv,
                                    std::ostream& out, std::ostream& err) {
  for (auto& f : flags_) f.given = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      print_help(out);
      return 0;
    }
    Flag* f = find(arg);
    if (f == nullptr) {
      if (positional_ != nullptr && (arg.empty() || arg[0] != '-')) {
        positional_->push_back(arg);
        continue;
      }
      return usage_error("unknown option '" + arg + "'", err);
    }
    if (f->command) {
      f->command(out);
      return 0;
    }
    std::string value;
    if (!f->metavar.empty()) {
      if (i + 1 >= argc) return usage_error(f->name + " needs a value", err);
      value = argv[++i];
    }
    if (f->group >= 0)
      for (auto& other : flags_)
        if (other.group == f->group && &other != f) other.reset();
    if (const auto error = f->apply(value))
      return usage_error(f->name + " " + *error, err);
    f->given = true;
  }
  return std::nullopt;
}

bool FlagTable::given(std::string_view name) const {
  return std::any_of(flags_.begin(), flags_.end(), [name](const Flag& f) {
    return f.name == name && f.given;
  });
}

int FlagTable::usage_error(std::string_view message,
                           std::ostream& err) const {
  err << program_ << ": " << message << '\n';
  print_help(err);
  return 1;
}

void FlagTable::print_help(std::ostream& os) const {
  os << "usage: " << program_ << ' ' << synopsis_ << '\n';
  for (const auto& f : flags_) {
    std::string head = f.name;
    if (!f.metavar.empty()) head += ' ' + f.metavar;
    // Help texts start in one column; a longer head gets two spaces.
    head.resize(std::max<std::size_t>(head.size() + 2, 17), ' ');
    os << "  " << head << f.help << '\n';
  }
  if (!epilog_.empty()) os << epilog_ << '\n';
}

FlagTable::Flag* FlagTable::find(std::string_view name) {
  for (auto& f : flags_)
    if (f.name == name) return &f;
  return nullptr;
}

}  // namespace iddq::support
