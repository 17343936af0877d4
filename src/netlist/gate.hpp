// Gate model: the vertex type of the circuit graph.
//
// The CUT is modelled as in the paper: a directed graph C = (G, T) where G is
// the set of gates and T the connections among them (section 2). Primary
// inputs are represented as gates of kind Input so that every signal has a
// defining vertex; they are *not* eligible for partitioning (only logic gates
// are grouped into BIC-sensor modules).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace iddq::netlist {

/// Dense gate identifier; index into Netlist::gates().
using GateId = std::uint32_t;

/// Sentinel for "no gate".
inline constexpr GateId kNoGate = static_cast<GateId>(-1);

/// Gate function, following the ISCAS85 .bench vocabulary.
enum class GateKind : std::uint8_t {
  kInput,  // primary input pad
  kBuf,
  kNot,
  kAnd,
  kNand,
  kOr,
  kNor,
  kXor,
  kXnor,
};

/// Number of distinct GateKind values (for table sizing).
inline constexpr std::size_t kGateKindCount = 9;

/// Lower-case .bench keyword for a kind ("input", "nand", ...).
[[nodiscard]] std::string_view to_string(GateKind kind);

/// Parses a .bench keyword (case-insensitive). Throws iddq::ParseError-free
/// variant: returns false when the keyword is unknown.
[[nodiscard]] bool gate_kind_from_string(std::string_view word, GateKind& out);

/// True for every kind except kInput.
[[nodiscard]] constexpr bool is_logic(GateKind kind) {
  return kind != GateKind::kInput;
}

/// A single vertex of the circuit graph.
struct Gate {
  GateKind kind = GateKind::kInput;
  std::string name;
  std::vector<GateId> fanins;
  std::vector<GateId> fanouts;

  [[nodiscard]] std::size_t fanout_count() const noexcept {
    return fanouts.size();
  }
};

}  // namespace iddq::netlist
