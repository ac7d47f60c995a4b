// Seeded mutation test for the file readers. Small valid .graph, .mesh and
// partition files are mutated with a fixed seed: byte flips, deleted or
// duplicated lines, numbers replaced by out-of-range, extreme, negative or
// float values, and truncation. Every mutant must either read back as a
// structure that passes validation or be rejected with a
// std::runtime_error that names the offending line (parse errors) or the
// problem (validation failures). No mutant may crash, and no single
// allocation may exceed what the bytes the reader has consumed so far can
// justify: this binary replaces the global operator new to check every
// request against a byte counter the input stream advances as the reader
// pulls characters, and refuses an over-budget request with bad_alloc
// instead of serving it.
#include <gtest/gtest.h>

#include <cctype>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <sstream>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <utility>
#include <vector>

#include "gen/mesh_gen.hpp"
#include "gen/weight_gen.hpp"
#include "graph/graph_io.hpp"
#include "mesh/mesh.hpp"
#include "support/random.hpp"

namespace {

/// Allocation accounting for the read under test. Single-threaded: the
/// readers run on the test thread only.
struct AllocBudget {
  bool armed = false;
  std::size_t consumed = 0;  ///< input bytes the reader has pulled
  std::size_t worst = 0;     ///< largest request over budget (0 = none)
  std::size_t worst_at = 0;  ///< bytes consumed when it happened
};
AllocBudget g_budget;

/// A request of n bytes is justified by `consumed` input bytes when
/// n <= kPerByte * consumed + kSlack: every element a reader stores comes
/// from at least one input byte, a growing vector at most doubles, and an
/// element is at most kMaxNcon 4-byte weights (a weightless vertex line
/// still stores ncon unit weights). kSlack covers fixed stream and string
/// bookkeeping.
constexpr std::size_t kPerByte = 128;
constexpr std::size_t kSlack = 4096;

}  // namespace

void* operator new(std::size_t n) {
  if (g_budget.armed && n > kPerByte * g_budget.consumed + kSlack) {
    if (n > g_budget.worst) {
      g_budget.worst = n;
      g_budget.worst_at = g_budget.consumed;
    }
    throw std::bad_alloc();
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
// Out of line, so the compiler never pairs an inlined free() with a
// new-expression at a call site.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace mcgp {
namespace {

/// Serves `data` one byte per underflow, advancing g_budget.consumed, so
/// the budget at every allocation is exactly what the reader has seen.
class CountingBuf : public std::streambuf {
 public:
  explicit CountingBuf(const std::string& data) : data_(data) {}

 protected:
  int_type underflow() override {
    if (pos_ >= data_.size()) return traits_type::eof();
    ch_ = data_[pos_++];
    g_budget.consumed = pos_;
    setg(&ch_, &ch_, &ch_ + 1);
    return traits_type::to_int_type(ch_);
  }

 private:
  const std::string& data_;
  std::size_t pos_ = 0;
  char ch_ = 0;
};

/// Run `read` on `text` under the allocation budget. Returns whether the
/// reader accepted it; a rejection must be a std::runtime_error whose
/// message satisfies `explains`.
template <class Read, class Explains>
bool read_mutant(const std::string& text, Read&& read, Explains&& explains) {
  CountingBuf buf(text);
  std::istream in(&buf);
  g_budget = AllocBudget{};
  g_budget.armed = true;
  bool accepted = true;
  std::string why;
  try {
    read(in);
  } catch (const std::runtime_error& e) {
    accepted = false;
    why = e.what();
  } catch (const std::bad_alloc&) {
    accepted = false;  // an over-budget request, reported below
  }
  g_budget.armed = false;
  EXPECT_EQ(g_budget.worst, 0u)
      << "allocation of " << g_budget.worst << " bytes after reading only "
      << g_budget.worst_at << " bytes of:\n"
      << text;
  if (!accepted && g_budget.worst == 0) {
    EXPECT_TRUE(explains(why)) << "unexplained rejection \"" << why
                               << "\" of:\n"
                               << text;
  }
  return accepted;
}

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.compare(0, prefix.size(), prefix) == 0;
}

/// "... at line <N>: <what>" with a non-empty <what>.
bool names_line(const std::string& msg) {
  const std::size_t at = msg.find(" at line ");
  if (at == std::string::npos) return false;
  std::size_t i = at + 9;
  const std::size_t digits = i;
  while (i < msg.size() && std::isdigit(static_cast<unsigned char>(msg[i]))) {
    ++i;
  }
  return i > digits && msg.compare(i, 2, ": ") == 0 && msg.size() > i + 2;
}

/// `prefix` followed by a non-empty description of the problem.
bool names_problem(const std::string& msg, const std::string& prefix) {
  return starts_with(msg, prefix) && msg.size() > prefix.size();
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

std::string join_lines(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& l : lines) out += l + '\n';
  return out;
}

/// Just past idx_t, the largest idx_t and nedges a header may declare
/// (sizing anything by them would blow the allocation budget), a
/// negative, and a float.
const char* const kHostile[] = {"2147483648", "2147483647", "1073741823",
                                "-1", "9e99"};
constexpr std::uint64_t kNumHostile = 5;

bool is_digit(char c) { return std::isdigit(static_cast<unsigned char>(c)); }

/// Start offsets of the decimal numbers in `s`.
std::vector<std::size_t> number_starts(const std::string& s) {
  std::vector<std::size_t> starts;
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (is_digit(s[i]) && (i == 0 || !is_digit(s[i - 1]))) starts.push_back(i);
  }
  return starts;
}

/// `s` with the number starting at offset b replaced by `value`.
std::string replace_number(const std::string& s, std::size_t b,
                           const char* value) {
  std::size_t e = b;
  while (e < s.size() && is_digit(s[e])) ++e;
  return s.substr(0, b) + value + s.substr(e);
}

/// One random mutation of `text`.
std::string mutate(const std::string& text, Rng& rng) {
  std::string s = text;
  if (s.empty()) return s;
  switch (rng.next_below(5)) {
    case 0: {  // flip one bit of one byte
      const std::size_t i = rng.next_below(s.size());
      s[i] = static_cast<char>(static_cast<unsigned char>(s[i]) ^
                               (1u << rng.next_below(8)));
      return s;
    }
    case 1: {  // delete a line
      std::vector<std::string> lines = split_lines(s);
      lines.erase(lines.begin() +
                  static_cast<std::ptrdiff_t>(rng.next_below(lines.size())));
      return join_lines(lines);
    }
    case 2: {  // duplicate a line
      std::vector<std::string> lines = split_lines(s);
      const std::size_t i = rng.next_below(lines.size());
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(i), lines[i]);
      return join_lines(lines);
    }
    case 3: {  // replace one number with a hostile one
      const std::vector<std::size_t> starts = number_starts(s);
      if (starts.empty()) return s;
      return replace_number(s, starts[rng.next_below(starts.size())],
                            kHostile[rng.next_below(kNumHostile)]);
    }
    default:  // truncate
      return s.substr(0, rng.next_below(s.size()));
  }
}

/// Every hostile value in place of every number on the first line (the
/// header counts, where one number claims the most), then `count` random
/// mutants carrying one to three mutations each.
std::vector<std::string> mutants(const std::string& seed_text, int count,
                                 std::uint64_t seed) {
  std::vector<std::string> out;
  for (const std::size_t b : number_starts(seed_text)) {
    if (b > seed_text.find('\n')) break;
    for (const char* value : kHostile) {
      out.push_back(replace_number(seed_text, b, value));
    }
  }
  Rng rng(seed);
  for (int i = 0; i < count; ++i) {
    std::string s = seed_text;
    const std::uint64_t n = 1 + rng.next_below(3);
    for (std::uint64_t j = 0; j < n; ++j) s = mutate(s, rng);
    out.push_back(std::move(s));
  }
  return out;
}

/// Read every mutant of `seed_text`; the mutations must produce both
/// accepted and rejected inputs.
template <class Read, class Explains>
void check_mutants(const std::string& seed_text, std::uint64_t seed,
                   Read&& read, Explains&& explains) {
  int accepted = 0;
  int rejected = 0;
  for (const std::string& text : mutants(seed_text, 400, seed)) {
    ++(read_mutant(text, read, explains) ? accepted : rejected);
  }
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
}

TEST(ReaderMutation, GraphReaderValidatesOrExplains) {
  // Two constraints and non-unit edge weights, so every field of the
  // format is present to be mutated.
  Graph g = grid2d(5, 5, 2);
  apply_type_s_weights(g, 2, 4, 0, 9, 17);
  for (idx_t v = 0; v < g.nvtxs; ++v) {
    for (idx_t e = g.xadj[to_size(v)]; e < g.xadj[to_size(v + 1)]; ++e) {
      g.adjwgt[to_size(e)] = 1 + (v + g.adjncy[to_size(e)]) % 3;
    }
  }
  std::ostringstream os;
  write_metis_graph(os, g);
  check_mutants(
      os.str(), 101,
      [](std::istream& in) { EXPECT_EQ(read_metis_graph(in).validate(), ""); },
      [](const std::string& msg) {
        return names_line(msg) || names_problem(msg, "METIS graph invalid: ") ||
               names_problem(msg, "edge count mismatch: ");
      });
}

TEST(ReaderMutation, MeshReaderValidatesOrExplains) {
  std::ostringstream os;
  write_metis_mesh(os, quad_mesh(4, 4));
  check_mutants(
      os.str(), 202,
      [](std::istream& in) { EXPECT_EQ(read_metis_mesh(in).validate(), ""); },
      [](const std::string& msg) {
        return names_line(msg) || names_problem(msg, "mesh invalid: ");
      });
}

TEST(ReaderMutation, PartitionReaderValidatesOrExplains) {
  constexpr idx_t kVtxs = 25;
  constexpr idx_t kParts = 4;
  std::vector<idx_t> part(to_size(kVtxs));
  for (idx_t v = 0; v < kVtxs; ++v) part[to_size(v)] = (v * 7) % kParts;
  std::ostringstream os;
  write_partition(os, part);
  check_mutants(
      os.str(), 303,
      [&](std::istream& in) {
        const std::vector<idx_t> r = read_partition(in, kVtxs, kParts);
        EXPECT_EQ(r.size(), to_size(kVtxs));
        for (const idx_t p : r) {
          EXPECT_GE(p, 0);
          EXPECT_LT(p, kParts);
        }
      },
      [](const std::string& msg) {
        return names_line(msg) || names_problem(msg, "partition has ") ||
               names_problem(msg, "partition entry ");
      });
}

}  // namespace
}  // namespace mcgp
