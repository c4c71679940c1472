// scene_io's to_chars writer and from_chars parser against the original
// iostream implementations (tests/scene_io_oracle.*): byte-identical text
// for every workload and chunk count, and a differential mutation fuzz of
// the parser — every input parses to the oracle's bits or throws
// ContractError, and the inputs the new parser rejects while the oracle
// accepted them are exactly the ones the oracle misread.
#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cstring>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/require.hpp"
#include "common/rng.hpp"
#include "md/engine.hpp"
#include "md/scene_io.hpp"
#include "parallel/thread_pool.hpp"
#include "scene_io_oracle.hpp"
#include "serve/scene_cache.hpp"
#include "workloads/workloads.hpp"

namespace mwx::md {
namespace {

struct Texts {
  std::string name, v1, v2;
};

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }
bool same_bits(const Vec3& a, const Vec3& b) {
  return same_bits(a.x, b.x) && same_bits(a.y, b.y) && same_bits(a.z, b.z);
}

// Bitwise equality of two parsed systems (doubles compared as bit patterns,
// so -0.0 and 0.0 differ).
bool same_system(const MolecularSystem& a, const MolecularSystem& b) {
  if (a.n_atoms() != b.n_atoms() || a.types().n() != b.types().n()) return false;
  if (!same_bits(a.box().lo, b.box().lo) || !same_bits(a.box().hi, b.box().hi)) return false;
  for (int t = 0; t < a.types().n(); ++t) {
    const AtomType& x = a.types().at(t);
    const AtomType& y = b.types().at(t);
    if (x.name != y.name || !same_bits(x.mass, y.mass) ||
        !same_bits(x.lj_epsilon, y.lj_epsilon) || !same_bits(x.lj_sigma, y.lj_sigma)) {
      return false;
    }
  }
  for (int i = 0; i < a.n_atoms(); ++i) {
    const auto k = static_cast<std::size_t>(i);
    if (!same_bits(a.positions()[k], b.positions()[k]) ||
        !same_bits(a.velocities()[k], b.velocities()[k]) ||
        !same_bits(a.accelerations()[k], b.accelerations()[k]) ||
        !same_bits(a.charge(i), b.charge(i)) || a.type_of(i) != b.type_of(i) ||
        a.movable(i) != b.movable(i)) {
      return false;
    }
  }
  if (a.radial_bonds().size() != b.radial_bonds().size() ||
      a.angular_bonds().size() != b.angular_bonds().size() ||
      a.torsion_bonds().size() != b.torsion_bonds().size()) {
    return false;
  }
  for (std::size_t k = 0; k < a.radial_bonds().size(); ++k) {
    const RadialBond& x = a.radial_bonds()[k];
    const RadialBond& y = b.radial_bonds()[k];
    if (x.a != y.a || x.b != y.b || !same_bits(x.k, y.k) || !same_bits(x.r0, y.r0)) return false;
  }
  for (std::size_t k = 0; k < a.angular_bonds().size(); ++k) {
    const AngularBond& x = a.angular_bonds()[k];
    const AngularBond& y = b.angular_bonds()[k];
    if (x.a != y.a || x.b != y.b || x.c != y.c || !same_bits(x.k, y.k) ||
        !same_bits(x.theta0, y.theta0)) {
      return false;
    }
  }
  for (std::size_t k = 0; k < a.torsion_bonds().size(); ++k) {
    const TorsionBond& x = a.torsion_bonds()[k];
    const TorsionBond& y = b.torsion_bonds()[k];
    if (x.a != y.a || x.b != y.b || x.c != y.c || x.d != y.d || x.n != y.n ||
        !same_bits(x.k, y.k) || !same_bits(x.phi0, y.phi0)) {
      return false;
    }
  }
  return true;
}

// v1 and v2 texts of every workload, the v2 form after a few steps so
// accelerations and the neighbor reference snapshot are populated.  The
// droplet runs with a Morton pass on every rebuild, so its internal order
// differs from external order.
std::vector<Texts> make_workload_texts(bool check_writer) {
  std::vector<std::pair<std::string, workloads::BenchmarkSpec>> specs;
  specs.emplace_back(
      "gas", workloads::BenchmarkSpec{"gas", workloads::make_lj_gas(256, 0.006, 300.0, 91), {}, ""});
  for (const char* name : {"salt", "nanocar", "Al-1000"}) {
    specs.emplace_back(name, workloads::make_benchmark(name, 5));
  }
  {
    workloads::BenchmarkSpec droplet{"droplet", workloads::make_droplet(3000, 110.0, 3), {}, ""};
    droplet.engine.reorder_interval = 1;
    droplet.engine.skin = 0.3;
    specs.emplace_back("droplet", std::move(droplet));
  }

  parallel::ThreadPoolConfig pool_cfg;
  pool_cfg.n_threads = 3;
  parallel::FixedThreadPool pool(pool_cfg);
  std::vector<Texts> out;
  for (auto& [name, spec] : specs) {
    EngineConfig cfg = spec.engine;
    cfg.n_threads = 2;
    Engine engine(spec.system, cfg);
    engine.run_native(pool, 6);
    const MolecularSystem& sys = engine.system();
    if (name == "droplet") {
      bool permuted = false;
      for (int ext = 0; ext < sys.n_atoms(); ++ext) permuted |= sys.index_of_external(ext) != ext;
      EXPECT_TRUE(permuted) << "the droplet was never Morton-reordered";
    }
    Texts t{name, oracle::scene_text(sys),
            oracle::checkpoint_text(sys, engine.neighbor_list().reference_positions())};
    if (check_writer) {
      EXPECT_EQ(t.v1, serve::scene_text(sys)) << name;
      EXPECT_EQ(t.v2, serve::checkpoint_text(engine)) << name;
      for (int chunks : {1, 2, 3, 8}) {
        EXPECT_EQ(t.v1, serve::scene_text(sys, &pool, chunks)) << name << " @" << chunks;
        EXPECT_EQ(t.v2, serve::checkpoint_text(engine, &pool, chunks)) << name << " @" << chunks;
      }
    }
    out.push_back(std::move(t));
  }
  pool.shutdown();
  return out;
}

// The same texts, made once for the parser tests.
const std::vector<Texts>& workload_texts() {
  static const std::vector<Texts> texts = make_workload_texts(/*check_writer=*/false);
  return texts;
}

TEST(SceneTextTest, WriterByteIdenticalToIostreamOracle) {
  const std::vector<Texts> texts = make_workload_texts(/*check_writer=*/true);
  EXPECT_EQ(texts.size(), 5u);
}

TEST(SceneTextTest, EdgeDoublesMatchOracleAndRoundTrip) {
  const double denorm_min = std::numeric_limits<double>::denorm_min();
  const std::vector<double> values = {
      -0.0,      0.0,     denorm_min, -denorm_min, DBL_MIN,  1e300, -1e300,  DBL_MAX,
      1.0,       -7.0,    12345678.0, 1e16,        1e17,     0.1,   1.0 / 3, 123456789012345678.0,
      1e-5,      2.5e-310};
  AtomTypeTable types;
  types.add({"Edge", 1.0 / 3, 0.1, 1.0});
  types.add({"Big", 1e300, denorm_min, 12345678.0});
  MolecularSystem sys(types, Box{{-DBL_MAX, -DBL_MAX, -DBL_MAX}, {DBL_MAX, DBL_MAX, DBL_MAX}});
  for (std::size_t k = 0; k < values.size(); ++k) {
    const double a = values[k];
    const double b = values[(k + 5) % values.size()];
    const double c = values[(k + 11) % values.size()];
    sys.add_atom(static_cast<int>(k % 2), {a, b, c}, {c, a, b}, b, true);
  }
  std::vector<Vec3> refs;
  for (std::size_t k = 0; k < values.size(); ++k) {
    refs.push_back({values[(k + 3) % values.size()], values[k], -values[k]});
    sys.accelerations()[k] = {values[(k + 7) % values.size()], -values[k], values[k]};
  }

  const std::string v1 = format_scene(sys);
  const std::string v2 = format_checkpoint(sys, refs);
  EXPECT_EQ(v1, oracle::scene_text(sys));
  EXPECT_EQ(v2, oracle::checkpoint_text(sys, refs));
  for (const char* needle : {" -0 ", " 4.9406564584124654e-324", " 1.0000000000000001e+300", " 1 ", " 1e+17",
                             " 10000000000000000", " 0.10000000000000001", " 12345678 ",
                             " 1.2345678901234568e+17", " 2.5000000000000171e-310"}) {
    EXPECT_NE(v1.find(needle), std::string::npos) << needle;
  }

  std::vector<Vec3> loaded_refs;
  const MolecularSystem loaded = load_scene(v2, &loaded_refs);
  EXPECT_TRUE(same_system(sys, loaded));
  ASSERT_EQ(loaded_refs.size(), refs.size());
  for (std::size_t k = 0; k < refs.size(); ++k) EXPECT_TRUE(same_bits(refs[k], loaded_refs[k]));
}

// ---- Differential parser fuzz -------------------------------------------------

enum class Verdict { BothAccept, BothReject, Tightened };

// Parses `text` with both parsers and checks they agree.  Returns which way.
Verdict differential(const std::string& text) {
  std::string misread;
  std::vector<Vec3> ref_nref;
  std::optional<MolecularSystem> expected;
  try {
    expected.emplace(oracle::load_scene(text, &ref_nref, &misread));
  } catch (const ContractError&) {
  }
  std::vector<Vec3> nref;
  std::optional<MolecularSystem> got;
  try {
    got.emplace(load_scene(text, &nref));
  } catch (const ContractError&) {
  }
  if (!expected.has_value()) {
    EXPECT_FALSE(got.has_value()) << "accepted what the oracle rejects:\n" << text;
    return Verdict::BothReject;
  }
  if (!got.has_value()) {
    EXPECT_FALSE(misread.empty()) << "rejected a well-formed input:\n" << text;
    return Verdict::Tightened;
  }
  EXPECT_TRUE(misread.empty()) << "accepted a misread (" << misread << "):\n" << text;
  EXPECT_TRUE(same_system(*expected, *got)) << text;
  EXPECT_EQ(ref_nref.size(), nref.size()) << text;
  for (std::size_t k = 0; k < std::min(nref.size(), ref_nref.size()); ++k) {
    EXPECT_TRUE(same_bits(ref_nref[k], nref[k])) << text;
  }
  return Verdict::BothAccept;
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t b = 0;
  for (std::size_t e; (e = text.find('\n', b)) != std::string::npos; b = e + 1) {
    lines.push_back(text.substr(b, e - b));
  }
  if (b < text.size()) lines.push_back(text.substr(b));
  return lines;
}

std::string join_lines(const std::vector<std::string>& lines, std::string_view eol = "\n") {
  std::string out;
  for (const std::string& l : lines) {
    out += l;
    out += eol;
  }
  return out;
}

// A small valid text from a workload's: the header, types and box, the first
// `k` atoms, the bonds among them and their acc/nref records.
std::string shrink(const std::string& text, int k) {
  std::vector<std::string> out;
  int atoms = 0, accs = 0, nrefs = 0;
  for (const std::string& line : split_lines(text)) {
    const std::string kind = line.substr(0, line.find(' '));
    if (kind == "atom" && atoms++ >= k) continue;
    if (kind == "acc" && accs++ >= k) continue;
    if (kind == "nref" && nrefs++ >= k) continue;
    if (kind == "rbond" || kind == "abond" || kind == "tbond") {
      const std::size_t n_ids = kind == "rbond" ? 2 : kind == "abond" ? 3 : 4;
      std::istringstream in(line.substr(6));
      bool inside = true;
      for (std::size_t i = 0; i < n_ids; ++i) {
        int id = 0;
        in >> id;
        inside &= id < k;
      }
      if (!inside) continue;
    }
    out.push_back(line);
  }
  return join_lines(out);
}

// Replaces field `field` (0 = the record kind) of the first line starting
// with `kind`.
std::string with_field(const std::string& text, const std::string& kind, int field,
                       const std::string& token) {
  std::vector<std::string> lines = split_lines(text);
  for (std::string& line : lines) {
    if (line.rfind(kind + " ", 0) != 0) continue;
    std::size_t b = 0;
    for (int f = 0; f < field; ++f) b = line.find(' ', b) + 1;
    const std::size_t e = std::min(line.find(' ', b), line.size());
    line.replace(b, e - b, token);
    break;
  }
  return join_lines(lines);
}

const std::vector<std::string> kTokens = {
    "+1",     "+0",         "+1.5",    "+-1",        "-+1",     "--1",   "inf",    "-inf",
    "nan",    "-nan",       "infinity", "INF",       "0x1p3",   "0x10",  "1e400",  "-1e400",
    "1e-400", "4.9e-324",   "1.5",     "1e5",        "1E5",     "1.",    ".5",     ".",
    "-",      "+",          "e5",      "1e",         "1e+",     "007",   "-0",     "2147483648",
    "-2147483649", "1,5",   "1.5.5",   "1e5.5",      "0",       "1",     "2",      "99999999999999999999"};
constexpr char kByteSet[] = "0123456789+-.eExXpP \t\r\v\f\n#abinfINF,\0\xff";
constexpr std::string_view kBytes{kByteSet, sizeof kByteSet - 1};  // keeps the '\0'

std::string mutate(std::string text, Rng& rng) {
  auto pick = [&rng](std::size_t n) { return static_cast<std::size_t>(rng.next() % n); };
  const int n_mut = 1 + static_cast<int>(pick(3));
  for (int m = 0; m < n_mut && !text.empty(); ++m) {
    const std::size_t at = pick(text.size());
    switch (pick(10)) {
      case 0:  // byte replace
        text[at] = kBytes[pick(kBytes.size())];
        break;
      case 1:  // byte insert
        text.insert(at, 1, kBytes[pick(kBytes.size())]);
        break;
      case 2:  // byte delete
        text.erase(at, 1);
        break;
      case 3:
      case 4: {  // token replace (or, for the last token of a line, append)
        std::size_t b = at;
        while (b > 0 && text[b - 1] != ' ' && text[b - 1] != '\n') --b;
        std::size_t e = at;
        while (e < text.size() && text[e] != ' ' && text[e] != '\n') ++e;
        const std::string& tok = kTokens[pick(kTokens.size())];
        if (pick(4) == 0 && e < text.size() && text[e] == '\n') {
          text.insert(e, " " + tok);  // trailing token
        } else {
          text.replace(b, e - b, tok);
        }
        break;
      }
      case 5: {  // token delete or duplicate (shifts the field count)
        std::size_t b = text.find(' ', at);
        if (b == std::string::npos) break;
        std::size_t e = b + 1;
        while (e < text.size() && text[e] != ' ' && text[e] != '\n') ++e;
        if (pick(2) == 0) {
          text.erase(b, e - b);
        } else {
          text.insert(e, text.substr(b, e - b));
        }
        break;
      }
      case 6: {  // line delete, duplicate or swap (shifts the record counts)
        std::vector<std::string> lines = split_lines(text);
        if (lines.empty()) break;
        const std::size_t i = pick(lines.size());
        const std::size_t j = pick(lines.size());
        switch (pick(3)) {
          case 0: lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(i)); break;
          case 1: lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(i), lines[j]); break;
          default: std::swap(lines[i], lines[j]); break;
        }
        text = join_lines(lines);
        break;
      }
      case 7: {  // separator from the std::isspace set
        const std::size_t sp = text.find(' ', at);
        if (sp != std::string::npos) text[sp] = " \t\v\f\r"[pick(5)];
        break;
      }
      case 8: {  // line endings, blank, whitespace-only and indented lines
        std::vector<std::string> lines = split_lines(text);
        const std::size_t i = pick(lines.size() + 1);
        switch (pick(4)) {
          case 0: text = join_lines(lines, "\r\n"); break;
          case 1: lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(i), ""); text = join_lines(lines); break;
          case 2: lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(i), " \t"); text = join_lines(lines); break;
          default:
            if (i < lines.size()) lines[i].insert(0, "  ");
            text = join_lines(lines);
            break;
        }
        break;
      }
      default: {  // header version
        static const char* const kHeaders[] = {"mws 1", "mws 2", "mws 3", "mws", "mws 1.5",
                                               "mws +2", "mws 2 x", "# mws 1"};
        const std::size_t eol = text.find('\n');
        text.replace(0, eol == std::string::npos ? text.size() : eol, kHeaders[pick(8)]);
        break;
      }
    }
  }
  return text;
}

TEST(SceneTextTest, ParserDifferentialMutationFuzz) {
  const std::vector<Texts>& texts = workload_texts();
  std::vector<std::string> seeds;
  for (const Texts& t : texts) {
    EXPECT_EQ(differential(t.v1), Verdict::BothAccept) << t.name;
    EXPECT_EQ(differential(t.v2), Verdict::BothAccept) << t.name;
    seeds.push_back(shrink(t.v1, 12));
    seeds.push_back(shrink(t.v2, 12));
  }

  Rng rng(0x5ce9e7e57ull);
  int counts[3] = {0, 0, 0};
  for (int round = 0; round < 300; ++round) {
    for (const std::string& seed : seeds) {
      const std::string input = mutate(seed, rng);
      ++counts[static_cast<int>(differential(input))];
      if (::testing::Test::HasFailure()) return;
    }
  }
  // A fuzz that only ever rejects (or only accepts) checks nothing.
  EXPECT_GT(counts[static_cast<int>(Verdict::BothAccept)], 100);
  EXPECT_GT(counts[static_cast<int>(Verdict::BothReject)], 100);
  EXPECT_GT(counts[static_cast<int>(Verdict::Tightened)], 10);
}

// Directed corpus: the spellings the fuzz must cover, each with the verdict
// it has to reach.
TEST(SceneTextTest, ParserDirectedCases) {
  // The smallest nanocar prefix that carries a bond record.
  std::string seed;
  for (int k = 8; seed.find("\nrbond ") == std::string::npos; k += 8) {
    ASSERT_LT(k, 2000);
    seed = shrink(workload_texts()[2].v2, k);
  }
  ASSERT_EQ(differential(seed), Verdict::BothAccept);

  struct Case {
    std::string kind;
    int field;
    std::string token;
    Verdict verdict;
  };
  const std::vector<Case> cases = {
      // Accepted by both, to the same bits.
      {"atom", 4, "+1.5", Verdict::BothAccept},  // leading '+'
      {"atom", 1, "+0", Verdict::BothAccept},
      {"atom", 5, "4.9e-324", Verdict::BothAccept},
      {"atom", 5, "1.", Verdict::BothAccept},
      {"atom", 5, ".5", Verdict::BothAccept},
      {"atom", 5, "-0", Verdict::BothAccept},
      {"atom", 1, "00", Verdict::BothAccept},
      {"atom", 5, "1E-1", Verdict::BothAccept},
      // Rejected by both.
      {"atom", 5, "inf", Verdict::BothReject},
      {"atom", 5, "-inf", Verdict::BothReject},
      {"atom", 5, "nan", Verdict::BothReject},
      {"atom", 8, "infinity", Verdict::BothReject},
      {"acc", 3, "nan", Verdict::BothReject},  // last field
      {"atom", 5, "0x1p3", Verdict::BothReject},
      {"atom", 5, "1e400", Verdict::BothReject},  // out of range
      {"nref", 3, "-1e400", Verdict::BothReject},
      {"atom", 5, "+-1", Verdict::BothReject},
      {"atom", 1, "2147483648", Verdict::BothReject},
      // Accepted by the oracle only because it misread them; rejected now.
      {"atom", 9, "1.5", Verdict::Tightened},   // "1.5" in an integer field reads 1
      {"atom", 9, "0x1", Verdict::Tightened},   // hex reads 0: the atom became fixed
      {"atom", 9, "1 7", Verdict::Tightened},   // trailing token after the last field
      {"rbond", 4, "1 x", Verdict::Tightened},  // trailing token after the last field
      {"atom", 6, "1e-400", Verdict::Tightened},  // underflow read as zero
      {"atom", 6, "1e5.5", Verdict::Tightened},   // reads 1e5, then ".5" as the next field
      {"mws", 1, "2.5", Verdict::Tightened},      // version 2, then ".5" ignored
  };
  for (const Case& c : cases) {
    const std::string text = with_field(seed, c.kind, c.field, c.token);
    ASSERT_NE(text, seed) << c.kind << " " << c.field;
    EXPECT_EQ(differential(text), c.verdict) << c.kind << " field " << c.field << " = " << c.token;
  }

  // Whitespace: CRLF endings, every std::isspace separator, indentation.
  std::vector<std::string> lines = split_lines(seed);
  EXPECT_EQ(differential(join_lines(lines, "\r\n")), Verdict::BothAccept);
  for (const char sep : {'\t', '\v', '\f', '\r'}) {
    std::string text = seed;
    for (char& ch : text) {
      if (ch == ' ') ch = sep;
    }
    EXPECT_EQ(differential(text), Verdict::BothAccept) << static_cast<int>(sep);
  }
  for (std::string& l : lines) l.insert(0, " \t");
  EXPECT_EQ(differential(join_lines(lines)), Verdict::BothAccept);
  // A whitespace-only line (including a CRLF blank line) is no record.
  EXPECT_EQ(differential(seed + "\r\n"), Verdict::BothReject);
  EXPECT_EQ(differential(seed + " \n"), Verdict::BothReject);
  EXPECT_EQ(differential(seed + "\n"), Verdict::BothAccept);  // empty line: skipped
}

TEST(SceneTextTest, StreamAndViewParsersAgreeAcrossBlockBoundaries) {
  // The stream form parses in 64 KiB blocks; a 1000-atom checkpoint spans
  // several, so records straddle block boundaries.
  const Texts& al = workload_texts()[3];
  ASSERT_GT(al.v2.size(), std::size_t{3} << 16);
  std::istringstream is(al.v2);
  std::vector<Vec3> a_refs, b_refs;
  const MolecularSystem a = load_scene(is, &a_refs);
  const MolecularSystem b = load_scene(std::string_view(al.v2), &b_refs);
  EXPECT_TRUE(same_system(a, b));
  ASSERT_EQ(a_refs.size(), b_refs.size());
  for (std::size_t k = 0; k < a_refs.size(); ++k) EXPECT_TRUE(same_bits(a_refs[k], b_refs[k]));
  // An unterminated last line is still a line.
  std::istringstream cut(al.v2.substr(0, al.v2.size() - 1));
  EXPECT_TRUE(same_system(a, load_scene(cut)));
}

TEST(SceneTextTest, ContentHashIsXxh64) {
  // Published XXH64 (seed 0) vectors, plus one input long enough for the
  // four-lane loop and every tail path.
  EXPECT_EQ(serve::SceneCache::content_hash(""), 0xEF46DB3751D8E999ull);
  EXPECT_EQ(serve::SceneCache::content_hash("a"), 0xD24EC4F1A98C6E5Bull);
  EXPECT_EQ(serve::SceneCache::content_hash("abc"), 0x44BC2CF5AD770999ull);
  std::string long_text(32 + 8 + 4 + 3, 'x');
  const std::uint64_t h = serve::SceneCache::content_hash(long_text);
  for (std::size_t k = 0; k < long_text.size(); ++k) {
    std::string flipped = long_text;
    flipped[k] = 'y';
    EXPECT_NE(serve::SceneCache::content_hash(flipped), h) << "byte " << k;
  }
}

}  // namespace
}  // namespace mwx::md
