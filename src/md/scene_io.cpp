#include "md/scene_io.hpp"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <istream>
#include <optional>
#include <ostream>
#include <system_error>
#include <type_traits>

#include "common/require.hpp"
#include "parallel/chunked.hpp"

namespace mwx::md {

namespace {

// ---- Writer ----------------------------------------------------------------

// The longest number texts: "-1.2345678901234567e-308" (%.17g) and
// "-2147483648".
constexpr std::size_t kMaxDoubleChars = 24;
constexpr std::size_t kMaxIntChars = 11;
constexpr std::size_t kNumberChars = 32;  // put()'s buffer holds either

// Longest "atom" record (2 ints, 7 doubles) and "acc"/"nref" record (3
// doubles), newline included.  A chunk reserves its records' worst case up
// front, so it allocates once instead of regrowing (and re-copying) its text.
constexpr std::size_t kMaxAtomRecord = 5 + 2 * (1 + kMaxIntChars) + 7 * (1 + kMaxDoubleChars);
constexpr std::size_t kMaxVec3Record = 5 + 3 * (1 + kMaxDoubleChars);

void put(std::string& out, std::string_view s) { out.append(s); }

template <typename T>
  requires std::is_same_v<T, int> || std::is_same_v<T, double>
void put(std::string& out, T v) {
  char buf[kNumberChars];
  std::to_chars_result r;
  if constexpr (std::is_same_v<T, double>) {
    r = std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general, 17);
  } else {
    r = std::to_chars(buf, buf + sizeof buf, v);
  }
  out.append(buf, r.ptr);
}

// Appends "<kind> <f1> <f2> ...\n".
template <typename... Fields>
void put_record(std::string& out, std::string_view kind, const Fields&... fields) {
  out.append(kind);
  ((out.push_back(' '), put(out, fields)), ...);
  out.push_back('\n');
}

// One chunk's share of the per-atom records, one string per section.
struct RecordChunk {
  std::string atoms, acc, nref;
};

// Writes `sys` as v1 text, or as a v2 checkpoint with `nlist_ref`.
// Atoms are written in external-ID (creation) order and bonds reference
// external IDs, so a scene saved after any number of Morton reorders is
// byte-identical to the same scene saved before them.  load_scene assigns
// external ID == index, closing the round trip.
std::string format_text(const MolecularSystem& sys, bool checkpoint,
                        std::span<const Vec3> nlist_ref, parallel::FixedThreadPool* pool,
                        int n_chunks) {
  std::string head = checkpoint ? "mws 2\n" : "mws 1\n";
  const Box& box = sys.box();
  put_record(head, "box", box.lo.x, box.lo.y, box.lo.z, box.hi.x, box.hi.y, box.hi.z);
  for (int t = 0; t < sys.types().n(); ++t) {
    const AtomType& ty = sys.types().at(t);
    put_record(head, "type", std::string_view(ty.name), ty.mass, ty.lj_epsilon, ty.lj_sigma);
  }

  std::vector<RecordChunk> chunks(static_cast<std::size_t>(std::max(1, n_chunks)));
  parallel::for_chunks(pool, n_chunks, sys.n_atoms(), [&](int k, long long b, long long e) {
    RecordChunk& out = chunks[static_cast<std::size_t>(k)];
    const auto count = static_cast<std::size_t>(e - b);
    out.atoms.reserve(count * kMaxAtomRecord);
    if (checkpoint) {
      out.acc.reserve(count * kMaxVec3Record);
      out.nref.reserve(count * kMaxVec3Record);
    }
    for (long long ext = b; ext < e; ++ext) {
      const int i = sys.index_of_external(static_cast<int>(ext));
      const Vec3& p = sys.positions()[static_cast<std::size_t>(i)];
      const Vec3& v = sys.velocities()[static_cast<std::size_t>(i)];
      put_record(out.atoms, "atom", sys.type_of(i), p.x, p.y, p.z, v.x, v.y, v.z, sys.charge(i),
                 sys.movable(i) ? 1 : 0);
      if (checkpoint) {
        const Vec3& a = sys.accelerations()[static_cast<std::size_t>(i)];
        const Vec3& r = nlist_ref[static_cast<std::size_t>(i)];
        put_record(out.acc, "acc", a.x, a.y, a.z);
        put_record(out.nref, "nref", r.x, r.y, r.z);
      }
    }
  });

  // Bond records stay serial: the bond lists are tiny next to a 100k–1M-atom
  // record block, and their order is list order, not external-ID order.
  std::string bonds;
  for (const RadialBond& b : sys.radial_bonds()) {
    put_record(bonds, "rbond", sys.external_id(b.a), sys.external_id(b.b), b.k, b.r0);
  }
  for (const AngularBond& b : sys.angular_bonds()) {
    put_record(bonds, "abond", sys.external_id(b.a), sys.external_id(b.b), sys.external_id(b.c),
               b.k, b.theta0);
  }
  for (const TorsionBond& b : sys.torsion_bonds()) {
    put_record(bonds, "tbond", sys.external_id(b.a), sys.external_id(b.b), sys.external_id(b.c),
               sys.external_id(b.d), b.k, b.n, b.phi0);
  }

  std::size_t total = head.size() + bonds.size();
  for (const RecordChunk& c : chunks) total += c.atoms.size() + c.acc.size() + c.nref.size();
  std::string text;
  text.reserve(total);
  // Each part is freed once appended, so the parts and the finished text are
  // not all resident at once.
  auto drain = [&text](std::string& part) {
    text += part;
    std::string().swap(part);
  };
  text += head;
  for (RecordChunk& c : chunks) drain(c.atoms);
  text += bonds;
  for (RecordChunk& c : chunks) drain(c.acc);
  for (RecordChunk& c : chunks) drain(c.nref);
  return text;
}

void write_all(std::ostream& os, const std::string& text) {
  os.write(text.data(), static_cast<std::streamsize>(text.size()));
}

// ---- Parser ----------------------------------------------------------------

// The classic-locale std::isspace set: ' ', \t, \n, \v, \f, \r.
constexpr bool is_space(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

constexpr bool is_digit(char c) { return c >= '0' && c <= '9'; }

// Cursor over the whitespace-separated tokens of one line.
class Tokens {
 public:
  explicit Tokens(std::string_view line) : rest_(line) {}

  // Next token; empty once the line is exhausted.
  std::string_view next() {
    skip_space();
    std::size_t e = 0;
    while (e < rest_.size() && !is_space(rest_[e])) ++e;
    const std::string_view tok = rest_.substr(0, e);
    rest_.remove_prefix(e);
    return tok;
  }

  // Reads exactly these fields and nothing after them.
  template <typename... Fields>
  bool read(Fields&... fields) {
    return (read_one(fields) && ...) && next().empty();
  }

 private:
  void skip_space() {
    std::size_t b = 0;
    while (b < rest_.size() && is_space(rest_[b])) ++b;
    rest_.remove_prefix(b);
  }

  bool read_one(std::string& s) {
    s = next();
    return !s.empty();
  }

  // One whole token as an int or a double: an optional sign, then a digit
  // (or '.' for a double), which keeps from_chars' inf/nan spellings out;
  // the number must end the token and lie inside the type's range.
  template <typename T>
  bool read_one(T& out) {
    skip_space();
    const char* first = rest_.data();
    const char* const last = first + rest_.size();
    const bool plus = first != last && *first == '+';
    if (plus) ++first;  // `>>` takes one leading '+'; from_chars takes none
    const char* lead = !plus && first != last && *first == '-' ? first + 1 : first;
    if (lead == last || !(is_digit(*lead) || (std::is_floating_point_v<T> && *lead == '.'))) {
      return false;
    }
    const auto [ptr, ec] = std::from_chars(first, last, out);
    if (ec != std::errc() || (ptr != last && !is_space(*ptr))) return false;
    rest_ = std::string_view(ptr, static_cast<std::size_t>(last - ptr));
    return true;
  }

  std::string_view rest_;
};

// Line-at-a-time .mws parser; the whole-text and stream entry points below
// only differ in where the lines come from.
class SceneParser {
 public:
  void line(std::string_view line) {
    ++line_no_;
    if (line.empty() || line[0] == '#') return;
    Tokens in(line);
    const std::string_view kind = in.next();
    if (kind == "atom") {
      int type_id = 0, movable = 1;
      Vec3 p, v;
      double q = 0.0;
      if (!in.read(type_id, p.x, p.y, p.z, v.x, v.y, v.z, q, movable)) fail("malformed atom");
      add([&](MolecularSystem& s) { s.add_atom(type_id, p, v, q, movable != 0); });
    } else if (kind == "acc") {
      if (version_ != 2) fail("checkpoint record 'acc' in a version-1 scene");
      Vec3 a;
      if (!in.read(a.x, a.y, a.z)) fail("malformed acc");
      MolecularSystem& s = system();
      if (n_acc_ >= static_cast<std::size_t>(s.n_atoms())) fail("more acc records than atoms");
      s.accelerations()[n_acc_++] = a;
    } else if (kind == "nref") {
      if (version_ != 2) fail("checkpoint record 'nref' in a version-1 scene");
      Vec3 r;
      if (!in.read(r.x, r.y, r.z)) fail("malformed nref");
      if (refs_.size() >= static_cast<std::size_t>(system().n_atoms())) {
        fail("more nref records than atoms");
      }
      refs_.push_back(r);
    } else if (kind == "mws") {
      if (!in.read(version_) || (version_ != 1 && version_ != 2)) {
        fail("unsupported scene version");
      }
      header_seen_ = true;
    } else if (kind == "box") {
      Box b;
      if (!in.read(b.lo.x, b.lo.y, b.lo.z, b.hi.x, b.hi.y, b.hi.z)) fail("malformed box");
      box_ = b;
    } else if (kind == "type") {
      AtomType t;
      if (!in.read(t.name, t.mass, t.lj_epsilon, t.lj_sigma)) fail("malformed type");
      if (sys_.has_value()) fail("type after first atom");
      types_.add(std::move(t));
    } else if (kind == "rbond") {
      RadialBond b;
      if (!in.read(b.a, b.b, b.k, b.r0)) fail("malformed rbond");
      add([&](MolecularSystem& s) { s.add_radial_bond(b); });
    } else if (kind == "abond") {
      AngularBond b;
      if (!in.read(b.a, b.b, b.c, b.k, b.theta0)) fail("malformed abond");
      add([&](MolecularSystem& s) { s.add_angular_bond(b); });
    } else if (kind == "tbond") {
      TorsionBond b;
      if (!in.read(b.a, b.b, b.c, b.d, b.k, b.n, b.phi0)) fail("malformed tbond");
      add([&](MolecularSystem& s) { s.add_torsion_bond(b); });
    } else {
      fail("unknown record '" + std::string(kind) + "'");
    }
  }

  // Feeds every '\n'-terminated line of `text` and drops it from the front;
  // what remains is an unterminated tail.
  void lines(std::string_view& text) {
    for (std::size_t eol; (eol = text.find('\n')) != std::string_view::npos;) {
      line(text.substr(0, eol));
      text.remove_prefix(eol + 1);
    }
  }

  MolecularSystem finish(std::vector<Vec3>* nlist_ref) {
    line_no_ = 0;
    if (!header_seen_) fail("missing 'mws 1' header");
    if (!sys_.has_value()) fail("scene contains no atoms");
    const auto n_atoms = static_cast<std::size_t>(sys_->n_atoms());
    if (n_acc_ != 0 && n_acc_ != n_atoms) fail("checkpoint has fewer acc records than atoms");
    if (!refs_.empty() && refs_.size() != n_atoms) {
      fail("checkpoint has fewer nref records than atoms");
    }
    if (nlist_ref != nullptr) *nlist_ref = std::move(refs_);
    return std::move(*sys_);
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw ContractError("scene line " + std::to_string(line_no_) + ": " + why);
  }

  // Atom records must come after box+types; the system is constructed
  // lazily at the first atom/bond line.
  MolecularSystem& system() {
    if (!sys_.has_value()) {
      if (!box_.has_value()) fail("atom before box line");
      if (types_.n() == 0) fail("atom before any type line");
      sys_.emplace(types_, *box_);
    }
    return *sys_;
  }

  // Applies one record to the system, tagging its contract errors (unknown
  // type, atom outside the box, bad bond index) with the line number.
  template <typename Apply>
  void add(const Apply& apply) {
    MolecularSystem& s = system();
    try {
      apply(s);
    } catch (const ContractError& e) {
      fail(e.what());
    }
  }

  int line_no_ = 0;
  int version_ = 0;
  bool header_seen_ = false;
  std::optional<Box> box_;
  AtomTypeTable types_;
  std::optional<MolecularSystem> sys_;
  std::size_t n_acc_ = 0;
  std::vector<Vec3> refs_;
};

}  // namespace

std::string format_scene(const MolecularSystem& sys, parallel::FixedThreadPool* pool,
                         int n_chunks) {
  return format_text(sys, false, {}, pool, n_chunks);
}

std::string format_checkpoint(const MolecularSystem& sys, std::span<const Vec3> nlist_ref,
                              parallel::FixedThreadPool* pool, int n_chunks) {
  require(static_cast<int>(nlist_ref.size()) == sys.n_atoms(),
          "checkpoint needs one neighbor reference position per atom");
  return format_text(sys, true, nlist_ref, pool, n_chunks);
}

void save_scene(std::ostream& os, const MolecularSystem& sys) {
  write_all(os, format_scene(sys));
}

void save_checkpoint_scene(std::ostream& os, const MolecularSystem& sys,
                           std::span<const Vec3> nlist_ref) {
  write_all(os, format_checkpoint(sys, nlist_ref));
}

MolecularSystem load_scene(std::string_view text, std::vector<Vec3>* nlist_ref) {
  SceneParser parser;
  parser.lines(text);
  if (!text.empty()) parser.line(text);
  return parser.finish(nlist_ref);
}

// Reads fixed-size blocks and parses the complete lines in each, carrying a
// partial line over, so a stream is never copied whole.
MolecularSystem load_scene(std::istream& is, std::vector<Vec3>* nlist_ref) {
  constexpr std::size_t kBlock = std::size_t{1} << 16;
  SceneParser parser;
  std::string buf;
  for (;;) {
    const std::size_t carried = buf.size();
    buf.resize(carried + kBlock);
    is.read(buf.data() + carried, static_cast<std::streamsize>(kBlock));
    buf.resize(carried + static_cast<std::size_t>(is.gcount()));
    if (buf.size() == carried) break;
    std::string_view rest(buf);
    parser.lines(rest);
    buf.erase(0, buf.size() - rest.size());
  }
  if (!buf.empty()) parser.line(buf);
  return parser.finish(nlist_ref);
}

void save_scene_file(const std::string& path, const MolecularSystem& sys) {
  std::ofstream out(path);
  require(out.good(), "cannot open scene file for writing: " + path);
  save_scene(out, sys);
  require(out.good(), "failed writing scene file: " + path);
}

MolecularSystem load_scene_file(const std::string& path) {
  std::ifstream in(path);
  require(in.good(), "cannot open scene file: " + path);
  return load_scene(in);
}

}  // namespace mwx::md
