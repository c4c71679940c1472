#include "scene_io_oracle.hpp"

#include <cctype>
#include <iomanip>
#include <optional>
#include <sstream>

#include "common/require.hpp"

namespace mwx::md::oracle {

namespace {

void save_scene_body(std::ostream& os, const MolecularSystem& sys) {
  os << std::setprecision(17);
  const Box& box = sys.box();
  os << "box " << box.lo.x << ' ' << box.lo.y << ' ' << box.lo.z << ' ' << box.hi.x << ' '
     << box.hi.y << ' ' << box.hi.z << '\n';
  for (int t = 0; t < sys.types().n(); ++t) {
    const AtomType& ty = sys.types().at(t);
    os << "type " << ty.name << ' ' << ty.mass << ' ' << ty.lj_epsilon << ' ' << ty.lj_sigma
       << '\n';
  }
  for (int ext = 0; ext < sys.n_atoms(); ++ext) {
    const int i = sys.index_of_external(ext);
    const Vec3& p = sys.positions()[static_cast<std::size_t>(i)];
    const Vec3& v = sys.velocities()[static_cast<std::size_t>(i)];
    os << "atom " << sys.type_of(i) << ' ' << p.x << ' ' << p.y << ' ' << p.z << ' ' << v.x
       << ' ' << v.y << ' ' << v.z << ' ' << sys.charge(i) << ' ' << (sys.movable(i) ? 1 : 0)
       << '\n';
  }
  for (const RadialBond& b : sys.radial_bonds()) {
    os << "rbond " << sys.external_id(b.a) << ' ' << sys.external_id(b.b) << ' ' << b.k << ' '
       << b.r0 << '\n';
  }
  for (const AngularBond& b : sys.angular_bonds()) {
    os << "abond " << sys.external_id(b.a) << ' ' << sys.external_id(b.b) << ' '
       << sys.external_id(b.c) << ' ' << b.k << ' ' << b.theta0 << '\n';
  }
  for (const TorsionBond& b : sys.torsion_bonds()) {
    os << "tbond " << sys.external_id(b.a) << ' ' << sys.external_id(b.b) << ' '
       << sys.external_id(b.c) << ' ' << sys.external_id(b.d) << ' ' << b.k << ' ' << b.n
       << ' ' << b.phi0 << '\n';
  }
}

// Watches one line's `>>` extractions without changing what they read.
class Observer {
 public:
  Observer(std::istringstream& in, const std::string& line, std::string* misread)
      : in_(in), line_(line), misread_(misread) {}

  template <typename T>
  bool get(T& v) {
    const std::size_t before = position();
    if (!(in_ >> v)) return false;
    const std::size_t after = position();
    if constexpr (std::is_floating_point_v<T>) {
      if (v == 0.0) check_underflow(before, after);
    }
    if (after < line_.size() && std::isspace(static_cast<unsigned char>(line_[after])) == 0) {
      note("a number ended inside its token");
    }
    return true;
  }

  // After a record's last field: anything but whitespace is ignored text.
  void end_of_record() {
    std::string rest;
    if (in_ >> rest) note("trailing text after the last field");
  }

 private:
  // Read offset; only called while the stream is good or at its end, where
  // tellg would not disturb the stream state.
  std::size_t position() const {
    return in_.eof() ? line_.size() : static_cast<std::size_t>(in_.tellg());
  }

  // A zero read from a mantissa with a nonzero digit is an underflow.
  void check_underflow(std::size_t begin, std::size_t end) {
    for (std::size_t k = begin; k < end; ++k) {
      if (line_[k] == 'e' || line_[k] == 'E') return;
      if (line_[k] >= '1' && line_[k] <= '9') {
        note("a literal below the smallest subnormal read as zero");
        return;
      }
    }
  }

  void note(const char* why) {
    if (misread_ != nullptr && misread_->empty()) *misread_ = why;
  }

  std::istringstream& in_;
  const std::string& line_;
  std::string* misread_;
};

}  // namespace

std::string scene_text(const MolecularSystem& sys) {
  std::ostringstream os;
  os << "mws 1\n";
  save_scene_body(os, sys);
  return os.str();
}

std::string checkpoint_text(const MolecularSystem& sys, std::span<const Vec3> nlist_ref) {
  std::ostringstream os;
  os << "mws 2\n";
  save_scene_body(os, sys);
  for (int ext = 0; ext < sys.n_atoms(); ++ext) {
    const Vec3& a = sys.accelerations()[static_cast<std::size_t>(sys.index_of_external(ext))];
    os << "acc " << a.x << ' ' << a.y << ' ' << a.z << '\n';
  }
  for (int ext = 0; ext < sys.n_atoms(); ++ext) {
    const Vec3& r = nlist_ref[static_cast<std::size_t>(sys.index_of_external(ext))];
    os << "nref " << r.x << ' ' << r.y << ' ' << r.z << '\n';
  }
  return os.str();
}

MolecularSystem load_scene(const std::string& text, std::vector<Vec3>* nlist_ref,
                           std::string* misread) {
  if (misread != nullptr) misread->clear();
  std::istringstream is(text);
  std::string line;
  int line_no = 0;
  auto fail = [&](const std::string& why) {
    throw ContractError("scene line " + std::to_string(line_no) + ": " + why);
  };

  std::optional<Box> box;
  AtomTypeTable types;
  std::optional<MolecularSystem> sys;
  bool header_seen = false;
  int version = 0;
  std::size_t n_acc = 0;
  std::vector<Vec3> refs;

  auto ensure_system = [&]() -> MolecularSystem& {
    if (!sys.has_value()) {
      if (!box.has_value()) fail("atom before box line");
      if (types.n() == 0) fail("atom before any type line");
      sys.emplace(types, *box);
    }
    return *sys;
  };

  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream in(line);
    Observer o(in, line, misread);
    std::string kind;
    in >> kind;
    if (kind == "mws") {
      if (!o.get(version) || (version != 1 && version != 2)) {
        fail("unsupported scene version");
      }
      header_seen = true;
    } else if (kind == "acc") {
      if (version != 2) fail("checkpoint record 'acc' in a version-1 scene");
      Vec3 a;
      if (!(o.get(a.x) && o.get(a.y) && o.get(a.z))) fail("malformed acc");
      MolecularSystem& s = ensure_system();
      if (n_acc >= static_cast<std::size_t>(s.n_atoms())) fail("more acc records than atoms");
      s.accelerations()[n_acc++] = a;
    } else if (kind == "nref") {
      if (version != 2) fail("checkpoint record 'nref' in a version-1 scene");
      Vec3 r;
      if (!(o.get(r.x) && o.get(r.y) && o.get(r.z))) fail("malformed nref");
      if (refs.size() >= static_cast<std::size_t>(ensure_system().n_atoms())) {
        fail("more nref records than atoms");
      }
      refs.push_back(r);
    } else if (kind == "box") {
      Box b;
      if (!(o.get(b.lo.x) && o.get(b.lo.y) && o.get(b.lo.z) && o.get(b.hi.x) &&
            o.get(b.hi.y) && o.get(b.hi.z))) {
        fail("malformed box");
      }
      box = b;
    } else if (kind == "type") {
      AtomType t;
      if (!((in >> t.name) && o.get(t.mass) && o.get(t.lj_epsilon) && o.get(t.lj_sigma))) {
        fail("malformed type");
      }
      if (sys.has_value()) fail("type after first atom");
      types.add(std::move(t));
    } else if (kind == "atom") {
      int type_id = 0, movable = 1;
      Vec3 p, v;
      double q = 0.0;
      if (!(o.get(type_id) && o.get(p.x) && o.get(p.y) && o.get(p.z) && o.get(v.x) &&
            o.get(v.y) && o.get(v.z) && o.get(q) && o.get(movable))) {
        fail("malformed atom");
      }
      try {
        ensure_system().add_atom(type_id, p, v, q, movable != 0);
      } catch (const ContractError& e) {
        fail(e.what());
      }
    } else if (kind == "rbond") {
      RadialBond b;
      if (!(o.get(b.a) && o.get(b.b) && o.get(b.k) && o.get(b.r0))) fail("malformed rbond");
      try {
        ensure_system().add_radial_bond(b);
      } catch (const ContractError& e) {
        fail(e.what());
      }
    } else if (kind == "abond") {
      AngularBond b;
      if (!(o.get(b.a) && o.get(b.b) && o.get(b.c) && o.get(b.k) && o.get(b.theta0))) {
        fail("malformed abond");
      }
      try {
        ensure_system().add_angular_bond(b);
      } catch (const ContractError& e) {
        fail(e.what());
      }
    } else if (kind == "tbond") {
      TorsionBond b;
      if (!(o.get(b.a) && o.get(b.b) && o.get(b.c) && o.get(b.d) && o.get(b.k) && o.get(b.n) &&
            o.get(b.phi0))) {
        fail("malformed tbond");
      }
      try {
        ensure_system().add_torsion_bond(b);
      } catch (const ContractError& e) {
        fail(e.what());
      }
    } else {
      fail("unknown record '" + kind + "'");
    }
    o.end_of_record();
  }
  if (!header_seen) {
    line_no = 0;
    fail("missing 'mws 1' header");
  }
  if (!sys.has_value()) {
    line_no = 0;
    fail("scene contains no atoms");
  }
  const auto n_atoms = static_cast<std::size_t>(sys->n_atoms());
  if (n_acc != 0 && n_acc != n_atoms) {
    line_no = 0;
    fail("checkpoint has fewer acc records than atoms");
  }
  if (!refs.empty() && refs.size() != n_atoms) {
    line_no = 0;
    fail("checkpoint has fewer nref records than atoms");
  }
  if (nlist_ref != nullptr) *nlist_ref = std::move(refs);
  return std::move(*sys);
}

}  // namespace mwx::md::oracle
