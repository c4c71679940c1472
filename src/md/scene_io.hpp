// Scene (de)serialization — the role of MW's scene files.
//
// Molecular Workbench loads its simulations from scene documents; this
// module provides the equivalent for the reproduction: a small line-based
// text format (".mws") that round-trips a MolecularSystem exactly —
// species, box, atoms (position/velocity/charge/mobility) and all three
// bond orders.
//
//   mws 1
//   box <lo.x> <lo.y> <lo.z> <hi.x> <hi.y> <hi.z>
//   type <name> <mass> <lj_epsilon_internal> <lj_sigma>
//   atom <type_id> <x> <y> <z> <vx> <vy> <vz> <charge> <movable>
//   rbond <a> <b> <k> <r0>
//   abond <a> <b> <c> <k> <theta0>
//   tbond <a> <b> <c> <d> <k> <n> <phi0>
//
// Lines beginning with '#' are comments.  Numbers are written with full
// round-trip precision (%.17g).
//
// Version 2 ("mws 2") is the *checkpoint* form: the same records plus one
// `acc <ax> <ay> <az>` and one `nref <x> <y> <z>` line per atom (in atom
// order).  `acc` carries the velocity-Verlet acceleration state — the
// predictor of the step after a restart consumes a(t), so restarting from
// positions and velocities alone is never bit-exact — and `nref` carries the
// neighbor list's reference-position snapshot, from which a restarted engine
// rebuilds the *exact* list (contents and row order) the checkpointed engine
// was using; rebuilding from current positions instead reorders force
// accumulation and diverges the trajectory (see Engine::restore_continuation).
// A v2 scene loaded as a plain scene (no nref receiver) is a valid ordinary
// starting point: accelerations are applied, the nref snapshot is dropped.
#pragma once

#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "md/system.hpp"

namespace mwx::parallel {
class FixedThreadPool;
}  // namespace mwx::parallel

namespace mwx::md {

// Returns `sys` in .mws form (version 1 — no checkpoint records).
//
// Numbers go through std::to_chars: doubles in chars_format::general at
// precision 17, which the standard defines as printf's %.17g — the bytes a
// setprecision(17) ostream writes — so the text is byte-stable and
// round-trips every double exactly.  With a pool, the per-atom records fan
// out over index-contiguous external-ID ranges, each chunk formatting into
// its own string, and the chunks are appended in chunk order into one string
// reserved to the exact total.  Record bytes depend only on the record's own
// fields, so the text is identical for every chunk count and for a null pool
// (SceneCache keys and checkpoint round-trips are unaffected).
[[nodiscard]] std::string format_scene(const MolecularSystem& sys,
                                       parallel::FixedThreadPool* pool = nullptr,
                                       int n_chunks = 1);

// Returns `sys` as an "mws 2" checkpoint: version-1 records plus per-atom
// acc/nref lines.  `nlist_ref` is the neighbor list's reference-position
// snapshot in *internal* index order (NeighborList::reference_positions());
// like every per-atom record it is written in external-ID order, so the
// checkpoint text is byte-stable across Morton reorders.  Chunked like
// format_scene (atom, acc and nref records all fan out in one pass).
[[nodiscard]] std::string format_checkpoint(const MolecularSystem& sys,
                                            std::span<const Vec3> nlist_ref,
                                            parallel::FixedThreadPool* pool = nullptr,
                                            int n_chunks = 1);

// Stream forms of the two writers above (same bytes).
void save_scene(std::ostream& os, const MolecularSystem& sys);
void save_checkpoint_scene(std::ostream& os, const MolecularSystem& sys,
                           std::span<const Vec3> nlist_ref);

// Parses .mws text (version 1 or 2); throws ContractError with a line number
// on malformed input.  When `nlist_ref` is non-null it receives the v2 nref
// snapshot (empty for v1 / plain v2 scenes); checkpoints written by
// format_checkpoint always carry exactly one acc and one nref per atom.
//
// Fields are whitespace-separated tokens (the std::isspace set, so CRLF text
// parses) read with std::from_chars.  A record must consist of exactly its
// fields, each a whole token: a number may carry one leading '+' or '-' and
// must be a finite decimal inside its type's range — inf, nan, hex, "1.5" in
// an integer field, literals that overflow or underflow a double, and
// trailing tokens are all rejected.  Lines beginning with '#' and empty lines
// are skipped.
MolecularSystem load_scene(std::string_view text, std::vector<Vec3>* nlist_ref = nullptr);

// Stream form: reads `is` to its end, then parses as above.
MolecularSystem load_scene(std::istream& is, std::vector<Vec3>* nlist_ref = nullptr);

// File-path conveniences.
void save_scene_file(const std::string& path, const MolecularSystem& sys);
MolecularSystem load_scene_file(const std::string& path);

}  // namespace mwx::md
