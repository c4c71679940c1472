// Reference .mws writer and parser for the scene_io tests.
//
// These are the original iostream implementations: records formatted with
// `os << std::setprecision(17)` and parsed one `std::istringstream` per line
// with `>>`.  src/md/scene_io.cpp replaced them with std::to_chars /
// std::from_chars; the tests hold the new code to these byte for byte
// (writer) and bit for bit (parser).
#pragma once

#include <span>
#include <string>
#include <vector>

#include "md/system.hpp"

namespace mwx::md::oracle {

// The setprecision(17) iostream writer, serial ("mws 1" / "mws 2").
std::string scene_text(const MolecularSystem& sys);
std::string checkpoint_text(const MolecularSystem& sys, std::span<const Vec3> nlist_ref);

// The istringstream-per-line parser.  Throws ContractError on malformed
// input, exactly as the original did.  `misread` (optional) receives why an
// accepted input was read other than token by token — a number that ended
// inside its token ("1.5" in an integer field reads 1, then ".5" as the next
// field), trailing text after the last field, or a literal below the
// smallest subnormal read as zero — and stays empty otherwise.
MolecularSystem load_scene(const std::string& text, std::vector<Vec3>* nlist_ref = nullptr,
                           std::string* misread = nullptr);

}  // namespace mwx::md::oracle
