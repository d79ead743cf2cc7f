#pragma once
// Toolchain model — encodes Table II of the paper (compiler, flags,
// libraries, per system and per application) plus the two quantities the
// cost model consumes: a vectorisation-quality factor and whether the flag
// set enables fast-math style reassociation.

#include <string>
#include <string_view>
#include <vector>

namespace armstice::arch {

enum class CompilerVendor { fujitsu, intel, gnu, armclang, cray };

struct Toolchain {
    CompilerVendor vendor = CompilerVendor::gnu;
    std::string compiler;                ///< e.g. "Fujitsu 1.2.24"
    std::string flags;                   ///< verbatim Table II flags
    std::vector<std::string> libraries;  ///< verbatim Table II libraries
    /// Fraction of the vector unit a typical O3-compiled inner loop attains
    /// on this (compiler, architecture) pair; calibrated, see calibration.cpp.
    double vec_quality = 0.7;
    /// True when the Table II flag set includes -Kfast / -ffast-math /
    /// -ffp-contract=fast style options.
    bool fastmath = false;
};

/// Applications with a Table II entry.
inline constexpr const char* kToolchainApps[] = {"hpcg", "minikab", "nekbone",
                                                 "castep", "cosa", "opensbli"};

/// Return the Table II toolchain for (system, app). Systems that did not run
/// an app in the paper (e.g. OpenSBLI on A64FX has no Table II row; the paper
/// still reports results) fall back to the system's dominant toolchain.
/// Throws util::Error for unknown system names.
Toolchain toolchain_for(std::string_view system, std::string_view app);

} // namespace armstice::arch
