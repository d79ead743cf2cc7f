#include "arch/toolchain.hpp"

#include "util/error.hpp"

#include <map>

namespace armstice::arch {
namespace {

// Vectorisation quality per (vendor, system) at O3: the fraction of peak
// vector throughput a typical compiled loop nest achieves. These are the
// toolchain-level inputs to CostModel::phase_time; application-specific
// residual efficiency lives in calibration.cpp. Anchors:
//  - Fujitsu 1.2.x without -Kfast barely vectorises reduction-heavy Fortran
//    (Table VI: Nekbone jumps 1.78x with -Kfast) -> low base, higher fast.
//  - Intel 17/19 on its own hardware is the mature reference -> 0.80.
//  - GCC 8 on ThunderX2 with NEON is solid but narrow -> 0.75.
//  - Arm Clang 19/20 similar to GCC on TX2 -> 0.75.
//  - GCC/Cray on x86 slightly below Intel -> 0.70.
constexpr double kVqFujitsuO3 = 0.35;
constexpr double kVqFujitsuFast = 0.62;
constexpr double kVqIntel = 0.80;
constexpr double kVqGnuX86 = 0.70;
constexpr double kVqGnuArm = 0.75;
constexpr double kVqArmClang = 0.75;
constexpr double kVqCray = 0.75;

Toolchain make(CompilerVendor vendor, std::string compiler, std::string flags,
               std::vector<std::string> libs, double vq, bool fastmath) {
    Toolchain tc;
    tc.vendor = vendor;
    tc.compiler = std::move(compiler);
    tc.flags = std::move(flags);
    tc.libraries = std::move(libs);
    tc.vec_quality = vq;
    tc.fastmath = fastmath;
    return tc;
}

// Table II, transcribed. Key: system + "/" + app.
const std::map<std::string, Toolchain>& table2() {
    static const std::map<std::string, Toolchain> t = {
        // ---- HPCG ----
        {"A64FX/hpcg",
         make(CompilerVendor::fujitsu, "Fujitsu 1.2.24", "-Nnoclang -O3 -Kfast",
              {"Fujitsu MPI"}, kVqFujitsuFast, true)},
        {"ARCHER/hpcg",
         make(CompilerVendor::intel, "Intel 17", "-O3", {"Cray MPI"}, kVqIntel, false)},
        {"Cirrus/hpcg",
         make(CompilerVendor::intel, "Intel 17", "-O3 -cxx=icpc -qopt-zmm-usage=high",
              {"HPE MPI"}, kVqIntel, false)},
        {"EPCC NGIO/hpcg",
         make(CompilerVendor::intel, "Intel 19",
              "-O3 -cxx=icpc -xCore-AVX512 -qopt-zmm-usage=high", {"Intel MPI"},
              kVqIntel, false)},
        {"Fulhame/hpcg",
         make(CompilerVendor::gnu, "GCC 8.2",
              "-O3 -ffast-math -funroll-loops -std=c++11 -ffp-contract=fast -mcpu=native",
              {"OpenMPI"}, kVqGnuArm, true)},
        // ---- minikab ----
        {"A64FX/minikab",
         make(CompilerVendor::fujitsu, "Fujitsu 1.2.25",
              "-O3 -Kopenmp -Kfast -KA64FX -KSVE -KARMV8_3_A -Kassume=noshortloop "
              "-Kassume=memory_bandwidth -Kassume=notime_saving_compilation",
              {"Fujitsu MPI"}, kVqFujitsuFast, true)},
        {"EPCC NGIO/minikab",
         make(CompilerVendor::intel, "Intel 19", "-O3 -warn all",
              {"Intel MPI library"}, kVqIntel, false)},
        {"Fulhame/minikab",
         make(CompilerVendor::armclang, "Arm Clang 20", "-O3 -armpl -mcpu=native -fopenmp",
              {"OpenMPI", "ArmPL"}, kVqArmClang, false)},
        // ---- nekbone ----
        {"A64FX/nekbone",
         make(CompilerVendor::fujitsu, "Fujitsu 1.2.24",
              "-CcdRR8 -Cpp -Fixed -O3 -Kfast -KA64FX -KSVE -KARMV8_3_A "
              "-Kassume=noshortloop -Kassume=memory_bandwidth "
              "-Kassume=notime_saving_compilation",
              {"Fujitsu MPI"}, kVqFujitsuFast, true)},
        {"ARCHER/nekbone",
         make(CompilerVendor::gnu, "GCC 6.3", "-fdefault-real-8 -O3",
              {"Cray MPICH2 library 7.5.5"}, kVqGnuX86, false)},
        {"EPCC NGIO/nekbone",
         make(CompilerVendor::intel, "Intel 19.03", "-fdefault-real-8 -O3",
              {"Intel MPI 19.3"}, kVqIntel, false)},
        {"Fulhame/nekbone",
         make(CompilerVendor::gnu, "GNU 8.2", "-fdefault-real-8 -O3",
              {"OpenMPI 4.0.2"}, kVqGnuArm, false)},
        // ---- CASTEP ----
        {"A64FX/castep",
         make(CompilerVendor::fujitsu, "Fujitsu 1.2.24", "-O3",
              {"Fujitsu MPI", "Fujitsu SSL2", "FFTW 3.3.3"}, kVqFujitsuO3, false)},
        {"ARCHER/castep",
         make(CompilerVendor::gnu, "GCC 6.2",
              "-fconvert=big-endian -fno-realloc-lhs -fopenmp -fPIC -O3 "
              "-funroll-loops -ftree-loop-distribution -g -fbacktrace",
              {"Cray MPICH2 library 7.5.5", "Intel MKL 17.0.0.098", "FFTW 3.3.4.11"},
              kVqGnuX86, false)},
        {"Cirrus/castep",
         make(CompilerVendor::intel, "Intel 17", "-O3 -debug minimal -traceback -xHost",
              {"SGI MPT 2.16", "Intel MKL 17", "FFTW 3.3.5"}, kVqIntel, false)},
        {"EPCC NGIO/castep",
         make(CompilerVendor::intel, "Intel 17", "-O3 -debug minimal -traceback -xHost",
              {"Intel MPI library 17.4", "Intel MKL 17.4", "FFTW 3.3.3"}, kVqIntel,
              false)},
        {"Fulhame/castep",
         make(CompilerVendor::gnu, "GCC 8.2",
              "-fconvert=big-endian -fno-realloc-lhs -fopenmp -fPIC -O3 "
              "-funroll-loops -ftree-loop-distribution -g -fbacktrace",
              {"HPE MPT MPI library (v2.20)", "ARM Performance Libraries 19.0.0",
               "FFTW 3.3.8"},
              kVqGnuArm, false)},
        // ---- COSA ----
        {"A64FX/cosa",
         make(CompilerVendor::fujitsu, "Fujitsu 1.2.24",
              "-X9 -Fwide -Cfpp -Cpp -m64 -Ad -O3 -Kfast -KA64FX -KSVE -KARMV8_3_A "
              "-Kassume=noshortloop -Kassume=memory_bandwidth "
              "-Kassume=notime_saving_compilation",
              {"Fujitsu MPI", "Fujitsu SSL2", "FFTW 3.3.3"}, kVqFujitsuFast, true)},
        {"ARCHER/cosa",
         make(CompilerVendor::gnu, "GNU 7.2",
              "-g -fdefault-double-8 -fdefault-real-8 -fcray-pointer "
              "-ftree-vectorize -O3 -ffixed-line-length-132",
              {"Cray MPI library (v7.5.5)", "Cray LibSci (v16.11.1)"}, kVqGnuX86,
              false)},
        {"Cirrus/cosa",
         make(CompilerVendor::gnu, "GNU 8.2",
              "-g -fdefault-double-8 -fdefault-real-8 -fcray-pointer "
              "-ftree-vectorize -O3 -ffixed-line-length-132",
              {"SGI MPT 2.16", "Intel MKL 17.0.2.174"}, kVqGnuX86, false)},
        {"EPCC NGIO/cosa",
         make(CompilerVendor::intel, "Intel 18",
              "-g -fdefault-double-8 -fdefault-real-8 -fcray-pointer "
              "-ftree-vectorize -O3 -ffixed-line-length-132",
              {"Intel MPI", "Intel MKL 18"}, kVqIntel, false)},
        {"Fulhame/cosa",
         make(CompilerVendor::gnu, "GNU 8.2",
              "-g -fdefault-double-8 -fdefault-real-8 -fcray-pointer "
              "-ftree-vectorize -O3 -ffixed-line-length-132",
              {"HPE MPT MPI library (v2.20)", "ARM Performance Libraries (v19.0.0)"},
              kVqGnuArm, false)},
        // ---- OpenSBLI ---- (Table II has no A64FX row; results in Table X
        // imply the Fujitsu toolchain — we use the system fallback for it.)
        {"ARCHER/opensbli",
         make(CompilerVendor::cray, "Cray Compiler v8.5.8", "-O3 -hgnu",
              {"Cray MPICH2 (v7.5.2)", "HDF5 (v1.10.0.1)"}, kVqCray, false)},
        {"Cirrus/opensbli",
         make(CompilerVendor::intel, "Intel 17.0.2.174", "-O3 -ipo -restrict -fno-alias",
              {"SGI MPT 2.16", "HDF5 1.10.1"}, kVqIntel, false)},
        {"EPCC NGIO/opensbli",
         make(CompilerVendor::intel, "Intel 17.4", "-O3 -ipo -restrict -fno-alias",
              {"Intel MPI 17.4", "HDF5 1.10.1"}, kVqIntel, false)},
        {"Fulhame/opensbli",
         make(CompilerVendor::armclang, "Arm Clang 19.0.0", "-O3 -std=c99 -fPIC -Wall",
              {"OpenMPI 4.0.0", "HDF5 1.10.4"}, kVqArmClang, false)},
    };
    return t;
}

// Fallback toolchain per system for (system, app) pairs absent from Table II.
Toolchain system_default(std::string_view system) {
    if (system == "A64FX")
        return make(CompilerVendor::fujitsu, "Fujitsu 1.2.24", "-O3",
                    {"Fujitsu MPI"}, kVqFujitsuO3, false);
    if (system == "ARCHER")
        return make(CompilerVendor::cray, "Cray CCE", "-O3", {"Cray MPI"}, kVqCray, false);
    if (system == "Cirrus")
        return make(CompilerVendor::intel, "Intel 17", "-O3", {"SGI MPT"}, kVqIntel, false);
    if (system == "EPCC NGIO")
        return make(CompilerVendor::intel, "Intel 19", "-O3", {"Intel MPI"}, kVqIntel, false);
    if (system == "Fulhame")
        return make(CompilerVendor::gnu, "GCC 8.2", "-O3", {"OpenMPI"}, kVqGnuArm, false);
    throw util::Error("unknown system: " + std::string(system));
}

} // namespace

Toolchain toolchain_for(std::string_view system, std::string_view app) {
    const auto key = std::string(system) + "/" + std::string(app);
    const auto& t = table2();
    if (const auto it = t.find(key); it != t.end()) return it->second;
    return system_default(system);
}

} // namespace armstice::arch
