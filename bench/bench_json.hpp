// Machine-readable benchmark output (the `--json <path>` reporter).
//
// Both perf binaries (bench_microkernels, bench_batch_throughput) emit the
// same "edgedrift-bench-v1" schema so CI can diff runs across commits:
//   {
//     "schema": "edgedrift-bench-v1",
//     "binary": "...",                // which harness produced the file
//     "simd": "avx2-fma|neon|portable",
//     "build_flags": "...",           // compiler flags baked in by CMake
//     "git_sha": "...",               // commit baked in by CMake
//     "cpu": "...",                   // host CPU model at run time
//     "results": [ {"name", "precision", "ns_per_op",
//                   "samples_per_second", "gflops", "bytes_per_stream"} ]
//   }
// gflops is 0 when a record has no meaningful flop count (e.g. whole-
// pipeline samples/s rows). "precision" names the NumericsTier the row ran
// under ("f64" unless a harness overrides it); "bytes_per_stream" is 0
// except on stream-density rows, where it is the scoring-replica footprint
// per stream. A committed example lives at BENCH_kernels.json.
#pragma once

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "edgedrift/linalg/simd.hpp"

// Stamped by bench/CMakeLists.txt; fall back to "unknown" when absent so
// the header stays usable outside the CMake build.
#ifndef EDGEDRIFT_GIT_SHA
#define EDGEDRIFT_GIT_SHA "unknown"
#endif
#ifndef EDGEDRIFT_BUILD_FLAGS
#define EDGEDRIFT_BUILD_FLAGS "unknown"
#endif

namespace edgedrift::bench {

/// One benchmark result row of the v1 schema.
struct KernelRecord {
  std::string name;
  std::string precision = "f64";  ///< NumericsTier the row ran under.
  double ns_per_op = 0.0;
  double samples_per_second = 0.0;
  double gflops = 0.0;
  double bytes_per_stream = 0.0;  ///< Non-zero on stream-density rows only.
};

/// Pulls `<flag> <path>` out of argv (removing both tokens). Returns an
/// empty string when the flag is absent.
inline std::string extract_path_flag(int& argc, char** argv,
                                     const char* flag) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == flag) {
      std::string path = argv[i + 1];
      for (int j = i; j + 2 < argc; ++j) argv[j] = argv[j + 2];
      argc -= 2;
      return path;
    }
  }
  return {};
}

/// Pulls `--json <path>` out of argv (removing both tokens). Returns an
/// empty string when the flag is absent.
inline std::string extract_json_path(int& argc, char** argv) {
  return extract_path_flag(argc, argv, "--json");
}

/// The host CPU's model name from /proc/cpuinfo; "unknown" where that file
/// or its "model name" line is absent.
inline std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) break;
    const std::size_t start = line.find_first_not_of(' ', colon + 1);
    return start == std::string::npos ? "unknown" : line.substr(start);
  }
  return "unknown";
}

/// Writes the v1 schema. Returns false when the file cannot be opened.
inline bool write_kernel_json(const std::string& path,
                              const std::string& binary,
                              const std::vector<KernelRecord>& records) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"schema\": \"edgedrift-bench-v1\",\n");
  std::fprintf(f, "  \"binary\": \"%s\",\n", binary.c_str());
  std::fprintf(f, "  \"simd\": \"%s\",\n", linalg::simd::kLevelName);
  std::fprintf(f, "  \"build_flags\": \"%s\",\n", EDGEDRIFT_BUILD_FLAGS);
  std::fprintf(f, "  \"git_sha\": \"%s\",\n", EDGEDRIFT_GIT_SHA);
  std::fprintf(f, "  \"cpu\": \"%s\",\n", cpu_model().c_str());
  std::fprintf(f, "  \"results\": [\n");
  for (std::size_t i = 0; i < records.size(); ++i) {
    const KernelRecord& r = records[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"precision\": \"%s\", "
                 "\"ns_per_op\": %.3f, \"samples_per_second\": %.1f, "
                 "\"gflops\": %.3f, \"bytes_per_stream\": %.0f}%s\n",
                 r.name.c_str(), r.precision.c_str(), r.ns_per_op,
                 r.samples_per_second, r.gflops, r.bytes_per_stream,
                 i + 1 < records.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  return true;
}

}  // namespace edgedrift::bench
