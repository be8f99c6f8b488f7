#include "common.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

Rss read_rss() {
  Rss rss;
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    std::uint64_t* field = nullptr;
    if (line.rfind("VmRSS:", 0) == 0) field = &rss.current;
    if (line.rfind("VmHWM:", 0) == 0) field = &rss.peak;
    if (field == nullptr) continue;
    std::istringstream fields(line.substr(6));
    std::uint64_t kb = 0;
    fields >> kb;
    *field = kb * 1024;
  }
  return rss;
}

bool reset_peak_rss() {
  // "5" resets the VmHWM high-water mark of this process (Linux >= 4.0).
  std::ofstream out("/proc/self/clear_refs");
  if (!out) return false;
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

double host_probe_ms() {
  volatile double seed = 1.000000001;
  double x = seed;
  double acc = 0.0;
  const std::uint64_t t0 = now_ns();
  for (int i = 0; i < 20'000'000; ++i) {
    x = x * 1.0000001 + 1e-9;
    acc += x;
  }
  const std::uint64_t t1 = now_ns();
  volatile double sink = acc;
  (void)sink;
  return static_cast<double>(t1 - t0) / 1e6;
}

void json_string(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  out += '"';
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace perfbench
