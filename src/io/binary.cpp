#include "edgedrift/io/binary.hpp"

#include <cstring>

#include "edgedrift/util/assert.hpp"
#include "edgedrift/util/digest.hpp"

namespace edgedrift::io {

void Writer::put(const void* src, std::size_t bytes) {
  out_.append(static_cast<const char*>(src), bytes);
}

void Writer::write_u32(std::uint32_t value) { put(&value, sizeof(value)); }

void Writer::write_u64(std::uint64_t value) { put(&value, sizeof(value)); }

void Writer::write_f64(double value) { put(&value, sizeof(value)); }

void Writer::write_string(std::string_view value) {
  write_u64(value.size());
  put(value.data(), value.size());
}

void Writer::write_doubles(std::span<const double> values) {
  write_u64(values.size());
  put(values.data(), values.size() * sizeof(double));
}

void Writer::write_sizes(std::span<const std::size_t> values) {
  write_u64(values.size());
  for (const std::size_t v : values) write_u64(v);
}

void Writer::write_matrix(const linalg::Matrix& m) {
  write_u64(m.rows());
  write_u64(m.cols());
  put(m.data(), m.size() * sizeof(double));
}

void Writer::write_columns(const linalg::Matrix& m, std::size_t col_begin,
                           std::size_t cols) {
  EDGEDRIFT_ASSERT(col_begin + cols <= m.cols(), "column block out of range");
  write_u64(m.rows());
  write_u64(cols);
  for (std::size_t i = 0; i < m.rows(); ++i) {
    put(m.data() + i * m.cols() + col_begin, cols * sizeof(double));
  }
}

void Writer::write_header(std::string_view section) {
  write_u32(kMagic);
  write_u32(kFormatVersion);
  write_string(section);
}

void Writer::write_checksum() {
  write_u64(util::digest64(out_.data() + begin_, out_.size() - begin_));
}

const char* Reader::next(std::size_t bytes) {
  if (!ok_ || bytes > remaining()) {
    ok_ = false;
    return nullptr;
  }
  const char* p = in_.data() + pos_;
  pos_ += bytes;
  return p;
}

bool Reader::take(void* dst, std::size_t bytes) {
  const char* src = next(bytes);
  if (src == nullptr) return false;
  // An empty block's destination may be null, which memcpy must not see.
  if (bytes != 0) std::memcpy(dst, src, bytes);
  return true;
}

bool Reader::read_count(std::size_t element_bytes, std::uint64_t& count) {
  if (!read_u64(count)) return false;
  if (count > remaining() / element_bytes) return ok_ = false;
  return true;
}

bool Reader::read_u32(std::uint32_t& value) {
  return take(&value, sizeof(value));
}

bool Reader::read_u64(std::uint64_t& value) {
  return take(&value, sizeof(value));
}

bool Reader::read_f64(double& value) { return take(&value, sizeof(value)); }

bool Reader::read_string(std::string& value) {
  std::uint64_t size = 0;
  if (!read_count(1, size)) return false;
  value.assign(next(size), size);
  return true;
}

bool Reader::read_doubles(std::vector<double>& values) {
  std::uint64_t size = 0;
  if (!read_count(sizeof(double), size)) return false;
  values.resize(size);
  return take(values.data(), size * sizeof(double));
}

bool Reader::read_sizes(std::vector<std::size_t>& values) {
  std::uint64_t size = 0;
  if (!read_count(sizeof(std::uint64_t), size)) return false;
  values.resize(size);
  for (auto& v : values) {
    std::uint64_t raw = 0;
    read_u64(raw);  // In bounds: read_count proved the bytes are there.
    v = static_cast<std::size_t>(raw);
  }
  return true;
}

bool Reader::read_matrix(linalg::Matrix& m) {
  std::uint64_t rows = 0, cols = 0;
  if (!read_u64(rows) || !read_u64(cols)) return false;
  if (cols != 0 && rows > remaining() / sizeof(double) / cols) {
    return ok_ = false;
  }
  m.resize_discard(rows, cols);
  return take(m.data(), m.size() * sizeof(double));
}

bool Reader::read_view(std::size_t bytes, std::string_view& view) {
  const char* p = next(bytes);
  if (p == nullptr) return false;
  view = {p, bytes};
  return true;
}

bool Reader::read_header(std::uint32_t& version, std::string_view& section) {
  std::uint32_t magic = 0;
  std::uint64_t size = 0;
  if (!read_u32(magic) || !read_u32(version) || !read_count(1, size) ||
      !read_view(size, section)) {
    return false;
  }
  if (magic != kMagic) ok_ = false;
  return ok_;
}

bool Reader::read_header(std::string_view expected_section) {
  std::uint32_t version = 0;
  std::string_view section;
  if (read_header(version, section) &&
      (version != kFormatVersion || section != expected_section)) {
    ok_ = false;
  }
  return ok_;
}

bool Reader::verify_checksum() {
  std::uint64_t stored = 0;
  if (!ok_ || in_.size() - pos_ < sizeof(stored)) return ok_ = false;
  const std::size_t body = in_.size() - sizeof(stored);
  std::memcpy(&stored, in_.data() + body, sizeof(stored));
  in_ = in_.substr(0, body);
  if (stored != util::digest64(in_.data(), in_.size())) ok_ = false;
  return ok_;
}

}  // namespace edgedrift::io
