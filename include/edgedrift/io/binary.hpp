// Binary (de)serialization primitives over byte buffers.
//
// Format: little-endian host layout, length-prefixed blocks, a magic tag,
// format version and section tag at the front of each blob, and a trailing
// 64-bit digest (util::digest64, XXH64) of every byte before it. A Writer
// appends to a std::string and seals it with write_checksum(); a Reader
// parses a std::string_view through a bounds-checked cursor. Loaders call
// Reader::verify_checksum() first: the digest is checked once over the
// whole blob before any field is parsed or anything is allocated from one.
// Intended for checkpointing trained pipelines (train on a gateway, ship
// the state blob to the device); not an interchange format.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "edgedrift/linalg/matrix.hpp"

namespace edgedrift::io {

inline constexpr std::uint32_t kMagic = 0x45444446;  // "EDDF".
/// v4: a full checkpoint ends its state with Algorithm 1's window (the open
/// flag and the position, two u64 words), so a restored stream resumes an
/// open window where it was saved. A second section tag marks a template
/// delta, which stores a stream on a template's model as the template's
/// handle instead of the model (io/checkpoint.hpp). v3 blobs still load,
/// with the window closed. Since v3 the trailing checksum is
/// util::digest64 over the whole blob, verified before parsing. v2 blobs
/// (byte-serial checksum) and v1 blobs (no NumericsTier field) are rejected
/// with an error naming their version and must be re-saved. Since v2 the
/// config carries the NumericsTier (part of the drift-decision contract, so
/// it is never defaulted on restore) and the projection fingerprint follows
/// the projection block (verified on load against the rebuilt projection's
/// digest, so restored streams rejoin their save-side coalescing groups).
inline constexpr std::uint32_t kFormatVersion = 4;
/// The oldest version a Reader's caller still parses (checkpoint v3).
inline constexpr std::uint32_t kOldestReadableVersion = 3;

/// Appends to a byte buffer. The digest written by write_checksum() covers
/// the bytes this writer appended.
class Writer {
 public:
  explicit Writer(std::string& out) : out_(out), begin_(out.size()) {}

  void write_u32(std::uint32_t value);
  void write_u64(std::uint64_t value);
  void write_f64(double value);
  void write_string(std::string_view value);
  void write_doubles(std::span<const double> values);
  void write_sizes(std::span<const std::size_t> values);
  void write_matrix(const linalg::Matrix& m);
  /// Columns [col_begin, col_begin + cols) of m, in the bytes write_matrix()
  /// writes for a matrix holding just those columns.
  void write_columns(const linalg::Matrix& m, std::size_t col_begin,
                     std::size_t cols);

  /// Writes the file header (magic + format version + a section tag).
  void write_header(std::string_view section);

  /// Appends the digest of every byte this writer wrote. Call last;
  /// Reader::verify_checksum() checks it.
  void write_checksum();

  /// Appending to a string cannot fail (allocation failure throws), so a
  /// writer is always ok; kept so callers check every writer alike.
  bool ok() const { return true; }

 private:
  void put(const void* src, std::size_t bytes);

  std::string& out_;
  std::size_t begin_;
};

/// Parses a byte buffer through a bounds-checked cursor; every read reports
/// success, and failures latch. The buffer must outlive the reader.
class Reader {
 public:
  explicit Reader(std::string_view in) : in_(in) {}

  bool read_u32(std::uint32_t& value);
  bool read_u64(std::uint64_t& value);
  bool read_f64(double& value);
  bool read_string(std::string& value);
  bool read_doubles(std::vector<double>& values);
  bool read_sizes(std::vector<std::size_t>& values);
  bool read_matrix(linalg::Matrix& m);
  /// Views the next `bytes` bytes in place (no copy) and moves past them.
  bool read_view(std::size_t bytes, std::string_view& view);

  /// Reads the header: fails unless the magic matches, and hands back the
  /// format version and the section tag (a view into the buffer) for the
  /// caller to dispatch on.
  bool read_header(std::uint32_t& version, std::string_view& section);
  /// Verifies magic, the current format version, and the expected section
  /// tag.
  bool read_header(std::string_view expected_section);

  /// Checks the trailing digest against every byte before it, then drops
  /// it from the readable range. Call once, before any read: it parses no
  /// field, so a corrupt blob is rejected before anything is allocated.
  bool verify_checksum();

  /// Bytes between the cursor and the end of the readable range. Length
  /// prefixes are validated against this before any allocation, so a
  /// corrupted count can never trigger a huge resize.
  std::size_t remaining() const { return in_.size() - pos_; }

  bool ok() const { return ok_; }

 private:
  /// The next `bytes` bytes, advancing the cursor; nullptr (and a latched
  /// failure) when fewer remain.
  const char* next(std::size_t bytes);
  bool take(void* dst, std::size_t bytes);
  /// Reads a u64 element count and proves `count * element_bytes` bytes
  /// remain.
  bool read_count(std::size_t element_bytes, std::uint64_t& count);

  std::string_view in_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace edgedrift::io
