// The one binary codec behind the repo's three on-disk formats: model
// parameters (nn/serialize.cpp, "RDO2"), the statistical LUT
// (rram/rlut.cpp, "RLU2") and the deployment plan (core/plan_io.cpp,
// "RDP2"). This is the single place that decides how untrusted bytes are
// read and how a cache file is published:
//
//   Writer     checked native-endian writes (scalar, length-prefixed
//              array, raw); a failed write throws std::runtime_error.
//   Reader<E>  byte-budgeted reads over a seekable stream. The bytes left
//              in the stream are measured once; every read and every
//              declared count is bounded by that budget before it is
//              believed, and every failure throws the format's own error
//              type E with the source name in the message.
//   Fnv1a      the 64-bit FNV-1a hasher behind RLut::fingerprint and
//              plan_fingerprint.
//   publish    atomic write-then-rename through a temp file whose suffix
//              no concurrent writer will pick; the temp file is removed
//              on any failure.
//
// Header-only like core/check.h, so rdo_nn and rdo_rram use it without
// linking rdo_core.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>
#include <system_error>
#include <type_traits>
#include <utility>
#include <vector>

#include <unistd.h>

namespace rdo::core::codec {

/// Checked binary writer. `who` names the writer in error messages
/// (e.g. "RLut::save").
class Writer {
 public:
  Writer(std::ostream& out, const char* who) : out_(out), who_(who) {}

  void raw(const void* data, std::size_t n) {
    out_.write(static_cast<const char*>(data),
               static_cast<std::streamsize>(n));
    if (!out_) throw std::runtime_error(std::string(who_) + ": write failed");
  }
  template <typename T>
  void scalar(T v) {
    static_assert(std::is_trivially_copyable_v<T>);
    raw(&v, sizeof(v));
  }
  /// u64 element count, then the elements (a std::vector or std::string).
  template <typename C>
  void array(const C& c) {
    scalar(static_cast<std::uint64_t>(c.size()));
    raw(c.data(), c.size() * sizeof(typename C::value_type));
  }

 private:
  std::ostream& out_;
  const char* who_;
};

/// Byte-budgeted binary reader over one document in a seekable stream.
/// Every failure throws `Error("<who>: <what> in <source>")`.
template <typename Error>
class Reader {
 public:
  Reader(std::istream& in, const char* who, std::string source)
      : in_(in), who_(who), source_(std::move(source)) {
    const std::istream::pos_type pos = in.tellg();
    in.seekg(0, std::ios::end);
    const std::istream::pos_type end = in.tellg();
    in.seekg(pos);
    if (pos == std::istream::pos_type(-1) ||
        end == std::istream::pos_type(-1) || !in || end < pos) {
      fail("unseekable stream");
    }
    remaining_ = static_cast<std::uint64_t>(end - pos);
  }

  [[noreturn]] void fail(const std::string& what) const {
    throw Error(std::string(who_) + ": " + what + " in " + source_);
  }
  void require(bool cond, const char* what) const {
    if (!cond) fail(what);
  }

  void raw(void* dst, std::size_t n) {
    if (n > remaining_) fail("truncated file");
    in_.read(static_cast<char*>(dst), static_cast<std::streamsize>(n));
    if (!in_ || in_.gcount() != static_cast<std::streamsize>(n)) {
      fail("truncated file");
    }
    remaining_ -= n;
  }
  template <typename T>
  T scalar() {
    static_assert(std::is_trivially_copyable_v<T>);
    T v{};
    raw(&v, sizeof(v));
    return v;
  }
  /// Length-prefixed array whose count must satisfy `max_count` and the
  /// byte budget before anything is allocated.
  template <typename T>
  std::vector<T> array(std::uint64_t max_count) {
    const auto n = count<T>(max_count);
    std::vector<T> v(n);
    raw(v.data(), n * sizeof(T));
    return v;
  }
  /// Length-prefixed byte string, bounded like array().
  std::string text(std::uint64_t max_len) {
    std::string s(count<char>(max_len), '\0');
    raw(s.data(), s.size());
    return s;
  }
  /// The document must end exactly here.
  void finish() const { require(remaining_ == 0, "trailing bytes"); }

  [[nodiscard]] std::uint64_t remaining() const { return remaining_; }

 private:
  template <typename T>
  std::size_t count(std::uint64_t max_count) {
    const auto n = scalar<std::uint64_t>();
    require(n <= max_count, "oversized array count");
    require(n <= remaining_ / sizeof(T), "array count exceeds file size");
    return static_cast<std::size_t>(n);
  }

  std::istream& in_;
  const char* who_;
  std::string source_;
  std::uint64_t remaining_ = 0;
};

/// 64-bit FNV-1a, fed field by field in native byte order.
class Fnv1a {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 1099511628211ull;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof(v)); }
  void f64(double v) {
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
  }
  /// Length, then bytes, so adjacent strings cannot alias.
  void str(const std::string& s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull;  // FNV offset basis
};

/// A suffix of the form ".tmp.<pid>.<n>" that no concurrent writer — in
/// this process or any other sharing the directory — will pick for the
/// same target path. An address-derived suffix is not enough: two
/// processes can allocate an object at the same address and interleave
/// their writes into one temp file.
inline std::string unique_tmp_suffix() {
  static std::atomic<std::uint64_t> counter{0};
  const std::uint64_t n = counter.fetch_add(1, std::memory_order_relaxed);
  return ".tmp." + std::to_string(static_cast<long long>(::getpid())) + "." +
         std::to_string(n);
}

/// Publish `path` atomically: `write(std::ostream&)` fills a uniquely
/// named temp file next to it, which is then renamed into place, so a
/// concurrent reader only ever observes no file or a complete document.
/// The temp file is removed on any failure. Throws std::runtime_error
/// naming `who` on I/O failure; exceptions from `write` propagate.
template <typename WriteFn>
void publish(const std::string& path, const char* who, WriteFn&& write) {
  const std::string tmp = path + unique_tmp_suffix();
  std::error_code ec;
  try {
    std::ofstream f(tmp, std::ios::binary | std::ios::trunc);
    if (!f) throw std::runtime_error(std::string(who) + ": cannot open " + tmp);
    std::forward<WriteFn>(write)(static_cast<std::ostream&>(f));
    f.close();
    if (!f) {
      throw std::runtime_error(std::string(who) + ": write failed for " + tmp);
    }
  } catch (...) {
    std::filesystem::remove(tmp, ec);
    throw;
  }
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    throw std::runtime_error(std::string(who) + ": cannot rename into " +
                             path);
  }
}

}  // namespace rdo::core::codec
