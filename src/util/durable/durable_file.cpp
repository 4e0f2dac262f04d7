#include "util/durable/durable_file.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <array>
#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>

#include "util/failpoint.hpp"

namespace hadas::util::durable {

namespace {

/// Mutex-guarded process-wide stats: durable operations are disk-bound and
/// rare, so a lock is simpler than per-field atomics and just as cheap here.
std::mutex g_stats_mutex;
DurableStats g_stats;

}  // namespace

DurableStats durable_stats() {
  std::scoped_lock lock(g_stats_mutex);
  return g_stats;
}

void reset_durable_stats() {
  std::scoped_lock lock(g_stats_mutex);
  g_stats = DurableStats{};
}

void count_durable(std::uint64_t DurableStats::* counter, std::uint64_t n) {
  std::scoped_lock lock(g_stats_mutex);
  g_stats.*counter += n;
}

namespace {

constexpr const char* kMagic = "%HADAS-DURABLE";
/// The line after the payload: this prefix, 16 hex CRC digits, "\n".
constexpr std::string_view kFooterPrefix = "\n%HADAS-CRC64 ";
constexpr std::uint32_t kVersion = 1;

std::string hex16(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(value));
  return std::string(buf);
}

/// CRC-64/XZ slicing-by-8 tables (reflected ECMA-182 polynomial), built
/// once. Row 0 is the classic bytewise table; row k advances a byte k more
/// zero bytes, so eight bytes fold into the CRC with eight lookups.
using Crc64Tables = std::array<std::array<std::uint64_t, 256>, 8>;

const Crc64Tables& crc64_tables() {
  static const Crc64Tables tables = [] {
    Crc64Tables t{};
    const std::uint64_t poly = 0xC96C5795D7870F42ULL;  // reflected ECMA-182
    for (std::uint64_t i = 0; i < 256; ++i) {
      std::uint64_t crc = i;
      for (int bit = 0; bit < 8; ++bit)
        crc = (crc >> 1) ^ ((crc & 1) ? poly : 0);
      t[0][i] = crc;
    }
    for (std::size_t k = 1; k < 8; ++k)
      for (std::size_t i = 0; i < 256; ++i)
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
    return t;
  }();
  return tables;
}

/// Eight bytes as a little-endian integer on any host byte order.
std::uint64_t load_le64(const unsigned char* p) {
  std::uint64_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::big)
    v = __builtin_bswap64(v);
  return v;
}

void write_all(int fd, const std::string& path, const char* data,
               std::size_t size) {
  std::size_t written = 0;
  while (written < size) {
    const ssize_t n = ::write(fd, data + written, size - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      ::close(fd);
      throw std::runtime_error("DurableFile: write to " + path + " failed: " +
                               std::strerror(err));
    }
    written += static_cast<std::size_t>(n);
  }
}

void fsync_path(const std::string& path, bool directory) {
  const int fd = ::open(path.c_str(), directory ? O_RDONLY | O_DIRECTORY
                                                : O_RDONLY);
  if (fd < 0) {
    if (directory) return;  // best-effort: some filesystems refuse dir opens
    throw std::runtime_error("DurableFile: cannot reopen " + path +
                             " for fsync");
  }
  (void)::fsync(fd);
  ::close(fd);
}

std::string parent_dir(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

constexpr std::size_t kFooterBytes = kFooterPrefix.size() + 16 + 1;

/// Whether a file of `file_bytes` holds the payload the header declares
/// plus the footer. Phrased so a corrupt, huge `declared` cannot overflow.
bool envelope_fits(std::size_t file_bytes, std::size_t payload_begin,
                   std::size_t declared) {
  const std::size_t rest = file_bytes - payload_begin;
  return declared <= rest && rest - declared >= kFooterBytes;
}

}  // namespace

const char* corrupt_stage_name(CorruptStage stage) {
  switch (stage) {
    case CorruptStage::kHeader: return "header";
    case CorruptStage::kTruncation: return "truncation";
    case CorruptStage::kChecksum: return "checksum";
    case CorruptStage::kParse: return "parse";
    case CorruptStage::kInvariant: return "invariant";
  }
  return "?";
}

CheckpointCorruptError::CheckpointCorruptError(std::string file,
                                               std::size_t byte_offset,
                                               CorruptStage stage,
                                               const std::string& detail)
    : std::runtime_error("corrupt state file '" + file + "' at byte " +
                         std::to_string(byte_offset) + " (" +
                         corrupt_stage_name(stage) +
                         " validation failed): " + detail),
      file_(std::move(file)),
      byte_offset_(byte_offset),
      stage_(stage),
      detail_(detail) {}

std::uint64_t crc64(std::string_view bytes) {
  const Crc64Tables& t = crc64_tables();
  const auto* p = reinterpret_cast<const unsigned char*>(bytes.data());
  std::size_t n = bytes.size();
  std::uint64_t crc = ~0ULL;
  for (; n >= 8; p += 8, n -= 8) {
    crc ^= load_le64(p);
    crc = t[7][crc & 0xFF] ^ t[6][(crc >> 8) & 0xFF] ^
          t[5][(crc >> 16) & 0xFF] ^ t[4][(crc >> 24) & 0xFF] ^
          t[3][(crc >> 32) & 0xFF] ^ t[2][(crc >> 40) & 0xFF] ^
          t[1][(crc >> 48) & 0xFF] ^ t[0][crc >> 56];
  }
  for (; n > 0; ++p, --n) crc = (crc >> 8) ^ t[0][(crc ^ *p) & 0xFF];
  return ~crc;
}

void DurableFile::write(const std::string& path, const std::string& format_tag,
                        const std::string& payload) {
  if (format_tag.empty() ||
      format_tag.find_first_of(" \n\t") != std::string::npos)
    throw std::invalid_argument("DurableFile: bad format tag '" + format_tag +
                                "'");
  const std::string header = std::string(kMagic) + " v" +
                             std::to_string(kVersion) + ' ' + format_tag +
                             ' ' + std::to_string(payload.size()) + '\n';
  const std::string footer =
      std::string(kFooterPrefix) + hex16(crc64(payload)) + '\n';
  std::string bytes;
  bytes.reserve(header.size() + payload.size() + footer.size());
  bytes += header;
  bytes += payload;
  bytes += footer;

  failpoint("durable.save.begin");
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0)
    throw std::runtime_error("DurableFile: cannot open " + tmp + ": " +
                             std::strerror(errno));
  write_all(fd, tmp, bytes.data(), bytes.size());
  failpoint("durable.save.tmp");  // tmp written, not yet synced or renamed
  if (::fsync(fd) != 0) {
    ::close(fd);
    throw std::runtime_error("DurableFile: fsync of " + tmp + " failed");
  }
  ::close(fd);
  failpoint("durable.save.prerename");  // previous file still fully intact
  if (std::rename(tmp.c_str(), path.c_str()) != 0)
    throw std::runtime_error("DurableFile: cannot rename " + tmp + " to " +
                             path);
  fsync_path(parent_dir(path), /*directory=*/true);
  count_durable(&DurableStats::writes);
  count_durable(&DurableStats::bytes_written, bytes.size());
  // File site: chaos may tear or bit-flip the fully-written file here to
  // simulate storage-level corruption that the next read must detect.
  failpoint_file("durable.save.postrename", path.c_str());
}

bool DurableFile::write_idempotent(const std::string& path,
                                   const std::string& format_tag,
                                   const std::string& payload) {
  if (std::filesystem::exists(path)) {
    try {
      if (read_validated(path, format_tag) == payload) return false;
    } catch (const CheckpointCorruptError&) {
      // Torn or divergent: fall through to the atomic replace.
    }
  }
  write(path, format_tag, payload);
  return true;
}

std::string DurableFile::read(const std::string& path,
                              const std::string& format_tag) {
  try {
    std::string payload = read_validated(path, format_tag);
    count_durable(&DurableStats::reads);
    return payload;
  } catch (const CheckpointCorruptError&) {
    count_durable(&DurableStats::read_failures);
    throw;
  }
}

std::string DurableFile::read_validated(const std::string& path,
                                        const std::string& format_tag) {
  std::ifstream in(path, std::ios::binary);
  if (!in)
    throw std::runtime_error("DurableFile: cannot open " + path);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());

  const std::string magic = std::string(kMagic) + " v";
  if (bytes.rfind(magic, 0) != 0)
    throw CheckpointCorruptError(path, 0, CorruptStage::kHeader,
                                 "missing durable-file magic (legacy or "
                                 "foreign file?)");
  const std::size_t header_end = bytes.find('\n');
  if (header_end == std::string::npos)
    throw CheckpointCorruptError(path, bytes.size(), CorruptStage::kHeader,
                                 "unterminated header line");
  std::istringstream header(
      bytes.substr(magic.size(), header_end - magic.size()));
  std::uint32_t version = 0;
  std::string tag;
  std::size_t declared = 0;
  if (!(header >> version >> tag >> declared))
    throw CheckpointCorruptError(path, magic.size(), CorruptStage::kHeader,
                                 "malformed header fields");
  if (version != kVersion)
    throw CheckpointCorruptError(path, magic.size(), CorruptStage::kHeader,
                                 "unsupported version v" +
                                     std::to_string(version));
  if (tag != format_tag)
    throw CheckpointCorruptError(
        path, magic.size(), CorruptStage::kHeader,
        "format tag '" + tag + "' (expected '" + format_tag + "')");

  const std::size_t payload_begin = header_end + 1;
  if (!envelope_fits(bytes.size(), payload_begin, declared))
    throw CheckpointCorruptError(
        path, bytes.size(), CorruptStage::kTruncation,
        "file holds " + std::to_string(bytes.size()) + " bytes but header " +
            "declares a " + std::to_string(declared) + "-byte payload " +
            "(expected >= " +
            std::to_string(payload_begin + declared + kFooterBytes) + ")");
  const std::string_view payload =
      std::string_view(bytes).substr(payload_begin, declared);

  const std::string_view footer =
      std::string_view(bytes).substr(payload_begin + declared);
  if (!footer.starts_with(kFooterPrefix))
    throw CheckpointCorruptError(path, payload_begin + declared,
                                 CorruptStage::kTruncation,
                                 "footer line missing or malformed");
  const std::string_view declared_crc =
      footer.substr(kFooterPrefix.size(), 16);
  const std::string actual_crc = hex16(crc64(payload));
  if (declared_crc != actual_crc)
    throw CheckpointCorruptError(
        path, payload_begin, CorruptStage::kChecksum,
        "payload CRC64 " + actual_crc + " != declared " +
            std::string(declared_crc));
  return std::string(payload);
}

FileInfo DurableFile::inspect(const std::string& path) {
  FileInfo info;
  std::ifstream in(path, std::ios::binary);
  if (!in) return info;
  info.exists = true;
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  info.file_bytes = bytes.size();

  const std::string magic = std::string(kMagic) + " v";
  if (bytes.rfind(magic, 0) != 0) {
    info.legacy = true;
    return info;
  }
  const std::size_t header_end = bytes.find('\n');
  if (header_end == std::string::npos) return info;
  std::istringstream header(
      bytes.substr(magic.size(), header_end - magic.size()));
  std::uint32_t version = 0;
  std::string tag;
  std::size_t declared = 0;
  if (!(header >> version >> tag >> declared)) return info;
  info.version = version;
  info.format_tag = tag;
  info.declared_bytes = declared;
  info.header_ok = version == kVersion;

  const std::size_t payload_begin = header_end + 1;
  info.length_ok = envelope_fits(bytes.size(), payload_begin, declared);
  if (!info.length_ok) return info;
  const std::string_view view(bytes);
  info.crc_actual = hex16(crc64(view.substr(payload_begin, declared)));
  const std::string_view footer = view.substr(payload_begin + declared);
  if (footer.starts_with(kFooterPrefix))
    info.crc_declared = footer.substr(kFooterPrefix.size(), 16);
  info.checksum_ok = !info.crc_declared.empty() &&
                     info.crc_declared == info.crc_actual;
  return info;
}

}  // namespace hadas::util::durable
