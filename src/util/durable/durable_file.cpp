#include "util/durable/durable_file.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <array>
#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <mutex>
#include <optional>
#include <sstream>

#include "util/failpoint.hpp"
#include "util/strutil.hpp"

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

/// The header line: this magic, the version, the tag, the payload size.
constexpr std::string_view kMagic = "%HADAS-DURABLE v";
/// The line after the payload: this prefix, 16 hex CRC digits, "\n".
constexpr std::string_view kFooterPrefix = "\n%HADAS-CRC64 ";
constexpr std::uint32_t kVersion = 1;

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

/// fsync the directory holding `path`, so a rename into it is durable.
void fsync_parent_dir(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "."
                          : slash == 0               ? "/"
                                                     : path.substr(0, slash);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;  // best-effort: some filesystems refuse dir opens
  (void)::fsync(fd);
  ::close(fd);
}

constexpr std::size_t kFooterBytes = kFooterPrefix.size() + 16 + 1;

/// What the envelope parser found: the inspect() view, the payload, and
/// the first check that failed (nullopt = a valid envelope).
struct Envelope {
  FileInfo info;
  std::string_view payload;
  std::optional<CheckpointCorruptError> refusal;
};

/// The one envelope parser, behind decode() and inspect_bytes(). Checks run
/// in read() order — magic, header line, fields, version, tag (when one is
/// expected), length, footer, CRC, end of file — and the first to fail is
/// the refusal. Parsing goes on as far as the bytes allow, so inspect() can
/// report every field it can read.
Envelope parse_envelope(std::string_view bytes, const std::string& file,
                        const std::string* expected_tag) {
  Envelope env;
  FileInfo& info = env.info;
  info.exists = true;
  info.file_bytes = bytes.size();
  const auto refuse = [&](CorruptStage stage, std::size_t offset,
                          const std::string& detail) {
    if (!env.refusal) env.refusal.emplace(file, offset, stage, detail);
  };
  info.legacy = !bytes.starts_with(kMagic);
  const std::size_t header_end = bytes.find('\n');
  std::uint32_t version = 0;
  std::string tag;
  std::size_t declared = 0;
  if (info.legacy)
    refuse(CorruptStage::kHeader, 0,
           "missing durable-file magic (legacy or foreign file?)");
  else if (header_end == std::string_view::npos)
    refuse(CorruptStage::kHeader, bytes.size(), "unterminated header line");
  else if (std::istringstream header(std::string(
               bytes.substr(kMagic.size(), header_end - kMagic.size())));
           !(header >> version >> tag >> declared))
    refuse(CorruptStage::kHeader, kMagic.size(), "malformed header fields");
  if (env.refusal) return env;
  info.version = version;
  info.format_tag = tag;
  info.declared_bytes = declared;
  info.header_ok = version == kVersion;
  if (!info.header_ok)
    refuse(CorruptStage::kHeader, kMagic.size(),
           "unsupported version v" + std::to_string(version));
  if (expected_tag && tag != *expected_tag)
    refuse(CorruptStage::kHeader, kMagic.size(),
           "format tag '" + tag + "' (expected '" + *expected_tag + "')");

  // Does the file hold the declared payload plus a footer? Phrased so a
  // corrupt, huge `declared` cannot overflow.
  const std::size_t payload_begin = header_end + 1;
  const std::size_t rest = bytes.size() - payload_begin;
  if (declared > rest || rest - declared < kFooterBytes) {
    refuse(CorruptStage::kTruncation, bytes.size(),
           "file holds " + std::to_string(bytes.size()) + " bytes but header " +
               "declares a " + std::to_string(declared) + "-byte payload " +
               "(expected >= " +
               std::to_string(payload_begin + declared + kFooterBytes) + ")");
    return env;
  }
  env.payload = bytes.substr(payload_begin, declared);
  info.crc_actual = util::hex_u64(crc64(env.payload));
  const std::size_t footer_begin = payload_begin + declared;
  const std::size_t end = footer_begin + kFooterBytes;
  const std::string_view footer = bytes.substr(footer_begin, kFooterBytes);
  if (!footer.starts_with(kFooterPrefix)) {
    refuse(CorruptStage::kTruncation, footer_begin,
           "footer line missing or malformed");
  } else {
    info.crc_declared = footer.substr(kFooterPrefix.size(), 16);
    if (info.crc_declared != info.crc_actual)
      refuse(CorruptStage::kChecksum, payload_begin,
             "payload CRC64 " + info.crc_actual + " != declared " +
                 info.crc_declared);
  }
  info.checksum_ok = !info.crc_declared.empty() &&
                     info.crc_declared == info.crc_actual;
  // The envelope ends with the footer's newline, and so must the file.
  const bool terminated = footer.back() == '\n';
  if (!terminated)
    refuse(CorruptStage::kTruncation, end - 1,
           "footer line does not end in a newline");
  info.length_ok = terminated && bytes.size() == end;
  if (bytes.size() != end)
    refuse(CorruptStage::kTruncation, end,
           std::to_string(bytes.size() - end) +
               " bytes after the footer, where the file should end");
  return env;
}

/// The whole file at `path`; nullopt when it cannot be opened.
std::optional<std::string> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  return std::string(std::istreambuf_iterator<char>(in), {});
}

/// read() and read_or_legacy(): load the file once, parse it, count it.
std::string read_counted(const std::string& path,
                         const std::string& format_tag, bool legacy_ok) {
  std::optional<std::string> bytes = slurp(path);
  if (!bytes) throw std::runtime_error("DurableFile: cannot open " + path);
  const Envelope env = parse_envelope(*bytes, path, &format_tag);
  count_durable(env.refusal ? &DurableStats::read_failures
                            : &DurableStats::reads);
  if (!env.refusal) return std::string(env.payload);
  if (legacy_ok && env.info.legacy) return std::move(*bytes);
  throw *env.refusal;
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

std::string DurableFile::encode(const std::string& format_tag,
                                std::string_view payload) {
  if (format_tag.empty() ||
      format_tag.find_first_of(" \n\t") != std::string::npos)
    throw std::invalid_argument("DurableFile: bad format tag '" + format_tag +
                                "'");
  const std::string header = std::string(kMagic) + std::to_string(kVersion) +
                             ' ' + format_tag + ' ' +
                             std::to_string(payload.size()) + '\n';
  std::string bytes;
  bytes.reserve(header.size() + payload.size() + kFooterBytes);
  bytes += header;
  bytes += payload;
  bytes += kFooterPrefix;
  bytes += util::hex_u64(crc64(payload));
  bytes += '\n';
  return bytes;
}

void DurableFile::write(const std::string& path, const std::string& format_tag,
                        const std::string& payload) {
  const std::string bytes = encode(format_tag, payload);

  failpoint("durable.save.begin");
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0)
    throw std::runtime_error("DurableFile: cannot open " + tmp + ": " +
                             std::strerror(errno));
  write_all(fd, tmp, bytes.data(), bytes.size());
  failpoint("durable.save.tmp");  // tmp written, not yet synced or renamed
  const bool synced = ::fsync(fd) == 0;
  ::close(fd);
  if (!synced)
    throw std::runtime_error("DurableFile: fsync of " + tmp + " failed");
  failpoint("durable.save.prerename");  // previous file still fully intact
  if (std::rename(tmp.c_str(), path.c_str()) != 0)
    throw std::runtime_error("DurableFile: cannot rename " + tmp + " to " +
                             path);
  fsync_parent_dir(path);
  count_durable(&DurableStats::writes);
  count_durable(&DurableStats::bytes_written, bytes.size());
  // File site: chaos may tear or bit-flip the fully-written file here to
  // simulate storage-level corruption that the next read must detect.
  failpoint_file("durable.save.postrename", path.c_str());
}

bool DurableFile::write_idempotent(const std::string& path,
                                   const std::string& format_tag,
                                   const std::string& payload) {
  if (const std::optional<std::string> bytes = slurp(path)) {
    try {
      if (decode(*bytes, format_tag, path) == payload) return false;
    } catch (const CheckpointCorruptError&) {
      // Torn or divergent: fall through to the atomic replace.
    }
  }
  write(path, format_tag, payload);
  return true;
}

std::string DurableFile::read(const std::string& path,
                              const std::string& format_tag) {
  return read_counted(path, format_tag, /*legacy_ok=*/false);
}

std::string DurableFile::read_or_legacy(const std::string& path,
                                        const std::string& format_tag) {
  return read_counted(path, format_tag, /*legacy_ok=*/true);
}

std::string_view DurableFile::decode(std::string_view bytes,
                                     const std::string& format_tag,
                                     const std::string& file) {
  Envelope env = parse_envelope(bytes, file, &format_tag);
  if (env.refusal) throw *env.refusal;
  return env.payload;
}

FileInfo DurableFile::inspect(const std::string& path) {
  const std::optional<std::string> bytes = slurp(path);
  return bytes ? inspect_bytes(*bytes) : FileInfo{};
}

FileInfo DurableFile::inspect_bytes(std::string_view bytes) {
  return parse_envelope(bytes, "", nullptr).info;
}

}  // namespace hadas::util::durable
