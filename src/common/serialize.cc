/**
 * @file
 * Checkpoint file I/O, CRC32/FNV hashing, and the atomic
 * write-rename helper. This file is the one place in the library
 * allowed to touch raw stdio (lint rule R8 exempts it); everything
 * else writes durable files through atomicWriteFile().
 */

#include "common/serialize.hh"

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include <sys/stat.h>
#include <unistd.h>

namespace tapas {

namespace {

using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

/**
 * Slicing-by-8 tables for the reflected IEEE polynomial: t[0] is the
 * classic bytewise table, and t[k][b] is the CRC of byte b followed
 * by k zero bytes, so eight lookups fold eight input bytes at once.
 */
constexpr CrcTables
makeCrcTables()
{
    CrcTables t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
        t[0][i] = c;
    }
    for (std::size_t k = 1; k < 8; ++k) {
        for (std::size_t i = 0; i < 256; ++i)
            t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
    }
    return t;
}

constexpr CrcTables kCrcTables = makeCrcTables();

std::uint32_t
loadLe32(const std::uint8_t *p)
{
    return static_cast<std::uint32_t>(p[0]) |
        static_cast<std::uint32_t>(p[1]) << 8 |
        static_cast<std::uint32_t>(p[2]) << 16 |
        static_cast<std::uint32_t>(p[3]) << 24;
}

std::string
errnoMessage(const std::string &what, const std::string &path)
{
    return what + " '" + path + "': " + std::strerror(errno);
}

/** RAII stdio handle so every error path closes the file. */
struct FileHandle
{
    std::FILE *fp = nullptr;

    explicit FileHandle(std::FILE *f) : fp(f) {}
    ~FileHandle()
    {
        if (fp)
            std::fclose(fp);
    }
    FileHandle(const FileHandle &) = delete;
    FileHandle &operator=(const FileHandle &) = delete;

    /** Close explicitly; true when the flush-to-OS succeeded. */
    bool
    close()
    {
        if (!fp)
            return true;
        const bool ok = std::fclose(fp) == 0;
        fp = nullptr;
        return ok;
    }
};

} // namespace

std::uint32_t
crc32(const void *data, std::size_t size)
{
    const CrcTables &t = kCrcTables;
    const auto *bytes = static_cast<const std::uint8_t *>(data);
    std::uint32_t c = 0xFFFFFFFFu;
    for (; size >= 8; bytes += 8, size -= 8) {
        const std::uint32_t lo = loadLe32(bytes) ^ c;
        const std::uint32_t hi = loadLe32(bytes + 4);
        c = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^
            t[5][(lo >> 16) & 0xFF] ^ t[4][lo >> 24] ^
            t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
            t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
    }
    for (; size > 0; ++bytes, --size)
        c = t[0][(c ^ *bytes) & 0xFF] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
}

std::uint64_t
fnv1a64(const void *data, std::size_t size, std::uint64_t seed)
{
    const auto *bytes = static_cast<const std::uint8_t *>(data);
    std::uint64_t h = seed;
    for (std::size_t i = 0; i < size; ++i) {
        h ^= bytes[i];
        h *= 0x100000001b3ULL;
    }
    return h;
}

void
Archive::grow(std::size_t n)
{
    const std::size_t cap =
        std::max({storeCap * 2, writePos + n, std::size_t{256}});
    // for_overwrite: the tail is not zero-filled, so its pages stay
    // untouched (and out of RSS) until written.
    auto bigger = std::make_unique_for_overwrite<std::uint8_t[]>(cap);
    if (writePos > 0)
        std::memcpy(bigger.get(), store.get(), writePos);
    store = std::move(bigger);
    storeCap = cap;
}

std::vector<std::uint8_t>
Archive::takeBuffer()
{
    std::vector<std::uint8_t> bytes(store.get(), store.get() + writePos);
    store.reset();
    storeCap = 0;
    writePos = 0;
    return bytes;
}

Error
atomicWriteFile(const std::string &path, const void *data,
                std::size_t size)
{
    const std::string tmp = path + ".tmp";
    FileHandle out(std::fopen(tmp.c_str(), "wb"));
    if (!out.fp)
        return Error::io(errnoMessage("cannot create", tmp));

    if (size > 0 &&
        std::fwrite(data, 1, size, out.fp) != size) {
        std::remove(tmp.c_str());
        return Error::io(errnoMessage("short write to", tmp));
    }
    // Flush user-space buffers, then force the bytes to disk before
    // the rename publishes the file: rename-before-fsync can expose
    // an empty file after a power cut.
    if (std::fflush(out.fp) != 0 || fsync(fileno(out.fp)) != 0) {
        std::remove(tmp.c_str());
        return Error::io(errnoMessage("cannot flush", tmp));
    }
    if (!out.close()) {
        std::remove(tmp.c_str());
        return Error::io(errnoMessage("cannot close", tmp));
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        return Error::io(errnoMessage("cannot rename into", path));
    }
    return Error::okValue();
}

Error
atomicWriteFile(const std::string &path, const std::string &text)
{
    return atomicWriteFile(path, text.data(), text.size());
}

Result<std::vector<std::uint8_t>>
readFileBytes(const std::string &path)
{
    FileHandle in(std::fopen(path.c_str(), "rb"));
    if (!in.fp)
        return Error::io(errnoMessage("cannot open", path));

    // Size once and read a regular file in one call; st_size is 0
    // for pipes, and a file may grow after the fstat, so read on in
    // chunks until EOF.
    struct stat st;
    if (fstat(fileno(in.fp), &st) != 0)
        return Error::io(errnoMessage("cannot stat", path));
    std::vector<std::uint8_t> bytes(
        S_ISREG(st.st_mode) ? static_cast<std::size_t>(st.st_size)
                            : 0);
    const std::size_t got =
        bytes.empty() ? 0
                      : std::fread(bytes.data(), 1, bytes.size(), in.fp);
    if (got != bytes.size()) {
        if (std::ferror(in.fp))
            return Error::io(errnoMessage("read failed on", path));
        return Error::io("short read on '" + path + "': " +
                         std::to_string(got) + " of " +
                         std::to_string(bytes.size()) + " bytes");
    }
    std::uint8_t chunk[1 << 16];
    for (;;) {
        const std::size_t more =
            std::fread(chunk, 1, sizeof chunk, in.fp);
        bytes.insert(bytes.end(), chunk, chunk + more);
        if (more < sizeof chunk) {
            if (std::ferror(in.fp))
                return Error::io(
                    errnoMessage("read failed on", path));
            break;
        }
    }
    return bytes;
}

Result<std::string>
readFileText(const std::string &path)
{
    Result<std::vector<std::uint8_t>> bytes = readFileBytes(path);
    if (!bytes.ok())
        return bytes.error();
    return std::string(bytes.value().begin(), bytes.value().end());
}

bool
fileExists(const std::string &path)
{
    return access(path.c_str(), R_OK) == 0;
}

void
removeFileIfExists(const std::string &path)
{
    std::remove(path.c_str());
}

namespace {

constexpr char kMagic[8] = {'T', 'A', 'P', 'A', 'S',
                            'C', 'K', 'P'};
/** magic + version + sectionCount + configDigest + headerCrc. */
constexpr std::size_t kHeaderSize = 8 + 4 + 4 + 8 + 4;
/** id + payloadLen + payloadCrc. */
constexpr std::size_t kSectionOverhead = 4 + 8 + 4;

void
putU32(std::vector<std::uint8_t> &out, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void
putU64(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

std::uint32_t
getU32(const std::uint8_t *p)
{
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
    return v;
}

std::uint64_t
getU64(const std::uint8_t *p)
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    return v;
}

} // namespace

Error
writeCheckpointFile(const std::string &path,
                    std::uint64_t config_digest,
                    const std::vector<CheckpointSection> &sections)
{
    std::size_t total = kHeaderSize;
    for (const CheckpointSection &s : sections)
        total += kSectionOverhead + s.payload.size();

    std::vector<std::uint8_t> out;
    out.reserve(total);
    out.insert(out.end(), kMagic, kMagic + sizeof kMagic);
    putU32(out, kCheckpointFormatVersion);
    putU32(out, static_cast<std::uint32_t>(sections.size()));
    putU64(out, config_digest);
    putU32(out, crc32(out.data(), out.size()));

    for (const CheckpointSection &s : sections) {
        // The section CRC seals the whole frame (id + length +
        // payload), so a flipped id or length is as detectable as a
        // flipped payload byte.
        const std::size_t frame_start = out.size();
        putU32(out, s.id);
        putU64(out, s.payload.size());
        out.insert(out.end(), s.payload.begin(),
                   s.payload.end());
        putU32(out, crc32(out.data() + frame_start,
                          out.size() - frame_start));
    }
    return atomicWriteFile(path, out.data(), out.size());
}

Result<CheckpointData>
readCheckpointFile(const std::string &path)
{
    Result<std::vector<std::uint8_t>> read = readFileBytes(path);
    if (!read.ok())
        return read.error();
    const std::vector<std::uint8_t> &bytes = read.value();

    if (bytes.size() < kHeaderSize)
        return Error::corrupt("checkpoint '" + path +
                              "': truncated header (" +
                              std::to_string(bytes.size()) +
                              " bytes)");
    if (std::memcmp(bytes.data(), kMagic, sizeof kMagic) != 0)
        return Error::corrupt("checkpoint '" + path +
                              "': bad magic");
    if (getU32(bytes.data() + kHeaderSize - 4) !=
        crc32(bytes.data(), kHeaderSize - 4))
        return Error::corrupt("checkpoint '" + path +
                              "': header CRC mismatch");

    CheckpointData data;
    data.version = getU32(bytes.data() + 8);
    const std::uint32_t section_count =
        getU32(bytes.data() + 12);
    data.configDigest = getU64(bytes.data() + 16);
    if (data.version != kCheckpointFormatVersion)
        return Error::version(
            "checkpoint '" + path + "': format version " +
            std::to_string(data.version) + ", expected " +
            std::to_string(kCheckpointFormatVersion));

    std::size_t pos = kHeaderSize;
    data.sections.reserve(section_count);
    for (std::uint32_t i = 0; i < section_count; ++i) {
        if (bytes.size() - pos < 4 + 8)
            return Error::corrupt(
                "checkpoint '" + path + "': truncated at section " +
                std::to_string(i) + " frame");
        const std::size_t frame_start = pos;
        const std::uint32_t id = getU32(bytes.data() + pos);
        const std::uint64_t len = getU64(bytes.data() + pos + 4);
        pos += 4 + 8;
        if (len > bytes.size() - pos ||
            bytes.size() - pos - static_cast<std::size_t>(len) < 4)
            return Error::corrupt(
                "checkpoint '" + path + "': section " +
                std::to_string(i) + " length " +
                std::to_string(len) + " exceeds file");
        const std::uint8_t *payload = bytes.data() + pos;
        pos += static_cast<std::size_t>(len);
        const std::uint32_t stored_crc = getU32(bytes.data() + pos);
        pos += 4;
        if (stored_crc != crc32(bytes.data() + frame_start,
                                pos - 4 - frame_start))
            return Error::corrupt("checkpoint '" + path +
                                  "': section " + std::to_string(i) +
                                  " (id " + std::to_string(id) +
                                  ") CRC mismatch");
        CheckpointSection section;
        section.id = id;
        section.payload.assign(payload,
                               payload +
                                   static_cast<std::size_t>(len));
        data.sections.push_back(std::move(section));
    }
    if (pos != bytes.size())
        return Error::corrupt(
            "checkpoint '" + path + "': " +
            std::to_string(bytes.size() - pos) +
            " trailing bytes after last section");
    return data;
}

} // namespace tapas
