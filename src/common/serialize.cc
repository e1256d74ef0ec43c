/**
 * @file
 * Checkpoint file I/O, CRC32/FNV hashing, and the atomic
 * write-rename file. This file is the one place in the library
 * allowed to touch raw stdio or POSIX file writes (lint rule R8
 * exempts it); everything else writes durable files through
 * atomicWriteFile() or CheckpointWriter, both on AtomicFile.
 */

#include "common/serialize.hh"

#include <algorithm>
#include <array>
#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstring>
#include <vector>

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/uio.h>
#include <unistd.h>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#define TAPAS_CRC32_CLMUL 1
#endif

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

/** RAII stdio read handle so every error path closes the file. */
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
};

/** Advance the CRC register @p c over @p size bytes, eight at a time. */
std::uint32_t
crc32Table(std::uint32_t c, const std::uint8_t *bytes, std::size_t size)
{
    const CrcTables &t = kCrcTables;
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
    return c;
}

#ifdef TAPAS_CRC32_CLMUL

#define TAPAS_CLMUL_TARGET __attribute__((target("pclmul,sse4.1")))

TAPAS_CLMUL_TARGET __m128i
loadLane(const std::uint8_t *p)
{
    return _mm_loadu_si128(reinterpret_cast<const __m128i *>(p));
}

/** a.lo * k.lo ^ a.hi * k.hi ^ next: lane @p a folded forward onto
 *  the input block @p next. */
TAPAS_CLMUL_TARGET __m128i
foldLane(__m128i a, __m128i k, __m128i next)
{
    return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(a, k, 0x00),
                                       _mm_clmulepi64_si128(a, k, 0x11)),
                         next);
}

/**
 * Advance the CRC register @p c over @p size bytes (a multiple of 16,
 * at least 64) by carry-less multiply folding: four 128-bit lanes
 * fold 64 bytes per iteration, collapse into one lane, take single
 * 16-byte folds, and a Barrett reduction brings the remainder back to
 * 32 bits. The constants are x^k mod P for the reflected IEEE
 * polynomial (Intel, "Fast CRC Computation for Generic Polynomials
 * Using PCLMULQDQ Instruction", 2009): k1/k2 fold across 512 bits,
 * k3/k4 across 128, k5 from 96 to 64 bits; P' and mu reduce.
 */
TAPAS_CLMUL_TARGET std::uint32_t
crc32Fold(std::uint32_t c, const std::uint8_t *bytes, std::size_t size)
{
    const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
    const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
    const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
    const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
    const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);

    __m128i x1 = _mm_xor_si128(loadLane(bytes),
                               _mm_cvtsi32_si128(static_cast<int>(c)));
    __m128i x2 = loadLane(bytes + 16);
    __m128i x3 = loadLane(bytes + 32);
    __m128i x4 = loadLane(bytes + 48);
    bytes += 64;
    size -= 64;
    for (; size >= 64; bytes += 64, size -= 64) {
        x1 = foldLane(x1, k1k2, loadLane(bytes));
        x2 = foldLane(x2, k1k2, loadLane(bytes + 16));
        x3 = foldLane(x3, k1k2, loadLane(bytes + 32));
        x4 = foldLane(x4, k1k2, loadLane(bytes + 48));
    }
    x1 = foldLane(x1, k3k4, x2);
    x1 = foldLane(x1, k3k4, x3);
    x1 = foldLane(x1, k3k4, x4);
    for (; size >= 16; bytes += 16, size -= 16)
        x1 = foldLane(x1, k3k4, loadLane(bytes));

    // 128 -> 64 bits, then 64 -> 32 via k5.
    x1 = _mm_xor_si128(_mm_srli_si128(x1, 8),
                       _mm_clmulepi64_si128(x1, k3k4, 0x10));
    x1 = _mm_xor_si128(
        _mm_srli_si128(x1, 4),
        _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5, 0x00));

    // Barrett reduction to the 32-bit register.
    __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly,
                                     0x10);
    t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly, 0x00);
    return static_cast<std::uint32_t>(
        _mm_extract_epi32(_mm_xor_si128(x1, t), 1));
}

#endif // TAPAS_CRC32_CLMUL

} // namespace

Crc32Kernel
crc32Kernel()
{
#ifdef TAPAS_CRC32_CLMUL
    // Chosen at run time, once, so builds without -march flags
    // still take the fold on hosts that have it.
    static const Crc32Kernel selected = [] {
        __builtin_cpu_init();
        return __builtin_cpu_supports("pclmul") &&
                __builtin_cpu_supports("sse4.1")
            ? Crc32Kernel::ClmulFold
            : Crc32Kernel::Table;
    }();
    return selected;
#else
    return Crc32Kernel::Table;
#endif
}

std::uint32_t
crc32(const void *data, std::size_t size, std::uint32_t prev)
{
    const auto *bytes = static_cast<const std::uint8_t *>(data);
    std::uint32_t c = prev ^ 0xFFFFFFFFu;
#ifdef TAPAS_CRC32_CLMUL
    if (size >= 64 && crc32Kernel() == Crc32Kernel::ClmulFold) {
        const std::size_t folded = size & ~std::size_t{15};
        c = crc32Fold(c, bytes, folded);
        bytes += folded;
        size -= folded;
    }
#endif
    return crc32Table(c, bytes, size) ^ 0xFFFFFFFFu;
}

namespace {

/** @p a times @p b modulo the CRC polynomial, both reflected (bit 31
 *  holds x^0), as zlib's multmodp. */
constexpr std::uint32_t
multModP(std::uint32_t a, std::uint32_t b)
{
    std::uint32_t product = 0;
    for (std::uint32_t m = 1u << 31; m != 0; m >>= 1) {
        if (a & m)
            product ^= b;
        b = (b & 1) ? 0xEDB88320u ^ (b >> 1) : b >> 1;
    }
    return product;
}

/** x^(2^k) modulo the polynomial, for k < 67: enough for a shift by
 *  any 64-bit byte count, 2^3 bits per byte. */
constexpr std::array<std::uint32_t, 67> kX2n = [] {
    std::array<std::uint32_t, 67> t{};
    t[0] = 1u << 30; // x^1
    for (std::size_t k = 1; k < t.size(); ++k)
        t[k] = multModP(t[k - 1], t[k - 1]);
    return t;
}();

} // namespace

std::uint32_t
crc32Combine(std::uint32_t crc_a, std::uint32_t crc_b, std::size_t len_b)
{
    // The pre- and post-inversions cancel: crc(a b) is crc(a) times
    // x^(8 len_b), xor crc(b).
    std::uint32_t shifted = crc_a;
    for (std::size_t k = 3; len_b != 0; len_b >>= 1, ++k) {
        if (len_b & 1)
            shifted = multModP(kX2n[k], shifted);
    }
    return shifted ^ crc_b;
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
Archive::putMore(const void *p, std::size_t n)
{
    const auto *from = static_cast<const std::uint8_t *>(p);
    if (!sink) {
        const std::size_t cap =
            std::max({storeCap * 2, writePos + n, std::size_t{256}});
        // for_overwrite: the tail is not zero-filled, so its pages
        // stay untouched (and out of RSS) until written.
        auto bigger = std::make_unique_for_overwrite<std::uint8_t[]>(cap);
        if (writePos > 0)
            std::memcpy(bigger.get(), store.get(), writePos);
        store = std::move(bigger);
        storeCap = cap;
        std::memcpy(store.get() + writePos, from, n);
        writePos += n;
        return;
    }
    for (;;) {
        const std::size_t take = std::min(n, storeCap - writePos);
        std::memcpy(store.get() + writePos, from, take);
        writePos += take;
        from += take;
        n -= take;
        if (n == 0)
            return;
        sink->full(buffer());
        writePos = 0;
    }
}

bool
Archive::getMore(void *p, std::size_t n)
{
    if (!okFlag || n > remaining()) {
        okFlag = false;
        return false;
    }
    // The buffer's bytes first, then window after window from the
    // source, which holds the rest of the frame.
    auto *to = static_cast<std::uint8_t *>(p);
    for (;;) {
        const std::size_t take = std::min(n, readSize - readPos);
        if (take > 0)
            std::memcpy(to, readData + readPos, take);
        readPos += take;
        to += take;
        n -= take;
        if (n == 0)
            return true;
        const ByteView view = source->refill(readBeyond);
        if (view.empty())
            break;
        readData = view.data();
        readSize = view.size();
        readPos = 0;
        readBeyond -= view.size();
    }
    okFlag = false;
    return false;
}

namespace {

/**
 * Write all of @p pieces to @p fd in order, by writev in batches of
 * at most IOV_MAX, resuming after short writes and EINTR. False (with
 * errno set) on a write error.
 */
bool
writeAllPieces(int fd, std::span<const ByteView> pieces)
{
    std::size_t next = 0; // first piece not yet fully written
    std::size_t done = 0; // bytes of pieces[next] already written
    iovec batch[IOV_MAX]; // [0, n) is set before each writev
    for (;;) {
        int n = 0;
        std::size_t want = 0;
        for (std::size_t i = next; i < pieces.size() && n < IOV_MAX;
             ++i) {
            const ByteView piece =
                pieces[i].subspan(i == next ? done : 0);
            // writev only reads through iov_base.
            batch[n++] = {const_cast<std::uint8_t *>(piece.data()),
                          piece.size()};
            want += piece.size();
        }
        if (n == 0)
            return true;
        const ssize_t wrote = ::writev(fd, batch, n);
        if (wrote < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        if (wrote == 0 && want > 0) {
            errno = EIO;
            return false;
        }
        auto left = static_cast<std::size_t>(wrote);
        for (; next < pieces.size() &&
             left >= pieces[next].size() - done;
             ++next) {
            left -= pieces[next].size() - done;
            done = 0;
        }
        done += left;
    }
}

} // namespace

AtomicFile::AtomicFile(const std::string &file)
    : path(file), tmp(file + ".tmp")
{
    // O_TRUNC: a stale temp file left by a killed write is
    // overwritten, never appended to.
    fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                0666);
    if (fd < 0)
        err = Error::io(errnoMessage("cannot create", tmp));
}

AtomicFile::~AtomicFile()
{
    if (fd >= 0) {
        ::close(fd);
        std::remove(tmp.c_str());
    }
}

void
AtomicFile::fail(const std::string &what, const std::string &name)
{
    err = Error::io(errnoMessage(what, name));
    if (fd >= 0)
        ::close(fd);
    fd = -1;
    std::remove(tmp.c_str());
}

void
AtomicFile::write(std::span<const ByteView> pieces)
{
    if (fd >= 0 && !writeAllPieces(fd, pieces))
        fail("short write to", tmp);
}

void
AtomicFile::writeAt(std::uint64_t at, ByteView bytes)
{
    while (fd >= 0 && !bytes.empty()) {
        const ssize_t wrote = ::pwrite(fd, bytes.data(), bytes.size(),
                                       static_cast<off_t>(at));
        if (wrote < 0 && errno == EINTR)
            continue;
        if (wrote <= 0) {
            if (wrote == 0)
                errno = EIO;
            fail("short write to", tmp);
            return;
        }
        bytes = bytes.subspan(static_cast<std::size_t>(wrote));
        at += static_cast<std::uint64_t>(wrote);
    }
}

Error
AtomicFile::commit()
{
    if (fd < 0)
        return err;
    // Force the bytes to disk before the rename publishes the file:
    // rename-before-fsync can expose an empty file after a power cut.
    if (fsync(fd) != 0) {
        fail("cannot flush", tmp);
        return err;
    }
    const int closing = fd;
    fd = -1;
    if (::close(closing) != 0)
        fail("cannot close", tmp);
    else if (std::rename(tmp.c_str(), path.c_str()) != 0)
        fail("cannot rename into", path);
    return err;
}

Error
atomicWriteFile(const std::string &path, const void *data,
                std::size_t size)
{
    AtomicFile file(path);
    const ByteView piece{static_cast<const std::uint8_t *>(data), size};
    file.write({&piece, 1});
    return file.commit();
}

Error
atomicWriteFile(const std::string &path, const std::string &text)
{
    return atomicWriteFile(path, text.data(), text.size());
}

namespace {

/**
 * Read all of @p path into @p bytes: a regular file in one call into
 * a buffer sized up front; pipes and files that grow meanwhile are
 * read on to EOF.
 */
Error
readWholeFile(const std::string &path, std::vector<std::uint8_t> &bytes)
{
    FileHandle in(std::fopen(path.c_str(), "rb"));
    if (!in.fp)
        return Error::io(errnoMessage("cannot open", path));

    // st_size is 0 for pipes, and a file may grow after the fstat,
    // so read on in chunks until EOF.
    struct stat st;
    if (fstat(fileno(in.fp), &st) != 0)
        return Error::io(errnoMessage("cannot stat", path));
    bytes.resize(S_ISREG(st.st_mode)
                     ? static_cast<std::size_t>(st.st_size)
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
    return Error::okValue();
}

} // namespace

Result<std::vector<std::uint8_t>>
readFileBytes(const std::string &path)
{
    std::vector<std::uint8_t> bytes;
    const Error err = readWholeFile(path, bytes);
    if (!err.ok())
        return err;
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
/** id + payloadLen, ahead of each payload. */
constexpr std::size_t kFrameHead = 4 + 8;

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

/** The file header for @p section_count sections, its CRC sealed. */
std::array<std::uint8_t, kHeaderSize>
checkpointHeader(std::uint32_t section_count, std::uint64_t config_digest)
{
    std::array<std::uint8_t, kHeaderSize> header{};
    const std::uint32_t version = kCheckpointFormatVersion;
    std::memcpy(header.data(), kMagic, sizeof kMagic);
    std::memcpy(header.data() + 8, &version, 4);
    std::memcpy(header.data() + 12, &section_count, 4);
    std::memcpy(header.data() + 16, &config_digest, 8);
    const std::uint32_t crc = crc32(header.data(), kHeaderSize - 4);
    std::memcpy(header.data() + kHeaderSize - 4, &crc, 4);
    return header;
}

} // namespace

CheckpointWriter::CheckpointWriter(const std::string &path,
                                   std::uint64_t config_digest)
    : file(path), digest(config_digest)
{
    ar.sink = this;
    ar.useWindow(CheckpointReader::kWindowBytes);
    pending.reserve(IOV_MAX);
    // The count is a placeholder until commit() rewrites the header.
    auto header = checkpointHeader(0, digest);
    ar.bytes(header.data(), header.size());
}

void
CheckpointWriter::queue(ByteView piece)
{
    if (inPayload) {
        payloadCrc = crc32(piece.data(), piece.size(), payloadCrc);
        payloadLen += piece.size();
    }
    pending.push_back(piece);
    streamed += piece.size();
}

void
CheckpointWriter::queueWindow()
{
    if (ar.writePos > queued)
        queue({ar.store.get() + queued, ar.writePos - queued});
    queued = ar.writePos;
}

void
CheckpointWriter::flush()
{
    file.write(pending);
    pending.clear();
    queued = 0;
    ar.writePos = 0;
}

bool
CheckpointWriter::stable(ByteView, ByteView run)
{
    queueWindow();
    queue(run);
    // Room for the next call's two pieces.
    if (pending.size() + 2 <= IOV_MAX)
        return false;
    flush();
    return true;
}

void
CheckpointWriter::full(ByteView)
{
    queueWindow();
    flush();
}

void
CheckpointWriter::beginSection(std::uint32_t id)
{
    frameAt = streamed + (ar.writePos - queued);
    frameId = id;
    std::uint64_t length_placeholder = 0;
    ar.value(id);
    ar.value(length_placeholder);
    queueWindow();
    inPayload = true;
    payloadLen = 0;
    payloadCrc = 0;
    ++sectionCount;
}

void
CheckpointWriter::endSection()
{
    // Every stableBytes() run of the section goes out before its walk
    // is over; the window is reused from here on.
    queueWindow();
    inPayload = false;
    flush();
    // The section CRC seals the whole frame (id + length + payload),
    // so a flipped id or length is as detectable as a flipped
    // payload byte: the head's CRC, shifted over the payload.
    std::uint8_t head[kFrameHead];
    std::memcpy(head, &frameId, 4);
    std::memcpy(head + 4, &payloadLen, 8);
    file.writeAt(frameAt + 4, {head + 4, 8});
    std::uint32_t crc =
        crc32Combine(crc32(head, kFrameHead), payloadCrc, payloadLen);
    ar.value(crc);
}

Error
CheckpointWriter::commit()
{
    queueWindow();
    flush();
    const auto header = checkpointHeader(sectionCount, digest);
    file.writeAt(0, header);
    return file.commit();
}

DigestWriter::DigestWriter()
{
    ar.sink = this;
    ar.useWindow(kBlockBytes);
}

bool
DigestWriter::stable(ByteView buffered, ByteView run)
{
    // Stream order: the block so far, then the run.
    full(buffered);
    hash = fnv1a64(run.data(), run.size(), hash);
    return true;
}

void
DigestWriter::full(ByteView buffered)
{
    hash = fnv1a64(buffered.data(), buffered.size(), hash);
}

CheckpointReader::CheckpointReader()
{
    ar.readMode = true;
    ar.source = this;
}

CheckpointReader::~CheckpointReader()
{
    if (fd >= 0)
        ::close(fd);
}

Error
CheckpointReader::corrupt(const std::string &what) const
{
    return Error::corrupt("checkpoint '" + path + "': " + what);
}

bool
CheckpointReader::fill(std::size_t n)
{
    if (winLen - winPos >= n)
        return true;
    // Keep the unconsumed tail, then read on until the window is full
    // or the file ends.
    std::memmove(window.get(), window.get() + winPos, winLen - winPos);
    winLen -= winPos;
    winPos = 0;
    while (winLen < n) {
        const std::size_t got =
            readSome(window.get() + winLen,
                     std::min(kWindowBytes - winLen, fileSize - filePos));
        if (got == 0)
            return false;
        winLen += got;
    }
    return true;
}

std::size_t
CheckpointReader::readSome(std::uint8_t *to, std::size_t n)
{
    for (;;) {
        const ssize_t got = n == 0 ? 0 : ::read(fd, to, n);
        if (got > 0) {
            filePos += static_cast<std::size_t>(got);
            return static_cast<std::size_t>(got);
        }
        if (got < 0 && errno == EINTR)
            continue;
        // Every read stays inside the size fstat reported, so only a
        // read error or a file that shrank since lands here.
        readError = got < 0
            ? Error::io(errnoMessage("read failed on", path))
            : Error::io("short read on '" + path + "': " +
                        std::to_string(filePos) + " of " +
                        std::to_string(fileSize) + " bytes");
        return 0;
    }
}

ByteView
CheckpointReader::handOut(std::size_t left)
{
    const ByteView view{window.get() + winPos,
                        std::min(winLen - winPos, left)};
    frameCrc = crc32(view.data(), view.size(), frameCrc);
    winPos += view.size();
    return view;
}

ByteView
CheckpointReader::refill(std::size_t left)
{
    return fill(1) ? handOut(left) : ByteView{};
}

Error
CheckpointReader::open(const std::string &file)
{
    path = file;
    fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0)
        return Error::io(errnoMessage("cannot open", path));
    struct stat st;
    if (fstat(fd, &st) != 0)
        return Error::io(errnoMessage("cannot stat", path));
    // Every length is bounded by the size fstat reports, which only
    // a regular file has.
    if (!S_ISREG(st.st_mode))
        return Error::io("checkpoint '" + path +
                         "': not a regular file");
    fileSize = static_cast<std::size_t>(st.st_size);
    if (fileSize < kHeaderSize)
        return corrupt("truncated header (" + std::to_string(fileSize) +
                       " bytes)");
    window = std::make_unique_for_overwrite<std::uint8_t[]>(kWindowBytes);
    if (!fill(kHeaderSize))
        return readError;
    const std::uint8_t *header = window.get() + winPos;
    winPos += kHeaderSize;
    if (std::memcmp(header, kMagic, sizeof kMagic) != 0)
        return corrupt("bad magic");
    if (getU32(header + kHeaderSize - 4) !=
        crc32(header, kHeaderSize - 4))
        return corrupt("header CRC mismatch");
    const std::uint32_t version = getU32(header + 8);
    if (version != kCheckpointFormatVersion)
        return Error::version(
            "checkpoint '" + path + "': format version " +
            std::to_string(version) + ", expected " +
            std::to_string(kCheckpointFormatVersion));
    sectionCount = getU32(header + 12);
    digest = getU64(header + 16);
    return Error::okValue();
}

Error
CheckpointReader::beginSection(std::uint32_t index)
{
    if (fileSize - position() < kFrameHead)
        return corrupt("truncated at section " + std::to_string(index) +
                       " frame");
    if (!fill(kFrameHead))
        return readError;
    const std::uint8_t *head = window.get() + winPos;
    frameId = getU32(head);
    const std::uint64_t len = getU64(head + 4);
    frameCrc = crc32(head, kFrameHead);
    winPos += kFrameHead;
    const std::size_t left = fileSize - position();
    if (len > left || left - static_cast<std::size_t>(len) < 4)
        return corrupt("section " + std::to_string(index) + " length " +
                       std::to_string(len) + " exceeds file");

    // The frame's archive starts with the payload bytes the window
    // already holds; the source hands out the rest.
    ar.okFlag = true;
    ar.readBeyond = static_cast<std::size_t>(len);
    const ByteView view = handOut(ar.readBeyond);
    ar.readData = view.data();
    ar.readSize = view.size();
    ar.readPos = 0;
    ar.readBeyond -= view.size();
    return Error::okValue();
}

Error
CheckpointReader::endSection(std::uint32_t index)
{
    // Skip what the visitor left of the payload, CRC'ing it on the
    // way, then check the frame's CRC.
    ar.readPos = ar.readSize;
    while (readError.ok() && ar.readBeyond > 0)
        ar.readBeyond -= refill(ar.readBeyond).size();
    if (!readError.ok() || !fill(4))
        return readError;
    const std::uint32_t stored = getU32(window.get() + winPos);
    winPos += 4;
    if (stored != frameCrc)
        return corrupt("section " + std::to_string(index) + " (id " +
                       std::to_string(frameId) + ") CRC mismatch");
    return Error::okValue();
}

Error
CheckpointReader::finish()
{
    if (position() != fileSize)
        return corrupt(std::to_string(fileSize - position()) +
                       " trailing bytes after last section");
    return Error::okValue();
}

Result<CheckpointData>
readCheckpointFile(const std::string &path)
{
    CheckpointReader reader;
    Error err = reader.open(path);
    if (!err.ok())
        return err;
    CheckpointData data;
    data.version = kCheckpointFormatVersion;
    data.configDigest = reader.configDigest();
    err = reader.sections([&data](std::uint32_t id, Archive &ar) {
        CheckpointSection &section = data.sections.emplace_back();
        section.id = id;
        section.payload.resize(ar.remaining());
        ar.bytes(section.payload.data(), section.payload.size());
    });
    if (!err.ok())
        return err;
    return data;
}

} // namespace tapas
