/**
 * @file
 * Versioned binary serialization: the durability layer under the
 * simulator's checkpoint/restore subsystem.
 *
 * Three pieces:
 *
 *  - Archive: a bidirectional byte-stream codec. One
 *    checkpointState(Archive&) method per class walks its fields in
 *    a fixed order; the same code path runs for save and load, so
 *    the two directions cannot drift apart. All primitives are
 *    written as fixed-width little-endian values (doubles/floats as
 *    their IEEE-754 bit patterns), so archives are bit-exact across
 *    (little-endian) hosts and the serialized stream doubles as a
 *    canonical state digest input. DigestWriter hashes that stream
 *    as it is walked: small fields pass through one fixed-size
 *    block, stableBytes() runs are hashed where they lie, so a
 *    digest needs no state-sized copy.
 *
 *  - Checkpoint files: magic + format version + per-section framing
 *    ([id][length][payload][crc32]). CheckpointWriter frames the
 *    small fields of every section in one buffer and references the
 *    stableBytes() pieces (telemetry ring chunks) where they lie,
 *    then gathers both into one write; readCheckpointFile hands back
 *    sections as views into the file bytes. Truncation, bit flips,
 *    and version skew are *detected* (length/CRC/magic checks) and
 *    surfaced as tapas::Error — never undefined behavior, never a
 *    silent wrong resume. Bump kCheckpointFormatVersion whenever any
 *    serialized struct changes shape (docs/checkpoint-format.md).
 *
 *  - atomicWriteFile: write-to-temp (gathered from any number of
 *    pieces) + fsync + rename. Every durable write in the repo goes
 *    through it (lint rule R8 bans raw fopen/fwrite/ofstream
 *    elsewhere), so a crash mid-write leaves the previous good file,
 *    not a torn one.
 */

#ifndef TAPAS_COMMON_SERIALIZE_HH
#define TAPAS_COMMON_SERIALIZE_HH

#include <bit>
#include <cstdint>
#include <cstring>
#include <deque>
#include <memory>
#include <new>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "common/error.hh"
#include "common/types.hh"

namespace tapas {

/** The kernels crc32() can run; each yields the same value. */
enum class Crc32Kernel
{
    /** Slicing-by-8 tables: any host. */
    Table,
    /** PCLMULQDQ folding: x86-64 hosts with PCLMUL and SSE4.1. */
    ClmulFold,
};

/** Kernel crc32() folds inputs of 64 bytes and more with on this
 *  host, chosen once at run time from the CPU's feature bits. */
Crc32Kernel crc32Kernel();

/**
 * CRC-32 (IEEE 802.3 polynomial, reflected). crc32Kernel() folds the
 * whole 16-byte blocks of inputs of 64 bytes and more; the
 * slicing-by-8 tables take shorter inputs, the tail under 16 bytes,
 * and hosts without the fold. @p prev chains pieces:
 * crc32(b, nb, crc32(a, na)) is the CRC of a followed by b.
 */
std::uint32_t crc32(const void *data, std::size_t size,
                    std::uint32_t prev = 0);

/** FNV-1a 64-bit hash; @p seed chains multi-buffer digests. */
std::uint64_t fnv1a64(const void *data, std::size_t size,
                      std::uint64_t seed = 0xcbf29ce484222325ULL);

/** A read-only run of bytes. */
using ByteView = std::span<const std::uint8_t>;

/**
 * Write-to-temp + fsync + rename. The destination either keeps its
 * previous contents or atomically becomes the new ones; a crash (or
 * SIGKILL) at any point never leaves a torn file behind. The file is
 * @p pieces back to back, handed to the kernel by writev in batches
 * of at most IOV_MAX; the other overloads write one piece.
 */
Error atomicWriteFile(const std::string &path,
                      std::span<const ByteView> pieces);
Error atomicWriteFile(const std::string &path, const void *data,
                      std::size_t size);
Error atomicWriteFile(const std::string &path,
                      const std::string &text);

/**
 * Whole-file reads with structured errors (no raw I/O at callers).
 * A regular file is read in one call into a buffer sized up front;
 * pipes and files that grow meanwhile are read on to EOF.
 */
Result<std::vector<std::uint8_t>>
readFileBytes(const std::string &path);
Result<std::string> readFileText(const std::string &path);

/** True when @p path names a readable file (resume discovery). */
bool fileExists(const std::string &path);

/** Best-effort delete; missing files are not an error. */
void removeFileIfExists(const std::string &path);

class CheckpointWriter;
class DigestWriter;

/**
 * Bidirectional field codec over a byte buffer. Write mode appends
 * through a cursor into storage that grows geometrically (or, under
 * a sink that consumes it, is reused once full), so each field costs
 * one capacity check plus one memcpy; read mode consumes with bounds
 * checks. A read past the end (or a semantic mismatch flagged by
 * fail()) latches ok() to false and turns every later read into a
 * zero-fill no-op — callers run the full checkpointState walk and
 * check ok() once at the end.
 */
class Archive
{
  public:
    static Archive
    writer()
    {
        return Archive();
    }

    static Archive
    reader(const std::uint8_t *data, std::size_t size)
    {
        Archive ar;
        ar.readMode = true;
        ar.readData = data;
        ar.readSize = size;
        return ar;
    }

    static Archive
    reader(std::span<const std::uint8_t> bytes)
    {
        return reader(bytes.data(), bytes.size());
    }

    bool writing() const { return !readMode; }
    bool ok() const { return okFlag; }

    /** Latch the failure flag (semantic mismatch during a read). */
    void fail() { okFlag = false; }

    /**
     * Serialized bytes (write mode): exactly what was written. In a
     * CheckpointWriter's archive the stableBytes() pieces are not in
     * it; the writer gathers them in at write(). A DigestWriter's
     * archive holds only what it has not hashed yet.
     */
    std::span<const std::uint8_t>
    buffer() const
    {
        return {store.get(), writePos};
    }

    /** Unconsumed bytes (read mode). */
    std::size_t
    remaining() const
    {
        return readSize - readPos;
    }

    /** A fully consumed, error-free read. */
    bool done() const { return okFlag && remaining() == 0; }

    /**
     * Guard container sizes read from untrusted bytes: a corrupt
     * count of elements at least @p min_elem_bytes wide each must fail
     * the archive (false), not drive a multi-gigabyte resize.
     */
    bool
    checkCount(std::size_t n, std::size_t min_elem_bytes)
    {
        if (!okFlag ||
            n > remaining() / (min_elem_bytes ? min_elem_bytes
                                              : 1)) {
            okFlag = false;
            return false;
        }
        return true;
    }

    // ------------------------------------------------ primitives --

    /** Arithmetic, bool, and enum fields (fixed-width LE). */
    template <typename T>
    void
    value(T &v)
    {
        static_assert(std::is_arithmetic_v<T> || std::is_enum_v<T>,
                      "value() takes arithmetic or enum fields");
        if constexpr (std::is_enum_v<T>) {
            auto raw =
                static_cast<std::underlying_type_t<T>>(v);
            value(raw);
            v = static_cast<T>(raw);
        } else if constexpr (std::is_same_v<T, bool>) {
            std::uint8_t raw = v ? 1 : 0;
            fixed(raw);
            v = raw != 0;
        } else if constexpr (std::is_same_v<T, double>) {
            std::uint64_t bits;
            std::memcpy(&bits, &v, sizeof bits);
            fixed(bits);
            std::memcpy(&v, &bits, sizeof v);
        } else if constexpr (std::is_same_v<T, float>) {
            std::uint32_t bits;
            std::memcpy(&bits, &v, sizeof bits);
            fixed(bits);
            std::memcpy(&v, &bits, sizeof v);
        } else {
            static_assert(std::is_integral_v<T>);
            auto raw = static_cast<std::make_unsigned_t<T>>(v);
            fixed(raw);
            v = static_cast<T>(raw);
        }
    }

    /** Strongly typed ids (their raw u32 index). */
    template <typename Tag>
    void
    value(Id<Tag> &id)
    {
        value(id.index);
    }

    /** size_t fields travel as u64 (width-stable across hosts). */
    void
    count(std::size_t &n)
    {
        std::uint64_t wide = n;
        value(wide);
        n = static_cast<std::size_t>(wide);
    }

    void
    str(std::string &s)
    {
        std::size_t n = s.size();
        count(n);
        if (!readMode) {
            putBytes(s.data(), n);
            return;
        }
        if (!checkCount(n, 1)) {
            s.clear();
            return;
        }
        s.assign(reinterpret_cast<const char *>(readData + readPos),
                 n);
        readPos += n;
    }

    /**
     * @p n raw bytes whose memory image is their wire image: one
     * copy each way. The caller static_asserts that layout (size,
     * field offsets, trivially copyable, little-endian host; see
     * ServerSample). A short read latches fail() and leaves @p p
     * untouched.
     */
    void
    bytes(void *p, std::size_t n)
    {
        if (n == 0)
            return;
        if (!readMode)
            putBytes(p, n);
        else
            getBytes(p, n);
    }

    /**
     * bytes() for memory whose owner keeps it alive and unchanged
     * until the CheckpointWriter walking it returns from write().
     * That writer records where the bytes go and reads them in place
     * when it seals the frame CRC and writes the file; a DigestWriter
     * hashes them in place during the call. Neither copies them; any
     * other archive treats the call as bytes(). Memory that changes
     * or dies before write() returns (a loop-local payload, a
     * temporary) must go through bytes().
     */
    void
    stableBytes(void *p, std::size_t n)
    {
        if (n == 0)
            return;
        if (!readMode && sink) {
            if (sink->stable(buffer(),
                             {static_cast<const std::uint8_t *>(p), n}))
                writePos = 0;
            return;
        }
        bytes(p, n);
    }

    // ------------------------------------------------ containers --

    /** Vector of arithmetic/enum/Id elements. */
    template <typename T>
    void
    podVector(std::vector<T> &v)
    {
        std::size_t n = v.size();
        count(n);
        if (readMode) {
            if (!checkCount(n, wireBytes<T>())) {
                v.clear();
                return;
            }
            v.resize(n);
        }
        for (T &elem : v)
            value(elem);
    }

    /** Vector of composite elements; @p fn(Archive&, T&) per slot. */
    template <typename T, typename Fn>
    void
    each(std::vector<T> &v, Fn fn)
    {
        std::size_t n = v.size();
        count(n);
        if (readMode) {
            if (!checkCount(n, 1)) {
                v.clear();
                return;
            }
            v.clear();
            v.resize(n);
        }
        for (T &elem : v)
            fn(*this, elem);
    }

    /** Deque variant of each() (engine queues). */
    template <typename T, typename Fn>
    void
    eachDeque(std::deque<T> &v, Fn fn)
    {
        std::size_t n = v.size();
        count(n);
        if (readMode) {
            if (!checkCount(n, 1)) {
                v.clear();
                return;
            }
            v.clear();
            v.resize(n);
        }
        for (T &elem : v)
            fn(*this, elem);
    }

  private:
    friend class CheckpointWriter;
    friend class DigestWriter;

    /**
     * The write stream's consumer besides the archive's own storage:
     * CheckpointWriter references stableBytes() runs, DigestWriter
     * hashes the stream. Each hook gets the storage's bytes so far
     * and returns true when it has consumed them, which empties the
     * storage for reuse.
     */
    struct Sink
    {
        /** A stableBytes() run, @p run, follows @p buffered. */
        virtual bool stable(ByteView buffered, ByteView run) = 0;
        /** @p buffered fills the storage; false lets it grow. */
        virtual bool full(ByteView buffered) = 0;
    };

    /** A stableBytes() run, referenced where it goes: right after
     *  the first @c at bytes of the archive's own storage. */
    struct StablePiece
    {
        std::size_t at;
        ByteView bytes;
    };

    Archive() = default;

    /** Bytes one element of a podVector occupies on the wire. */
    template <typename T>
    static constexpr std::size_t
    wireBytes()
    {
        if constexpr (std::is_enum_v<T>)
            return wireBytes<std::underlying_type_t<T>>();
        else if constexpr (std::is_arithmetic_v<T>)
            return std::is_same_v<T, bool> ? 1 : sizeof(T);
        else
            return wireBytes<decltype(T::index)>();
    }

    template <typename U>
    void
    fixed(U &raw)
    {
        static_assert(std::is_unsigned_v<U>);
        // The in-memory bytes are the little-endian wire bytes.
        static_assert(std::endian::native == std::endian::little,
                      "checkpoint archives need a little-endian host");
        if (!readMode)
            putBytes(&raw, sizeof(U));
        else if (!getBytes(&raw, sizeof(U)))
            raw = 0;
    }

    void
    putBytes(const void *p, std::size_t n)
    {
        if (n > storeCap - writePos)
            grow(n);
        std::memcpy(store.get() + writePos, p, n);
        writePos += n;
    }

    /**
     * Make room for @p n more bytes: hand the full storage to the
     * sink, if it consumes it, and reuse it; otherwise reallocate
     * (capacity at least doubles).
     */
    void grow(std::size_t n);

    bool
    getBytes(void *p, std::size_t n)
    {
        if (!okFlag || n > remaining()) {
            okFlag = false;
            return false;
        }
        std::memcpy(p, readData + readPos, n);
        readPos += n;
        return true;
    }

    bool readMode = false;
    bool okFlag = true;
    // Set by CheckpointWriter and DigestWriter.
    Sink *sink = nullptr;
    // Write storage: [0, writePos) is written, [writePos, storeCap)
    // is uninitialized.
    std::unique_ptr<std::uint8_t[]> store;
    std::size_t storeCap = 0;
    std::size_t writePos = 0;
    const std::uint8_t *readData = nullptr;
    std::size_t readSize = 0;
    std::size_t readPos = 0;
};

// ---------------------------------------------- checkpoint files --

/**
 * Bump on ANY serialized-struct change (field added, removed,
 * reordered, or retyped anywhere under a checkpointState walk).
 * Readers reject other versions with ErrorCode::Version; there is no
 * cross-version migration — a checkpoint is a resume token, not an
 * interchange format (docs/checkpoint-format.md).
 */
constexpr std::uint32_t kCheckpointFormatVersion = 1;

/**
 * Writes a checkpoint file by gathering, not copying, its biggest
 * runs. The header and every section's small fields are walked
 * straight into one growing buffer: a section's id and a length
 * placeholder go first, its walk appends the payload, then the length
 * is patched and the frame sealed with its CRC. Archive::stableBytes()
 * runs stay where their owner keeps them: the writer records where
 * each goes, chains the frame CRC over the buffer and those pieces in
 * stream order, and write() hands the same ordered pieces to the
 * gathered atomicWriteFile. The file is byte for byte the one a
 * contiguous frame would give.
 */
class CheckpointWriter final : private Archive::Sink
{
  public:
    explicit CheckpointWriter(std::uint64_t config_digest);

    CheckpointWriter(const CheckpointWriter &) = delete;
    CheckpointWriter &operator=(const CheckpointWriter &) = delete;

    /** Frame one section; @p walk(Archive&) appends its payload. */
    template <typename Walk>
    void
    section(std::uint32_t id, Walk &&walk)
    {
        beginSection(id);
        walk(ar);
        endSection();
    }

    /** Seal the header (section count, CRC) and write the file. */
    Error write(const std::string &path);

  private:
    void beginSection(std::uint32_t id);
    void endSection();

    /** Record where @p run goes; the buffer stays. */
    bool stable(ByteView buffered, ByteView run) override;
    /** The frame buffer keeps growing. */
    bool full(ByteView) override { return false; }

    Archive ar;
    std::vector<Archive::StablePiece> pieces;
    std::uint32_t sectionCount = 0;
    // The open section: its frame's offset in ar's storage and its
    // first entry in pieces.
    std::size_t frameAt = 0;
    std::size_t framePiece = 0;
};

/**
 * FNV-1a-64 of a write walk's byte stream, without a copy of it: the
 * value equals fnv1a64 over the buffer Archive::writer() holds after
 * the same walk. Small fields go into one kBlockBytes block, folded
 * into the running hash each time it fills and then reused;
 * a stableBytes() run folds the block so far, then is hashed where
 * it lies. FNV-1a is byte-serial, so splitting the stream this way
 * yields the one-buffer value, and memory stays O(block) (a single
 * bytes() call longer than the block still grows it).
 */
class DigestWriter final : private Archive::Sink
{
  public:
    static constexpr std::size_t kBlockBytes = 4096;

    DigestWriter();

    DigestWriter(const DigestWriter &) = delete;
    DigestWriter &operator=(const DigestWriter &) = delete;

    /** The archive to walk; it writes. */
    Archive &archive() { return ar; }

    /** Digest of every byte walked so far. */
    std::uint64_t
    value() const
    {
        return fnv1a64(ar.buffer().data(), ar.buffer().size(), hash);
    }

  private:
    bool stable(ByteView buffered, ByteView run) override;
    bool full(ByteView buffered) override;

    Archive ar;
    std::uint64_t hash = fnv1a64(nullptr, 0);
};

/** One framed section: a view into its CheckpointData's bytes. */
struct CheckpointSection
{
    std::uint32_t id = 0;
    std::span<const std::uint8_t> payload;
};

/**
 * Parsed, CRC-verified checkpoint file contents. It owns the file
 * bytes and its sections are views into them, so it is move-only: a
 * move keeps the views valid, a copy would leave them on the source.
 */
class CheckpointData
{
  public:
    CheckpointData() = default;
    CheckpointData(CheckpointData &&) = default;
    CheckpointData &operator=(CheckpointData &&) = default;
    CheckpointData(const CheckpointData &) = delete;
    CheckpointData &operator=(const CheckpointData &) = delete;

    std::uint32_t version = 0;
    /** Digest of the writing simulation's configuration. */
    std::uint64_t configDigest = 0;
    std::vector<CheckpointSection> sections;

    const CheckpointSection *
    find(std::uint32_t id) const
    {
        for (const CheckpointSection &s : sections) {
            if (s.id == id)
                return &s;
        }
        return nullptr;
    }

  private:
    friend Result<CheckpointData>
    readCheckpointFile(const std::string &path);

    /** std::allocator whose value-less construct() leaves the byte
     *  unset: resize() reserves room the file read overwrites,
     *  without zero-filling it first. */
    template <typename T>
    struct OverwriteAllocator : std::allocator<T>
    {
        template <typename U>
        struct rebind
        {
            using other = OverwriteAllocator<U>;
        };

        void
        construct(T *p) noexcept
        {
            ::new (static_cast<void *>(p)) T;
        }
    };

    std::vector<std::uint8_t, OverwriteAllocator<std::uint8_t>> file;
};

/**
 * Read + fully validate a checkpoint file: magic, header CRC,
 * version, per-section length bounds and frame CRCs (each section's
 * CRC seals its id, length, and payload). Any
 * truncation or bit flip yields ErrorCode::Corrupt (wrong version:
 * ErrorCode::Version); the sections, views into the file bytes read
 * once, are returned only when every check passed.
 */
Result<CheckpointData> readCheckpointFile(const std::string &path);

} // namespace tapas

#endif // TAPAS_COMMON_SERIALIZE_HH
