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
 *    ([id][length][payload][crc32]). CheckpointWriter streams a file
 *    out through one fixed window, gathering the stableBytes() pieces
 *    (telemetry ring chunks) in place between the window's runs;
 *    CheckpointReader streams a file back through one fixed window,
 *    chaining each frame's CRC over its bytes as they arrive
 *    (readCheckpointFile is built on it). Truncation, bit flips, and
 *    version skew are *detected* (length/CRC/magic checks) and
 *    surfaced as tapas::Error — never undefined behavior, never a
 *    silent wrong resume. Bump kCheckpointFormatVersion whenever any
 *    serialized struct changes shape (docs/checkpoint-format.md).
 *
 *  - AtomicFile: write-to-temp + fsync + rename, the one durable
 *    write sequence; atomicWriteFile and CheckpointWriter both run
 *    it. Every durable write in the repo goes through it (lint rule
 *    R8 bans raw fopen/fwrite/ofstream elsewhere), so a crash
 *    mid-write leaves the previous good file, not a torn one.
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

/**
 * The CRC of a followed by b from crc32(a), crc32(b) and b's length,
 * without b's bytes: @p crc_a shifted by @p len_b zero bytes (a
 * multiply by x^(8 len_b) modulo the polynomial, as zlib's
 * crc32_combine), xor @p crc_b.
 */
std::uint32_t crc32Combine(std::uint32_t crc_a, std::uint32_t crc_b,
                           std::size_t len_b);

/** FNV-1a 64-bit hash; @p seed chains multi-buffer digests. */
std::uint64_t fnv1a64(const void *data, std::size_t size,
                      std::uint64_t seed = 0xcbf29ce484222325ULL);

/** A read-only run of bytes. */
using ByteView = std::span<const std::uint8_t>;

/**
 * Write-to-temp + fsync + rename. The constructor creates (or
 * truncates) `<path>.tmp`; write() appends to it, writeAt() rewrites
 * bytes already written, and commit() fsyncs it and renames it over
 * @p path. The first failure is latched: the temp file is closed and
 * removed, later calls do nothing, and commit() returns it. A file
 * dropped uncommitted is removed too. So the destination either keeps
 * its previous contents or atomically becomes the new ones; a crash
 * (or SIGKILL) at any point never leaves a torn file behind, only,
 * at worst, a stale `<path>.tmp` that the next write truncates and
 * no reader opens.
 */
class AtomicFile
{
  public:
    explicit AtomicFile(const std::string &path);
    ~AtomicFile();

    AtomicFile(const AtomicFile &) = delete;
    AtomicFile &operator=(const AtomicFile &) = delete;

    /** Append @p pieces back to back, by writev in batches of at
     *  most IOV_MAX, resuming after short writes and EINTR. */
    void write(std::span<const ByteView> pieces);

    /** Rewrite @p bytes at file offset @p at (pwrite). */
    void writeAt(std::uint64_t at, ByteView bytes);

    /** Flush and publish the file, once: ok, or the first failure. */
    Error commit();

  private:
    /** Latch an Io error about @p name, close and remove the file. */
    void fail(const std::string &what, const std::string &name);

    std::string path;
    std::string tmp;
    int fd = -1;
    Error err;
};

/** AtomicFile holding @p size bytes at @p data, or @p text. */
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

class CheckpointReader;
class CheckpointWriter;
class DigestWriter;

/**
 * Bidirectional field codec over a byte buffer. Write mode appends
 * through a cursor into storage that grows geometrically (or, under
 * a sink, is one fixed window handed to the sink and reused each
 * time it fills), so each field costs one capacity check plus one
 * memcpy; read mode consumes with bounds checks, from one buffer or,
 * under a CheckpointReader, from a frame that streams through the
 * reader's window. A read past the end (or
 * a semantic mismatch flagged by fail()) latches ok() to false and
 * turns every later read into a zero-fill no-op — callers run the
 * full checkpointState walk and check ok() once at the end.
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
     * Serialized bytes (write mode): exactly what was written. Under
     * a sink (CheckpointWriter, DigestWriter) only what the sink has
     * not consumed yet, and no stableBytes() piece.
     */
    std::span<const std::uint8_t>
    buffer() const
    {
        return {store.get(), writePos};
    }

    /** Unconsumed bytes (read mode): under a CheckpointReader, what
     *  the frame holds past the cursor, not just what is buffered. */
    std::size_t
    remaining() const
    {
        return readSize - readPos + readBeyond;
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
        s.resize(n);
        getBytes(s.data(), n);
    }

    /**
     * @p n raw bytes whose memory image is their wire image: one
     * copy each way. The caller static_asserts that layout (size,
     * field offsets, trivially copyable, little-endian host; see
     * ServerSample). A read past the end latches fail() and leaves
     * @p p untouched.
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
     * until the CheckpointWriter walking it next flushes, at the
     * latest until the walk of the section it belongs to returns.
     * That writer CRCs the bytes in place and queues them for its
     * next gathered write; a DigestWriter hashes them in place during
     * the call. Neither copies them; any other archive treats the
     * call as bytes(). Memory that changes or dies while the section
     * is still being walked (a loop-local payload, a temporary) must
     * go through bytes().
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

    /**
     * Vector of composite elements; @p fn(Archive&, T&) per slot.
     * A count read back is checked against @p min_elem_bytes, the
     * fewest wire bytes one element takes, before the resize.
     */
    template <typename T, typename Fn>
    void
    each(std::vector<T> &v, Fn fn, std::size_t min_elem_bytes = 1)
    {
        std::size_t n = v.size();
        count(n);
        if (readMode) {
            if (!checkCount(n, min_elem_bytes)) {
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
    friend class CheckpointReader;
    friend class CheckpointWriter;
    friend class DigestWriter;

    /**
     * The write stream's consumer: CheckpointWriter writes it to a
     * file, DigestWriter hashes it. The archive's storage is then one
     * fixed window (useWindow()). Each hook gets the window's bytes
     * so far.
     */
    struct Sink
    {
        /** A stableBytes() run, @p run, follows @p buffered; true
         *  when the sink has consumed both, which empties the window
         *  for reuse. */
        virtual bool stable(ByteView buffered, ByteView run) = 0;
        /** @p buffered fills the window; the sink consumes it, and
         *  the window is reused. */
        virtual void full(ByteView buffered) = 0;
    };

    /**
     * The read stream's producer past the buffered bytes, the
     * read-mode counterpart of Sink: CheckpointReader hands out a
     * frame's payload through its window, CRC'ing it on the way.
     */
    struct Source
    {
        /** The next bytes of the frame in the refilled window: at
         *  least one, at most @p left and at most a window; empty on
         *  a read error. */
        virtual ByteView refill(std::size_t left) = 0;
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
        if (n > storeCap - writePos) {
            putMore(p, n);
            return;
        }
        std::memcpy(store.get() + writePos, p, n);
        writePos += n;
    }

    /**
     * putBytes() past the storage's end. Under a sink: fill the
     * window, hand it to the sink, reuse it, as often as the bytes
     * need, so the storage never grows. Otherwise reallocate
     * (capacity at least doubles).
     */
    void putMore(const void *p, std::size_t n);

    /** Give a sink's archive its fixed window of @p n bytes. */
    void
    useWindow(std::size_t n)
    {
        store = std::make_unique_for_overwrite<std::uint8_t[]>(n);
        storeCap = n;
        writePos = 0;
    }

    bool
    getBytes(void *p, std::size_t n)
    {
        if (!okFlag || n > readSize - readPos)
            return getMore(p, n);
        std::memcpy(p, readData + readPos, n);
        readPos += n;
        return true;
    }

    /**
     * getBytes() past the buffered bytes: take what the buffer holds,
     * then the rest from the source, one refilled window at a time.
     * Fails (leaving @p p untouched) when the frame holds fewer than
     * @p n.
     */
    bool getMore(void *p, std::size_t n);

    bool readMode = false;
    bool okFlag = true;
    // Set by CheckpointWriter and DigestWriter.
    Sink *sink = nullptr;
    // Write storage: [0, writePos) is written, [writePos, storeCap)
    // is uninitialized.
    std::unique_ptr<std::uint8_t[]> store;
    std::size_t storeCap = 0;
    std::size_t writePos = 0;
    // Read buffer: [readPos, readSize) of readData is unconsumed;
    // readBeyond more bytes of the frame are still with the source.
    const std::uint8_t *readData = nullptr;
    std::size_t readSize = 0;
    std::size_t readPos = 0;
    std::size_t readBeyond = 0;
    // Set by CheckpointReader.
    Source *source = nullptr;
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
 * Streams a checkpoint file to `<path>.tmp` through one fixed window
 * of CheckpointReader::kWindowBytes, never a buffer that grows with
 * the state. The constructor opens the file and puts the header in
 * the window. Each section's id and a length placeholder follow, then
 * its walk's small fields; Archive::stableBytes() runs stay where
 * their owner keeps them and are queued as pieces between the
 * window's runs. The payload's CRC is chained over each piece as it
 * is queued. The queue goes out in one gathered write (writev) when
 * the window fills or IOV_MAX pieces are pending, and at the end of
 * each section's walk; then the window is reused. At the end of a
 * section the real length is written at the frame's offset, and the
 * frame CRC is the head's CRC combined with the payload's
 * (crc32Combine). commit() writes the header's section count and
 * CRC at offset 0, then fsyncs and renames the file into place
 * (AtomicFile). The file is byte for byte the one a contiguous frame
 * would give.
 *
 * A write that fails is latched: the walks still run, write nothing,
 * and commit() returns the error with the temp file removed. A writer
 * dropped without commit() removes its temp file.
 */
class CheckpointWriter final : private Archive::Sink
{
  public:
    CheckpointWriter(const std::string &path,
                     std::uint64_t config_digest);

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

    /** Seal the header (section count, CRC) and publish the file. */
    Error commit();

  private:
    void beginSection(std::uint32_t id);
    void endSection();

    /** Queue @p piece, CRC'ing it into the open payload. */
    void queue(ByteView piece);
    /** Queue the window's bytes not queued yet. */
    void queueWindow();
    /** Write the queued pieces and empty the window. */
    void flush();

    /** Queue the window so far and @p run; flush once IOV_MAX
     *  pieces are near. */
    bool stable(ByteView buffered, ByteView run) override;
    /** Queue the full window and flush. */
    void full(ByteView buffered) override;

    AtomicFile file;
    Archive ar;
    std::uint64_t digest;
    std::uint32_t sectionCount = 0;
    // Pieces not written yet; [0, queued) of the window is among
    // them. streamed counts every byte queued so far, written or not.
    std::vector<ByteView> pending;
    std::size_t queued = 0;
    std::uint64_t streamed = 0;
    // The open section: its frame's file offset, and its payload's
    // length and CRC so far.
    bool inPayload = false;
    std::uint64_t frameAt = 0;
    std::uint32_t frameId = 0;
    std::uint64_t payloadLen = 0;
    std::uint32_t payloadCrc = 0;
};

/**
 * FNV-1a-64 of a write walk's byte stream, without a copy of it: the
 * value equals fnv1a64 over the buffer Archive::writer() holds after
 * the same walk. Small fields go into one kBlockBytes block, folded
 * into the running hash each time it fills and then reused;
 * a stableBytes() run folds the block so far, then is hashed where
 * it lies. FNV-1a is byte-serial, so splitting the stream this way
 * yields the one-buffer value, and memory stays one block.
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
    void full(ByteView buffered) override;

    Archive ar;
    std::uint64_t hash = fnv1a64(nullptr, 0);
};

/**
 * Reads a checkpoint file back through one fixed kWindowBytes window,
 * never a file-sized buffer. open() checks the header; sections()
 * then streams every frame: its id and length, its payload through
 * the frame's archive, then its CRC, chained over the bytes as they
 * arrive, while they are still in cache. The archive's remaining() is
 * what the frame holds past its cursor, so checkCount() bounds every
 * count by the frame. A read that runs past the window takes what the
 * window holds, then refills it, as often as the run needs. The checks
 * and their errors are the ones readCheckpointFile documents.
 *
 * A frame's bytes reach the visitor before its CRC is checked, so
 * whatever a visitor decodes must stay apart from live state until
 * sections() has returned ok.
 */
class CheckpointReader final : private Archive::Source
{
  public:
    static constexpr std::size_t kWindowBytes = 64 * 1024;

    CheckpointReader();
    ~CheckpointReader();

    CheckpointReader(const CheckpointReader &) = delete;
    CheckpointReader &operator=(const CheckpointReader &) = delete;

    /** Open @p path and check its header: magic, CRC and version. */
    Error open(const std::string &path);

    /** Digest of the writing simulation's configuration. */
    std::uint64_t configDigest() const { return digest; }

    /**
     * Stream every frame of the open file: @p visit(id, Archive&)
     * reads as much of the payload as it wants, and the reader CRCs
     * and skips the rest, then checks the frame's CRC. Ok once every
     * frame and the end of the file pass; otherwise the first failed
     * check's error, and no later frame is visited.
     */
    template <typename Visit>
    Error
    sections(Visit &&visit)
    {
        for (std::uint32_t i = 0; i < sectionCount; ++i) {
            Error err = beginSection(i);
            if (!err.ok())
                return err;
            visit(frameId, ar);
            err = endSection(i);
            if (!err.ok())
                return err;
        }
        return finish();
    }

  private:
    Error beginSection(std::uint32_t index);
    Error endSection(std::uint32_t index);
    Error finish();

    /** Make @p n unconsumed bytes (at most a window) ready in the
     *  window, reading as much of the file as fits; false on a failed
     *  or short read (readError says which). */
    bool fill(std::size_t n);
    /** One read() of at most @p n file bytes into @p to, retried on
     *  EINTR: how many landed, 0 (readError set) on failure. */
    std::size_t readSome(std::uint8_t *to, std::size_t n);
    /** Consume up to @p left of the window's bytes into the frame
     *  CRC and return them. */
    ByteView handOut(std::size_t left);
    ByteView refill(std::size_t left) override;
    /** File offset of the window's first unconsumed byte. */
    std::size_t position() const { return filePos - (winLen - winPos); }
    Error corrupt(const std::string &what) const;

    Archive ar;
    std::string path;
    int fd = -1;
    std::size_t fileSize = 0;
    // Bytes read from the file so far; [winPos, winLen) of the window
    // are the last of them not yet consumed.
    std::size_t filePos = 0;
    std::unique_ptr<std::uint8_t[]> window;
    std::size_t winLen = 0;
    std::size_t winPos = 0;
    std::uint32_t sectionCount = 0;
    std::uint64_t digest = 0;
    // The open frame.
    std::uint32_t frameId = 0;
    std::uint32_t frameCrc = 0;
    Error readError;
};

/** One framed section and a copy of its payload. */
struct CheckpointSection
{
    std::uint32_t id = 0;
    std::vector<std::uint8_t> payload;
};

/** Parsed, CRC-verified checkpoint file contents. */
struct CheckpointData
{
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
};

/**
 * Read + fully validate a checkpoint file through a CheckpointReader:
 * magic, header CRC, version, per-section length bounds against the
 * file's size, frame CRCs (each section's CRC seals its id, length,
 * and payload) and trailing bytes. Any truncation or bit flip yields
 * ErrorCode::Corrupt (wrong version: ErrorCode::Version; a file that
 * cannot be read, or is not a regular file: ErrorCode::Io); the
 * sections, each payload in its own buffer, are returned only when
 * every check passed.
 */
Result<CheckpointData> readCheckpointFile(const std::string &path);

} // namespace tapas

#endif // TAPAS_COMMON_SERIALIZE_HH
