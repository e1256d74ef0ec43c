/**
 * @file
 * Unit tests for the versioned binary serialization layer: Archive
 * round-trips and golden wire bytes, CRC32 reference vectors, a
 * bytewise CRC oracle, CRC chaining and the run-time kernel
 * selection, the streaming DigestWriter against one-buffer FNV-1a,
 * atomic file replacement (a short write resumed, then failed,
 * included), the checkpoint writer's exact bytes (gathered pieces
 * included), the streaming checkpoint reader at its window's edges
 * (fields, runs and frames across them, runs longer than it, counts
 * bounded by the frame), and the checkpoint container's
 * rejection of every corruption class (truncation, bit flips, bad
 * magic, future versions, trailing garbage) as a structured
 * tapas::Error.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <deque>
#include <functional>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sys/resource.h>
#include <sys/stat.h>

#include "common/file_size_limit.hh"
#include "common/serialize.hh"
#include "common/types.hh"
#include "telemetry/history.hh"

namespace tapas {
namespace {

std::string
tmpPath(const char *name)
{
    return std::string(::testing::TempDir()) + name;
}

TEST(Serialize, Crc32ReferenceVectors)
{
    // IEEE 802.3 check value for the canonical "123456789" input.
    const char check[] = "123456789";
    EXPECT_EQ(crc32(check, 9), 0xCBF43926u);
    EXPECT_EQ(crc32(nullptr, 0), 0u);
    const char a[] = "a";
    EXPECT_EQ(crc32(a, 1), 0xE8B7BE43u);
}

/** Bitwise CRC-32 over the reflected IEEE polynomial: the oracle
 *  the table-sliced implementation must match bit for bit. */
std::uint32_t
bytewiseCrc32(const std::uint8_t *data, std::size_t size)
{
    std::uint32_t c = 0xFFFFFFFFu;
    for (std::size_t i = 0; i < size; ++i) {
        c ^= data[i];
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    return c ^ 0xFFFFFFFFu;
}

/** Deterministic pseudo-random bytes (xorshift64). */
std::vector<std::uint8_t>
noiseBytes(std::size_t n, std::uint64_t seed)
{
    std::vector<std::uint8_t> out(n);
    std::uint64_t x = seed;
    for (std::uint8_t &b : out) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        b = static_cast<std::uint8_t>(x >> 32);
    }
    return out;
}

TEST(Serialize, Crc32MatchesBytewiseOracleAtEveryLengthAndOffset)
{
    // Every length through the table path under 64 bytes, the
    // 64-byte fold loop, the single 16-byte folds and the table tail,
    // at every alignment of the start pointer within a 16-byte lane.
    const std::vector<std::uint8_t> noise = noiseBytes(1024 + 16, 11);
    for (std::size_t offset = 0; offset < 16; ++offset) {
        for (std::size_t len = 0; len <= 1024; ++len) {
            const std::uint8_t *p = noise.data() + offset;
            ASSERT_EQ(crc32(p, len), bytewiseCrc32(p, len))
                << "length " << len << " offset " << offset;
        }
    }
    // Multi-MiB inputs, whole and with an odd start and tail.
    for (const std::size_t n :
         {std::size_t{1} << 20, (std::size_t{3} << 20) + 13,
          std::size_t{4} << 20}) {
        const std::vector<std::uint8_t> big = noiseBytes(n, 29 + n);
        EXPECT_EQ(crc32(big.data(), big.size()),
                  bytewiseCrc32(big.data(), big.size()))
            << n << " bytes";
        EXPECT_EQ(crc32(big.data() + 7, big.size() - 7),
                  bytewiseCrc32(big.data() + 7, big.size() - 7))
            << n << " bytes at offset 7";
    }
}

TEST(Serialize, Crc32ChainsAcrossPieces)
{
    // crc32(b, crc32(a)) is the CRC of a then b, wherever the split
    // falls relative to the fold's 64-byte minimum and 16-byte lanes.
    const std::vector<std::uint8_t> noise = noiseBytes(1000, 17);
    const std::uint32_t whole = crc32(noise.data(), noise.size());
    for (const std::size_t split :
         {std::size_t{0}, std::size_t{1}, std::size_t{15},
          std::size_t{63}, std::size_t{64}, std::size_t{100},
          std::size_t{937}, std::size_t{999}, std::size_t{1000}}) {
        const std::uint32_t head = crc32(noise.data(), split);
        EXPECT_EQ(crc32(noise.data() + split, noise.size() - split,
                        head),
                  whole)
            << "split at " << split;
    }
    std::uint32_t three = crc32(noise.data(), 10);
    three = crc32(noise.data() + 10, 0, three);
    three = crc32(noise.data() + 10, 990, three);
    EXPECT_EQ(three, whole);
}

TEST(Serialize, Crc32CombineEqualsTheCrcOfTheConcatenation)
{
    // Every split of every length 0-1024. The parts' CRCs come from
    // the slicing tables under 64 bytes and from the fold at 64 and
    // up, so the shift is checked against both kernels' values.
    const std::vector<std::uint8_t> noise = noiseBytes(1024, 23);
    std::vector<std::uint32_t> prefix(noise.size() + 1);
    for (std::size_t n = 0; n <= noise.size(); ++n)
        prefix[n] = crc32(noise.data(), n);
    for (std::size_t len = 0; len <= noise.size(); ++len) {
        for (std::size_t split = 0; split <= len; ++split) {
            const std::size_t tail = len - split;
            ASSERT_EQ(crc32Combine(prefix[split],
                                   crc32(noise.data() + split, tail),
                                   tail),
                      prefix[len])
                << "length " << len << " split " << split;
        }
    }
    // Multi-MiB inputs, split around the fold's lanes and windows.
    for (const std::size_t n :
         {(std::size_t{1} << 20) + 5, (std::size_t{4} << 20) + 13}) {
        const std::vector<std::uint8_t> big = noiseBytes(n, 31 + n);
        const std::uint32_t whole = crc32(big.data(), big.size());
        for (const std::size_t split :
             {std::size_t{0}, std::size_t{1}, std::size_t{63},
              std::size_t{65536}, n / 2 + 3, n - 64, n - 1, n}) {
            EXPECT_EQ(crc32Combine(crc32(big.data(), split),
                                   crc32(big.data() + split, n - split),
                                   n - split),
                      whole)
                << n << " bytes split at " << split;
        }
    }
    // Shifts far past any buffer compose: shifting by m and then by n
    // is shifting by m + n, for any register values.
    const std::size_t m = (std::size_t{1} << 40) + 3;
    const std::size_t n = (std::size_t{1} << 62) + 7;
    EXPECT_EQ(crc32Combine(crc32Combine(0x12345678u, 0x9abcdef0u, m),
                           0x0f1e2d3cu, n),
              crc32Combine(0x12345678u,
                           crc32Combine(0x9abcdef0u, 0x0f1e2d3cu, n),
                           m + n));
}

TEST(Serialize, Crc32SelectsTheFoldKernelWhereTheHostHasIt)
{
    // A dispatch slip back to the table path would still pass the
    // oracle tests; pin the selection itself. Builds without -march
    // flags must still pick the fold at run time.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
    __builtin_cpu_init();
    const bool has_fold = __builtin_cpu_supports("pclmul") &&
        __builtin_cpu_supports("sse4.1");
#else
    const bool has_fold = false;
#endif
    EXPECT_EQ(crc32Kernel(), has_fold ? Crc32Kernel::ClmulFold
                                      : Crc32Kernel::Table);
}

TEST(Serialize, Fnv1a64ReferenceVectors)
{
    // Standard FNV-1a 64-bit test vectors.
    EXPECT_EQ(fnv1a64(nullptr, 0), 0xcbf29ce484222325ull);
    const char a[] = "a";
    EXPECT_EQ(fnv1a64(a, 1), 0xaf63dc4c8601ec8cull);
    // Chaining: digest("ab") == digest("b" seeded with digest("a")).
    const char ab[] = "ab";
    const char b[] = "b";
    EXPECT_EQ(fnv1a64(ab, 2), fnv1a64(b, 1, fnv1a64(a, 1)));
}

TEST(Serialize, ArchiveRoundTripsPrimitives)
{
    Archive w = Archive::writer();
    std::uint64_t u = 0xdeadbeefcafe1234ull;
    std::int64_t i = -77;
    double d = 3.141592653589793;
    float f = 2.5f;
    bool t = true, fa = false;
    std::uint8_t byte = 0x7f;
    std::string s = "hello checkpoint";
    std::size_t n = 42;
    ServerId sid(17);
    std::vector<double> pod = {1.0, -2.0, 0.25};
    std::deque<int> dq = {3, 1, 4};
    w.value(u);
    w.value(i);
    w.value(d);
    w.value(f);
    w.value(t);
    w.value(fa);
    w.value(byte);
    w.str(s);
    w.count(n);
    w.value(sid);
    w.podVector(pod);
    w.eachDeque(dq, [](Archive &ar, int &v) { ar.value(v); });
    ASSERT_TRUE(w.ok());

    Archive r = Archive::reader(w.buffer());
    std::uint64_t u2 = 0;
    std::int64_t i2 = 0;
    double d2 = 0;
    float f2 = 0;
    bool t2 = false, fa2 = true;
    std::uint8_t byte2 = 0;
    std::string s2;
    std::size_t n2 = 0;
    ServerId sid2;
    std::vector<double> pod2;
    std::deque<int> dq2;
    r.value(u2);
    r.value(i2);
    r.value(d2);
    r.value(f2);
    r.value(t2);
    r.value(fa2);
    r.value(byte2);
    r.str(s2);
    r.count(n2);
    r.value(sid2);
    r.podVector(pod2);
    r.eachDeque(dq2, [](Archive &ar, int &v) { ar.value(v); });
    EXPECT_TRUE(r.done());
    EXPECT_EQ(u2, u);
    EXPECT_EQ(i2, i);
    EXPECT_EQ(d2, d);
    EXPECT_EQ(f2, f);
    EXPECT_TRUE(t2);
    EXPECT_FALSE(fa2);
    EXPECT_EQ(byte2, byte);
    EXPECT_EQ(s2, s);
    EXPECT_EQ(n2, n);
    EXPECT_EQ(sid2.index, sid.index);
    EXPECT_EQ(pod2, pod);
    EXPECT_EQ(dq2, dq);
}

std::string
hexOf(std::span<const std::uint8_t> bytes)
{
    static const char digits[] = "0123456789abcdef";
    std::string out;
    for (std::uint8_t b : bytes) {
        out += digits[b >> 4];
        out += digits[b & 0xF];
    }
    return out;
}

TEST(Serialize, ArchiveWritesGoldenBytes)
{
    // The wire layout itself, not just a round trip: fixed-width
    // little-endian integers, IEEE-754 bit patterns, u64 counts and
    // length-prefixed strings and vectors. Any layout change (byte
    // order, widths, count encoding) alters this string.
    enum class Colour : std::uint8_t { Red = 7 };
    Archive w = Archive::writer();
    std::uint32_t u32 = 0x01020304u;
    std::int16_t i16 = -2;
    double d = 1.0;
    bool t = true;
    float f = -0.5f;
    std::uint64_t u64 = 0x1122334455667788ull;
    std::size_t n = 3;
    std::string s = "ab";
    std::vector<std::uint16_t> pod = {1, 0x0203};
    ServerId sid(5);
    Colour colour = Colour::Red;
    w.value(u32);
    w.value(i16);
    w.value(d);
    w.value(t);
    w.value(f);
    w.value(u64);
    w.count(n);
    w.str(s);
    w.podVector(pod);
    w.value(sid);
    w.value(colour);
    ASSERT_TRUE(w.ok());
    const std::string golden =
        "04030201"          // u32
        "feff"              // i16 -2
        "000000000000f03f"  // double 1.0
        "01"                // bool
        "000000bf"          // float -0.5
        "8877665544332211"  // u64
        "0300000000000000"  // count 3
        "0200000000000000"  // str length
        "6162"              // "ab"
        "0200000000000000"  // podVector length
        "0100"              // u16 1
        "0302"              // u16 0x0203
        "05000000"          // ServerId 5
        "07";               // enum Colour::Red
    EXPECT_EQ(hexOf(w.buffer()), golden);
}

TEST(Serialize, ArchiveRawBytesAreOneCopyEachWay)
{
    Archive w = Archive::writer();
    std::uint8_t out[5] = {1, 2, 3, 4, 5};
    w.bytes(out, sizeof out);
    w.bytes(nullptr, 0);
    EXPECT_EQ(hexOf(w.buffer()), "0102030405");

    Archive r = Archive::reader(w.buffer());
    std::uint8_t in[5] = {};
    r.bytes(in, sizeof in);
    EXPECT_TRUE(r.done());
    EXPECT_EQ(hexOf(in), "0102030405");

    // A short read fails the archive and leaves the target alone.
    Archive short_read = Archive::reader(w.buffer().first(3));
    std::uint8_t untouched[5] = {9, 9, 9, 9, 9};
    short_read.bytes(untouched, sizeof untouched);
    EXPECT_FALSE(short_read.ok());
    EXPECT_EQ(hexOf(untouched), "0909090909");

    // Outside a CheckpointWriter, stableBytes() is bytes(): it copies
    // on write and reads into the target.
    Archive stable = Archive::writer();
    stable.stableBytes(out, sizeof out);
    stable.stableBytes(nullptr, 0);
    EXPECT_EQ(hexOf(stable.buffer()), "0102030405");
    Archive stable_read = Archive::reader(stable.buffer());
    std::uint8_t back[5] = {};
    stable_read.stableBytes(back, sizeof back);
    EXPECT_TRUE(stable_read.done());
    EXPECT_EQ(hexOf(back), "0102030405");
}

TEST(Serialize, ArchiveWriterGrowsAcrossManyFields)
{
    // Enough fields to force several reallocations of the write
    // storage; every byte must survive each move.
    Archive w = Archive::writer();
    for (std::uint64_t i = 0; i < 100000; ++i)
        w.value(i);
    ASSERT_EQ(w.buffer().size(), 8u * 100000);
    Archive r = Archive::reader(w.buffer());
    for (std::uint64_t i = 0; i < 100000; ++i) {
        std::uint64_t v = ~i;
        r.value(v);
        ASSERT_EQ(v, i);
    }
    EXPECT_TRUE(r.done());
}

TEST(Serialize, DigestWriterMatchesOneBufferFnv)
{
    // Walks mixing values, bytes(), empty and non-empty stableBytes()
    // runs, runs and bytes() calls larger than the block, and small
    // fields that overflow the block at varying fill levels: the
    // streamed digest must equal fnv1a64 over the buffer a plain
    // writer holds after the same walk.
    const std::size_t block = DigestWriter::kBlockBytes;
    std::vector<std::uint8_t> big = noiseBytes(3 * block + 5, 41);
    std::vector<std::uint8_t> small = noiseBytes(7, 43);
    const auto small_fields = [](Archive &ar, std::size_t n) {
        for (std::size_t i = 0; i < n; ++i) {
            std::uint8_t u8 = static_cast<std::uint8_t>(i);
            std::uint32_t u32 = static_cast<std::uint32_t>(i * 2654435761u);
            double f64 = 0.5 * static_cast<double>(i);
            ar.value(u8);
            ar.value(u32);
            ar.value(f64);
        }
    };
    const std::vector<std::function<void(Archive &)>> walks = {
        [](Archive &) {},
        [&](Archive &ar) { small_fields(ar, 1); },
        // 1-, 4- and 8-byte fields: blocks flush at varying fills.
        [&](Archive &ar) { small_fields(ar, 5 * block / 13 + 3); },
        [&](Archive &ar) {
            ar.stableBytes(nullptr, 0);
            ar.stableBytes(small.data(), small.size());
        },
        [&](Archive &ar) {
            small_fields(ar, 2 * block / 13);
            ar.stableBytes(big.data(), big.size());
            ar.stableBytes(nullptr, 0);
            ar.stableBytes(small.data(), small.size());
            small_fields(ar, 3);
            ar.bytes(big.data(), big.size());
            small_fields(ar, block / 13 + 1);
            std::string name = "ring";
            ar.str(name);
            ar.stableBytes(big.data(), block);
        },
    };
    for (std::size_t w = 0; w < walks.size(); ++w) {
        Archive plain = Archive::writer();
        walks[w](plain);
        DigestWriter digest;
        walks[w](digest.archive());
        EXPECT_EQ(digest.value(),
                  fnv1a64(plain.buffer().data(), plain.buffer().size()))
            << "walk " << w;
        // Reading the value leaves the stream open: more fields
        // extend both sides alike.
        small_fields(plain, 400);
        small_fields(digest.archive(), 400);
        EXPECT_EQ(digest.value(),
                  fnv1a64(plain.buffer().data(), plain.buffer().size()))
            << "walk " << w << " extended";
    }
}

TEST(Serialize, ArchiveReadPastEndFailsCleanly)
{
    Archive w = Archive::writer();
    std::uint32_t v = 7;
    w.value(v);

    Archive r = Archive::reader(w.buffer());
    std::uint32_t a = 0;
    std::uint64_t b = 99;
    r.value(a);
    EXPECT_TRUE(r.ok());
    r.value(b); // past end: latches failure, zero-fills
    EXPECT_FALSE(r.ok());
    EXPECT_FALSE(r.done());
    EXPECT_EQ(b, 0u);
    // Subsequent reads stay no-ops.
    std::uint64_t c = 55;
    r.value(c);
    EXPECT_EQ(c, 0u);
}

TEST(Serialize, ArchiveRejectsCorruptVectorCount)
{
    // A huge declared element count must fail the size guard, not
    // attempt a giant allocation.
    Archive w = Archive::writer();
    std::size_t bogus = static_cast<std::size_t>(1) << 60;
    w.count(bogus);

    Archive r = Archive::reader(w.buffer());
    std::vector<double> v;
    r.podVector(v);
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(v.empty());
}

TEST(Serialize, PodVectorCountGuardUsesElementWireWidth)
{
    // A count that fits the remaining bytes one byte per element but
    // not at the element's wire width must fail the guard and leave
    // the vector empty, not resize and zero-fill it.
    Archive w = Archive::writer();
    std::size_t count = 10;
    w.count(count);
    std::uint64_t filler = 0x0102030405060708ull;
    w.value(filler);
    w.value(filler); // 16 bytes after the count: 2 doubles, 4 ids

    Archive doubles = Archive::reader(w.buffer());
    std::vector<double> dv = {9.0};
    doubles.podVector(dv);
    EXPECT_FALSE(doubles.ok());
    EXPECT_TRUE(dv.empty());

    Archive ids = Archive::reader(w.buffer());
    std::vector<ServerId> iv;
    ids.podVector(iv);
    EXPECT_FALSE(ids.ok());
    EXPECT_TRUE(iv.empty());

    // An exact fit still decodes.
    Archive exact = Archive::writer();
    std::vector<double> two = {1.5, -2.5};
    exact.podVector(two);
    Archive back = Archive::reader(exact.buffer());
    std::vector<double> got;
    back.podVector(got);
    EXPECT_TRUE(back.done());
    EXPECT_EQ(got, two);
}

TEST(Serialize, AtomicWriteAndReadBack)
{
    const std::string path = tmpPath("serialize_atomic.bin");
    const std::string text = "first version";
    ASSERT_TRUE(atomicWriteFile(path, text).ok());
    // Replacement is atomic: no .tmp residue, new content visible.
    const std::string text2 = "second version, longer than first";
    ASSERT_TRUE(atomicWriteFile(path, text2).ok());
    EXPECT_FALSE(fileExists(path + ".tmp"));

    Result<std::string> back = readFileText(path);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back.value(), text2);
    removeFileIfExists(path);
}

TEST(Serialize, AtomicWriteResumesAShortWriteThenReportsTheFailure)
{
    // A file-size limit inside the second of four pieces: the first
    // writev stops short at the limit, the loop resumes mid-piece,
    // and the next writev fails with EFBIG (SIGXFSZ ignored, so it
    // returns instead of killing the process). The failure must name
    // the temp file, remove it, and leave the destination alone.
    const std::string path = tmpPath("serialize_fsize.bin");
    const std::string previous = "previous contents";
    ASSERT_TRUE(atomicWriteFile(path, previous).ok());

    std::vector<std::vector<std::uint8_t>> blocks;
    std::vector<ByteView> pieces;
    for (std::uint64_t i = 0; i < 4; ++i)
        blocks.push_back(noiseBytes(4096, 60 + i));
    for (const std::vector<std::uint8_t> &b : blocks)
        pieces.push_back(b);

    Error err;
    {
        rlimit current{};
        ASSERT_EQ(getrlimit(RLIMIT_FSIZE, &current), 0);
        ASSERT_GT(current.rlim_cur, rlim_t{4096 + 1000});
        FileSizeLimit limit(4096 + 1000);
        AtomicFile file(path);
        file.write(pieces);
        err = file.commit();
    }
    ASSERT_FALSE(err.ok());
    EXPECT_EQ(err.code(), ErrorCode::Io);
    EXPECT_NE(err.message().find("'" + path + ".tmp'"),
              std::string::npos)
        << err.message();
    EXPECT_NE(err.message().find(std::strerror(EFBIG)),
              std::string::npos)
        << err.message();
    EXPECT_FALSE(fileExists(path + ".tmp"));
    Result<std::string> kept = readFileText(path);
    ASSERT_TRUE(kept.ok());
    EXPECT_EQ(kept.value(), previous);

    // With the limit lifted the same pieces land whole.
    AtomicFile file(path);
    file.write(pieces);
    ASSERT_TRUE(file.commit().ok());
    Result<std::vector<std::uint8_t>> back = readFileBytes(path);
    ASSERT_TRUE(back.ok());
    ASSERT_EQ(back.value().size(), 4u * 4096);
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_TRUE(std::equal(blocks[i].begin(), blocks[i].end(),
                               back.value().begin() + i * 4096));
    removeFileIfExists(path);
}

TEST(Serialize, ReadFileBytesReturnsExactlyTheFile)
{
    const std::string path = tmpPath("serialize_big.bin");
    const std::vector<std::uint8_t> bytes = noiseBytes((1 << 20) + 3, 5);
    ASSERT_TRUE(atomicWriteFile(path, bytes.data(), bytes.size()).ok());
    Result<std::vector<std::uint8_t>> back = readFileBytes(path);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back.value(), bytes);

    ASSERT_TRUE(atomicWriteFile(path, bytes.data(), 0).ok());
    Result<std::vector<std::uint8_t>> empty = readFileBytes(path);
    ASSERT_TRUE(empty.ok());
    EXPECT_TRUE(empty.value().empty());
    removeFileIfExists(path);
}

TEST(Serialize, ReadFileBytesReadsAPipeToEof)
{
    // A FIFO reports st_size 0, so the sized read gets nothing and
    // the chunked read to EOF must return every byte.
    const std::string path = tmpPath("serialize_fifo");
    removeFileIfExists(path);
    ASSERT_EQ(mkfifo(path.c_str(), 0600), 0);
    const std::vector<std::uint8_t> bytes = noiseBytes(200000, 17);
    std::thread writer([&] {
        std::FILE *fp = std::fopen(path.c_str(), "wb");
        if (!fp)
            return;
        std::fwrite(bytes.data(), 1, bytes.size(), fp);
        std::fclose(fp);
    });
    Result<std::vector<std::uint8_t>> back = readFileBytes(path);
    writer.join();
    removeFileIfExists(path);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back.value(), bytes);
}

TEST(Serialize, ReadDirectoryIsIoError)
{
    Result<std::vector<std::uint8_t>> r =
        readFileBytes(::testing::TempDir());
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code(), ErrorCode::Io);
}

TEST(Serialize, ReadCheckpointFileRejectsWhatIsNotARegularFile)
{
    // Frame lengths are bounded by the size fstat reports, which only
    // a regular file has: a directory or a FIFO is an Io error before
    // any byte is read.
    Result<CheckpointData> dir = readCheckpointFile(::testing::TempDir());
    ASSERT_FALSE(dir.ok());
    EXPECT_EQ(dir.error().code(), ErrorCode::Io);
    EXPECT_NE(dir.error().message().find("not a regular file"),
              std::string::npos)
        << dir.error().message();

    const std::string path = tmpPath("ckpt_fifo");
    removeFileIfExists(path);
    ASSERT_EQ(mkfifo(path.c_str(), 0600), 0);
    // Opening a FIFO to read waits for a writer; this one writes
    // nothing, so the reader's early close cannot raise SIGPIPE.
    std::thread writer([&] {
        std::FILE *fp = std::fopen(path.c_str(), "wb");
        if (fp)
            std::fclose(fp);
    });
    Result<CheckpointData> fifo = readCheckpointFile(path);
    writer.join();
    removeFileIfExists(path);
    ASSERT_FALSE(fifo.ok());
    EXPECT_EQ(fifo.error().code(), ErrorCode::Io);
    EXPECT_NE(fifo.error().message().find("not a regular file"),
              std::string::npos)
        << fifo.error().message();
}

TEST(Serialize, ReadMissingFileIsIoError)
{
    Result<std::vector<std::uint8_t>> r =
        readFileBytes(tmpPath("does_not_exist.bin"));
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code(), ErrorCode::Io);
    EXPECT_NE(r.error().message().find("does_not_exist"),
              std::string::npos);
}

/** Two sections: id 1 holds 01..05, id 7 three hundred 0xab. */
Error
writeSampleCheckpoint(const std::string &path, std::uint64_t digest)
{
    std::vector<std::uint8_t> a = {0x01, 0x02, 0x03, 0x04, 0x05};
    std::vector<std::uint8_t> b(300, 0xab);
    CheckpointWriter writer(path, digest);
    writer.section(1, [&](Archive &ar) { ar.bytes(a.data(), a.size()); });
    writer.section(7, [&](Archive &ar) { ar.bytes(b.data(), b.size()); });
    return writer.commit();
}

TEST(Serialize, CheckpointFileRoundTrip)
{
    const std::string path = tmpPath("ckpt_roundtrip.tapasckp");
    const std::uint64_t digest = 0x1122334455667788ull;
    ASSERT_TRUE(writeSampleCheckpoint(path, digest).ok());

    Result<CheckpointData> r = readCheckpointFile(path);
    ASSERT_TRUE(r.ok());
    // Each section owns its payload, so the data can move.
    const CheckpointData data = std::move(r.value());
    EXPECT_EQ(data.version, kCheckpointFormatVersion);
    EXPECT_EQ(data.configDigest, digest);
    ASSERT_EQ(data.sections.size(), 2u);
    ASSERT_NE(data.find(1), nullptr);
    ASSERT_NE(data.find(7), nullptr);
    EXPECT_EQ(hexOf(data.find(1)->payload), "0102030405");
    EXPECT_EQ(data.find(7)->payload.size(), 300u);
    EXPECT_EQ(data.find(7)->payload[299], 0xab);
    EXPECT_EQ(data.find(2), nullptr);
    removeFileIfExists(path);
}

TEST(Serialize, CheckpointWriterFramesInPlaceByteForByte)
{
    // The whole v1 layout, spelled out: header (magic, version,
    // section count, config digest, header CRC), then per section
    // id, u64 payload length, payload and a CRC over the frame.
    const std::string path = tmpPath("ckpt_layout.tapasckp");
    std::vector<std::uint8_t> payload = {0xde, 0xad};
    CheckpointWriter writer(path, 0x0102030405060708ull);
    writer.section(3, [&](Archive &ar) {
        ar.bytes(payload.data(), payload.size());
    });
    writer.section(9, [](Archive &) {});
    ASSERT_TRUE(writer.commit().ok());
    Result<std::vector<std::uint8_t>> bytes = readFileBytes(path);
    ASSERT_TRUE(bytes.ok());
    const std::vector<std::uint8_t> &b = bytes.value();
    ASSERT_EQ(b.size(), 28u + 16 + 2 + 16);

    std::vector<std::uint8_t> expect = {'T', 'A', 'P', 'A', 'S', 'C',
                                        'K', 'P', 1,   0,   0,   0,
                                        2,   0,   0,   0,   8,   7,
                                        6,   5,   4,   3,   2,   1};
    const auto put_u32 = [&expect](std::uint32_t v) {
        for (int i = 0; i < 4; ++i)
            expect.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    };
    put_u32(crc32(expect.data(), expect.size()));
    std::size_t frame = expect.size();
    expect.insert(expect.end(), {3, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0,
                                 0xde, 0xad});
    put_u32(crc32(expect.data() + frame, expect.size() - frame));
    frame = expect.size();
    expect.insert(expect.end(), {9, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0});
    put_u32(crc32(expect.data() + frame, expect.size() - frame));
    EXPECT_EQ(hexOf(b), hexOf(expect));
    removeFileIfExists(path);
}

/** A section id and the walk that writes its payload. */
using SectionWalk = std::pair<std::uint32_t, std::function<void(Archive &)>>;

/** The v1 file of @p sections: each walk run through a plain archive
 *  (stableBytes copies) and framed by hand with whole-frame CRCs. */
std::vector<std::uint8_t>
framedByHand(std::uint64_t digest, const std::vector<SectionWalk> &sections)
{
    std::vector<std::uint8_t> file = {'T', 'A', 'P', 'A', 'S', 'C',
                                      'K', 'P', 1,   0,   0,   0};
    const auto put_le = [&file](std::uint64_t v, int width) {
        for (int i = 0; i < width; ++i)
            file.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    };
    put_le(sections.size(), 4);
    put_le(digest, 8);
    put_le(crc32(file.data(), file.size()), 4);
    for (const auto &[id, walk] : sections) {
        Archive ar = Archive::writer();
        walk(ar);
        const std::size_t start = file.size();
        put_le(id, 4);
        put_le(ar.buffer().size(), 8);
        file.insert(file.end(), ar.buffer().begin(), ar.buffer().end());
        put_le(crc32(file.data() + start, file.size() - start), 4);
    }
    return file;
}

/** Write @p sections through a CheckpointWriter to @p path. */
Error
writeSections(const std::string &path, std::uint64_t digest,
              const std::vector<SectionWalk> &sections)
{
    CheckpointWriter writer(path, digest);
    for (const auto &[id, walk] : sections)
        writer.section(id, walk);
    return writer.commit();
}

TEST(Serialize, CheckpointWriterGathersMoreThanIovMaxPieces)
{
    // More stableBytes() pieces than one writev takes, runs of them
    // back to back, small fields between, and an empty section: the
    // file must be exactly the contiguous frames, CRCs included.
    const std::size_t n = IOV_MAX + 300;
    std::vector<std::vector<std::uint8_t>> blocks;
    for (std::size_t i = 0; i < n; ++i)
        blocks.push_back(noiseBytes(1 + (i * 37) % 211, 100 + i));
    const auto walk_first = [&blocks](Archive &ar) {
        for (std::size_t i = 0; i < blocks.size(); ++i) {
            if (i % 3 != 2) {
                auto tag = static_cast<std::uint32_t>(i);
                ar.value(tag);
            }
            ar.stableBytes(blocks[i].data(), blocks[i].size());
        }
    };
    std::vector<std::uint8_t> tail = noiseBytes(500, 7);
    const auto walk_last = [&](Archive &ar) {
        ar.stableBytes(tail.data(), tail.size());
        ar.stableBytes(blocks[0].data(), blocks[0].size());
        std::uint64_t trailer = 0x0123456789abcdefull;
        ar.value(trailer);
    };

    const std::vector<SectionWalk> sections = {
        {4, walk_first}, {5, [](Archive &) {}}, {6, walk_last}};
    const std::string path = tmpPath("ckpt_gathered.tapasckp");
    ASSERT_TRUE(writeSections(path, 0x55aa55aa55aa55aaull, sections).ok());
    Result<std::vector<std::uint8_t>> bytes = readFileBytes(path);
    ASSERT_TRUE(bytes.ok());
    const std::vector<std::uint8_t> expect =
        framedByHand(0x55aa55aa55aa55aaull, sections);
    ASSERT_EQ(bytes.value().size(), expect.size());
    EXPECT_TRUE(bytes.value() == expect);

    Result<CheckpointData> back = readCheckpointFile(path);
    ASSERT_TRUE(back.ok());
    ASSERT_EQ(back.value().sections.size(), 3u);
    EXPECT_TRUE(back.value().find(5)->payload.empty());
    removeFileIfExists(path);
}

TEST(Serialize, CheckpointWriterStreamsSmallFieldsThroughItsWindow)
{
    // Small fields filling several windows, with fields straddling
    // each window's edge; a single bytes() call three windows long;
    // stable runs between them; a section of a window's bytes
    // exactly. The window is reused, never grown, so the file must be
    // exactly the contiguous frames.
    constexpr std::size_t kWin = CheckpointReader::kWindowBytes;
    std::vector<std::uint8_t> big = noiseBytes(3 * kWin + 17, 61);
    std::vector<std::uint8_t> run = noiseBytes(5000, 62);
    std::vector<std::uint8_t> exact = noiseBytes(kWin, 63);
    const std::vector<SectionWalk> sections = {
        {1, [&](Archive &ar) {
            std::uint8_t odd = 7;
            ar.value(odd);
            for (std::uint64_t i = 0; i < 5 * kWin / 8; ++i) {
                ar.value(i);
                if (i % 4000 == 0)
                    ar.stableBytes(run.data(), run.size());
            }
        }},
        {2, [&](Archive &ar) {
            std::uint32_t tag = 0xfeedu;
            ar.value(tag);
            ar.bytes(big.data(), big.size());
            ar.stableBytes(run.data(), run.size());
            ar.value(tag);
        }},
        {3, [&](Archive &ar) { ar.bytes(exact.data(), exact.size()); }},
        {4, [](Archive &) {}},
    };
    const std::string path = tmpPath("ckpt_window.tapasckp");
    ASSERT_TRUE(writeSections(path, 0x1234, sections).ok());
    EXPECT_FALSE(fileExists(path + ".tmp"));
    Result<std::vector<std::uint8_t>> bytes = readFileBytes(path);
    ASSERT_TRUE(bytes.ok());
    const std::vector<std::uint8_t> expect = framedByHand(0x1234, sections);
    ASSERT_EQ(bytes.value().size(), expect.size());
    EXPECT_TRUE(bytes.value() == expect);
    EXPECT_TRUE(readCheckpointFile(path).ok());
    removeFileIfExists(path);
}

TEST(Serialize, CheckpointWriterIsDoneWithStableRunsWhenTheirSectionEnds)
{
    // A stable run must stay unchanged only while its section is
    // walked: once section() returns, its owner may change it (here
    // before the next section walks it again), and the file still
    // holds what the run was when its section was walked.
    std::vector<std::uint8_t> ring = noiseBytes(3000, 64);
    const std::vector<std::uint8_t> first = ring;
    const std::string path = tmpPath("ckpt_run_lifetime.tapasckp");
    CheckpointWriter writer(path, 0x5678);
    const auto walk = [&ring](Archive &ar) {
        std::uint64_t n = ring.size();
        ar.value(n);
        ar.stableBytes(ring.data(), ring.size());
    };
    writer.section(1, walk);
    ring = noiseBytes(3000, 65);
    writer.section(2, walk);
    ring.assign(ring.size(), 0);
    ASSERT_TRUE(writer.commit().ok());

    Result<CheckpointData> back = readCheckpointFile(path);
    ASSERT_TRUE(back.ok()) << back.error().message();
    ASSERT_EQ(back.value().sections.size(), 2u);
    EXPECT_TRUE(std::equal(first.begin(), first.end(),
                           back.value().sections[0].payload.begin() + 8));
    const std::vector<std::uint8_t> second = noiseBytes(3000, 65);
    EXPECT_TRUE(std::equal(second.begin(), second.end(),
                           back.value().sections[1].payload.begin() + 8));
    removeFileIfExists(path);
}

TEST(Serialize, CheckpointWriterLeavesNoTempFileBehind)
{
    // A writer dropped before commit() removes its temp file and
    // leaves the destination as it was; one whose temp file cannot be
    // created still walks its sections, then reports the path.
    const std::string path = tmpPath("ckpt_dropped.tapasckp");
    ASSERT_TRUE(atomicWriteFile(path, std::string("previous")).ok());
    std::vector<std::uint8_t> payload = noiseBytes(100000, 66);
    {
        CheckpointWriter writer(path, 1);
        writer.section(1, [&](Archive &ar) {
            ar.stableBytes(payload.data(), payload.size());
        });
        EXPECT_TRUE(fileExists(path + ".tmp"));
    }
    EXPECT_FALSE(fileExists(path + ".tmp"));
    Result<std::string> kept = readFileText(path);
    ASSERT_TRUE(kept.ok());
    EXPECT_EQ(kept.value(), "previous");
    removeFileIfExists(path);

    const std::string nowhere = tmpPath("no_such_dir/ckpt.tapasckp");
    CheckpointWriter writer(nowhere, 1);
    bool walked = false;
    writer.section(1, [&](Archive &ar) {
        ar.bytes(payload.data(), payload.size());
        walked = true;
    });
    const Error err = writer.commit();
    EXPECT_TRUE(walked);
    ASSERT_FALSE(err.ok());
    EXPECT_EQ(err.code(), ErrorCode::Io);
    EXPECT_NE(err.message().find("'" + nowhere + ".tmp'"),
              std::string::npos)
        << err.message();
}

std::vector<std::uint8_t>
writtenCheckpointBytes(const std::string &path)
{
    EXPECT_TRUE(writeSampleCheckpoint(path, 0x42).ok());
    Result<std::vector<std::uint8_t>> bytes = readFileBytes(path);
    EXPECT_TRUE(bytes.ok());
    return bytes.value();
}

TEST(Serialize, CheckpointRejectsEveryTruncationPoint)
{
    const std::string path = tmpPath("ckpt_trunc.tapasckp");
    const std::vector<std::uint8_t> good =
        writtenCheckpointBytes(path);
    ASSERT_GT(good.size(), 28u);

    // Every proper prefix must be rejected with a structured error
    // (Corrupt, or Io for the empty file) — never accepted, never
    // undefined behavior.
    for (std::size_t len = 0; len < good.size(); ++len) {
        ASSERT_TRUE(atomicWriteFile(path, good.data(), len).ok());
        Result<CheckpointData> r = readCheckpointFile(path);
        ASSERT_FALSE(r.ok()) << "accepted truncation at " << len;
        EXPECT_EQ(r.error().code(), ErrorCode::Corrupt)
            << "at length " << len;
    }
    removeFileIfExists(path);
}

TEST(Serialize, CheckpointRejectsEveryBitFlip)
{
    const std::string path = tmpPath("ckpt_flip.tapasckp");
    const std::vector<std::uint8_t> good =
        writtenCheckpointBytes(path);

    // Flip one bit per byte position across the whole file. Every
    // flip lands in a CRC-protected region (header or a section
    // frame/payload), so each one must surface as Corrupt. A flipped
    // version field reads as Version — also structured, also safe.
    for (std::size_t pos = 0; pos < good.size(); ++pos) {
        std::vector<std::uint8_t> bad = good;
        bad[pos] ^= 0x10;
        ASSERT_TRUE(
            atomicWriteFile(path, bad.data(), bad.size()).ok());
        Result<CheckpointData> r = readCheckpointFile(path);
        ASSERT_FALSE(r.ok()) << "accepted bit flip at " << pos;
        EXPECT_TRUE(r.error().code() == ErrorCode::Corrupt ||
                    r.error().code() == ErrorCode::Version)
            << "at position " << pos;
    }
    removeFileIfExists(path);
}

TEST(Serialize, CheckpointRejectsTrailingGarbage)
{
    const std::string path = tmpPath("ckpt_trailing.tapasckp");
    std::vector<std::uint8_t> bytes = writtenCheckpointBytes(path);
    bytes.push_back(0x00);
    ASSERT_TRUE(
        atomicWriteFile(path, bytes.data(), bytes.size()).ok());
    Result<CheckpointData> r = readCheckpointFile(path);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code(), ErrorCode::Corrupt);
    removeFileIfExists(path);
}

TEST(Serialize, CheckpointRejectsFutureVersion)
{
    const std::string path = tmpPath("ckpt_version.tapasckp");
    std::vector<std::uint8_t> bytes = writtenCheckpointBytes(path);
    // Bump the format version (offset 8, little-endian u32) and
    // re-seal the header CRC (offset 24) so ONLY the version check
    // can fire.
    bytes[8] = static_cast<std::uint8_t>(kCheckpointFormatVersion + 1);
    const std::uint32_t crc = crc32(bytes.data(), 24);
    bytes[24] = static_cast<std::uint8_t>(crc);
    bytes[25] = static_cast<std::uint8_t>(crc >> 8);
    bytes[26] = static_cast<std::uint8_t>(crc >> 16);
    bytes[27] = static_cast<std::uint8_t>(crc >> 24);
    ASSERT_TRUE(
        atomicWriteFile(path, bytes.data(), bytes.size()).ok());
    Result<CheckpointData> r = readCheckpointFile(path);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code(), ErrorCode::Version);
    removeFileIfExists(path);
}

TEST(Serialize, CheckpointRejectsWrongMagic)
{
    const std::string path = tmpPath("ckpt_magic.tapasckp");
    std::vector<std::uint8_t> bytes = writtenCheckpointBytes(path);
    bytes[0] = 'X';
    ASSERT_TRUE(
        atomicWriteFile(path, bytes.data(), bytes.size()).ok());
    Result<CheckpointData> r = readCheckpointFile(path);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code(), ErrorCode::Corrupt);
    EXPECT_NE(r.error().message().find("magic"), std::string::npos);
    removeFileIfExists(path);
}

constexpr std::size_t kWindow = CheckpointReader::kWindowBytes;
/** Header (28 bytes) and the first frame's id and length: where the
 *  first payload starts in a file. */
constexpr std::size_t kFirstPayloadAt = 28 + 12;

/** A payload of small fields around a pad and a stable run; one walk
 *  writes and reads it. */
struct StreamFields
{
    std::vector<std::uint8_t> pad;
    std::uint64_t a = 0;
    std::uint32_t b = 0;
    std::uint8_t c = 0;
    std::vector<std::uint8_t> run;
    std::uint64_t d = 0;

    /** Payload offset of @c a: two counts, then the pad. */
    static constexpr std::size_t kFieldsAt = 16;
    /** Bytes of a, b and c: the run starts this far after @c a. */
    static constexpr std::size_t kSmallBytes = 8 + 4 + 1;

    void
    walk(Archive &ar)
    {
        std::size_t pad_n = pad.size();
        std::size_t run_n = run.size();
        ar.count(pad_n);
        ar.count(run_n);
        if (!ar.writing() && ar.checkCount(pad_n, 1) &&
            ar.checkCount(run_n, 1)) {
            pad.resize(pad_n);
            run.resize(run_n);
        }
        ar.bytes(pad.data(), pad.size());
        ar.value(a);
        ar.value(b);
        ar.value(c);
        ar.stableBytes(run.data(), run.size());
        ar.value(d);
    }

    bool
    operator==(const StreamFields &o) const
    {
        return pad == o.pad && a == o.a && b == o.b && c == o.c &&
            run == o.run && d == o.d;
    }
};

StreamFields
streamFields(std::size_t pad, std::size_t run)
{
    StreamFields f;
    f.pad = noiseBytes(pad, 31 + pad);
    f.a = 0x0123456789abcdefull;
    f.b = 0xfeedf00du;
    f.c = 0x5a;
    f.run = noiseBytes(run, 37 + run);
    f.d = 0x1122334455667788ull;
    return f;
}

TEST(Serialize, ReaderStreamsFieldsAndRunsAcrossTheWindowEdge)
{
    // The first window holds the file's first kWindow bytes. Every
    // case puts a field or a run across that edge, at it, or a run
    // of a window and more after it, which takes several refills; the
    // streamed walk must read back exactly what was written, with
    // nothing left over.
    const std::size_t to_edge =
        kWindow - kFirstPayloadAt - StreamFields::kFieldsAt;
    std::vector<std::pair<std::size_t, std::size_t>> cases;
    // a, b or c straddles the edge, or a starts at it.
    for (std::size_t k = 0; k <= StreamFields::kSmallBytes; ++k)
        cases.push_back({to_edge - k, 300});
    // The run straddles the edge; what follows it fits a window.
    for (std::size_t m : {1u, 100u, 299u})
        cases.push_back({to_edge - StreamFields::kSmallBytes - m, 300});
    // The run starts at the edge: one byte short of a window (one
    // refill), a window, and a window and more (two refills).
    for (std::size_t run : {kWindow - 1, kWindow, kWindow + 1})
        cases.push_back({to_edge - StreamFields::kSmallBytes, run});
    // Runs longer than the window, starting inside the first one.
    for (std::size_t run : {kWindow + 1, 2 * kWindow, 3 * kWindow + 123})
        cases.push_back({0, run});

    const std::string path = tmpPath("ckpt_stream_fields.tapasckp");
    for (const auto &[pad, run] : cases) {
        StreamFields wrote = streamFields(pad, run);
        CheckpointWriter writer(path, 0x99);
        writer.section(1, [&](Archive &ar) { wrote.walk(ar); });
        ASSERT_TRUE(writer.commit().ok());

        CheckpointReader reader;
        ASSERT_TRUE(reader.open(path).ok());
        StreamFields back;
        bool done = false;
        const Error err =
            reader.sections([&](std::uint32_t, Archive &ar) {
                back.walk(ar);
                done = ar.done();
            });
        ASSERT_TRUE(err.ok()) << err.message();
        EXPECT_TRUE(done) << "pad " << pad << " run " << run;
        EXPECT_TRUE(back == wrote) << "pad " << pad << " run " << run;

        // readCheckpointFile is the same reader: its payload is the
        // walk's plain-archive bytes.
        Archive plain = Archive::writer();
        wrote.walk(plain);
        Result<CheckpointData> data = readCheckpointFile(path);
        ASSERT_TRUE(data.ok());
        ASSERT_EQ(data.value().sections.size(), 1u);
        EXPECT_TRUE(std::ranges::equal(data.value().sections[0].payload,
                                       plain.buffer()))
            << "pad " << pad << " run " << run;
    }
    removeFileIfExists(path);
}

TEST(Serialize, ReaderReadsFramesEndingAtTheWindowEdge)
{
    // The first frame ends exactly at the window edge, or its payload
    // does, or its CRC, or the next frame's id and length straddle
    // it: the second frame must read back intact either way.
    const std::size_t frame_to_edge = kWindow - kFirstPayloadAt - 4;
    const std::string path = tmpPath("ckpt_stream_frames.tapasckp");
    std::vector<std::uint8_t> second = noiseBytes(100, 41);
    for (std::size_t len :
         {frame_to_edge, frame_to_edge - 1, frame_to_edge + 1,
          frame_to_edge + 4, frame_to_edge + 2, frame_to_edge - 6,
          frame_to_edge - 12}) {
        std::vector<std::uint8_t> first = noiseBytes(len, len);
        CheckpointWriter writer(path, 0x98);
        writer.section(1, [&](Archive &ar) {
            ar.bytes(first.data(), first.size());
        });
        writer.section(2, [&](Archive &ar) {
            ar.bytes(second.data(), second.size());
        });
        ASSERT_TRUE(writer.commit().ok());

        Result<CheckpointData> data = readCheckpointFile(path);
        ASSERT_TRUE(data.ok()) << "len " << len << ": "
                               << data.error().message();
        ASSERT_EQ(data.value().sections.size(), 2u);
        EXPECT_TRUE(data.value().sections[0].payload == first)
            << "len " << len;
        EXPECT_EQ(data.value().sections[1].id, 2u);
        EXPECT_TRUE(data.value().sections[1].payload == second)
            << "len " << len;
    }
    removeFileIfExists(path);
}

TEST(Serialize, ReaderRejectsAFileTruncatedInsideARun)
{
    const std::string path = tmpPath("ckpt_stream_trunc.tapasckp");
    StreamFields wrote = streamFields(0, 3 * kWindow + 123);
    CheckpointWriter writer(path, 0x97);
    writer.section(1, [&](Archive &ar) { wrote.walk(ar); });
    ASSERT_TRUE(writer.commit().ok());
    Result<std::vector<std::uint8_t>> good = readFileBytes(path);
    ASSERT_TRUE(good.ok());

    // Inside the run's first window, at the window edge, two windows
    // in, and one byte short of the frame CRC. Every frame length is
    // checked against the file's size, so a file that was short when
    // opened fails before any refill; only a file that shrinks while
    // it is read reaches a failed refill.
    for (std::size_t len :
         {kFirstPayloadAt + 100, kWindow, 2 * kWindow + 5,
          good.value().size() - 5}) {
        ASSERT_TRUE(
            atomicWriteFile(path, good.value().data(), len).ok());
        CheckpointReader reader;
        ASSERT_TRUE(reader.open(path).ok());
        bool visited = false;
        const Error err = reader.sections(
            [&](std::uint32_t, Archive &) { visited = true; });
        ASSERT_FALSE(err.ok()) << "accepted truncation at " << len;
        EXPECT_EQ(err.code(), ErrorCode::Corrupt) << "at " << len;
        EXPECT_NE(err.message().find("exceeds file"), std::string::npos)
            << err.message();
        // The length check fires before any payload byte goes out.
        EXPECT_FALSE(visited);
    }
    removeFileIfExists(path);
}

TEST(Serialize, ReaderBoundsARingCountByItsFrame)
{
    // A server ring whose capacity and count claim 100 samples, more
    // than its frame holds but fewer than the file holds after it:
    // remaining() is the frame's, so the count fails the archive (no
    // resize) and the next frame still reads back intact.
    ServerSeriesRing ring(8);
    for (int i = 0; i < 4; ++i)
        ring.push({.time = i, .inletC = 20.0f + static_cast<float>(i)});
    Archive plain = Archive::writer();
    ring.checkpointState(plain);
    std::vector<std::uint8_t> doctored(plain.buffer().begin(),
                                       plain.buffer().end());
    const std::uint64_t claimed = 100;
    std::memcpy(doctored.data(), &claimed, sizeof claimed);     // cap
    std::memcpy(doctored.data() + 8, &claimed, sizeof claimed); // n
    std::vector<std::uint8_t> after = noiseBytes(10000, 43);
    ASSERT_LT(doctored.size(), claimed * sizeof(ServerSample));
    ASSERT_GT(after.size(), claimed * sizeof(ServerSample));

    const std::string path = tmpPath("ckpt_stream_ring.tapasckp");
    CheckpointWriter writer(path, 0x96);
    writer.section(1, [&](Archive &ar) {
        ar.bytes(doctored.data(), doctored.size());
    });
    writer.section(2, [&](Archive &ar) {
        ar.bytes(after.data(), after.size());
    });
    ASSERT_TRUE(writer.commit().ok());

    CheckpointReader reader;
    ASSERT_TRUE(reader.open(path).ok());
    ServerSeriesRing back(8);
    back.push({.time = 0});
    std::size_t frame_bytes = 0;
    bool ring_ok = true;
    std::vector<std::uint8_t> second;
    const Error err = reader.sections([&](std::uint32_t id, Archive &ar) {
        if (id == 1) {
            frame_bytes = ar.remaining();
            back.checkpointState(ar);
            ring_ok = ar.ok();
            return;
        }
        second.resize(ar.remaining());
        ar.bytes(second.data(), second.size());
    });
    ASSERT_TRUE(err.ok()) << err.message();
    EXPECT_EQ(frame_bytes, doctored.size());
    EXPECT_FALSE(ring_ok);
    EXPECT_EQ(back.size(), 0u);
    EXPECT_TRUE(second == after);
    removeFileIfExists(path);
}

TEST(Serialize, ErrorResultBasics)
{
    Error ok = Error::okValue();
    EXPECT_TRUE(ok.ok());
    Error io = Error::io("disk on fire");
    EXPECT_FALSE(io.ok());
    EXPECT_EQ(io.code(), ErrorCode::Io);
    EXPECT_STREQ(io.codeName(), "io");
    EXPECT_EQ(io.message(), "disk on fire");

    Result<int> good = 5;
    ASSERT_TRUE(good.ok());
    EXPECT_EQ(good.value(), 5);
    Result<int> bad = Error::invalid("nope");
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.error().code(), ErrorCode::Invalid);
}

} // namespace
} // namespace tapas
