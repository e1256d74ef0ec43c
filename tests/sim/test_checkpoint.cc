/**
 * @file
 * Checkpoint/restore integration tests: the bit-exactness contract
 * (run-to-T equals save-at-T/2 + restore + run-to-T on every metric
 * and on stateDigest, fault timelines and sensor corruption
 * included), config-mismatch rejection, structured-error
 * rejection of corrupted snapshots at the sim level, the pinned
 * bytes of saved files, saves that fail part-way or find a stale
 * temp file, and stateDigest() as FNV-1a over a saved file's section
 * payloads.
 */

#include <gtest/gtest.h>

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include <sys/resource.h>

#include "common/file_size_limit.hh"
#include "common/serialize.hh"
#include "sim/cluster.hh"
#include "sim/scenario.hh"
#include "telemetry/history.hh"

namespace tapas {
namespace {

std::string
tmpPath(const char *name)
{
    return std::string(::testing::TempDir()) + name;
}

/** Canonical full-equality byte stream of a metric set. */
std::vector<std::uint8_t>
metricsBytes(const SimMetrics &metrics)
{
    SimMetrics copy = metrics;
    Archive ar = Archive::writer();
    copy.checkpointState(ar);
    EXPECT_TRUE(ar.ok());
    return {ar.buffer().begin(), ar.buffer().end()};
}

/**
 * Rewrite @p path with @p data's sections, each payload passed
 * through @p edit(id, payload) first (and dropped when it returns
 * false): a CRC-valid file with doctored contents.
 */
template <typename Edit>
void
rewriteCheckpoint(const std::string &path, const CheckpointData &data,
                  Edit edit)
{
    CheckpointWriter writer(path, data.configDigest);
    for (const CheckpointSection &section : data.sections) {
        std::vector<std::uint8_t> payload(section.payload.begin(),
                                          section.payload.end());
        if (!edit(section.id, payload))
            continue;
        writer.section(section.id, [&](Archive &ar) {
            ar.bytes(payload.data(), payload.size());
        });
    }
    ASSERT_TRUE(writer.commit().ok());
}

int
totalStepCount(const SimConfig &cfg)
{
    return static_cast<int>(cfg.horizon / cfg.stepLength);
}

/**
 * The contract, as one reusable drill: run a reference sim straight
 * through; run a second sim to the checkpoint step, save, restore
 * into a third sim, and run it to the horizon. The restored run must
 * match the reference bit-for-bit on stateDigest and on the full
 * serialized metric state.
 */
void
expectBitExactResume(const SimConfig &cfg, int checkpoint_step,
                     const char *ckpt_name)
{
    const std::string path = tmpPath(ckpt_name);
    const int total = totalStepCount(cfg);
    ASSERT_GT(checkpoint_step, 0);
    ASSERT_LT(checkpoint_step, total);

    ClusterSim reference(cfg);
    reference.run();

    ClusterSim writer(cfg);
    writer.runSteps(checkpoint_step);
    ASSERT_TRUE(writer.saveCheckpoint(path).ok());
    const std::uint64_t mid_digest = writer.stateDigest();

    ClusterSim restored(cfg);
    ASSERT_TRUE(restored.restoreCheckpoint(path).ok());
    EXPECT_EQ(restored.now(), writer.now());
    // The restored sim IS the writer, bit for bit.
    EXPECT_EQ(restored.stateDigest(), mid_digest);
    // Derived structures came back consistent.
    EXPECT_TRUE(restored.verifyVmTable());

    restored.runSteps(total - checkpoint_step);
    ASSERT_TRUE(restored.finished());
    EXPECT_EQ(restored.stateDigest(), reference.stateDigest());
    EXPECT_EQ(metricsBytes(restored.metrics()),
              metricsBytes(reference.metrics()));
    // Spot checks so a failure names a human-readable quantity too.
    EXPECT_EQ(restored.metrics().totalSteps,
              reference.metrics().totalSteps);
    EXPECT_EQ(restored.metrics().inletExcursionSteps,
              reference.metrics().inletExcursionSteps);
    EXPECT_EQ(restored.metrics().faultSteps,
              reference.metrics().faultSteps);
    EXPECT_DOUBLE_EQ(restored.metrics().totalTokens,
                     reference.metrics().totalTokens);
    EXPECT_DOUBLE_EQ(restored.metrics().datacenterPowerW.mean(),
                     reference.metrics().datacenterPowerW.mean());
    removeFileIfExists(path);
}

TEST(Checkpoint, FaultDrillResumeIsBitExactTapas)
{
    const SimConfig cfg = faultDrillScenario(301).asTapas();
    expectBitExactResume(cfg, totalStepCount(cfg) / 2,
                         "ckpt_drill_tapas.tapasckp");
}

TEST(Checkpoint, FaultDrillResumeIsBitExactBaseline)
{
    const SimConfig cfg = faultDrillScenario(303).asBaseline();
    expectBitExactResume(cfg, totalStepCount(cfg) / 2,
                         "ckpt_drill_base.tapasckp");
}

TEST(Checkpoint, WeekLongRunWithStochasticFaultsResumesBitExact)
{
    // A week on the small cluster with every stochastic fault
    // process live (components AND sensors): the checkpoint carries
    // the fault replay cursor, stuck-at snapshots, quarantine
    // streaks, and telemetry digests across days of simulated time.
    SimConfig cfg = smallTestScenario(305).asTapas();
    cfg.horizon = kWeek;
    cfg.vmTrace.horizon = kWeek;
    cfg.policy.sensorQuarantineEnabled = true;
    cfg.faults.ahu.mtbfS = 2.0 * static_cast<double>(kDay);
    cfg.faults.ups.mtbfS = 3.0 * static_cast<double>(kDay);
    cfg.faults.sensor.mtbfS = 1.0 * static_cast<double>(kDay);
    expectBitExactResume(cfg, totalStepCount(cfg) / 2,
                         "ckpt_week.tapasckp");
}

TEST(Checkpoint, ResumeIsExactAtUnevenBoundary)
{
    // Not just the midpoint: an "ugly" early boundary, while
    // placements are still churning.
    const SimConfig cfg = faultDrillScenario(307).asTapas();
    expectBitExactResume(cfg, 7, "ckpt_uneven.tapasckp");
}

TEST(Checkpoint, RestoreOverwritesADivergedSim)
{
    // Restoring into a sim that already stepped elsewhere must fully
    // overwrite it — no state may leak through from before.
    const SimConfig cfg = faultDrillScenario(309).asTapas();
    const std::string path = tmpPath("ckpt_overwrite.tapasckp");
    const int total = totalStepCount(cfg);

    ClusterSim writer(cfg);
    writer.runSteps(total / 2);
    ASSERT_TRUE(writer.saveCheckpoint(path).ok());

    ClusterSim diverged(cfg);
    diverged.runSteps(total / 4);
    ASSERT_TRUE(diverged.restoreCheckpoint(path).ok());
    EXPECT_EQ(diverged.stateDigest(), writer.stateDigest());

    writer.runSteps(total - total / 2);
    diverged.runSteps(total - total / 2);
    EXPECT_EQ(diverged.stateDigest(), writer.stateDigest());
    EXPECT_EQ(metricsBytes(diverged.metrics()),
              metricsBytes(writer.metrics()));
    removeFileIfExists(path);
}

TEST(Checkpoint, StateDigestTracksProgress)
{
    const SimConfig cfg = smallTestScenario(311).asTapas();
    ClusterSim sim(cfg);
    const std::uint64_t d0 = sim.stateDigest();
    // Reading the digest does not perturb the sim.
    EXPECT_EQ(sim.stateDigest(), d0);
    sim.runSteps(3);
    const std::uint64_t d3 = sim.stateDigest();
    EXPECT_NE(d3, d0);
    // Same config, same steps => same digest.
    ClusterSim again(cfg);
    again.runSteps(3);
    EXPECT_EQ(again.stateDigest(), d3);
}

TEST(Checkpoint, WrongConfigurationIsRejectedAsMismatch)
{
    const std::string path = tmpPath("ckpt_mismatch.tapasckp");
    ClusterSim writer(faultDrillScenario(313).asTapas());
    writer.runSteps(5);
    ASSERT_TRUE(writer.saveCheckpoint(path).ok());

    // Different scenario entirely.
    ClusterSim other(smallTestScenario(313).asTapas());
    Error err = other.restoreCheckpoint(path);
    ASSERT_FALSE(err.ok());
    EXPECT_EQ(err.code(), ErrorCode::Mismatch);

    // Same scenario, different seed: also a different stream.
    ClusterSim reseeded(faultDrillScenario(314).asTapas());
    err = reseeded.restoreCheckpoint(path);
    ASSERT_FALSE(err.ok());
    EXPECT_EQ(err.code(), ErrorCode::Mismatch);

    // Same scenario, different policy: also rejected.
    ClusterSim repoliced(faultDrillScenario(313).asBaseline());
    err = repoliced.restoreCheckpoint(path);
    ASSERT_FALSE(err.ok());
    EXPECT_EQ(err.code(), ErrorCode::Mismatch);
    removeFileIfExists(path);
}

TEST(Checkpoint, MissingFileIsIoError)
{
    ClusterSim sim(smallTestScenario(315).asTapas());
    Error err =
        sim.restoreCheckpoint(tmpPath("no_such_ckpt.tapasckp"));
    ASSERT_FALSE(err.ok());
    EXPECT_EQ(err.code(), ErrorCode::Io);
}

TEST(Checkpoint, RestoringADirectoryIsIoErrorAndLeavesTheSimUntouched)
{
    ClusterSim sim(smallTestScenario(316).asTapas());
    sim.runSteps(3);
    const std::uint64_t before = sim.stateDigest();
    const Error err = sim.restoreCheckpoint(::testing::TempDir());
    ASSERT_FALSE(err.ok());
    EXPECT_EQ(err.code(), ErrorCode::Io);
    EXPECT_EQ(sim.stateDigest(), before);
}

TEST(Checkpoint, CorruptedSnapshotsAreRejectedPerSection)
{
    const SimConfig cfg = faultDrillScenario(317).asTapas();
    const std::string path = tmpPath("ckpt_corrupt.tapasckp");
    ClusterSim writer(cfg);
    writer.runSteps(10);
    ASSERT_TRUE(writer.saveCheckpoint(path).ok());

    Result<std::vector<std::uint8_t>> good = readFileBytes(path);
    ASSERT_TRUE(good.ok());
    Result<CheckpointData> parsed = readCheckpointFile(path);
    ASSERT_TRUE(parsed.ok());

    // One bit flip inside every section's payload: the frame CRC
    // catches each before any state is touched.
    std::size_t payload_pos = 28; // kHeaderSize
    for (const CheckpointSection &section :
         parsed.value().sections) {
        const std::size_t flip_at =
            payload_pos + 12 + section.payload.size() / 2;
        std::vector<std::uint8_t> bad = good.value();
        ASSERT_LT(flip_at, bad.size());
        bad[flip_at] ^= 0x01;
        ASSERT_TRUE(
            atomicWriteFile(path, bad.data(), bad.size()).ok());
        ClusterSim victim(cfg);
        Error err = victim.restoreCheckpoint(path);
        ASSERT_FALSE(err.ok())
            << "accepted flip in section " << section.id;
        EXPECT_EQ(err.code(), ErrorCode::Corrupt);
        // The victim was never touched: it still steps like a fresh
        // sim of this config.
        ClusterSim fresh(cfg);
        EXPECT_EQ(victim.stateDigest(), fresh.stateDigest());
        payload_pos += 16 + section.payload.size();
    }

    // Truncation mid-file.
    std::vector<std::uint8_t> trunc = good.value();
    trunc.resize(trunc.size() / 2);
    ASSERT_TRUE(
        atomicWriteFile(path, trunc.data(), trunc.size()).ok());
    ClusterSim victim(cfg);
    Error err = victim.restoreCheckpoint(path);
    ASSERT_FALSE(err.ok());
    EXPECT_EQ(err.code(), ErrorCode::Corrupt);
    removeFileIfExists(path);
}

TEST(Checkpoint, MissingSectionIsRejected)
{
    const SimConfig cfg = smallTestScenario(319).asTapas();
    const std::string path = tmpPath("ckpt_missing_sec.tapasckp");
    ClusterSim writer(cfg);
    writer.runSteps(4);
    ASSERT_TRUE(writer.saveCheckpoint(path).ok());

    Result<CheckpointData> parsed = readCheckpointFile(path);
    ASSERT_TRUE(parsed.ok());
    const CheckpointData &data = parsed.value();
    ASSERT_GT(data.sections.size(), 1u);
    const std::uint32_t last_id = data.sections.back().id;
    // Drop the metrics section.
    rewriteCheckpoint(path, data,
                      [&](std::uint32_t id, std::vector<std::uint8_t> &) {
                          return id != last_id;
                      });

    ClusterSim victim(cfg);
    Error err = victim.restoreCheckpoint(path);
    ASSERT_FALSE(err.ok());
    EXPECT_EQ(err.code(), ErrorCode::Corrupt);
    EXPECT_NE(err.message().find("missing section"),
              std::string::npos);
    removeFileIfExists(path);
}

TEST(Checkpoint, UndecodablePayloadIsRejectedAfterValidation)
{
    // A CRC-valid file whose section payload does not decode (here:
    // a truncated-then-resealed core section) must still come back
    // as a structured Corrupt error, not UB.
    const SimConfig cfg = smallTestScenario(321).asTapas();
    const std::string path = tmpPath("ckpt_undecodable.tapasckp");
    ClusterSim writer(cfg);
    writer.runSteps(4);
    ASSERT_TRUE(writer.saveCheckpoint(path).ok());

    Result<CheckpointData> parsed = readCheckpointFile(path);
    ASSERT_TRUE(parsed.ok());
    const CheckpointData &data = parsed.value();
    ASSERT_FALSE(data.sections.empty());
    ASSERT_GT(data.sections[0].payload.size(), 8u);
    const std::uint32_t first_id = data.sections[0].id;
    rewriteCheckpoint(
        path, data,
        [&](std::uint32_t id, std::vector<std::uint8_t> &payload) {
            if (id == first_id)
                payload.resize(payload.size() - 8);
            return true;
        });

    ClusterSim victim(cfg);
    Error err = victim.restoreCheckpoint(path);
    ASSERT_FALSE(err.ok());
    EXPECT_EQ(err.code(), ErrorCode::Corrupt);
    EXPECT_NE(err.message().find("does not decode"),
              std::string::npos);
    removeFileIfExists(path);
}

TEST(Checkpoint, InconsistentProfileSectionIsRejected)
{
    // A CRC-valid profiles section that decodes completely but whose
    // inlet coefficients are one server short must not restore: the
    // next risk refresh would read past them.
    const SimConfig cfg = smallTestScenario(322).asTapas();
    const std::string path = tmpPath("ckpt_short_profiles.tapasckp");
    ClusterSim writer(cfg);
    writer.runSteps(4);
    ASSERT_TRUE(writer.saveCheckpoint(path).ok());

    Result<CheckpointData> parsed = readCheckpointFile(path);
    ASSERT_TRUE(parsed.ok());
    // Section 4 is "profiles" (docs/checkpoint-format.md); its
    // payload leads with the inlet coefficient count (u64), then
    // five doubles per server.
    constexpr std::uint32_t kProfilesSection = 4;
    constexpr std::uint64_t kInletWidth = 5;
    bool edited = false;
    rewriteCheckpoint(
        path, parsed.value(),
        [&](std::uint32_t id, std::vector<std::uint8_t> &payload) {
            if (id != kProfilesSection)
                return true;
            std::uint64_t count = 0;
            std::memcpy(&count, payload.data(), sizeof count);
            EXPECT_GE(count, kInletWidth);
            count -= kInletWidth;
            std::memcpy(payload.data(), &count, sizeof count);
            payload.erase(payload.begin() + sizeof count,
                          payload.begin() + sizeof count +
                              kInletWidth * sizeof(double));
            edited = true;
            return true;
        });
    ASSERT_TRUE(edited);

    ClusterSim victim(cfg);
    Error err = victim.restoreCheckpoint(path);
    ASSERT_FALSE(err.ok());
    EXPECT_EQ(err.code(), ErrorCode::Corrupt);
    removeFileIfExists(path);
}

TEST(Checkpoint, OutOfRangeReloadEntryIsRejected)
{
    // A CRC-valid controller section with one extra reload entry for
    // VM 0xFFFFFFFF must not restore: the entry indexes past the VM
    // table (and vm + 1 wraps to 0 in u32 arithmetic).
    const SimConfig cfg = smallTestScenario(324).asTapas();
    const std::string path = tmpPath("ckpt_reload_range.tapasckp");
    ClusterSim writer(cfg);
    writer.runSteps(4);
    ASSERT_TRUE(writer.saveCheckpoint(path).ok());

    Result<CheckpointData> parsed = readCheckpointFile(path);
    ASSERT_TRUE(parsed.ok());
    // Section 5 is "controller"; its payload leads with the reload
    // entry count (u64), then a (vm u32, time i64) pair per entry.
    constexpr std::uint32_t kControllerSection = 5;
    bool edited = false;
    rewriteCheckpoint(
        path, parsed.value(),
        [&](std::uint32_t id, std::vector<std::uint8_t> &payload) {
            if (id != kControllerSection)
                return true;
            std::uint64_t count = 0;
            std::memcpy(&count, payload.data(), sizeof count);
            ++count;
            std::memcpy(payload.data(), &count, sizeof count);
            std::uint8_t entry[12] = {};
            const std::uint32_t vm = 0xFFFFFFFFu;
            std::memcpy(entry, &vm, sizeof vm);
            payload.insert(payload.begin() + sizeof count, entry,
                           entry + sizeof entry);
            edited = true;
            return true;
        });
    ASSERT_TRUE(edited);

    ClusterSim victim(cfg);
    Error err = victim.restoreCheckpoint(path);
    ASSERT_FALSE(err.ok());
    EXPECT_EQ(err.code(), ErrorCode::Corrupt);
    removeFileIfExists(path);
}

TEST(Checkpoint, ShortRiskStreakIsRejected)
{
    // A CRC-valid controller section whose risk cache holds a
    // fleet-sized divergence streak but a healthy streak one entry
    // short must not restore: the next refresh would index past it.
    SimConfig cfg = smallTestScenario(325).asTapas();
    cfg.policy.sensorQuarantineEnabled = true;
    const std::string path = tmpPath("ckpt_short_streak.tapasckp");
    ClusterSim writer(cfg);
    writer.runSteps(4);
    ASSERT_TRUE(writer.saveCheckpoint(path).ok());

    Result<CheckpointData> parsed = readCheckpointFile(path);
    ASSERT_TRUE(parsed.ok());
    // Section 5 ("controller") ends with the risk cache's sensor
    // state: the healthy streaks (u64 count, i32 each), quarantine
    // flags (u64 count, u8 each), last-good GPU power (u64 count,
    // f64 each), then the quarantine and event counts (u64 each).
    constexpr std::uint32_t kControllerSection = 5;
    const std::size_t servers = writer.datacenter().serverCount();
    const std::size_t gpus = static_cast<std::size_t>(
        writer.datacenter().specs().front().gpusPerServer);
    const std::size_t tail = (8 + 4 * servers) + (8 + servers) +
        (8 + 8 * servers * gpus) + 16;
    bool edited = false;
    rewriteCheckpoint(
        path, parsed.value(),
        [&](std::uint32_t id, std::vector<std::uint8_t> &payload) {
            if (id != kControllerSection || payload.size() < tail)
                return true;
            const std::size_t at = payload.size() - tail;
            std::uint64_t count = 0;
            std::memcpy(&count, payload.data() + at, sizeof count);
            EXPECT_EQ(count, servers);
            if (count != servers)
                return true;
            --count;
            std::memcpy(payload.data() + at, &count, sizeof count);
            payload.erase(payload.begin() + at + sizeof count,
                          payload.begin() + at + sizeof count + 4);
            edited = true;
            return true;
        });
    ASSERT_TRUE(edited);

    ClusterSim victim(cfg);
    Error err = victim.restoreCheckpoint(path);
    ASSERT_FALSE(err.ok());
    EXPECT_EQ(err.code(), ErrorCode::Corrupt);
    removeFileIfExists(path);
}

TEST(Checkpoint, SaveIsByteStableAcrossRewrites)
{
    // Saving twice without stepping produces identical files
    // (canonical serialization: no map-order or uninitialized-pad
    // leakage).
    const SimConfig cfg = faultDrillScenario(323).asTapas();
    const std::string a = tmpPath("ckpt_stable_a.tapasckp");
    const std::string b = tmpPath("ckpt_stable_b.tapasckp");
    ClusterSim sim(cfg);
    sim.runSteps(12);
    ASSERT_TRUE(sim.saveCheckpoint(a).ok());
    ASSERT_TRUE(sim.saveCheckpoint(b).ok());
    Result<std::vector<std::uint8_t>> ba = readFileBytes(a);
    Result<std::vector<std::uint8_t>> bb = readFileBytes(b);
    ASSERT_TRUE(ba.ok());
    ASSERT_TRUE(bb.ok());
    EXPECT_EQ(ba.value(), bb.value());
    removeFileIfExists(a);
    removeFileIfExists(b);
}

TEST(Checkpoint, SavedFileBytesArePinned)
{
    // The whole file, not just the payloads stateDigest folds: the
    // header, section frames and CRCs keep their exact bytes while
    // the format version stays 1. Change the constants only together
    // with a version bump.
    const SimConfig cfg = faultDrillScenario(323).asTapas();
    const std::string path = tmpPath("ckpt_pinned.tapasckp");
    ClusterSim sim(cfg);
    sim.runSteps(12);
    ASSERT_TRUE(sim.saveCheckpoint(path).ok());
    Result<std::vector<std::uint8_t>> bytes = readFileBytes(path);
    ASSERT_TRUE(bytes.ok());
    EXPECT_EQ(kCheckpointFormatVersion, 1u);
    EXPECT_EQ(bytes.value().size(), 56940u);
    EXPECT_EQ(fnv1a64(bytes.value().data(), bytes.value().size()),
              0x88833cd6468ae27aull);
    removeFileIfExists(path);
}

/**
 * Six hours of retention over a simulated day: the server rings have
 * wrapped, so each travels as two stableBytes() chunks.
 */
SimConfig
ringHeavyScenario()
{
    SimConfig cfg = faultDrillScenario(323).asTapas();
    cfg.telemetryRetention = 6 * kHour;
    return cfg;
}

TEST(Checkpoint, RingHeavySavedFileBytesArePinned)
{
    // The writer gathers the ring chunks. The constants were taken
    // from a writer that copied every chunk into one contiguous
    // buffer.
    const SimConfig cfg = ringHeavyScenario();
    const std::string path = tmpPath("ckpt_pinned_rings.tapasckp");
    ClusterSim sim(cfg);
    sim.runSteps(static_cast<int>(kDay / cfg.stepLength));
    ASSERT_TRUE(sim.saveCheckpoint(path).ok());
    Result<std::vector<std::uint8_t>> bytes = readFileBytes(path);
    ASSERT_TRUE(bytes.ok());
    EXPECT_EQ(bytes.value().size(), 142248u);
    EXPECT_EQ(fnv1a64(bytes.value().data(), bytes.value().size()),
              0x18b523d0230adf96ull);
    removeFileIfExists(path);
}

/** @p path holds the file RingHeavySavedFileBytesArePinned pins: a
 *  save of a ring-heavy sim stepped to the end of its day. */
void
expectRingHeavyPinnedBytes(const std::string &path)
{
    Result<std::vector<std::uint8_t>> bytes = readFileBytes(path);
    ASSERT_TRUE(bytes.ok());
    EXPECT_EQ(bytes.value().size(), 142248u);
    EXPECT_EQ(fnv1a64(bytes.value().data(), bytes.value().size()),
              0x18b523d0230adf96ull);
}

TEST(Checkpoint, SaveFailingInsideTheTelemetrySectionKeepsThePreviousFile)
{
    // A file-size limit halfway through the telemetry payload: the
    // gathered write that crosses it stops short, and the next one
    // fails with EFBIG. The error names the temp file, which is gone, and the
    // destination keeps the earlier save's bytes.
    const SimConfig cfg = ringHeavyScenario();
    const int day = static_cast<int>(kDay / cfg.stepLength);
    const std::string path = tmpPath("ckpt_fsize_rings.tapasckp");
    ClusterSim sim(cfg);
    sim.runSteps(12);
    ASSERT_TRUE(sim.saveCheckpoint(path).ok());
    Result<std::vector<std::uint8_t>> previous = readFileBytes(path);
    ASSERT_TRUE(previous.ok());
    sim.runSteps(day - 12);

    // Where this state's telemetry payload lies in its file.
    const std::string scout = tmpPath("ckpt_fsize_scout.tapasckp");
    ASSERT_TRUE(sim.saveCheckpoint(scout).ok());
    Result<CheckpointData> parsed = readCheckpointFile(scout);
    removeFileIfExists(scout);
    ASSERT_TRUE(parsed.ok());
    constexpr std::uint32_t kTelemetrySection = 3;
    std::size_t payload_at = 28 + 12;
    std::size_t telemetry_bytes = 0;
    for (const CheckpointSection &section : parsed.value().sections) {
        if (section.id == kTelemetrySection) {
            telemetry_bytes = section.payload.size();
            break;
        }
        payload_at += 16 + section.payload.size();
    }
    ASSERT_GT(telemetry_bytes, 0u);

    Error err;
    {
        const rlim_t limit = payload_at + telemetry_bytes / 2;
        rlimit current{};
        ASSERT_EQ(getrlimit(RLIMIT_FSIZE, &current), 0);
        ASSERT_GT(current.rlim_cur, limit);
        FileSizeLimit fsize(limit);
        err = sim.saveCheckpoint(path);
    }
    ASSERT_FALSE(err.ok());
    EXPECT_EQ(err.code(), ErrorCode::Io);
    EXPECT_NE(err.message().find("'" + path + ".tmp'"), std::string::npos)
        << err.message();
    EXPECT_NE(err.message().find(std::strerror(EFBIG)), std::string::npos)
        << err.message();
    EXPECT_FALSE(fileExists(path + ".tmp"));
    Result<std::vector<std::uint8_t>> kept = readFileBytes(path);
    ASSERT_TRUE(kept.ok());
    EXPECT_TRUE(kept.value() == previous.value());

    // With the limit lifted the same state saves to the pinned bytes.
    ASSERT_TRUE(sim.saveCheckpoint(path).ok());
    expectRingHeavyPinnedBytes(path);
    removeFileIfExists(path);
}

TEST(Checkpoint, StaleTempFileIsOverwrittenAndNeverRead)
{
    // A save killed mid-write leaves <path>.tmp behind. Make it the
    // worst case: a complete checkpoint of another state, padded past
    // the size of the next save's file.
    const SimConfig cfg = ringHeavyScenario();
    const std::string path = tmpPath("ckpt_stale_tmp.tapasckp");
    const std::string tmp = path + ".tmp";
    ClusterSim other(cfg);
    other.runSteps(12);
    ASSERT_TRUE(other.saveCheckpoint(tmp).ok());
    Result<std::vector<std::uint8_t>> stale = readFileBytes(tmp);
    ASSERT_TRUE(stale.ok());
    stale.value().resize(300000, 0x5a);
    ASSERT_TRUE(
        atomicWriteFile(tmp, stale.value().data(), stale.value().size())
            .ok());
    removeFileIfExists(path);

    // A restore reads the destination only: with none there is
    // nothing to restore, whatever the temp file holds.
    ClusterSim fresh(cfg);
    ClusterSim victim(cfg);
    Error err = victim.restoreCheckpoint(path);
    ASSERT_FALSE(err.ok());
    EXPECT_EQ(err.code(), ErrorCode::Io);
    EXPECT_EQ(victim.stateDigest(), fresh.stateDigest());

    // The next save truncates the temp file, so the file it publishes
    // holds none of the stale bytes.
    ClusterSim sim(cfg);
    sim.runSteps(static_cast<int>(kDay / cfg.stepLength));
    ASSERT_TRUE(sim.saveCheckpoint(path).ok());
    EXPECT_FALSE(fileExists(tmp));
    expectRingHeavyPinnedBytes(path);

    // Killed again, a later save leaves another stale temp file; a
    // restore still reads the published one.
    ASSERT_TRUE(
        atomicWriteFile(tmp, stale.value().data(), stale.value().size())
            .ok());
    ClusterSim restored(cfg);
    err = restored.restoreCheckpoint(path);
    ASSERT_TRUE(err.ok()) << err.message();
    EXPECT_EQ(restored.stateDigest(), sim.stateDigest());
    removeFileIfExists(tmp);
    removeFileIfExists(path);
}

TEST(Checkpoint, RingHeavyStateDigestIsFnvOverTheSavedPayloads)
{
    // stateDigest() hashes the stream as its walk produces it, small
    // fields through a block and ring chunks in place; the value is
    // FNV-1a chained over the seven section payloads of a save of
    // the same state, in section order.
    const SimConfig cfg = ringHeavyScenario();
    const std::string path = tmpPath("ckpt_digest_rings.tapasckp");
    ClusterSim sim(cfg);
    sim.runSteps(static_cast<int>(kDay / cfg.stepLength));
    ASSERT_TRUE(sim.saveCheckpoint(path).ok());
    Result<CheckpointData> data = readCheckpointFile(path);
    removeFileIfExists(path);
    ASSERT_TRUE(data.ok());
    ASSERT_EQ(data.value().sections.size(), 7u);
    std::uint64_t expect = fnv1a64(nullptr, 0);
    for (std::size_t i = 0; i < 7; ++i) {
        const CheckpointSection &section = data.value().sections[i];
        EXPECT_EQ(section.id, i + 1);
        expect = fnv1a64(section.payload.data(), section.payload.size(),
                         expect);
    }
    EXPECT_EQ(sim.stateDigest(), expect);
}

/**
 * Restore @p bytes, written to @p path, into a fresh sim of @p cfg:
 * it must fail as Corrupt and leave the sim as a fresh one.
 */
void
expectRejectedUntouched(const SimConfig &cfg, const std::string &path,
                        const std::vector<std::uint8_t> &bytes,
                        const char *what)
{
    ASSERT_TRUE(atomicWriteFile(path, bytes.data(), bytes.size()).ok());
    ClusterSim victim(cfg);
    const Error err = victim.restoreCheckpoint(path);
    ASSERT_FALSE(err.ok()) << "accepted " << what;
    EXPECT_EQ(err.code(), ErrorCode::Corrupt) << what;
    ClusterSim fresh(cfg);
    EXPECT_EQ(victim.stateDigest(), fresh.stateDigest()) << what;
}

TEST(Checkpoint, CorruptedRingSnapshotsAreRejectedUntouched)
{
    // Where the rings are: the telemetry section streams into a
    // staged store before its CRC is checked, so damage inside it
    // must still leave the sim as it was.
    const SimConfig cfg = ringHeavyScenario();
    const std::string path = tmpPath("ckpt_corrupt_rings.tapasckp");
    ClusterSim writer(cfg);
    writer.runSteps(static_cast<int>(kDay / cfg.stepLength));
    ASSERT_TRUE(writer.saveCheckpoint(path).ok());
    Result<std::vector<std::uint8_t>> good = readFileBytes(path);
    ASSERT_TRUE(good.ok());
    Result<CheckpointData> parsed = readCheckpointFile(path);
    ASSERT_TRUE(parsed.ok());

    // The telemetry payload's file offset: the header, then whole
    // frames (id, length, payload, CRC) up to section 3's payload.
    constexpr std::uint32_t kTelemetrySection = 3;
    std::size_t payload_at = 28;
    for (const CheckpointSection &section : parsed.value().sections) {
        if (section.id == kTelemetrySection)
            break;
        payload_at += 16 + section.payload.size();
    }
    payload_at += 12;
    const CheckpointSection *telemetry =
        parsed.value().find(kTelemetrySection);
    ASSERT_NE(telemetry, nullptr);

    // The payload leads with the store's capacity and the server ring
    // count; the first ring follows: capacity, sample count and two
    // gaps (u64 each), then its samples as one run.
    std::uint64_t samples = 0;
    std::memcpy(&samples, telemetry->payload.data() + 24, sizeof samples);
    ASSERT_GT(samples, 0u);
    const std::size_t run_at = payload_at + 48;
    std::vector<std::uint8_t> flipped = good.value();
    flipped[run_at + samples * sizeof(ServerSample) / 2] ^= 0x01;
    expectRejectedUntouched(cfg, path, flipped, "a flip in a ring run");

    std::vector<std::uint8_t> truncated = good.value();
    truncated.resize(payload_at + telemetry->payload.size() / 2);
    expectRejectedUntouched(cfg, path, truncated,
                            "a truncation in the telemetry section");

    // A CRC-valid telemetry payload that does not decode is caught
    // before any section applies, too.
    rewriteCheckpoint(
        path, parsed.value(),
        [](std::uint32_t id, std::vector<std::uint8_t> &payload) {
            if (id == kTelemetrySection)
                payload.resize(payload.size() - 8);
            return true;
        });
    Result<std::vector<std::uint8_t>> resealed = readFileBytes(path);
    ASSERT_TRUE(resealed.ok());
    expectRejectedUntouched(cfg, path, resealed.value(),
                            "an undecodable telemetry payload");
    removeFileIfExists(path);
}

} // namespace
} // namespace tapas
