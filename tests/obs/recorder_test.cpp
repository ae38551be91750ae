// Flight-recorder journal mechanics: record/header layout, full and ring
// retention accounting, byte round-trips through the serialized form, and
// the EDGEREP_RECORD environment grammar.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/obs.h"
#include "obs/recorder.h"

namespace edgerep {
namespace {

obs::JournalRecord make_record(std::uint32_t i) {
  obs::JournalRecord r;
  r.time = static_cast<double>(i) * 0.5;
  r.v0 = 1.0 + i;
  r.v1 = 0.25 * i;
  r.a = i;
  r.b = 100 + i;
  r.site = i % 7;
  r.kind = static_cast<std::uint8_t>(obs::RecordKind::kTransferStart);
  r.arg = static_cast<std::uint8_t>(i % 3);
  r.flags = static_cast<std::uint16_t>(i % 2);
  return r;
}

bool same_bytes(const obs::JournalRecord& x, const obs::JournalRecord& y) {
  return std::memcmp(&x, &y, sizeof(obs::JournalRecord)) == 0;
}

class RecorderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_recorder_enabled(false);
    obs::recorder().configure(obs::RecorderMode::kFull);
  }
  void TearDown() override {
    ::unsetenv("EDGEREP_RECORD");
    obs::init_from_env();
  }
};

TEST_F(RecorderTest, LayoutIsPinned) {
  EXPECT_EQ(sizeof(obs::JournalRecord), 40u);
  EXPECT_EQ(sizeof(obs::JournalHeader), 48u);
  for (std::size_t k = 0; k < obs::kRecordKindCount; ++k) {
    EXPECT_STRNE(obs::to_string(static_cast<obs::RecordKind>(k)), "?");
  }
}

TEST_F(RecorderTest, FullModeKeepsEverythingInOrder) {
  obs::Recorder rec;
  for (std::uint32_t i = 0; i < 100; ++i) rec.append(make_record(i));
  EXPECT_EQ(rec.size(), 100u);
  EXPECT_EQ(rec.total_appended(), 100u);
  EXPECT_EQ(rec.dropped(), 0u);
  const std::vector<obs::JournalRecord> snap = rec.snapshot();
  ASSERT_EQ(snap.size(), 100u);
  for (std::uint32_t i = 0; i < 100; ++i) {
    EXPECT_TRUE(same_bytes(snap[i], make_record(i))) << "record " << i;
  }
}

TEST_F(RecorderTest, RingModeKeepsTheLastCapacityRecords) {
  obs::Recorder rec;
  rec.configure(obs::RecorderMode::kRing, 4);
  for (std::uint32_t i = 0; i < 10; ++i) rec.append(make_record(i));
  EXPECT_EQ(rec.size(), 4u);
  EXPECT_EQ(rec.total_appended(), 10u);
  EXPECT_EQ(rec.dropped(), 6u);
  EXPECT_EQ(rec.ring_capacity(), 4u);
  // Oldest-first unroll: the survivors are records 6..9.
  const std::vector<obs::JournalRecord> snap = rec.snapshot();
  ASSERT_EQ(snap.size(), 4u);
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(same_bytes(snap[i], make_record(6 + i))) << "slot " << i;
  }
}

TEST_F(RecorderTest, RingBelowCapacityDropsNothing) {
  obs::Recorder rec;
  rec.configure(obs::RecorderMode::kRing, 16);
  for (std::uint32_t i = 0; i < 5; ++i) rec.append(make_record(i));
  EXPECT_EQ(rec.size(), 5u);
  EXPECT_EQ(rec.dropped(), 0u);
  const std::vector<obs::JournalRecord> snap = rec.snapshot();
  ASSERT_EQ(snap.size(), 5u);
  EXPECT_TRUE(same_bytes(snap[0], make_record(0)));
  EXPECT_TRUE(same_bytes(snap[4], make_record(4)));
}

TEST_F(RecorderTest, WriteReadRoundTripIsByteExact) {
  obs::Recorder rec;
  for (std::uint32_t i = 0; i < 37; ++i) rec.append(make_record(i));
  std::ostringstream os;
  rec.write(os);
  const std::string bytes = os.str();
  EXPECT_EQ(bytes.size(),
            sizeof(obs::JournalHeader) + 37 * sizeof(obs::JournalRecord));

  std::istringstream is(bytes);
  obs::Journal journal;
  std::string err;
  ASSERT_TRUE(obs::read_journal(is, &journal, &err)) << err;
  EXPECT_EQ(journal.header.version, obs::kJournalVersion);
  EXPECT_EQ(journal.header.record_size, sizeof(obs::JournalRecord));
  EXPECT_EQ(journal.header.appended, 37u);
  EXPECT_EQ(journal.header.retained, 37u);
  EXPECT_EQ(journal.header.dropped, 0u);
  EXPECT_EQ(journal.header.mode,
            static_cast<std::uint8_t>(obs::RecorderMode::kFull));
  ASSERT_EQ(journal.records.size(), 37u);
  for (std::uint32_t i = 0; i < 37; ++i) {
    EXPECT_TRUE(same_bytes(journal.records[i], make_record(i)));
  }

  // Identical append sequences serialize to identical bytes.
  obs::Recorder again;
  for (std::uint32_t i = 0; i < 37; ++i) again.append(make_record(i));
  std::ostringstream os2;
  again.write(os2);
  EXPECT_EQ(bytes, os2.str());
}

TEST_F(RecorderTest, RingJournalRoundTripsDroppedAccounting) {
  obs::Recorder rec;
  rec.configure(obs::RecorderMode::kRing, 8);
  for (std::uint32_t i = 0; i < 20; ++i) rec.append(make_record(i));
  std::ostringstream os;
  rec.write(os);
  std::istringstream is(os.str());
  obs::Journal journal;
  ASSERT_TRUE(obs::read_journal(is, &journal));
  EXPECT_EQ(journal.header.appended, 20u);
  EXPECT_EQ(journal.header.retained, 8u);
  EXPECT_EQ(journal.header.dropped, 12u);
  ASSERT_EQ(journal.records.size(), 8u);
  EXPECT_TRUE(same_bytes(journal.records.front(), make_record(12)));
  EXPECT_TRUE(same_bytes(journal.records.back(), make_record(19)));
}

TEST_F(RecorderTest, ReadRejectsGarbageAndTruncation) {
  obs::Journal journal;
  std::string err;
  {
    std::istringstream is(std::string("not a journal at all"));
    EXPECT_FALSE(obs::read_journal(is, &journal, &err));
    EXPECT_FALSE(err.empty());
  }
  {
    obs::Recorder rec;
    rec.append(make_record(1));
    rec.append(make_record(2));
    std::ostringstream os;
    rec.write(os);
    std::string bytes = os.str();
    bytes.resize(bytes.size() - 7);  // cut the last record short
    std::istringstream is(bytes);
    EXPECT_FALSE(obs::read_journal(is, &journal, &err));
  }
}

TEST_F(RecorderTest, ClearKeepsModeAndCapacity) {
  obs::Recorder rec;
  rec.configure(obs::RecorderMode::kRing, 4);
  for (std::uint32_t i = 0; i < 9; ++i) rec.append(make_record(i));
  rec.clear();
  EXPECT_EQ(rec.size(), 0u);
  EXPECT_EQ(rec.total_appended(), 0u);
  EXPECT_EQ(rec.dropped(), 0u);
  EXPECT_EQ(rec.mode(), obs::RecorderMode::kRing);
  EXPECT_EQ(rec.ring_capacity(), 4u);
  rec.append(make_record(42));
  EXPECT_EQ(rec.size(), 1u);
}

TEST_F(RecorderTest, RingWrapPreservesAlertAndFlowInterleaving) {
  // Watchdog kAlert transitions ride the same journal as flow-backend
  // kFlowRateChange records; a wrapped ring must keep the interleaved tail
  // byte-exact and its drop accounting precise, so the postmortem can still
  // reconstruct the surviving alert windows.
  const auto make_alert = [](std::uint32_t i) {
    obs::JournalRecord r;
    r.time = 0.5 * i;
    r.v0 = 0.4 + 0.01 * i;  // detector statistic
    r.v1 = 0.35;            // threshold (open transition)
    r.a = i % 5;            // subject id
    r.b = i;                // alert seq
    r.site = obs::kNoSite;
    r.kind = static_cast<std::uint8_t>(obs::RecordKind::kAlert);
    r.arg = static_cast<std::uint8_t>(i % 5);  // AlertKind
    r.flags = static_cast<std::uint16_t>((1u << 1) | (1u << 3));
    return r;
  };
  const auto make_flow = [](std::uint32_t i) {
    obs::JournalRecord r;
    r.time = 0.5 * i + 0.25;
    r.v0 = 2.0 * i;  // rate
    r.v1 = 8.0;      // remaining work
    r.a = i;         // layout slot
    r.b = i % 11;    // bottleneck edge
    r.site = obs::kNoSite;
    r.kind = static_cast<std::uint8_t>(obs::RecordKind::kFlowRateChange);
    r.arg = static_cast<std::uint8_t>(i % 2);
    return r;
  };

  obs::Recorder rec;
  rec.configure(obs::RecorderMode::kRing, 7);
  for (std::uint32_t i = 0; i < 23; ++i) {
    rec.append(i % 2 == 0 ? make_alert(i) : make_flow(i));
  }
  EXPECT_EQ(rec.total_appended(), 23u);
  EXPECT_EQ(rec.size(), 7u);
  EXPECT_EQ(rec.dropped(), 16u);

  std::stringstream buf;
  rec.write(buf);
  obs::Journal journal;
  ASSERT_TRUE(obs::read_journal(buf, &journal));
  EXPECT_EQ(journal.header.appended, 23u);
  EXPECT_EQ(journal.header.retained, 7u);
  EXPECT_EQ(journal.header.dropped, 16u);
  ASSERT_EQ(journal.records.size(), 7u);
  for (std::uint32_t i = 0; i < 7; ++i) {
    const std::uint32_t src = 16 + i;  // oldest surviving record first
    const obs::JournalRecord want =
        src % 2 == 0 ? make_alert(src) : make_flow(src);
    EXPECT_TRUE(same_bytes(journal.records[i], want)) << "slot " << i;
  }
  EXPECT_STREQ(obs::to_string(obs::RecordKind::kAlert), "alert");
}

TEST_F(RecorderTest, EnvironmentGrammarControlsTheGlobalRecorder) {
  ::setenv("EDGEREP_RECORD", "1", 1);
  obs::init_from_env();
  EXPECT_TRUE(obs::recorder_enabled());
  EXPECT_EQ(obs::recorder().mode(), obs::RecorderMode::kFull);

  ::setenv("EDGEREP_RECORD", "ring:128", 1);
  obs::init_from_env();
  EXPECT_TRUE(obs::recorder_enabled());
  EXPECT_EQ(obs::recorder().mode(), obs::RecorderMode::kRing);
  EXPECT_EQ(obs::recorder().ring_capacity(), 128u);

  ::setenv("EDGEREP_RECORD", "ring", 1);
  obs::init_from_env();
  EXPECT_EQ(obs::recorder().ring_capacity(), obs::kDefaultRingCapacity);

  // A ring suffix that is not exactly ":N" with N in [1, 2^24] prints one
  // warning and leaves the recorder off, in full mode, without allocating
  // (ring:100000000000 used to abort every binary during static init).
  for (const char* bad : {"ring:4096abc", "ring:100000000000", "ring:16777217",
                          "ring:0", "ring:", "ring:-5", "ring:+5", "ringo"}) {
    ::setenv("EDGEREP_RECORD", "ring:128", 1);
    obs::init_from_env();
    ASSERT_TRUE(obs::recorder_enabled());
    ::setenv("EDGEREP_RECORD", bad, 1);
    ::testing::internal::CaptureStderr();
    obs::init_from_env();
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_FALSE(obs::recorder_enabled()) << bad;
    EXPECT_EQ(obs::recorder().mode(), obs::RecorderMode::kFull) << bad;
    EXPECT_EQ(err, "warning: EDGEREP_RECORD=" + std::string(bad) +
                       ": expected ring or ring:N with N in [1, 16777216]; "
                       "recorder left off\n");
  }

  ::unsetenv("EDGEREP_RECORD");
  obs::init_from_env();
  EXPECT_FALSE(obs::recorder_enabled());
  EXPECT_EQ(obs::recorder().size(), 0u);  // init clears the journal
}

TEST_F(RecorderTest, ConfigureRejectsARingPastTheBound) {
  EXPECT_EQ(obs::kMaxRingCapacity, 16777216u);
  EXPECT_GE(obs::kMaxRingCapacity, 4000000u);  // the nightly job's ring
  obs::Recorder rec;
  rec.configure(obs::RecorderMode::kRing, 8);
  rec.append(make_record(1));
  EXPECT_THROW(rec.configure(obs::RecorderMode::kRing,
                             obs::kMaxRingCapacity + 1),
               std::invalid_argument);
  EXPECT_THROW(rec.configure(obs::RecorderMode::kRing, 100'000'000'000),
               std::invalid_argument);
  // The throw comes before any change.
  EXPECT_EQ(rec.mode(), obs::RecorderMode::kRing);
  EXPECT_EQ(rec.ring_capacity(), 8u);
  EXPECT_EQ(rec.size(), 1u);
}

TEST_F(RecorderTest, RecorderIsNotPartOfSetAllEnabled) {
  obs::set_all_enabled(true);
  EXPECT_FALSE(obs::recorder_enabled());
  obs::set_all_enabled(false);
  obs::set_recorder_enabled(true);
  EXPECT_TRUE(obs::recorder_enabled());
  obs::set_all_enabled(false);
  EXPECT_TRUE(obs::recorder_enabled());  // untouched by the blanket switch
  obs::set_recorder_enabled(false);
}

}  // namespace
}  // namespace edgerep
