// Unit tests for the storage primitives: serializer bounds, CRC framing,
// the fault-injecting VFS's crash model, the command journal's torn-tail
// policy and the snapshot file's atomicity protocol.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/checksum.h"
#include "storage/fault_vfs.h"
#include "storage/journal.h"
#include "storage/serializer.h"
#include "storage/snapshot.h"
#include "storage/vfs.h"

namespace ncps::storage {
namespace {

TEST(SerializerTest, VarintRoundTripsBoundaryValues) {
  const std::uint64_t values[] = {0,
                                  1,
                                  127,
                                  128,
                                  16383,
                                  16384,
                                  0xffffffffu,
                                  0x7fffffffffffffffu,
                                  ~std::uint64_t{0}};
  Writer w;
  for (const std::uint64_t v : values) w.varint(v);
  Reader r(w.bytes());
  for (const std::uint64_t v : values) EXPECT_EQ(r.varint(), v);
  EXPECT_TRUE(r.done());
}

TEST(SerializerTest, FixedWidthAndStringsRoundTrip) {
  Writer w;
  w.u8(0xab);
  w.u32(0xdeadbeefu);
  w.u64(0x0123456789abcdefu);
  w.f64(-1234.5);
  w.string("hello \x01 world");
  w.string("");
  Reader r(w.bytes());
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefu);
  EXPECT_EQ(r.f64(), -1234.5);
  EXPECT_EQ(r.string(), "hello \x01 world");
  EXPECT_EQ(r.string(), "");
  EXPECT_TRUE(r.done());
}

TEST(SerializerTest, ReadsPastEndThrow) {
  Writer w;
  w.u32(7);
  Reader r(w.bytes());
  EXPECT_THROW((void)r.u64(), StorageError);
  Reader r2(w.bytes());
  (void)r2.u32();
  EXPECT_THROW((void)r2.u8(), StorageError);
}

TEST(SerializerTest, TruncatedStringThrows) {
  Writer w;
  w.varint(100);  // claims 100 bytes follow
  w.raw("abc", 3);
  Reader r(w.bytes());
  EXPECT_THROW((void)r.string(), StorageError);
}

TEST(SerializerTest, VarintMaxEnforcesCeiling) {
  Writer w;
  w.varint(512);
  Reader r(w.bytes());
  EXPECT_THROW((void)r.varint_max(511, "test ceiling"), StorageError);
}

TEST(SerializerTest, OverlongVarintThrows) {
  const std::string ten_continuations(10, '\x80');
  Reader r(ten_continuations);
  EXPECT_THROW((void)r.varint(), StorageError);
}

TEST(ChecksumTest, MatchesKnownVector) {
  // The canonical CRC-32/IEEE check value.
  EXPECT_EQ(crc32(std::string_view("123456789")), 0xcbf43926u);
  EXPECT_EQ(crc32(std::string_view("")), 0u);
}

TEST(ChecksumTest, IncrementalMatchesOneShot) {
  const std::string_view data = "incremental checksum test payload";
  std::uint32_t crc = crc32_init();
  crc = crc32_update(crc, data.data(), 10);
  crc = crc32_update(crc, data.data() + 10, data.size() - 10);
  EXPECT_EQ(crc32_final(crc), crc32(data));
}

TEST(FaultVfsTest, SyncPromotesPendingToDurable) {
  FaultInjectingVfs vfs;
  auto writer = vfs.open_append("f");
  writer->append("abc");
  EXPECT_EQ(vfs.durable_contents("f"), "");  // unsynced = volatile
  writer->sync();
  EXPECT_EQ(vfs.durable_contents("f"), "abc");
}

TEST(FaultVfsTest, RestartDropsUnsyncedBytes) {
  FaultInjectingVfs vfs;
  auto writer = vfs.open_append("f");
  writer->append("abc");
  writer->sync();
  writer->append("def");  // never synced
  vfs.restart();
  EXPECT_EQ(vfs.durable_contents("f"), "abc");
}

TEST(FaultVfsTest, ArmedBoundaryThrowsThenPlaysDead) {
  FaultInjectingVfs vfs;
  auto writer = vfs.open_append("f");  // opens are metadata, not boundaries
  vfs.crash_at_boundary(1);            // the first append
  EXPECT_THROW(writer->append("abc"), SimulatedCrash);
  EXPECT_TRUE(vfs.crashed());
  // Dead instance swallows everything silently.
  EXPECT_NO_THROW(writer->append("zzz"));
  EXPECT_NO_THROW(writer->sync());
  vfs.restart();
  EXPECT_EQ(vfs.durable_contents("f"), "");
}

TEST(FaultVfsTest, TornSyncRetainsHalfThePendingBuffer) {
  FaultInjectingVfs vfs;
  auto writer = vfs.open_append("f");
  writer->append("abcdefgh");
  vfs.crash_at_boundary(vfs.boundary_count() + 1);  // next op = the sync
  vfs.set_torn_sync(true);
  EXPECT_THROW(writer->sync(), SimulatedCrash);
  vfs.restart();
  EXPECT_EQ(vfs.durable_contents("f"), "abcd");  // first half promoted
}

TEST(FaultVfsTest, RenameIsAtomicReplace) {
  FaultInjectingVfs vfs;
  {
    auto writer = vfs.open_truncate("a");
    writer->append("new");
    writer->sync();
  }
  {
    auto writer = vfs.open_truncate("b");
    writer->append("old");
    writer->sync();
  }
  vfs.rename("a", "b");
  EXPECT_FALSE(vfs.exists("a"));
  EXPECT_EQ(vfs.durable_contents("b"), "new");
}

JournalRecord subscribe_record(std::uint64_t seq, std::uint32_t global,
                               const std::string& text) {
  JournalRecord record;
  record.seq = seq;
  record.type = JournalRecord::Type::Subscribe;
  record.subscriber = 0;
  record.global = global;
  record.text = text;
  return record;
}

TEST(JournalTest, AppendCommitReplayRoundTrips) {
  FaultInjectingVfs vfs;
  const std::string path = "journal.wal";
  {
    CommandJournal journal(vfs, path, /*sync_on_commit=*/true);
    journal.open_for_append(CommandJournal::replay(vfs, path));
    journal.append(subscribe_record(1, 10, "x > 1"));
    journal.commit();
    JournalRecord bulk;
    bulk.seq = 2;
    bulk.type = JournalRecord::Type::BulkSubscribe;
    bulk.subscriber = 3;
    bulk.bulk.push_back(JournalRecord::BulkItem{11, "y == 2"});
    bulk.bulk.push_back(JournalRecord::BulkItem{12, "z < 3"});
    journal.append(bulk);
    journal.commit();
  }
  const auto replayed = CommandJournal::replay(vfs, path);
  EXPECT_FALSE(replayed.torn_tail);
  EXPECT_EQ(replayed.max_seq, 2u);
  ASSERT_EQ(replayed.records.size(), 2u);
  EXPECT_EQ(replayed.records[0].global, 10u);
  EXPECT_EQ(replayed.records[0].text, "x > 1");
  ASSERT_EQ(replayed.records[1].bulk.size(), 2u);
  EXPECT_EQ(replayed.records[1].bulk[1].global, 12u);
  EXPECT_EQ(replayed.records[1].bulk[1].text, "z < 3");
}

TEST(JournalTest, MissingAndEmptyFilesReplayEmpty) {
  FaultInjectingVfs vfs;
  const auto missing = CommandJournal::replay(vfs, "absent.wal");
  EXPECT_TRUE(missing.records.empty());
  EXPECT_FALSE(missing.torn_tail);

  {
    auto writer = vfs.open_truncate("empty.wal");
    writer->sync();
  }
  const auto empty = CommandJournal::replay(vfs, "empty.wal");
  EXPECT_TRUE(empty.records.empty());
}

TEST(JournalTest, TornTailReplaysCleanPrefixAtEveryCut) {
  FaultInjectingVfs vfs;
  const std::string path = "journal.wal";
  {
    CommandJournal journal(vfs, path, true);
    journal.open_for_append(CommandJournal::replay(vfs, path));
    journal.append(subscribe_record(1, 10, "x > 1"));
    journal.commit();
  }
  const std::string full = vfs.durable_contents(path);
  {
    CommandJournal journal(vfs, path, true);
    journal.open_for_append(CommandJournal::replay(vfs, path));
    journal.append(subscribe_record(2, 11, "y == 2"));
    journal.commit();
  }
  const std::string extended = vfs.durable_contents(path);
  ASSERT_GT(extended.size(), full.size());

  // Every possible torn cut of the second record loses exactly that record.
  for (std::size_t cut = full.size(); cut < extended.size(); ++cut) {
    vfs.set_durable_contents(path, extended.substr(0, cut));
    const auto replayed = CommandJournal::replay(vfs, path);
    EXPECT_EQ(replayed.torn_tail, cut != full.size())
        << "cut at " << cut;
    ASSERT_EQ(replayed.records.size(), 1u) << "cut at " << cut;
    EXPECT_EQ(replayed.records[0].seq, 1u);
    EXPECT_EQ(replayed.valid_bytes, full.size());
  }
}

TEST(JournalTest, OpenForAppendTruncatesTornTail) {
  FaultInjectingVfs vfs;
  const std::string path = "journal.wal";
  {
    CommandJournal journal(vfs, path, true);
    journal.open_for_append(CommandJournal::replay(vfs, path));
    journal.append(subscribe_record(1, 10, "x > 1"));
    journal.commit();
  }
  const std::string full = vfs.durable_contents(path);
  vfs.set_durable_contents(path, full + "\x22\x00\x00\x00garbage");

  CommandJournal journal(vfs, path, true);
  const auto replayed = CommandJournal::replay(vfs, path);
  EXPECT_TRUE(replayed.torn_tail);
  journal.open_for_append(replayed);
  journal.append(subscribe_record(2, 11, "y == 2"));
  journal.commit();

  // The garbage is gone and the new record parses after the old one.
  const auto after = CommandJournal::replay(vfs, path);
  EXPECT_FALSE(after.torn_tail);
  ASSERT_EQ(after.records.size(), 2u);
  EXPECT_EQ(after.records[1].seq, 2u);
}

TEST(JournalTest, SequenceRegressionIsHardCorruption) {
  FaultInjectingVfs vfs;
  const std::string path = "journal.wal";
  CommandJournal journal(vfs, path, true);
  journal.open_for_append(CommandJournal::replay(vfs, path));
  journal.append(subscribe_record(5, 10, "x > 1"));
  journal.append(subscribe_record(4, 11, "y == 2"));  // regresses
  journal.commit();
  EXPECT_THROW((void)CommandJournal::replay(vfs, path), StorageError);
}

TEST(JournalTest, ResetRestartsTheFile) {
  FaultInjectingVfs vfs;
  const std::string path = "journal.wal";
  CommandJournal journal(vfs, path, true);
  journal.open_for_append(CommandJournal::replay(vfs, path));
  journal.append(subscribe_record(1, 10, "x > 1"));
  journal.commit();
  journal.reset();
  const auto replayed = CommandJournal::replay(vfs, path);
  EXPECT_TRUE(replayed.records.empty());
  EXPECT_FALSE(replayed.torn_tail);
  // And appending after reset works (sequences keep increasing).
  journal.append(subscribe_record(2, 11, "y == 2"));
  journal.commit();
  EXPECT_EQ(CommandJournal::replay(vfs, path).records.size(), 1u);
}

TEST(SnapshotFileTest, WriteReadRoundTrip) {
  FaultInjectingVfs vfs;
  EXPECT_EQ(read_snapshot_payload(vfs, "dir"), std::nullopt);
  write_snapshot_file(vfs, "dir", "payload bytes");
  const auto payload = read_snapshot_payload(vfs, "dir");
  ASSERT_TRUE(payload.has_value());
  EXPECT_EQ(*payload, "payload bytes");
}

TEST(SnapshotFileTest, ReplaceIsAtomicUnderCrash) {
  FaultInjectingVfs vfs;
  write_snapshot_file(vfs, "dir", "old payload");
  // Crash at every boundary of the second write; the readable snapshot must
  // always be exactly the old or the new payload.
  const std::uint64_t before = vfs.boundary_count();
  write_snapshot_file(vfs, "dir", "new payload");
  const std::uint64_t per_write = vfs.boundary_count() - before;
  ASSERT_GE(per_write, 2u);

  for (std::uint64_t k = 1; k <= per_write; ++k) {
    FaultInjectingVfs fresh;
    write_snapshot_file(fresh, "dir", "old payload");
    fresh.crash_at_boundary(fresh.boundary_count() + k);
    EXPECT_THROW(write_snapshot_file(fresh, "dir", "new payload"),
                 SimulatedCrash);
    fresh.restart();
    const auto payload = read_snapshot_payload(fresh, "dir");
    ASSERT_TRUE(payload.has_value()) << "boundary " << k;
    EXPECT_TRUE(*payload == "old payload" || *payload == "new payload")
        << "boundary " << k << " read: " << *payload;
  }
}

TEST(SnapshotFileTest, CorruptFramingThrows) {
  FaultInjectingVfs vfs;
  write_snapshot_file(vfs, "dir", "payload bytes");
  const std::string path = snapshot_path("dir");
  const std::string good = vfs.durable_contents(path);

  // Flip one bit in each region: magic, version, checksum, length, payload.
  for (const std::size_t offset :
       {std::size_t{0}, std::size_t{9}, std::size_t{13}, std::size_t{17},
        good.size() - 1}) {
    std::string bad = good;
    bad[offset] = static_cast<char>(bad[offset] ^ 0x01);
    vfs.set_durable_contents(path, bad);
    EXPECT_THROW((void)read_snapshot_payload(vfs, "dir"), StorageError)
        << "offset " << offset;
  }
  // Truncations anywhere are also hard errors (a snapshot has no prefix).
  for (const std::size_t cut : {std::size_t{0}, std::size_t{4},
                                std::size_t{12}, good.size() - 1}) {
    if (cut == 0) continue;  // zero bytes = treated as absent is also fine
    vfs.set_durable_contents(path, good.substr(0, cut));
    EXPECT_THROW((void)read_snapshot_payload(vfs, "dir"), StorageError)
        << "cut " << cut;
  }
}

TEST(SnapshotFileTest, PriorSnapshotVersionsAreRejected) {
  // Version 1 payloads carried a forest identity-mode byte and per-
  // subscription child-order maps, version 2 payloads borrower/donor pairs;
  // a current broker must refuse both outright rather than misparse them.
  for (const std::uint32_t version : {1u, 2u}) {
    FaultInjectingVfs vfs;
    const std::string payload = "payload bytes";
    Writer file;
    file.raw("NCPSSNP1", 8);
    file.u32(version);
    file.u32(crc32(payload));
    file.u64(payload.size());
    file.raw(payload.data(), payload.size());
    vfs.create_directories("dir");
    vfs.set_durable_contents(snapshot_path("dir"), file.bytes());
    const std::string expected =
        "unsupported snapshot version " + std::to_string(version);
    try {
      (void)read_snapshot_payload(vfs, "dir");
      ADD_FAILURE() << "a version " << version << " snapshot was accepted";
    } catch (const StorageError& e) {
      EXPECT_NE(std::string(e.what()).find(expected), std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
}  // namespace ncps::storage
