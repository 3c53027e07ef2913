#include "storage/snapshot.h"

#include "common/checksum.h"
#include "storage/serializer.h"

namespace ncps::storage {

namespace {

constexpr std::string_view kSnapshotMagic = "NCPSSNP1";
// Version 2: forest snapshots store AND/OR children in canonical order only,
// so the forest identity-mode byte and the per-subscription child-order maps
// of version 1 are gone. Version 3: the engine no longer writes
// borrower/donor pairs after its subscription records.
constexpr std::uint32_t kSnapshotVersion = 3;

}  // namespace

std::string snapshot_path(const std::string& directory) {
  return directory + "/snapshot.ncps";
}

std::string snapshot_tmp_path(const std::string& directory) {
  return directory + "/snapshot.tmp";
}

std::string journal_path(const std::string& directory) {
  return directory + "/journal.wal";
}

void write_snapshot_file(Vfs& vfs, const std::string& directory,
                         const std::string& payload) {
  Writer header;
  header.raw(kSnapshotMagic.data(), kSnapshotMagic.size());
  header.u32(kSnapshotVersion);
  header.u32(crc32(payload));
  header.u64(payload.size());

  const std::string tmp = snapshot_tmp_path(directory);
  const auto writer = vfs.open_truncate(tmp);
  writer->append(header.bytes());
  writer->append(payload);
  writer->sync();
  vfs.rename(tmp, snapshot_path(directory));
}

std::optional<std::string> read_snapshot_payload(Vfs& vfs,
                                                 const std::string& directory) {
  const std::optional<std::string> contents =
      vfs.read_file(snapshot_path(directory));
  if (!contents.has_value()) return std::nullopt;
  Reader reader{std::string_view(*contents)};
  if (reader.remaining() < kSnapshotMagic.size() + 16) {
    throw StorageError("snapshot file too short");
  }
  if (reader.view(kSnapshotMagic.size()) != kSnapshotMagic) {
    throw StorageError("snapshot magic mismatch");
  }
  const std::uint32_t version = reader.u32();
  if (version != kSnapshotVersion) {
    throw StorageError("unsupported snapshot version " +
                       std::to_string(version));
  }
  const std::uint32_t stored_crc = reader.u32();
  const std::uint64_t len = reader.u64();
  if (len != reader.remaining()) {
    throw StorageError("snapshot length mismatch: header says " +
                       std::to_string(len) + ", file has " +
                       std::to_string(reader.remaining()));
  }
  const std::string_view payload = reader.view(len);
  if (crc32(payload) != stored_crc) {
    throw StorageError("snapshot checksum mismatch");
  }
  return std::string(payload);
}

}  // namespace ncps::storage
