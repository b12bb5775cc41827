// Crash-safe persistence for the controller daemon's state.
//
// A StateJournal is an append-only file of CRC32-protected, versioned
// records, each one a full LimoncelloDaemon::PersistentState snapshot.
// Appends are cheap (one write(2) of a fixed-size record from a
// preallocated buffer — the steady-state path never allocates); the
// durability point is the atomic snapshot: serialize to a temp file,
// fsync, rename over the journal. rename(2) is atomic on POSIX, so a
// reader sees either the old journal or the new one, never a half-
// written file. Periodic compaction (every compact_every_appends
// appends) rewrites the journal down to its single newest record via
// the same snapshot path, bounding both file size and replay time.
//
// Replay walks the records front to back and keeps the last fully valid
// one. Anything wrong — a torn tail from a crash mid-append, a record
// whose CRC fails, a version from a different binary, a size field
// pointing past the file — is counted and the scan degrades safely:
// torn/corrupt data stops the scan (framing past it cannot be trusted),
// while a version mismatch with an intact CRC skips just that record.
// Replay never crashes on any input; the worst outcome is "no state",
// which callers treat as a cold start.
#ifndef LIMONCELLO_RECOVERY_STATE_JOURNAL_H_
#define LIMONCELLO_RECOVERY_STATE_JOURNAL_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "control/control_plane.h"
#include "core/daemon.h"
#include "stats/saturating.h"
#include "util/crc32.h"

namespace limoncello {

// What a replay scan met, for both journal formats.
struct JournalScan {
  std::uint64_t valid_records = 0;
  std::uint64_t version_mismatches = 0;  // intact frame, foreign version
  std::uint64_t corrupt_records = 0;     // bad magic/size/CRC: scan stops
  std::uint64_t torn_records = 0;        // file ends mid-record
  bool file_found = false;

  bool Clean() const {
    return version_mismatches == 0 && corrupt_records == 0 &&
           torn_records == 0;
  }
};

// Outcome of replaying a journal file.
struct JournalReplay : JournalScan {
  // The newest record that framed, checksummed, and decoded cleanly.
  std::optional<LimoncelloDaemon::PersistentState> state;
};

// The file discipline both journals share: records appended through a
// descriptor opened once and cached, and atomic replacement by temp
// file + fsync + rename(2), so a reader sees the old file or the new
// one, never a half-written one.
class JournalFile {
 public:
  explicit JournalFile(const std::string& path);
  ~JournalFile();

  JournalFile(const JournalFile&) = delete;
  JournalFile& operator=(const JournalFile&) = delete;

  // Appends `size` bytes, then fsync(2)s when asked. False on IO failure.
  bool AppendBytes(const unsigned char* data, std::size_t size, bool sync);
  // Atomically replaces the whole file with `size` bytes.
  bool ReplaceWith(const unsigned char* data, std::size_t size);

  const std::string& path() const { return path_; }

 private:
  std::string path_;
  std::string tmp_path_;  // precomputed: path_ + ".tmp"
  int fd_ = -1;           // append descriptor, opened lazily
};

class StateJournal {
 public:
  // On-disk framing constants (also used by tests to build fixtures).
  static constexpr std::uint32_t kMagic = 0x4C4D4A31;  // "LMJ1"
  static constexpr std::uint32_t kVersion = 1;
  static constexpr std::size_t kHeaderBytes = 12;  // magic|version|size
  static constexpr std::size_t kPayloadBytes = 148;
  static constexpr std::size_t kRecordBytes =
      kHeaderBytes + kPayloadBytes + 4 /* CRC */;

  struct Options {
    std::string path;
    // Rewrite the journal down to one record every this many appends
    // (bounds file growth and replay time). Must be >= 1.
    int compact_every_appends = 64;
    // fsync(2) after every append. Off by default: the atomic-rename
    // snapshot is the durability point, and a torn append tail is
    // recovered by replay — per-append fsync buys little and costs a
    // device flush on the tick path.
    bool fsync_each_append = false;
  };

  struct Stats {
    SatCounter appends;
    SatCounter compactions;
    SatCounter io_errors;
  };

  explicit StateJournal(const Options& options);

  StateJournal(const StateJournal&) = delete;
  StateJournal& operator=(const StateJournal&) = delete;

  // Appends one record, compacting first when the period is due.
  // Zero-allocation: serializes into a fixed member buffer and writes to
  // the kept-open descriptor. Returns false on IO failure (counted in
  // stats; the journal keeps trying on later calls).
  bool Append(const LimoncelloDaemon::PersistentState& state);

  // Atomically replaces the journal with a single record of `state`:
  // write temp + fsync + rename. This is the graceful-shutdown flush and
  // the compaction mechanism.
  bool WriteSnapshot(const LimoncelloDaemon::PersistentState& state);

  // Replays the journal at `path`. Tolerates every malformed input
  // (missing, empty, torn, corrupt, truncated, foreign-versioned) —
  // failures are reported in the result, never thrown or crashed on.
  static JournalReplay Replay(const std::string& path);

  const Stats& stats() const { return stats_; }
  const std::string& path() const { return file_.path(); }

  // Serialization of one full record into/out of a buffer of at least
  // kRecordBytes. Exposed for tests that hand-craft corrupt files.
  static void EncodeRecord(const LimoncelloDaemon::PersistentState& state,
                           unsigned char* out);
  static bool DecodePayload(const unsigned char* payload,
                            LimoncelloDaemon::PersistentState* out);

 private:
  Options options_;
  JournalFile file_;
  int appends_since_compaction_ = 0;
  Stats stats_;
  // Scratch for Append/WriteSnapshot so the hot path never allocates.
  std::array<unsigned char, kRecordBytes> scratch_{};
};

// Outcome of replaying a per-endpoint control-plane journal.
struct EndpointJournalReplay : JournalScan {
  // Newest fully valid record per endpoint, ascending endpoint id.
  std::vector<EndpointPersistentState> states;
};

// Crash-safe persistence for the sharded control plane: the same framing
// discipline as StateJournal (CRC-protected fixed records, torn-tail
// tolerant replay, atomic snapshot-by-rename), but the unit of record is
// one endpoint's committed state. A record is appended whenever an
// endpoint's decision state changes (ControlPlane::CollectDirtyEndpoints
// feeds this); replay keeps the newest valid record per endpoint, so a
// warm restart recovers every endpoint's last committed decision.
//
// Unlike StateJournal there is no automatic compaction: folding the
// journal down needs the whole fleet's state, which only the caller has.
// The control loop bounds growth by calling WriteSnapshot with
// ControlPlane::ExportAllEndpoints() on its snapshot cadence.
class EndpointStateJournal {
 public:
  static constexpr std::uint32_t kMagic = 0x4C454A31;  // "LEJ1"
  static constexpr std::uint32_t kVersion = 1;
  static constexpr std::size_t kHeaderBytes = 12;  // magic|version|size
  static constexpr std::size_t kPayloadBytes = 44;
  static constexpr std::size_t kRecordBytes =
      kHeaderBytes + kPayloadBytes + 4 /* CRC */;

  struct Options {
    std::string path;
    bool fsync_each_append = false;
  };

  struct Stats {
    SatCounter appends;
    SatCounter snapshots;
    SatCounter io_errors;
  };

  explicit EndpointStateJournal(const Options& options);

  EndpointStateJournal(const EndpointStateJournal&) = delete;
  EndpointStateJournal& operator=(const EndpointStateJournal&) = delete;

  // Appends one endpoint record. Zero-allocation (fixed scratch buffer,
  // cached descriptor). Returns false on IO failure (counted).
  bool Append(const EndpointPersistentState& state);

  // Atomically replaces the journal with one record per entry of
  // `states`: write temp + fsync + rename. Shutdown flush and the
  // caller-driven compaction mechanism.
  bool WriteSnapshot(const std::vector<EndpointPersistentState>& states);

  // Replays the journal at `path`, tolerating every malformed input.
  // Later records supersede earlier ones for the same endpoint.
  static EndpointJournalReplay Replay(const std::string& path);

  const Stats& stats() const { return stats_; }
  const std::string& path() const { return file_.path(); }

  // One-record (de)serialization, exposed for corruption fixtures.
  // DecodePayload validates flag bits; field-level validation against
  // FSM invariants happens in ControlPlane::RestoreEndpoints.
  static void EncodeRecord(const EndpointPersistentState& state,
                           unsigned char* out);
  static bool DecodePayload(const unsigned char* payload,
                            EndpointPersistentState* out);

 private:
  bool fsync_each_append_;
  JournalFile file_;
  Stats stats_;
  std::array<unsigned char, kRecordBytes> scratch_{};
};

}  // namespace limoncello

#endif  // LIMONCELLO_RECOVERY_STATE_JOURNAL_H_
