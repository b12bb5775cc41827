#include "recovery/state_journal.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <unordered_map>
#include <vector>

#include "util/check.h"
#include "util/posix_io.h"
#include "util/wire.h"

namespace limoncello {

namespace {

// Upper bound on the size field accepted during replay: a corrupted size
// must not make the scanner index past the buffer or misinterpret
// gigabytes of garbage as one record.
constexpr std::uint32_t kMaxPayloadBytes = 4096;

// Reads the journal at `path` and walks its CRC-framed records. Each
// intact record of the current version goes to `decode`, which returns
// false for a payload that fails its own checks. Torn or corrupt data
// stops the scan (framing past it cannot be trusted); an intact record
// of another version is skipped. Never crashes on any input.
template <typename Decode>
void ScanJournal(const std::string& path, std::uint32_t magic,
                 std::uint32_t version, std::size_t payload_bytes,
                 JournalScan* scan, Decode decode) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return;  // no file: plain cold start
  scan->file_found = true;
  std::vector<unsigned char> data;
  unsigned char chunk[4096];
  for (;;) {
    const ssize_t n = ReadChunk(fd, chunk, sizeof(chunk));
    if (n < 0) {
      ++scan->corrupt_records;  // unreadable counts as corrupt
      (void)::close(fd);
      return;
    }
    if (n == 0) break;
    data.insert(data.end(), chunk, chunk + n);
  }
  (void)::close(fd);

  constexpr std::size_t kHeader = 12;  // magic | version | size
  std::size_t off = 0;
  while (off < data.size()) {
    const std::size_t remaining = data.size() - off;
    if (remaining < kHeader) {
      ++scan->torn_records;
      return;
    }
    if (LoadU32(&data[off]) != magic) {
      ++scan->corrupt_records;
      return;
    }
    const std::uint32_t record_version = LoadU32(&data[off + 4]);
    const std::uint32_t payload_size = LoadU32(&data[off + 8]);
    if (payload_size > kMaxPayloadBytes) {
      ++scan->corrupt_records;
      return;
    }
    if (remaining < kHeader + payload_size + 4) {
      ++scan->torn_records;
      return;
    }
    const std::uint32_t crc = Crc32(&data[off + 4], 8 + payload_size);
    if (crc != LoadU32(&data[off + kHeader + payload_size])) {
      ++scan->corrupt_records;
      return;
    }
    if (record_version == version && payload_size == payload_bytes) {
      if (!decode(&data[off + kHeader])) {
        ++scan->corrupt_records;
        return;
      }
      ++scan->valid_records;
    } else {
      ++scan->version_mismatches;  // intact frame from another binary
    }
    off += kHeader + payload_size + 4;
  }
}

}  // namespace

JournalFile::JournalFile(const std::string& path)
    : path_(path), tmp_path_(path + ".tmp") {
  LIMONCELLO_CHECK(!path.empty());
}

JournalFile::~JournalFile() {
  if (fd_ >= 0) (void)::close(fd_);
}

bool JournalFile::AppendBytes(const unsigned char* data, std::size_t size,
                              bool sync) {
  if (fd_ < 0) {
    // One open per journal lifetime (or per snapshot); the descriptor
    // is cached across appends.
    fd_ = ::open(  // limolint:allow(hot-path-blocking)
        path_.c_str(), O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC, 0644);
    if (fd_ < 0) return false;
  }
  if (!WriteFully(fd_, data, size)) return false;
  // The designed durability point: an append is not an append until it
  // is on stable storage.
  return !sync || ::fsync(fd_) == 0;  // limolint:allow(hot-path-blocking)
}

// limolint:cold-path — snapshots (compaction, shutdown) are a designed
// heavyweight rarity whose tmp+fsync+rename dance is the crash-safety
// mechanism itself.
bool JournalFile::ReplaceWith(const unsigned char* data, std::size_t size) {
  // The rename replaces the journal's inode; a kept-open append
  // descriptor would keep writing to the orphaned old file.
  if (fd_ >= 0) {
    (void)::close(fd_);
    fd_ = -1;
  }
  const int fd = ::open(tmp_path_.c_str(),
                        O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return false;
  bool ok = WriteFully(fd, data, size);
  // fsync before rename: the atomicity argument needs the new contents
  // durable before the new name points at them.
  ok = ::fsync(fd) == 0 && ok;
  ok = ::close(fd) == 0 && ok;
  return ok && std::rename(tmp_path_.c_str(), path_.c_str()) == 0;
}

void StateJournal::EncodeRecord(
    const LimoncelloDaemon::PersistentState& state, unsigned char* out) {
  StoreU32(out, kMagic);
  StoreU32(out + 4, kVersion);
  StoreU32(out + 8, static_cast<std::uint32_t>(kPayloadBytes));
  unsigned char* p = out + kHeaderBytes;
  p[0] = static_cast<unsigned char>(state.controller_state);
  p[1] = static_cast<unsigned char>(state.pending_retry);
  p[2] = state.have_last_sample ? 1 : 0;
  p[3] = 0;  // reserved
  StoreU64(p + 4, static_cast<std::uint64_t>(state.timer_ns));
  StoreU64(p + 12, state.toggle_count);
  StoreU64(p + 20, state.last_sample_bits);
  StoreU32(p + 28, static_cast<std::uint32_t>(state.retry_delay_ticks));
  StoreU32(p + 32, static_cast<std::uint32_t>(state.retry_wait_ticks));
  StoreU32(p + 36, static_cast<std::uint32_t>(state.consecutive_missed));
  StoreU32(p + 40, static_cast<std::uint32_t>(state.stale_run));
  const LimoncelloDaemon::Stats& s = state.stats;
  const std::uint64_t stats_fields[] = {
      s.ticks,           s.missed_samples,     s.invalid_samples,
      s.stale_samples,   s.failsafe_resets,    s.actuation_failures,
      s.retry_backoff_skips, s.reboots_detected, s.state_reasserts,
      s.disables,        s.enables,            s.warm_restores,
      s.recovery_reconciles};
  static_assert(sizeof(stats_fields) == 13 * sizeof(std::uint64_t));
  static_assert(kPayloadBytes == 44 + sizeof(stats_fields));
  for (std::size_t i = 0; i < 13; ++i) {
    StoreU64(p + 44 + 8 * i, stats_fields[i]);
  }
  // The CRC covers version + size + payload; the magic is the frame
  // sync, not data.
  const std::uint32_t crc = Crc32(out + 4, 8 + kPayloadBytes);
  StoreU32(out + kHeaderBytes + kPayloadBytes, crc);
}

bool StateJournal::DecodePayload(const unsigned char* p,
                                 LimoncelloDaemon::PersistentState* out) {
  if (p[3] != 0) return false;  // reserved byte must be zero in v1
  out->controller_state = static_cast<ControllerState>(p[0]);
  out->pending_retry = static_cast<ControllerAction>(p[1]);
  out->have_last_sample = p[2] != 0;
  out->timer_ns = static_cast<SimTimeNs>(LoadU64(p + 4));
  out->toggle_count = LoadU64(p + 12);
  out->last_sample_bits = LoadU64(p + 20);
  out->retry_delay_ticks = static_cast<int>(LoadU32(p + 28));
  out->retry_wait_ticks = static_cast<int>(LoadU32(p + 32));
  out->consecutive_missed = static_cast<int>(LoadU32(p + 36));
  out->stale_run = static_cast<int>(LoadU32(p + 40));
  LimoncelloDaemon::Stats& s = out->stats;
  SatCounter* stats_fields[] = {
      &s.ticks,           &s.missed_samples,     &s.invalid_samples,
      &s.stale_samples,   &s.failsafe_resets,    &s.actuation_failures,
      &s.retry_backoff_skips, &s.reboots_detected, &s.state_reasserts,
      &s.disables,        &s.enables,            &s.warm_restores,
      &s.recovery_reconciles};
  for (std::size_t i = 0; i < 13; ++i) {
    *stats_fields[i] = SatCounter(LoadU64(p + 44 + 8 * i));
  }
  return true;
}

StateJournal::StateJournal(const Options& options)
    : options_(options), file_(options.path) {
  LIMONCELLO_CHECK_GE(options.compact_every_appends, 1);
}

// limolint:hot-path — the journaled persistence path runs on every daemon
// tick; it must stay allocation-free (the designed ::write/::fsync pair is
// the one blocking exception, annotated at the call sites).
bool StateJournal::Append(
    const LimoncelloDaemon::PersistentState& state) {
  if (appends_since_compaction_ >= options_.compact_every_appends) {
    // Compaction folds the newest state in: the snapshot IS the record.
    return WriteSnapshot(state);
  }
  EncodeRecord(state, scratch_.data());
  if (!file_.AppendBytes(scratch_.data(), kRecordBytes,
                         options_.fsync_each_append)) {
    ++stats_.io_errors;
    return false;
  }
  ++stats_.appends;
  ++appends_since_compaction_;
  return true;
}

// limolint:cold-path — compaction: one snapshot per compact_every_appends
// appends (or shutdown).
bool StateJournal::WriteSnapshot(
    const LimoncelloDaemon::PersistentState& state) {
  EncodeRecord(state, scratch_.data());
  if (!file_.ReplaceWith(scratch_.data(), kRecordBytes)) {
    ++stats_.io_errors;
    return false;
  }
  ++stats_.compactions;
  appends_since_compaction_ = 0;
  return true;
}

JournalReplay StateJournal::Replay(const std::string& path) {
  JournalReplay replay;
  ScanJournal(path, kMagic, kVersion, kPayloadBytes, &replay,
              [&replay](const unsigned char* payload) {
                LimoncelloDaemon::PersistentState state;
                if (!DecodePayload(payload, &state)) return false;
                replay.state = state;
                return true;
              });
  return replay;
}

void EndpointStateJournal::EncodeRecord(
    const EndpointPersistentState& state, unsigned char* out) {
  StoreU32(out, kMagic);
  StoreU32(out + 4, kVersion);
  StoreU32(out + 8, static_cast<std::uint32_t>(kPayloadBytes));
  unsigned char* p = out + kHeaderBytes;
  StoreU32(p, state.endpoint_id);
  StoreU32(p + 4, static_cast<std::uint32_t>(state.controller_state));
  StoreU64(p + 8, static_cast<std::uint64_t>(state.timer_ns));
  StoreU64(p + 16, state.toggle_count);
  std::uint32_t flags = 0;
  if (state.intent_enabled) flags |= 1u;
  if (state.force_active) flags |= 2u;
  if (state.force_enabled) flags |= 4u;
  if (state.have_sequence) flags |= 8u;
  StoreU32(p + 24, flags);
  StoreU64(p + 28, state.last_sequence);
  StoreU64(p + 36, state.last_update_tick);
  const std::uint32_t crc = Crc32(out + 4, 8 + kPayloadBytes);
  StoreU32(out + kHeaderBytes + kPayloadBytes, crc);
}

bool EndpointStateJournal::DecodePayload(const unsigned char* p,
                                         EndpointPersistentState* out) {
  const std::uint32_t flags = LoadU32(p + 24);
  if ((flags & ~0xFu) != 0) return false;  // reserved bits must be zero
  out->endpoint_id = LoadU32(p);
  out->controller_state = static_cast<ControllerState>(LoadU32(p + 4));
  out->timer_ns = static_cast<SimTimeNs>(LoadU64(p + 8));
  out->toggle_count = LoadU64(p + 16);
  out->intent_enabled = (flags & 1u) != 0;
  out->force_active = (flags & 2u) != 0;
  out->force_enabled = (flags & 4u) != 0;
  out->have_sequence = (flags & 8u) != 0;
  out->last_sequence = LoadU64(p + 28);
  out->last_update_tick = LoadU64(p + 36);
  return true;
}

EndpointStateJournal::EndpointStateJournal(const Options& options)
    : fsync_each_append_(options.fsync_each_append), file_(options.path) {}

bool EndpointStateJournal::Append(const EndpointPersistentState& state) {
  EncodeRecord(state, scratch_.data());
  if (!file_.AppendBytes(scratch_.data(), kRecordBytes,
                         fsync_each_append_)) {
    ++stats_.io_errors;
    return false;
  }
  ++stats_.appends;
  return true;
}

// limolint:cold-path — caller-driven compaction on the snapshot cadence.
bool EndpointStateJournal::WriteSnapshot(
    const std::vector<EndpointPersistentState>& states) {
  std::vector<unsigned char> bytes(states.size() * kRecordBytes);
  for (std::size_t i = 0; i < states.size(); ++i) {
    EncodeRecord(states[i], bytes.data() + i * kRecordBytes);
  }
  if (!file_.ReplaceWith(bytes.data(), bytes.size())) {
    ++stats_.io_errors;
    return false;
  }
  ++stats_.snapshots;
  return true;
}

EndpointJournalReplay EndpointStateJournal::Replay(
    const std::string& path) {
  EndpointJournalReplay replay;
  // Newest valid record per endpoint: later records in the file
  // supersede earlier ones (appends land after the snapshot base).
  std::unordered_map<std::uint32_t, EndpointPersistentState> newest;
  ScanJournal(path, kMagic, kVersion, kPayloadBytes, &replay,
              [&newest](const unsigned char* payload) {
                EndpointPersistentState state;
                if (!DecodePayload(payload, &state)) return false;
                newest[state.endpoint_id] = state;
                return true;
              });
  replay.states.reserve(newest.size());
  for (const auto& [id, state] : newest) replay.states.push_back(state);
  std::sort(replay.states.begin(), replay.states.end(),
            [](const EndpointPersistentState& a,
               const EndpointPersistentState& b) {
              return a.endpoint_id < b.endpoint_id;
            });
  return replay;
}

}  // namespace limoncello
