#include "obs/recorder.h"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>

#include "obs/obs.h"

namespace edgerep::obs {

namespace {

constexpr char kMagic[8] = {'E', 'D', 'G', 'E', 'R', 'E', 'P', 'J'};

/// The ring capacity an EDGEREP_RECORD suffix after "ring" names: "" for
/// the default, ":N" for N in [1, kMaxRingCapacity]; 0 for anything else.
std::size_t parse_ring_suffix(const char* suffix) {
  if (suffix[0] == '\0') return kDefaultRingCapacity;
  if (suffix[0] != ':') return 0;
  const char* end = suffix + std::strlen(suffix);
  std::size_t n = 0;
  const auto [ptr, ec] = std::from_chars(suffix + 1, end, n);
  return ec == std::errc() && ptr == end && n <= kMaxRingCapacity ? n : 0;
}

}  // namespace

const char* to_string(RecordKind kind) noexcept {
  switch (kind) {
    case RecordKind::kArrival:
      return "arrival";
    case RecordKind::kTransferStart:
      return "transfer_start";
    case RecordKind::kRelocate:
      return "relocate";
    case RecordKind::kComputeDone:
      return "compute_done";
    case RecordKind::kReject:
      return "reject";
    case RecordKind::kShed:
      return "shed";
    case RecordKind::kFail:
      return "fail";
    case RecordKind::kFaultApply:
      return "fault_apply";
    case RecordKind::kEpochBegin:
      return "epoch_begin";
    case RecordKind::kIntent:
      return "intent";
    case RecordKind::kCommit:
      return "commit";
    case RecordKind::kConflict:
      return "conflict";
    case RecordKind::kRequeue:
      return "requeue";
    case RecordKind::kStreamReject:
      return "stream_reject";
    case RecordKind::kFlowRateChange:
      return "flow_rate_change";
    case RecordKind::kAlert:
      return "alert";
  }
  return "unknown";
}

void Recorder::configure(RecorderMode mode, std::size_t ring_capacity) {
  if (mode == RecorderMode::kRing && ring_capacity > kMaxRingCapacity) {
    throw std::invalid_argument(
        "Recorder::configure: ring capacity " +
        std::to_string(ring_capacity) + " exceeds " +
        std::to_string(kMaxRingCapacity) + " records");
  }
  mode_ = mode;
  buf_.clear();
  ring_head_ = 0;
  retained_ = 0;
  appended_ = 0;
  dropped_ = 0;
  if (mode_ == RecorderMode::kRing) {
    if (ring_capacity == 0) ring_capacity = 1;
    buf_.resize(ring_capacity);
  } else {
    buf_.shrink_to_fit();
  }
}

void Recorder::clear() noexcept {
  if (mode_ == RecorderMode::kFull) buf_.clear();
  ring_head_ = 0;
  retained_ = 0;
  appended_ = 0;
  dropped_ = 0;
}

void Recorder::reserve(std::size_t records) {
  if (mode_ == RecorderMode::kFull) buf_.reserve(records);
}

std::vector<JournalRecord> Recorder::snapshot() const {
  std::vector<JournalRecord> out;
  out.reserve(size());
  if (mode_ == RecorderMode::kRing && retained_ == buf_.size()) {
    // Full ring: oldest record sits at the next write position.
    out.insert(out.end(), buf_.begin() + static_cast<std::ptrdiff_t>(ring_head_),
               buf_.end());
    out.insert(out.end(), buf_.begin(),
               buf_.begin() + static_cast<std::ptrdiff_t>(ring_head_));
  } else {
    out.insert(out.end(), buf_.begin(),
               buf_.begin() + static_cast<std::ptrdiff_t>(size()));
  }
  return out;
}

void Recorder::write(std::ostream& out) const {
  JournalHeader header{};
  std::memcpy(header.magic, kMagic, sizeof(kMagic));
  header.version = kJournalVersion;
  header.record_size = sizeof(JournalRecord);
  header.appended = total_appended();
  header.retained = size();
  header.dropped = dropped();
  header.mode = static_cast<std::uint8_t>(mode_);
  out.write(reinterpret_cast<const char*>(&header), sizeof(header));
  auto write_range = [&out](const JournalRecord* first, std::size_t n) {
    if (n > 0) {
      out.write(reinterpret_cast<const char*>(first),
                static_cast<std::streamsize>(n * sizeof(JournalRecord)));
    }
  };
  if (mode_ == RecorderMode::kRing && retained_ == buf_.size()) {
    write_range(buf_.data() + ring_head_, buf_.size() - ring_head_);
    write_range(buf_.data(), ring_head_);
  } else {
    write_range(buf_.data(), size());
  }
}

bool Recorder::write_file(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  write(out);
  out.flush();
  return static_cast<bool>(out);
}

Recorder& recorder() {
  static Recorder instance;
  return instance;
}

bool read_journal(std::istream& in, Journal* out, std::string* error) {
  auto fail = [error](const char* msg) {
    if (error != nullptr) *error = msg;
    return false;
  };
  JournalHeader header{};
  in.read(reinterpret_cast<char*>(&header), sizeof(header));
  if (!in) return fail("journal truncated before header");
  if (std::memcmp(header.magic, kMagic, sizeof(kMagic)) != 0) {
    return fail("bad journal magic");
  }
  if (header.version != kJournalVersion) return fail("unknown journal version");
  if (header.record_size != sizeof(JournalRecord)) {
    return fail("journal record size mismatch");
  }
  out->header = header;
  out->records.clear();
  // A hostile header must not size a multi-GB vector: check the claimed
  // count against the bytes left in a seekable stream, and read any other
  // stream in bounded chunks, so memory tracks the input either way.
  std::uint64_t chunk = std::uint64_t{1} << 16;  // records per read
  const std::streampos here = in.tellg();
  if (here != std::streampos(-1)) {
    in.seekg(0, std::ios::end);
    const std::streampos end = in.tellg();
    in.seekg(here);
    if (!in || end < here ||
        header.retained >
            static_cast<std::uint64_t>(end - here) / sizeof(JournalRecord)) {
      return fail("journal truncated mid-records");
    }
    chunk = header.retained;
  }
  for (std::uint64_t done = 0; done < header.retained;) {
    const std::uint64_t n = std::min(chunk, header.retained - done);
    out->records.resize(done + n);
    in.read(reinterpret_cast<char*>(out->records.data() + done),
            static_cast<std::streamsize>(n * sizeof(JournalRecord)));
    if (!in) return fail("journal truncated mid-records");
    done += n;
  }
  return true;
}

bool read_journal_file(const std::string& path, Journal* out,
                       std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (error != nullptr) *error = "cannot open " + path;
    return false;
  }
  return read_journal(in, out, error);
}

namespace detail {

// Called from obs::init_from_env(): parse EDGEREP_RECORD and reset the
// process recorder to the environment default (off, full mode, empty).
void recorder_apply_env() {
  const char* v = std::getenv("EDGEREP_RECORD");
  set_recorder_enabled(false);
  recorder().configure(RecorderMode::kFull);
  if (v == nullptr || v[0] == '\0' || (v[0] == '0' && v[1] == '\0')) return;
  if (std::strncmp(v, "ring", 4) == 0) {
    const std::size_t capacity = parse_ring_suffix(v + 4);
    if (capacity == 0) {
      std::fprintf(stderr,
                   "warning: EDGEREP_RECORD=%s: expected ring or ring:N "
                   "with N in [1, %zu]; recorder left off\n",
                   v, kMaxRingCapacity);
      return;
    }
    recorder().configure(RecorderMode::kRing, capacity);
  }
  set_recorder_enabled(true);
}

}  // namespace detail

}  // namespace edgerep::obs
