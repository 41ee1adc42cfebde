#include "exec_oop/exec_protocol.hpp"

#include <poll.h>
#include <signal.h>
#include <sys/uio.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "exec_oop/futex_sync.hpp"

namespace icsfuzz::oop {

namespace {

// Aux block fixed header (little-endian native; both sides are the same
// machine by construction):
//   u32 magic  u32 fault_count  u64 events  u32 response_len  u32 flags
// followed by fault_count * { u8 kind, u32 site, u32 detail_len, detail }
// and then response_len response bytes.
constexpr std::size_t kMagicOff = 0;
constexpr std::size_t kFaultCountOff = 4;
constexpr std::size_t kEventsOff = 8;
constexpr std::size_t kResponseLenOff = 16;
constexpr std::size_t kFlagsOff = 20;
constexpr std::size_t kPayloadOff = 24;
constexpr std::uint32_t kFlagResponseTruncated = 1u << 0;
constexpr std::uint32_t kFlagFaultsTruncated = 1u << 1;

template <typename T>
void store(std::uint8_t* base, std::size_t offset, T value) {
  std::memcpy(base + offset, &value, sizeof(T));
}

template <typename T>
T load(const std::uint8_t* base, std::size_t offset) {
  T value;
  std::memcpy(&value, base + offset, sizeof(T));
  return value;
}

}  // namespace

void aux_store(std::uint8_t* aux, std::size_t aux_size,
               const AuxResult& result) {
  store<std::uint32_t>(aux, kMagicOff, 0);  // not complete while writing
  store<std::uint64_t>(aux, kEventsOff, result.events);

  std::size_t cursor = kPayloadOff;
  std::uint32_t stored_faults = 0;
  std::uint32_t flags = 0;
  for (const san::FaultReport& fault : result.faults) {
    // Fault reports are short (a kind, a site, one diagnostic line); a
    // pathological stream that overflows the block clamps detail strings
    // first and drops whole reports last — either way the truncation flag
    // travels, so the parent knows the list is incomplete instead of
    // silently under-reporting.
    const std::size_t head = 1 + 4 + 4;
    if (cursor + head > aux_size) {
      flags |= kFlagFaultsTruncated;
      break;
    }
    std::size_t detail_len = fault.detail.size();
    if (cursor + head + detail_len > aux_size) {
      detail_len = aux_size - cursor - head;
      flags |= kFlagFaultsTruncated;
    }
    store<std::uint8_t>(aux, cursor, static_cast<std::uint8_t>(fault.kind));
    store<std::uint32_t>(aux, cursor + 1, fault.site);
    store<std::uint32_t>(aux, cursor + 5,
                         static_cast<std::uint32_t>(detail_len));
    std::memcpy(aux + cursor + head, fault.detail.data(), detail_len);
    cursor += head + detail_len;
    ++stored_faults;
  }
  store<std::uint32_t>(aux, kFaultCountOff, stored_faults);

  std::size_t response_len = result.response.size();
  if (cursor + response_len > aux_size) {
    response_len = aux_size - cursor;
    flags |= kFlagResponseTruncated;
  }
  if (response_len != 0) {
    std::memcpy(aux + cursor, result.response.data(), response_len);
  }
  store<std::uint32_t>(aux, kResponseLenOff,
                       static_cast<std::uint32_t>(response_len));
  store<std::uint32_t>(aux, kFlagsOff, flags);

  // Publish: everything above must be visible before the magic.
  std::atomic_thread_fence(std::memory_order_release);
  store<std::uint32_t>(aux, kMagicOff, kAuxCompleteMagic);
}

bool aux_load(const std::uint8_t* aux, std::size_t aux_size, AuxResult& out) {
  out.events = 0;
  out.faults.clear();
  out.response.clear();
  out.response_truncated = false;
  out.faults_truncated = false;
  if (load<std::uint32_t>(aux, kMagicOff) != kAuxCompleteMagic) return false;
  std::atomic_thread_fence(std::memory_order_acquire);

  out.events = load<std::uint64_t>(aux, kEventsOff);
  const std::uint32_t fault_count = load<std::uint32_t>(aux, kFaultCountOff);
  const std::uint32_t response_len =
      load<std::uint32_t>(aux, kResponseLenOff);
  const std::uint32_t flags = load<std::uint32_t>(aux, kFlagsOff);
  out.response_truncated = (flags & kFlagResponseTruncated) != 0;
  out.faults_truncated = (flags & kFlagFaultsTruncated) != 0;

  std::size_t cursor = kPayloadOff;
  for (std::uint32_t i = 0; i < fault_count; ++i) {
    if (cursor + 9 > aux_size) return false;  // corrupt block
    // The block was written after an arbitrary target ran: a kind byte
    // outside the enum is corruption, not a fault to record.
    const std::uint8_t kind = load<std::uint8_t>(aux, cursor);
    if (kind > static_cast<std::uint8_t>(san::FaultKind::Hang)) return false;
    san::FaultReport fault;
    fault.kind = static_cast<san::FaultKind>(kind);
    fault.site = load<std::uint32_t>(aux, cursor + 1);
    const std::uint32_t detail_len = load<std::uint32_t>(aux, cursor + 5);
    if (cursor + 9 + detail_len > aux_size) return false;
    fault.detail.assign(reinterpret_cast<const char*>(aux + cursor + 9),
                        detail_len);
    cursor += 9 + detail_len;
    out.faults.push_back(std::move(fault));
  }
  if (cursor + response_len > aux_size) return false;
  out.response.assign(aux + cursor, aux + cursor + response_len);
  return true;
}

// Slot test-case buffer header: [u32 len][u32 reserved][u64 exec_index].
constexpr std::size_t kSlotHeaderBytes = 16;

bool slot_store_packet(std::uint8_t* segment, std::uint32_t slot,
                       ByteSpan packet) {
  if (packet.size() > kSlotTestCaseBytes - kSlotHeaderBytes) return false;
  std::uint8_t* buffer = segment + slot_offset(slot) + kSlotTestCaseOffset;
  store<std::uint32_t>(buffer, 0, static_cast<std::uint32_t>(packet.size()));
  if (!packet.empty()) {
    std::memcpy(buffer + kSlotHeaderBytes, packet.data(), packet.size());
  }
  return true;
}

ByteSpan slot_load_packet(const std::uint8_t* segment, std::uint32_t slot) {
  const std::uint8_t* buffer =
      segment + slot_offset(slot) + kSlotTestCaseOffset;
  std::uint32_t length = load<std::uint32_t>(buffer, 0);
  if (length > kSlotTestCaseBytes - kSlotHeaderBytes) length = 0;  // corrupt
  return ByteSpan(buffer + kSlotHeaderBytes, length);
}

void slot_prepare_request(std::uint8_t* segment, std::uint32_t slot,
                          std::uint64_t exec_index) {
  std::uint8_t* base = segment + slot_offset(slot);
  store<std::uint64_t>(base + kSlotTestCaseOffset, 8, exec_index);
  store<std::uint32_t>(base + kSlotAuxOffset, kMagicOff, 0);
}

std::uint64_t slot_load_exec_index(const std::uint8_t* segment,
                                   std::uint32_t slot) {
  return load<std::uint64_t>(segment + slot_offset(slot) + kSlotTestCaseOffset,
                             8);
}

void end_record_publish(std::uint8_t* segment, const EndRecord& record) {
  std::uint8_t* block = sync_field(segment, kSyncEndRecord);
  store<std::int32_t>(block, 4, record.wstatus);
  store<std::uint32_t>(block, 8, record.flags);
  std::atomic_ref<std::uint32_t>(*reinterpret_cast<std::uint32_t*>(block))
      .store(record.generation, std::memory_order_release);
  futex::bump(sync_field(segment, kSyncEvent));
}

EndRecord end_record_load(std::uint8_t* segment) {
  std::uint8_t* block = sync_field(segment, kSyncEndRecord);
  EndRecord record;
  record.generation =
      std::atomic_ref<std::uint32_t>(*reinterpret_cast<std::uint32_t*>(block))
          .load(std::memory_order_acquire);
  record.wstatus = load<std::int32_t>(block, 4);
  record.flags = load<std::uint32_t>(block, 8);
  return record;
}

bool write_full(int fd, const void* data, std::size_t size) {
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  std::size_t written = 0;
  while (written < size) {
    const ssize_t n = ::write(fd, bytes + written, size - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    written += static_cast<std::size_t>(n);
  }
  return true;
}

void ignore_sigpipe_once() {
  static const bool done = [] {
    struct sigaction action {};
    action.sa_handler = SIG_IGN;
    ::sigaction(SIGPIPE, &action, nullptr);
    return true;
  }();
  (void)done;
}

bool read_full(int fd, void* data, std::size_t size) {
  auto* bytes = static_cast<std::uint8_t*>(data);
  std::size_t got = 0;
  while (got < size) {
    const ssize_t n = ::read(fd, bytes + got, size - got);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return false;  // EOF
    got += static_cast<std::size_t>(n);
  }
  return true;
}

namespace {

/// Shared poll-then-transfer loop behind the deadline-aware exact read and
/// write. `events` is POLLIN or POLLOUT; `transfer` performs one
/// read/write step and reports bytes moved (0 = peer closed for reads;
/// writes report closure via -1/EPIPE).
template <typename Transfer>
ReadStatus full_io_deadline(int fd, std::size_t size, int timeout_ms,
                            short events, Transfer transfer) {
  using Clock = std::chrono::steady_clock;
  const bool unbounded = timeout_ms < 0;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(unbounded ? 0 : timeout_ms);
  std::size_t done = 0;
  while (done < size) {
    int wait_ms = -1;
    if (!unbounded) {
      const auto remaining =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              deadline - Clock::now());
      if (remaining.count() <= 0) return ReadStatus::kTimeout;
      wait_ms = static_cast<int>(remaining.count()) + 1;
    }
    struct pollfd pfd = {fd, events, 0};
    const int ready = ::poll(&pfd, 1, wait_ms);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return ReadStatus::kClosed;
    }
    if (ready == 0) return ReadStatus::kTimeout;
    const ssize_t n = transfer(done);
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) {
        continue;
      }
      return ReadStatus::kClosed;
    }
    if (n == 0 && events == POLLIN) return ReadStatus::kClosed;  // EOF
    done += static_cast<std::size_t>(n);
  }
  return ReadStatus::kOk;
}

}  // namespace

ReadStatus read_full_deadline(int fd, void* data, std::size_t size,
                              int timeout_ms) {
  auto* bytes = static_cast<std::uint8_t*>(data);
  return full_io_deadline(fd, size, timeout_ms, POLLIN,
                          [fd, bytes, size](std::size_t done) {
                            return ::read(fd, bytes + done, size - done);
                          });
}

namespace {

/// write_full_deadline over `head` followed by `body`, gathered into one
/// writev per pipe-buffer's worth.
ReadStatus write_full_deadline(int fd, ByteSpan head, ByteSpan body,
                               int timeout_ms) {
  return full_io_deadline(
      fd, head.size() + body.size(), timeout_ms, POLLOUT,
      [fd, head, body](std::size_t done) {
        struct iovec iov[2];
        int count = 0;
        if (done < head.size()) {
          iov[count++] = {const_cast<std::uint8_t*>(head.data()) + done,
                          head.size() - done};
          done = 0;
        } else {
          done -= head.size();
        }
        if (done < body.size()) {
          iov[count++] = {const_cast<std::uint8_t*>(body.data()) + done,
                          body.size() - done};
        }
        return ::writev(fd, iov, count);
      });
}

// Request [u32 timeout][u32 control][u32 len]; reply [i32 wstatus]
// [u32 flags].
constexpr std::size_t kRequestBytes = 12;
constexpr std::size_t kReplyBytes = 8;

}  // namespace

ReadStatus write_full_deadline(int fd, const void* data, std::size_t size,
                               int timeout_ms) {
  return write_full_deadline(
      fd, ByteSpan(static_cast<const std::uint8_t*>(data), size), {},
      timeout_ms);
}

ReadStatus write_request(int fd, std::uint32_t timeout_ms,
                         std::uint32_t control, ByteSpan packet,
                         int io_timeout_ms) {
  std::uint8_t wire[kRequestBytes];
  store<std::uint32_t>(wire, 0, timeout_ms);
  store<std::uint32_t>(wire, 4, control);
  store<std::uint32_t>(wire, 8, static_cast<std::uint32_t>(packet.size()));
  return write_full_deadline(fd, ByteSpan(wire, kRequestBytes), packet,
                             io_timeout_ms);
}

bool read_request(int fd, Request& request) {
  std::uint8_t wire[kRequestBytes];
  if (!read_full(fd, wire, kRequestBytes)) return false;
  request.timeout_ms = load<std::uint32_t>(wire, 0);
  request.control = load<std::uint32_t>(wire, 4);
  request.length = load<std::uint32_t>(wire, 8);
  return true;
}

bool write_reply(int fd, const Reply& reply) {
  std::uint8_t wire[kReplyBytes];
  store<std::int32_t>(wire, 0, reply.wstatus);
  store<std::uint32_t>(wire, 4, reply.flags);
  return write_full(fd, wire, kReplyBytes);
}

ReadStatus read_reply(int fd, Reply& reply, int timeout_ms) {
  std::uint8_t wire[kReplyBytes];
  const ReadStatus status =
      read_full_deadline(fd, wire, kReplyBytes, timeout_ms);
  if (status != ReadStatus::kOk) return status;
  reply.wstatus = load<std::int32_t>(wire, 0);
  reply.flags = load<std::uint32_t>(wire, 4);
  return ReadStatus::kOk;
}

}  // namespace icsfuzz::oop
