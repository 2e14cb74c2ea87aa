// The VStore++ command protocol (§IV): "Every method call in VStore++ is
// converted into a command. ... Each command packet consists of packet
// length, command type, the requesting service ID, VMs domain ID, shared
// memory reference and command data. ... Commands are usually less than 50
// bytes."
#pragma once

#include <cstdint>
#include <string>

#include "src/common/result.hpp"
#include "src/common/serial.hpp"

namespace c4h::vstore {

enum class CommandType : std::uint8_t {
  create_object = 1,
  store_object,
  fetch_object,
  process_object,
  fetch_process,
  ack,
  error_reply,
};

struct CommandPacket {
  CommandType type = CommandType::ack;
  std::uint32_t service_id = 0;
  std::uint32_t domain_id = 0;
  std::uint64_t shm_ref = 0;  // grant-table reference for the data channel
  std::string data;           // command-specific payload (e.g. object name)

  /// Length header, then the body: type, service id, domain id, shm ref and
  /// the length-prefixed data. One buffer; the header is patched once the
  /// body's size is known.
  Buffer serialize() const {
    constexpr std::size_t kHeader = sizeof(std::uint32_t);
    constexpr std::size_t kFixedBody = 1 + 4 + 4 + 8 + 4;
    Writer w{kHeader + kFixedBody + data.size()};
    w.write(std::uint32_t{0});
    w.write(type);
    w.write(service_id);
    w.write(domain_id);
    w.write(shm_ref);
    w.write(data);
    w.write_at(0, static_cast<std::uint32_t>(w.size() - kHeader));
    return std::move(w).take();
  }

  static Result<CommandPacket> deserialize(const Buffer& buf) {
    Reader r{buf};
    auto len = r.read<std::uint32_t>();
    if (!len) return len.error();
    if (r.remaining() != *len) return Error{Errc::io_error, "length header mismatch"};
    CommandPacket p;
    auto type = r.read<CommandType>();
    if (!type) return type.error();
    p.type = *type;
    auto sid = r.read<std::uint32_t>();
    if (!sid) return sid.error();
    p.service_id = *sid;
    auto did = r.read<std::uint32_t>();
    if (!did) return did.error();
    p.domain_id = *did;
    auto shm = r.read<std::uint64_t>();
    if (!shm) return shm.error();
    p.shm_ref = *shm;
    auto data = r.read_string();
    if (!data) return data.error();
    p.data = std::move(*data);
    return p;
  }

  std::size_t wire_size() const { return serialize().size(); }
};

}  // namespace c4h::vstore
