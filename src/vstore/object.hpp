// VStore++ object model (§III): objects are named, typed, tagged blobs with
// a one-to-one mapping onto files. The metadata entry stored in the
// key-value layer ("serialized data containing object location and
// metadata, such as tags, access information") is ObjectRecord.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/key.hpp"
#include "src/common/result.hpp"
#include "src/common/serial.hpp"
#include "src/common/units.hpp"
#include "src/vstore/acl.hpp"

namespace c4h::vstore {

struct ObjectMeta {
  std::string name;
  std::string type;               // file type, e.g. "jpg", "avi", "mp3"
  Bytes size = 0;
  std::vector<std::string> tags;  // e.g. "private", "surveillance"
  std::int64_t created_at_ns = 0;

  // Access control (§VII future work; see acl.hpp). Empty owner = open.
  std::string owner;
  Acl acl;

  bool has_tag(const std::string& t) const {
    return std::find(tags.begin(), tags.end(), t) != tags.end();
  }

  Key key() const { return Key::from_name(name); }
};

/// Where the authoritative copy of an object lives.
struct ObjectLocation {
  enum class Kind : std::uint8_t { home_node, remote_cloud };
  Kind kind = Kind::home_node;
  Key node;         // valid when kind == home_node
  std::string url;  // valid when kind == remote_cloud ("URL location of
                    // object in users S3 storage bucket is stored as value")

  bool is_cloud() const { return kind == Kind::remote_cloud; }
};

struct ObjectRecord {
  ObjectMeta meta;
  ObjectLocation location;

  Buffer serialize() const {
    // Fixed fields plus the strings: one allocation unless tags or ACL
    // rules overflow it.
    Writer w{64 + meta.name.size() + meta.type.size() + meta.owner.size() + location.url.size()};
    w.write(meta.name);
    w.write(meta.type);
    w.write(meta.size);
    w.write_vector(meta.tags, [](Writer& ww, const std::string& t) { ww.write(t); });
    w.write(meta.created_at_ns);
    w.write(meta.owner);
    meta.acl.serialize(w);
    w.write(location.kind);
    w.write(location.node.raw());
    w.write(location.url);
    return std::move(w).take();
  }

  static Result<ObjectRecord> deserialize(const Buffer& b) {
    Reader r{b};
    ObjectRecord rec;
    auto name = r.read_string();
    if (!name) return name.error();
    rec.meta.name = std::move(*name);
    auto type = r.read_string();
    if (!type) return type.error();
    rec.meta.type = std::move(*type);
    auto size = r.read<Bytes>();
    if (!size) return size.error();
    rec.meta.size = *size;
    auto tags = r.read_vector<std::string>([](Reader& rr) { return rr.read_string(); });
    if (!tags) return tags.error();
    rec.meta.tags = std::move(*tags);
    auto ts = r.read<std::int64_t>();
    if (!ts) return ts.error();
    rec.meta.created_at_ns = *ts;
    auto owner = r.read_string();
    if (!owner) return owner.error();
    rec.meta.owner = std::move(*owner);
    auto acl = Acl::deserialize(r);
    if (!acl) return acl.error();
    rec.meta.acl = std::move(*acl);
    auto kind = r.read<ObjectLocation::Kind>();
    if (!kind) return kind.error();
    rec.location.kind = *kind;
    auto node = r.read<std::uint64_t>();
    if (!node) return node.error();
    rec.location.node = Key{*node};
    auto url = r.read_string();
    if (!url) return url.error();
    rec.location.url = std::move(*url);
    return rec;
  }
};

}  // namespace c4h::vstore
