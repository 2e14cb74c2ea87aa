#include "src/cloud/cloud.hpp"

namespace c4h::cloud {

sim::Task<Result<void>> S3Store::put(net::NetNodeId from, const std::string& url, Bytes size,
                                     obs::Ctx ctx) {
  obs::ScopedSpan sp(ctx, "s3.put");
  sp.attr("bytes", static_cast<std::uint64_t>(size));
  co_await net_.transfer(from, endpoint_, size, transport_.profile(), sp.ctx());
  objects_[url] = size;
  co_return Result<void>{};
}

sim::Task<Result<Bytes>> S3Store::get(net::NetNodeId to, const std::string& url, obs::Ctx ctx) {
  obs::ScopedSpan sp(ctx, "s3.get");
  const auto it = objects_.find(url);
  if (it == objects_.end()) {
    // The 404 still costs a round trip.
    co_await net_.send_message(to, endpoint_, 50, sp.ctx());
    co_await net_.send_message(endpoint_, to, 50, sp.ctx());
    sp.set_error("not found");
    co_return Error{Errc::not_found, "no such object: " + url};
  }
  const Bytes size = it->second;
  sp.attr("bytes", static_cast<std::uint64_t>(size));
  co_await net_.transfer(endpoint_, to, size, transport_.profile(), sp.ctx());
  co_return size;
}

sim::Task<Result<void>> S3Store::erase(net::NetNodeId from, const std::string& url, obs::Ctx ctx) {
  obs::ScopedSpan sp(ctx, "s3.erase");
  co_await net_.send_message(from, endpoint_, 50, sp.ctx());
  const bool existed = objects_.erase(url) > 0;
  co_await net_.send_message(endpoint_, from, 50, sp.ctx());
  if (!existed) {
    sp.set_error("not found");
    co_return Error{Errc::not_found, "no such object: " + url};
  }
  co_return Result<void>{};
}

Bytes S3Store::stored_bytes() const {
  Bytes b = 0;
  for (const auto& [url, size] : objects_) b += size;
  return b;
}

}  // namespace c4h::cloud
