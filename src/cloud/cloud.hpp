// Public-cloud substrate: S3-style blob storage and EC2-style compute.
//
// The prototype wraps Amazon's S3 (blocking TCP-based transfers, §IV) and
// runs face detection/recognition on EC2 instances. We stand in for the
// real services with the parts the evaluation depends on: a blob store
// reached over the WAN with S3's transport behaviour (TCP window growth to
// ~1.6 MB, ISP policing of long transfers) and instances that are simply
// big hosts attached at the cloud end of the WAN.
#pragma once

#include <memory>
#include <string>
#include <unordered_map>

#include "src/common/result.hpp"
#include "src/net/network.hpp"
#include "src/net/tcp_model.hpp"
#include "src/obs/trace.hpp"
#include "src/vmm/machine.hpp"

namespace c4h::cloud {

/// Transport calibration for home↔cloud interactions (§V's testbed: wireless
/// uplink with ≈6.5 Mbps max down / 4.5 Mbps up, ≈1.5 Mbps average, high
/// variability; S3 grows the TCP window to ≈1.6 MB; ISPs police long
/// "bandwidth-hogging" transfers).
inline net::TcpProfile s3_transport() {
  return net::TcpProfile{
      .rtt = milliseconds(60),
      .window_cap = Bytes{1638400},   // ≈1.6 MB
      .slow_start_bytes = 3_MB,       // bytes before the window cap is reached
      .slow_start_fraction = 0.45,
      .policing_burst = 30_MB,        // ISP token bucket
      .policed_fraction = 0.55,
      .handshake = milliseconds(90),  // TCP + HTTP request setup
  };
}

/// Moving `size` bytes from S3 to an EC2 instance inside the cloud: a fixed
/// request cost plus the intra-cloud copy rate.
inline Duration intra_cloud_move(Bytes size) {
  return milliseconds(10) + transfer_time(size, mib_per_sec(20.0));
}

/// S3-style blob store. Objects are addressed by URL ("s3://bucket/name");
/// the stored value is the object's size (content is synthetic throughout
/// the simulation). All transfers are blocking calls over the WAN, per the
/// prototype's wrapper over the S3 interface.
class S3Store {
 public:
  S3Store(net::Network& net, net::NetNodeId cloud_endpoint,
          net::TcpProfile transport = s3_transport())
      : net_(net), endpoint_(cloud_endpoint), transport_(transport) {}

  static std::string url_for(const std::string& bucket, const std::string& object) {
    return "s3://" + bucket + "/" + object;
  }

  /// Uploads `size` bytes from `from` (a home node's network endpoint).
  /// A non-null `ctx` records an `s3.put` span over the WAN transfer.
  sim::Task<Result<void>> put(net::NetNodeId from, const std::string& url, Bytes size,
                              obs::Ctx ctx = {});

  /// Downloads the object to `to`; returns its size.
  sim::Task<Result<Bytes>> get(net::NetNodeId to, const std::string& url, obs::Ctx ctx = {});

  sim::Task<Result<void>> erase(net::NetNodeId from, const std::string& url, obs::Ctx ctx = {});

  bool exists(const std::string& url) const { return objects_.contains(url); }
  std::size_t object_count() const { return objects_.size(); }
  Bytes stored_bytes() const;
  net::NetNodeId endpoint() const { return endpoint_; }

 private:
  net::Network& net_;
  net::NetNodeId endpoint_;
  net::TcpProfile transport_;
  std::unordered_map<std::string, Bytes> objects_;
};

/// EC2-style instance: a host attached at the cloud end of the WAN. The
/// "extra large" instance of §V has five 2.9 GHz CPUs and 14 GB memory.
class Ec2Instance {
 public:
  Ec2Instance(sim::Simulation& sim, net::NetNodeId cloud_endpoint, vmm::HostSpec spec)
      : host_(sim, std::move(spec)) {
    host_.set_net_node(cloud_endpoint);
  }

  static vmm::HostSpec extra_large_spec(const std::string& name = "ec2-xl") {
    vmm::HostSpec s;
    s.name = name;
    s.cores = 5;
    s.ghz = 2.9;
    s.memory = Bytes{14} * 1024 * 1024 * 1024;
    s.virt_overhead = 0.05;  // para-virtualized instance
    return s;
  }

  vmm::Host& host() { return host_; }
  vmm::Domain& domain() {
    if (domain_ == nullptr) {
      domain_ = &host_.create_guest(host_.name() + "/vm", host_.spec().cores,
                                    host_.spec().memory / 2);
    }
    return *domain_;
  }

 private:
  vmm::Host host_;
  vmm::Domain* domain_ = nullptr;
};

}  // namespace c4h::cloud
