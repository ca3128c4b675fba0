#pragma once
// Proxy components (paper §4.2).
//
// "For each component that the user wants to analyze, a proxy component is
// created. The proxy component shares the same interface as the actual
// component. ... the proxy is able to snoop the method invocation on the
// ProvidesPort, and then forward the method invocation to the component on
// the UsesPort. In addition, the proxy also uses a MonUF port to make
// measurements."
//
// Timer names follow the paper's Fig. 3 profile: sc_proxy (States),
// g_proxy (GodunovFlux), efm_proxy (EFMFlux), icc_proxy (AMRMesh).
// Each proxy extracts its component's performance parameters (array size
// Q, access mode, hierarchy level) before forwarding — §3.2 requirement 4.
//
// The proxies are mechanical: same ports, one monitored forward per
// method — "it is not difficult to envision proxy creation being fully
// automated." Each proxy resolves the monitor port and registers its
// method keys ONCE (lazily, on first invocation — wiring completes after
// setServices), then reports every call through the allocation-free
// MethodHandle/ParamSpan surface; the monitored component itself is still
// fetched per call so reconnection (candidate swapping, §6) keeps working.

#include <mutex>

#include "components/lu_workload.hpp"
#include "components/ports.hpp"
#include "core/ports.hpp"

namespace core {

/// RAII monitor bracket: parameter values live in a caller-owned stack
/// array; start/stop never allocate. The building block for hand-written
/// and out-of-tree proxies (examples/custom_component.cpp).
class MonitoredHandleScope {
 public:
  MonitoredHandleScope(MonitorPort& monitor, MethodHandle method, ParamSpan params)
      : monitor_(monitor), method_(method) {
    monitor_.start(method_, params);
  }
  ~MonitoredHandleScope() { monitor_.stop(method_); }
  MonitoredHandleScope(const MonitoredHandleScope&) = delete;
  MonitoredHandleScope& operator=(const MonitoredHandleScope&) = delete;

 private:
  MonitorPort& monitor_;
  MethodHandle method_;
};

/// Proxy for the States component ("sc_proxy"). Performance parameters:
/// Q = input array size (cells incl. ghosts), mode = 0 sequential / 1 strided.
class StatesProxy final : public cca::Component, public components::StatesPort {
 public:
  void setServices(cca::Services& svc) override {
    svc_ = &svc;
    svc.add_provides_port(cca::non_owning(static_cast<StatesPort*>(this)),
                          "states", "euler.StatesPort");
    svc.register_uses_port("states_real", "euler.StatesPort");
    svc.register_uses_port("monitor", "pmm.MonitorPort");
  }

  euler::KernelCounts compute(const amr::PatchData<double>& u,
                              const amr::Box& interior, euler::Dir dir,
                              euler::Array2& left, euler::Array2& right) override {
    // call_once: the first compute() may land inside a parallel region,
    // where several lanes race to resolve the monitor.
    std::call_once(once_, [this] {
      monitor_ = svc_->get_port_as<MonitorPort>("monitor");
      method_ = monitor_->register_method("sc_proxy::compute()", {"Q", "mode"});
    });
    auto* real = svc_->get_port_as<StatesPort>("states_real");
    const double params[2] = {static_cast<double>(u.pts_per_comp()),
                              dir == euler::Dir::x ? 0.0 : 1.0};
    MonitoredHandleScope scope(*monitor_, method_, ParamSpan(params, 2));
    return real->compute(u, interior, dir, left, right);
  }

 private:
  cca::Services* svc_ = nullptr;
  std::once_flag once_;
  MonitorPort* monitor_ = nullptr;
  MethodHandle method_ = kInvalidMethodHandle;
};

/// Proxy for a FluxPort implementation. The timer key is chosen at
/// construction ("g_proxy::compute()" for GodunovFlux,
/// "efm_proxy::compute()" for EFMFlux). Q = faces * ncomp of the input
/// state arrays (the "array size" handed to the flux component).
class FluxProxy final : public cca::Component, public components::FluxPort {
 public:
  explicit FluxProxy(std::string timer_key) : key_(std::move(timer_key)) {}

  void setServices(cca::Services& svc) override {
    svc_ = &svc;
    svc.add_provides_port(cca::non_owning(static_cast<FluxPort*>(this)), "flux",
                          "euler.FluxPort");
    svc.register_uses_port("flux_real", "euler.FluxPort");
    svc.register_uses_port("monitor", "pmm.MonitorPort");
  }

  euler::KernelCounts compute(const euler::Array2& left, const euler::Array2& right,
                              euler::Dir dir, euler::Array2& flux) override {
    std::call_once(once_, [this] {
      monitor_ = svc_->get_port_as<MonitorPort>("monitor");
      method_ = monitor_->register_method(key_, {"Q", "mode"});
    });
    auto* real = svc_->get_port_as<FluxPort>("flux_real");
    const double params[2] = {
        static_cast<double>(static_cast<std::size_t>(left.nx()) * left.ny()),
        dir == euler::Dir::x ? 0.0 : 1.0};
    MonitoredHandleScope scope(*monitor_, method_, ParamSpan(params, 2));
    return real->compute(left, right, dir, flux);
  }

  std::string method_name() const override {
    return svc_->get_port_as<FluxPort>("flux_real")->method_name();
  }
  double accuracy() const override {
    return svc_->get_port_as<FluxPort>("flux_real")->accuracy();
  }

 private:
  std::string key_;
  cca::Services* svc_ = nullptr;
  std::once_flag once_;
  MonitorPort* monitor_ = nullptr;
  MethodHandle method_ = kInvalidMethodHandle;
};

/// Proxy for AMRMesh ("icc_proxy"), capturing the message-passing costs:
/// each monitored invocation's MPI time is the Fig. 9 data. Parameters:
/// level, and the level's total cells.
class AMRMeshProxy final : public cca::Component, public components::MeshPort {
 public:
  void setServices(cca::Services& svc) override {
    svc_ = &svc;
    svc.add_provides_port(cca::non_owning(static_cast<MeshPort*>(this)), "mesh",
                          "amr.MeshPort");
    svc.register_uses_port("mesh_real", "amr.MeshPort");
    svc.register_uses_port("monitor", "pmm.MonitorPort");
  }

  amr::Hierarchy& hierarchy() override { return real()->hierarchy(); }

  void initialize() override {
    MonitorPort& m = *monitor();  // resolves handles on first use
    MonitoredHandleScope scope(m, h_initialize_, {});
    real()->initialize();
  }

  amr::ExchangeStats ghost_update(int level) override {
    MonitorPort& m = *monitor();
    double params[2];
    level_params(level, params);
    MonitoredHandleScope scope(m, h_ghost_update_, ParamSpan(params, 2));
    return real()->ghost_update(level);
  }

  void prolong(int level) override {
    MonitorPort& m = *monitor();
    double params[2];
    level_params(level, params);
    MonitoredHandleScope scope(m, h_prolong_, ParamSpan(params, 2));
    real()->prolong(level);
  }

  void restrict_level(int fine_level) override {
    MonitorPort& m = *monitor();
    double params[2];
    level_params(fine_level, params);
    MonitoredHandleScope scope(m, h_restrict_, ParamSpan(params, 2));
    real()->restrict_level(fine_level);
  }

  void regrid() override {
    MonitorPort& m = *monitor();
    MonitoredHandleScope scope(m, h_regrid_, {});
    real()->regrid();
  }

 private:
  components::MeshPort* real() {
    return svc_->get_port_as<components::MeshPort>("mesh_real");
  }
  MonitorPort* monitor() {
    std::call_once(once_, [this] {
      monitor_ = svc_->get_port_as<MonitorPort>("monitor");
      h_initialize_ = monitor_->register_method("icc_proxy::initialize()", {});
      h_ghost_update_ =
          monitor_->register_method("icc_proxy::ghost_update()", {"level", "cells"});
      h_prolong_ =
          monitor_->register_method("icc_proxy::prolong()", {"level", "cells"});
      h_restrict_ =
          monitor_->register_method("icc_proxy::restrict()", {"level", "cells"});
      h_regrid_ = monitor_->register_method("icc_proxy::regrid()", {});
    });
    return monitor_;
  }
  void level_params(int level, double out[2]) {
    amr::Hierarchy& h = real()->hierarchy();
    out[0] = static_cast<double>(level);
    out[1] = static_cast<double>(h.level(level).total_cells());
  }

  cca::Services* svc_ = nullptr;
  std::once_flag once_;
  MonitorPort* monitor_ = nullptr;
  MethodHandle h_initialize_ = kInvalidMethodHandle;
  MethodHandle h_ghost_update_ = kInvalidMethodHandle;
  MethodHandle h_prolong_ = kInvalidMethodHandle;
  MethodHandle h_restrict_ = kInvalidMethodHandle;
  MethodHandle h_regrid_ = kInvalidMethodHandle;
};

/// Proxy for the dense-LU workload ("lu_proxy") — the HPL-style scenario
/// the TelemetryHub soaks alongside AMR sessions. Performance parameters:
/// N (matrix order) and the panel block width.
class LuProxy final : public cca::Component, public components::LuPort {
 public:
  void setServices(cca::Services& svc) override {
    svc_ = &svc;
    svc.add_provides_port(cca::non_owning(static_cast<LuPort*>(this)), "lu",
                          "hpl.LuPort");
    svc.register_uses_port("lu_real", "hpl.LuPort");
    svc.register_uses_port("monitor", "pmm.MonitorPort");
  }

  components::LuResult factor(int n, int block, std::uint64_t seed) override {
    std::call_once(once_, [this] {
      monitor_ = svc_->get_port_as<MonitorPort>("monitor");
      method_ = monitor_->register_method("lu_proxy::factor()", {"N", "block"});
    });
    auto* real = svc_->get_port_as<components::LuPort>("lu_real");
    const double params[2] = {static_cast<double>(n), static_cast<double>(block)};
    MonitoredHandleScope scope(*monitor_, method_, ParamSpan(params, 2));
    return real->factor(n, block, seed);
  }

 private:
  cca::Services* svc_ = nullptr;
  std::once_flag once_;
  MonitorPort* monitor_ = nullptr;
  MethodHandle method_ = kInvalidMethodHandle;
};

}  // namespace core
