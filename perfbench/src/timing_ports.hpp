#pragma once
// The benchmark's timing ports: components that provide the same port as
// the one they front, open a span, and forward. They are wired in through
// the public cca::Framework::connect/reconnect, so the product is not
// modified. ChainHooks does the same for mpp: it is installed after TAU's
// adapter, forwards every hook to it, and records the outermost
// communication call of each rank thread.

#include <cstring>
#include <string>
#include <vector>

#include "cca/framework.hpp"
#include "components/ports.hpp"
#include "mpp/hooks.hpp"
#include "trace.hpp"

namespace perfbench {

/// Per-rank state shared by that rank's timing ports.
struct RankCtx {
  int rank = 0;
  std::uint32_t step = 0;               ///< current coarse step (rank thread)
  std::vector<std::int64_t> step_entry; ///< stable_dt entry stamps
  std::vector<double> step_cells;       ///< census: cells x subcycles (rank 0)
};

/// A timing port; bind() caches the inner port once the wiring is final.
class TimingComponent : public cca::Component {
 public:
  virtual void bind() = 0;
};

/// Fronts IntegratorPort. Always stamps stable_dt entry (the step clock of
/// the untraced run); spans only when tracing.
class TimedIntegrator final : public TimingComponent,
                              public components::IntegratorPort {
 public:
  explicit TimedIntegrator(RankCtx* ctx) : ctx_(ctx) {}
  void setServices(cca::Services& svc) override {
    svc_ = &svc;
    svc.add_provides_port(cca::non_owning(static_cast<IntegratorPort*>(this)),
                          "integrator", "euler.IntegratorPort");
    svc.register_uses_port("inner", "euler.IntegratorPort");
    svc.register_uses_port("mesh", "amr.MeshPort");
  }
  void bind() override {
    inner_ = svc_->get_port_as<IntegratorPort>("inner");
    mesh_ = svc_->get_port_as<components::MeshPort>("mesh");
  }
  double stable_dt(double cfl) override {
    ctx_->step_entry.push_back(now_ns());
    ctx_->step = static_cast<std::uint32_t>(ctx_->step_entry.size());
    if (ctx_->rank == 0) {
      const amr::Hierarchy& h = mesh_->hierarchy();
      double cells = 0.0, sub = 1.0;
      for (int l = 0; l < h.num_levels(); ++l, sub *= h.config().ratio)
        cells += static_cast<double>(h.level(l).total_cells()) * sub;
      ctx_->step_cells.push_back(cells);
    }
    ScopedSpan span(SpanKind::stable_dt, ctx_->rank, ctx_->step);
    return inner_->stable_dt(cfl);
  }
  void advance(double dt) override {
    ScopedSpan span(SpanKind::advance, ctx_->rank, ctx_->step);
    inner_->advance(dt);
  }

 private:
  RankCtx* ctx_;
  cca::Services* svc_ = nullptr;
  IntegratorPort* inner_ = nullptr;
  components::MeshPort* mesh_ = nullptr;
};

/// Fronts MeshPort. `outer` spans time the proxy side (monitoring); inner
/// spans time the AMRMesh component, one kind per method.
class TimedMesh final : public TimingComponent, public components::MeshPort {
 public:
  TimedMesh(RankCtx* ctx, bool outer) : ctx_(ctx), outer_(outer) {}
  void setServices(cca::Services& svc) override {
    svc_ = &svc;
    svc.add_provides_port(cca::non_owning(static_cast<MeshPort*>(this)), "mesh",
                          "amr.MeshPort");
    svc.register_uses_port("inner", "amr.MeshPort");
  }
  void bind() override { inner_ = svc_->get_port_as<MeshPort>("inner"); }

  amr::Hierarchy& hierarchy() override { return inner_->hierarchy(); }
  void initialize() override {
    ScopedSpan span(kind(SpanKind::initialize), ctx_->rank, ctx_->step);
    inner_->initialize();
  }
  amr::ExchangeStats ghost_update(int level) override {
    ScopedSpan span(kind(SpanKind::ghost_update), ctx_->rank, ctx_->step);
    const amr::ExchangeStats st = inner_->ghost_update(level);
    span.a = st.messages_sent;
    span.b = st.bytes_sent;
    return st;
  }
  void prolong(int level) override {
    ScopedSpan span(kind(SpanKind::prolong), ctx_->rank, ctx_->step);
    inner_->prolong(level);
  }
  void restrict_level(int fine_level) override {
    ScopedSpan span(kind(SpanKind::restrict_level), ctx_->rank, ctx_->step);
    inner_->restrict_level(fine_level);
  }
  void regrid() override {
    ScopedSpan span(kind(SpanKind::regrid), ctx_->rank, ctx_->step);
    inner_->regrid();
  }

 private:
  SpanKind kind(SpanKind inner_kind) const {
    return outer_ ? SpanKind::monitor_mesh : inner_kind;
  }
  RankCtx* ctx_;
  bool outer_;
  cca::Services* svc_ = nullptr;
  MeshPort* inner_ = nullptr;
};

/// Fronts FluxDivergencePort (called from the rank's pool lanes).
class TimedFluxDiv final : public TimingComponent,
                           public components::FluxDivergencePort {
 public:
  explicit TimedFluxDiv(RankCtx* ctx) : ctx_(ctx) {}
  void setServices(cca::Services& svc) override {
    svc_ = &svc;
    svc.add_provides_port(cca::non_owning(static_cast<FluxDivergencePort*>(this)),
                          "invflux", "euler.FluxDivergencePort");
    svc.register_uses_port("inner", "euler.FluxDivergencePort");
  }
  void bind() override { inner_ = svc_->get_port_as<FluxDivergencePort>("inner"); }
  void compute(const amr::PatchData<double>& u, const amr::Box& interior, double dx,
               double dy, amr::PatchData<double>& dudt) override {
    ScopedSpan span(SpanKind::invflux, ctx_->rank, ctx_->step);
    inner_->compute(u, interior, dx, dy, dudt);
  }

 private:
  RankCtx* ctx_;
  cca::Services* svc_ = nullptr;
  FluxDivergencePort* inner_ = nullptr;
};

/// Fronts StatesPort on either side of the States proxy.
class TimedStates final : public TimingComponent, public components::StatesPort {
 public:
  TimedStates(RankCtx* ctx, bool outer) : ctx_(ctx), outer_(outer) {}
  void setServices(cca::Services& svc) override {
    svc_ = &svc;
    svc.add_provides_port(cca::non_owning(static_cast<StatesPort*>(this)), "states",
                          "euler.StatesPort");
    svc.register_uses_port("inner", "euler.StatesPort");
  }
  void bind() override { inner_ = svc_->get_port_as<StatesPort>("inner"); }
  euler::KernelCounts compute(const amr::PatchData<double>& u,
                              const amr::Box& interior, euler::Dir dir,
                              euler::Array2& left, euler::Array2& right) override {
    ScopedSpan span(outer_ ? SpanKind::monitor_states : SpanKind::states,
                    ctx_->rank, ctx_->step);
    const euler::KernelCounts kc = inner_->compute(u, interior, dir, left, right);
    span.a = kc.faces;
    return kc;
  }

 private:
  RankCtx* ctx_;
  bool outer_;
  cca::Services* svc_ = nullptr;
  StatesPort* inner_ = nullptr;
};

/// Fronts FluxPort on either side of a flux proxy.
class TimedFlux final : public TimingComponent, public components::FluxPort {
 public:
  TimedFlux(RankCtx* ctx, bool outer) : ctx_(ctx), outer_(outer) {}
  void setServices(cca::Services& svc) override {
    svc_ = &svc;
    svc.add_provides_port(cca::non_owning(static_cast<FluxPort*>(this)), "flux",
                          "euler.FluxPort");
    svc.register_uses_port("inner", "euler.FluxPort");
  }
  void bind() override { inner_ = svc_->get_port_as<FluxPort>("inner"); }
  euler::KernelCounts compute(const euler::Array2& left, const euler::Array2& right,
                              euler::Dir dir, euler::Array2& flux) override {
    ScopedSpan span(outer_ ? SpanKind::monitor_flux : SpanKind::flux, ctx_->rank,
                    ctx_->step);
    const euler::KernelCounts kc = inner_->compute(left, right, dir, flux);
    span.a = kc.faces;
    return kc;
  }
  std::string method_name() const override { return inner_->method_name(); }
  double accuracy() const override { return inner_->accuracy(); }

 private:
  RankCtx* ctx_;
  bool outer_;
  cca::Services* svc_ = nullptr;
  FluxPort* inner_ = nullptr;
};

/// Registers the timing-port classes on a framework's repository; the
/// factories close over `ctx`, which must outlive the framework.
inline void register_timing_ports(cca::Framework& fw, RankCtx* ctx) {
  auto& repo = fw.repository();
  repo.register_class("TimedIntegrator",
                      [ctx] { return std::make_unique<TimedIntegrator>(ctx); });
  repo.register_class("TimedMeshOuter",
                      [ctx] { return std::make_unique<TimedMesh>(ctx, true); });
  repo.register_class("TimedMeshInner",
                      [ctx] { return std::make_unique<TimedMesh>(ctx, false); });
  repo.register_class("TimedFluxDiv",
                      [ctx] { return std::make_unique<TimedFluxDiv>(ctx); });
  repo.register_class("TimedStatesOuter",
                      [ctx] { return std::make_unique<TimedStates>(ctx, true); });
  repo.register_class("TimedStatesInner",
                      [ctx] { return std::make_unique<TimedStates>(ctx, false); });
  repo.register_class("TimedFluxOuter",
                      [ctx] { return std::make_unique<TimedFlux>(ctx, true); });
  repo.register_class("TimedFluxInner",
                      [ctx] { return std::make_unique<TimedFlux>(ctx, false); });
}

/// Puts a `timer_class` instance named `timer` in front of
/// `provider.provides`: timer.inner -> provider, and each `users[i].uses`
/// is re-pointed at timer.`port`.
inline void interpose(cca::Framework& fw, const std::string& timer,
                      const std::string& timer_class, const std::string& port,
                      const std::vector<std::string>& users, const std::string& uses,
                      const std::string& provider, const std::string& provides) {
  fw.instantiate(timer, timer_class);
  fw.connect(timer, "inner", provider, provides);
  for (const std::string& user : users) fw.reconnect(user, uses, timer, port);
}

/// Chained mpp hooks: forwards to the hooks installed before it (TAU's
/// adapter) and records spans and message counts for one rank thread.
class ChainHooks final : public mpp::CommHooks {
 public:
  ChainHooks(mpp::CommHooks* next, RankCtx* ctx) : next_(next), ctx_(ctx) {}

  void on_begin(const char* name) override {
    if (depth_++ == 0) {
      const SpanKind k = classify(name);
      open_ = Tracer::begin(k, ctx_->rank, ctx_->step);
      open_kind_ = k;
    }
    if (next_ != nullptr) next_->on_begin(name);
  }
  void on_end(const char* name, std::size_t bytes) override {
    if (next_ != nullptr) next_->on_end(name, bytes);
    if (--depth_ == 0) {
      if (Span* s = Tracer::end(open_)) {
        if (open_kind_ == SpanKind::mpp_collective) s->seq = collectives_++;
      }
    }
  }
  void on_message_send(const mpp::MsgEvent& e) override {
    ++messages;
    message_bytes += e.bytes;
    if (next_ != nullptr) next_->on_message_send(e);
  }
  void on_message_recv(const mpp::MsgEvent& e) override {
    if (next_ != nullptr) next_->on_message_recv(e);
  }
  void on_fault(const mpp::FaultEvent& e) override {
    if (next_ != nullptr) next_->on_fault(e);
  }
  void on_collective_hop(const mpp::HopEvent& e) override {
    ++hops;
    if (next_ != nullptr) next_->on_collective_hop(e);
  }

  std::uint64_t messages = 0, message_bytes = 0, hops = 0;

 private:
  static SpanKind classify(const char* name) {
    auto is = [name](const char* n) { return std::strcmp(name, n) == 0; };
    if (is("MPI_Wait()") || is("MPI_Waitsome()") || is("MPI_Waitall()") ||
        is("MPI_Recv()") || is("MPI_Test()"))
      return SpanKind::mpp_wait;
    if (is("MPI_Isend()") || is("MPI_Irecv()") || is("MPI_Send()"))
      return SpanKind::mpp_p2p;
    if (is("MPI_Wtime()")) return SpanKind::mpp_other;
    return SpanKind::mpp_collective;  // barrier, reductions, gathers, dup/split
  }

  mpp::CommHooks* next_;
  RankCtx* ctx_;
  int depth_ = 0;
  std::int32_t open_ = -1;
  SpanKind open_kind_ = SpanKind::mpp_other;
  std::uint64_t collectives_ = 0;
};

}  // namespace perfbench
