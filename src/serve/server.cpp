#include "serve/server.hpp"

#include "arch/cost_model.hpp"
#include "core/experiments.hpp"
#include "core/report.hpp"
#include "core/score.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "util/str.hpp"

#include <cstdio>
#include <utility>

namespace armstice::serve {
namespace {

/// The five figure artefacts, computed on demand (their sweeps run through
/// SweepRunner, so repeats hit the memo cache) and rendered with the exact
/// bytes the golden-figure tests pin.
std::string figure_csv(int figure) {
    switch (figure) {
        case 1: return core::fig1_csv(core::run_fig1());
        case 2: return core::fig2_csv(core::run_fig2());
        case 3: return core::fig3_csv(core::run_fig3());
        case 4: return core::fig4_csv(core::run_fig4());
        case 5: return core::fig5_csv(core::run_fig5());
        default:
            throw util::Error(util::format("serve: unknown figure %d (1..5)",
                                           figure));
    }
}

} // namespace

std::uint64_t current_rss_bytes() {
    std::FILE* f = std::fopen("/proc/self/status", "r");
    if (f == nullptr) return 0;
    char line[256];
    long kb = 0;
    while (std::fgets(line, sizeof(line), f) != nullptr) {
        if (std::sscanf(line, "VmRSS: %ld kB", &kb) == 1) break;
    }
    std::fclose(f);
    return kb > 0 ? static_cast<std::uint64_t>(kb) * 1024 : 0;
}

Server::Server(ServerConfig cfg, SweepService::Evaluator evaluator)
    : cfg_(cfg),
      service_(ServiceConfig{cfg.workers, cfg.max_inflight},
               std::move(evaluator)) {}

Server::~Server() { stop(); }

void Server::start() {
    ARMSTICE_CHECK(!started_, "serve: Server::start called twice");
    ARMSTICE_CHECK(!cfg_.unix_path.empty() || cfg_.tcp_port >= 0,
                   "serve: no endpoint configured (unix_path or tcp_port)");
    start_time_ = std::chrono::steady_clock::now();
    if (!cfg_.unix_path.empty()) {
        auto l = util::Listener::listen_unix(cfg_.unix_path);
        accept_threads_.emplace_back(
            [this, l = std::move(l)]() mutable { accept_loop(std::move(l)); });
    }
    if (cfg_.tcp_port >= 0) {
        auto l = util::Listener::listen_tcp(cfg_.tcp_port);
        tcp_port_ = l.port();
        accept_threads_.emplace_back(
            [this, l = std::move(l)]() mutable { accept_loop(std::move(l)); });
    }
    started_ = true;
}

void Server::stop() {
    if (stopping_.exchange(true)) {
        // Second caller still waits for the accept threads (destructor after
        // an explicit stop()).
    }
    for (auto& t : accept_threads_) {
        if (t.joinable()) t.join();
    }
    accept_threads_.clear();
    // Unblock session reads, then join them.
    {
        std::lock_guard<std::mutex> lock(sessions_mu_);
        for (auto& s : sessions_) s->sock.shutdown();
    }
    for (;;) {
        std::shared_ptr<Session> s;
        {
            std::lock_guard<std::mutex> lock(sessions_mu_);
            if (sessions_.empty()) break;
            s = sessions_.front();
            sessions_.pop_front();
        }
        if (s->thread.joinable()) s->thread.join();
    }
    service_.stop();
}

StatsResult Server::stats_snapshot() const {
    const ServiceStats svc = service_.stats();
    StatsResult out;
    {
        std::lock_guard<std::mutex> lock(stats_mu_);
        out.sweep_requests = sweep_requests_;
        out.figure_requests = figure_requests_;
        out.scorecard_requests = scorecard_requests_;
        out.stats_requests = stats_requests_;
        out.retries = retries_;
        out.protocol_errors = protocol_errors_;
        out.sessions_opened = sessions_opened_;
    }
    out.requests = out.sweep_requests + out.figure_requests +
                   out.scorecard_requests + out.stats_requests;
    out.points = static_cast<std::uint64_t>(svc.points);
    out.cache_hits = static_cast<std::uint64_t>(svc.cache_hits);
    out.coalesced = static_cast<std::uint64_t>(svc.coalesced);
    out.computed = static_cast<std::uint64_t>(svc.computed);
    out.point_errors = static_cast<std::uint64_t>(svc.point_errors);
    out.inflight = static_cast<std::uint64_t>(svc.inflight);
    {
        std::lock_guard<std::mutex> lock(sessions_mu_);
        out.sessions_active = sessions_.size();
    }
    if (started_) {
        out.uptime_s = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start_time_)
                           .count();
    }
    out.qps = out.uptime_s > 0
                  ? static_cast<double>(out.requests) / out.uptime_s
                  : 0.0;
    out.rss_bytes = current_rss_bytes();
    return out;
}

void Server::accept_loop(util::Listener listener) {
    while (!stopping_.load(std::memory_order_relaxed)) {
        util::Socket sock = listener.accept(/*timeout_ms=*/50);
        if (!sock.valid()) continue;
        reap_finished_sessions();

        auto session = std::make_shared<Session>();
        session->sock = std::move(sock);

        bool at_limit = false;
        {
            std::lock_guard<std::mutex> lock(sessions_mu_);
            at_limit = sessions_.size() >=
                       static_cast<std::size_t>(cfg_.max_sessions);
            if (!at_limit) sessions_.push_back(session);
        }
        if (at_limit) {
            Message m;
            m.body = ErrorMsg{ErrorCode::kSessionLimit,
                              util::format("serve: session limit %d reached",
                                           cfg_.max_sessions)};
            write_frame(session->sock, m);
            continue;  // socket closes with `session`
        }
        {
            std::lock_guard<std::mutex> lock(stats_mu_);
            ++sessions_opened_;
        }
        session->thread = std::thread([this, session] { run_session(session); });
    }
    listener.close();
}

void Server::reap_finished_sessions() {
    std::list<std::shared_ptr<Session>> finished;
    {
        std::lock_guard<std::mutex> lock(sessions_mu_);
        for (auto it = sessions_.begin(); it != sessions_.end();) {
            if ((*it)->done.load(std::memory_order_acquire)) {
                finished.push_back(*it);
                it = sessions_.erase(it);
            } else {
                ++it;
            }
        }
    }
    for (auto& s : finished) {
        if (s->thread.joinable()) s->thread.join();
    }
}

bool Server::send(Session& s, const Message& m) {
    return write_frame(s.sock, m);
}

void Server::send_error(Session& s, std::uint32_t req_id, ErrorCode code,
                        const std::string& message) {
    Message m;
    m.req_id = req_id;
    m.body = ErrorMsg{code, message};
    send(s, m);
}

void Server::run_session(std::shared_ptr<Session> session) {
    Session& s = *session;
    {
        Message hello;
        hello.body = Hello{kProtocolVersion, arch::kModelVersion, kMaxFrame};
        if (!send(s, hello)) {
            s.done.store(true, std::memory_order_release);
            return;
        }
    }
    while (!stopping_.load(std::memory_order_relaxed)) {
        Message req;
        DecodeStatus status = DecodeStatus::kOk;
        const ReadStatus rs = read_frame(s.sock, req, status);
        if (rs == ReadStatus::kClosed) break;
        if (rs == ReadStatus::kMalformed) {
            // Framing damage: answer with a typed error and drop the
            // connection — resynchronising a corrupt byte stream is not
            // possible with length-prefixed frames.
            {
                std::lock_guard<std::mutex> lock(stats_mu_);
                ++protocol_errors_;
            }
            send_error(s, 0, ErrorCode::kBadFrame,
                       std::string("serve: malformed frame: ") +
                           decode_status_name(status));
            break;
        }
        const std::uint32_t req_id = req.req_id;
        if (const auto* sweep = std::get_if<SweepRequest>(&req.body)) {
            handle_sweep(s, req_id, *sweep);
        } else if (const auto* fig = std::get_if<FigureRequest>(&req.body)) {
            handle_figure(s, req_id, *fig);
        } else if (std::get_if<ScorecardRequest>(&req.body) != nullptr) {
            handle_scorecard(s, req_id);
        } else if (std::get_if<StatsRequest>(&req.body) != nullptr) {
            handle_stats(s, req_id);
        } else {
            // A client must only send request frames; anything else is a
            // protocol violation.
            {
                std::lock_guard<std::mutex> lock(stats_mu_);
                ++protocol_errors_;
            }
            send_error(s, req_id, ErrorCode::kBadFrame,
                       "serve: unexpected frame type from client");
            break;
        }
    }
    // shutdown, not close: Server::stop() may concurrently call shutdown()
    // on this socket (both only read the fd). The fd itself is released by
    // the Session destructor, strictly after this thread is joined — the
    // peer still sees prompt EOF because SHUT_RDWR sends FIN.
    s.sock.shutdown();
    s.done.store(true, std::memory_order_release);
}

void Server::handle_sweep(Session& s, std::uint32_t req_id,
                          const SweepRequest& req) {
    {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++sweep_requests_;
    }
    std::vector<PointSpec> canonical;
    canonical.reserve(req.points.size());
    try {
        for (const auto& spec : req.points) {
            canonical.push_back(canonicalize(spec));
        }
    } catch (const util::Error& e) {
        send_error(s, req_id, ErrorCode::kBadRequest, e.what());
        return;
    }

    SweepService::Ticket ticket = service_.submit(canonical);
    if (!ticket.admitted) {
        if (stopping_.load(std::memory_order_relaxed)) {
            send_error(s, req_id, ErrorCode::kShuttingDown,
                       "serve: server stopping");
            return;
        }
        {
            std::lock_guard<std::mutex> lock(stats_mu_);
            ++retries_;
        }
        Message m;
        m.req_id = req_id;
        m.body = RetryLater{ticket.inflight, ticket.limit};
        send(s, m);
        return;
    }

    // Stream per-point frames in request order as futures resolve. A dead
    // peer just ends the streaming loop — the computations belong to the
    // shared service and complete regardless (other sessions may be joined
    // to them).
    std::uint32_t errors = 0;
    for (std::size_t i = 0; i < ticket.futures.size(); ++i) {
        const PointOutcome& out = ticket.futures[i].get();
        Message m;
        m.req_id = req_id;
        PointResult pr;
        pr.index = static_cast<std::uint32_t>(i);
        pr.origin = ticket.origin[i];
        pr.ok = out.ok && out.payload.size() <= kMaxPointPayload;
        if (pr.ok) {
            pr.payload = out.payload;
        } else if (out.ok) {
            pr.payload = util::format(
                "serve: result of %zu bytes does not fit a %u-byte frame",
                out.payload.size(), kMaxFrame);
        } else {
            pr.payload = out.error;
        }
        if (!pr.ok) ++errors;
        m.body = std::move(pr);
        if (!send(s, m)) return;
    }
    Message done;
    done.req_id = req_id;
    done.body = SweepDone{static_cast<std::uint32_t>(ticket.futures.size()),
                          ticket.cached, ticket.coalesced, ticket.fresh, errors};
    send(s, done);
}

void Server::handle_figure(Session& s, std::uint32_t req_id,
                           const FigureRequest& req) {
    {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++figure_requests_;
    }
    std::string csv;
    try {
        csv = figure_csv(req.figure);
    } catch (const std::exception& e) {
        send_error(s, req_id, ErrorCode::kBadRequest, e.what());
        return;
    }
    Message m;
    m.req_id = req_id;
    m.body = FigureResult{req.figure, std::move(csv)};
    send(s, m);
}

void Server::handle_scorecard(Session& s, std::uint32_t req_id) {
    {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++scorecard_requests_;
    }
    std::string text;
    try {
        text = core::render_scorecard(core::compute_scorecard());
    } catch (const std::exception& e) {
        send_error(s, req_id, ErrorCode::kInternal, e.what());
        return;
    }
    Message m;
    m.req_id = req_id;
    m.body = ScorecardResult{std::move(text)};
    send(s, m);
}

void Server::handle_stats(Session& s, std::uint32_t req_id) {
    {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_requests_;
    }
    Message m;
    m.req_id = req_id;
    m.body = stats_snapshot();
    send(s, m);
}

} // namespace armstice::serve
