package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"hardharvest/internal/faults"
	"hardharvest/internal/obs"
	"hardharvest/internal/sim"
)

// NewHTTP wires the runner's control surface onto a fresh mux:
//
//	GET  /metrics         Prometheus text exposition
//	GET  /api/state       current barrier snapshot (JSON)
//	GET  /api/timeseries  streaming snapshots (SSE or NDJSON)
//	POST /api/config      enqueue barrier-applied mutations
//	POST /api/pause|resume|step
//	POST /api/shutdown
func NewHTTP(r *Runner) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		if !methodIs(w, req, http.MethodGet) {
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		writeMetrics(w, r.State())
	})
	mux.HandleFunc("/api/state", func(w http.ResponseWriter, req *http.Request) {
		if !methodIs(w, req, http.MethodGet) {
			return
		}
		writeJSON(w, http.StatusOK, stateJSON(r.State()))
	})
	mux.HandleFunc("/api/config", func(w http.ResponseWriter, req *http.Request) {
		if !methodIs(w, req, http.MethodPost) {
			return
		}
		var body configRequest
		if err := json.NewDecoder(req.Body).Decode(&body); err != nil {
			httpErr(w, http.StatusBadRequest, fmt.Errorf("bad config body: %w", err))
			return
		}
		queued, err := enqueueConfig(r, body)
		if err != nil {
			httpErr(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, http.StatusAccepted, map[string]any{
			"queued": queued,
			"note":   "applied at the next simulated-time barrier",
		})
	})
	mux.HandleFunc("/api/pause", control(r, func(r *Runner) error { r.Pause(); return nil }))
	mux.HandleFunc("/api/resume", control(r, func(r *Runner) error { r.Resume(); return nil }))
	mux.HandleFunc("/api/step", control(r, (*Runner).StepBarrier))
	mux.HandleFunc("/api/shutdown", control(r, func(r *Runner) error { r.Shutdown(); return nil }))
	mux.HandleFunc("/api/timeseries", func(w http.ResponseWriter, req *http.Request) {
		if !methodIs(w, req, http.MethodGet) {
			return
		}
		streamTimeseries(r, w, req)
	})
	return mux
}

func methodIs(w http.ResponseWriter, req *http.Request, m string) bool {
	if req.Method != m {
		httpErr(w, http.StatusMethodNotAllowed, fmt.Errorf("%s requires %s", req.URL.Path, m))
		return false
	}
	return true
}

func httpErr(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// control adapts a pacing mutation into a POST handler.
func control(r *Runner, f func(*Runner) error) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		if !methodIs(w, req, http.MethodPost) {
			return
		}
		if err := f(r); err != nil {
			httpErr(w, http.StatusConflict, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"ok": "true"})
	}
}

// configRequest is the POST /api/config body: each present field becomes
// one barrier-applied action. Server targets one fleet backend
// (fault_plan, drain_deadline_ms); a target past the fleet, any nonzero
// one on a one-server run, is dropped at apply time.
type configRequest struct {
	Intensity       *float64     `json:"intensity,omitempty"`
	HarvestOnBlock  *bool        `json:"harvest_on_block,omitempty"`
	Resilience      *bool        `json:"resilience,omitempty"`
	FaultPlan       *faults.Plan `json:"fault_plan,omitempty"`
	Server          int          `json:"server,omitempty"`
	DrainDeadlineMS *float64     `json:"drain_deadline_ms,omitempty"`
}

func enqueueConfig(r *Runner, body configRequest) (int, error) {
	var acts []Action
	if body.Intensity != nil {
		acts = append(acts, Action{Kind: ActIntensity, Intensity: *body.Intensity})
	}
	if body.HarvestOnBlock != nil {
		acts = append(acts, Action{Kind: ActHarvestOnBlock, On: *body.HarvestOnBlock})
	}
	if body.Resilience != nil {
		acts = append(acts, Action{Kind: ActResilience, On: *body.Resilience})
	}
	if body.FaultPlan != nil {
		acts = append(acts, Action{Kind: ActFaults, Plan: body.FaultPlan, Server: body.Server})
	}
	if body.DrainDeadlineMS != nil {
		acts = append(acts, Action{Kind: ActDrain, Server: body.Server, DeadlineMS: *body.DrainDeadlineMS})
	}
	if len(acts) == 0 {
		return 0, fmt.Errorf("config body names no settings (intensity, harvest_on_block, resilience, fault_plan, drain_deadline_ms)")
	}
	// Validate everything before enqueueing anything: a config POST is
	// applied all-or-nothing so a typo cannot half-apply.
	for _, a := range acts {
		if err := a.validate(); err != nil {
			return 0, err
		}
	}
	for _, a := range acts {
		if err := r.Enqueue(a); err != nil {
			return 0, err
		}
	}
	return len(acts), nil
}

// stateJSON shapes a State for the /api/state response.
func stateJSON(st State) map[string]any {
	qs := st.Hist.Quantiles(0.50, 0.99)
	vms := make([]VMPoint, 0, len(st.Occupancy.VMs))
	names := map[int]string{}
	for _, vm := range st.Topology.VMs {
		names[vm.Idx] = vm.Name
	}
	for _, v := range st.Occupancy.VMs {
		vms = append(vms, VMPoint{
			VM: v.VM, Name: names[v.VM], Running: v.Running, Blocked: v.Blocked,
			Queued: v.Queued, LentOut: v.LentOut, Pinned: v.Pinned, BusyCores: v.BusyCores,
		})
	}
	out := map[string]any{
		"config":       st.Config,
		"sim_ms":       sim.Duration(st.SimTime).Milliseconds(),
		"horizon_ms":   sim.Duration(st.Horizon).Milliseconds(),
		"done":         st.Done,
		"paused":       st.Paused,
		"pace":         st.Pace,
		"intensity":    st.Intensity,
		"events_fired": st.EventsFired,
		"actions":      st.Actions,
		"counters":     st.Counters,
		"latency_ms": map[string]float64{
			"p50":  qs[0].Milliseconds(),
			"p99":  qs[1].Milliseconds(),
			"mean": st.Hist.Mean().Milliseconds(),
			"max":  st.Hist.Max().Milliseconds(),
		},
		"vms": vms,
	}
	if st.Router != nil {
		out["router"] = st.Router
	}
	if st.Graph != nil {
		out["graph"] = st.Graph
	}
	return out
}

// writeMetrics renders the Prometheus exposition for one published state.
// Metric families and label values come out in a fixed order (the counter
// def table, then topology order), so two scrapes of identical simulator
// state are byte-identical — the serve-smoke CI job depends on that.
func writeMetrics(w http.ResponseWriter, st State) {
	p := obs.NewPromWriter(w)
	runLabels := []obs.PromLabel{
		{Key: "system", Value: st.Config.System},
		{Key: "workload", Value: st.Config.Workload},
	}
	p.Head("hhsim_info", "run identity (value is always 1)", "gauge")
	p.Uint("hhsim_info", 1, append(runLabels,
		obs.PromLabel{Key: "seed", Value: strconv.FormatUint(st.Config.Seed, 10)})...)
	p.Head("hhsim_sim_time_seconds", "current simulated time", "gauge")
	p.Float("hhsim_sim_time_seconds", sim.Duration(st.SimTime).Seconds())
	p.Head("hhsim_sim_horizon_seconds", "simulated end-of-run time", "gauge")
	p.Float("hhsim_sim_horizon_seconds", sim.Duration(st.Horizon).Seconds())
	p.Head("hhsim_run_done", "1 once the horizon is reached", "gauge")
	p.Uint("hhsim_run_done", boolToUint(st.Done))
	p.Head("hhsim_paused", "1 while the pacing loop is paused", "gauge")
	p.Uint("hhsim_paused", boolToUint(st.Paused))
	p.Head("hhsim_intensity", "offered-load multiplier (1 = configured load)", "gauge")
	p.Float("hhsim_intensity", st.Intensity)
	p.Head("hhsim_engine_events_total", "simulation events executed", "counter")
	p.Uint("hhsim_engine_events_total", st.EventsFired)
	p.Head("hhsim_actions_applied_total", "control actions applied at barriers", "counter")
	p.Uint("hhsim_actions_applied_total", uint64(st.Actions))

	p.Head("hhsim_events_total", "simulator transitions by kind", "counter")
	for _, d := range obs.CounterDefs() {
		c := st.Counters
		p.Uint("hhsim_events_total", d.Get(&c), obs.PromLabel{Key: "kind", Value: d.Name})
	}

	p.Histogram("hhsim_request_latency_seconds",
		"end-to-end primary request latency (warmup included)",
		st.Hist, obs.DefaultLatencyBuckets)

	names := map[int]string{}
	for _, vm := range st.Topology.VMs {
		names[vm.Idx] = vm.Name
	}
	p.Head("hhsim_vm_occupancy", "per-VM occupancy at the last barrier, by state", "gauge")
	for _, v := range st.Occupancy.VMs {
		vmLabels := func(state string) []obs.PromLabel {
			return []obs.PromLabel{
				{Key: "vm", Value: strconv.Itoa(v.VM)},
				{Key: "name", Value: names[v.VM]},
				{Key: "state", Value: state},
			}
		}
		p.Uint("hhsim_vm_occupancy", uint64(v.Running), vmLabels("running")...)
		p.Uint("hhsim_vm_occupancy", uint64(v.Blocked), vmLabels("blocked")...)
		p.Uint("hhsim_vm_occupancy", uint64(v.Queued), vmLabels("queued")...)
		p.Uint("hhsim_vm_occupancy", uint64(v.LentOut), vmLabels("lent_out")...)
		p.Uint("hhsim_vm_occupancy", uint64(v.Pinned), vmLabels("pinned")...)
		p.Uint("hhsim_vm_occupancy", uint64(v.BusyCores), vmLabels("busy_cores")...)
	}

	// Router families appear only in routed mode, after the single-server
	// families, so routerless scrapes stay byte-identical.
	if rt := st.Router; rt != nil {
		p.Head("hhsim_router_requests_total", "front-door request ledger, by stage", "counter")
		reqKind := func(kind string, v uint64) {
			p.Uint("hhsim_router_requests_total", v, obs.PromLabel{Key: "kind", Value: kind})
		}
		reqKind("generated", rt.Generated)
		reqKind("dispatched", rt.Dispatches)
		reqKind("failovers", rt.Failovers)
		reqKind("completed", rt.Completions)
		reqKind("shed", rt.Sheds)
		reqKind("lost", rt.Lost)
		reqKind("zombie_dones", rt.ZombieDones)
		p.Head("hhsim_router_outstanding", "attempts dispatched and not yet answered", "gauge")
		p.Uint("hhsim_router_outstanding", rt.Outstanding)
		p.Head("hhsim_router_health_total", "health-check and membership transitions, by kind", "counter")
		healthKind := func(kind string, v uint64) {
			p.Uint("hhsim_router_health_total", v, obs.PromLabel{Key: "kind", Value: kind})
		}
		healthKind("probes", rt.Probes)
		healthKind("probe_fails", rt.ProbeFails)
		healthKind("ejections", rt.Ejections)
		healthKind("readmits", rt.Readmits)
		healthKind("drains", rt.Drains)
		p.Head("hhsim_router_fleet_latency_ms", "end-to-end fleet latency quantiles", "gauge")
		p.Float("hhsim_router_fleet_latency_ms", rt.FleetP50MS, obs.PromLabel{Key: "quantile", Value: "0.5"})
		p.Float("hhsim_router_fleet_latency_ms", rt.FleetP99MS, obs.PromLabel{Key: "quantile", Value: "0.99"})
		p.Head("hhsim_router_backend_up", "1 when the backend is routable, by state", "gauge")
		for _, b := range rt.Backends {
			up := uint64(0)
			if b.State == "healthy" {
				up = 1
			}
			p.Uint("hhsim_router_backend_up", up,
				obs.PromLabel{Key: "backend", Value: b.Name},
				obs.PromLabel{Key: "state", Value: b.State})
		}
		p.Head("hhsim_router_backend_attempts_total", "per-backend attempt ledger, by kind", "counter")
		for _, b := range rt.Backends {
			attempt := func(kind string, v uint64) {
				p.Uint("hhsim_router_backend_attempts_total", v,
					obs.PromLabel{Key: "backend", Value: b.Name},
					obs.PromLabel{Key: "kind", Value: kind})
			}
			attempt("dispatched", b.Dispatches)
			attempt("done", b.Dones)
			attempt("shed", b.Sheds)
			attempt("crashes", b.Crashes)
		}
		p.Head("hhsim_router_backend_active", "live attempts routed to the backend", "gauge")
		for _, b := range rt.Backends {
			p.Uint("hhsim_router_backend_active", uint64(b.Active),
				obs.PromLabel{Key: "backend", Value: b.Name})
		}
	}

	// Graph families appear only in DAG mode, after everything else, so
	// graphless scrapes stay byte-identical.
	if gp := st.Graph; gp != nil {
		p.Head("hhsim_graph_requests_total", "end-to-end DAG request ledger, by stage", "counter")
		reqKind := func(kind string, v uint64) {
			p.Uint("hhsim_graph_requests_total", v, obs.PromLabel{Key: "kind", Value: kind})
		}
		reqKind("generated", gp.Generated)
		reqKind("completed", gp.Completed)
		reqKind("failed", gp.Failed)
		p.Head("hhsim_graph_inflight", "root requests admitted and not yet drained", "gauge")
		p.Uint("hhsim_graph_inflight", gp.Inflight)
		p.Head("hhsim_graph_rpcs_total", "inter-tier RPC ledger, by kind", "counter")
		rpcKind := func(kind string, v uint64) {
			p.Uint("hhsim_graph_rpcs_total", v, obs.PromLabel{Key: "kind", Value: kind})
		}
		rpcKind("dispatched", gp.Dispatches)
		rpcKind("done", gp.DoneRecv)
		rpcKind("shed", gp.ShedRecv)
		p.Head("hhsim_graph_outstanding", "RPCs dispatched and not yet answered", "gauge")
		p.Uint("hhsim_graph_outstanding", gp.Outstanding)
		p.Head("hhsim_graph_e2e_latency_ms", "end-to-end critical-path latency quantiles", "gauge")
		p.Float("hhsim_graph_e2e_latency_ms", gp.E2EP50MS, obs.PromLabel{Key: "quantile", Value: "0.5"})
		p.Float("hhsim_graph_e2e_latency_ms", gp.E2EP99MS, obs.PromLabel{Key: "quantile", Value: "0.99"})
		p.Head("hhsim_graph_tier_rpcs_total", "per-tier RPC ledger, by kind", "counter")
		for _, t := range gp.Tiers {
			tierKind := func(kind string, v uint64) {
				p.Uint("hhsim_graph_tier_rpcs_total", v,
					obs.PromLabel{Key: "tier", Value: t.Tier},
					obs.PromLabel{Key: "kind", Value: kind})
			}
			tierKind("dispatched", t.Dispatches)
			tierKind("done", t.Dones)
			tierKind("shed", t.Sheds)
		}
		p.Head("hhsim_graph_tier_hop_ms", "per-tier RPC round-trip quantiles", "gauge")
		for _, t := range gp.Tiers {
			p.Float("hhsim_graph_tier_hop_ms", t.HopP50MS,
				obs.PromLabel{Key: "tier", Value: t.Tier},
				obs.PromLabel{Key: "quantile", Value: "0.5"})
			p.Float("hhsim_graph_tier_hop_ms", t.HopP99MS,
				obs.PromLabel{Key: "tier", Value: t.Tier},
				obs.PromLabel{Key: "quantile", Value: "0.99"})
		}
	}
	p.Flush()
}

func boolToUint(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// streamTimeseries serves GET /api/timeseries: SSE when the client asks
// for text/event-stream (or ?format=sse), chunked NDJSON otherwise. One
// point is emitted per simulated barrier until the run completes or the
// client disconnects.
func streamTimeseries(r *Runner, w http.ResponseWriter, req *http.Request) {
	sse := req.URL.Query().Get("format") == "sse" ||
		strings.Contains(req.Header.Get("Accept"), "text/event-stream")
	fl, canFlush := w.(http.Flusher)
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	// Flush headers now: a paused run publishes no points, and clients
	// (curl, http.Get) block until the response header arrives.
	w.WriteHeader(http.StatusOK)
	if canFlush {
		fl.Flush()
	}
	ch, cancel := r.Subscribe(64)
	defer cancel()
	enc := json.NewEncoder(w)
	for {
		select {
		case <-req.Context().Done():
			return
		case <-r.ShutdownRequested():
			return
		case tp, ok := <-ch:
			if !ok {
				return
			}
			if sse {
				fmt.Fprintf(w, "data: ")
			}
			enc.Encode(tp)
			if sse {
				fmt.Fprintf(w, "\n")
			}
			if canFlush {
				fl.Flush()
			}
			if tp.Done {
				return
			}
		}
	}
}
