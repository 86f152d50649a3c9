package obs

import (
	"encoding/json"
	"fmt"
	"io"

	"hardharvest/internal/sim"
)

// Sampler snapshots per-VM occupancy (running/blocked/queued requests,
// lent-out cores, pinned arrivals, busy cores) at a fixed simulated-time
// cadence. It ignores the event stream itself — the server drives it
// through the SnapshotSink interface — which makes it free on the hot path.
//
// A Sampler observes exactly one server run; it is not safe for concurrent
// use.
type Sampler struct {
	run      string
	interval sim.Duration
	topo     Topology
	rows     []Snapshot
}

// NewSampler returns a sampler with the given cadence (values <= 0 disable
// sampling).
func NewSampler(run string, interval sim.Duration) *Sampler {
	return &Sampler{run: run, interval: interval}
}

// Run reports the run label the sampler was created with.
func (s *Sampler) Run() string { return s.run }

// Observe implements Observer; the sampler ignores individual events.
func (s *Sampler) Observe(Event) {}

// Kinds implements Selective: a sampler reads snapshots, not events.
func (s *Sampler) Kinds() KindSet { return 0 }

// SetTopology receives the server shape (used for VM names in exports).
func (s *Sampler) SetTopology(t Topology) { s.topo = t }

// SampleInterval implements SnapshotSink.
func (s *Sampler) SampleInterval() sim.Duration { return s.interval }

// OnSnapshot implements SnapshotSink.
func (s *Sampler) OnSnapshot(sn Snapshot) { s.rows = append(s.rows, sn) }

// Rows reports the collected snapshots in time order.
func (s *Sampler) Rows() []Snapshot { return s.rows }

func (s *Sampler) vmName(idx int) string {
	for _, vm := range s.topo.VMs {
		if vm.Idx == idx {
			return vm.Name
		}
	}
	return fmt.Sprintf("vm%d", idx)
}

// csvHeader is the time-series schema; one row per (snapshot, VM).
const csvHeader = "time_us,run,vm,vm_name,running,blocked,queued,lent_out,pinned,busy_cores\n"

func (s *Sampler) appendCSV(w io.Writer) error {
	for _, sn := range s.rows {
		for _, v := range sn.VMs {
			if _, err := fmt.Fprintf(w, "%.3f,%s,%d,%s,%d,%d,%d,%d,%d,%d\n",
				sim.Duration(sn.Time).Microseconds(), s.run, v.VM, s.vmName(v.VM),
				v.Running, v.Blocked, v.Queued, v.LentOut, v.Pinned, v.BusyCores); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteCSV writes the sampler's series with a header row.
func (s *Sampler) WriteCSV(w io.Writer) error {
	return WriteSamplesCSV(w, s)
}

// WriteSamplesCSV merges several samplers into one CSV document (a single
// header, rows tagged by run label).
func WriteSamplesCSV(w io.Writer, samplers ...*Sampler) error {
	if _, err := io.WriteString(w, csvHeader); err != nil {
		return err
	}
	for _, s := range samplers {
		if s == nil {
			continue
		}
		if err := s.appendCSV(w); err != nil {
			return err
		}
	}
	return nil
}

// sampleRow is the JSON export schema of one (snapshot, VM) pair.
type sampleRow struct {
	TimeUS    float64 `json:"time_us"`
	Run       string  `json:"run"`
	VM        int     `json:"vm"`
	VMName    string  `json:"vm_name"`
	Running   int     `json:"running"`
	Blocked   int     `json:"blocked"`
	Queued    int     `json:"queued"`
	LentOut   int     `json:"lent_out"`
	Pinned    int     `json:"pinned"`
	BusyCores int     `json:"busy_cores"`
}

// WriteSamplesJSON merges several samplers into one JSON array.
func WriteSamplesJSON(w io.Writer, samplers ...*Sampler) error {
	rows := []sampleRow{}
	for _, s := range samplers {
		if s == nil {
			continue
		}
		for _, sn := range s.rows {
			for _, v := range sn.VMs {
				rows = append(rows, sampleRow{
					TimeUS: sim.Duration(sn.Time).Microseconds(), Run: s.run,
					VM: v.VM, VMName: s.vmName(v.VM),
					Running: v.Running, Blocked: v.Blocked, Queued: v.Queued,
					LentOut: v.LentOut, Pinned: v.Pinned, BusyCores: v.BusyCores,
				})
			}
		}
	}
	return json.NewEncoder(w).Encode(rows)
}
