package validate

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"hardharvest/internal/experiments"
	"hardharvest/internal/sim"
)

// goldenTables are the experiment tables snapshotted in the golden
// artifact: the paper's two headline latency figures, the utilization
// table, and the claims summary. They share the five-system run memo, so
// capturing all four costs one simulation sweep.
var goldenTables = []string{"fig11", "fig16", "util", "summary"}

// Artifact is one blessed golden run: the exact cells of the headline
// experiment tables plus per-system scalar summaries, all rendered with
// fixed formatting (integer picoseconds and fixed-precision strings) so
// that marshalling is byte-stable across runs, platforms, and re-blessing.
type Artifact struct {
	// Params pins what was run; a diff against an artifact captured at
	// different parameters reports the mismatch instead of cell noise.
	Params ArtifactParams `json:"params"`
	Tables []TableGold    `json:"tables"`
	// Systems summarizes the five architectures from the suite's own
	// instrumented runs (independent of the experiment tables).
	Systems []SystemGold `json:"systems"`
}

// ArtifactParams identifies the scale a golden artifact was captured at.
// Durations are integer picoseconds: no floats anywhere in the artifact.
type ArtifactParams struct {
	MeasurePs int64  `json:"measure_ps"`
	WarmupPs  int64  `json:"warmup_ps"`
	Seed      uint64 `json:"seed"`
}

// TableGold is one experiment table, cells verbatim. Experiment cells are
// already fixed-precision strings (ms/pct/ratio formatters), so storing
// them as rendered keeps the artifact human-diffable.
type TableGold struct {
	ID      string    `json:"id"`
	Title   string    `json:"title"`
	Columns []string  `json:"columns"`
	Rows    []RowGold `json:"rows"`
	Notes   []string  `json:"notes,omitempty"`
}

// RowGold is one table row.
type RowGold struct {
	Label string   `json:"label"`
	Cells []string `json:"cells"`
}

// SystemGold is one architecture's scalar summary.
type SystemGold struct {
	System      string `json:"system"`
	Requests    int64  `json:"requests"`
	Arrivals    int64  `json:"arrivals"`
	Reassigns   int64  `json:"reassigns"`
	HarvestJobs int64  `json:"harvest_jobs"`
	// BusyCoresMilli is mean busy cores × 1000, rounded: integral, so the
	// artifact stays float-free and byte-stable.
	BusyCoresMilli int64         `json:"busy_cores_milli"`
	Services       []ServiceGold `json:"services"`
}

// ServiceGold is one service's latency summary in integer picoseconds.
type ServiceGold struct {
	Name   string `json:"name"`
	Count  int64  `json:"count"`
	MeanPs int64  `json:"mean_ps"`
	P50Ps  int64  `json:"p50_ps"`
	P99Ps  int64  `json:"p99_ps"`
}

// Capture runs the golden experiments and system sweep at the given
// parameters and returns the artifact. Faults, resilience, and
// perturbations deliberately do not flow into goldens: an artifact is the
// unmodified simulator's fingerprint.
func Capture(p Params) *Artifact {
	if p.Measure <= 0 {
		p.Measure = Quick().Measure
	}
	if p.Warmup <= 0 {
		p.Warmup = Quick().Warmup
	}
	art := &Artifact{
		Params: ArtifactParams{
			MeasurePs: int64(p.Measure),
			WarmupPs:  int64(p.Warmup),
			Seed:      p.Seed,
		},
	}
	sc := experiments.Scale{Measure: p.Measure, Warmup: p.Warmup, Servers: 2, Seed: p.Seed}
	for _, id := range goldenTables {
		r := experiments.ByID(id)
		if r == nil {
			panic("validate: unknown golden experiment " + id)
		}
		t := r.Run(sc)
		tg := TableGold{ID: t.ID, Title: t.Title, Columns: t.Columns, Notes: t.Notes}
		for _, row := range t.Rows {
			tg.Rows = append(tg.Rows, RowGold{Label: row.Label, Cells: row.Cells})
		}
		art.Tables = append(art.Tables, tg)
	}

	clean := Params{Measure: p.Measure, Warmup: p.Warmup, Seed: p.Seed}
	for _, r := range runFiveSystems(clean, clean.baseConfig(nil)) {
		sg := SystemGold{
			System:         r.kind.String(),
			Requests:       int64(r.res.Requests),
			Arrivals:       int64(r.res.Arrivals),
			Reassigns:      int64(r.res.Reassigns),
			HarvestJobs:    int64(r.res.HarvestJobs),
			BusyCoresMilli: int64(r.res.BusyCores*1000 + 0.5),
		}
		names := make([]string, 0, len(r.res.Service))
		for name := range r.res.Service {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			rec := r.res.Service[name]
			sg.Services = append(sg.Services, ServiceGold{
				Name:   name,
				Count:  int64(rec.Count()),
				MeanPs: int64(rec.Mean()),
				P50Ps:  int64(rec.P50()),
				P99Ps:  int64(rec.P99()),
			})
		}
		art.Systems = append(art.Systems, sg)
	}
	return art
}

// Marshal renders the artifact as stable, indented JSON with a trailing
// newline. Field order is fixed by the struct definitions and all values
// are integers or pre-rendered strings, so equal artifacts marshal to
// equal bytes.
func (a *Artifact) Marshal() []byte {
	b, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		panic(err) // static struct of ints and strings cannot fail to marshal
	}
	return append(b, '\n')
}

// WriteFile blesses the artifact to path, creating parent directories.
func (a *Artifact) WriteFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, a.Marshal(), 0o644)
}

// LoadArtifact reads a blessed artifact.
func LoadArtifact(path string) (*Artifact, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var a Artifact
	if err := json.Unmarshal(b, &a); err != nil {
		return nil, fmt.Errorf("validate: golden %s: %w", path, err)
	}
	return &a, nil
}

// Diff structurally compares a blessed artifact against a fresh capture
// and returns one line per divergence, each naming the exact table cell or
// system field that moved ("table fig11 row Text col HH-Block: blessed
// 1.234ms got 1.301ms"). Empty means identical.
func Diff(blessed, got *Artifact) []string {
	var out []string
	if blessed.Params != got.Params {
		return []string{fmt.Sprintf("params: blessed %+v got %+v (artifacts are not comparable)",
			blessed.Params, got.Params)}
	}
	out = append(out, diffTables(blessed.Tables, got.Tables)...)
	out = append(out, diffSystems(blessed.Systems, got.Systems)...)
	return out
}

func diffTables(blessed, got []TableGold) []string {
	var out []string
	gotByID := make(map[string]TableGold, len(got))
	for _, t := range got {
		gotByID[t.ID] = t
	}
	for _, bt := range blessed {
		gt, ok := gotByID[bt.ID]
		if !ok {
			out = append(out, fmt.Sprintf("table %s: blessed but not captured", bt.ID))
			continue
		}
		out = append(out, diffTable(bt, gt)...)
		delete(gotByID, bt.ID)
	}
	ids := make([]string, 0, len(gotByID))
	for id := range gotByID {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		out = append(out, fmt.Sprintf("table %s: captured but not blessed", id))
	}
	return out
}

func diffTable(b, g TableGold) []string {
	var out []string
	if !equalStrings(b.Columns, g.Columns) {
		out = append(out, fmt.Sprintf("table %s columns: blessed %v got %v", b.ID, b.Columns, g.Columns))
		return out // cell positions are meaningless under different columns
	}
	gotRows := make(map[string][]string, len(g.Rows))
	for _, r := range g.Rows {
		gotRows[r.Label] = r.Cells
	}
	for _, br := range b.Rows {
		cells, ok := gotRows[br.Label]
		if !ok {
			out = append(out, fmt.Sprintf("table %s row %q: blessed but not captured", b.ID, br.Label))
			continue
		}
		for i, want := range br.Cells {
			col := fmt.Sprintf("#%d", i+1)
			if i+1 < len(b.Columns) {
				col = b.Columns[i+1]
			}
			if i >= len(cells) {
				out = append(out, fmt.Sprintf("table %s row %q col %s: blessed %q got <missing>",
					b.ID, br.Label, col, want))
				continue
			}
			if cells[i] != want {
				out = append(out, fmt.Sprintf("table %s row %q col %s: blessed %q got %q",
					b.ID, br.Label, col, want, cells[i]))
			}
		}
		delete(gotRows, br.Label)
	}
	labels := make([]string, 0, len(gotRows))
	for l := range gotRows {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	for _, l := range labels {
		out = append(out, fmt.Sprintf("table %s row %q: captured but not blessed", b.ID, l))
	}
	return out
}

func diffSystems(blessed, got []SystemGold) []string {
	var out []string
	gotByName := make(map[string]SystemGold, len(got))
	for _, s := range got {
		gotByName[s.System] = s
	}
	for _, bs := range blessed {
		gs, ok := gotByName[bs.System]
		if !ok {
			out = append(out, fmt.Sprintf("system %s: blessed but not captured", bs.System))
			continue
		}
		field := func(name string, want, have int64) {
			if want != have {
				out = append(out, fmt.Sprintf("system %s %s: blessed %d got %d",
					bs.System, name, want, have))
			}
		}
		field("requests", bs.Requests, gs.Requests)
		field("arrivals", bs.Arrivals, gs.Arrivals)
		field("reassigns", bs.Reassigns, gs.Reassigns)
		field("harvest_jobs", bs.HarvestJobs, gs.HarvestJobs)
		field("busy_cores_milli", bs.BusyCoresMilli, gs.BusyCoresMilli)
		gotSvc := make(map[string]ServiceGold, len(gs.Services))
		for _, s := range gs.Services {
			gotSvc[s.Name] = s
		}
		for _, bsvc := range bs.Services {
			gsvc, ok := gotSvc[bsvc.Name]
			if !ok {
				out = append(out, fmt.Sprintf("system %s service %s: blessed but not captured",
					bs.System, bsvc.Name))
				continue
			}
			sf := func(name string, want, have int64) {
				if want != have {
					out = append(out, fmt.Sprintf("system %s service %s %s: blessed %d got %d (%s vs %s)",
						bs.System, bsvc.Name, name, want, have,
						durf(sim.Duration(want)), durf(sim.Duration(have))))
				}
			}
			if bsvc.Count != gsvc.Count {
				out = append(out, fmt.Sprintf("system %s service %s count: blessed %d got %d",
					bs.System, bsvc.Name, bsvc.Count, gsvc.Count))
			}
			sf("mean_ps", bsvc.MeanPs, gsvc.MeanPs)
			sf("p50_ps", bsvc.P50Ps, gsvc.P50Ps)
			sf("p99_ps", bsvc.P99Ps, gsvc.P99Ps)
		}
	}
	return out
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
