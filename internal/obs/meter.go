package obs

// Meter is a bounded-memory Observer for long-running (served) simulations.
// It maintains the harvest-event Counters and a latency histogram of primary
// completions but — unlike SpanTracer — stores no event stream, so its
// footprint is independent of run length: a simulated day costs the same
// memory as a simulated millisecond.
//
// Two deliberate differences from SpanTracer: the histogram records every
// primary completion, not just measurement-window ones (a live endpoint
// reports what the server is doing now, warmup included), and there is no
// trace export. Like every Observer, a Meter is passive — attaching one
// never changes simulation results.
type Meter struct {
	topo     Topology
	counters Counters
	hist     *LatencyHist
}

// NewMeter returns an empty meter.
func NewMeter() *Meter {
	return &Meter{hist: NewLatencyHist()}
}

// Observe implements Observer.
func (m *Meter) Observe(ev Event) {
	m.counters.Count(ev)
	if ev.Kind == KindComplete && !ev.IsJob {
		m.hist.Record(ev.Dur)
	}
}

// Kinds implements Selective: the meter reads only the counted kinds (the
// histogram's completions among them).
func (m *Meter) Kinds() KindSet { return countedKinds }

// SetTopology implements TopologyObserver.
func (m *Meter) SetTopology(t Topology) { m.topo = t }

// Topology reports the server shape received at run start.
func (m *Meter) Topology() Topology { return m.topo }

// Counters reports the aggregated harvest-event counts (a value copy,
// stable once returned).
func (m *Meter) Counters() Counters { return m.counters }

// Hist reports the live latency histogram. The returned pointer is the
// meter's own histogram: callers that publish it across goroutines must
// Clone it at a barrier.
func (m *Meter) Hist() *LatencyHist { return m.hist }

// MergeMeters folds the meters' counters and latency histograms, in order,
// into a fresh Counters and a fresh histogram. The histogram's bucket array
// is sized once, to the span of all the meters' buckets, so the merge never
// regrows it.
func MergeMeters(ms []*Meter) (Counters, *LatencyHist) {
	c, h := Counters{}, NewLatencyHist()
	lo, hi := -1, 0
	for _, m := range ms {
		if o := m.hist; len(o.buckets) > 0 {
			if lo < 0 || o.off < lo {
				lo = o.off
			}
			hi = max(hi, o.off+len(o.buckets))
		}
	}
	if lo >= 0 {
		h.buckets, h.off = make([]uint64, hi-lo), lo
	}
	for _, m := range ms {
		c.Add(&m.counters)
		h.Merge(m.hist)
	}
	return c, h
}
