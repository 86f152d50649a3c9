package hypervisor

import "hardharvest/internal/sim"

// SmartHarvest-style core-utilization prediction (§2.2, [88]): a user-space
// agent samples each Primary VM's busy-core count, predicts near-future
// demand, and lends cores above the prediction to the Harvest VM — while
// keeping some cores idle in an emergency buffer that Primary VMs can
// reclaim without paying the full re-assignment latency.

// Predictor tracks one Primary VM's demand from sampled busy-core counts.
// It maintains two EWMA signals per window: the window average (the CPU
// usage counters SmartHarvest-class agents consume) and the window peak.
// Software agents predict from the average — which is exactly why they
// mispredict microservice load: sub-millisecond bursts barely move the
// window average, so cores are lent right before they are needed and must
// be reclaimed on demand at full cost (§2, §3).
type Predictor struct {
	alpha     float64
	predAvg   float64
	predPeak  float64
	windowMax int
	windowSum int
	windowN   int
	primed    bool
}

// NewPredictor builds a predictor with smoothing factor alpha in (0, 1];
// larger alpha reacts faster.
func NewPredictor(alpha float64) *Predictor {
	if alpha <= 0 || alpha > 1 {
		panic("hypervisor: predictor alpha out of (0,1]")
	}
	return &Predictor{alpha: alpha}
}

// Observe records an instantaneous busy-core count within the current
// window.
func (p *Predictor) Observe(busy int) {
	if busy > p.windowMax {
		p.windowMax = busy
	}
	p.windowSum += busy
	p.windowN++
}

// EndWindow folds the window statistics into the predictions and starts a
// new window.
func (p *Predictor) EndWindow() {
	avg := 0.0
	if p.windowN > 0 {
		avg = float64(p.windowSum) / float64(p.windowN)
	}
	if !p.primed {
		p.predAvg = avg
		p.predPeak = float64(p.windowMax)
		p.primed = true
	} else {
		p.predAvg = p.alpha*avg + (1-p.alpha)*p.predAvg
		p.predPeak = p.alpha*float64(p.windowMax) + (1-p.alpha)*p.predPeak
	}
	p.windowMax = 0
	p.windowSum = 0
	p.windowN = 0
}

// Predicted reports the usage-based demand prediction (cores, fractional) —
// the signal the software agent acts on.
func (p *Predictor) Predicted() float64 { return p.predAvg }

// PredictedPeak reports the peak-holding prediction, for comparison.
func (p *Predictor) PredictedPeak() float64 { return p.predPeak }

// Harvester is the software harvesting agent for one server: it owns a
// predictor per Primary VM and the emergency buffer policy.
type Harvester struct {
	Costs    Costs
	Interval sim.Duration // prediction window length
	// BufferCores is the number of idle cores kept on stand-by per Primary
	// VM for emergency reclamation (SmartHarvest keeps idle cores in an
	// emergency buffer, lowering utilization).
	BufferCores int
	// Alpha is the EWMA smoothing of the demand predictor. Production
	// harvesting agents are tuned for minutes-scale monolithic load, so
	// the default adapts far too slowly for 50 ms microservice bursts —
	// the mismatch the paper exploits.
	Alpha float64

	preds []*Predictor // indexed by VM, nil until the VM is first seen
}

// NewHarvester builds an agent with the given costs and a 1 ms prediction
// window.
func NewHarvester(costs Costs) *Harvester {
	return &Harvester{
		Costs:       costs,
		Interval:    sim.Millisecond,
		BufferCores: 1,
		Alpha:       0.08,
	}
}

func (h *Harvester) pred(vm int) *Predictor {
	for len(h.preds) <= vm {
		h.preds = append(h.preds, nil)
	}
	p := h.preds[vm]
	if p == nil {
		p = NewPredictor(h.Alpha)
		h.preds[vm] = p
	}
	return p
}

// Observe records a busy-core sample for a Primary VM.
func (h *Harvester) Observe(vm, busy int) { h.pred(vm).Observe(busy) }

// EndWindow closes the current prediction window for every tracked VM.
func (h *Harvester) EndWindow() {
	for _, p := range h.preds {
		if p != nil {
			p.EndWindow()
		}
	}
}

// Lendable reports how many of a Primary VM's bound cores the agent is
// willing to lend right now: cores above the predicted demand plus the
// emergency buffer.
func (h *Harvester) Lendable(vm, boundCores int) int {
	need := int(h.pred(vm).Predicted() + 0.999) // round demand up
	lend := boundCores - need - h.BufferCores
	if lend < 0 {
		return 0
	}
	return lend
}
